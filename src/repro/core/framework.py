"""The grid-graph framework shared by all dynamic clusterers (Section 4).

:class:`GridClusterer` owns the grid, the non-empty-cell registry with
cached neighbor lists, and the C-group-by query algorithm of Section 4.2,
on top of :class:`ClustererBase`, whose columnar
:class:`repro.core.store.PointStore` it shares with the rho-free
baselines.  Subclasses provide the update algorithms (core-status
structure + GUM + CC structure): :class:`repro.core.semidynamic.
SemiDynamicClusterer` for insert-only workloads (Theorem 1) and
:class:`repro.core.fullydynamic.FullyDynamicClusterer` for fully-dynamic
ones (Theorem 4).  Exact DBSCAN is obtained with ``rho = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.bulk import (
    GumEdgeFragment,
    MembershipFragments,
    SequentialBulkMixin,
)
from repro.core.fragments import CellFragment, FragmentCache, FragmentCacheStats
from repro.core.store import PointStore
from repro.errors import ConfigError
from repro.kernels import (
    as_point_array,
    bucket_by_cell,
    sorted_unique,
)
from repro.core.grid import Cell, Grid
from repro.geometry.points import Point, sq_dist


@dataclass
class CGroupByResult:
    """Result of a C-group-by query: ``Q`` broken by cluster membership.

    ``groups[i]`` lists the queried point ids that fall in the i-th reported
    cluster; a non-core point may appear in several groups.  ``noise`` lists
    queried points that belong to no cluster.

    Results built by the clusterers are *canonical* (see
    :func:`canonical_cgroup_result`): members ascending within each group,
    groups ordered by smallest member, noise ascending — so equal
    clusterings compare equal as plain lists, independent of dict/set
    iteration order or of which query path produced them.
    """

    groups: List[List[int]] = field(default_factory=list)
    noise: List[int] = field(default_factory=list)

    def group_sets(self) -> List[Set[int]]:
        return [set(g) for g in self.groups]

    def memberships(self) -> Dict[int, int]:
        """Number of groups containing each queried point id."""
        counts: Dict[int, int] = {pid: 0 for pid in self.noise}
        for group in self.groups:
            for pid in group:
                counts[pid] = counts.get(pid, 0) + 1
        return counts


#: At or below this many queried ids ``cgroup_by_many`` routes through the
#: scalar path: the engine's fixed vectorization overhead (id dedup,
#: coordinate array build, cell bucketing, one loop step per bucket)
#: dominates small queries.  Measured on 20k-point seed-spreader data in
#: 2d and 3d, both grid clusterers, the crossover is ~96-112 ids at the
#: default eps (every cell fully core, several ids per bucket), ~48-64
#: ids at a 44-62% core fraction (scalar probes are dear), and ~160-200
#: ids when every queried id sits alone in an all-core cell.  96 keeps
#: the worst loss of either path below ~1.5x across the three regimes.
_SEQUENTIAL_QUERY_CUTOFF = 96

#: The empty int64 id array.
_NO_IDS = np.empty(0, dtype=np.int64)

#: Rounding margins of :meth:`GridClusterer._ball_count`'s box tests: the
#: box pad relative to the point's coordinate in cell units (thousands of
#: ulps, still a sliver of a cell), and the relative band around the
#: squared radius within which a box test defers to a scan.
_BOX_PAD = 2.0 ** -40
_BOX_BAND = 1e-9


def canonical_cgroup_result(
    groups: Iterable[Iterable[int]], noise: Iterable[int]
) -> CGroupByResult:
    """Deterministically-ordered :class:`CGroupByResult`.

    Members are deduplicated and sorted ascending within each group,
    groups are sorted by smallest member (full lexicographic order as the
    tie-break), empty groups are dropped, and noise is deduplicated and
    sorted ascending.
    """
    canon = sorted(sorted(set(g)) for g in groups if g)
    return CGroupByResult(groups=canon, noise=sorted(set(noise)))


def assemble_groups(
    members: np.ndarray, counts: np.ndarray, labels: np.ndarray
) -> List[List[int]]:
    """Canonical groups from flat, labelled id parts.

    The one group assembler of the batched paths: the engine's
    C-group-by (:meth:`GridClusterer.cgroup_by_many`), its ``Q = P``
    snapshot (:meth:`GridClusterer.clusters`) and the shard router's
    merge.  The parts' ids lie back to back in ``members``; part ``i``
    holds ``counts[i]`` ids and joins group ``labels[i]`` (a
    non-negative int64).  An id may sit in parts of several groups (a
    border point in several clusters) and in several parts of one
    group.  One sort of packed ``(label, id)`` keys groups the ids,
    orders them within each group and drops the repeats, so a query
    pays one sort however many groups it touches.  Groups come back in
    lexicographic order: the array twin of
    :func:`canonical_cgroup_result`.
    """
    if not len(members):
        return []
    count = int(labels.max()) + 1
    lo = int(members.min())
    ranks = None
    shift = (int(members.max()) - lo).bit_length()
    if count << shift >= 2**63:
        # Ids too spread to pack beside the labels: pack their ranks.
        ranks = sorted_unique(members)
        members = np.searchsorted(ranks, members)
        lo, shift = 0, (len(ranks) - 1).bit_length()
    # Full-size passes run in place, and the stable sort (a merge sort)
    # takes each part's ascending ids as one run: at snapshot sizes this
    # is what keeps one sort ahead of sorting each group on its own.
    keys = np.repeat((labels << shift) - lo, counts)
    keys += members
    keys.sort(kind="stable")
    repeat = keys[1:] == keys[:-1]
    if repeat.any():
        keys = np.concatenate([keys[:1], keys[1:][~repeat]])
    bounds = np.searchsorted(keys, np.arange(count + 1) << shift).tolist()
    keys &= (1 << shift) - 1
    keys += lo
    ids = keys if ranks is None else ranks[keys]
    groups = [ids[a:b].tolist() for a, b in zip(bounds, bounds[1:]) if b > a]
    groups.sort()
    return groups


@dataclass
class Clustering:
    """Full clustering of the current dataset (``Q = P``).

    The C-group-by result over every live id, in the same canonical
    form as :class:`CGroupByResult`: members ascending within each
    cluster, clusters in lexicographic order, noise ascending.  Every
    clusterer passes its canonical result through unchanged, so equal
    clusterings compare equal as plain lists.
    """

    clusters: List[List[int]] = field(default_factory=list)
    noise: List[int] = field(default_factory=list)

    @property
    def cluster_count(self) -> int:
        return len(self.clusters)


class ClustererBase(SequentialBulkMixin):
    """``eps``, ``MinPts``, the dimension and the live points of a
    clusterer.

    The points live in one columnar :class:`PointStore`, with ids
    assigned in arrival order.  The grid clusterers and both rho-free
    baselines derive from this class.
    """

    def __init__(self, eps: float, minpts: int, dim: int) -> None:
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if minpts < 1:
            raise ConfigError(f"minpts must be >= 1, got {minpts}")
        self.eps = eps
        self.minpts = minpts
        self.dim = dim
        self._store = PointStore(dim)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, pid: int) -> bool:
        return pid in self._store

    @property
    def next_id(self) -> int:
        """The id the next inserted point gets."""
        return self._store.next_id

    def point(self, pid: int) -> Point:
        """Coordinates of a live point id."""
        return self._store.point(pid)

    def ids(self) -> List[int]:
        """All live point ids, ascending."""
        return self._store.ids()

    def live_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, coords)`` arrays of every live point, ids ascending."""
        return self._store.live()

    def _register_point(self, point: Sequence[float]) -> Tuple[int, Point]:
        """Store one point under the next id; returns ``(id, tuple)``.

        The point is checked first by the batch rule
        (:func:`as_point_array`: a wrong dimension or a non-finite
        coordinate is a ``ValueError``), so a rejected ``insert`` leaves
        no trace and fails exactly as a one-point ``insert_many`` does.
        """
        pt = tuple(as_point_array([point], self.dim)[0].tolist())
        return self._store.append(pt), pt


class GridClusterer(ClustererBase):
    """Common state and the shared C-group-by query algorithm.

    Subclasses must maintain, per non-empty cell, an instance of their
    ``_cell_class`` exposing ``points`` (dict id -> point), ``core`` (set
    of core ids), ``emptiness`` (an EmptinessStructure over the core ids,
    or None) and ``neighbors`` (set of close non-empty cells), and must
    implement ``_cc_id`` plus the update entry points.  The inherited
    sequential ``insert_many`` / ``delete_many`` are overridden with
    vectorized paths by both dynamic clusterers.

    Live points sit in the columnar :class:`PointStore` inherited from
    :class:`ClustererBase` (ascending int64 ids, float64 rows) beside
    each cell's ``points`` dict.  A query batch's ids are validated and
    their coordinates gathered with one store lookup; the cell walks
    (:meth:`_walk_fragments`, core counts) read the cell dicts.

    Queries resolve through the vectorized batch engine
    (:meth:`cgroup_by_many`): ids bucketed by cell in CSR form, each
    fully-core bucket taken whole as one slice of the cell-sorted ids,
    and only mixed or non-core buckets resolved per close core cell via
    batched emptiness calls (:meth:`_query_fragments`).  ``cgroup_by``
    is a thin wrapper over it; ``clusters()`` runs the per-cell
    resolution over every cell (:meth:`_walk_fragments`); both label
    their parts by component and share :func:`assemble_groups`.
    :meth:`cgroup_by_sequential` keeps the point-at-a-time reference.
    """

    def __init__(
        self,
        eps: float,
        minpts: int,
        rho: float = 0.0,
        dim: int = 2,
    ) -> None:
        super().__init__(eps, minpts, dim)
        self.rho = rho
        self._grid = Grid(eps, dim, rho)
        self._sq_eps = eps * eps
        relaxed = eps * (1.0 + rho)
        self._sq_relaxed = relaxed * relaxed
        self._cells: Dict[Cell, object] = {}
        # Incremental fragment cache: memoizes per-cell membership
        # fragments across barriers; the update paths invalidate
        # through _touch_cells.
        self._fragments = FragmentCache()

    def fragment_cache_stats(self) -> FragmentCacheStats:
        """Cumulative fragment-cache counters."""
        return self._fragments.stats()

    def drop_fragments(self) -> None:
        """Drop every cached fragment.

        For a caller whose trust predicate changes what it admits while
        staying the same object (a shard's ownership flip): the cache
        binds by predicate identity, so it cannot notice on its own.
        """
        self._fragments.clear()

    def _touch_cells(self, touched: Iterable[Cell]) -> None:
        """Invalidate cached fragments around mutated cells.

        ``touched`` is the set of cells whose point sets a mutation
        changed.  Core status can shift one closeness step out (a ball
        count reaches into neighbor cells), to ``ring1 = touched ∪
        N(touched)``; membership fragments depend on their neighbors'
        core sets on top, so they die for ``ring2 = ring1 ∪ N(ring1)``.

        Contract with the update paths: insert paths call this *after*
        new cells are registered and neighbor-linked, delete paths
        *before* emptied cells are unlinked — either way the grid's
        neighbor links still cover the mutated neighborhood when the
        rings are derived here.
        """
        cache = self._fragments
        if cache.is_empty():
            return
        cells = self._cells
        ring1 = set(touched)
        for cell in list(ring1):
            data = cells.get(cell)
            if data is not None:
                ring1 |= data.neighbors  # type: ignore[attr-defined]
        ring2 = set(ring1)
        for cell in ring1:
            data = cells.get(cell)
            if data is not None:
                ring2 |= data.neighbors  # type: ignore[attr-defined]
        cache.invalidate(ring2)

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def cell_of(self, pid: int) -> Cell:
        return self._grid.cell_of(self._store.point(pid))

    # ------------------------------------------------------------------
    # Update interface (implemented by subclasses)
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float]) -> int:
        """Insert a point; returns its id."""
        raise NotImplementedError

    def delete(self, pid: int) -> None:
        """Delete a point by id."""
        raise NotImplementedError

    def is_core(self, pid: int) -> bool:
        """Current core status of a live point (the core-status structure)."""
        data = self._cells[self._grid.cell_of(self._store.point(pid))]
        return pid in data.core  # type: ignore[attr-defined]

    def _cc_id(self, cell: Cell) -> Hashable:
        """CC id of a core cell (consistent between updates)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # C-group-by query (Section 4.2) — shared by all variants
    # ------------------------------------------------------------------

    def _cluster_ids_of(
        self, pid: int, point: Optional[Sequence[float]] = None
    ) -> List[Hashable]:
        """The components a live point belongs to; ``point`` is its
        coordinates when the caller has gathered them already."""
        if point is None:
            # A dead id fails like every other query path.
            point = self._store.gather((pid,))[1][0].tolist()
        cell = self._grid.cell_of(point)
        data = self._cells[cell]
        if pid in data.core:  # type: ignore[attr-defined]
            return [self._cc_id(cell)]
        found: Set[Hashable] = set()
        # A core point in q's own cell is within eps automatically.
        if data.core:  # type: ignore[attr-defined]
            found.add(self._cc_id(cell))
        for other in data.neighbors:  # type: ignore[attr-defined]
            odata = self._cells[other]
            if not odata.core:  # type: ignore[attr-defined]
                continue
            if odata.emptiness.empty(point) is not None:  # type: ignore[attr-defined]
                found.add(self._cc_id(other))
        return list(found)

    def cgroup_by(self, pids: Iterable[int]) -> CGroupByResult:
        """Group the queried ids by the clusters they belong to.

        Resolves through the vectorized batch engine
        (:meth:`cgroup_by_many`); :meth:`cgroup_by_sequential` keeps the
        point-at-a-time reference path.
        """
        return self.cgroup_by_many(pids)

    def cgroup_by_many(self, pids: Iterable[int]) -> CGroupByResult:
        """Vectorized C-group-by: resolve a whole batch of ids at once.

        The queried ids are bucketed by grid cell with one vectorized
        floor (:func:`repro.kernels.bucket_by_cell`, CSR form).  A
        bucket whose cell is fully core is one slice of the cell-sorted
        id array, labelled by ``_cc_id`` of its cell, with no per-point
        or per-bucket array work; the non-core points of every other
        bucket are resolved against each close core cell with one
        batched emptiness call (``empty_many``) instead of per-point
        probes (:meth:`_query_fragments`).  CC-id resolutions are
        memoized per query, and a probe against a component the point
        already belongs to is skipped (the answer could not change the
        result — the same optimization the GUM update paths use).  The
        labelled parts become groups in one :func:`assemble_groups`
        sort.

        With ``rho = 0`` every primitive is exact and the result is
        identical to per-point resolution; with ``rho > 0`` each
        membership independently honours the approximate emptiness
        contract, so both paths are legal and may differ only inside the
        don't-care band.
        """
        pid_list = list(pids)
        if not pid_list:
            return CGroupByResult()
        if len(pid_list) <= _SEQUENTIAL_QUERY_CUTOFF:
            # Small queries lose to the engine's fixed vectorization
            # overhead; both paths produce the same canonical result.
            return self.cgroup_by_sequential(pid_list)
        # The canonical result is order- and multiplicity-free, so the
        # engine works on the deduplicated ascending id array.
        return self._resolve_query(*self._store.query(pid_list))

    def _resolve_query(
        self, pid_arr: np.ndarray, arr: np.ndarray
    ) -> CGroupByResult:
        """Resolve pre-validated ``(ids, coords)`` query arrays.

        ``pid_arr`` must hold distinct live ids.  The query's flat
        membership parts (:meth:`_query_fragments`) are labelled by
        the component of their granting cell and assembled once
        (:func:`assemble_groups`).
        """
        cc = self._memoized_cc()
        parts = self._query_fragments(pid_arr, arr, cc=cc)
        return CGroupByResult(
            groups=self._component_groups(parts, cc),
            noise=np.sort(parts.unmatched).tolist(),
        )

    def _memoized_cc(self) -> Callable[[Cell], int]:
        """Dense component labels of core cells for one query.

        ``cc(cell)`` numbers the components of ``_cc_id`` from 0 in
        order of first use, memoized per cell: components are fixed
        during a query, so equal labels mean equal components.
        """
        memo: Dict[Cell, int] = {}
        dense: Dict[Hashable, int] = {}
        cc_of = self._cc_id

        def cc(cell: Cell) -> int:
            label = memo.get(cell)
            if label is None:
                label = memo[cell] = dense.setdefault(cc_of(cell), len(dense))
            return label

        return cc

    @staticmethod
    def _component_groups(
        parts: MembershipFragments, cc: Callable[[Cell], int]
    ) -> List[List[int]]:
        """Canonical groups of flat parts: each part joins the group of
        its granting cell's component (``cc``, see :meth:`_memoized_cc`)."""
        labels = np.fromiter(
            map(cc, map(tuple, parts.cells.tolist())),
            dtype=np.int64,
            count=len(parts.cells),
        )
        return assemble_groups(parts.members, parts.counts, labels)

    def _query_fragments(
        self,
        pid_arr: np.ndarray,
        arr: np.ndarray,
        trust: Optional[Callable[[Cell], bool]] = None,
        cc: Optional[Callable[[Cell], int]] = None,
    ) -> MembershipFragments:
        """The flat membership parts of a query, one set per cell bucket.

        The engine behind every batched resolution of an explicit id
        set (``pid_arr`` distinct and live, ``arr`` their coordinates).
        The ids are bucketed by cell in CSR form and reordered once by
        cell.  A bucket whose cell is fully core is one part as it
        stands: its slice of the reordered ids, granted by its own
        cell; all such parts are gathered with one mask.  Only mixed
        and non-core buckets are resolved (:meth:`_resolve_cell_fragment`).

        ``trust`` restricts which cells this resolver may decide
        against — a close cell failing it is not probed, and every
        non-core query id of the bucket is emitted as a ``(pid, cell)``
        probe for the caller to settle against the cell owner's
        authoritative core set.  Queried ids always live in trusted
        cells (the shard router routes each id to its owner), and a
        fully-core bucket probes nothing.

        *Cell-complete* mixed or non-core buckets (the query covers
        every live point of the cell) are served from / stored into the
        fragment cache; partial buckets recompute and bypass it, and
        when ``cc`` (the memoized component of a core cell) is given
        they skip probes against components a point already holds.
        """
        cells, offsets, order = bucket_by_cell(arr, self._grid.side)
        ids = pid_arr[order]
        bounds = offsets.tolist()
        registry = self._cells
        cache = self._fragments
        cache.begin(trust)
        whole: List[bool] = []
        frags: List[CellFragment] = []
        for k, cell in enumerate(map(tuple, cells.tolist())):
            data = registry[cell]
            size = len(data.points)  # type: ignore[attr-defined]
            if len(data.core) == size:  # type: ignore[attr-defined]
                whole.append(True)
                continue
            whole.append(False)
            lo, hi = bounds[k], bounds[k + 1]
            cacheable = hi - lo == size
            frag = cache.lookup_membership(cell) if cacheable else None
            if frag is None:
                frag = self._resolve_cell_fragment(
                    cell, data, ids[lo:hi],
                    lambda rows=order[lo:hi]: arr[rows], trust,
                    None if cacheable else cc,
                )
                if cacheable:
                    cache.store_membership(cell, frag)
            frags.append(frag)
        full = np.array(whole, dtype=bool)
        counts = np.diff(offsets)
        return self._flat_fragments(
            frags, (ids[np.repeat(full, counts)], counts[full], cells[full])
        )

    def _walk_fragments(
        self, trust: Optional[Callable[[Cell], bool]] = None
    ) -> Iterator[CellFragment]:
        """The fragment of every trusted cell: a ``Q = P`` query.

        Iterates the cell registry directly — every live point of every
        walked cell is queried, so there is nothing to deduplicate,
        look up, bucket or validate, and every cell is cache-eligible.
        Clean cells splice their memoized fragment; a cell a mutation
        dirtied since the last barrier recomputes with its ids in
        ascending order.
        """
        cache = self._fragments
        cache.begin(trust)
        for cell, data in self._cells.items():
            if trust is not None and not trust(cell):
                continue
            frag = cache.lookup_membership(cell)
            if frag is None:
                pts = data.points  # type: ignore[attr-defined]
                cell_ids = np.fromiter(
                    pts.keys(), dtype=np.int64, count=len(pts)
                )
                order = np.argsort(cell_ids)
                coords = np.array(list(pts.values()), dtype=float)[order]
                frag = self._resolve_cell_fragment(
                    cell, data, cell_ids[order], lambda: coords, trust
                )
                cache.store_membership(cell, frag)
            yield frag

    def _resolve_cell_fragment(
        self,
        cell: Cell,
        data: object,
        cell_ids: np.ndarray,
        cell_coords: Callable[[], np.ndarray],
        trust: Optional[Callable[[Cell], bool]],
        cc: Optional[Callable[[Cell], int]] = None,
    ) -> CellFragment:
        """Resolve one cell bucket into a granting-cell-keyed fragment.

        The per-cell core of the batched query engine.  ``cell_coords``
        returns the coordinates of ``cell_ids`` row for row; it is only
        called when some queried point is non-core.  Without ``cc``
        every close trusted core cell is probed: a cached fragment must
        be complete per *cell* so it stays valid while the global
        component structure drifts around it, and so the shard merge can
        apply its own global components to it.  With ``cc`` (the
        component of a core cell) a point skips the probe against a cell
        whose component it already holds; the fragment is then complete
        only per component, which is all an uncached, component-keyed
        result needs.
        """
        core_set = data.core  # type: ignore[attr-defined]
        if len(core_set) == len(data.points):  # type: ignore[attr-defined]
            # Fully-core cell: every queried id is core, granted by its
            # own cell; nothing to probe.
            return CellFragment(members={cell: cell_ids})
        cell_pids = cell_ids.tolist()
        if not core_set:
            core_q: List[int] = []
            noncore_q = cell_pids
        else:
            core_q = [pid for pid in cell_pids if pid in core_set]
            noncore_q = [pid for pid in cell_pids if pid not in core_set]
        granted: Dict[Cell, List[int]] = {}
        if core_q:
            granted[cell] = core_q
        noise: List[int] = []
        probes: List[Tuple[int, Cell]] = []
        if noncore_q:
            # A core point in the cell itself is within eps automatically.
            membership: Dict[int, Set[Cell]] = (
                {pid: {cell} for pid in noncore_q}
                if core_set
                else {pid: set() for pid in noncore_q}
            )
            q_arr = cell_coords()
            if len(noncore_q) < len(cell_pids):
                q_arr = q_arr[
                    [k for k, pid in enumerate(cell_pids) if pid not in core_set]
                ]
            # Components each point already holds (only with ``cc``).
            held: Dict[int, Set[Hashable]] = (
                {}
                if cc is None
                else {
                    pid: {cc(cell)} if core_set else set() for pid in noncore_q
                }
            )
            for other in sorted(data.neighbors):  # type: ignore[attr-defined]
                if trust is not None and not trust(other):
                    # Outside this resolver's authority: its local view
                    # of the cell's core set may be stale, so leave the
                    # decision open for every non-core id of the bucket
                    # (a point may belong to several clusters, so probes
                    # are emitted regardless of memberships found here).
                    probes.extend((pid, other) for pid in noncore_q)
                    continue
                odata = self._cells[other]
                if not odata.core:  # type: ignore[attr-defined]
                    continue
                todo_pids, todo_arr = noncore_q, q_arr
                if cc is not None:
                    ocid = cc(other)
                    rows = [
                        k for k, pid in enumerate(noncore_q)
                        if ocid not in held[pid]
                    ]
                    if not rows:
                        continue
                    if len(rows) < len(noncore_q):
                        todo_pids = [noncore_q[k] for k in rows]
                        todo_arr = q_arr[rows]
                proofs = odata.emptiness.empty_many(todo_arr)  # type: ignore[attr-defined]
                for pid, proof in zip(todo_pids, proofs):
                    if proof is not None:
                        membership[pid].add(other)
                        if cc is not None:
                            held[pid].add(ocid)
            for pid in noncore_q:
                granting = membership[pid]
                if not granting:
                    noise.append(pid)
                for gcell in granting:
                    granted.setdefault(gcell, []).append(pid)
        return CellFragment(
            members={
                gcell: np.asarray(pids, dtype=np.int64)
                for gcell, pids in granted.items()
            },
            noise=noise,
            probes=probes,
        )

    # ------------------------------------------------------------------
    # Shard-support surface: per-cell fragments for the boundary merge
    # ------------------------------------------------------------------

    def membership_fragments(
        self,
        pids: Optional[Iterable[int]] = None,
        trust: Optional[Callable[[Cell], bool]] = None,
    ) -> MembershipFragments:
        """Resolve queried ids into per-core-cell membership fragments.

        The cell-keyed decomposition of :meth:`cgroup_by_many` — what the
        shard router merges across engines: group parts keyed by the
        core cell granting the membership instead of by CC id, so a
        boundary merge can apply its *global* connected components to
        them.  ``pids=None`` queries every point of every cell ``trust``
        admits (a shard's share of a ``Q = P`` snapshot) by walking the
        cells, as :meth:`clusters` does.  ``trust`` restricts which
        cells this engine may decide against (see
        :meth:`_query_fragments`); memberships against untrusted cells
        come back as open probes.  Dead ids raise
        :class:`repro.errors.UnknownPointError` before anything
        resolves, exactly like the query paths.
        """
        if pids is None:
            return self._flat_fragments(self._walk_fragments(trust))
        return self._query_fragments(*self._store.query(pids), trust=trust)

    def _flat_fragments(
        self,
        frags: Iterable[CellFragment],
        head: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> MembershipFragments:
        """Concatenate cell fragments into flat parts.

        ``head`` optionally gives parts that are flat already, as
        ``(members, counts, cells)``; they lead the result.
        """
        dim = self.dim
        if head is None:
            head = (_NO_IDS, _NO_IDS, np.empty((0, dim), dtype=np.int64))
        members, counts, head_cells = head
        parts: List[np.ndarray] = [members]
        cells: List[Cell] = []
        unmatched: List[int] = []
        probes: List[Tuple[int, Cell]] = []
        for frag in frags:
            cells.extend(frag.members)
            parts.extend(frag.members.values())
            unmatched.extend(frag.noise)
            probes.extend(frag.probes)
        sizes = np.fromiter(map(len, parts), dtype=np.int64, count=len(parts))
        return MembershipFragments(
            members=np.concatenate(parts),
            cells=np.concatenate(
                [head_cells, np.array(cells, dtype=np.int64).reshape(-1, dim)]
            ),
            counts=np.concatenate([counts, sizes[1:]]),
            unmatched=np.array(unmatched, dtype=np.int64),
            probe_ids=np.array([pid for pid, _ in probes], dtype=np.int64),
            probe_cells=np.array(
                [cell for _, cell in probes], dtype=np.int64
            ).reshape(-1, dim),
        )

    def gum_edge_fragment(
        self, trust: Optional[Callable[[Cell], bool]] = None
    ) -> GumEdgeFragment:
        """This engine's trusted core cells, labelled by its own components.

        Each trusted core cell comes with its component in the engine's
        incrementally maintained CC structure (:meth:`_cc_id`: the
        union-find of the semi-dynamic algorithm, dynamic connectivity
        in the fully-dynamic one), renumbered densely per call — no
        edge is re-derived.  Close non-empty cells outside ``trust``
        come back as candidates, together with the frontier's core
        coordinates, for the shard router to settle against the
        owners' fragments.  With ``trust=None`` the fragment covers the
        whole graph.

        Why labels suffice for a shard (whose engine holds, per cell, a
        subset of the global points — complete for owned cells): a
        locally-core point is globally core, so every local GUM edge is
        a global one and equal labels never join what a single engine
        keeps apart; and owned cells see their full neighbourhoods, so
        every global edge between two owned cells is a local edge.  The
        remaining edges cross owners and are the candidates.  At
        ``rho = 0`` the merged components are therefore exactly a
        single engine's; at ``rho > 0`` every edge used is legal.

        The trust predicate runs once per registered cell: candidates
        are each trusted core cell's neighbours minus the trusted set.
        A frontier cell's coordinates are a copy of its emptiness
        store's rows.
        """
        cells = self._cells
        trusted = (
            cells.keys()
            if trust is None
            else {cell for cell in cells if trust(cell)}
        )
        core_cells: List[Cell] = sorted(
            cell for cell in trusted if cells[cell].core  # type: ignore[attr-defined]
        )
        cc_of = self._cc_id
        dense: Dict[Hashable, int] = {}
        labels = np.fromiter(
            (dense.setdefault(cc_of(cell), len(dense)) for cell in core_cells),
            dtype=np.int64,
            count=len(core_cells),
        )
        candidates: List[Tuple[Cell, Cell]] = []
        frontier: Dict[Cell, np.ndarray] = {}
        for cell in core_cells:
            data = cells[cell]
            foreign = data.neighbors - trusted  # type: ignore[attr-defined]
            if not foreign:
                continue
            candidates.extend((cell, other) for other in sorted(foreign))
            frontier[cell] = data.emptiness.arrays()[1].copy()  # type: ignore[attr-defined]
        return GumEdgeFragment(
            core_cells=np.array(core_cells, dtype=np.int64).reshape(
                -1, self.dim
            ),
            labels=labels,
            candidates=candidates,
            frontier=frontier,
        )

    def cgroup_by_sequential(self, pids: Iterable[int]) -> CGroupByResult:
        """Point-at-a-time C-group-by — the scalar reference path.

        Kept for the batch-vs-sequential equivalence harness and the
        query-throughput benchmarks; produces the same canonical ordering
        as :meth:`cgroup_by_many`.
        """
        pid_arr, coords = self._store.gather(pids)
        groups: Dict[Hashable, List[int]] = {}
        noise: List[int] = []
        for pid, point in zip(pid_arr.tolist(), coords.tolist()):
            cids = self._cluster_ids_of(pid, point)
            if not cids:
                noise.append(pid)
            for cid in cids:
                groups.setdefault(cid, []).append(pid)
        return canonical_cgroup_result(groups.values(), noise)

    def clusters(self) -> Clustering:
        """Full clustering of the live dataset (a ``Q = P`` query).

        The incremental barrier: walks the cell registry
        (:meth:`_walk_fragments`), so clean cells splice their memoized
        fragment and only cells a mutation dirtied since the last
        barrier recompute.  The cluster list keeps the canonical group
        order of :meth:`cgroup_by_many` (members ascending and
        deduplicated, groups lexicographic; noise ascending).
        """
        if not len(self._store):
            return Clustering()
        parts = self._flat_fragments(self._walk_fragments())
        return Clustering(
            clusters=self._component_groups(parts, self._memoized_cc()),
            noise=np.sort(parts.unmatched).tolist(),
        )

    def same_cluster(self, pid_a: int, pid_b: int) -> bool:
        """Whether two live points share at least one cluster.

        Dead ids fail the whole query up front with
        :class:`repro.errors.UnknownPointError` (listing every dead id),
        exactly like the batched query paths.
        """
        (pid_a, pid_b), (point_a, point_b) = (
            part.tolist() for part in self._store.gather((pid_a, pid_b))
        )
        a = set(self._cluster_ids_of(pid_a, point_a))
        if not a:
            return False
        return bool(a.intersection(self._cluster_ids_of(pid_b, point_b)))

    # ------------------------------------------------------------------
    # Cell registry helpers
    # ------------------------------------------------------------------

    def _cell_for(self, cell: Cell) -> Any:
        """The state of ``cell``, registered and neighbor-linked if new.

        New cells are instances of the subclass's ``_cell_class``.
        """
        data = self._cells.get(cell)
        if data is None:
            data = self._cell_class()
            data.neighbors = self._discover_neighbors(cell)
            self._cells[cell] = data
        return data

    def _discover_neighbors(self, cell: Cell) -> Set[Cell]:
        """Find close non-empty cells and link the caches both ways."""
        neighbors = set(self._grid.neighbors_of(cell, self._cells))
        for other in neighbors:
            self._cells[other].neighbors.add(cell)  # type: ignore[attr-defined]
        return neighbors

    def _unlink_cell(self, cell: Cell) -> None:
        data = self._cells.pop(cell)
        for other in data.neighbors:  # type: ignore[attr-defined]
            self._cells[other].neighbors.discard(cell)  # type: ignore[attr-defined]

    def _register_batch(
        self, points: Iterable[Sequence[float]], ids=None
    ) -> Tuple[np.ndarray, np.ndarray, List[Point]]:
        """Validate and store a whole batch of points at once.

        Returns ``(ids, arr, tuples)``: ``ids`` is the batch's strictly
        ascending int64 id array, in batch order.  Without explicit
        ``ids`` the batch takes the contiguous range from ``next_id``
        on, exactly the ids sequential ``insert`` calls would have
        assigned.  Explicit ``ids`` must be strictly ascending and not
        live, but may be older than ids already held (a shard receiving
        a rebalance transfer); see :meth:`PointStore.add`.
        """
        arr = as_point_array(list(points), self.dim)
        ids = self._store.add(arr, ids)
        return ids, arr, [tuple(row) for row in arr.tolist()]

    def _cell_coords(
        self, cell: Cell, cache: Dict[Cell, np.ndarray]
    ) -> np.ndarray:
        """All point coordinates of one cell as an array (memoized)."""
        arr = cache.get(cell)
        if arr is None:
            pts = self._cells[cell].points  # type: ignore[attr-defined]
            arr = (
                np.array(list(pts.values()), dtype=float)
                if pts
                else np.empty((0, self.dim))
            )
            cache[cell] = arr
        return arr

    def _neighborhood_coords(
        self, cell: Cell, cache: Dict[Cell, np.ndarray]
    ) -> np.ndarray:
        """Coordinates of every point in ``cell`` and its close cells."""
        data = self._cells[cell]
        parts = [self._cell_coords(cell, cache)]
        for other in sorted(data.neighbors):  # type: ignore[attr-defined]
            parts.append(self._cell_coords(other, cache))
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def _ball_count(self, point: Point, data: object) -> int:
        """Exact |B(point, eps)| over the cell of ``data`` and its close
        cells, saturating at MinPts.

        The own cell counts whole (its diameter is ``eps``: the dense-cell
        guarantee).  A close cell counts whole when its box lies inside
        the ball, is skipped when its box misses the ball, and is scanned
        otherwise.  The box tests run in cell units on padded boxes
        against a banded radius, so points near the ball's boundary are
        always scanned with ``sq_dist``.
        """
        minpts = self.minpts
        count = len(data.points)  # type: ignore[attr-defined]
        if count >= minpts:
            return count
        side = self._grid.side
        units = [x / side for x in point]
        pad = _BOX_PAD * (1.0 + max(map(abs, units)))
        sq_eps = self._sq_eps
        sq_units = sq_eps / (side * side)  # the radius in cell units
        inside = sq_units * (1.0 - _BOX_BAND)
        outside = sq_units * (1.0 + _BOX_BAND)
        for other in data.neighbors:  # type: ignore[attr-defined]
            near = far = 0.0
            for u, c in zip(units, other):
                lo = u - c + pad  # offset from the padded box's low face
                hi = lo - 1.0 - 2.0 * pad  # ... and from its high face
                if lo < 0.0:
                    near += lo * lo
                elif hi > 0.0:
                    near += hi * hi
                far += lo * lo if lo > -hi else hi * hi
            if near > outside:
                continue
            pts = self._cells[other].points  # type: ignore[attr-defined]
            if far <= inside:
                count += len(pts)
            else:
                for q in pts.values():
                    if sq_dist(q, point) <= sq_eps:
                        count += 1
                        if count >= minpts:
                            return count
            if count >= minpts:
                return count
        return count
