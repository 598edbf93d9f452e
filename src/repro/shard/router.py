"""The shard router: global id space, batch routing, boundary merge.

The router owns everything global about a sharded deployment:

* the **global point registry** and the contiguous global id space
  (``_next_id``), assigned in arrival order exactly like a single
  engine.  It is the only id space: every shard engine stores its
  points under their global ids, so updates, fragments and probes
  cross the shard wire untranslated.  Per shard the router keeps just
  the set of ids that shard holds, which routes deletes and filters
  rebalance transfers;
* **routing** — one :func:`repro.kernels.bucket_by_cell` pass per
  update batch, then each cell's points go to the owner shard plus its
  halo replicas (:meth:`ShardTopology.replica_shards`), preserving
  arrival order within every shard;
* the **boundary merge** — the only place cross-shard state meets.

The merge collects, in one overlapped fan-out, each shard's membership
fragments and its GUM fragment
(:meth:`repro.core.framework.GridClusterer.gum_edge_fragment`).  A
C-group-by ships each shard the query ids it owns; a ``Q = P``
snapshot ships no ids at all — each shard walks its owned cells,
splicing cached per-cell fragments.  Fragments come back as flat
arrays (:class:`repro.core.bulk.MembershipFragments`): member ids, the
granting core cell and length of each part, the unmatched ids, and the
open probes.  The GUM fragment names the shard's owned core cells
(disjoint across shards and globally complete, so their union is the
global GUM vertex set), each labelled with its component in the
shard engine's own CC structure.  Cells sharing a ``(shard, label)``
are connected — a shard holds a subset of the global points, so its
local edges are global edges, and it sees every edge between two cells
it owns.  The edges left are the cross-shard candidate pairs, settled
with one exact witness test over the two frontiers' core coordinates
— the same ``(1+rho) eps`` threshold the in-shard structures maintain.
Membership probes (a non-core point against a foreign core cell) are
settled with exact ``eps`` ball tests against the owner's frontier.  A
union-find over the ``(shard, label)`` components and the witnessed
candidates labels every part with its global component; the labelled
ids become canonical groups in one sort
(:func:`repro.core.framework.assemble_groups`, the engine's own
assembler), and noise is the owners' unmatched ids minus the probe
hits.  At ``rho = 0`` every decision involved is exact, which is why a
merged result is bit-identical to a single engine's.  No merge state
outlives a call on either side of the wire: a restarted worker reports
the labels of its rebuilt engine.

Every shard response carries the shard's engine epoch; the router
checks it against the update count it routed there, so lost updates or
out-of-band writes fail loudly instead of merging stale state.

Two further concerns live here because they are inherently global:

* **Versioned routing.**  Every routed data-plane call is stamped with
  the router's ownership-table version; workers reject mismatches with
  :class:`repro.errors.StaleOwnershipError`.  :meth:`rebalance`
  migrates one ownership block online: transfer the block's influence
  set to the destination under the current version, broadcast the new
  table to every shard, then flip the router's own copy — from the
  caller's perspective one atomic ownership flip.
* **A persistent boundary-witness cache.**  The exact witness test for
  a cross-shard cell pair depends only on the two cells' frontier core
  sets, and a cell's core set can change only under a mutation within
  the grid's closeness reach of it.  The router therefore keeps witness
  outcomes across query barriers and invalidates a pair only when a
  mutation dirties a cell within reach of it — repeated ``Q = P``
  snapshots over a quiet boundary pay for each witness once (the same
  dirty-cell discipline the per-shard fragment cache applies to
  membership fragments, lifted to the merge layer).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.api.config import EngineConfig
from repro.connectivity.union_find import UnionFind
from repro.core.bulk import validated_delete_pids
from repro.core.framework import (
    CGroupByResult,
    Clustering,
    assemble_groups,
    validated_query_pids,
)
from repro.core.grid import Cell, Grid
from repro.errors import ConfigError, ReproError, UnknownPointError
from repro.geometry.points import Point
from repro.kernels import (
    any_within,
    as_point_array,
    ball_counts,
    bucket_by_cell,
    sorted_unique,
)
from repro.shard.topology import ShardTopology

#: Elements of one chunk's ``(cells, dirty cells)`` temporary in
#: :func:`_near_cells`.
_NEAR_CHUNK = 1 << 16

#: Above this many dirty cells the witness cache is cleared wholesale:
#: the staleness test costs ~11 ns per cached pair and dirty cell (3d,
#: 2 vCPU), while a dropped witness costs one ``any_within`` call
#: (~50 us), and only if the merge needs it again.
_WITNESS_CLEAR_DIRTY = 4096


def _near_cells(cells: np.ndarray, dirty: np.ndarray, reach: int) -> np.ndarray:
    """Which rows of ``cells`` lie within Chebyshev distance ``reach``
    of some row of ``dirty`` (both int64 ``(n, dim)`` cell arrays).

    ``|c - d| <= reach`` on an axis is ``0 <= c - (d - reach) <= 2 reach``,
    one unsigned comparison; the rows of ``cells`` go in chunks so the
    boolean temporary stays under ``_NEAR_CHUNK`` elements.
    """
    near = np.zeros(len(cells), dtype=bool)
    low = dirty - reach
    span = np.uint64(2 * reach)
    step = max(1, _NEAR_CHUNK // max(1, len(dirty)))
    for start in range(0, len(cells), step):
        chunk = cells[start:start + step]
        hit = (chunk[:, None, 0] - low[None, :, 0]).view(np.uint64) <= span
        for axis in range(1, cells.shape[1]):
            hit &= (
                (chunk[:, None, axis] - low[None, :, axis]).view(np.uint64)
                <= span
            )
        near[start:start + step] = hit.any(axis=1)
    return near


class ShardRouter:
    """Routes updates and merges queries across per-shard engines."""

    def __init__(self, config: EngineConfig, executor) -> None:
        self.config = config
        self.executor = executor
        self.shard_count = executor.shard_count
        self.topology = ShardTopology(
            eps=config.eps,
            dim=config.dim,
            rho=config.effective_rho,
            shard_count=self.shard_count,
            block=config.resolved_shard_block,
        )
        self._grid: Grid = self.topology.grid
        eps = config.eps
        relaxed = eps * (1.0 + config.effective_rho)
        self._sq_eps = eps * eps
        self._sq_relaxed = relaxed * relaxed
        self._points: Dict[int, Point] = {}
        self._next_id = 0
        self._epoch = 0
        #: The global ids each shard holds (owned points, halo replicas
        #: and any copies a rebalance left behind).
        self._held: List[Set[int]] = [set() for _ in range(self.shard_count)]
        #: Updates routed to each shard — what its engine epoch must read.
        self._routed: List[int] = [0] * self.shard_count
        # Boundary-witness cache (see module docstring).
        self._witness_cache: Dict[Tuple[Cell, Cell], bool] = {}
        self._dirty_cells: Set[Cell] = set()
        self.merge_cache_hits = 0
        self.merge_cache_misses = 0
        self.merge_cache_invalidations = 0

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, pid: int) -> bool:
        return pid in self._points

    @property
    def epoch(self) -> int:
        return self._epoch

    def point(self, pid: int) -> Point:
        return self._points[pid]

    def ids(self) -> Iterable[int]:
        return self._points.keys()

    def owner_of(self, pid: int) -> int:
        """The shard whose engine is authoritative for this point."""
        return self.topology.owner_of_cell(self._grid.cell_of(self._points[pid]))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert_many(self, points) -> List[int]:
        """Route one insertion batch; returns the new global ids.

        The whole batch is validated up front (shape, dimension, finite
        coordinates) before any shard sees a point, so a malformed batch
        mutates nothing anywhere — the all-or-nothing contract of the
        single engine, preserved across the fan-out.
        """
        batch = points if isinstance(points, list) else list(points)
        arr = as_point_array(batch, self.config.dim)
        if len(arr) == 0:
            return []
        tuples: List[Point] = [tuple(row) for row in arr.tolist()]
        base = self._next_id
        replica_shards = self.topology.replica_shards
        cells, offsets, order = bucket_by_cell(arr, self._grid.side)
        # replicas[shard, k]: whether ``shard`` gets bucket k's points.
        replicas = np.zeros((self.shard_count, len(cells)), dtype=bool)
        for k, cell in enumerate(map(tuple, cells.tolist())):
            self._dirty_cells.add(cell)
            replicas[list(replica_shards(cell)), k] = True
        counts = np.diff(offsets)
        shard_ids: List[Optional[np.ndarray]] = [None] * self.shard_count
        calls = []
        for shard, buckets in enumerate(replicas):
            if not buckets.any():
                calls.append(None)
                continue
            # Sorting the shard's rows restores arrival order within
            # its slice — the deterministic replay order every engine
            # applies.  The slice ships as an (n, dim) float64 array
            # with its int64 global ids beside it, the declared bulk
            # form (BULK_CALLS): the shard wire streams both as raw
            # frames, and the shard engine stores every point under its
            # global id.
            rows = np.sort(order[np.repeat(buckets, counts)])
            ids = shard_ids[shard] = rows + base
            calls.append(("ingest", (arr[rows], self.topology.version, ids)))
        try:
            self.executor.map(calls)
        finally:
            # Mirror Engine.ingest: the epoch over-counts on failure
            # rather than ever under-counting.
            self._epoch += len(tuples)
        new_ids = range(base, base + len(tuples))
        self._points.update(zip(new_ids, tuples))
        self._next_id = base + len(tuples)
        for shard, ids in enumerate(shard_ids):
            if ids is not None:
                self._held[shard].update(ids.tolist())
                self._routed[shard] += len(ids)
        return list(new_ids)

    def delete_many(self, pids: Iterable[int]) -> None:
        """Route one deletion batch to every shard holding each id.

        Validation happens entirely at the router — duplicates and dead
        ids are rejected with the single engine's exact error types and
        messages *before* any shard is contacted, so an invalid batch is
        all-or-nothing across the whole deployment.
        """
        pid_list = validated_delete_pids(map(int, pids), self._points)
        if not pid_list:
            return
        cell_of = self._grid.cell_of
        for pid in pid_list:
            self._dirty_cells.add(cell_of(self._points[pid]))
        # Every shard holding a copy deletes it: the current replicas,
        # and a former owner that kept its copies through a rebalance
        # (so a block rebalanced back finds no dead points there).
        per_shard = [
            [pid for pid in pid_list if pid in held] for held in self._held
        ]
        calls = [
            ("delete_many", (np.asarray(ids, dtype=np.int64),
                             self.topology.version))
            if ids else None
            for ids in per_shard
        ]
        try:
            self.executor.map(calls)
        finally:
            self._epoch += len(pid_list)
        for shard, shard_pids in enumerate(per_shard):
            self._held[shard].difference_update(shard_pids)
            self._routed[shard] += len(shard_pids)
        for pid in pid_list:
            del self._points[pid]

    # ------------------------------------------------------------------
    # Merged queries
    # ------------------------------------------------------------------

    def cgroup_by_many(self, pids: Iterable[int]) -> CGroupByResult:
        """C-group-by across shards, merged at the boundary."""
        pid_list = validated_query_pids(pids, self._points)
        if not pid_list:
            return CGroupByResult()
        return self._merge(
            sorted_unique(np.asarray(pid_list, dtype=np.int64))
        )

    def clusters(self) -> Clustering:
        """Full clustering of the live dataset (the ``Q = P`` query).

        The merged result passes through in its canonical form (see
        :class:`repro.core.framework.Clustering`).
        """
        if not self._points:
            return Clustering()
        result = self._merge(None)
        return Clustering(clusters=result.groups, noise=result.noise)

    def is_core(self, pid: int) -> bool:
        """Authoritative core status, answered by the owner shard."""
        if pid not in self._points:
            raise UnknownPointError(f"point id {pid} is not live")
        return self.executor.call(self.owner_of(pid), "is_core", pid)

    def shard_stats(self) -> List:
        """Per-shard engine stats (halo replicas included in counts)."""
        return self.executor.map([("stats", ())] * self.shard_count)

    # ------------------------------------------------------------------
    # Ownership (versioned table + online rebalance)
    # ------------------------------------------------------------------

    @property
    def ownership_version(self) -> int:
        """The router's current ownership-table version."""
        return self.topology.version

    def rebalance(self, block: Cell, dest: int) -> int:
        """Migrate one ownership block to ``dest`` online; new version.

        Three steps, each leaving the deployment consistent:

        1. **Transfer.**  Every live point inside the closeness-reach
           box around the block (the block's full influence set — what
           ``dest`` needs to compute exact core status for the block's
           cells) that ``dest`` does not already hold is bulk-ingested
           there, stamped with the *current* version like any routed
           update.
        2. **Broadcast.**  The new table (version + overrides) is
           installed on every shard via the journaled ``set_ownership``
           call, so a recovered worker replays the flip in order with
           the version-stamped updates around it.
        3. **Flip.**  The router installs the same table locally; every
           subsequent call is stamped with the new version.

        The old owner keeps its now-foreign copies, and deletes keep
        reaching them: foreign halo data is advisory by construction
        (the trust predicate follows the new table immediately), so it
        can never leak into owned-core decisions or the boundary merge,
        and should the block come back its old owner holds exactly the
        live copies.  Witness cache entries are dropped wholesale — the
        flip redraws the boundary itself.
        """
        block_t = tuple(int(b) for b in block)
        if len(block_t) != self.config.dim:
            raise ConfigError(
                f"block {block!r} has {len(block_t)} axes; deployment is "
                f"{self.config.dim}-dimensional"
            )
        if not (0 <= dest < self.shard_count):
            raise ConfigError(
                f"cannot rebalance block {block_t!r} to shard {dest}: "
                f"deployment has {self.shard_count} shards"
            )
        reach, b = self.topology.reach, self.topology.block
        lo = [blk * b - reach for blk in block_t]
        hi = [(blk + 1) * b - 1 + reach for blk in block_t]
        held = self._held[dest]
        cell_of = self._grid.cell_of
        transfer = sorted(
            pid
            for pid, pt in self._points.items()
            if pid not in held
            and all(
                low <= c <= high
                for low, c, high in zip(lo, cell_of(pt), hi)
            )
        )
        if transfer:
            # Older global ids than some ``dest`` already holds: the
            # shard engine accepts any fresh ascending ids.
            arr = np.array(
                [self._points[pid] for pid in transfer], dtype=np.float64
            )
            self.executor.call(
                dest, "ingest", arr, self.topology.version,
                np.asarray(transfer, dtype=np.int64),
            )
            held.update(transfer)
            self._routed[dest] += len(transfer)
        overrides = self.topology.ownership_overrides
        overrides[block_t] = dest
        new_version = self.topology.version + 1
        self.executor.map(
            [("set_ownership", (new_version, overrides))] * self.shard_count
        )
        self.topology.apply_ownership(new_version, overrides)
        self._witness_cache.clear()
        self._dirty_cells.clear()
        return new_version

    def _invalidate_witnesses(self) -> None:
        """Drop cached witnesses within reach of any mutated cell.

        A pair's witness depends only on the two cells' frontier core
        sets, and a cell's core set can change only under a mutation
        within the closeness reach of it — so a cached pair survives
        exactly when both its cells are farther than ``reach`` (in
        Chebyshev distance) from every dirty cell, which one
        :func:`_near_cells` call decides for every cached pair.  Past
        ``_WITNESS_CLEAR_DIRTY`` dirty cells the test costs more than
        the witnesses it would keep, and the cache is simply cleared.
        """
        dirty, cache = self._dirty_cells, self._witness_cache
        if len(dirty) > _WITNESS_CLEAR_DIRTY:
            self.merge_cache_invalidations += len(cache)
            cache.clear()
        elif cache:
            pairs = list(cache)
            dim = self.config.dim
            near = _near_cells(
                np.array(pairs, dtype=np.int64).reshape(-1, dim),
                np.array(list(dirty), dtype=np.int64).reshape(-1, dim),
                self.topology.reach,
            )
            stale = near.reshape(-1, 2).any(axis=1)
            for row in np.flatnonzero(stale).tolist():
                del cache[pairs[row]]
            self.merge_cache_invalidations += int(stale.sum())
        dirty.clear()

    def _merge(self, query: Optional[np.ndarray]) -> CGroupByResult:
        """One overlapped fan-out plus the boundary merge (see module doc).

        ``query`` holds distinct live ids; ``None`` is the ``Q = P``
        snapshot, for which every shard walks the cells it owns.
        """
        version = self.topology.version
        if query is None:
            calls = [("merge_state", (None, version))] * self.shard_count
        else:
            cells = np.floor(self._coords(query) / self._grid.side)
            owners = self.topology.owners_of_cells(cells.astype(np.int64))
            calls = [
                ("merge_state", (query[owners == shard], version))
                for shard in range(self.shard_count)
            ]
        responses = self.executor.map(calls)
        for shard, (_, _, epoch) in enumerate(responses):
            if epoch != self._routed[shard]:
                raise ReproError(
                    f"shard {shard} is at epoch {epoch} but the router "
                    f"routed {self._routed[shard]} updates to it; the "
                    f"shard was written out-of-band or lost updates — "
                    f"refusing to merge inconsistent snapshots"
                )

        # --- the global grid graph: labelled vertices, boundary --------
        # Each (shard, label) component is one union-find node.
        node_of: Dict[Cell, int] = {}
        frontier: Dict[Cell, np.ndarray] = {}
        nodes = 0
        for _, gum, _ in responses:
            node_of.update(
                zip(
                    map(tuple, gum.core_cells.tolist()),
                    (gum.labels + nodes).tolist(),
                )
            )
            nodes += int(gum.labels.max(initial=-1)) + 1
            frontier.update(gum.frontier)
        uf = UnionFind()
        cross_pairs = sorted(
            {
                (a, b) if a < b else (b, a)
                for _, gum, _ in responses
                for a, b in gum.candidates
                if b in node_of
            }
        )
        if self._dirty_cells:
            self._invalidate_witnesses()
        for a, b in cross_pairs:
            node_a, node_b = node_of[a], node_of[b]
            if uf.connected(node_a, node_b):
                continue  # an extra witness cannot change any component
            witness = self._witness_cache.get((a, b))
            if witness is None:
                coords_a, coords_b = frontier.get(a), frontier.get(b)
                if coords_a is None or coords_b is None:
                    raise ReproError(
                        f"boundary merge is missing frontier core "
                        f"coordinates for cell pair {a} / {b} — shard "
                        f"fragments are inconsistent"
                    )
                witness = bool(
                    any_within(coords_a, coords_b, self._sq_relaxed)
                )
                self._witness_cache[(a, b)] = witness
                self.merge_cache_misses += 1
            else:
                self.merge_cache_hits += 1
            if witness:
                uf.union(node_a, node_b)
        component = [uf.find(node) for node in range(nodes)]

        # --- fragments and probes -> labelled ids over global components
        members: List[np.ndarray] = []
        counts: List[np.ndarray] = []
        labels: List[np.ndarray] = []
        probes_by_cell: Dict[Cell, List[int]] = {}
        for fragments, _, _ in responses:
            members.append(fragments.members)
            counts.append(fragments.counts)
            labels.append(
                np.fromiter(
                    (
                        component[node_of[cell]]
                        for cell in map(tuple, fragments.cells.tolist())
                    ),
                    dtype=np.int64,
                    count=len(fragments.counts),
                )
            )
            for pid, cell in zip(
                fragments.probe_ids.tolist(),
                map(tuple, fragments.probe_cells.tolist()),
            ):
                if cell in node_of:
                    probes_by_cell.setdefault(cell, []).append(pid)
        hits: List[np.ndarray] = []
        for cell in sorted(probes_by_cell):
            coords = frontier.get(cell)
            if coords is None:
                raise ReproError(
                    f"boundary merge is missing frontier core coordinates "
                    f"for probed cell {cell} — shard fragments are "
                    f"inconsistent"
                )
            probe_pids = sorted_unique(
                np.asarray(probes_by_cell[cell], dtype=np.int64)
            )
            hit = probe_pids[
                ball_counts(self._coords(probe_pids), coords, self._sq_eps) > 0
            ]
            if len(hit):
                members.append(hit)
                counts.append(np.array([len(hit)]))
                labels.append(np.array([component[node_of[cell]]]))
                hits.append(hit)
        noise = sorted_unique(
            np.concatenate([frags.unmatched for frags, _, _ in responses])
        )
        if hits:
            noise = noise[~np.isin(noise, np.concatenate(hits))]
        return CGroupByResult(
            groups=assemble_groups(
                np.concatenate(members),
                np.concatenate(counts),
                np.concatenate(labels),
            ),
            noise=noise.tolist(),
        )

    def _coords(self, pids: np.ndarray) -> np.ndarray:
        """Registry coordinates of live ids as an ``(n, dim)`` array."""
        points = self._points
        return np.array(
            [points[pid] for pid in pids.tolist()], dtype=np.float64
        ).reshape(-1, self.config.dim)
