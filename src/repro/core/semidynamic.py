"""Semi-dynamic (insert-only) rho-approximate DBSCAN — Theorem 1.

Core-status structure: every non-core point ``p`` carries a vicinity count
``vincnt(p) = |B(p, eps)|``; it is promoted to core the moment the count
reaches ``MinPts`` (Section 5).  Dense cells short-circuit: once a cell
holds ``MinPts`` points, all of them are core (the cell's diameter is at
most ``eps``).

GUM: each promotion queries the close core cells without an edge; a proof
point within ``(1+rho) eps`` yields a grid-graph edge.  Since edges are
never removed, the CC structure is Tarjan's union-find.  A cheap
optimization with identical output: cells already in the same component are
skipped (an extra edge there cannot change any CC).

Exact DBSCAN is the ``rho = 0`` instantiation — in particular
``semi_exact_2d`` below is the paper's *2d-Semi-Exact* algorithm.

Queries (``cgroup_by`` / ``cgroup_by_many`` / ``clusters``) resolve
through the vectorized batch engine inherited from
:class:`repro.core.framework.GridClusterer`; the union-find ``_cc_id``
resolutions it memoizes per query are exactly the find operations of the
CC structure.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.connectivity.union_find import UnionFind
from repro.core.framework import GridClusterer
from repro.kernels import any_within, ball_counts, box_sq_dists, bucket_by_cell
from repro.core.grid import Cell
from repro.geometry.emptiness import EmptinessStructure
from repro.geometry.points import Point, sq_dist


class _SemiCell:
    """State of one non-empty cell under the semi-dynamic algorithm."""

    __slots__ = ("points", "core", "noncore", "emptiness", "neighbors")

    def __init__(self) -> None:
        self.points: Dict[int, Point] = {}
        self.core: Set[int] = set()
        self.noncore: Set[int] = set()
        self.emptiness: Optional[EmptinessStructure] = None
        self.neighbors: Set[Cell] = set()


class SemiDynamicClusterer(GridClusterer):
    """Insert-only rho-approximate DBSCAN with O~(1) amortized insertion."""

    _cell_class = _SemiCell

    def __init__(
        self,
        eps: float,
        minpts: int,
        rho: float = 0.0,
        dim: int = 2,
    ) -> None:
        super().__init__(eps, minpts, rho, dim)
        self._uf = UnionFind()
        self._vincnt: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float]) -> int:
        pid, pt = self._register_point(point)
        cell = self._grid.cell_of(pt)
        data = self._cell_for(cell)
        data.points[pid] = pt
        data.noncore.add(pid)

        if len(data.points) >= self.minpts:
            # Dense cell: every point in it is definitely core.
            for other_pid in list(data.noncore):
                if other_pid != pid:
                    self._promote(other_pid, cell, data)
            self._promote(pid, cell, data)
        else:
            count = self._ball_count(pt, data)
            if count >= self.minpts:
                self._promote(pid, cell, data)
            else:
                self._vincnt[pid] = count

        # The new point raises the vicinity count of close non-core points.
        self._bump_vicinity(pid, pt, cell, data)
        # After linking: promotions reach one closeness step out at most,
        # so touching the insertion cell covers every changed cell.
        self._touch_cells((cell,))
        return pid

    def insert_many(
        self, points: Iterable[Sequence[float]], ids=None
    ) -> List[int]:
        """Vectorized bulk insertion, equivalent to sequential ``insert``.

        The batch is bucketed into cells with one vectorized floor; ball
        counts and vicinity bumps come from numpy distance matrices per
        cell-neighborhood; promotions and GUM edges replay in
        deterministic order (cells lexicographic, ids ascending).  Core
        status is monotone under insertion, so deciding it from the final
        counts reaches the same state as point-at-a-time processing: with
        ``rho = 0`` the clustering is *identical* to the sequential path,
        with ``rho > 0`` both are legal under the sandwich guarantee.

        ``ids`` optionally gives the batch fresh, strictly ascending
        int64 ids (a shard keeps points under their global ids; see
        :meth:`_register_batch`).
        """
        ids, arr, tuples = self._register_batch(points, ids)
        if not tuples:
            return []
        id_list = ids.tolist()
        minpts = self.minpts
        sq_eps = self._sq_eps
        vincnt = self._vincnt

        # Bucket into cells; create missing cells in lexicographic order
        # (discovery back-links keep every neighbor cache complete).
        cells, offsets, order = bucket_by_cell(arr, self._grid.side)
        bounds = offsets.tolist()
        new_in_cell: Dict[Cell, np.ndarray] = {}
        for k, cell in enumerate(map(tuple, cells.tolist())):
            idxs = new_in_cell[cell] = order[bounds[k]:bounds[k + 1]]
            data = self._cell_for(cell)
            for i in idxs.tolist():
                pid = id_list[i]
                data.points[pid] = tuples[i]
                data.noncore.add(pid)

        coords_cache: Dict[Cell, np.ndarray] = {}
        promote_by_cell: Dict[Cell, List[int]] = {}

        # Core status of the new points: dense cells short-circuit (every
        # member is core); sparse cells get exact ball counts from one
        # distance matrix against the full cell-neighborhood.
        for cell, idxs in new_in_cell.items():
            data = self._cells[cell]  # type: ignore[assignment]
            if len(data.points) >= minpts:
                promote_by_cell[cell] = sorted(data.noncore)
                continue
            counts = ball_counts(
                arr[idxs], self._neighborhood_coords(cell, coords_cache), sq_eps
            )
            chosen: List[int] = []
            for i, count in zip(idxs.tolist(), counts.tolist()):
                if count >= minpts:
                    chosen.append(id_list[i])
                else:
                    vincnt[id_list[i]] = count
            if chosen:
                promote_by_cell[cell] = chosen

        # Vicinity bumps: pre-batch non-core points anywhere near the
        # batch gain the number of new points within eps, promoting those
        # that reach MinPts.  (Dense cells were fully promoted above.)
        bump_cells = set(new_in_cell)
        for cell in new_in_cell:
            bump_cells |= self._cells[cell].neighbors  # type: ignore[attr-defined]
        for cell in sorted(bump_cells):
            data = self._cells[cell]  # type: ignore[assignment]
            if len(data.points) >= minpts:
                continue
            idxs = new_in_cell.get(cell)
            old_noncore = sorted(
                data.noncore
                if idxs is None
                else data.noncore.difference(ids[idxs].tolist())
            )
            if not old_noncore:
                continue
            near_idxs = [
                new_in_cell[other]
                for other in (cell, *sorted(data.neighbors))
                if other in new_in_cell
            ]
            if not near_idxs:
                continue
            q_arr = np.array([data.points[pid] for pid in old_noncore])
            bumps = ball_counts(q_arr, arr[np.concatenate(near_idxs)], sq_eps)
            for pid, bump in zip(old_noncore, bumps.tolist()):
                if bump == 0:
                    continue
                vincnt[pid] += bump
                if vincnt[pid] >= minpts:
                    promote_by_cell.setdefault(cell, []).append(pid)

        # Replay promotions per cell: bulk-load the emptiness structures,
        # then add GUM edges with one vectorized witness check per close
        # core-cell pair (the exact eps test — a legal instantiation of
        # the approximate emptiness contract).
        new_core_of: Dict[Cell, np.ndarray] = {}
        for cell in sorted(promote_by_cell):
            data = self._cells[cell]  # type: ignore[assignment]
            pids = sorted(promote_by_cell[cell])
            if data.emptiness is None:
                data.emptiness = EmptinessStructure(self.dim, self.eps, self.rho)
            had_core = bool(data.core)
            data.noncore.difference_update(pids)
            data.core.update(pids)
            for pid in pids:
                vincnt.pop(pid, None)
            pid_arr = np.asarray(pids, dtype=np.int64)
            new_core = new_core_of[cell] = self._store.gather(pid_arr)[1]
            data.emptiness.insert_many(pid_arr, new_core)
            if not had_core:
                self._uf.add(cell)
        for cell, new_core in new_core_of.items():
            data = self._cells[cell]  # type: ignore[assignment]
            cell_lo, cell_hi = (np.array(b) for b in self._grid.cell_box(cell))
            for other in sorted(data.neighbors):
                odata: _SemiCell = self._cells[other]  # type: ignore[assignment]
                if not odata.core:
                    continue
                if self._uf.connected(cell, other):
                    continue
                # Witness pairs must sit within eps of the opposite
                # cell's box; pruning by that bound leaves the outcome
                # unchanged but skips most cross-cluster near-misses.
                other_lo, other_hi = (
                    np.array(b) for b in self._grid.cell_box(other)
                )
                near_new = new_core[
                    box_sq_dists(new_core, other_lo, other_hi) <= sq_eps
                ]
                if not len(near_new):
                    continue
                _ids, other_core = odata.emptiness.arrays()
                near_other = other_core[
                    box_sq_dists(other_core, cell_lo, cell_hi) <= sq_eps
                ]
                if len(near_other) and any_within(near_new, near_other, sq_eps):
                    self._uf.union(cell, other)
        self._touch_cells(new_in_cell)
        return id_list

    def delete(self, pid: int) -> None:
        raise NotImplementedError(
            "the semi-dynamic algorithm is insert-only; use "
            "FullyDynamicClusterer for workloads with deletions"
        )

    # A deletion batch is refused whole, before its ids are checked.
    delete_many = delete

    def vicinity_count(self, pid: int) -> Optional[int]:
        """Current vincnt of a non-core point (None once promoted)."""
        return self._vincnt.get(pid)

    def _bump_vicinity(self, pid: int, pt: Point, cell: Cell, data: _SemiCell) -> None:
        sq_eps = self._sq_eps
        vincnt = self._vincnt
        for other in (cell, *data.neighbors):
            odata = self._cells[other] if other != cell else data
            if not odata.noncore:
                continue
            for q in list(odata.noncore):
                if q == pid:
                    continue  # pid's own count came from the exact scan
                if sq_dist(odata.points[q], pt) <= sq_eps:
                    vincnt[q] += 1
                    if vincnt[q] >= self.minpts:
                        self._promote(q, other, odata)

    def _promote(self, pid: int, cell: Cell, data: _SemiCell) -> None:
        """Non-core -> core transition; feeds GUM (Section 5)."""
        data.noncore.discard(pid)
        data.core.add(pid)
        self._vincnt.pop(pid, None)
        if data.emptiness is None:
            data.emptiness = EmptinessStructure(self.dim, self.eps, self.rho)
        pt = data.points[pid]
        data.emptiness.insert(pid, pt)
        if len(data.core) == 1:
            self._uf.add(cell)
        for other in data.neighbors:
            odata: _SemiCell = self._cells[other]  # type: ignore[assignment]
            if not odata.core:
                continue
            if self._uf.connected(cell, other):
                continue
            assert odata.emptiness is not None
            if odata.emptiness.empty(pt) is not None:
                self._uf.union(cell, other)

    # ------------------------------------------------------------------
    # CC structure
    # ------------------------------------------------------------------

    def _cc_id(self, cell: Cell) -> Hashable:
        return self._uf.find(cell)


def semi_exact_2d(eps: float, minpts: int) -> SemiDynamicClusterer:
    """The paper's *2d-Semi-Exact* algorithm (exact DBSCAN, d = 2)."""
    return SemiDynamicClusterer(eps, minpts, rho=0.0, dim=2)


def semi_approx(
    eps: float, minpts: int, rho: float = 0.001, dim: int = 2
) -> SemiDynamicClusterer:
    """The paper's *Semi-Approx* algorithm (rho-approximate, any d)."""
    return SemiDynamicClusterer(eps, minpts, rho=rho, dim=dim)
