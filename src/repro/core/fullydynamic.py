"""Fully-dynamic rho-double-approximate DBSCAN — Theorem 4.

Core status follows the *relaxed* definition of Section 6.2: Section 7.3
asks only for a count ``k`` with ``|B(q, eps)| <= k <= |B(q, (1+rho) eps)|``,
and a point is core iff ``k`` reaches ``MinPts``.  Every path here counts
exactly (``k = |B(q, eps)|``, a legal instance at any ``rho``): the
sequential updates through the saturating
:meth:`repro.core.framework.GridClusterer._ball_count` over each cell's
point dict, the bulk updates with numpy ball counts.  Dense cells
short-circuit exactly as in the semi-dynamic case.

Grid-graph edges are maintained by one aBCP instance (Lemma 3) per pair of
close core cells: the edge exists exactly while the instance holds a
witness pair, and the CC structure is Holm–de Lichtenberg–Thorup dynamic
connectivity (the paper's choice).

Updates move core points in batches of one cell: ``_promote_many`` and
``_demote_many`` are the only promote and demote paths (the sequential
``insert`` / ``delete`` pass one-element or per-cell batches).  Each
appends to or removes from the cell's flat emptiness store once and
notifies each aBCP instance of the cell once, so a bulk update repairs an
instance at most once per cell, not once per point.  ``delete_many``
groups its batch by cell with one vectorized floor and reuses that
grouping for the fragment-cache invalidation.

Exact DBSCAN is the ``rho = 0`` instantiation — ``full_exact_2d`` below is
the paper's *2d-Full-Exact*, and ``double_approx`` the paper's
*Double-Approx*.

Queries (``cgroup_by`` / ``cgroup_by_many`` / ``clusters``) resolve
through the vectorized batch engine inherited from
:class:`repro.core.framework.GridClusterer`; memoizing ``_cc_id`` per
query means each component-id lookup against the dynamic-connectivity
structure happens once per queried core cell, not once per point.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.connectivity.hdt import HDTConnectivity
from repro.core.abcp import ABCPInstance, SIDE_A, SIDE_B
from repro.core.framework import GridClusterer
from repro.kernels import ball_counts, bucket_by_cell
from repro.core.grid import Cell
from repro.geometry.emptiness import EmptinessStructure
from repro.geometry.points import Point


class _FullCell:
    """State of one non-empty cell under the fully-dynamic algorithm."""

    __slots__ = ("points", "core", "noncore", "emptiness", "neighbors", "abcp")

    def __init__(self) -> None:
        self.points: Dict[int, Point] = {}
        self.core: Set[int] = set()
        self.noncore: Set[int] = set()
        self.emptiness: Optional[EmptinessStructure] = None
        self.neighbors: Set[Cell] = set()
        # Close core cell -> (shared aBCP instance, this cell's side in it).
        self.abcp: Dict[Cell, Tuple[ABCPInstance, int]] = {}


class FullyDynamicClusterer(GridClusterer):
    """Fully-dynamic rho-double-approximate DBSCAN (O~(1) amortized updates)."""

    _cell_class = _FullCell

    def __init__(
        self,
        eps: float,
        minpts: int,
        rho: float = 0.0,
        dim: int = 2,
    ) -> None:
        super().__init__(eps, minpts, rho, dim)
        self._conn = HDTConnectivity()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float]) -> int:
        pid, pt = self._register_point(point)
        cell = self._grid.cell_of(pt)
        data = self._cell_for(cell)
        data.points[pid] = pt
        data.noncore.add(pid)

        minpts = self.minpts
        if self._ball_count(pt, data) >= minpts:
            self._promote_many([pid], [pt], cell, data)

        # The insertion can only create core points nearby; recheck them.
        # A promotion changes no count, so each cell promotes in one batch.
        for other in (cell, *data.neighbors):
            odata: _FullCell = self._cells[other]  # type: ignore[assignment]
            if not odata.noncore:
                continue
            if len(odata.points) >= minpts:
                chosen = sorted(odata.noncore)
            else:
                chosen = sorted(
                    q
                    for q in odata.noncore
                    if q != pid
                    and self._ball_count(odata.points[q], odata) >= minpts
                )
            if chosen:
                self._promote_many(
                    chosen, [odata.points[q] for q in chosen], other, odata
                )
        # After linking: promotions reach one closeness step out at most,
        # so touching the insertion cell covers every changed cell.
        self._touch_cells((cell,))
        return pid

    def insert_many(
        self, points: Iterable[Sequence[float]], ids=None
    ) -> List[int]:
        """Vectorized bulk insertion, equivalent to sequential ``insert``.

        All batch points enter the cell registries first; core status
        is then decided in one pass over the affected
        cell-neighborhoods from exact numpy ball counts (a legal
        instantiation of the approximate range-count contract, and with
        ``rho = 0`` identical to it).  Each cell promotes its new core
        points in one ``_promote_many`` (cells in lexicographic order,
        ids ascending), which keeps the aBCP instances and the CC
        structure exactly as maintained by the sequential path.
        Insertions only create core points, so one final pass reaches
        the sequential fixpoint.

        ``ids`` optionally gives the batch fresh, strictly ascending
        int64 ids (a shard keeps points under their global ids; see
        :meth:`_register_batch`).
        """
        ids, arr, tuples = self._register_batch(points, ids)
        if not tuples:
            return []
        id_list = ids.tolist()
        minpts = self.minpts

        cells, offsets, order = bucket_by_cell(arr, self._grid.side)
        bounds = offsets.tolist()
        rows = order.tolist()
        touched = list(map(tuple, cells.tolist()))
        for k, cell in enumerate(touched):
            data = self._cell_for(cell)
            items = [
                (id_list[i], tuples[i]) for i in rows[bounds[k]:bounds[k + 1]]
            ]
            data.points.update(items)
            data.noncore.update(pid for pid, _ in items)

        # The batch can only create core points in the affected cells and
        # their close cells; recheck every non-core point there.
        recheck = set(touched)
        for cell in touched:
            recheck |= self._cells[cell].neighbors  # type: ignore[attr-defined]
        coords_cache: Dict[Cell, np.ndarray] = {}
        for cell in sorted(recheck):
            data = self._cells[cell]  # type: ignore[assignment]
            if not data.noncore:
                continue
            noncore = np.array(sorted(data.noncore), dtype=np.int64)
            q_arr = self._store.gather(noncore)[1]
            if len(data.points) < minpts:
                counts = ball_counts(
                    q_arr, self._neighborhood_coords(cell, coords_cache), self._sq_eps
                )
                chosen = counts >= minpts
                if not chosen.any():
                    continue
                noncore, q_arr = noncore[chosen], q_arr[chosen]
            self._promote_many(noncore.tolist(), q_arr, cell, data)
        self._touch_cells(touched)
        return id_list

    def delete_many(self, pids: Iterable[int]) -> None:
        """Vectorized bulk deletion, equivalent to sequential ``delete``.

        The batch is grouped by cell once (one vectorized floor); each
        cell's points leave its registries, and its core points demote
        in one ``_demote_many``, so every aBCP instance
        is repaired at most once per cell.  Survivor core status is then
        rechecked in one pass over the affected cell-neighborhoods with
        exact numpy ball counts, again demoting per cell.  Deletions
        only destroy core points, so one final pass reaches the
        sequential fixpoint.
        """
        pid_arr, rows = self._store.lookup(pids, delete=True)
        if not len(pid_arr):
            return
        cells, offsets, order = bucket_by_cell(
            self._store.coords(rows), self._grid.side
        )
        bounds = offsets.tolist()
        by_cell = pid_arr[order].tolist()
        affected = list(map(tuple, cells.tolist()))
        # Invalidate before any removal: emptied cells are unlinked below,
        # and the rings need the neighbor links still intact.
        self._touch_cells(affected)
        for k, cell in enumerate(affected):
            data: _FullCell = self._cells[cell]  # type: ignore[assignment]
            core_gone: List[int] = []
            for pid in by_cell[bounds[k]:bounds[k + 1]]:
                del data.points[pid]
                if pid in data.core:
                    core_gone.append(pid)
                else:
                    data.noncore.discard(pid)
            if core_gone:
                self._demote_many(core_gone, cell, data)

        # The batch can only destroy core points in the affected cells
        # and their close cells; recheck every core point there.
        recheck = set(affected)
        for cell in affected:
            recheck |= self._cells[cell].neighbors  # type: ignore[attr-defined]
        coords_cache: Dict[Cell, np.ndarray] = {}
        minpts = self.minpts
        for cell in sorted(recheck):
            data = self._cells[cell]  # type: ignore[assignment]
            if len(data.points) >= minpts or not data.core:
                continue
            assert data.emptiness is not None
            core_ids, core_coords = data.emptiness.arrays()
            counts = ball_counts(
                core_coords,
                self._neighborhood_coords(cell, coords_cache),
                self._sq_eps,
            )
            doomed = core_ids[counts < minpts]
            if len(doomed):
                self._demote_many(doomed.tolist(), cell, data)

        for cell in affected:
            if not self._cells[cell].points:  # type: ignore[attr-defined]
                self._unlink_cell(cell)
        self._store.discard(rows)

    def delete(self, pid: int) -> None:
        pt = self._store.pop(pid)
        cell = self._grid.cell_of(pt)
        # Invalidate before any removal (the cell may be unlinked below).
        self._touch_cells((cell,))
        data: _FullCell = self._cells[cell]  # type: ignore[assignment]
        del data.points[pid]
        if pid in data.core:
            self._demote_many([pid], cell, data)
        else:
            data.noncore.discard(pid)

        # The deletion can only destroy core points nearby; recheck them.
        # A demotion changes no count, so each cell demotes in one batch.
        minpts = self.minpts
        for other in (cell, *data.neighbors):
            odata: _FullCell = self._cells[other]  # type: ignore[assignment]
            if len(odata.points) >= minpts or not odata.core:
                continue
            doomed = sorted(
                q
                for q in odata.core
                if self._ball_count(odata.points[q], odata) < minpts
            )
            if doomed:
                self._demote_many(doomed, other, odata)

        if not data.points:
            self._unlink_cell(cell)

    # ------------------------------------------------------------------
    # GUM (Section 7.4)
    # ------------------------------------------------------------------

    def _promote_many(
        self,
        pids: List[int],
        coords: Sequence[Sequence[float]],
        cell: Cell,
        data: _FullCell,
    ) -> None:
        """Non-core -> core for a batch of one cell's points.

        ``coords`` holds the points' coordinates row for row (an array
        or a list of points).  The emptiness structure takes one bulk
        append.  When the cell just became a core cell, its aBCP
        instances are opened over the full batch (the constructor's
        initial scan covers every new point); otherwise each instance is
        notified once for the whole batch.
        """
        if data.emptiness is None:
            data.emptiness = EmptinessStructure(self.dim, self.eps, self.rho)
        was_core = bool(data.core)
        data.noncore.difference_update(pids)
        data.core.update(pids)
        data.emptiness.insert_many(pids, coords)
        if not was_core:
            # The cell just became a core cell: join the grid graph and
            # open an aBCP instance against every close core cell.
            self._conn.add_vertex(cell)
            for other in sorted(data.neighbors):
                odata: _FullCell = self._cells[other]  # type: ignore[assignment]
                if not odata.core:
                    continue
                instance = ABCPInstance(
                    data.emptiness, odata.emptiness, self._store.point
                )
                data.abcp[other] = (instance, SIDE_A)
                odata.abcp[cell] = (instance, SIDE_B)
                if instance.has_witness:
                    self._conn.insert_edge(cell, other)
        else:
            for other, (instance, side) in data.abcp.items():
                had = instance.has_witness
                instance.insert_many(pids, side)
                if instance.has_witness and not had:
                    self._conn.insert_edge(cell, other)

    def _demote_many(self, pids: List[int], cell: Cell, data: _FullCell) -> None:
        """Core -> non-core (or leaving entirely) for a batch of one cell.

        Points still in the cell become non-core.  The emptiness
        structure drops the batch at once; then each aBCP instance is
        repaired once, or, if the cell lost its last core point, torn
        down.
        """
        data.core.difference_update(pids)
        points = data.points
        data.noncore.update(pid for pid in pids if pid in points)
        assert data.emptiness is not None
        data.emptiness.delete_many(pids)
        if data.core:
            for other, (instance, side) in data.abcp.items():
                had = instance.has_witness
                instance.delete_many(pids, side)
                if had and not instance.has_witness:
                    self._conn.delete_edge(cell, other)
        else:
            # The cell stopped being a core cell: tear down its instances.
            for other, (instance, _side) in list(data.abcp.items()):
                if instance.has_witness:
                    self._conn.delete_edge(cell, other)
                odata: _FullCell = self._cells[other]  # type: ignore[assignment]
                odata.abcp.pop(cell, None)
            data.abcp.clear()
            self._conn.remove_vertex(cell)

    # ------------------------------------------------------------------
    # CC structure
    # ------------------------------------------------------------------

    def _cc_id(self, cell: Cell) -> Hashable:
        return self._conn.component_id(cell)

    @property
    def grid_edge_count(self) -> int:
        """Number of edges currently in the grid graph (for diagnostics)."""
        return self._conn.edge_count


def full_exact_2d(eps: float, minpts: int) -> FullyDynamicClusterer:
    """The paper's *2d-Full-Exact* algorithm (exact DBSCAN, d = 2)."""
    return FullyDynamicClusterer(eps, minpts, rho=0.0, dim=2)


def double_approx(
    eps: float, minpts: int, rho: float = 0.001, dim: int = 2
) -> FullyDynamicClusterer:
    """The paper's *Double-Approx* algorithm (rho-double-approx, any d)."""
    return FullyDynamicClusterer(eps, minpts, rho=rho, dim=dim)
