"""Bulk-update surface shared by every clusterer (sequential fallbacks).

The numeric primitives (cell bucketing, ball counts, witness searches,
box pruning) live in the kernel layer, :mod:`repro.kernels`.  This
module keeps the batch *API* glue: the sequential fallback mixins that
give every clusterer (baselines included) the ``insert_many`` /
``delete_many`` / ``cgroup_by_many`` surface the batched workload
runner drives, and the fragment records the shard merge exchanges.

Equivalence contract (maintained by the clusterers' vectorized paths):
batch updates replay promotions (and demotions) in a deterministic
order — cells in lexicographic order, point ids ascending — and decide
core status from the *final* ball counts, which for monotone update
streams equals the state sequential processing reaches.  With
``rho = 0`` the output clustering is identical to the sequential path;
with ``rho > 0`` both are legal under the sandwich guarantee
(:mod:`repro.validation.sandwich`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.kernels import as_point_array

Cell = Tuple[int, ...]

__all__ = [
    "Cell",
    "GumEdgeFragment",
    "MembershipFragments",
    "SequentialBulkMixin",
    "SequentialQueryMixin",
]


@dataclass
class MembershipFragments:
    """Per-core-cell membership fragments of one resolved query, as arrays.

    The cell-level decomposition of a C-group-by answer, before any
    connected-component ids are applied, in a flat form whose size on
    the shard wire does not grow with the number of cells: one
    *part* per ``(queried cell, granting core cell)`` pair.
    ``cells[i]`` (a row of the ``(k, dim)`` int64 array) is the granting
    core cell of part ``i`` and ``counts[i]`` its length; the parts'
    ids lie back to back in ``members`` (int64).  A core point appears
    under its own cell, a non-core point under every close core cell
    holding a witness, so one cell may head several parts and one id
    may appear in several parts.  ``unmatched`` (int64) lists queried
    ids with no membership among the cells the resolver was allowed to
    decide (*noise*, unless a probe later finds a membership).
    ``probe_ids[j]`` / ``probe_cells[j]`` are the decisions the
    resolver deliberately left open because the cell fell outside its
    trusted region — the cross-shard boundary merge settles them
    against the cell owner's core points.

    With an unrestricted resolver (``trust=None``) there are no probes
    and the parts are exactly the grouping a single engine reports,
    keyed by cell instead of CC id.
    """

    members: np.ndarray
    cells: np.ndarray
    counts: np.ndarray
    unmatched: np.ndarray
    probe_ids: np.ndarray
    probe_cells: np.ndarray


@dataclass
class GumEdgeFragment:
    """One resolver's share of the grid graph (GUM), as component labels.

    ``core_cells`` (a ``(k, dim)`` int64 array, rows ascending) are the
    trusted core cells: every global core cell is trusted by exactly one
    shard, so the union over shards is the global GUM vertex set.
    ``labels[i]`` (``(k,)`` int64) is the connected component of
    ``core_cells[i]`` in the engine's own CC structure, renumbered
    densely from 0 per call; equal labels mean the engine's local grid
    graph connects the two cells.  ``candidates`` are ``(trusted core
    cell, untrusted non-empty close cell)`` pairs whose edge decision
    needs the other side's authoritative core set; ``frontier`` maps
    each trusted core cell adjacent to untrusted territory to its
    core-point coordinates (in its emptiness store's row order) — the
    raw material of the boundary merge.
    """

    core_cells: np.ndarray
    labels: np.ndarray
    candidates: List[Tuple[Cell, Cell]] = field(default_factory=list)
    frontier: Dict[Cell, np.ndarray] = field(default_factory=dict)


class SequentialBulkMixin:
    """Default bulk-update API: loop over the point-at-a-time methods.

    Gives every clusterer (baselines included) the ``insert_many`` /
    ``delete_many`` surface the batched workload runner drives, with the
    trivially-equivalent sequential semantics.  Like the vectorized
    paths, a batch is checked whole against the clusterer's point store
    (``_store``, a :class:`repro.core.store.PointStore`) before the
    first update, so a rejected batch changes nothing.
    """

    def insert_many(self, points: Iterable[Sequence[float]]) -> List[int]:
        """Insert a batch of points; returns their ids in batch order."""
        arr = as_point_array(list(points), self.dim)  # type: ignore[attr-defined]
        return [self.insert(row) for row in arr.tolist()]

    def delete_many(self, pids: Iterable[int]) -> None:
        """Delete a batch of points by id."""
        pid_arr, _ = self._store.lookup(pids, delete=True)  # type: ignore[attr-defined]
        for pid in pid_arr.tolist():
            self.delete(pid)


class SequentialQueryMixin:
    """Default batched-query API: delegate to the scalar ``cgroup_by``.

    The query-side twin of :class:`SequentialBulkMixin`: clusterers
    without a vectorized C-group-by (the baselines) still expose the
    ``cgroup_by_many`` surface the batched workload runner drives, with
    trivially-equivalent per-point semantics.
    """

    def cgroup_by_many(self, pids: Iterable[int]):
        """Resolve a batch of queried ids via the scalar query path."""
        return self.cgroup_by(pids)
