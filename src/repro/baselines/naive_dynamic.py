"""The "obvious attempt" baseline the paper's introduction dismisses.

Store the points, mark the clustering dirty on every update, and recompute
exact DBSCAN from scratch (grid-accelerated) on the first query after a
change.  Updates are O(1); queries are Omega(n) — exactly the trade-off
the C-group-by formulation is designed to expose.  Useful as

* a drop-in oracle for small integration tests (it is trivially correct),
* the baseline showing why "fast updates + recompute on demand" does not
  meet the paper's query bar (see ``benchmarks/test_table1_hardness.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines.static_dbscan import StaticClustering, dbscan_grid
from repro.core.bulk import SequentialQueryMixin
from repro.core.framework import (
    CGroupByResult,
    ClustererBase,
    Clustering,
    canonical_cgroup_result,
)


class RecomputeClusterer(ClustererBase, SequentialQueryMixin):
    """Exact DBSCAN with O(1) updates and recompute-on-query semantics.

    The inherited sequential ``insert_many`` / ``delete_many`` are
    already optimal here: each update is O(1) cache invalidation, and
    ``cgroup_by_many`` shares the one recompute-on-demand ``cgroup_by``.
    """

    def __init__(self, eps: float, minpts: int, dim: int = 2) -> None:
        super().__init__(eps, minpts, dim)
        self._cache: Optional[StaticClustering] = None
        self._cache_keys: List[int] = []
        self.recomputations = 0  # instrumentation for benchmarks

    # ------------------------------------------------------------------
    # Updates: O(1), just invalidate
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float]) -> int:
        pid, _ = self._register_point(point)
        self._cache = None
        return pid

    def delete(self, pid: int) -> None:
        self._store.pop(pid)
        self._cache = None

    # ------------------------------------------------------------------
    # Queries: recompute when dirty
    # ------------------------------------------------------------------

    def _refresh(self) -> StaticClustering:
        if self._cache is None:
            ids, coords = self._store.live()
            self._cache_keys = ids.tolist()
            self._cache = dbscan_grid(coords.tolist(), self.eps, self.minpts)
            self.recomputations += 1
        return self._cache

    def is_core(self, pid: int) -> bool:
        ref = self._refresh()
        return self._cache_keys.index(pid) in ref.core

    def cgroup_by(self, pids: Iterable[int]) -> CGroupByResult:
        pid_list = self._store.lookup(pids)[0].tolist()
        ref = self._refresh()
        position = {k: i for i, k in enumerate(self._cache_keys)}
        groups: Dict[int, List[int]] = {}
        noise: List[int] = []
        for pid in pid_list:
            idx = position[pid]
            memberships = [
                ci for ci, cluster in enumerate(ref.clusters) if idx in cluster
            ]
            if not memberships:
                noise.append(pid)
            for ci in memberships:
                groups.setdefault(ci, []).append(pid)
        return canonical_cgroup_result(groups.values(), noise)

    def clusters(self) -> Clustering:
        ref = self._refresh()
        keys = self._cache_keys
        result = canonical_cgroup_result(
            ([keys[i] for i in c] for c in ref.clusters),
            [keys[i] for i in ref.noise],
        )
        return Clustering(clusters=result.groups, noise=result.noise)

    def same_cluster(self, pid_a: int, pid_b: int) -> bool:
        self._store.lookup((pid_a, pid_b))
        ref = self._refresh()
        position = {k: i for i, k in enumerate(self._cache_keys)}
        a, b = position[pid_a], position[pid_b]
        return any(a in c and b in c for c in ref.clusters)
