"""IncDBSCAN (Ester et al., VLDB 1998) — the dynamic competitor.

Maintains *exact* DBSCAN clusters under insertions and deletions:

* **Insertion** — one range query around the new point updates neighbor
  counts; points that just reached ``MinPts`` (plus the new point, if core)
  have their neighborhoods re-queried and their clusters merged.  Merges
  are recorded in a union-find over cluster ids — the paper's "merging
  history" — so no points are relabelled.
* **Deletion** — neighbor counts are decremented; core points adjacent to
  the deleted point or to points that just lost core status become *seeds*.
  Same-cluster seeds launch round-robin BFS threads over the core graph
  (one range query per expanded point); threads that touch merge, and if
  more than one thread survives to exhaustion the cluster has split and
  every surviving thread relabels its points.  This BFS is exactly the
  expense the paper's experiments expose.
* **C-group-by query** — core points are grouped by their (find-resolved)
  cluster id; each non-core query point performs one range query to find
  its adjacent core points.

Range queries run on the R-tree substrate (:mod:`repro.geometry.rtree`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set

from repro.connectivity.union_find import UnionFind
from repro.core.bulk import SequentialQueryMixin
from repro.core.framework import (
    CGroupByResult,
    ClustererBase,
    Clustering,
    canonical_cgroup_result,
)
from repro.geometry.rtree import RTree


class IncDBSCAN(ClustererBase, SequentialQueryMixin):
    """Incremental exact DBSCAN with the C-group-by query interface.

    ``insert_many`` / ``delete_many`` / ``cgroup_by_many`` fall back to
    the sequential loops (IncDBSCAN has no batch formulation), keeping
    the baseline runner-compatible with batched workloads.
    """

    def __init__(self, eps: float, minpts: int, dim: int = 2) -> None:
        super().__init__(eps, minpts, dim)
        self._sq_eps = eps * eps
        self._tree = RTree(dim)
        self._count: Dict[int, int] = {}  # |B(p, eps)| including p itself
        self._label: Dict[int, int] = {}  # core point -> cluster id
        self._merges = UnionFind()  # merging history over cluster ids
        self._next_cluster = 0
        self.range_queries = 0  # instrumentation for the benchmarks

    def is_core(self, pid: int) -> bool:
        return self._count[pid] >= self.minpts

    def _range(self, point: Sequence[float]) -> List[int]:
        self.range_queries += 1
        return self._tree.ball_ids(point, self._sq_eps)

    def _fresh_cluster(self) -> int:
        cid = self._next_cluster
        self._next_cluster += 1
        self._merges.add(cid)
        return cid

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float]) -> int:
        pid, pt = self._register_point(point)
        neighbors = self._range(pt)
        self._tree.insert(pid, pt)
        self._count[pid] = len(neighbors) + 1

        newly_core: List[int] = []
        for q in neighbors:
            self._count[q] += 1
            if self._count[q] == self.minpts:
                newly_core.append(q)
        if self._count[pid] >= self.minpts:
            newly_core.append(pid)

        # Every newly-core point connects the clusters of its core neighbors.
        for q in newly_core:
            if q == pid:
                q_neighbors = neighbors
            else:
                q_neighbors = [
                    x for x in self._range(self._store.point(q)) if x != q
                ]
            anchor: Optional[int] = self._label.get(q)
            for x in q_neighbors:
                cid = self._label.get(x)
                if cid is None:
                    continue
                if anchor is None:
                    anchor = cid
                else:
                    self._merges.union(anchor, cid)
            if anchor is None:
                anchor = self._fresh_cluster()
            self._label[q] = anchor
        return pid

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, pid: int) -> None:
        pt = self._store.pop(pid)
        self._tree.delete(pid)
        was_core = self._count.pop(pid) >= self.minpts
        self._label.pop(pid, None)
        neighbors = self._range(pt)

        lost_core: List[int] = []
        for q in neighbors:
            self._count[q] -= 1
            if self._count[q] == self.minpts - 1 and q in self._label:
                lost_core.append(q)
        for q in lost_core:
            self._label.pop(q, None)

        # Seeds: core points adjacent to the removed or demoted points.
        seeds: Set[int] = set()
        if was_core:
            seeds.update(q for q in neighbors if q in self._label)
        for q in lost_core:
            for x in self._range(self._store.point(q)):
                if x in self._label:
                    seeds.add(x)
        if not seeds:
            return

        by_cluster: Dict[int, List[int]] = {}
        for s in seeds:
            by_cluster.setdefault(self._merges.find(self._label[s]), []).append(s)
        for group in by_cluster.values():
            if len(group) >= 2:
                self._check_split(group)

    def _check_split(self, seeds: List[int]) -> None:
        """Round-robin multi-source BFS over the core graph (Section 3)."""
        owner: Dict[int, int] = {}
        thread_uf = UnionFind()
        queues: Dict[int, Deque[int]] = {}
        visited: Dict[int, List[int]] = {}
        for t, seed in enumerate(seeds):
            thread_uf.add(t)
            owner[seed] = t
            queues[t] = deque([seed])
            visited[t] = [seed]
        live = len(seeds)

        active = list(queues.keys())
        while live > 1:
            progressed = False
            for t in active:
                root_t = thread_uf.find(t)
                queue = queues.get(root_t)
                if not queue:
                    continue
                progressed = True
                x = queue.popleft()
                for y in self._range(self._store.point(x)):
                    if y not in self._label or y == x:
                        continue
                    prev = owner.get(y)
                    if prev is None:
                        owner[y] = root_t
                        queue.append(y)
                        visited[root_t].append(y)
                    else:
                        root_prev = thread_uf.find(prev)
                        if root_prev != root_t:
                            # Threads meet: combine them.
                            thread_uf.union(root_prev, root_t)
                            merged = thread_uf.find(root_t)
                            other = root_prev if merged == root_t else root_t
                            queues[merged].extend(queues.pop(other))
                            visited[merged].extend(visited.pop(other))
                            live -= 1
                            root_t = merged
                            queue = queues[merged]
                if live <= 1:
                    break
            if not progressed:
                break

        if live <= 1:
            return  # all threads met: no split happened
        # Each surviving exhausted thread is a spawned cluster: relabel.
        for root, members in visited.items():
            if queues.get(root):
                continue  # unfinished thread (early-terminated): keep label
            cid = self._fresh_cluster()
            for pid in members:
                if pid in self._label:
                    self._label[pid] = cid

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _cluster_ids_of(self, pid: int, point: Sequence[float]) -> List[int]:
        cid = self._label.get(pid)
        if cid is not None:
            return [self._merges.find(cid)]
        found: Set[int] = set()
        for q in self._range(point):
            qcid = self._label.get(q)
            if qcid is not None:
                found.add(self._merges.find(qcid))
        return list(found)

    def cgroup_by(self, pids: Iterable[int]) -> CGroupByResult:
        pid_arr, coords = self._store.gather(pids)
        groups: Dict[int, List[int]] = {}
        noise: List[int] = []
        for pid, point in zip(pid_arr.tolist(), coords.tolist()):
            cids = self._cluster_ids_of(pid, point)
            if not cids:
                noise.append(pid)
            for cid in cids:
                groups.setdefault(cid, []).append(pid)
        return canonical_cgroup_result(groups.values(), noise)

    def clusters(self) -> Clustering:
        result = self.cgroup_by(self._store.ids())
        return Clustering(clusters=result.groups, noise=result.noise)

    def same_cluster(self, pid_a: int, pid_b: int) -> bool:
        (pid_a, pid_b), (point_a, point_b) = (
            part.tolist() for part in self._store.gather((pid_a, pid_b))
        )
        a = set(self._cluster_ids_of(pid_a, point_a))
        if not a:
            return False
        return bool(a.intersection(self._cluster_ids_of(pid_b, point_b)))
