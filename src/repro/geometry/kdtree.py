"""A dynamic kd-tree with bucket leaves and periodic rebuilding.

This is the index behind the approximate range counter (Section 7.3),
where the paper plugs in the structure of Mount & Park; it honours the
same *approximate contract*.  The clusterers use neither: a cell holds
few points, so the emptiness structures of Section 4.2 are flat arrays
scanned exactly (:mod:`repro.geometry.emptiness`), and core status is an
exact ball count over each cell's points
(:meth:`repro.core.framework.GridClusterer._ball_count`).  The tree
stays for its own tests and the per-layer tracer's hooks.

Key operations:

* ``insert(pid, point)`` / ``delete(pid)`` — O(log n) expected amortized,
  with full rebuilds once enough deletions have accumulated.
* ``find_within(q, sq_eps, sq_relaxed)`` — returns the id of *some* point at
  squared distance <= ``sq_relaxed`` whenever a point at squared distance
  <= ``sq_eps`` exists; may return ``None`` otherwise.  Subtrees whose
  bounding box is farther than ``sq_eps`` are pruned, and the search stops
  at the first point within ``sq_relaxed`` — this is what makes the
  (1+rho)-slack genuinely cheaper than an exact search.
* ``find_within_many(qs, sq_eps, sq_relaxed)`` — the batched form: one
  traversal carries all still-unresolved queries down the tree, with box
  pruning and leaf distance tests vectorized over the query set.  Pruning
  and acceptance use the same thresholds as the scalar search, so for every
  query the *is-there-a-proof* answer is identical to ``find_within`` (only
  the choice of proof id may differ).
* ``count_fuzzy(q, sq_eps, sq_relaxed, stop_at)`` — returns ``k`` with
  ``|B(q, eps)| <= k <= |B(q, (1+rho)eps)|``; whole subtrees inside the
  relaxed ball are counted without descending.
* ``ball_ids(q, sq_radius)`` — exact enumeration, used by tests and the
  static baselines.

Points are stored in leaf buckets; an id -> leaf map makes deletion O(1) to
locate.  Bounding boxes only ever grow between rebuilds (they stay valid
supersets), and a rebuild re-tightens everything.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.geometry.points import Point

_LEAF_CAP = 8

#: Below this subtree size the bulk loader delegates to the plain
#: list-based builder (numpy per-node overhead dominates small arrays).
_BULK_CUTOFF = 512


def batched_find_within(
    tree: "DynamicKDTree", qs: np.ndarray, sq_eps: float, sq_relaxed: float
) -> List[Optional[int]]:
    """The one batched approximate-emptiness traversal (shared).

    Both ``find_within_many`` surfaces (:class:`DynamicKDTree` and the
    write-behind :class:`DeferredKDTree`) resolve through this single
    traversal: one pass carries every still-unresolved query down the
    tree, box lower bounds of all active queries come from the
    ``box_sq_dists`` kernel and queries farther than ``sq_eps`` drop out
    (the scalar pruning rule); at each leaf the ``find_within_many``
    kernel resolves every active query with a bucket point within
    ``sq_relaxed``.  The same thresholds as the scalar search mean the
    has-proof answer matches :meth:`DynamicKDTree.find_within` exactly.
    """
    n = len(qs)
    out: List[Optional[int]] = [None] * n
    if n == 0 or not tree._points:
        return out
    resolved = np.zeros(n, dtype=bool)
    stack: List[Tuple[_Node, np.ndarray]] = [(tree._root, np.arange(n))]
    while stack:
        node, active = stack.pop()
        active = active[~resolved[active]]
        if node.size == 0 or len(active) == 0:
            continue
        q = qs[active]
        lo = np.asarray(node.lo)
        hi = np.asarray(node.hi)
        active = active[kernels.box_sq_dists(q, lo, hi) <= sq_eps]
        if len(active) == 0:
            continue
        if node.is_leaf():
            assert node.bucket is not None
            if not node.bucket:
                continue
            pids = list(node.bucket.keys())
            pts = np.array(list(node.bucket.values()), dtype=float)
            proofs = kernels.find_within_many(qs[active], pids, pts, sq_relaxed)
            for row, proof in enumerate(proofs):
                if proof is not None:
                    gi = int(active[row])
                    out[gi] = proof
                    resolved[gi] = True
        else:
            assert node.left is not None and node.right is not None
            stack.append((node.left, active))
            stack.append((node.right, active))
    return out


class _Node:
    __slots__ = ("lo", "hi", "size", "parent", "dim", "val", "left", "right", "bucket")

    def __init__(self, dim_count: int) -> None:
        self.lo: List[float] = [float("inf")] * dim_count
        self.hi: List[float] = [float("-inf")] * dim_count
        self.size = 0
        self.parent: Optional[_Node] = None
        # Internal-node fields (None for leaves):
        self.dim: int = -1
        self.val: float = 0.0
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        # Leaf field (None for internal nodes):
        self.bucket: Optional[Dict[int, Point]] = {}

    def is_leaf(self) -> bool:
        return self.bucket is not None

    def min_sq_dist(self, q: Sequence[float]) -> float:
        total = 0.0
        lo = self.lo
        hi = self.hi
        for i, x in enumerate(q):
            if x < lo[i]:
                diff = lo[i] - x
            elif x > hi[i]:
                diff = x - hi[i]
            else:
                continue
            total += diff * diff
        return total

    def max_sq_dist(self, q: Sequence[float]) -> float:
        total = 0.0
        lo = self.lo
        hi = self.hi
        for i, x in enumerate(q):
            diff = x - lo[i]
            diff2 = hi[i] - x
            if diff2 > diff:
                diff = diff2
            total += diff * diff
        return total


class DynamicKDTree:
    """Dynamic kd-tree over ``(id, point)`` pairs in fixed dimension."""

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self._root = _Node(dim)
        self._leaf_of: Dict[int, _Node] = {}
        self._points: Dict[int, Point] = {}
        self._deletes_since_build = 0

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, pid: int) -> bool:
        return pid in self._points

    def point(self, pid: int) -> Point:
        """Coordinates of a stored point."""
        return self._points[pid]

    def ids(self) -> Iterator[int]:
        """Iterate over all stored point ids."""
        return iter(self._points)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, pid: int, point: Point) -> None:
        """Add a point under a fresh id (must not already be present)."""
        if pid in self._points:
            raise KeyError(f"point id {pid} already present")
        self._points[pid] = point
        node = self._root
        while True:
            node.size += 1
            lo = node.lo
            hi = node.hi
            for i, x in enumerate(point):
                if x < lo[i]:
                    lo[i] = x
                if x > hi[i]:
                    hi[i] = x
            if node.is_leaf():
                break
            node = node.left if point[node.dim] < node.val else node.right
        assert node.bucket is not None
        node.bucket[pid] = point
        self._leaf_of[pid] = node
        if len(node.bucket) > _LEAF_CAP:
            self._split_leaf(node)

    def insert_many(self, items: Sequence[Tuple[int, Point]]) -> None:
        """Add a batch of ``(id, point)`` pairs (ids must be fresh).

        When the batch is at least as large as the current tree, the new
        points are merged in via one balanced rebuild — O(n log n) total
        instead of n incremental descents — which is what makes bulk
        promotion in the clusterers' ``insert_many`` cheap.  Smaller
        batches fall back to incremental insertion.
        """
        items = list(items)
        if len({pid for pid, _ in items}) != len(items):
            raise KeyError("duplicate point ids in batch")
        for pid, _ in items:
            if pid in self._points:
                raise KeyError(f"point id {pid} already present")
        if len(items) >= max(1, len(self._points)):
            for pid, point in items:
                self._points[pid] = point
            self._rebuild_all()
        else:
            for pid, point in items:
                self.insert(pid, point)

    def delete(self, pid: int) -> None:
        """Remove a point by id (must be present)."""
        leaf = self._leaf_of.pop(pid)
        assert leaf.bucket is not None
        del leaf.bucket[pid]
        del self._points[pid]
        node: Optional[_Node] = leaf
        while node is not None:
            node.size -= 1
            node = node.parent
        self._deletes_since_build += 1
        if self._deletes_since_build > max(16, len(self._points)):
            self.rebuild()

    def rebuild(self) -> None:
        """Rebuild a balanced tree over the live points (tightens boxes)."""
        self._rebuild_all()

    def _rebuild_all(self) -> None:
        """The one whole-tree rebuild, behind :meth:`rebuild` and the
        merging path of :meth:`insert_many`.

        Large trees go through :meth:`_build_bulk`; trees it would hand
        straight to the list builder skip the array round trip, which
        costs about as much as the build itself at tens of points.
        """
        self._deletes_since_build = 0
        self._leaf_of = {}
        if len(self._points) <= _BULK_CUTOFF:
            self._root = self._build(list(self._points.items()))
            return
        ids = np.fromiter(self._points.keys(), dtype=np.int64)
        coords = np.array(list(self._points.values()), dtype=float)
        self._root = self._build_bulk(ids, coords)

    def _build(self, items: List[Tuple[int, Point]]) -> _Node:
        node = _Node(self.dim)
        node.size = len(items)
        if items:
            lo = node.lo
            hi = node.hi
            for _, p in items:
                for i, x in enumerate(p):
                    if x < lo[i]:
                        lo[i] = x
                    if x > hi[i]:
                        hi[i] = x
        if len(items) <= _LEAF_CAP:
            node.bucket = dict(items)
            for pid, _ in items:
                self._leaf_of[pid] = node
            return node
        node.bucket = None
        dim = max(range(self.dim), key=lambda i: node.hi[i] - node.lo[i])
        items.sort(key=lambda kv: kv[1][dim])
        mid = len(items) // 2
        node.dim = dim
        node.val = items[mid][1][dim]
        # Guard against all-equal coordinates along the split dimension: move
        # the boundary to the first strictly-greater element if possible.
        if items[0][1][dim] == node.val:
            while mid < len(items) and items[mid][1][dim] == node.val:
                mid += 1
            if mid == len(items):  # every coordinate equal: keep as leaf
                node.dim = -1
                node.bucket = dict(items)
                for pid, _ in items:
                    self._leaf_of[pid] = node
                return node
            node.val = items[mid][1][dim]
        node.left = self._build(items[:mid])
        node.right = self._build(items[mid:])
        node.left.parent = node
        node.right.parent = node
        return node

    def _build_bulk(self, ids: np.ndarray, coords: np.ndarray) -> _Node:
        """Balanced build over numpy arrays — the bulk-load fast path.

        Same splitting policy as :meth:`_build` (median on the widest
        dimension, boundary moved past runs of equal coordinates) but
        with vectorized column sorts instead of per-item Python
        comparisons.  Only the tree *shape* depends on the code path; all
        query contracts are structure-independent.
        """
        n = len(ids)
        if n <= _BULK_CUTOFF:
            # Below this size the per-node numpy overhead (argsort and
            # fancy indexing on tiny arrays) loses to the plain builder.
            return self._build(
                [
                    (int(pid), tuple(pt))
                    for pid, pt in zip(ids.tolist(), coords.tolist())
                ]
            )
        node = _Node(self.dim)
        node.size = n
        node.lo = coords.min(axis=0).tolist()
        node.hi = coords.max(axis=0).tolist()
        dim = max(range(self.dim), key=lambda i: node.hi[i] - node.lo[i])
        order = np.argsort(coords[:, dim], kind="stable")
        sorted_col = coords[order, dim]
        mid = n // 2
        val = float(sorted_col[mid])
        if float(sorted_col[0]) == val:
            mid = int(np.searchsorted(sorted_col, val, side="right"))
            if mid == n:  # every coordinate equal: keep as leaf
                node.bucket = {
                    int(pid): tuple(pt)
                    for pid, pt in zip(ids.tolist(), coords.tolist())
                }
                for pid in node.bucket:
                    self._leaf_of[pid] = node
                return node
            val = float(sorted_col[mid])
        node.bucket = None
        node.dim = dim
        node.val = val
        node.left = self._build_bulk(ids[order[:mid]], coords[order[:mid]])
        node.right = self._build_bulk(ids[order[mid:]], coords[order[mid:]])
        node.left.parent = node
        node.right.parent = node
        return node

    def _split_leaf(self, leaf: _Node) -> None:
        assert leaf.bucket is not None
        items = list(leaf.bucket.items())
        dim = max(range(self.dim), key=lambda i: leaf.hi[i] - leaf.lo[i])
        items.sort(key=lambda kv: kv[1][dim])
        mid = len(items) // 2
        val = items[mid][1][dim]
        if items[0][1][dim] == val:
            while mid < len(items) and items[mid][1][dim] == val:
                mid += 1
            if mid == len(items):
                return  # all points identical on the widest dimension
            val = items[mid][1][dim]
        leaf.bucket = None
        leaf.dim = dim
        leaf.val = val
        left = _Node(self.dim)
        right = _Node(self.dim)
        left.parent = leaf
        right.parent = leaf
        leaf.left = left
        leaf.right = right
        for pid, p in items:
            child = left if p[dim] < val else right
            assert child.bucket is not None
            child.bucket[pid] = p
            child.size += 1
            for i, x in enumerate(p):
                if x < child.lo[i]:
                    child.lo[i] = x
                if x > child.hi[i]:
                    child.hi[i] = x
            self._leaf_of[pid] = child

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def find_within(
        self, q: Sequence[float], sq_eps: float, sq_relaxed: float
    ) -> Optional[int]:
        """Approximate emptiness search (see module docstring for contract)."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.size == 0 or node.min_sq_dist(q) > sq_eps:
                continue
            if node.is_leaf():
                assert node.bucket is not None
                for pid, p in node.bucket.items():
                    total = 0.0
                    for a, b in zip(p, q):
                        diff = a - b
                        total += diff * diff
                    if total <= sq_relaxed:
                        return pid
            else:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)
        return None

    def find_within_many(
        self, qs: np.ndarray, sq_eps: float, sq_relaxed: float
    ) -> List[Optional[int]]:
        """Batched approximate emptiness search over an ``(n, dim)`` array.

        Resolves through the shared :func:`batched_find_within`
        traversal (kernel-backed box pruning and leaf proof search);
        the has-proof answer matches ``find_within`` exactly.
        """
        return batched_find_within(self, qs, sq_eps, sq_relaxed)

    def count_fuzzy(
        self,
        q: Sequence[float],
        sq_eps: float,
        sq_relaxed: float,
        stop_at: Optional[int] = None,
    ) -> int:
        """Approximate ball count (see module docstring for contract).

        If ``stop_at`` is given, the count may stop early once it reaches
        that value (useful for core-status tests against ``MinPts``).
        """
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.size == 0 or node.min_sq_dist(q) > sq_eps:
                continue
            if node.max_sq_dist(q) <= sq_relaxed:
                count += node.size
            elif node.is_leaf():
                assert node.bucket is not None
                for p in node.bucket.values():
                    total = 0.0
                    for a, b in zip(p, q):
                        diff = a - b
                        total += diff * diff
                    if total <= sq_eps:
                        count += 1
            else:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)
            if stop_at is not None and count >= stop_at:
                return count
        return count

    def ball_ids(self, q: Sequence[float], sq_radius: float) -> List[int]:
        """Exact: ids of all points within ``sqrt(sq_radius)`` of ``q``."""
        result: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.size == 0 or node.min_sq_dist(q) > sq_radius:
                continue
            if node.is_leaf():
                assert node.bucket is not None
                for pid, p in node.bucket.items():
                    total = 0.0
                    for a, b in zip(p, q):
                        diff = a - b
                        total += diff * diff
                    if total <= sq_radius:
                        result.append(pid)
            else:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)
        return result


class DeferredKDTree:
    """A :class:`DynamicKDTree` with write-behind bulk insertion.

    ``insert_many`` only buffers its items; the first operation that
    needs the index folds the whole buffer in via one balanced bulk
    build.  A buffered point that is deleted before any query never
    touches the tree at all, which is what keeps ingest-then-evict
    batches index-free.  Point-at-a-time ``insert`` stays eager, so
    sequential update paths behave exactly as before.  Base of the
    approximate range counter.
    """

    def __init__(self, dim: int) -> None:
        self._tree = DynamicKDTree(dim)
        self._pending: Dict[int, Point] = {}

    @property
    def dim(self) -> int:
        return self._tree.dim

    def _flush(self) -> None:
        if self._pending:
            pending, self._pending = self._pending, {}
            self._tree.insert_many(list(pending.items()))

    def _items_snapshot(self) -> Tuple[List[int], np.ndarray]:
        """All ``(ids, coords)`` — indexed *and* buffered — without flushing.

        Lets matrix-based batched queries answer over small structures
        while the write-behind buffer stays unindexed.
        """
        ids = list(self._tree._points.keys()) + list(self._pending.keys())
        if not ids:
            return ids, np.empty((0, self.dim), dtype=float)
        coords = list(self._tree._points.values()) + list(self._pending.values())
        return ids, np.array(coords, dtype=float)

    def __len__(self) -> int:
        return len(self._tree) + len(self._pending)

    def __contains__(self, pid: int) -> bool:
        return pid in self._pending or pid in self._tree

    def ids(self) -> Iterator[int]:
        self._flush()
        return self._tree.ids()

    def point(self, pid: int) -> Point:
        if pid in self._pending:
            return self._pending[pid]
        return self._tree.point(pid)

    def find_within_many(
        self, qs: np.ndarray, sq_eps: float, sq_relaxed: float
    ) -> List[Optional[int]]:
        """Batched emptiness search (folds the buffer in first).

        Same shared :func:`batched_find_within` traversal as the eager
        tree — the only difference is the up-front buffer fold.
        """
        self._flush()
        return batched_find_within(self._tree, qs, sq_eps, sq_relaxed)

    def insert(self, pid: int, point: Point) -> None:
        self._flush()
        self._tree.insert(pid, point)

    def insert_many(self, items: Sequence[Tuple[int, Point]]) -> None:
        """Buffer a bulk of ``(id, point)`` pairs (indexed on demand)."""
        for pid, point in items:
            if pid in self._pending or pid in self._tree:
                raise KeyError(f"point id {pid} already present")
            self._pending[pid] = point

    def delete(self, pid: int) -> None:
        # A buffered point can leave without ever touching the index.
        if self._pending.pop(pid, None) is not None:
            return
        self._tree.delete(pid)
