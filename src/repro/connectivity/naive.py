"""Naive fully-dynamic connectivity: adjacency sets + lazy BFS relabeling.

The correctness oracle for :class:`repro.connectivity.hdt.HDTConnectivity`
in property tests.  It is simple enough to trust by reading, and too slow
for a clusterer: it pays O(V + E) on the first query after any edge
deletion.

Component labels are recomputed lazily: edge insertions merge labels via a
cheap union-find-free shortcut when possible, and any deletion marks the
labeling dirty so the next query triggers a full BFS sweep.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterator, Set


class NaiveConnectivity:
    """BFS-based dynamic connectivity with the CC-structure interface."""

    def __init__(self) -> None:
        self._adj: Dict[Hashable, Set[Hashable]] = {}
        self._label: Dict[Hashable, int] = {}
        self._dirty = False
        self._next_label = 0

    def __contains__(self, v: Hashable) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def vertices(self) -> Iterator[Hashable]:
        return iter(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return u in self._adj and v in self._adj[u]

    def add_vertex(self, v: Hashable) -> None:
        if v in self._adj:
            raise KeyError(f"vertex {v!r} already present")
        self._adj[v] = set()
        self._label[v] = self._next_label
        self._next_label += 1

    def remove_vertex(self, v: Hashable) -> None:
        """Remove an isolated vertex (raises if it still has edges)."""
        if self._adj[v]:
            raise ValueError(f"vertex {v!r} still has incident edges")
        del self._adj[v]
        del self._label[v]

    def insert_edge(self, u: Hashable, v: Hashable) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if v in self._adj[u]:
            raise KeyError(f"edge ({u!r}, {v!r}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)
        if not self._dirty and self._label[u] != self._label[v]:
            # Relabel the smaller-labelled side eagerly only when clean and
            # small; otherwise just mark dirty.
            self._dirty = True

    def delete_edge(self, u: Hashable, v: Hashable) -> None:
        if v not in self._adj[u]:
            raise KeyError(f"edge ({u!r}, {v!r}) not present")
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._dirty = True

    def _refresh(self) -> None:
        if not self._dirty:
            return
        seen: Set[Hashable] = set()
        for start in self._adj:
            if start in seen:
                continue
            label = self._next_label
            self._next_label += 1
            queue = deque([start])
            seen.add(start)
            while queue:
                x = queue.popleft()
                self._label[x] = label
                for y in self._adj[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
        self._dirty = False

    def connected(self, u: Hashable, v: Hashable) -> bool:
        self._refresh()
        return self._label[u] == self._label[v]

    def component_id(self, v: Hashable) -> int:
        """A component id stable until the next structural change."""
        self._refresh()
        return self._label[v]

    def component_count(self) -> int:
        self._refresh()
        return len(set(self._label.values()))
