"""Connected-component (CC) structures for the grid graph (Section 4.2).

One structure per clusterer, plus a test oracle:

* :class:`UnionFind` — semi-dynamic (no ``EdgeRemove``), Tarjan's
  union-by-rank with path compression; used by Theorem 1's algorithm.
* :class:`HDTConnectivity` — fully-dynamic poly-log connectivity of Holm,
  de Lichtenberg & Thorup (JACM 2001), built on treap Euler-tour trees;
  used by Theorem 4's algorithm.
* :class:`NaiveConnectivity` — adjacency sets with BFS recomputation;
  HDT's test oracle (it speaks HDT's interface, and no clusterer uses it).
"""

from repro.connectivity.union_find import UnionFind
from repro.connectivity.naive import NaiveConnectivity
from repro.connectivity.euler_tour import EulerTourForest
from repro.connectivity.hdt import HDTConnectivity

__all__ = [
    "UnionFind",
    "NaiveConnectivity",
    "EulerTourForest",
    "HDTConnectivity",
]
