"""The paper's primary contribution: dynamic density-based clusterers.

* :class:`SemiDynamicClusterer` — insert-only rho-approximate DBSCAN
  (Theorem 1); exact DBSCAN with ``rho=0``.
* :class:`FullyDynamicClusterer` — fully-dynamic rho-double-approximate
  DBSCAN (Theorem 4); exact DBSCAN with ``rho=0``.
* C-group-by queries (Section 4.2) via ``cgroup_by`` on either class.

Factory helpers mirror the paper's algorithm names: ``semi_exact_2d``,
``semi_approx``, ``full_exact_2d``, ``double_approx``.
"""

from repro.core.bulk import SequentialBulkMixin, SequentialQueryMixin
from repro.core.framework import (
    CGroupByResult,
    Clustering,
    GridClusterer,
    canonical_cgroup_result,
)
from repro.core.grid import Cell, Grid
from repro.core.abcp import ABCPInstance, SIDE_A, SIDE_B
from repro.core.semidynamic import SemiDynamicClusterer, semi_approx, semi_exact_2d
from repro.core.fullydynamic import (
    FullyDynamicClusterer,
    double_approx,
    full_exact_2d,
)

__all__ = [
    "ABCPInstance",
    "CGroupByResult",
    "Cell",
    "Clustering",
    "FullyDynamicClusterer",
    "Grid",
    "GridClusterer",
    "SemiDynamicClusterer",
    "SequentialBulkMixin",
    "SequentialQueryMixin",
    "canonical_cgroup_result",
    "SIDE_A",
    "SIDE_B",
    "double_approx",
    "full_exact_2d",
    "semi_approx",
    "semi_exact_2d",
]
