"""Geometric substrates: distances, emptiness queries, an R-tree for the
IncDBSCAN baseline, and a kd-tree range counter the clusterers no longer
use (core status is an exact ball count over each cell's points).

All structures in this package operate on points represented as tuples of
floats and use *squared* Euclidean distances internally to avoid square
roots in hot loops.
"""

from repro.geometry.points import (
    Box,
    box_inside_ball,
    box_max_sq_dist,
    box_min_sq_dist,
    box_of_points,
    dist,
    sq_dist,
)
from repro.geometry.kdtree import DynamicKDTree
from repro.geometry.emptiness import EmptinessStructure
from repro.geometry.range_count import ApproximateRangeCounter
from repro.geometry.rtree import RTree

__all__ = [
    "Box",
    "box_inside_ball",
    "box_max_sq_dist",
    "box_min_sq_dist",
    "box_of_points",
    "dist",
    "sq_dist",
    "DynamicKDTree",
    "EmptinessStructure",
    "ApproximateRangeCounter",
    "RTree",
]
