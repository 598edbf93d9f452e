"""Analysis utilities on top of the dynamic clusterers.

* :class:`ClusterTracker` — snapshot-to-snapshot cluster evolution
  (appear / vanish / grow / shrink / merge / split), the bookkeeping
  behind narratives like the paper's Figure 1.
* :func:`cluster_stats` — size distribution and noise summary of one
  clustering.
* :class:`WindowedEngine` — the sliding window over an engine's
  fully-dynamic path, which the streaming service and the
  ``sliding-window`` bench scenario drive.
"""

from repro.analysis.tracker import ClusterEvent, ClusterTracker, cluster_stats
from repro.analysis.window import WindowedEngine

__all__ = [
    "ClusterEvent",
    "ClusterTracker",
    "WindowedEngine",
    "cluster_stats",
]
