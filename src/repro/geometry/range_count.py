"""Approximate range counting (the contract of Section 7.3).

The fully-dynamic algorithm decides the relaxed core status of a point ``q``
by asking for an integer ``k`` with ``|B(q, eps)| <= k <= |B(q, (1+rho)eps)|``
and comparing ``k`` against ``MinPts``.  The paper plugs in the dynamic
structure of Mount & Park; we substitute a kd-tree count with a fuzzy
boundary, which satisfies the same inequality by construction:

* a subtree whose bounding box lies entirely inside ``B(q, (1+rho)eps)`` is
  counted wholesale (may include optional in-between points — fine for the
  upper bound);
* a subtree farther than ``eps`` from ``q`` is skipped (excludes only points
  outside ``B(q, eps)`` — fine for the lower bound);
* individual points are counted iff within ``eps``.

One counter instance covers one grid cell (all its points, core or not).
The clusterers keep none: an exact count is a legal instance of the
contract (:meth:`repro.core.framework.GridClusterer._ball_count`).  The
counter stays for its own tests and the per-layer tracer's hooks.
Bulk insertions are buffered (:class:`repro.geometry.kdtree.
DeferredKDTree`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro import kernels
from repro.errors import ConfigError
from repro.geometry.kdtree import DeferredKDTree

#: At or below this many stored points (with the write-behind buffer
#: non-empty) ``count`` answers with one exact kernel pass instead of
#: flushing the buffer into the kd-tree.
_MATRIX_CUTOFF = 128


class ApproximateRangeCounter(DeferredKDTree):
    """Dynamic approximate ball-count over one cell's points."""

    def __init__(self, dim: int, eps: float, rho: float) -> None:
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if rho < 0:
            raise ConfigError(f"rho must be non-negative, got {rho}")
        super().__init__(dim)
        self.eps = eps
        self.rho = rho
        self._sq_eps = eps * eps
        relaxed = eps * (1.0 + rho)
        self._sq_relaxed = relaxed * relaxed

    def count(self, q: Sequence[float], stop_at: Optional[int] = None) -> int:
        """Approximate number of stored points in ``B(q, eps)``.

        The result ``k`` satisfies ``|B(q,eps)| <= k <= |B(q,(1+rho)eps)|``
        restricted to this cell's points.  With ``stop_at`` the count may
        saturate early once it reaches that value.

        Small structures with buffered bulk insertions answer with one
        exact ``count_within`` kernel pass at radius ``eps`` — a legal
        instantiation of the contract (``k = |B(q, eps)|``) that never
        forces the write-behind buffer to be indexed; with ``rho = 0``
        it equals the fuzzy tree count exactly.
        """
        if self._pending and len(self) <= _MATRIX_CUTOFF:
            _ids, pts = self._items_snapshot()
            return kernels.count_within(q, pts, self._sq_eps)
        self._flush()
        return self._tree.count_fuzzy(q, self._sq_eps, self._sq_relaxed, stop_at)
