"""Sliding-window clustering on top of the fully-dynamic algorithm.

A common deployment of dynamic clustering (and the paper's motivating
"data updates" setting): keep only the most recent ``capacity`` points,
expiring the oldest on every arrival.  Each arrival is one insertion plus
at most one deletion — a perfectly balanced fully-dynamic workload.

:class:`WindowedEngine` is the sliding window: batches of arrivals
(or single points) land through the vectorized ``ingest`` path of a
:class:`repro.api.Engine` (or :class:`repro.shard.ShardedEngine`) and
every point evicted by the capacity bound is expired in one bulk
``delete_many`` through the fully-dynamic path.  The streaming service
(:mod:`repro.service`) and the ``bench --scenario sliding-window`` CLI
drive it.

Expiry through ``WindowedEngine`` is *defined* to be equivalent to an
explicit ``delete_many`` of the same (oldest-first) ids issued by the
caller — the window keeps FIFO bookkeeping, nothing more — and the test
suite pins that equivalence bit-for-bit at ``rho = 0``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, UnsupportedOperationError


class WindowedEngine:
    """Sliding window of the last ``capacity`` points over an engine.

    Wraps any object with the :class:`repro.api.Engine` serving surface
    (``ingest`` / ``delete_many`` / ``cgroup_by_many`` / ``snapshot`` /
    ``stats`` and an ``EngineConfig`` at ``.config``) — a single engine
    or a sharded one.  Arrivals land through the vectorized bulk insert
    path; everything the capacity bound evicts is expired oldest-first
    in one bulk ``delete_many``, so a windowed stream is a perfectly
    balanced fully-dynamic workload end to end.

    The window only keeps FIFO id bookkeeping: a
    ``WindowedEngine.append_many(batch)`` is exactly
    ``engine.ingest(batch)`` followed by ``engine.delete_many(expired)``
    with the oldest ids, nothing else, so windowed results are
    bit-identical to the caller doing explicit expiry at ``rho = 0``.
    A batch larger than the capacity is legal — the overflow expires
    points of the batch itself (inserted, then immediately deleted),
    matching what explicit expiry would do.
    """

    def __init__(self, engine, capacity: int) -> None:
        if (
            not isinstance(capacity, int)
            or isinstance(capacity, bool)
            or capacity < 1
        ):
            raise ConfigError(
                f"window capacity must be a positive integer, got "
                f"{capacity!r}"
            )
        if engine.config.insert_only:
            raise UnsupportedOperationError(
                f"a sliding window expires points through delete_many, "
                f"which the insert-only algorithm "
                f"{engine.config.resolved_algorithm!r} does not support; "
                f"configure a fully-dynamic algorithm ('full', "
                f"'double-approx', ...)"
            )
        self.capacity = capacity
        self._engine = engine
        self._window: Deque[int] = deque()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def engine(self):
        """The wrapped engine (documented escape hatch)."""
        return self._engine

    @property
    def epoch(self) -> int:
        return self._engine.epoch

    def __len__(self) -> int:
        return len(self._window)

    def __contains__(self, pid: int) -> bool:
        return pid in self._engine

    def ids(self) -> List[int]:
        """Live point ids, oldest first."""
        return list(self._window)

    def oldest(self) -> Optional[int]:
        return self._window[0] if self._window else None

    def newest(self) -> Optional[int]:
        return self._window[-1] if self._window else None

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def append(self, point: Sequence[float]) -> int:
        """Insert one point (expiring the oldest if over capacity)."""
        pids, _ = self.append_many([point])
        return pids[0]

    def append_many(
        self, points: Iterable[Sequence[float]]
    ) -> Tuple[List[int], List[int]]:
        """Bulk-insert a batch, expiring everything over capacity.

        Returns ``(pids, expired)``: the ids assigned to the batch (in
        batch order) and the ids expired oldest-first by the capacity
        bound (empty while the window is still filling).
        """
        batch = points if isinstance(points, list) else list(points)
        pids = self._engine.ingest(batch)
        self._window.extend(pids)
        expired: List[int] = []
        while len(self._window) > self.capacity:
            expired.append(self._window.popleft())
        if expired:
            self._engine.delete_many(expired)
        return pids, expired

    # ------------------------------------------------------------------
    # Queries (engine pass-throughs, epoch-stamped by the engine)
    # ------------------------------------------------------------------

    def cgroup_by(self, pids: Iterable[int]):
        return self._engine.cgroup_by(pids)

    def cgroup_by_many(self, pids: Iterable[int]):
        return self._engine.cgroup_by_many(pids)

    def snapshot(self):
        return self._engine.snapshot()

    def stats(self):
        return self._engine.stats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the wrapped engine; idempotent (the engine's own)."""
        self._engine.close()

    def __enter__(self) -> "WindowedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowedEngine(capacity={self.capacity}, "
            f"live={len(self._window)}, epoch={self._engine.epoch})"
        )
