"""The :class:`ShardedEngine` facade — N engines behind one router.

Exposes the exact serving surface of :class:`repro.api.Engine`
(``ingest`` / ``insert`` / ``delete`` / ``delete_many``, ``cgroup_by``
/ ``cgroup_by_many`` as epoch-stamped :class:`QueryOutcome`,
``snapshot()`` / ``stats()`` / ``session()``), so the workload runners,
the CLI and :class:`repro.api.IngestSession` drive it interchangeably
with a single engine — a session over a sharded engine buffers exactly
as before and its query barrier flushes through the router, making the
flush atomic across every shard (validation rejects a bad run before
any shard mutates).

The *epoch* is the number of global update operations, identical in
meaning to the single engine's; per-shard engine epochs are internal
consistency tokens the router checks at every merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro import kernels
from repro.api.config import SHARD_EXECUTOR_CHOICES, EngineConfig
from repro.api.engine import EngineStats, QueryOutcome, Snapshot
from repro.core.fragments import FragmentCacheStats
from repro.errors import ConfigError, UnknownPointError, UnsupportedOperationError
from repro.shard.executors import ProcessShardExecutor, SerialShardExecutor
from repro.shard.router import ShardRouter
from repro.shard.rpc import TcpShardExecutor
from repro.shard.supervisor import ShardSupervisor


@dataclass(frozen=True)
class ShardedStats:
    """Epoch-stamped service counters of a sharded deployment.

    ``points`` counts live *global* points; ``replicas`` counts the
    points materialized across shards including halo copies, so
    ``replicas / points`` is the replication factor the halo costs.
    ``per_shard`` holds each shard engine's own :class:`EngineStats`.
    ``restarts`` counts supervised worker recoveries (kill + respawn +
    journal replay) performed over the deployment's lifetime — 0 for
    the serial executor and for a process deployment that never lost a
    worker.  ``fragment_cache`` sums the per-shard incremental
    fragment-cache counters.
    """

    points: int
    epoch: int
    backend: str
    algorithm: str
    config: EngineConfig
    shards: int
    replicas: int
    per_shard: Tuple[EngineStats, ...]
    restarts: int = 0
    fragment_cache: FragmentCacheStats = FragmentCacheStats()


class ShardedEngine:
    """Service facade over a sharded deployment (see module docstring)."""

    def __init__(self, config: EngineConfig, router: ShardRouter, backend: str) -> None:
        self.config = config
        self._router = router
        self._backend = backend
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, config: Optional[EngineConfig] = None, **knobs) -> "ShardedEngine":
        """Open a sharded engine from a config with ``shards`` set.

        Mirrors :meth:`repro.api.Engine.open` (and is what
        :func:`repro.api.open` dispatches to when the config names a
        shard count): the executor named by ``shard_executor`` spins up
        one engine per shard.
        """
        try:
            if config is None:
                config = EngineConfig(**knobs)
            elif knobs:
                config = config.replace(**knobs)
        except TypeError as exc:
            raise ConfigError(f"invalid engine configuration: {exc}") from None
        if not config.shards:
            raise ConfigError(
                f"ShardedEngine needs shards >= 1 in its config, got "
                f"{config.shards!r}; use repro.api.Engine for a single "
                f"engine"
            )
        executor_kind = config.resolved_shard_executor
        if executor_kind == "serial":
            executor = SerialShardExecutor(config, config.shards)
        else:
            # Workers, local or remote, can die or hang: supervise them
            # with the journal/restart/replay layer (invisible to the
            # router; shard_max_restarts=0 makes every failure fatal).
            workers = (
                TcpShardExecutor if executor_kind == "tcp"
                else ProcessShardExecutor
            )
            executor = ShardSupervisor(workers(config, config.shards), config)
        return cls(
            config,
            ShardRouter(config, executor),
            kernels.active_backend_name(),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def raw(self) -> ShardRouter:
        """The router (the sharded twin of ``Engine.raw``)."""
        return self._router

    @property
    def shards(self) -> int:
        return self._router.shard_count

    @property
    def epoch(self) -> int:
        """Global update operations applied so far (the dataset version)."""
        return self._router.epoch

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def restarts(self) -> int:
        """Supervised worker recoveries performed so far (0 when serial)."""
        return getattr(self._router.executor, "restarts", 0)

    def __len__(self) -> int:
        return len(self._router)

    def __contains__(self, pid: int) -> bool:
        return pid in self._router

    def point(self, pid: int) -> Sequence[float]:
        """Coordinates of a live global point id."""
        return self._router.point(pid)

    def is_core(self, pid: int) -> bool:
        return self._router.is_core(pid)

    @property
    def ownership_version(self) -> int:
        """Current version of the block→shard ownership table."""
        return self._router.ownership_version

    def rebalance(self, block: Sequence[int], dest: int) -> int:
        """Migrate one ownership block to shard ``dest`` online.

        Transfers the block's influence set, broadcasts the new
        versioned table to every shard, then flips the router — callers
        observe one atomic ownership change (and every in-flight call
        routed under the old version is rejected with
        :class:`repro.errors.StaleOwnershipError` rather than merging
        mixed ownership).  Returns the new table version.
        """
        return self._router.rebalance(tuple(block), dest)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float]) -> int:
        """Insert one point; returns its global id."""
        return self._router.insert_many([point])[0]

    def ingest(self, points: Iterable[Sequence[float]]) -> List[int]:
        """Bulk-insert a batch; one routing pass, one fan-out."""
        return self._router.insert_many(points)

    # Protocol alias: the workload runners drive ``insert_many``.
    insert_many = ingest

    def delete(self, pid: int) -> None:
        """Delete one point by global id."""
        if self.config.insert_only:
            raise self._insert_only_error("delete")
        if pid not in self._router:
            # Scalar-path message parity with the single engine.
            raise UnknownPointError(f"point id {pid} is not live")
        self._router.delete_many([pid])

    def delete_many(self, pids: Iterable[int]) -> None:
        """Bulk-delete by global ids (all-or-nothing across shards)."""
        if self.config.insert_only:
            raise self._insert_only_error("delete_many")
        self._router.delete_many(pids)

    def _insert_only_error(self, op: str) -> UnsupportedOperationError:
        return UnsupportedOperationError(
            f"{op} is not supported by the insert-only algorithm "
            f"{self.config.resolved_algorithm!r}; configure a "
            f"fully-dynamic algorithm ('full', 'double-approx', ...) "
            f"for deletions"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def cgroup_by(self, pids: Iterable[int]) -> QueryOutcome:
        """Merged C-group-by over global ids, epoch-stamped."""
        return QueryOutcome(
            result=self._router.cgroup_by_many(pids),
            epoch=self.epoch,
            backend=self._backend,
        )

    cgroup_by_many = cgroup_by

    def snapshot(self) -> Snapshot:
        """Merged full clustering of the live dataset, epoch-stamped."""
        return Snapshot(
            clustering=self._router.clusters(),
            epoch=self.epoch,
            backend=self._backend,
            size=len(self._router),
        )

    def stats(self) -> ShardedStats:
        per_shard = tuple(self._router.shard_stats())
        fragment_parts = [s.fragment_cache for s in per_shard]
        return ShardedStats(
            points=len(self._router),
            epoch=self.epoch,
            backend=self._backend,
            algorithm=self.config.resolved_algorithm,
            config=self.config,
            shards=self.shards,
            replicas=sum(s.points for s in per_shard),
            per_shard=per_shard,
            restarts=self.restarts,
            fragment_cache=FragmentCacheStats(
                hits=sum(f.hits for f in fragment_parts),
                misses=sum(f.misses for f in fragment_parts),
                invalidations=sum(f.invalidations for f in fragment_parts),
            ),
        )

    # ------------------------------------------------------------------
    # Sessions and lifecycle
    # ------------------------------------------------------------------

    def session(self, flush_threshold: Optional[int] = None):
        """A buffered :class:`repro.api.IngestSession` over this engine.

        The session's query barrier flushes through the router, so one
        flush lands atomically on every shard before the query runs.
        """
        from repro.api.session import IngestSession

        return IngestSession(self, flush_threshold=flush_threshold)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released this engine."""
        return self._closed

    def close(self) -> None:
        """Shut down the executor (worker processes, if any); idempotent.

        Safe to call any number of times, and safe after a worker has
        already died — the executors tolerate tearing down partially
        dead pools, so a crash-path ``close`` never raises a secondary
        error on top of the one that killed the worker.
        """
        if self._closed:
            return
        self._closed = True
        self._router.executor.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine(algorithm={self.config.algorithm!r}, "
            f"shards={self.shards}, points={len(self)}, "
            f"epoch={self.epoch}, backend={self._backend!r})"
        )

