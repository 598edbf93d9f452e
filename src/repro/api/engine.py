"""The :class:`Engine` facade — one stable entry point over the clusterers.

An engine owns a clusterer built from a validated
:class:`repro.api.EngineConfig` and exposes the full serving surface:

* ``ingest`` / ``insert`` / ``delete`` / ``delete_many`` — updates;
* ``cgroup_by`` / ``cgroup_by_many`` — the paper's C-group-by query,
  returned as an epoch-stamped :class:`QueryOutcome`;
* ``snapshot()`` / ``stats()`` — epoch-stamped full clustering and
  service counters;
* ``session()`` — a buffered :class:`repro.api.IngestSession` for
  pure-ingest phases.

The *epoch* is the number of update operations (points inserted plus
points deleted) the engine has applied; every outcome, snapshot and
stats record carries the epoch and the kernel-backend name it was
produced under, so results can always be attributed to a dataset
version and a compute substrate.

The engine deliberately satisfies the workload runner's
``DynamicClusterer`` and ``BulkDynamicClusterer`` protocols, so
:func:`repro.workload.runner.run_workload_engine` (and the plain
runners) can drive it interchangeably with a bare clusterer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro import kernels
from repro.api.config import EngineConfig
from repro.core.framework import CGroupByResult, Clustering
from repro.core.fragments import FragmentCacheStats
from repro.errors import ConfigError, UnsupportedOperationError


@dataclass(frozen=True)
class QueryOutcome:
    """An epoch-stamped C-group-by result.

    ``result`` is the canonical :class:`CGroupByResult` the underlying
    query engine produced — bit-identical to what a direct
    ``clusterer.cgroup_by`` call returns; ``epoch`` and ``backend``
    record the dataset version and kernel backend that answered.
    """

    result: CGroupByResult
    epoch: int
    backend: str

    @property
    def groups(self) -> List[List[int]]:
        return self.result.groups

    @property
    def noise(self) -> List[int]:
        return self.result.noise

    def group_sets(self) -> List[Set[int]]:
        return self.result.group_sets()

    def memberships(self) -> Dict[int, int]:
        return self.result.memberships()


@dataclass(frozen=True)
class Snapshot:
    """An epoch-stamped full clustering (the ``Q = P`` query)."""

    clustering: Clustering
    epoch: int
    backend: str
    size: int

    @property
    def clusters(self) -> List[List[int]]:
        """Clusters as ascending id lists, in lexicographic order."""
        return self.clustering.clusters

    @property
    def noise(self) -> List[int]:
        """Noise ids, ascending."""
        return self.clustering.noise

    @property
    def cluster_count(self) -> int:
        return self.clustering.cluster_count


@dataclass(frozen=True)
class EngineStats:
    """Epoch-stamped service counters of one engine."""

    points: int
    epoch: int
    backend: str
    algorithm: str
    config: EngineConfig
    cells: Optional[int] = None  # grid-based algorithms only
    # Incremental fragment cache counters (all zero for the rho-free
    # baselines, which keep no cache).
    fragment_cache: FragmentCacheStats = FragmentCacheStats()


class Engine:
    """Service facade over one configured clusterer.

    Build one with :meth:`Engine.open` (or :func:`repro.api.open`);
    the constructor itself is internal plumbing.  The underlying
    clusterer stays reachable through :attr:`raw` as a documented
    escape hatch for structure-level introspection.
    """

    def __init__(self, config: EngineConfig, clusterer, backend: str) -> None:
        self.config = config
        self._clusterer = clusterer
        self._backend = backend
        self._epoch = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, config: Optional[EngineConfig] = None, **knobs) -> "Engine":
        """Open an engine from a config (or from config knobs directly).

        ``Engine.open(EngineConfig(...))`` and
        ``Engine.open(eps=..., minpts=..., ...)`` are equivalent; mixing
        a config instance with extra knobs applies them via
        :meth:`EngineConfig.replace` (revalidated).
        """
        try:
            if config is None:
                config = EngineConfig(**knobs)
            elif knobs:
                config = config.replace(**knobs)
        except TypeError as exc:
            # Unknown knob names surface as TypeError from the dataclass
            # constructor; fold them into the unified config failure.
            raise ConfigError(f"invalid engine configuration: {exc}") from None
        return cls(config, config.build_clusterer(), kernels.active_backend_name())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def raw(self):
        """The underlying clusterer (documented escape hatch)."""
        return self._clusterer

    @property
    def epoch(self) -> int:
        """Update operations applied so far (the dataset version)."""
        return self._epoch

    @property
    def backend(self) -> str:
        """Resolved kernel-backend name the engine was opened under."""
        return self._backend

    def __len__(self) -> int:
        return len(self._clusterer)

    def __contains__(self, pid: int) -> bool:
        return pid in self._clusterer

    def point(self, pid: int) -> Sequence[float]:
        """Coordinates of a live point id."""
        return self._clusterer.point(pid)

    def is_core(self, pid: int) -> bool:
        return self._clusterer.is_core(pid)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float]) -> int:
        """Insert one point; returns its id."""
        pid = self._clusterer.insert(point)
        self._epoch += 1
        return pid

    def ingest(self, points: Iterable[Sequence[float]], ids=None) -> List[int]:
        """Bulk-insert a batch; returns the assigned ids in batch order.

        One vectorized ``insert_many`` call on the underlying clusterer
        — the engine adds nothing on this hot path beyond the epoch
        stamp.  ``ids`` (grid algorithms only) gives the batch fresh,
        strictly ascending int64 ids instead of the next contiguous
        ones: a shard engine keeps every point under its global id.
        """
        batch = points if isinstance(points, list) else list(points)
        try:
            if ids is None:
                pids = self._clusterer.insert_many(batch)
            else:
                pids = self._clusterer.insert_many(batch, ids)
        finally:
            # Epoch must never under-count, so a failed call still
            # advances the dataset version (a bump without a change is
            # benign; the reverse is not).
            self._epoch += len(batch)
        return pids

    # Protocol alias: the workload runners drive ``insert_many``.
    insert_many = ingest

    def delete(self, pid: int) -> None:
        """Delete one point by id."""
        try:
            self._clusterer.delete(pid)
        except NotImplementedError as exc:
            raise self._insert_only_error("delete") from exc
        self._epoch += 1

    def delete_many(self, pids: Iterable[int]) -> None:
        """Bulk-delete a batch of point ids."""
        pid_list = list(pids)
        try:
            self._clusterer.delete_many(pid_list)
        except NotImplementedError as exc:
            raise self._insert_only_error("delete_many") from exc
        finally:
            # See ingest(): over-counting on failure keeps the epoch a
            # sound dataset-version token.
            self._epoch += len(pid_list)

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
        """C-group-by over the given ids, epoch-stamped."""
        return QueryOutcome(
            result=self._clusterer.cgroup_by(pids),
            epoch=self._epoch,
            backend=self._backend,
        )

    def cgroup_by_many(self, pids: Iterable[int]) -> QueryOutcome:
        """Batched C-group-by (the vectorized query engine)."""
        return QueryOutcome(
            result=self._clusterer.cgroup_by_many(pids),
            epoch=self._epoch,
            backend=self._backend,
        )

    def snapshot(self) -> Snapshot:
        """Full clustering of the live dataset, epoch-stamped."""
        return Snapshot(
            clustering=self._clusterer.clusters(),
            epoch=self._epoch,
            backend=self._backend,
            size=len(self._clusterer),
        )

    def stats(self) -> EngineStats:
        """Current service counters, epoch-stamped."""
        fragment_stats = getattr(self._clusterer, "fragment_cache_stats", None)
        return EngineStats(
            points=len(self._clusterer),
            epoch=self._epoch,
            backend=self._backend,
            algorithm=self.config.resolved_algorithm,
            config=self.config,
            cells=getattr(self._clusterer, "cell_count", None),
            fragment_cache=(
                fragment_stats() if fragment_stats is not None
                else FragmentCacheStats()
            ),
        )

    # ------------------------------------------------------------------
    # Shard-support surface (consumed by repro.shard)
    # ------------------------------------------------------------------

    def membership_fragments(
        self, pids: Optional[Iterable[int]] = None, trust=None
    ):
        """Per-core-cell membership fragments of a query batch.

        The cell-keyed decomposition of :meth:`cgroup_by` that the shard
        router merges across engines, as flat arrays; ``pids=None``
        queries every point of every cell ``trust`` admits, and
        ``trust`` restricts which cells this engine may decide against
        (memberships toward untrusted cells come back as open probes).
        See
        :meth:`repro.core.framework.GridClusterer.membership_fragments`.
        Only the grid-based algorithms expose it.
        """
        return self._fragment_source("membership_fragments")(pids, trust=trust)

    def gum_edge_fragment(self, trust=None):
        """Core cells labelled by their component (plus boundary data).

        See :meth:`repro.core.framework.GridClusterer.gum_edge_fragment`.
        Only the grid-based algorithms expose it.
        """
        return self._fragment_source("gum_edge_fragment")(trust=trust)

    def _fragment_source(self, name: str):
        method = getattr(self._clusterer, name, None)
        if method is None:
            raise UnsupportedOperationError(
                f"{name} needs the grid-based cell registry, which "
                f"algorithm {self.config.resolved_algorithm!r} does not "
                f"maintain; configure a semi/full family algorithm"
            )
        return method

    # ------------------------------------------------------------------
    # Sessions and lifecycle
    # ------------------------------------------------------------------

    def session(self, flush_threshold: Optional[int] = None):
        """A buffered :class:`repro.api.IngestSession` over this engine.

        ``flush_threshold`` overrides the config's ingest flush policy
        for this session only.
        """
        from repro.api.session import IngestSession

        return IngestSession(self, flush_threshold=flush_threshold)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released this engine."""
        return self._closed

    def close(self) -> None:
        """Release the engine's structures; idempotent.

        Long-lived services (and the shard executors, which host one
        engine per shard) call this to drop the clusterer's buffers and
        index structures deterministically instead of waiting for GC.
        Using a closed engine is undefined; ``close`` may be called any
        number of times.
        """
        if self._closed:
            return
        self._closed = True
        self._clusterer = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(algorithm={self.config.algorithm!r}, "
            f"points={len(self)}, epoch={self._epoch}, "
            f"backend={self._backend!r})"
        )
