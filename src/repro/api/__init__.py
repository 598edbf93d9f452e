"""repro.api — the typed service facade over the paper's clusterers.

The one stable entry point the CLI, the workload runner, the examples
and future sharding/server layers all sit behind::

    import repro.api

    engine = repro.api.open(algorithm="full", eps=3.0, minpts=5, dim=2)
    pids = engine.ingest(points)              # vectorized bulk insert
    outcome = engine.cgroup_by(pids[:10])     # epoch-stamped result
    engine.delete(pids[0])
    snap = engine.snapshot()                  # full clustering @ epoch

    with engine.session() as session:         # buffered async ingest
        for p in stream:
            session.ingest(p)                 # flushes on threshold
        outcome = session.cgroup_by(pids)     # query barrier

Configuration is one frozen, validated :class:`EngineConfig`; every
user-facing failure derives from :class:`repro.errors.ReproError`
(re-exported here), with :class:`ConfigError` covering every invalid
knob.  The legacy entry points (``semi_approx``, ``double_approx``,
direct clusterer construction) remain supported shims — see the README
migration table.
"""

from __future__ import annotations

from typing import Optional

from repro.api.config import (
    ALGORITHM_CHOICES,
    DEFAULT_FLUSH_THRESHOLD,
    DEFAULT_SHARD_BLOCK,
    SHARD_EXECUTOR_CHOICES,
    EngineConfig,
)
from repro.api.engine import Engine, EngineStats, QueryOutcome, Snapshot
from repro.api.session import IngestSession
from repro.core.fragments import FragmentCacheStats
from repro.errors import (
    ConfigError,
    InvalidQueryError,
    ReproError,
    ShardTimeoutError,
    UnknownPointError,
    UnsupportedOperationError,
)
from repro.shard.engine import ShardedEngine, ShardedStats


def open(config: Optional[EngineConfig] = None, **knobs):
    """Open an :class:`Engine` — the library's front door.

    Accepts a prebuilt :class:`EngineConfig`, bare config knobs, or a
    config plus knob overrides (revalidated)::

        engine = repro.api.open(eps=3.0, minpts=5)            # knobs
        engine = repro.api.open(EngineConfig(eps=3.0, minpts=5))
        engine = repro.api.open(base_config, dim=5)           # override

    A config naming a shard count opens a :class:`ShardedEngine` (N
    per-shard engines behind one router, same serving surface)::

        engine = repro.api.open(eps=3.0, minpts=5, shards=4)

    Shadows the ``open`` builtin inside this namespace only — call it
    as ``repro.api.open``.
    """
    if "shards" in knobs:  # an explicit shards=None override un-shards
        sharded = knobs["shards"] is not None
    else:
        sharded = config is not None and config.shards is not None
    if sharded:
        return ShardedEngine.open(config, **knobs)
    return Engine.open(config, **knobs)


__all__ = [
    "ALGORITHM_CHOICES",
    "DEFAULT_FLUSH_THRESHOLD",
    "DEFAULT_SHARD_BLOCK",
    "SHARD_EXECUTOR_CHOICES",
    "ConfigError",
    "Engine",
    "EngineConfig",
    "EngineStats",
    "FragmentCacheStats",
    "IngestSession",
    "InvalidQueryError",
    "QueryOutcome",
    "ReproError",
    "ShardTimeoutError",
    "ShardedEngine",
    "ShardedStats",
    "Snapshot",
    "UnknownPointError",
    "UnsupportedOperationError",
    "open",
]
