"""repro.shard — horizontal scale-out behind the ``repro.api`` surface.

A sharded deployment partitions the cell registry across N per-shard
:class:`repro.api.Engine` instances by a deterministic hash of cell
ownership blocks, replicates halo cells so every shard computes exact
core status for what it owns, and merges per-shard component labels
and per-cell query fragments at the boundary — at ``rho = 0`` the
merged results are bit-identical to a single engine's (proven by the
randomized differential harness in ``tests/test_shard_equivalence.py``).

Open one through the front door with the ``shards`` knob::

    import repro.api

    engine = repro.api.open(
        algorithm="full", eps=3.0, minpts=5, dim=2,
        shards=4, shard_executor="process",
    )
    pids = engine.ingest(points)        # routed + halo-replicated
    outcome = engine.cgroup_by(pids)    # merged, epoch-stamped

Layering: :class:`ShardTopology` (versioned ownership/halo geometry) →
:class:`ShardBackend` (one engine behind its trust predicate) →
executors (in-process serial, or one worker per shard over the one
socket wire: spawned locally by :class:`ProcessShardExecutor`, remote
behind :class:`TcpShardExecutor`) →
:class:`ShardSupervisor` (per-shard journal with snapshot truncation,
deadline-bounded calls, restart/reconnect with exact replay) →
:class:`ShardRouter` (global id space, routing, boundary merge, online
``rebalance``) → :class:`ShardedEngine` (the ``repro.api``-shaped
facade).

Failures are first-class: a hung worker raises
:class:`repro.errors.ShardTimeoutError` within the configured
deadline, a dead one is respawned and rebuilt by journal replay
(bounded by ``shard_max_restarts``), and :mod:`repro.shard.faults`
injects crashes/hangs/delays/errors on a declarative schedule so the
chaos suite can prove recovery stays bit-identical at ``rho = 0``.
"""

from __future__ import annotations

from repro.shard.backend import ShardBackend
from repro.shard.engine import SHARD_EXECUTOR_CHOICES, ShardedEngine, ShardedStats
from repro.shard.executors import ProcessShardExecutor, SerialShardExecutor
from repro.shard.faults import FaultRule, parse_fault_plan
from repro.shard.router import ShardRouter
from repro.shard.rpc import TcpShardExecutor, local_workers, serve_worker
from repro.shard.supervisor import ShardSupervisor
from repro.shard.topology import ShardTopology

__all__ = [
    "SHARD_EXECUTOR_CHOICES",
    "FaultRule",
    "ProcessShardExecutor",
    "SerialShardExecutor",
    "ShardBackend",
    "ShardRouter",
    "ShardSupervisor",
    "ShardTopology",
    "ShardedEngine",
    "ShardedStats",
    "TcpShardExecutor",
    "local_workers",
    "parse_fault_plan",
    "serve_worker",
]
