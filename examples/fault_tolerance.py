#!/usr/bin/env python
"""Fault tolerance: a sharded deployment surviving worker crashes.

The process-executor sharded engine runs one worker process per shard.
Workers can die (OOM killer, segfaults) or hang (deadlocks); the
supervision layer turns both into bounded, exact recovery:

* every reply wait carries a deadline (``shard_call_timeout``), so a
  hung worker raises :class:`repro.ShardTimeoutError` instead of
  hanging the caller;
* every state-mutating call that succeeds is journaled per shard, and
  a dead or hung worker is respawned and rebuilt by replaying its
  journal — at ``rho = 0`` the recovered deployment is bit-identical
  to an engine that never failed;
* restarts are budgeted (``shard_max_restarts``) and counted in
  ``stats().restarts``, so a run that survived failures says so.

This example injects a real worker crash (``os._exit`` mid-call) with
a :mod:`repro.shard.faults` plan — the same declarative schedule the
chaos suite uses — and checks the recovered clustering against an
unsharded reference.  The ``REPRO_FAULT_PLAN`` environment variable
overrides the plan, which is how the CI chaos leg drives this script.

Run: python examples/fault_tolerance.py
"""

import os

import repro.api
from repro.workload.seed_spreader import seed_spreader


def main():
    n = int(os.environ.get("REPRO_BENCH_N", "2000"))
    points = seed_spreader(n, 2, seed=7)
    plan = os.environ.get("REPRO_FAULT_PLAN", "crash:ingest:2:shard=0")
    chunk = max(1, n // 3)

    knobs = dict(algorithm="full", eps=200.0, minpts=10, rho=0.0, dim=2)
    reference = repro.api.open(**knobs)
    engine = repro.api.open(
        **knobs,
        shards=2,
        shard_executor="process",
        shard_fault_plan=None if "REPRO_FAULT_PLAN" in os.environ else plan,
        shard_call_timeout=30.0,
        shard_max_restarts=3,
    )
    print(f"fault plan: {plan!r} (workers will really die)")

    ref_ids, ids = [], []
    for lo in range(0, n, chunk):
        batch = points[lo : lo + chunk]
        ref_ids.extend(reference.ingest(batch))
        ids.extend(engine.ingest(batch))  # a crash lands mid-stream here
    reference.delete_many(ref_ids[: n // 10])
    engine.delete_many(ids[: n // 10])

    stats = engine.stats()
    print(
        f"ingested {len(engine)} points across {stats.shards} shards; "
        f"supervised worker restarts: {stats.restarts}"
    )
    if plan.startswith("crash") or plan.startswith("hang"):
        assert stats.restarts >= 1, "the injected failure never fired"

    same = engine.snapshot().clustering == reference.snapshot().clustering
    print(
        f"recovered clustering vs never-failed reference at rho=0: "
        f"{'bit-identical' if same else 'DIVERGED'}"
    )
    assert same, "journal replay must rebuild shard state exactly"

    reference.close()
    engine.close()
    print("OK: worker death was an implementation detail, not an outage")


if __name__ == "__main__":
    main()
