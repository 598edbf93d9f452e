"""Chaos suite: injected worker failures against supervised recovery.

The fault-tolerance tentpole's proof obligations, each pinned by a
test driven through :mod:`repro.shard.faults` plans rather than
hand-rolled monkeypatching:

* a **crashed** worker (``os._exit`` mid-call) is respawned and its
  journal replayed, and the recovered deployment's queries and
  snapshot are **bit-identical** to an unsharded engine's at
  ``rho = 0`` — the same differential bar the router clears;
* a **hung** worker surfaces as :class:`repro.errors.ShardTimeoutError`
  within the configured deadline and recovers the same way; with
  recovery disabled the failure lands within twice the deadline,
  never hanging pytest;
* restarts are **budgeted** (``shard_max_restarts``), counted in
  ``ShardedStats.restarts`` / ``RunResult.restarts``, and exhausting
  the budget names the knob;
* an :class:`IngestSession` whose flush dies mid-way is atomic: the
  deployment either recovers and applies the flush exactly, or fails
  loudly on every later merge — never a silent half-application;
* injected backend *errors* relay without any restart, ``delay``
  faults inside the deadline are invisible, and no worker process
  outlives ``close()`` even after crashes and recovery.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.api as api
from repro.api.config import EngineConfig
from repro.errors import ConfigError, ReproError, ShardTimeoutError
from repro.shard.faults import (
    FaultInjector,
    FaultRule,
    injector_for,
    parse_fault_plan,
)
from repro.workload.runner import run_workload_engine
from repro.workload.workload import generate_workload

BASE = dict(algorithm="full", eps=3.0, minpts=5, dim=2)


def _points(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 50.0, size=(n, 2))


def _open_sharded(**knobs):
    opts = dict(BASE, shards=2, shard_executor="process")
    opts.update(knobs)
    return api.open(**opts)


def _open_single():
    return api.open(**BASE)


def _snap_canon(snapshot):
    return [sorted(map(sorted, snapshot.clusters)), sorted(snapshot.noise)]


# ----------------------------------------------------------------------
# Plan parsing and injector semantics (no processes involved)
# ----------------------------------------------------------------------


def test_parse_fault_plan_full_syntax():
    rules = parse_fault_plan(
        "crash:ingest:2; hang:merge_state:1:shard=1:seconds=0.25 ;"
        "delay:ping:3:incarnation=*;error:delete_many:1:incarnation=2"
    )
    assert rules == (
        FaultRule(kind="crash", method="ingest", nth=2),
        FaultRule(
            kind="hang", method="merge_state", nth=1, shard=1, seconds=0.25
        ),
        FaultRule(kind="delay", method="ping", nth=3, incarnation=None),
        FaultRule(kind="error", method="delete_many", nth=1, incarnation=2),
    )
    # Defaults: every shard, built-in sleep, incarnation 0 only.
    assert rules[0].shard is None
    assert rules[0].seconds is None
    assert rules[0].incarnation == 0


@pytest.mark.parametrize(
    "spec",
    [
        "",
        " ; ",
        "crash:ingest",  # no call index
        "teleport:ingest:1",  # unknown kind
        "crash::1",  # no method
        "crash:ingest:zero",  # non-integer index
        "crash:ingest:0",  # 1-based
        "crash:ingest:-1",
        "crash:ingest:1:shard=x",
        "crash:ingest:1:shard=-1",
        "hang:ingest:1:seconds=soon",
        "hang:ingest:1:seconds=-1",
        "crash:ingest:1:incarnation=first",
        "crash:ingest:1:incarnation=-1",
        "crash:ingest:1:when=now",  # unknown option
        "crash:ingest:1:shard",  # option without '='
    ],
)
def test_parse_fault_plan_rejects_malformed(spec):
    with pytest.raises(ConfigError):
        parse_fault_plan(spec)


def test_injector_counts_calls_and_filters_by_shard():
    rules = parse_fault_plan("error:ingest:2:shard=1")
    wrong_shard = FaultInjector(rules, shard_index=0, incarnation=0)
    for _ in range(5):
        wrong_shard.fire("ingest")  # never fires off-shard
    right_shard = FaultInjector(rules, shard_index=1, incarnation=0)
    right_shard.fire("ingest")
    right_shard.fire("ping")  # counting is per method name
    with pytest.raises(ReproError, match="injected fault"):
        right_shard.fire("ingest")
    # nth means *exactly* the Nth call, not every call from it on.
    right_shard.fire("ingest")


def test_injector_filters_by_incarnation():
    rules = parse_fault_plan("error:ingest:1")
    replayer = FaultInjector(rules, shard_index=0, incarnation=1)
    replayer.fire("ingest")  # armed only in incarnation 0: silent
    every = FaultInjector(
        parse_fault_plan("error:ingest:1:incarnation=*"),
        shard_index=0,
        incarnation=4,
    )
    with pytest.raises(ReproError, match="injected fault"):
        every.fire("ingest")


def test_injector_for_is_none_when_no_plan():
    assert injector_for(None, 0, 0) is None
    assert injector_for("", 0, 0) is None
    assert injector_for("crash:ingest:1", 0, 0) is not None


# ----------------------------------------------------------------------
# Crash recovery: restart + exact replay
# ----------------------------------------------------------------------


def test_crash_recovery_is_bit_identical_to_single_engine():
    """The flagship differential: both workers crash mid-run, the
    supervisor restarts them and replays their journals (including a
    delete batch), and at rho=0 nothing distinguishes the recovered
    deployment from an engine that never failed."""
    pts = _points(120, seed=42)
    single = _open_single()
    sharded = _open_sharded(shard_fault_plan="crash:ingest:2")
    try:
        s_ids = single.ingest(pts[:60])
        g_ids = sharded.ingest(pts[:60])
        single.delete_many(s_ids[:10])
        sharded.delete_many(g_ids[:10])
        # Second ingest call per worker: every shard crashes here, so
        # recovery replays ingest + delete_many before retrying.
        s_ids2 = single.ingest(pts[60:])
        g_ids2 = sharded.ingest(pts[60:])
        assert sharded.restarts >= 1
        assert sharded.stats().restarts == sharded.restarts
        live_s = s_ids[10:] + s_ids2
        live_g = g_ids[10:] + g_ids2
        assert (
            single.cgroup_by(live_s).result
            == sharded.cgroup_by(live_g).result
        )
        assert _snap_canon(single.snapshot().clustering) == _snap_canon(
            sharded.snapshot().clustering
        )
        assert len(single) == len(sharded)
    finally:
        single.close()
        sharded.close()


def test_hang_recovery_is_bit_identical_to_single_engine():
    pts = _points(100, seed=7)
    single = _open_single()
    sharded = _open_sharded(
        shard_fault_plan="hang:ingest:1:shard=0",
        shard_call_timeout=1.0,
    )
    try:
        s_ids = single.ingest(pts)
        g_ids = sharded.ingest(pts)  # shard 0 hangs, times out, recovers
        assert sharded.restarts == 1
        assert (
            single.cgroup_by(s_ids).result == sharded.cgroup_by(g_ids).result
        )
        assert _snap_canon(single.snapshot().clustering) == _snap_canon(
            sharded.snapshot().clustering
        )
    finally:
        single.close()
        sharded.close()


def test_hung_worker_fails_within_twice_the_deadline():
    """With recovery disabled a hang must surface as a bounded, typed
    failure — the deadline doing its one job.  The budget-exhaustion
    error chains from the timeout that spent the budget."""
    timeout = 0.75
    sharded = _open_sharded(
        shard_fault_plan="hang:ingest:1:shard=0",
        shard_call_timeout=timeout,
        shard_max_restarts=0,
    )
    try:
        start = time.monotonic()
        with pytest.raises(ReproError, match="restart budget") as excinfo:
            sharded.ingest(_points(80))
        elapsed = time.monotonic() - start
        assert elapsed <= 2 * timeout, (
            f"hung worker took {elapsed:.2f}s to fail against a "
            f"{timeout:g}s deadline"
        )
        assert isinstance(excinfo.value.__cause__, ShardTimeoutError)
    finally:
        sharded.close()


def test_restart_budget_exhaustion_names_the_knob():
    # incarnation=* re-arms the crash in every respawned worker, so
    # each recovery attempt dies again until the budget runs out.
    sharded = _open_sharded(
        shard_fault_plan="crash:ingest:1:shard=0:incarnation=*",
        shard_max_restarts=2,
    )
    try:
        with pytest.raises(ReproError, match="shard_max_restarts=2"):
            sharded.ingest(_points(80))
        assert sharded.restarts == 2  # the budget was actually spent
    finally:
        sharded.close()


def test_delay_fault_within_deadline_is_invisible():
    pts = _points(90, seed=3)
    single = _open_single()
    sharded = _open_sharded(
        shard_fault_plan="delay:ingest:1:seconds=0.2",
        shard_call_timeout=30.0,
    )
    try:
        s_ids = single.ingest(pts)
        g_ids = sharded.ingest(pts)
        assert sharded.restarts == 0  # slow is not dead
        assert (
            single.cgroup_by(s_ids).result == sharded.cgroup_by(g_ids).result
        )
    finally:
        single.close()
        sharded.close()


def test_injected_error_relays_without_restart():
    sharded = _open_sharded(shard_fault_plan="error:ingest:1:shard=0")
    try:
        with pytest.raises(ReproError, match="injected fault"):
            sharded.ingest(_points(80))
        # The worker survived its own exception: nothing was restarted.
        assert sharded.restarts == 0
    finally:
        sharded.close()


def test_restarts_are_stamped_into_run_results():
    workload = generate_workload(
        60, 2, insert_fraction=1.0, query_frequency=25, seed=99
    )
    sharded = _open_sharded(
        batch_size=20, shard_fault_plan="crash:ingest:1:shard=0"
    )
    try:
        result = run_workload_engine(sharded, workload)
        assert result.restarts >= 1
        assert result.restarts == sharded.restarts
        assert result.shards == 2
    finally:
        sharded.close()


def test_journal_truncation_recovery_is_bit_identical():
    """Snapshot-and-truncate keeps the journal bounded without losing a
    single mutation: a worker that crashes *after* its journal has been
    truncated recovers from snapshot + suffix, and the recovered
    deployment stays bit-identical to an unsharded engine at rho=0."""
    every = 4
    pts = _points(140, seed=23)
    single = _open_single()
    sharded = _open_sharded(
        shard_fault_plan="crash:ingest:7:shard=0",
        shard_journal_snapshot_every=every,
    )
    try:
        supervisor = sharded.raw.executor
        s_ids, g_ids = [], []
        # Eight small batches: by the 7th ingest, shard 0 has truncated
        # its journal at least once, so recovery must chain
        # restore_state with the replayed suffix.
        for lo in range(0, 112, 14):
            s_ids.extend(single.ingest(pts[lo : lo + 14]))
            g_ids.extend(sharded.ingest(pts[lo : lo + 14]))
        single.delete_many(s_ids[:20])
        sharded.delete_many(g_ids[:20])
        s_ids2 = single.ingest(pts[112:])
        g_ids2 = sharded.ingest(pts[112:])
        assert sharded.restarts == 1
        assert supervisor.has_snapshot(0)
        assert supervisor.journal_size(0) < every
        live_s = s_ids[20:] + s_ids2
        live_g = g_ids[20:] + g_ids2
        assert (
            single.cgroup_by(live_s).result
            == sharded.cgroup_by(live_g).result
        )
        assert _snap_canon(single.snapshot().clustering) == _snap_canon(
            sharded.snapshot().clustering
        )
        assert len(single) == len(sharded)
    finally:
        single.close()
        sharded.close()


# ----------------------------------------------------------------------
# IngestSession atomicity under mid-flush worker death
# ----------------------------------------------------------------------


def test_session_flush_through_worker_crash_recovers_exactly():
    pts = _points(110, seed=11)
    single = _open_single()
    sharded = _open_sharded(shard_fault_plan="crash:ingest:1:shard=0")
    try:
        with single.session() as ref:
            ref.ingest_many(pts)
        with sharded.session() as session:
            session.ingest_many(pts)
        # The flush's fan-out killed shard 0's worker; recovery happened
        # inside the flush, which then completed as if nothing died.
        assert sharded.restarts >= 1
        assert _snap_canon(single.snapshot().clustering) == _snap_canon(
            sharded.snapshot().clustering
        )
        assert len(sharded) == len(pts)
    finally:
        single.close()
        sharded.close()


def test_session_flush_without_recovery_fails_clean_never_half_applied():
    """shard_max_restarts=0 turns the mid-flush death fatal.  The
    session buffer is discarded, no flushed point ever reaches the
    global registry, and every later merge fails loudly (the dead
    worker cannot be recovered) — never a silently half-served
    dataset."""
    sharded = _open_sharded(
        shard_fault_plan="crash:ingest:2:shard=0", shard_max_restarts=0
    )
    try:
        sharded.ingest(_points(30, seed=4))  # ingest call 1: healthy
        session = sharded.session()
        pids = session.ingest_many(_points(110, seed=11))
        assert len(pids) == 110
        assert session.pending_updates == 110  # buffered, not applied
        with pytest.raises(ReproError, match="restart budget"):
            session.__exit__(None, None, None)  # clean exit -> flush
        assert session.pending_updates == 0  # failed run not retained
        # No flushed point made it into the global registry...
        assert len(sharded) == 30
        # ...and queries fail loudly instead of merging around the
        # lost shard.
        with pytest.raises(ReproError, match="restart budget"):
            sharded.snapshot()
    finally:
        sharded.close()


def test_session_flush_backend_error_trips_the_epoch_guard():
    """The half-application guard itself: an injected backend *error*
    on one shard aborts the flush while the other shard has already
    applied its slice.  Both workers are alive and answering, but the
    router's epoch bookkeeping catches the divergence at the very next
    merge — the dataset can never silently serve half a flush."""
    sharded = _open_sharded(shard_fault_plan="error:ingest:2:shard=0")
    try:
        sharded.ingest(_points(30, seed=4))  # ingest call 1: healthy
        session = sharded.session()
        session.ingest_many(_points(110, seed=11))
        with pytest.raises(ReproError, match="injected fault"):
            session.__exit__(None, None, None)
        assert sharded.restarts == 0  # the workers never died
        assert len(sharded) == 30  # pre-flush dataset only
        with pytest.raises(ReproError, match="out-of-band"):
            sharded.snapshot()
    finally:
        sharded.close()


def test_session_exit_on_error_discards_instead_of_flushing():
    sharded = _open_sharded(shard_fault_plan="crash:ingest:1:shard=0")
    try:
        with pytest.raises(RuntimeError, match="caller bug"):
            with sharded.session() as session:
                session.ingest_many(_points(40))
                raise RuntimeError("caller bug")
        # The buffer was discarded unapplied: no flush, no crash, no
        # recovery, and the engine is still pristine and usable.
        assert sharded.restarts == 0
        assert len(sharded) == 0
        pids = sharded.ingest(_points(30, seed=5))  # ingest call #1...
        assert sharded.restarts >= 1  # ...which is where the fault sat
        assert len(pids) == 30
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# Resource hygiene after chaos
# ----------------------------------------------------------------------


def test_no_worker_process_left_after_crash_recovery_and_close():
    sharded = _open_sharded(shard_fault_plan="crash:ingest:2")
    executor = sharded.raw.executor.executor
    pids = set()
    try:
        pids.update(proc.pid for proc in executor._procs)
        sharded.ingest(_points(80))
        sharded.ingest(_points(80, seed=1))  # crash + recovery
        assert sharded.restarts >= 1
        pids.update(proc.pid for proc in executor._procs)
        sharded.ingest(_points(80, seed=2))  # recovered workers serve on
    finally:
        sharded.close()
    assert len(pids) > 2  # the crashed workers were replaced
    survivors = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        survivors.append(pid)
    assert survivors == []


def test_timeouts_and_restarts_default_to_off_path_config():
    """The supervised defaults: no fault plan, 60s deadline, budget 3 —
    and a plain sharded run reports zero restarts."""
    config = EngineConfig(**BASE, shards=2, shard_executor="process")
    assert config.resolved_shard_fault_plan in (
        None,
        os.environ.get("REPRO_FAULT_PLAN"),
    )
    sharded = _open_sharded()
    try:
        pids = sharded.ingest(_points(60))
        assert sharded.restarts == 0
        assert sharded.stats().restarts == 0
        assert len(pids) == 60
    finally:
        sharded.close()
