"""Worker-executor failure modes and lifecycle guarantees.

The worker executors' contract is easy to state and easy to silently
break: a worker death surfaces as a :class:`ReproError` (never a hang or
a desynchronized connection), a hung worker as a
:class:`ShardTimeoutError` within its deadline, any backend exception
is relayed even when it defeats pickling, and ``close()`` is idempotent
under double-close and after worker death.  One fixture runs each of
those over both worker executors — spawned ``process`` workers and
``tcp`` workers behind real sockets — since both are the same executor
class over the same wire.  Process-only tests pin what only spawned
workers have: reaping (no worker process outlives ``close()``, a crash
or a failed construction) and the fresh interpreter ``spawn`` gives
each worker.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

import repro.api as api
from repro.api.config import EngineConfig
from repro.errors import ConfigError, ReproError, ShardTimeoutError
from repro.shard import executors as executors_mod
from repro.shard.executors import (
    REAP_TIMEOUT,
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardWorkerLost,
)
from repro.shard.rpc import (
    TcpShardExecutor,
    spawn_worker_process,
    terminate_worker_process,
)


def _config(**overrides) -> EngineConfig:
    knobs = dict(
        algorithm="full", eps=3.0, minpts=5, dim=2, shards=2,
        shard_executor="process",
    )
    knobs.update(overrides)
    return EngineConfig(**knobs)


def _points(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 50.0, size=(n, 2))


class Workers:
    """Opens two-shard executors of one kind and can kill their workers.

    ``process`` executors spawn their own workers; ``tcp`` ones connect
    to ``python -m repro shard-worker`` subprocesses started here, one
    fresh pair per executor.  Everything is closed at teardown.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._executors = []
        self._servers = {}  # id(executor) -> [worker subprocess per shard]

    def open(self, **overrides):
        if self.kind == "process":
            executor = ProcessShardExecutor(_config(**overrides), 2)
            self._executors.append(executor)
            return executor
        servers, addresses = [], []
        try:
            for _ in range(2):
                proc, address = spawn_worker_process()
                servers.append(proc)
                addresses.append(address)
            config = _config(
                shard_executor="tcp", shard_workers=addresses, **overrides
            )
            executor = TcpShardExecutor(config, 2)
        except BaseException:
            for proc in servers:
                terminate_worker_process(proc)
            raise
        self._executors.append(executor)
        self._servers[id(executor)] = servers
        return executor

    def kill(self, executor, index: int) -> None:
        """SIGKILL shard ``index``'s worker process."""
        if self.kind == "process":
            executor._procs[index].kill()
            executor._procs[index].join(timeout=5)
        else:
            proc = self._servers[id(executor)][index]
            proc.kill()
            proc.wait()

    def revive(self, executor, index: int) -> None:
        """Bring a killed tcp worker back on its address (the platform
        supervisor's job); a process executor respawns on its own."""
        if self.kind == "tcp":
            old = self._servers[id(executor)][index]
            terminate_worker_process(old)
            port = executor._addresses[index][1]
            self._servers[id(executor)][index] = spawn_worker_process(port=port)[0]

    def close(self) -> None:
        for executor in self._executors:
            executor.close()
        for servers in self._servers.values():
            for proc in servers:
                terminate_worker_process(proc)


@pytest.fixture(params=("process", "tcp"))
def workers(request):
    harness = Workers(request.param)
    yield harness
    harness.close()


@pytest.fixture
def worker_executor(workers):
    return workers.open()


# ----------------------------------------------------------------------
# Exception relay
# ----------------------------------------------------------------------


def test_picklable_exception_relays_and_worker_survives(worker_executor):
    with pytest.raises(ReproError, match="injected fault"):
        worker_executor.call(0, "fault")
    # The worker is alive and its channel in sync: the next call round-trips.
    assert worker_executor.call(0, "ping") == 0
    assert worker_executor.call(1, "ping") == 1


@pytest.mark.parametrize("kind, error", [("eof", EOFError), ("timeout", TimeoutError)])
def test_relayed_connection_error_types_do_not_poison_the_channel(
    worker_executor, kind, error
):
    # A backend that raises EOFError or an OSError subclass is a relayed
    # exception, not a lost or hung worker: it propagates as itself, and
    # the channel stays usable without a restart.
    with pytest.raises(error, match="injected fault") as excinfo:
        worker_executor.call(0, "fault", kind)
    assert not isinstance(excinfo.value, (ShardWorkerLost, ShardTimeoutError))
    assert worker_executor.call(0, "ping") == 0
    with pytest.raises(error, match="injected fault"):
        worker_executor.map([("fault", (kind,)), ("ping", ())])
    assert worker_executor.map([("ping", ()), ("ping", ())]) == [0, 1]


def test_unpicklable_exception_relays_as_repro_error(worker_executor):
    with pytest.raises(ReproError) as excinfo:
        worker_executor.call(0, "fault", "unpicklable")
    message = str(excinfo.value)
    assert "could not be relayed" in message
    # The fallback carries the original exception's repr and traceback.
    assert "injected fault carrying an unpicklable payload" in message
    assert "original traceback" in message
    # The failed relay did not kill the worker or desync the channel.
    assert worker_executor.call(0, "ping") == 0


def test_exception_in_map_still_drains_other_shards(worker_executor):
    worker_executor.map(
        [("ingest", (_points(40),)), ("ingest", (_points(40, seed=1),))]
    )
    assert worker_executor.map([("size", ()), ("size", ())]) == [40, 40]
    with pytest.raises(ReproError, match="injected fault"):
        worker_executor.map([("fault", ()), ("ping", ())])
    # Shard 1's reply was drained despite shard 0's failure; both
    # channels still alternate request/reply cleanly.
    assert worker_executor.map([("ping", ()), ("ping", ())]) == [0, 1]


def test_reply_arrays_are_read_only_and_outlive_later_calls(worker_executor):
    # The ingest reply carries nothing; export_state's id array is a
    # bulk reply.
    assert worker_executor.call(0, "ingest", _points(64)) is None
    result = worker_executor.call(0, "export_state")["ids"]
    assert isinstance(result, np.ndarray)
    assert result.dtype == np.int64
    assert not result.flags.writeable
    expected = np.arange(64, dtype=np.int64)
    assert np.array_equal(result, expected)
    # Each reply owns its receive buffer: later traffic leaves it intact.
    worker_executor.call(0, "ingest", _points(300, seed=1))
    assert len(worker_executor.call(0, "export_state")["ids"]) == 364
    assert np.array_equal(result, expected)
    worker_executor.call(0, "ingest", np.empty((0, 2)))
    assert worker_executor.call(0, "size") == 364


def test_snapshot_merge_ships_no_ids_and_a_fixed_frame_count(
    worker_executor, monkeypatch
):
    """A ``Q = P`` snapshot sends ``merge_state`` no id array (each shard
    walks its owned cells), and the flat fragment record (six frames)
    and the labelled owned core cells (two) cross the wire as the same
    eight frames however many cells a shard owns; only the frontier
    adds one frame per frontier cell."""
    from repro.shard import transport
    from repro.shard.router import ShardRouter

    requests, replies, frames = [], [], []
    send_call = transport.ParentChannel.send_call
    recv_reply = transport.ParentChannel.recv_reply
    read_payloads = transport.read_payloads

    def spy_send(self, method, args, timeout):
        if method == "merge_state":
            requests.append(args[0])
        return send_call(self, method, args, timeout)

    def spy_read(read_frame, desc):
        frames.append(len(desc))
        return read_payloads(read_frame, desc)

    def spy_recv(self, timeout):
        ok, value = recv_reply(self, timeout)
        if ok and isinstance(value, tuple) and len(value) == 3:
            replies.append((frames[-1], value))
        return ok, value

    monkeypatch.setattr(transport.ParentChannel, "send_call", spy_send)
    monkeypatch.setattr(transport.ParentChannel, "recv_reply", spy_recv)
    monkeypatch.setattr(transport, "read_payloads", spy_read)
    router = ShardRouter(_config(), worker_executor)
    owned_cells = []
    for n, seed in ((150, 0), (2500, 1)):
        router.insert_many(_points(n, seed=seed))
        requests.clear()
        replies.clear()
        router.clusters()
        assert requests == [None, None]
        assert len(replies) == 2
        for count, (fragments, gum, _) in replies:
            assert count == 8 + len(gum.frontier)
            assert isinstance(fragments.members, np.ndarray)
            assert isinstance(gum.labels, np.ndarray)
        owned_cells.append(
            sum(
                len({tuple(c) for c in f.cells.tolist()})
                for _, (f, _, _) in replies
            )
        )
    assert owned_cells[1] > owned_cells[0]
    # A C-group-by ships each shard its owned ids (an empty array for a
    # shard owning none of them) and gets the same eight frames back.
    requests.clear()
    replies.clear()
    router.cgroup_by_many(list(range(0, 2650, 7)))
    assert [type(ids) for ids in requests] == [np.ndarray, np.ndarray]
    assert sum(len(ids) for ids in requests) == len(range(0, 2650, 7))
    for count, (_, gum, _) in replies:
        assert count == 8 + len(gum.frontier)


# ----------------------------------------------------------------------
# Worker death and hangs
# ----------------------------------------------------------------------


def test_worker_death_surfaces_as_repro_error_not_hang(workers):
    executor = workers.open()
    workers.kill(executor, 0)
    with pytest.raises(ShardWorkerLost, match="shard worker 0"):
        # Depending on socket-buffer timing this surfaces at send
        # (connection closed) or at receive (died mid-call); both name
        # the shard.
        for _ in range(3):
            executor.call(0, "ping")
    # The surviving shard is unaffected.
    assert executor.call(1, "ping") == 1


def test_hung_worker_raises_timeout_and_poisons_its_channel(workers):
    # The construction ping is ping #1, so the fault arms on the first
    # user-issued ping.
    executor = workers.open(
        shard_fault_plan="hang:ping:2:shard=0", shard_call_timeout=0.5
    )
    start = time.monotonic()
    with pytest.raises(ShardTimeoutError, match="shard worker 0"):
        executor.call(0, "ping")
    assert time.monotonic() - start < 5.0
    # The poisoned channel refuses further traffic until a restart.
    with pytest.raises(ShardWorkerLost, match="poisoned"):
        executor.call(0, "ping")
    assert executor.call(1, "ping") == 1


def test_close_after_worker_death_is_clean(workers):
    executor = workers.open()
    for index in range(2):
        workers.kill(executor, index)
    executor.close()  # must not raise
    executor.close()  # and stays idempotent
    assert executor._procs == [None, None]


def test_restart_worker_replaces_a_dead_worker(workers):
    executor = workers.open()
    workers.kill(executor, 0)
    with pytest.raises(ReproError, match="shard worker 0"):
        for _ in range(3):
            executor.call(0, "ping")
    assert executor.restart_count(0) == 0
    workers.revive(executor, 0)
    executor.restart_worker(0)
    assert executor.restart_count(0) == 1
    # The fresh worker answers on a fresh, unpoisoned channel; the
    # untouched shard never noticed.
    assert executor.call(0, "ping") == 0
    assert executor.call(1, "ping") == 1


# ----------------------------------------------------------------------
# close() contracts
# ----------------------------------------------------------------------


def test_process_executor_double_close(worker_executor):
    worker_executor.close()
    worker_executor.close()
    # close() releases every Process handle (proc.close()) after the
    # join/terminate/kill escalation, so no zombie or dead handle is
    # retained — the slots are cleared outright.
    assert worker_executor._procs == [None, None]
    assert worker_executor._channels == [None, None]


def test_process_executor_use_after_close_raises(worker_executor):
    worker_executor.close()
    with pytest.raises(ReproError, match="closed"):
        worker_executor.call(0, "ping")
    with pytest.raises(ReproError, match="closed"):
        worker_executor.map([("ping", ()), ("ping", ())])
    with pytest.raises(ReproError, match="closed"):
        worker_executor.restart_worker(0)


def test_failed_construction_raises_and_tears_down(workers):
    # crash:ping:1 kills every worker (or, over tcp, its session) at the
    # construction liveness ping, so __init__ itself fails — and must
    # tear down whatever it already started.
    with pytest.raises(ReproError, match="shard worker"):
        workers.open(shard_fault_plan="crash:ping:1")


def test_serial_executor_close_closes_engines_and_is_idempotent():
    executor = SerialShardExecutor(_config(shard_executor="serial"), 2)
    backends = list(executor._backends)
    assert executor.transport == "inline"
    executor.map([("ping", ()), ("ping", ())])
    executor.close()
    executor.close()
    assert all(backend.engine.closed for backend in backends)


def test_serial_executor_use_after_close_raises():
    executor = SerialShardExecutor(_config(shard_executor="serial"), 2)
    executor.close()
    with pytest.raises(ReproError, match="closed"):
        executor.call(0, "ping")
    with pytest.raises(ReproError, match="closed"):
        executor.map([("ping", ()), None])


def test_sharded_engine_close_reaches_per_shard_engines():
    engine = api.open(
        algorithm="full", eps=3.0, minpts=5, dim=2, shards=2
    )
    backends = list(engine._router.executor._backends)
    engine.ingest(_points(50))
    engine.close()
    assert all(backend.engine.closed for backend in backends)


# ----------------------------------------------------------------------
# Spawned workers: reaping and isolation
# ----------------------------------------------------------------------


def _child_pids() -> set:
    """This process's children, zombies included, but not the
    multiprocessing resource tracker (started once, kept for life)."""
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        ppid = stat[stat.rindex(")") + 2:].split()[1]
        if int(ppid) == os.getpid() and b"resource_tracker" not in cmdline:
            children.add(int(entry))
    return children


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_no_worker_process_outlives_close_crash_or_failed_construction():
    before = _child_pids()
    # close() of a healthy executor.
    executor = ProcessShardExecutor(_config(), 2)
    spawned = {proc.pid for proc in executor._procs}
    assert spawned <= _child_pids()
    executor.close()
    assert _child_pids() == before
    # A worker crash mid-call, then restart and close.
    executor = ProcessShardExecutor(
        _config(shard_fault_plan="crash:ingest:1:shard=0"), 2
    )
    crashed = executor._procs[0].pid
    with pytest.raises(ShardWorkerLost):
        executor.call(0, "ingest", _points(10))
    executor.restart_worker(0)
    assert crashed not in _child_pids()
    executor.close()
    assert _child_pids() == before
    # A crash left unrecovered until close().
    executor = ProcessShardExecutor(
        _config(shard_fault_plan="crash:ingest:1"), 2
    )
    with pytest.raises(ShardWorkerLost):
        executor.map([("ingest", (_points(10),)), ("ingest", (_points(10),))])
    executor.close()
    assert _child_pids() == before
    # A construction that fails at the liveness ping.
    with pytest.raises(ReproError, match="shard worker"):
        ProcessShardExecutor(_config(shard_fault_plan="crash:ping:1"), 2)
    assert _child_pids() == before


def test_close_with_hung_worker_terminates_promptly():
    # After the timeout the channel is poisoned; a close() must escalate
    # terminate -> kill instead of waiting on the graceful join, and
    # still release every handle.
    config = _config(
        shard_fault_plan="hang:ping:2:shard=0", shard_call_timeout=0.5
    )
    executor = ProcessShardExecutor(config, 2)
    with pytest.raises(ShardTimeoutError, match="shard worker 0"):
        executor.call(0, "ping")
    start = time.monotonic()
    executor.close()
    assert time.monotonic() - start < REAP_TIMEOUT + 5.0
    assert executor._procs == [None, None]


def test_spawn_workers_rebuild_state_fresh(monkeypatch):
    monkeypatch.setattr(executors_mod, "WORKER_SENTINEL", "mutated-in-parent")
    executor = ProcessShardExecutor(_config(), 2)
    try:
        infos = executor.map([("runtime_info", ()), ("runtime_info", ())])
        for index, info in enumerate(infos):
            assert info["index"] == index
            assert info["pid"] != os.getpid()
            # spawn re-imports the module in the worker: the parent's
            # mutation must NOT be visible — backends are rebuilt fresh.
            assert info["sentinel"] == "fresh"
    finally:
        executor.close()


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------


def test_transport_stamp_names_one_socket_wire():
    assert _config().resolved_shard_transport == "socket"
    tcp = _config(shard_executor="tcp", shard_workers=["h:1", "h:2"])
    assert tcp.resolved_shard_transport == "socket"
    serial = _config(shard_executor="serial")
    assert serial.resolved_shard_transport == "inline"


def test_fault_tolerance_knobs_require_sharding():
    with pytest.raises(ConfigError, match="requires shards"):
        EngineConfig(eps=3.0, minpts=5, shard_call_timeout=5.0)
    with pytest.raises(ConfigError, match="requires shards"):
        EngineConfig(eps=3.0, minpts=5, shard_max_restarts=1)
    with pytest.raises(ConfigError, match="requires shards"):
        EngineConfig(eps=3.0, minpts=5, shard_fault_plan="crash:ingest:1")


def test_fault_tolerance_knob_values_are_validated():
    with pytest.raises(ConfigError, match="shard_call_timeout"):
        _config(shard_call_timeout=0)
    with pytest.raises(ConfigError, match="shard_call_timeout"):
        _config(shard_call_timeout=float("inf"))
    with pytest.raises(ConfigError, match="shard_max_restarts"):
        _config(shard_max_restarts=-1)
    with pytest.raises(ConfigError, match="shard_max_restarts"):
        _config(shard_max_restarts=1.5)
    with pytest.raises(ConfigError, match="process"):
        _config(shard_executor="serial", shard_fault_plan="crash:ingest:1")
    with pytest.raises(ConfigError, match="fault kind"):
        _config(shard_fault_plan="teleport:ingest:1")
    with pytest.raises(ConfigError, match="call index"):
        _config(shard_fault_plan="crash:ingest:0")


def test_call_timeout_resolution_chain(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_CALL_TIMEOUT", raising=False)
    assert _config().resolved_shard_call_timeout == 60.0
    assert _config(shard_call_timeout=2.5).resolved_shard_call_timeout == 2.5
    monkeypatch.setenv("REPRO_SHARD_CALL_TIMEOUT", "12")
    assert _config().resolved_shard_call_timeout == 12.0
    # Explicit knob beats the environment.
    assert _config(shard_call_timeout=2.5).resolved_shard_call_timeout == 2.5
    monkeypatch.setenv("REPRO_SHARD_CALL_TIMEOUT", "-3")
    with pytest.raises(ConfigError, match="REPRO_SHARD_CALL_TIMEOUT"):
        _config().resolved_shard_call_timeout
    monkeypatch.setenv("REPRO_SHARD_CALL_TIMEOUT", "soon")
    with pytest.raises(ConfigError, match="REPRO_SHARD_CALL_TIMEOUT"):
        _config().resolved_shard_call_timeout


def test_max_restarts_resolution_chain(monkeypatch):
    monkeypatch.delenv("REPRO_SHARD_MAX_RESTARTS", raising=False)
    assert _config().resolved_shard_max_restarts == 3
    assert _config(shard_max_restarts=0).resolved_shard_max_restarts == 0
    monkeypatch.setenv("REPRO_SHARD_MAX_RESTARTS", "7")
    assert _config().resolved_shard_max_restarts == 7
    assert _config(shard_max_restarts=1).resolved_shard_max_restarts == 1
    monkeypatch.setenv("REPRO_SHARD_MAX_RESTARTS", "many")
    with pytest.raises(ConfigError, match="REPRO_SHARD_MAX_RESTARTS"):
        _config().resolved_shard_max_restarts


def test_fault_plan_resolution_chain(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    assert _config().resolved_shard_fault_plan is None
    plan = "crash:ingest:1"
    assert _config(shard_fault_plan=plan).resolved_shard_fault_plan == plan
    monkeypatch.setenv("REPRO_FAULT_PLAN", "hang:ping:1")
    assert _config().resolved_shard_fault_plan == "hang:ping:1"
    assert _config(shard_fault_plan=plan).resolved_shard_fault_plan == plan
    # The serial executor has no worker processes to inject into.
    serial = _config(shard_executor="serial")
    assert serial.resolved_shard_fault_plan is None
    monkeypatch.setenv("REPRO_FAULT_PLAN", "bogus")
    with pytest.raises(ConfigError, match="REPRO_FAULT_PLAN"):
        _config().resolved_shard_fault_plan
