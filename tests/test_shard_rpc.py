"""The shard wire and the distributed TCP executor.

Four layers of proof for :mod:`repro.shard.transport` and
:mod:`repro.shard.rpc` (the executor-level failure modes of both
worker executors live in ``tests/test_shard_executors.py``):

* **Framing units** — the length-prefixed control/payload split round-
  trips arbitrary dtypes and shapes over a real socket pair, arrays are
  never pickled, and received arrays are read-only buffers that outlive
  the next call.
* **Local worker launching** — a parent that imported ``repro`` only
  through ``sys.path`` launches workers that find it too, and a worker
  that cannot start says why.
* **Chaos over real sockets** — an injected crash aborts only the
  serving session and the supervisor reconnects + replays to a
  bit-identical deployment; a genuinely killed worker process is
  respawned *on the same port* and recovered the same way; a hung
  worker surfaces as :class:`ShardTimeoutError` and recovers.
* **The journal bound** — under a long update stream the supervisor's
  per-shard journal never reaches ``shard_journal_snapshot_every``:
  truncation snapshots drain it, and snapshot-plus-suffix recovery is
  exercised against the differential oracle.

Worker processes are real ``python -m repro shard-worker`` subprocesses
(via :func:`repro.shard.rpc.local_workers`), so these tests cover the
CLI entry point too.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.api.config import EngineConfig
from repro.errors import (
    ConfigError,
    ReproError,
    ShardTimeoutError,
    StaleOwnershipError,
)
from repro.shard.executors import SerialShardExecutor, ShardWorkerLost
from repro.shard.rpc import (
    TcpShardExecutor,
    local_workers,
    spawn_worker_process,
    terminate_worker_process,
)
from repro.shard.supervisor import ShardSupervisor
from repro.shard.transport import read_message, write_message

SRC = Path(__file__).resolve().parents[1] / "src"

BASE = dict(algorithm="full", eps=3.0, minpts=5, dim=2)


def _points(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, 50.0, size=(n, 2))


def _open_tcp(addresses, **knobs):
    opts = dict(
        BASE, shards=len(addresses), shard_executor="tcp",
        shard_workers=list(addresses),
    )
    opts.update(knobs)
    return api.open(**opts)


def _snap_canon(snapshot):
    return [sorted(map(sorted, snapshot.clusters)), sorted(snapshot.noise)]


# ----------------------------------------------------------------------
# Wire framing (no worker processes)
# ----------------------------------------------------------------------


def test_wire_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        arrays = [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([], dtype=np.int64),
            np.arange(5, dtype=np.int32),
        ]
        header = ("call", "ingest", ("control", {"k": 1}))
        write_message(left, header, arrays)
        got_header, views = read_message(right)
        assert got_header == header
        assert len(views) == len(arrays)
        for view, arr in zip(views, arrays):
            assert view.dtype == arr.dtype
            assert view.shape == arr.shape
            assert np.array_equal(view, arr)
            assert not view.flags.writeable
        # The views own their buffers: still valid after more traffic.
        write_message(left, ("ok", None), [])
        read_message(right)
        assert np.array_equal(views[0], arrays[0])
    finally:
        left.close()
        right.close()


def test_wire_carries_many_arrays_and_payloads_beyond_the_socket_buffer():
    # Many small frames, then one frame larger than the socket buffer,
    # written with a timeout set (as every executor send is), so the
    # writer must block on a reader that drains the stream concurrently.
    left, right = socket.socketpair()
    left.settimeout(30)
    try:
        rng = np.random.default_rng(0)
        arrays = [np.arange(i % 7, dtype=np.int64) for i in range(1500)]
        arrays.append(rng.uniform(size=(400_000, 3)))
        received = []
        reader = threading.Thread(
            target=lambda: received.append(read_message(right))
        )
        reader.start()
        assert write_message(left, ("ok", None), arrays) == sum(
            arr.nbytes for arr in arrays
        )
        reader.join(timeout=30)
        (header, views), = received
        assert header == ("ok", None)
        assert len(views) == len(arrays)
        for view, arr in zip(views, arrays):
            assert np.array_equal(view, arr)
    finally:
        left.close()
        right.close()


def test_wire_eof_mid_message_raises_eoferror():
    left, right = socket.socketpair()
    try:
        import struct

        left.sendall(struct.pack(">Q", 100) + b"partial")
        left.close()
        with pytest.raises(EOFError):
            read_message(right)
    finally:
        right.close()


def test_connect_failure_names_the_entry_point(monkeypatch):
    """An unreachable worker fails within the startup deadline with a
    message telling the operator what to launch."""
    monkeypatch.setattr("repro.shard.executors.STARTUP_TIMEOUT_FLOOR", 0.3)
    # Bind-and-close to get a localhost port that refuses connections.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    config = EngineConfig(
        **BASE, shards=1, shard_executor="tcp",
        shard_workers=[f"127.0.0.1:{port}"],
    )
    with pytest.raises(ShardWorkerLost, match="shard-worker"):
        TcpShardExecutor(config, 1)


def test_worker_address_validation():
    for bad in ("no-port", ":7171", "host:", "host:0", "host:70000", "h:x"):
        with pytest.raises(ConfigError):
            EngineConfig(
                **BASE, shards=1, shard_executor="tcp", shard_workers=[bad]
            )
    with pytest.raises(ConfigError, match="one worker address per shard"):
        EngineConfig(
            **BASE, shards=2, shard_executor="tcp",
            shard_workers=["a:1", "b:2", "c:3"],
        )
    with pytest.raises(ConfigError, match="requires shards"):
        EngineConfig(**BASE, shard_workers=["a:1"])  # no shards at all
    with pytest.raises(ConfigError, match="tcp"):
        EngineConfig(**BASE, shards=1, shard_workers=["a:1"])  # serial


def test_stale_version_rejected_by_backend():
    """Version discipline is executor-independent: a serial deployment
    rejects a call stamped with a non-current table version."""
    engine = api.open(**BASE, shards=2)
    try:
        engine.ingest(_points(40))
        executor = engine.raw.executor
        with pytest.raises(StaleOwnershipError, match="version"):
            executor.call(
                0, "merge_state", None, engine.raw.ownership_version + 1
            )
    finally:
        engine.close()


# ----------------------------------------------------------------------
# Local worker launching
# ----------------------------------------------------------------------


def test_local_workers_launch_from_a_sys_path_import(tmp_path):
    """A parent that found ``repro`` through ``sys.path`` alone (no
    ``PYTHONPATH``, nothing installed) launches workers that find it."""
    script = tmp_path / "launch.py"
    script.write_text(textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        import repro.api as api
        from repro.shard.rpc import local_workers

        with local_workers(1) as addresses:
            engine = api.open(
                algorithm="full", eps=3.0, minpts=5, dim=2, shards=1,
                shard_executor="tcp", shard_workers=addresses,
            )
            print(engine.ingest([[0.0, 0.0], [1.0, 0.0]]))
            engine.close()
    """))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "[0, 1]"


def test_worker_launch_failure_carries_the_workers_output():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    try:
        with pytest.raises(ReproError, match="Address already in use"):
            spawn_worker_process(port=blocker.getsockname()[1])
    finally:
        blocker.close()


# ----------------------------------------------------------------------
# Chaos over real sockets
# ----------------------------------------------------------------------


def test_injected_crash_aborts_session_and_recovers_bit_identically():
    """The tcp twin of the process-executor flagship differential: both
    workers' sessions are crash-aborted mid-run, the supervisor
    reconnects to the surviving listeners and replays, and nothing
    distinguishes the recovered deployment from an engine that never
    failed."""
    pts = _points(120, seed=42)
    single = api.open(**BASE)
    with local_workers(2) as addresses:
        sharded = _open_tcp(addresses, shard_fault_plan="crash:ingest:2")
        try:
            s_ids = single.ingest(pts[:60])
            g_ids = sharded.ingest(pts[:60])
            single.delete_many(s_ids[:10])
            sharded.delete_many(g_ids[:10])
            s_ids2 = single.ingest(pts[60:])
            g_ids2 = sharded.ingest(pts[60:])
            assert sharded.restarts >= 1
            live_s = s_ids[10:] + s_ids2
            live_g = g_ids[10:] + g_ids2
            assert (
                single.cgroup_by(live_s).result
                == sharded.cgroup_by(live_g).result
            )
            assert _snap_canon(single.snapshot().clustering) == _snap_canon(
                sharded.snapshot().clustering
            )
        finally:
            sharded.close()
            single.close()


def test_killed_worker_respawned_on_same_port_is_replayed():
    """A genuinely dead worker process (SIGKILL, not an injected
    fault): respawning it on the same address and issuing the next call
    reconnects, restores the snapshot, replays the journal suffix, and
    stays bit-identical."""
    pts = _points(100, seed=5)
    single = api.open(**BASE)
    proc0, addr0 = spawn_worker_process()
    proc1, addr1 = spawn_worker_process()
    port0 = int(addr0.rsplit(":", 1)[1])
    sharded = None
    try:
        sharded = _open_tcp(
            [addr0, addr1], shard_journal_snapshot_every=2
        )
        s_ids = single.ingest(pts[:50])
        g_ids = sharded.ingest(pts[:50])
        single.delete_many(s_ids[::5])
        sharded.delete_many(g_ids[::5])
        single.ingest(pts[50:80])
        sharded.ingest(pts[50:80])  # 3 mutations: snapshot + suffix exist
        supervisor = sharded.raw.executor
        assert supervisor.has_snapshot(0)
        proc0.kill()
        proc0.wait()
        # The platform brings the worker back on the same address...
        proc0 = spawn_worker_process(port=port0)[0]
        # ...and the next touch of shard 0 recovers through it.
        single.ingest(pts[80:])
        sharded.ingest(pts[80:])
        assert sharded.restarts >= 1
        assert _snap_canon(single.snapshot().clustering) == _snap_canon(
            sharded.snapshot().clustering
        )
        assert len(single) == len(sharded)
    finally:
        if sharded is not None:
            sharded.close()
        single.close()
        terminate_worker_process(proc0)
        terminate_worker_process(proc1)


def test_hung_tcp_worker_times_out_and_recovers():
    """A hang on the remote side surfaces as ShardTimeoutError within
    the deadline; once the worker comes back (the finite hang models an
    external supervisor clearing it), reconnection replays exactly."""
    pts = _points(90, seed=9)
    single = api.open(**BASE)
    with local_workers(2) as addresses:
        sharded = _open_tcp(
            addresses,
            shard_fault_plan="hang:ingest:1:shard=0:seconds=2.5",
            shard_call_timeout=0.75,
        )
        try:
            s_ids = single.ingest(pts)
            g_ids = sharded.ingest(pts)
            assert sharded.restarts >= 1
            assert (
                single.cgroup_by(s_ids).result
                == sharded.cgroup_by(g_ids).result
            )
        finally:
            sharded.close()
            single.close()


def test_rebalance_over_tcp_is_bit_identical():
    """One online rebalance mid-workload over real sockets: transfer,
    broadcast, flip — and the clustering cannot tell."""
    pts = _points(140, seed=11)
    single = api.open(**BASE)
    with local_workers(2) as addresses:
        sharded = _open_tcp(addresses)
        try:
            s_ids = single.ingest(pts[:70])
            g_ids = sharded.ingest(pts[:70])
            router = sharded.raw
            block = router.topology.block_of(
                router._grid.cell_of(tuple(pts[0]))
            )
            owner = router.topology.owner_of_block(block)
            version = sharded.rebalance(block, (owner + 1) % 2)
            assert version == sharded.ownership_version == 1
            assert router.topology.owner_of_block(block) == (owner + 1) % 2
            single.delete_many(s_ids[:20])
            sharded.delete_many(g_ids[:20])
            single.ingest(pts[70:])
            sharded.ingest(pts[70:])
            assert _snap_canon(single.snapshot().clustering) == _snap_canon(
                sharded.snapshot().clustering
            )
        finally:
            sharded.close()
            single.close()


# ----------------------------------------------------------------------
# The journal bound
# ----------------------------------------------------------------------


def test_supervisor_journal_truncation_unit():
    """Deterministic, in-process: the journal never reaches the knob,
    snapshots capture the drained prefix, and recovery from
    snapshot-plus-suffix rebuilds the exact backend state."""
    config = EngineConfig(
        **BASE, shards=2, shard_journal_snapshot_every=3
    )
    supervisor = ShardSupervisor(SerialShardExecutor(config, 2), config)
    try:
        rng = np.random.default_rng(3)
        version = 0
        for i in range(8):
            batch = rng.uniform(0.0, 50.0, size=(6, 2))
            supervisor.call(0, "ingest", batch, version)
            # The bound is <= : hitting the threshold schedules the
            # snapshot for the next dispatch rather than taking it
            # while this call's reply views are still live.
            assert supervisor.journal_size(0) <= 3
        assert supervisor.has_snapshot(0)
        assert supervisor.snapshot_epoch(0) is not None
        before = supervisor.call(0, "export_state")
        before = {
            k: (np.array(v, copy=True) if isinstance(v, np.ndarray) else v)
            for k, v in before.items()
        }
        # Simulate a death: fresh backend, then recover through the
        # snapshot + suffix path.
        supervisor._recover(0, ReproError("injected death"))
        after = supervisor.call(0, "export_state")
        assert np.array_equal(before["points"], after["points"])
        assert np.array_equal(before["local_ids"], after["local_ids"])
        assert before["next_local"] == after["next_local"]
        assert before["epoch"] == after["epoch"]
        assert before["version"] == after["version"]
    finally:
        supervisor.close()


def test_journal_stays_bounded_under_update_stream():
    """The leak fix, end to end over tcp: a long mixed update stream
    (REPRO_JOURNAL_OPS points, default 600; CI runs 10000) keeps every
    shard's journal strictly under the knob, and the final clustering
    matches the single-engine oracle."""
    total = int(os.environ.get("REPRO_JOURNAL_OPS", "600"))
    every = 16
    rng = np.random.default_rng(17)
    single = api.open(**BASE)
    with local_workers(1) as addresses:
        sharded = _open_tcp(
            addresses, shard_journal_snapshot_every=every
        )
        try:
            supervisor = sharded.raw.executor
            live_s: list = []
            live_g: list = []
            streamed = 0
            while streamed < total:
                n = min(25, total - streamed)
                batch = rng.uniform(0.0, 50.0, size=(n, 2))
                live_s.extend(single.ingest(batch))
                live_g.extend(sharded.ingest(batch))
                streamed += n
                if len(live_s) > 150:
                    single.delete_many(live_s[:40])
                    sharded.delete_many(live_g[:40])
                    del live_s[:40], live_g[:40]
                assert supervisor.journal_size(0) <= every
            assert supervisor.has_snapshot(0), (
                "the stream never triggered a truncation snapshot"
            )
            assert _snap_canon(single.snapshot().clustering) == _snap_canon(
                sharded.snapshot().clustering
            )
        finally:
            sharded.close()
            single.close()
