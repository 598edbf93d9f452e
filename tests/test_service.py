"""The streaming cluster-analytics service (:mod:`repro.service`).

Four contracts are pinned here:

* **Differential correctness** — a scripted multi-session run of mixed
  ingest/delete/cgroup_by ops with interleaved barriers produces
  responses bit-identical at ``rho = 0`` to driving the same op
  sequence against a direct :class:`repro.api.Engine`, for both the
  unsharded and the ``shards=4`` backend (the acceptance criterion).
* **Backpressure** — admission control and bounded queues reject with
  429s, and a stalled client is aborted at the write-buffer ceiling
  instead of growing service memory without bound.
* **Graceful drain** — shutdown answers every admitted op and flushes
  every session's buffered ingest; acked ops are never lost.
* **Protocol** — malformed requests get 400s, engine errors map to
  their HTTP-style codes, epochs are echoed monotonically.

Every test drives a real ``asyncio.start_server`` socket on an
ephemeral port, under asyncio debug mode with a hard per-test deadline
(a deadlocked service fails loudly instead of hanging the suite).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import sys
from contextlib import asynccontextmanager
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

import repro.api as api
from repro.analysis.window import WindowedEngine
from repro.errors import ConfigError, ReproError, UnsupportedOperationError
from repro.service import (
    ClusterService,
    ServiceClient,
    ServiceError,
    ServiceLimits,
    protocol,
)

from conftest import clustered_points

EPS = 2.0
MINPTS = 3
TIMEOUT = 60.0


def run_async(coro, timeout: float = TIMEOUT):
    """Drive one service-test coroutine to completion.

    Always under asyncio debug mode and a hard deadline — the same
    posture the CI service leg runs the suite with.
    """

    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    return asyncio.run(bounded(), debug=True)


def open_engine(shards=None, **overrides):
    knobs: Dict[str, Any] = dict(
        algorithm="full", eps=EPS, minpts=MINPTS, rho=0.0, dim=2
    )
    if shards:
        knobs.update(shards=shards, shard_executor="serial")
    knobs.update(overrides)
    return api.open(**knobs)


@asynccontextmanager
async def serving(engine, **kwargs):
    service = ClusterService(engine, **kwargs)
    await service.start("127.0.0.1", 0)
    try:
        yield service
    finally:
        await service.aclose()


async def connect(service: ClusterService) -> ServiceClient:
    host, port = service.address
    return await ServiceClient.connect(host, port)


async def raw_connect(service: ClusterService):
    host, port = service.address
    return await asyncio.open_connection(host, port)


# ----------------------------------------------------------------------
# Differential harness (the acceptance criterion)
# ----------------------------------------------------------------------

Step = Tuple[int, str, Dict[str, Any]]


def scripted_steps(seed: int, clients: int = 3, rounds: int = 24) -> List[Step]:
    """A deterministic multi-session mixed op script.

    Each step is ``(client_index, op, params)``.  Point ids are
    predicted with a sequential counter — sound because the driver
    round-robins clients and awaits every response, so the global op
    order (and hence id assignment at ``rho = 0``) is fixed.
    """
    rng = random.Random(seed)
    pool = clustered_points(rounds * 6, 2, seed=seed)
    cursor = 0
    next_id = 0
    live: List[int] = []
    steps: List[Step] = []
    for round_no in range(rounds):
        client = round_no % clients
        choice = rng.random()
        if choice < 0.45 or len(live) < 4:
            count = rng.randint(2, 6)
            batch = [list(p) for p in pool[cursor : cursor + count]]
            cursor += count
            steps.append((client, "ingest", {"points": batch}))
            live.extend(range(next_id, next_id + len(batch)))
            next_id += len(batch)
        elif choice < 0.60:
            victims = rng.sample(live, rng.randint(1, min(3, len(live))))
            for pid in victims:
                live.remove(pid)
            steps.append((client, "delete", {"pids": victims}))
        elif choice < 0.85:
            pids = rng.sample(live, rng.randint(1, min(8, len(live))))
            steps.append((client, "cgroup_by", {"pids": pids}))
        elif choice < 0.95:
            steps.append((client, "snapshot", {}))
        else:
            steps.append((client, "flush", {}))
    steps.append((0, "snapshot", {}))
    return steps


async def drive_service(engine, steps: List[Step], clients: int = 3):
    """Run the script over real sockets; one response dict per step."""
    responses = []
    async with serving(engine) as service:
        conns = [await connect(service) for _ in range(clients)]
        try:
            for client, op, params in steps:
                response = await conns[client].call(op, **params)
                response.pop("id")
                response.pop("ok")
                responses.append(response)
        finally:
            for conn in conns:
                await conn.aclose()
    return responses


def drive_reference(engine, steps: List[Step]):
    """The same op sequence against a direct engine, same payloads.

    Uses the service's own payload builders, so "bit-identical" is
    checked through one serialization.
    """
    responses = []
    for _client, op, params in steps:
        if op == "ingest":
            pids = engine.ingest(params["points"])
            responses.append({"pids": pids})
        elif op == "delete":
            engine.delete_many(params["pids"])
            responses.append({"deleted": len(params["pids"])})
        elif op == "cgroup_by":
            outcome = engine.cgroup_by_many(params["pids"])
            responses.append(protocol.outcome_payload(outcome))
        elif op == "flush":
            # flush is per-session: it applies the *caller's* buffered
            # updates, not other sessions', so only `pending` is
            # deterministic here.  Query epochs (below) barrier the
            # whole service and stay bit-comparable.
            responses.append({"pending": 0})
        else:
            responses.append(protocol.snapshot_payload(engine.snapshot()))
    return responses


class TestDifferential:
    @pytest.mark.parametrize("shards", [None, 4], ids=["unsharded", "shards4"])
    def test_multi_session_bit_identical_rho0(self, shards):
        """The acceptance differential: service == direct engine."""
        steps = scripted_steps(seed=11)
        service_engine = open_engine(shards=shards)
        reference = open_engine()
        try:
            got = run_async(drive_service(service_engine, steps))
            want = drive_reference(reference, steps)
            assert len(got) == len(want)
            for step, (response, expected) in enumerate(zip(got, want)):
                for key, value in expected.items():
                    assert response[key] == value, (
                        f"step {step} ({steps[step][1]}): field {key!r} "
                        f"diverged"
                    )
        finally:
            service_engine.close()
            reference.close()

    @pytest.mark.parametrize("shards", [None, 2], ids=["unsharded", "shards2"])
    def test_snapshot_response_carries_the_snapshot_lists(self, shards):
        """The wire snapshot is a direct snapshot's lists, as they are."""
        points = clustered_points(120, 2, seed=5)
        dead = list(range(0, 120, 7))
        service_engine = open_engine(shards=shards)
        reference = open_engine()

        async def scenario():
            async with serving(service_engine) as service:
                client = await connect(service)
                await client.ingest(points)
                await client.delete(dead)
                response = await client.snapshot()
                await client.aclose()
            return response

        try:
            got = run_async(scenario())
            reference.ingest(points)
            reference.delete_many(dead)
            want = reference.snapshot()
            assert len(want.clusters) >= 2 and want.noise
            assert got["clusters"] == want.clusters
            assert got["noise"] == want.noise
        finally:
            service_engine.close()
            reference.close()

    def test_cross_session_barrier_visibility(self):
        """A query on session B observes session A's acked ingest."""
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                a = await connect(service)
                b = await connect(service)
                acked = await a.ingest([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
                outcome = await b.cgroup_by(acked["pids"])
                assert outcome["groups"] == [acked["pids"]]
                assert outcome["epoch"] == 3
                await a.aclose()
                await b.aclose()

        run_async(scenario())
        engine.close()

    def test_epochs_monotonic_across_sessions(self):
        engine = open_engine()

        async def scenario():
            epochs = []
            async with serving(engine) as service:
                conns = [await connect(service) for _ in range(2)]
                for i in range(8):
                    conn = conns[i % 2]
                    acked = await conn.ingest([[float(i), 0.0]])
                    await conn.cgroup_by(acked["pids"])
                    flushed = await conn.flush()
                    epochs.append(flushed["epoch"])
                for conn in conns:
                    await conn.aclose()
            assert epochs == sorted(epochs)
            assert epochs[-1] == 8

        run_async(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Backpressure and admission control
# ----------------------------------------------------------------------


class TestBackpressure:
    def test_session_limit_rejects_connection(self):
        engine = open_engine()

        async def scenario():
            limits = ServiceLimits(max_sessions=1)
            async with serving(engine, limits=limits) as service:
                first = await connect(service)
                await first.ping()
                reader, writer = await raw_connect(service)
                line = await reader.readline()
                response = json.loads(line)
                assert response["ok"] is False
                assert response["error"]["code"] == protocol.BACKPRESSURE
                assert await reader.readline() == b""  # hung up
                assert service.stats.sessions_rejected == 1
                writer.close()
                await writer.wait_closed()
                await first.aclose()

        run_async(scenario())
        engine.close()

    def test_queue_depth_rejects_burst_with_429(self):
        """A one-chunk burst overruns a depth-1 queue: 429s, not memory."""
        engine = open_engine()

        async def scenario():
            limits = ServiceLimits(queue_depth=1)
            async with serving(engine, limits=limits) as service:
                reader, writer = await raw_connect(service)
                burst_size = 64
                writer.write(
                    b"".join(
                        protocol.encode({"id": i, "op": "ping"})
                        for i in range(burst_size)
                    )
                )
                await writer.drain()
                accepted = rejected = 0
                for _ in range(burst_size):
                    response = json.loads(await reader.readline())
                    if response["ok"]:
                        accepted += 1
                    else:
                        assert (
                            response["error"]["code"] == protocol.BACKPRESSURE
                        )
                        rejected += 1
                assert accepted + rejected == burst_size
                assert accepted >= 1, "first op of the burst must land"
                assert rejected >= 1, "a depth-1 queue must shed the burst"
                assert service.stats.ops_rejected == rejected
                assert service.stats.ops_accepted == accepted
                writer.close()
                await writer.wait_closed()

        run_async(scenario())
        engine.close()

    def test_global_inflight_ceiling(self):
        engine = open_engine()

        async def scenario():
            limits = ServiceLimits(queue_depth=32, max_inflight=1)
            async with serving(engine, limits=limits) as service:
                reader, writer = await raw_connect(service)
                writer.write(
                    b"".join(
                        protocol.encode({"id": i, "op": "ping"})
                        for i in range(32)
                    )
                )
                await writer.drain()
                codes = []
                for _ in range(32):
                    response = json.loads(await reader.readline())
                    codes.append(
                        None
                        if response["ok"]
                        else response["error"]["code"]
                    )
                assert codes.count(None) >= 1
                assert protocol.BACKPRESSURE in codes
                writer.close()
                await writer.wait_closed()

        run_async(scenario())
        engine.close()

    def test_stalled_client_is_aborted_not_buffered(self):
        """The bounded-memory contract: a client that stops reading is
        aborted once its write buffer passes the ceiling."""
        engine = open_engine()

        async def scenario():
            limits = ServiceLimits(max_write_buffer=256 * 1024)
            async with serving(engine, limits=limits) as service:
                reader, writer = await raw_connect(service)
                # Each ping echoes its 64KB payload; the client never
                # reads, so responses pile up on the server side:
                # kernel buffers fill first, then the transport buffer
                # crosses the ceiling and the session is aborted.  The
                # 1024-iteration cap (~64MB of echo) is far beyond any
                # kernel buffering — reaching it means the service
                # buffered unboundedly, which is exactly the bug.
                payload = "x" * 65536
                for i in range(1024):
                    if service.stats.sessions_aborted:
                        break
                    try:
                        writer.write(
                            protocol.encode(
                                {"id": i, "op": "ping", "payload": payload}
                            )
                        )
                        await writer.drain()
                    except (ConnectionError, OSError):
                        break
                    await asyncio.sleep(0)
                while service.stats.sessions_aborted == 0:
                    await asyncio.sleep(0.01)
                assert service.stats.sessions_aborted == 1
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        run_async(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


class TestDrain:
    def test_drain_flushes_every_buffered_session(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                conns = [await connect(service) for _ in range(3)]
                for i, conn in enumerate(conns):
                    acked = await conn.ingest(
                        [[float(i), float(j)] for j in range(4)]
                    )
                    assert len(acked["pids"]) == 4
                # The active-writer token flushes each previous writer
                # when the next one buffers: only the last session may
                # still hold a buffer here.
                assert len(engine) >= 8
                await service.aclose()
                assert service.stats.drained_sessions == 3
                assert service.stats.failed_drains == 0
                # No lost acked ops: every acked ingest reached the
                # engine.
                assert len(engine) == 12
                # Drained connections are hung up.
                for conn in conns:
                    with pytest.raises(ReproError):
                        await conn.ping()
                for conn in conns:
                    await conn.aclose()

        run_async(scenario())
        engine.close()

    def test_drain_answers_queued_ops_before_closing(self):
        """Every admitted op is executed and answered during drain."""
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                reader, writer = await raw_connect(service)
                burst = 10
                writer.write(
                    b"".join(
                        protocol.encode(
                            {
                                "id": i,
                                "op": "ingest",
                                "points": [[float(i), 0.0]],
                            }
                        )
                        for i in range(burst)
                    )
                )
                await writer.drain()
                # Let the reader admit (or reject) the burst, then
                # drain concurrently with the worker.
                await asyncio.sleep(0)
                await service.aclose()
                acked = rejected = 0
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    response = json.loads(line)
                    if response["ok"]:
                        acked += 1
                    else:
                        rejected += 1
                assert acked + rejected == burst
                # The consistency core: engine state is exactly the
                # acked ops — nothing lost, nothing extra.
                assert len(engine) == acked
                writer.close()
                await writer.wait_closed()

        run_async(scenario())
        engine.close()

    def test_drained_service_refuses_new_connections(self):
        engine = open_engine()

        async def scenario():
            service = ClusterService(engine)
            await service.start("127.0.0.1", 0)
            host, port = service.address
            client = await connect(service)
            await client.ping()
            await service.aclose()
            # The listening socket is gone: new connections are
            # refused at the TCP level, not queued behind the drain.
            assert service.address is None
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(host, port)
            await client.aclose()

        run_async(scenario())
        engine.close()

    def test_aclose_is_idempotent(self):
        engine = open_engine()

        async def scenario():
            service = ClusterService(engine)
            await service.start("127.0.0.1", 0)
            await service.aclose()
            await service.aclose()

        run_async(scenario())
        engine.close()

    def test_bye_flushes_before_hangup(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                client = await connect(service)
                await client.ingest([[0.0, 0.0], [1.0, 1.0]])
                farewell = await client.bye()
                assert farewell["bye"] is True
                # The normal end-of-connection path flushes buffered
                # ingest even though the client never queried.
                while len(engine) < 2:
                    await asyncio.sleep(0.01)
                await client.aclose()

        run_async(scenario())
        assert len(engine) == 2
        engine.close()

    def test_sigint_while_sessions_close_drains_cleanly(self):
        """SIGINT right after clients hang up catches their handlers
        mid-close; the drain must wait for them, so the server logs no
        traceback and reports a clean drain — every time."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))

        async def one_run():
            proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--eps", str(EPS), "--minpts", str(MINPTS),
                stdout=asyncio.subprocess.PIPE,
                stderr=asyncio.subprocess.PIPE, env=env,
            )
            try:
                line = await proc.stdout.readline()
                host, port = re.search(
                    rb"serving on ([\d.]+):(\d+)", line
                ).groups()
                clients = [
                    await ServiceClient.connect(host.decode(), int(port))
                    for _ in range(3)
                ]
                for client in clients:
                    await client.ingest([[0.0, 0.0], [0.5, 0.5]])
                for client in clients:
                    await client.aclose()
                proc.send_signal(signal.SIGINT)
                out, err = await proc.communicate()
            finally:
                if proc.returncode is None:
                    proc.kill()
                    await proc.wait()
            return proc.returncode, out.decode(), err.decode()

        for attempt in range(10):
            code, out, err = run_async(one_run())
            assert "Traceback" not in err and "CancelledError" not in err, (
                attempt, err)
            assert code == 0, (attempt, err)
            assert re.search(
                r"drained \d+ session\(s\) \(0 failed\);.* 0 failed$",
                out.strip(),
            ), (attempt, out)


# ----------------------------------------------------------------------
# Sliding-window mode
# ----------------------------------------------------------------------


class TestWindowedService:
    def test_window_append_expires_oldest(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine, window_capacity=5) as service:
                client = await connect(service)
                first = await client.window_append(
                    [[float(i), 0.0] for i in range(3)]
                )
                assert first["pids"] == [0, 1, 2]
                assert first["expired"] == []
                assert first["window_size"] == 3
                second = await client.window_append(
                    [[float(i), 1.0] for i in range(4)]
                )
                assert second["pids"] == [3, 4, 5, 6]
                assert second["expired"] == [0, 1]
                assert second["window_size"] == 5
                stats = await client.stats()
                assert stats["window_size"] == 5
                assert stats["window_capacity"] == 5
                await client.aclose()

        run_async(scenario())
        engine.close()

    def test_windowed_mode_rejects_raw_updates(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine, window_capacity=4) as service:
                client = await connect(service)
                for op in ("ingest", "delete"):
                    with pytest.raises(ServiceError) as failure:
                        if op == "ingest":
                            await client.ingest([[0.0, 0.0]])
                        else:
                            await client.delete([0])
                    assert failure.value.code == protocol.UNSUPPORTED
                await client.aclose()

        run_async(scenario())
        engine.close()

    def test_window_append_requires_windowed_deployment(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                client = await connect(service)
                with pytest.raises(ServiceError) as failure:
                    await client.window_append([[0.0, 0.0]])
                assert failure.value.code == protocol.UNSUPPORTED
                await client.aclose()

        run_async(scenario())
        engine.close()

    def test_windowed_service_differential_vs_direct_window(self):
        """Windowed service responses == a direct WindowedEngine."""
        service_engine = open_engine()
        reference = WindowedEngine(open_engine(), 6)
        batches = [
            [[float(i), float(tick)] for i in range(3)] for tick in range(5)
        ]

        async def scenario():
            collected = []
            async with serving(service_engine, window_capacity=6) as service:
                client = await connect(service)
                for batch in batches:
                    appended = await client.window_append(batch)
                    snapshot = await client.snapshot()
                    collected.append((appended, snapshot))
                await client.aclose()
            return collected

        got = run_async(scenario())
        for batch, (appended, snapshot) in zip(batches, got):
            pids, expired = reference.append_many(batch)
            assert appended["pids"] == pids
            assert appended["expired"] == expired
            assert appended["window_size"] == len(reference)
            expected = protocol.snapshot_payload(reference.snapshot())
            for key, value in expected.items():
                assert snapshot[key] == value
        service_engine.close()
        reference.engine.close()

    def test_windowed_service_rejects_insert_only_engine(self):
        engine = api.open(algorithm="semi", eps=EPS, minpts=MINPTS, dim=2)
        with pytest.raises(UnsupportedOperationError):
            ClusterService(engine, window_capacity=4)
        engine.close()


# ----------------------------------------------------------------------
# Protocol and error mapping
# ----------------------------------------------------------------------


class TestProtocol:
    def _expect_error(self, engine, lines: List[bytes], code: int):
        async def scenario():
            async with serving(engine) as service:
                reader, writer = await raw_connect(service)
                for line in lines:
                    writer.write(line)
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == code
                writer.close()
                await writer.wait_closed()

        run_async(scenario())

    def test_not_json_is_400(self):
        engine = open_engine()
        self._expect_error(engine, [b"this is not json\n"], protocol.BAD_REQUEST)
        engine.close()

    def test_unknown_op_is_400(self):
        engine = open_engine()
        self._expect_error(
            engine, [b'{"op": "explode"}\n'], protocol.BAD_REQUEST
        )
        engine.close()

    def test_wrong_dim_point_is_400(self):
        engine = open_engine()
        self._expect_error(
            engine,
            [b'{"id": 1, "op": "ingest", "points": [[1.0]]}\n'],
            protocol.BAD_REQUEST,
        )
        engine.close()

    def test_non_finite_coordinate_is_400(self):
        engine = open_engine()
        self._expect_error(
            engine,
            [b'{"id": 1, "op": "ingest", "points": [[NaN, 0.0]]}\n'],
            protocol.BAD_REQUEST,
        )
        engine.close()

    def test_non_integer_pid_is_400(self):
        engine = open_engine()
        self._expect_error(
            engine,
            [b'{"id": 1, "op": "delete", "pids": ["zero"]}\n'],
            protocol.BAD_REQUEST,
        )
        engine.close()

    def test_bad_request_id_type_is_400(self):
        engine = open_engine()
        self._expect_error(
            engine, [b'{"id": {}, "op": "ping"}\n'], protocol.BAD_REQUEST
        )
        engine.close()

    def test_unknown_pid_surfaces_as_404_at_flush(self):
        """A buffered delete of a dead id fails at the flush barrier
        with the 404 mapping of UnknownPointError."""
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                client = await connect(service)
                await client.delete([999])  # buffered, acked
                with pytest.raises(ServiceError) as failure:
                    await client.flush()
                assert failure.value.code == protocol.UNKNOWN_POINT
                await client.aclose()

        run_async(scenario())
        engine.close()

    def test_shutdown_op_disabled_by_default(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                client = await connect(service)
                with pytest.raises(ServiceError) as failure:
                    await client.shutdown()
                assert failure.value.code == protocol.UNSUPPORTED
                await client.aclose()

        run_async(scenario())
        engine.close()

    def test_shutdown_op_when_enabled(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine, allow_shutdown=True) as service:
                client = await connect(service)
                response = await client.shutdown()
                assert response["shutting_down"] is True
                await asyncio.wait_for(service.wait_shutdown(), timeout=5)
                await client.aclose()

        run_async(scenario())
        engine.close()

    def test_ping_echoes_payload_and_epoch(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                client = await connect(service)
                response = await client.ping(payload={"tag": 7})
                assert response["pong"] is True
                assert response["payload"] == {"tag": 7}
                assert response["epoch"] == 0
                await client.aclose()

        run_async(scenario())
        engine.close()

    def test_stats_op_reports_service_counters(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                client = await connect(service)
                await client.ingest([[0.0, 0.0]])
                stats = await client.stats()
                assert stats["points"] == 1
                assert stats["algorithm"] == "full-exact"
                assert stats["sessions"] == 1
                assert stats["service"]["sessions_opened"] == 1
                assert stats["service"]["ops_accepted"] >= 2
                await client.aclose()

        run_async(scenario())
        engine.close()


# ----------------------------------------------------------------------
# Client behavior and service lifecycle
# ----------------------------------------------------------------------


class TestClientAndLifecycle:
    def test_stalled_server_fails_within_the_call_deadline(
        self, monkeypatch
    ):
        """A server that accepts and never replies: each call fails with
        ``ServiceTimeoutError`` once the deadline passes, and so does
        every other call pending on the now unusable connection."""
        from repro.service import client as client_module
        from repro.service.client import ServiceTimeoutError

        deadline = 0.3
        monkeypatch.setattr(client_module, "CALL_TIMEOUT", deadline)

        async def scenario():
            async def silent(reader, writer):
                await reader.read()  # read everything, answer nothing
                writer.close()

            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await ServiceClient.connect("127.0.0.1", port)
            try:
                loop = asyncio.get_running_loop()
                start = loop.time()
                other = client.submit("stats")
                with pytest.raises(ServiceTimeoutError):
                    await client.ping()
                assert loop.time() - start < deadline + 1.0
                with pytest.raises(ServiceError):
                    await other
                with pytest.raises(ReproError):
                    client.submit("ping")
            finally:
                await client.aclose()
                server.close()
                await server.wait_closed()

        run_async(scenario())

    def test_client_pipelining_matches_responses_out_of_order_safe(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                client = await connect(service)
                futures = [
                    client.submit("ping", payload=i) for i in range(20)
                ]
                responses = await asyncio.gather(*futures)
                assert [r["payload"] for r in responses] == list(range(20))
                await client.aclose()

        run_async(scenario())
        engine.close()

    def test_server_killed_mid_request_fails_pending_futures(self):
        """The response pump under a hard server death: every pending
        future must raise ServiceError (503 connection_lost), never
        hang.  The stub server reads one request and drops the
        connection without replying — what a killed server process
        looks like from the client's side of the socket."""

        async def scenario():
            died = asyncio.Event()

            async def killed_mid_request(reader, writer):
                await reader.readline()  # a request is in flight...
                writer.transport.abort()  # ...and the server dies on it
                died.set()

            server = await asyncio.start_server(
                killed_mid_request, "127.0.0.1", 0
            )
            host, port = server.sockets[0].getsockname()[:2]
            try:
                client = await ServiceClient.connect(host, port)
                futures = [
                    client.submit("ping", payload=i) for i in range(5)
                ]
                await died.wait()
                results = await asyncio.gather(
                    *futures, return_exceptions=True
                )
                assert len(results) == 5
                for failure in results:
                    assert isinstance(failure, ServiceError)
                    assert failure.code == protocol.UNAVAILABLE
                    assert failure.error_type == "connection_lost"
                # The client knows the connection is gone: later
                # submissions fail fast instead of queueing forever.
                with pytest.raises(ReproError, match="connection lost"):
                    client.submit("ping")
                await client.aclose()
            finally:
                server.close()
                await server.wait_closed()

        run_async(scenario())

    def test_client_submit_after_close_raises(self):
        engine = open_engine()

        async def scenario():
            async with serving(engine) as service:
                client = await connect(service)
                await client.aclose()
                with pytest.raises(ReproError):
                    client.submit("ping")

        run_async(scenario())
        engine.close()

    def test_double_start_raises(self):
        engine = open_engine()

        async def scenario():
            service = ClusterService(engine)
            await service.start("127.0.0.1", 0)
            with pytest.raises(ReproError):
                await service.start("127.0.0.1", 0)
            await service.aclose()

        run_async(scenario())
        engine.close()

    def test_address_none_before_start(self):
        engine = open_engine()
        service = ClusterService(engine)
        assert service.address is None
        engine.close()

    def test_service_borrows_engine(self):
        """Closing the service must not close the engine."""
        engine = open_engine()

        async def scenario():
            service = ClusterService(engine)
            await service.start("127.0.0.1", 0)
            await service.aclose()

        run_async(scenario())
        assert not engine.closed
        engine.ingest([[0.0, 0.0]])
        engine.close()

    def test_limits_validation(self):
        for bad in (
            {"max_sessions": 0},
            {"queue_depth": -1},
            {"max_inflight": 0},
            {"max_write_buffer": 0},
            {"max_sessions": True},
            {"queue_depth": 2.5},
            {"drain_timeout": 0.0},
        ):
            with pytest.raises(ConfigError):
                ServiceLimits(**bad)

    def test_window_capacity_validation(self):
        engine = open_engine()
        for bad in (0, -3, True, 1.5):
            with pytest.raises(ConfigError):
                ClusterService(engine, window_capacity=bad)
        engine.close()
