"""The benchmark workloads (see README.md for why each exists).

Every input is generated from the seed before any timer starts and kept
in one numpy array; each batch is turned into lists outside the timed
calls.  Each workload times many calls and reports medians, runs its
oracle after the timed phase, and checks that it left no process or
shared-memory segment behind.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import json
import os
import re
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import oracles
from tracing import Tracer, fragment_metrics, percentile

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Result:
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    restarts: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, float]] = None
    spans: Optional[list] = None
    transport: str = "none"

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, samples)


#: Points per seed-spreader call.  The generator restarts its walk about
#: ten times per call whatever the size, so one call per run would give
#: each run a handful of clusters and costs that swing with the seed;
#: short calls give every run many independent walks to average over.
SEGMENT = 10_000


def generate(n: int, dim: int, seed: int) -> np.ndarray:
    """``n`` seed-spreader points, in stream order, made from ``seed``."""
    from repro.workload.seed_spreader import seed_spreader

    parts = [seed_spreader(min(SEGMENT, n - start), dim,
                           seed=seed * 1_000_003 + start)
             for start in range(0, n, SEGMENT)]
    return np.asarray([p for part in parts for p in part], dtype=float)


def rows(points: np.ndarray, start: int, count: int, preload: int) -> list:
    """Coordinates of ids ``start .. start+count-1``.

    Ids past the end of the generated stream replay it from ``preload``
    on, so a run of any length has inputs without generating more.
    """
    ids = np.arange(start, start + count)
    over = ids >= len(points)
    ids[over] = preload + (ids[over] - preload) % (len(points) - preload)
    return points[ids].tolist()


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def child_processes() -> List[int]:
    """Live child processes of this one, apart from the resource tracker."""
    me = str(os.getpid())
    found = []
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
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[1] == me and fields[0] != "Z" \
                and b"resource_tracker" not in cmdline:
            found.append(int(entry))
    return found


def shm_segments() -> set:
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return set()
    return {n for n in names if n.startswith("repro-shm-")}


def leftovers(shm_before: set) -> List[str]:
    problems = []
    alive = child_processes()
    if alive:
        problems.append(f"teardown: child processes still alive: {alive}")
    extra = shm_segments() - shm_before
    if extra:
        problems.append(f"teardown: /dev/shm segments left: {sorted(extra)}")
    return problems


def timed(samples: List[float], fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    samples.append(time.perf_counter() - start)
    return out


def median_setup(result: Result, times: List[float]) -> None:
    result.add("setup_s", statistics.median(times), "s", len(times))
    result.notes.append("setups " + " ".join(f"{t:.3f}s" for t in times))


def call_metrics(result: Result, points_per_update: int, update: List[float],
                 query: List[float], snapshot: List[float]) -> None:
    """The call-time metrics of the two in-process workloads."""
    mid = statistics.median(update)
    result.add("update_pts_per_s", points_per_update / mid, "pts/s",
               len(update))
    result.add("update_p50_ms", mid * 1e3, "ms", len(update))
    result.add("update_p90_ms", percentile(update, 0.9) * 1e3, "ms",
               len(update))
    q = statistics.median(query)
    result.add("query_p50_ms", q * 1e3, "ms", len(query))
    result.add("reads_per_s", 1.0 / q, "ops/s", len(query))
    result.add("snapshot_p50_ms", statistics.median(snapshot) * 1e3, "ms",
               len(snapshot))


# ----------------------------------------------------------------------
# window-full-2d
# ----------------------------------------------------------------------

# Both in-process workloads do a fixed number of rounds, sized from
# --seconds, so that a traced run repeats an untraced one call for call
# and the program's own counters repeat exactly.
WINDOW = dict(capacity=100_000, stream=150_000, chunk=10_000, batch=500,
              query=2_000, snapshot_every=5, rounds_per_second=40,
              eps=200.0, minpts=10)


def window_full_2d(seed: int, seconds: float, tracer: Optional[Tracer],
                   outdir: str) -> Result:
    import repro.api
    from repro.analysis.window import WindowedEngine

    cfg = WINDOW
    cap, batch = cfg["capacity"], cfg["batch"]
    knobs = dict(algorithm="full", dim=2, eps=cfg["eps"], minpts=cfg["minpts"])
    points = generate(cap + cfg["stream"], 2, seed)
    preload = [rows(points, i, cfg["chunk"], cap)
               for i in range(0, cap, cfg["chunk"])]
    rng = np.random.default_rng(seed)
    result = Result()
    shm_before = shm_segments()

    setup: List[float] = []
    window = None
    for _ in range(SETUPS):
        if window is not None:
            window.close()
            window = None
        gc.collect()
        start = time.perf_counter()
        window = WindowedEngine(repro.api.open(**knobs), cap)
        for chunk in preload:
            window.append_many(chunk)
        window.cgroup_by_many([cap - 1])
        setup.append(time.perf_counter() - start)
    median_setup(result, setup)

    update: List[float] = []
    query: List[float] = []
    snapshot: List[float] = []
    next_id = cap
    frag_before = window.stats().fragment_cache
    gc.collect()
    if tracer is not None:
        tracer.active = True
    total = max(10, round(seconds * cfg["rounds_per_second"]))
    for rounds in range(1, total + 1):
        arrivals = rows(points, next_id, batch, cap)
        oldest = next_id + batch - cap
        ids = (rng.integers(0, cap, cfg["query"]) + oldest).tolist()
        result.attempted += 1
        pids, expired = timed(update, window.append_many, arrivals)
        if pids != list(range(next_id, next_id + batch)) or \
                expired != list(range(oldest - batch, oldest)):
            result.failed += 1
            result.problems.append("append_many returned unexpected ids")
            break
        next_id += batch
        result.attempted += 1
        timed(query, window.cgroup_by_many, ids)
        if rounds % cfg["snapshot_every"] == 0:
            result.attempted += 1
            timed(snapshot, window.snapshot)
    if tracer is not None:
        tracer.active = False
        result.layers = tracer.layer_metrics(
            fragment_metrics(frag_before, window.stats().fragment_cache))
        result.spans = tracer.span_tree()
    call_metrics(result, batch, update, query, snapshot)
    result.add("peak_rss_mb", self_rss_mb(), "MB", 1)

    final = window.snapshot()
    live = window.ids()
    window.close()
    if live != list(range(next_id - cap, next_id)):
        result.problems.append("window ids are not the expected live range")
    result.problems += oracles.window_check(
        final, live, rows(points, live[0], len(live), cap), knobs)
    result.problems += leftovers(shm_before)
    result.notes.append(f"rounds={rounds}")
    return result


# ----------------------------------------------------------------------
# ingest-sharded-3d
# ----------------------------------------------------------------------

# A round ingests 5k points as five 1k-point calls: the costly batches
# come in runs that depend on the data, and with one call per round a
# run's 40 update samples give a p90 that swings with the seed.
SHARDED = dict(preload=100_000, chunk=10_000, batch=1_000, batches=5,
               query=1_000, rounds_per_second=2, eps=300.0, minpts=10,
               shards=2)


def ingest_sharded_3d(seed: int, seconds: float, tracer: Optional[Tracer],
                      outdir: str, executor: str = "process") -> Result:
    import repro.api
    from repro.errors import ReproError

    cfg = SHARDED
    preload_n, batch = cfg["preload"], cfg["batch"]
    # The data set grows every round, which is one more reason not to run
    # as many rounds as fit: per-call times would then depend on speed.
    rounds = max(4, round(seconds * cfg["rounds_per_second"]))
    knobs = dict(algorithm="semi", dim=3, eps=cfg["eps"], minpts=cfg["minpts"])
    per_round = batch * cfg["batches"]
    points = generate(preload_n + rounds * per_round, 3, seed)
    preload = [rows(points, i, cfg["chunk"], preload_n)
               for i in range(0, preload_n, cfg["chunk"])]
    arrivals = [rows(points, preload_n + b * batch, batch, preload_n)
                for b in range(rounds * cfg["batches"])]
    rng = np.random.default_rng(seed)
    queries = [rng.integers(0, preload_n + (r + 1) * per_round,
                            cfg["query"]).tolist() for r in range(rounds)]
    result = Result()
    shm_before = shm_segments()

    setup: List[float] = []
    engine = None
    for _ in range(SETUPS):
        if engine is not None:
            engine.close()
            result.problems += leftovers(shm_before)
        gc.collect()
        start = time.perf_counter()
        engine = repro.api.open(shards=cfg["shards"],
                                shard_executor=executor, **knobs)
        for chunk in preload:
            engine.ingest(chunk)
        engine.cgroup_by_many([0])
        setup.append(time.perf_counter() - start)
    median_setup(result, setup)
    result.transport = engine.config.resolved_shard_transport

    update: List[float] = []
    query: List[float] = []
    snapshot: List[float] = []
    router = engine.raw
    frag_before = engine.stats().fragment_cache
    merge_before = (router.merge_cache_hits, router.merge_cache_misses)
    restarts_before = engine.restarts
    gc.collect()
    if tracer is not None:
        tracer.active = True
    last = None
    next_id = preload_n
    for r in range(rounds):
        try:
            for b in range(r * cfg["batches"], (r + 1) * cfg["batches"]):
                result.attempted += 1
                pids = timed(update, engine.ingest, arrivals[b])
                if pids != list(range(next_id, next_id + batch)):
                    raise ReproError("ingest returned unexpected ids")
                next_id += batch
            result.attempted += 1
            outcome = timed(query, engine.cgroup_by_many, queries[r])
            last = (queries[r], outcome)
            result.attempted += 1
            timed(snapshot, engine.snapshot)
        except ReproError as exc:  # ShardTimeoutError included
            result.failed += 1
            result.problems.append(f"round {r}: {type(exc).__name__}: {exc}")
            break
    if tracer is not None:
        tracer.active = False
        extra = fragment_metrics(frag_before, engine.stats().fragment_cache)
        hits = router.merge_cache_hits - merge_before[0]
        misses = router.merge_cache_misses - merge_before[1]
        extra["shard.router.merge_cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        extra["shard.supervisor.restarts"] = engine.restarts - restarts_before
        result.layers = tracer.layer_metrics(extra)
        result.spans = tracer.span_tree()
    result.restarts = engine.restarts
    call_metrics(result, batch, update, query, snapshot)
    result.add("peak_rss_mb",
               self_rss_mb() + sum(hwm_mb(p) for p in child_processes()),
               "MB", 1)

    final = engine.snapshot()
    engine.close()
    result.problems += leftovers(shm_before)
    fed = preload + arrivals[:(next_id - preload_n) // batch]
    result.problems += oracles.single_engine_check(final, fed, knobs, last)
    return result


# ----------------------------------------------------------------------
# service-mixed-2d
# ----------------------------------------------------------------------

SERVICE = dict(preload=50_000, chunk=5_000, tick_s=0.05, tick_points=100,
               query=256, queries_per_snapshot=4, safety=2_000,
               eps=200.0, minpts=10, rho=0.001, stop_timeout_s=60.0)
START, STOP = "perfbench:start", "perfbench:stop"


class Server:
    """One ``repro serve`` subprocess and the checks on how it stops."""

    def __init__(self, root: str, outdir: str, trace_path: Optional[str]):
        cfg = SERVICE
        serve = ["serve", "--dim", "2", "--eps", str(cfg["eps"]),
                 "--minpts", str(cfg["minpts"]), "--rho", str(cfg["rho"]),
                 "--port", "0"]
        if trace_path is None:
            self.cmd = [sys.executable, "-m", "repro"] + serve
        else:
            launcher = os.path.join(root, "perfbench", "serve_traced.py")
            self.cmd = [sys.executable, launcher, trace_path] + serve
        self.root = root
        self.stderr_path = os.path.join(outdir, "server.stderr")
        self.proc = None
        self.warnings: List[str] = []

    async def start(self) -> Tuple[str, int]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        with open(self.stderr_path, "wb") as err:
            self.proc = await asyncio.create_subprocess_exec(
                *self.cmd, cwd=self.root, env=env,
                stdout=asyncio.subprocess.PIPE, stderr=err)
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        match = re.search(rb"serving on ([\d.]+):(\d+)", line)
        if match is None:
            raise RuntimeError(f"server did not announce itself: {line!r}")
        return match.group(1).decode(), int(match.group(2))

    async def stop(self) -> List[str]:
        """SIGINT, then check the exit code and the drain line."""
        problems = []
        self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = await asyncio.wait_for(
                self.proc.communicate(), SERVICE["stop_timeout_s"])
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
            return ["teardown: server did not stop on SIGINT"]
        text = out.decode(errors="replace")
        with open(self.stderr_path, errors="replace") as fh:
            stderr = fh.read()
        if stderr.strip():
            # Reported, not failed: a traceback logged while sessions
            # close is a known server defect, not a wrong result.
            self.warnings.append("server stderr: " + " | ".join(
                stderr.strip().splitlines()[-3:]))
        if self.proc.returncode != 0:
            problems.append(f"teardown: server exited {self.proc.returncode}")
        if not re.search(r"drained \d+ session\(s\) \(0 failed\).* 0 failed",
                         text):
            problems.append(f"teardown: no clean drain line in {text!r}")
        return problems

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


async def _service(seed: int, seconds: float, traced: bool, root: str,
                   outdir: str, result: Result) -> Optional[dict]:
    from repro.service.client import ServiceClient, ServiceError

    cfg = SERVICE
    preload_n, tick_n = cfg["preload"], cfg["tick_points"]
    ticks = int(seconds / cfg["tick_s"]) + 1
    points = generate(preload_n + ticks * tick_n, 2, seed)
    preload = [rows(points, i, cfg["chunk"], preload_n)
               for i in range(0, preload_n, cfg["chunk"])]
    arrivals = [rows(points, preload_n + k * tick_n, tick_n, preload_n)
                for k in range(ticks)]
    rng = np.random.default_rng(seed)
    trace_path = os.path.join(outdir, "server-trace.json") if traced else None
    shm_before = shm_segments()

    async def open_and_preload(server: Server):
        start = time.perf_counter()
        host, port = await server.start()
        writer = await ServiceClient.connect(host, port)
        acks = await asyncio.gather(
            *(writer.submit("ingest", points=chunk) for chunk in preload))
        result.attempted += len(acks) + 1
        pids = [pid for ack in acks for pid in ack["pids"]]
        if pids != list(range(preload_n)):
            raise RuntimeError("preload returned unexpected ids")
        await writer.cgroup_by([preload_n - 1])
        return time.perf_counter() - start, host, port, writer

    async def close(server, clients) -> None:
        for client in clients:
            await client.aclose()
        result.problems += await server.stop()
        result.notes += server.warnings

    setup: List[float] = []
    for attempt in range(SETUPS):
        server = Server(root, outdir, trace_path)
        try:
            elapsed, host, port, writer = await open_and_preload(server)
            setup.append(elapsed)
            if attempt < SETUPS - 1:
                await close(server, [writer])
        except BaseException:
            await server.kill()
            raise
    median_setup(result, setup)

    try:
        reader = await ServiceClient.connect(host, port)
        lo, hi_sent, hi_acked = 0, preload_n, preload_n
        acks: List[float] = []
        tick_times: List[float] = []
        lateness: List[float] = []
        query: List[float] = []
        snapshot: List[float] = []
        pending = []

        def count_error(exc: BaseException) -> None:
            result.failed += 1
            result.problems.append(f"{type(exc).__name__}: {exc}")

        async def collect(due: float, first: int, futures) -> None:
            nonlocal hi_acked
            done = []
            for fut in futures:
                fut.add_done_callback(
                    lambda _f: done.append(time.perf_counter()))
            outcome = await asyncio.gather(*futures, return_exceptions=True)
            for item in outcome:
                if isinstance(item, BaseException):
                    count_error(item)
            if not isinstance(outcome[0], BaseException):
                if outcome[0]["pids"] != list(range(first, first + tick_n)):
                    count_error(RuntimeError("ingest ack with unexpected ids"))
                hi_acked = max(hi_acked, first + tick_n)
            acks.extend(t - due for t in done)
            tick_times.append(max(done) - due)

        async def write(t0: float, end: float) -> None:
            nonlocal lo, hi_sent
            for k in range(ticks):
                due = t0 + k * cfg["tick_s"]
                if due >= end:
                    break
                batch = arrivals[k]
                doomed = list(range(lo, lo + tick_n))
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(time.perf_counter() - due)
                result.attempted += 2
                futures = [writer.submit("ingest", points=batch),
                           writer.submit("delete", pids=doomed)]
                pending.append(asyncio.ensure_future(
                    collect(due, hi_sent, futures)))
                hi_sent += tick_n
                lo += tick_n

        async def read(end: float) -> None:
            while time.perf_counter() < end:
                for i in range(cfg["queries_per_snapshot"] + 1):
                    is_snapshot = i == cfg["queries_per_snapshot"]
                    ids = None if is_snapshot else rng.integers(
                        lo + cfg["safety"], hi_acked, cfg["query"]).tolist()
                    result.attempted += 1
                    start = time.perf_counter()
                    try:
                        if is_snapshot:
                            await reader.snapshot()
                        else:
                            await reader.cgroup_by(ids)
                    except ServiceError as exc:
                        count_error(exc)
                        continue
                    (snapshot if is_snapshot else query).append(
                        time.perf_counter() - start)

        await writer.ping(START)
        gc.collect()
        t0 = time.perf_counter()
        end = t0 + seconds
        await asyncio.gather(write(t0, end), read(end))
        reads_elapsed = time.perf_counter() - t0
        await asyncio.gather(*pending)
        await writer.ping(STOP)

        final = await reader.snapshot()
        stats = (await reader.stats())["service"]
        result.attempted += 1
        # Errors seen by the clients and those the server counted are the
        # same ops seen from two ends; the larger count is the failures.
        result.failed = max(result.failed,
                            stats["ops_rejected"] + stats["ops_failed"])
        result.add("peak_rss_mb", hwm_mb(server.proc.pid), "MB", 1)
        await close(server, [writer, reader])
    except BaseException:
        await server.kill()
        raise
    result.problems += leftovers(shm_before)

    mid_tick = statistics.median(tick_times)
    result.add("update_pts_per_s", 2 * tick_n / mid_tick, "pts/s",
               len(tick_times))
    result.add("update_p50_ms", statistics.median(acks) * 1e3, "ms", len(acks))
    result.add("update_p90_ms", percentile(acks, 0.9) * 1e3, "ms", len(acks))
    result.add("query_p50_ms", statistics.median(query) * 1e3, "ms",
               len(query))
    result.add("snapshot_p50_ms", statistics.median(snapshot) * 1e3, "ms",
               len(snapshot))
    result.add("reads_per_s", (len(query) + len(snapshot)) / reads_elapsed,
               "ops/s", len(query) + len(snapshot))
    result.notes.append("writer ack deciles ms " + " ".join(
        f"{percentile(acks, q / 10) * 1e3:.2f}" for q in range(1, 10)))
    result.notes.append(
        f"writer lateness p50={percentile(lateness, 0.5) * 1e3:.3f}ms "
        f"p90={percentile(lateness, 0.9) * 1e3:.3f}ms over {len(lateness)} "
        f"ticks")

    live = list(range(lo, hi_sent))
    result.problems += oracles.sandwich_check(
        final["clusters"], final["noise"], live,
        rows(points, lo, len(live), preload_n), 2, cfg["eps"], cfg["minpts"],
        cfg["rho"])
    if traced:
        with open(trace_path) as fh:
            return json.load(fh)
    return None


def service_mixed_2d(seed: int, seconds: float, tracer: Optional[Tracer],
                     outdir: str) -> Result:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = Result()
    trace = asyncio.run(
        _service(seed, seconds, tracer is not None, root, outdir, result))
    if trace is not None:
        if trace.get("metrics") is None:
            result.problems.append("server trace has no per-layer metrics")
        else:
            result.layers = trace["metrics"]
            result.spans = trace["spans"]
    return result


WORKLOADS = {
    "window-full-2d": window_full_2d,
    "ingest-sharded-3d": ingest_sharded_3d,
    "ingest-sharded-serial-3d": functools.partial(ingest_sharded_3d,
                                                  executor="serial"),
    "service-mixed-2d": service_mixed_2d,
}
