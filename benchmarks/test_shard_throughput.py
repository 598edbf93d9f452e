"""Ingest-throughput scaling of the sharded engine router.

Not a paper figure: this benchmark records what horizontal scale-out
buys on the paper's own data distribution.  A 2d seed-spreader stream
of ``REPRO_BENCH_N`` points (default 50000) is ingested in chunks
through sharded deployments of 1, 2 and 4 shards — the serial executor
(pure routing + replication overhead) and the process executor, whose
spawned workers take bulk arrays as raw frames over the socket shard
wire.  Every scenario is timed best-of-``REPEATS``: one-shot numbers on
shared-host machines mix the code's cost with the host's steal-time
epochs, and it is the code we are benchmarking.

Two regression tripwires guard the transport, sized to what the machine
can physically show:

* **Transport tax** (no cpu gate — meaningful even on a 1-cpu
  container): 4 process shards may cost at most ``MAX_TRANSPORT_TAX``
  times 4 *serial* shards — same routing, same engines, same compute,
  so the ratio is purely what crossing the process boundary costs.
  Pickling every batch through a pipe once blew this up several-fold
  (the negative-scaling bug); raw array frames hold it near 1x.
* **Parallel scaling** (needs >= 2 cpus for 4 shards to overlap at
  all): 4-shard process ingest must be >= 1.0x 1-shard from
  ``TRIPWIRE_N`` up, and >= 1.5x from ``ASSERT_FLOOR_N`` up on >= 4
  cpus.  On a single cpu the same-transport ratio is bounded by halo
  replication plus scheduler latency (~0.9x is the physical ceiling),
  so there the transport-tax tripwire is the binding one.

Clustering equivalence is asserted separately (and exhaustively) in
``tests/test_shard_equivalence.py``.

Results are written to benchmarks/results/shard_throughput.txt.
"""

from __future__ import annotations

import gc
import os
import time

import repro.api
from repro.workload.config import MINPTS, bench_n, eps_for
from repro.workload.seed_spreader import seed_spreader

from figlib import write_results

DIM = 2
N = bench_n(50000)
EPS = eps_for(DIM)
#: Ingest chunk size: several fan-outs per run, like a buffered
#: ingest-session stream, rather than one monolithic batch.
CHUNK = 10000
#: Ownership block side (cells per axis).  Large enough that halo
#: replication is ~0.5% at 50k points — so the executor comparisons
#: measure transport cost, not replicated engine work.
SHARD_BLOCK = 128
#: Timed repetitions per scenario; the best is recorded.
REPEATS = 2

#: The multi-core >= 1.5x floor arms from here up (needs cpus >= 4).
ASSERT_FLOOR_N = 10000
#: The scaling tripwires arm from here up.
TRIPWIRE_N = 20000
#: Ceiling on process-x4 wall vs serial-x4 wall — the pure cost of the
#: process boundary.
MAX_TRANSPORT_TAX = 1.6
CPUS = os.cpu_count() or 1

_collected = {}


def _one_run(shards: int, executor: str) -> float:
    points = seed_spreader(N, DIM, seed=42)
    engine = repro.api.open(
        algorithm="semi",
        eps=EPS,
        minpts=MINPTS,
        rho=0.0,
        dim=DIM,
        shards=shards,
        shard_block=SHARD_BLOCK,
        shard_executor=executor,
    )
    try:
        # Pending collector debt from earlier runs must not be paid
        # inside someone else's timing window.
        gc.collect()
        start = time.perf_counter()
        for lo in range(0, len(points), CHUNK):
            engine.ingest(points[lo : lo + CHUNK])
        elapsed = time.perf_counter() - start
        assert len(engine) == N
        stats = engine.stats()
        replication = stats.replicas / stats.points if stats.points else 0.0
        # A timed run that quietly lost and rebuilt a worker measured
        # recovery, not transport — refuse to record such a number.
        assert stats.restarts == 0, (
            f"benchmark run performed {stats.restarts} supervised worker "
            f"restart(s); its timing is not a transport measurement"
        )
    finally:
        engine.close()
    return elapsed, replication


def _ingest_run(shards: int, executor: str):
    elapsed, replication = min(
        (_one_run(shards, executor) for _ in range(REPEATS)),
        key=lambda pair: pair[0],
    )
    label = f"{executor} x{shards}"
    _collected[label] = (N, elapsed, N / elapsed if elapsed else 0.0, replication)
    return elapsed


def test_serial_executor_scaling_overhead():
    """Serial shards record the pure routing + replication overhead."""
    t1 = _ingest_run(1, "serial")
    t4 = _ingest_run(4, "serial")
    # Single-core by construction: 4 serial shards do ~replication-factor
    # times the work of 1, so this only guards against degeneration.
    assert t4 < t1 * 4.0, (
        f"serial 4-shard ingest degenerated: {t4:.2f}s vs {t1:.2f}s x4"
    )


def test_process_pool_ingest_scaling():
    """The headline: 4 process shards vs 1, same routing and merge."""
    t1 = _ingest_run(1, "process")
    _ingest_run(2, "process")
    t4 = _ingest_run(4, "process")
    speedup = t1 / t4 if t4 > 0 else float("inf")
    _collected["speedup: x4 over x1"] = (N, t1, t4, speedup)
    serial4 = _collected.get("serial x4")
    tax = None
    if serial4 is not None:
        tax = t4 / serial4[1] if serial4[1] else float("inf")
        _collected["transport tax: x4 over serial x4"] = (
            N, serial4[1], t4, tax,
        )
    if N >= TRIPWIRE_N and tax is not None:
        # No cpu gate: the process boundary may cost scheduling, never
        # payload serialization.  This is the tripwire that catches the
        # negative-scaling bug class even on a 1-cpu container, where
        # parallel speedups are physically impossible to observe.
        assert tax <= MAX_TRANSPORT_TAX, (
            f"transport tax regressed: process x4 ran {tax:.2f}x the "
            f"wall of serial x4 at N={N} (allowed <= {MAX_TRANSPORT_TAX}x) "
            f"— the transport is eating the scale-out again"
        )
    if N >= TRIPWIRE_N and CPUS >= 2:
        # With real parallelism available, scaling 1 -> 4 shards must
        # never lose throughput.
        assert speedup >= 1.0, (
            f"4-shard process ingest ran slower than 1-shard at "
            f"N={N} on {CPUS} cpus: {speedup:.2f}x"
        )
    if N >= ASSERT_FLOOR_N and CPUS >= 4:
        assert speedup >= 1.5, (
            f"4-shard process ingest must be >= 1.5x a 1-shard "
            f"deployment at N={N} on {CPUS} cpus, got {speedup:.2f}x"
        )
    if N < TRIPWIRE_N:
        assert speedup > 0.2, f"sharded ingest degenerated: {speedup:.2f}x"


def test_zz_write_results():
    """Runs last (name-ordered): dump the collected series."""
    lines = ["scenario\tn\tingest_s\tpoints_per_s\treplication"]
    for name, (n, elapsed, rate, repl) in _collected.items():
        if "over" in name:
            continue
        lines.append(f"{name}\t{n}\t{elapsed:.4f}\t{rate:.0f}\t{repl:.3f}")
    # speedup rows read reference/x4 (higher is better); tax rows read
    # x4/reference (lower is better) — the row names say which.
    speed_lines = ["comparison\tn\treference_s\tprocess_x4_s\tratio"]
    for kind in ("speedup: x4 over x1", "transport tax: x4 over serial x4"):
        entry = _collected.get(kind)
        if entry is not None:
            n, base, cont, ratio = entry
            speed_lines.append(
                f"{kind}\t{n}\t{base:.4f}\t{cont:.4f}\t{ratio:.2f}"
            )
    write_results(
        "shard_throughput.txt",
        f"Sharded ingest throughput: d={DIM}, eps={EPS}, MinPts={MINPTS}, "
        f"rho=0, semi family, chunk={CHUNK}, shard_block={SHARD_BLOCK}, "
        f"best of {REPEATS}, cpus={CPUS}, restarts=0 asserted per run, "
        f"seed-spreader data ("
        f"transport-tax tripwire <= {MAX_TRANSPORT_TAX}x at N>={TRIPWIRE_N}; "
        f">=1.0x scaling at cpus>=2; >=1.5x floor at N>={ASSERT_FLOOR_N} "
        f"and cpus>=4)",
        [lines, speed_lines],
    )
    assert _collected, "no measurements collected"
