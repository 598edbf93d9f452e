"""Batch-vs-sequential throughput of the bulk-update engine.

Not a paper figure: this benchmark records what the vectorized
``insert_many`` / ``delete_many`` paths buy over point-at-a-time updates
on the paper's own data distribution.  The headline measurement is a
2d seed-spreader batch of ``REPRO_BENCH_N`` points (default 50000)
through the semi-dynamic clusterer at the Table 2 defaults, where the
bulk path must be at least 3x faster than sequential insertion; a
second measurement covers the fully-dynamic clusterer's bulk insert +
bulk delete.  Equivalence of the outputs is asserted separately (and
exhaustively) in ``tests/test_batch_equivalence.py``.

Results are written to benchmarks/results/batch_throughput.txt.
"""

from __future__ import annotations

import time

import repro.api
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.workload.config import MINPTS, RHO, bench_n, eps_for
from repro.workload.seed_spreader import seed_spreader

from figlib import write_results

DIM = 2
N = bench_n(50000)
EPS = eps_for(DIM)

#: Below this batch size numpy setup overhead can eat the win; the
#: speedup floor is only asserted for full-scale runs.
ASSERT_FLOOR_N = 20000

_collected = {}


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_semi_insert_many_speedup():
    points = seed_spreader(N, DIM, seed=42)
    sequential = SemiDynamicClusterer(EPS, MINPTS, rho=RHO, dim=DIM)

    def run_sequential():
        for p in points:
            sequential.insert(p)

    t_seq = _timed(run_sequential)
    batched = SemiDynamicClusterer(EPS, MINPTS, rho=RHO, dim=DIM)
    t_bat = _timed(lambda: batched.insert_many(points))
    speedup = t_seq / t_bat if t_bat > 0 else float("inf")
    _collected["semi insert"] = (N, t_seq, t_bat, speedup)
    assert len(batched) == len(sequential) == N
    if N >= ASSERT_FLOOR_N:
        assert speedup >= 3.0, (
            f"insert_many must be >= 3x sequential at N={N}, got "
            f"{speedup:.2f}x ({t_seq:.3f}s vs {t_bat:.3f}s)"
        )
    else:
        assert speedup > 0.2, f"batch path degenerated: {speedup:.2f}x"


def test_full_bulk_update_speedup():
    n = min(N, 20000)
    points = seed_spreader(n, DIM, seed=43)
    sequential = FullyDynamicClusterer(EPS, MINPTS, rho=RHO, dim=DIM)

    def run_sequential():
        pids = [sequential.insert(p) for p in points]
        for pid in pids[: n // 2]:
            sequential.delete(pid)

    t_seq = _timed(run_sequential)
    batched = FullyDynamicClusterer(EPS, MINPTS, rho=RHO, dim=DIM)

    def run_batched():
        pids = batched.insert_many(points)
        batched.delete_many(pids[: n // 2])

    t_bat = _timed(run_batched)
    speedup = t_seq / t_bat if t_bat > 0 else float("inf")
    _collected["full insert+delete"] = (n, t_seq, t_bat, speedup)
    assert len(batched) == len(sequential) == n - n // 2
    if n >= ASSERT_FLOOR_N:
        assert speedup >= 1.5, (
            f"fully-dynamic bulk path must beat sequential at n={n}, got "
            f"{speedup:.2f}x ({t_seq:.3f}s vs {t_bat:.3f}s)"
        )
    else:
        assert speedup > 0.2, f"batch path degenerated: {speedup:.2f}x"


def test_engine_facade_overhead():
    """`Engine.ingest` must stay within 5% of the direct bulk path.

    The service facade (`repro.api`) is glue, not compute: one epoch
    stamp on top of `insert_many`.  This measures the same 2d
    seed-spreader batch as `test_semi_insert_many_speedup` through
    both entry points and holds the Engine path to within 5% of the
    direct path (so the headline batch speedup over sequential
    insertion survives the facade intact).  The runs alternate sides
    in ABBA order, so run order and host drift land on both sides
    alike, and each side keeps its best of three to damp scheduler
    noise.
    """
    points = seed_spreader(N, DIM, seed=42)

    def direct_run():
        algo = SemiDynamicClusterer(EPS, MINPTS, rho=RHO, dim=DIM)
        algo.insert_many(points)
        return algo

    def engine_run():
        engine = repro.api.open(
            algorithm="semi", eps=EPS, minpts=MINPTS, rho=RHO, dim=DIM
        )
        engine.ingest(points)
        return engine

    times = {direct_run: [], engine_run: []}
    for run in (direct_run, engine_run, engine_run, direct_run,
                direct_run, engine_run):
        times[run].append(_timed(run))
    t_direct = min(times[direct_run])
    t_engine = min(times[engine_run])
    ratio = t_engine / t_direct if t_direct > 0 else float("inf")
    # Stored as a speedup (direct/engine) so the results-file column
    # reads like the others; ~1.0 means the facade is free.
    _collected["semi engine vs direct"] = (
        N, t_direct, t_engine, 1.0 / ratio if ratio else 0.0
    )
    seq = _collected.get("semi insert")
    if seq is not None and t_engine > 0:
        _collected["semi engine vs sequential"] = (
            N, seq[1], t_engine, seq[1] / t_engine
        )
    if N >= ASSERT_FLOOR_N:
        assert ratio <= 1.05, (
            f"Engine.ingest must be within 5% of direct insert_many at "
            f"N={N}, got {ratio:.3f}x ({t_engine:.3f}s vs {t_direct:.3f}s)"
        )
    else:
        # Small runs only smoke the path; noise dominates the ratio.
        assert ratio <= 2.0, f"engine path degenerated: {ratio:.2f}x"


def test_zz_write_results():
    """Runs last (name-ordered): dump the collected series."""
    lines = ["scenario\tn\tsequential_s\tbatched_s\tspeedup"]
    for name, (n, t_seq, t_bat, speedup) in _collected.items():
        lines.append(f"{name}\t{n}\t{t_seq:.4f}\t{t_bat:.4f}\t{speedup:.2f}")
    write_results(
        "batch_throughput.txt",
        f"Bulk-update engine throughput: d={DIM}, eps={EPS}, "
        f"MinPts={MINPTS}, rho={RHO}, seed-spreader data",
        [lines],
    )
    assert _collected, "no measurements collected"
