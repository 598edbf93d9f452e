"""Warm-vs-cold snapshot throughput of the incremental fragment cache.

Not a paper figure: this benchmark records what the cell-level fragment
cache buys for the *repeated snapshot* serving pattern — a monitoring
loop that ingests a small, spatially localized batch between barriers
and re-takes a full ``clusters()`` snapshot after each one.  With the
cache on, a batch touching a handful of cells only invalidates those
cells' closeness-reach neighborhood; every other cell's membership
fragment is spliced back from cache, so a warm snapshot recomputes a
few percent of the grid instead of all of it.  Each round times the
warm snapshot, then drops the engine's cache and times a cold snapshot
of the same state, which recomputes every fragment.

The headline measurement is the acceptance scenario: a 2d seed-spreader
dataset of ``REPRO_BENCH_N`` points (default 50000) under the
semi-dynamic clusterer at the Table 2 defaults, localized batches
touching well under 5% of the populated cells, where warm snapshots
must be at least 3x faster than cold ones after the same batches.  A
second regime covers 5d fully-dynamic data with interleaved localized
deletions.

A third regime covers the *sharded* serving path: the router's
persistent boundary-witness cache keeps cross-shard ``any_within``
verdicts across query barriers, invalidating only pairs near mutated
cells, so repeated sharded snapshots between localized batches stop
re-probing the entire boundary; its cold snapshots clear that cache
and the shard engines' fragment caches.

Correctness of cached snapshots is asserted exhaustively in
``tests/test_fragment_cache.py``; this file re-checks warm == cold per
round as a cheap sanity gate.  Results go to
benchmarks/results/snapshot_throughput.txt.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fragments import FragmentCache
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.workload.config import MINPTS, RHO, bench_n, eps_for
from repro.workload.seed_spreader import seed_spreader

from figlib import write_results

DIM = 2
N = bench_n(50000)
EPS = eps_for(DIM)
ROUNDS = 5

#: Below this dataset size timing noise can eat the win; the speedup
#: floor is only asserted for full-scale runs.
ASSERT_FLOOR_N = 20000

_collected = {}


def _canon(clustering):
    return (
        sorted(sorted(c) for c in clustering.clusters),
        sorted(clustering.noise),
    )


def _localized_batches(points, dim, rounds, batch, seed, side=None):
    """Small per-round batches jittered around one existing point.

    Everything lands within a couple of eps-side cells of the anchor, so
    each round's invalidation cone covers a tiny fraction of the grid.
    """
    rng = np.random.default_rng(seed)
    anchor = np.asarray(points[0], dtype=float)
    if side is None:
        side = eps_for(dim)
    return [
        (anchor + rng.uniform(-side, side, size=(batch, dim))).tolist()
        for _ in range(rounds)
    ]


def _timed_snapshot(take):
    start = time.perf_counter()
    snap = _canon(take())
    return time.perf_counter() - start, snap


def _measure(algo, points, batches, deletes_per_round=0):
    """Warm vs dropped-cache snapshots of one engine, same state each round.

    Each round applies its batch, times the warm snapshot, swaps in an
    empty fragment cache and times the cold snapshot of the same state.
    Returns ``(warm_s, cold_s)`` summed over the rounds.
    """
    algo.insert_many(points)
    algo.clusters()  # untimed: builds kd-trees, primes the cache
    t_warm = t_cold = 0.0
    hits = invalidations = 0
    for batch in batches:
        pids = algo.insert_many(batch)
        if deletes_per_round:
            algo.delete_many(pids[:deletes_per_round])
        warm_s, warm_snap = _timed_snapshot(algo.clusters)
        # A fresh cache per round: these counters are this round's.
        stats = algo.fragment_cache_stats()
        hits += stats.hits
        invalidations += stats.invalidations
        algo._fragments = FragmentCache()
        cold_s, cold_snap = _timed_snapshot(algo.clusters)
        assert warm_snap == cold_snap, (
            "cached snapshot diverged from a recompute of the same state"
        )
        t_warm += warm_s
        t_cold += cold_s
    assert hits > 0, "warm engine served no fragments from cache"
    assert invalidations > 0, "localized batches invalidated nothing"
    return t_warm, t_cold


def test_semi_2d_warm_snapshot_speedup():
    """The acceptance scenario: 50k 2d semi, localized batches."""
    points = seed_spreader(N, DIM, seed=42)
    batches = _localized_batches(
        points, DIM, ROUNDS, batch=max(10, N // 1000), seed=7
    )
    t_warm, t_cold = _measure(
        SemiDynamicClusterer(EPS, MINPTS, rho=RHO, dim=DIM), points, batches
    )
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    _collected["semi 2d localized batches"] = (N, t_cold, t_warm, speedup)
    if N >= ASSERT_FLOOR_N:
        assert speedup >= 3.0, (
            f"warm snapshots must be >= 3x cold ones at N={N}, got "
            f"{speedup:.2f}x ({t_cold:.3f}s cold vs {t_warm:.3f}s warm)"
        )
    else:
        assert speedup > 0.2, f"fragment cache degenerated: {speedup:.2f}x"


def test_full_5d_warm_snapshot_speedup():
    """High-d fully-dynamic regime with localized deletions.

    At the Table 2 eps a 5d seed-spreader grid has under a hundred
    populated cells, so a single touched cell's 2-ring invalidation
    cone covers a third of the grid — the geometry, not the cache, caps
    the win.  Halving eps yields a finer grid (a few hundred cells)
    where locality is meaningful; even so the high-d regime is far less
    cache-friendly than 2d, so the tripwire only guards against the
    cache degenerating (the 3x acceptance floor lives on the 2d
    headline above).
    """
    dim = 5
    n = min(N, 15000)
    eps = eps_for(dim) * 0.5
    points = seed_spreader(n, dim, seed=43)
    batches = _localized_batches(
        points, dim, ROUNDS, batch=max(10, n // 1000), seed=8, side=eps
    )
    t_warm, t_cold = _measure(
        FullyDynamicClusterer(eps, MINPTS, rho=RHO, dim=dim),
        points,
        batches,
        deletes_per_round=5,
    )
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    _collected["full 5d localized churn"] = (n, t_cold, t_warm, speedup)
    if n >= ASSERT_FLOOR_N // 2:
        assert speedup >= 1.05, (
            f"warm snapshots must beat cold ones at n={n}, got "
            f"{speedup:.2f}x ({t_cold:.3f}s cold vs {t_warm:.3f}s warm)"
        )
    else:
        assert speedup > 0.2, f"fragment cache degenerated: {speedup:.2f}x"


def test_sharded_2d_warm_boundary_merge_speedup():
    """Warm-vs-cold across the sharded path's boundary-witness cache.

    ``shard_block=1`` shreds ownership so the boundary cuts through
    every cluster — the worst case for the merge, and therefore the
    best case for caching its witnesses.  Each round times the warm
    snapshot, clears the router's witness cache and the shard engines'
    fragment caches, and times a cold one of the same state; they must
    be equal, and the warm run must serve witnesses from cache.
    """
    import repro.api as api

    n = min(N, 20000)
    points = seed_spreader(n, DIM, seed=44)
    batches = _localized_batches(
        points, DIM, ROUNDS, batch=max(10, n // 1000), seed=9
    )

    engine = api.open(
        algorithm="full",
        eps=EPS,
        minpts=MINPTS,
        rho=RHO,
        dim=DIM,
        shards=2,
        shard_block=1,
        shard_executor="serial",
    )
    router = engine.raw
    t_warm = t_cold = 0.0
    try:
        engine.ingest(points)
        engine.snapshot()  # untimed: primes trees and caches
        for batch in batches:
            engine.insert_many(batch)
            warm_s, warm_snap = _timed_snapshot(
                lambda: engine.snapshot().clustering)
            # Cold: the router's witness cache and every shard engine's
            # fragment cache dropped, so the barrier recomputes it all.
            router._witness_cache.clear()
            for backend in router.executor._backends:
                backend.engine.raw._fragments = FragmentCache()
            cold_s, cold_snap = _timed_snapshot(
                lambda: engine.snapshot().clustering)
            assert warm_snap == cold_snap, (
                "sharded snapshot with cached witnesses diverged from a "
                "recompute of the same state"
            )
            t_warm += warm_s
            t_cold += cold_s
        assert router.merge_cache_hits > 0, (
            "warm router served no boundary witnesses from cache"
        )
    finally:
        engine.close()
    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    _collected["sharded 2d boundary merge"] = (n, t_cold, t_warm, speedup)
    if n >= ASSERT_FLOOR_N:
        assert speedup >= 1.05, (
            f"warm sharded snapshots must beat cold ones at n={n}, got "
            f"{speedup:.2f}x ({t_cold:.3f}s cold vs {t_warm:.3f}s warm)"
        )
    else:
        assert speedup > 0.2, f"witness cache degenerated: {speedup:.2f}x"


def test_zz_write_results():
    """Runs last (name-ordered): dump the collected series."""
    lines = ["scenario\tn\tcold_s\twarm_s\tspeedup"]
    for name, (n, t_cold, t_warm, speedup) in _collected.items():
        lines.append(f"{name}\t{n}\t{t_cold:.4f}\t{t_warm:.4f}\t{speedup:.2f}")
    write_results(
        "snapshot_throughput.txt",
        f"Incremental fragment cache snapshot throughput: d={DIM}, "
        f"eps={EPS}, MinPts={MINPTS}, rho={RHO}, {ROUNDS} localized "
        f"batches between barriers, seed-spreader data",
        [lines],
    )
    assert _collected, "no measurements collected"
