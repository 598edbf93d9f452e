"""Incremental fragment cache: correctness against references + counters.

The cache (:mod:`repro.core.fragments`) must be *invisible in results*:
every barrier splices memoized per-cell fragments and core
coordinates, yet each barrier must equal what references that never
touch the cache compute from the same live set — the scalar
``cgroup_by_sequential`` path over all live ids and exact brute-force
DBSCAN at ``rho = 0``, the sandwich bounds at ``rho > 0``.  The sweep
covers dims {2, 3, 5}, both clusterer families, shard counts {1, 4},
localized update batches between barriers (the regime where most cells
stay clean), bulk deletions, a shard-trust switch, and supervised
crash/replay recovery (a respawned worker rebuilds its cache from the
journal; recovery must not resurrect stale fragments).

Counters (hits / misses / invalidations) surface through
``EngineStats.fragment_cache`` and ``RunResult``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.baselines.static_dbscan import dbscan_brute
from repro.core.fragments import CellFragment, FragmentCache, FragmentCacheStats
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.validation.sandwich import check_sandwich
from repro.workload.config import eps_for

from conftest import clustered_points

DIMS = (2, 3, 5)
MINPTS = 5


def _eps(dim: int) -> float:
    """An eps matched to the ``clustered_points`` scale (extent ~30)."""
    return 1.25 * dim


def _open(algorithm, dim, rho, shards=None):
    return api.open(
        algorithm=algorithm,
        eps=_eps(dim),
        minpts=MINPTS,
        rho=rho,
        dim=dim,
        shards=shards,
        shard_block=1 if shards else None,
    )


def _canon(result):
    """``(groups, noise)`` of a snapshot or C-group-by, order-free."""
    if isinstance(result, api.Snapshot):
        groups, noise = result.clustering.clusters, result.clustering.noise
    else:
        groups, noise = result.groups, result.noise
    return sorted(sorted(g) for g in groups), sorted(noise)


def _check_barrier(got, coords, rho, sequential):
    """One barrier output against references that bypass the cache.

    ``sequential`` is the scalar path's answer over every live id, taken
    at the same state.  At ``rho = 0`` the barrier must equal it and
    exact brute-force DBSCAN; above, it must be sandwich-legal.
    """
    groups, noise = _canon(got)
    dim = len(next(iter(coords.values())))
    if rho:
        assert check_sandwich(
            coords, [set(g) for g in groups], _eps(dim), MINPTS, rho
        ) == []
        return
    assert (groups, noise) == _canon(sequential)
    ids = sorted(coords)
    ref = dbscan_brute([coords[i] for i in ids], _eps(dim), MINPTS)
    assert groups == sorted(sorted(ids[j] for j in c) for c in ref.clusters)
    assert noise == sorted(ids[j] for j in ref.noise)


def _barriers(engines, dim, with_deletes):
    """Barrier-heavy localized workload, driven on every engine in step.

    Ingests a clustered base, then alternates small *localized* batches
    (consecutive points of one blob land in few cells) with full
    snapshots and whole-live-set C-group-by barriers — the cache's
    target regime, where a warm barrier should splice mostly clean
    cells.  Yields ``(coords, outputs)`` at every barrier: the live
    id -> point map and each engine's output, while the engines still
    hold that state.
    """
    base = clustered_points(180, dim, seed=dim * 11)
    extra = clustered_points(60, dim, seed=dim * 11 + 1)
    ids = [engine.ingest(base) for engine in engines]
    assert all(i == ids[0] for i in ids)
    coords = dict(zip(ids[0], base))
    yield coords, [engine.snapshot() for engine in engines]
    for step in range(3):
        batch = extra[step * 20:(step + 1) * 20]
        ids = [engine.ingest(batch) for engine in engines]
        coords.update(zip(ids[0], batch))
        if with_deletes and step:
            victims = list(coords)[step::40][:6]
            for engine in engines:
                engine.delete_many(victims)
            for pid in victims:
                del coords[pid]
        yield coords, [engine.snapshot() for engine in engines]
        live = list(coords)
        yield coords, [engine.cgroup_by_many(live).result for engine in engines]
        # Repeat barrier with zero mutations in between: fully warm.
        yield coords, [engine.snapshot() for engine in engines]


@pytest.mark.parametrize("rho", (0.0, 0.01))
@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("algorithm,with_deletes", [
    ("semi", False),
    ("full", True),
])
def test_cache_is_invisible_single_engine(algorithm, with_deletes, dim, rho):
    engine = _open(algorithm, dim, rho)
    for coords, (got,) in _barriers([engine], dim, with_deletes):
        sequential = engine.raw.cgroup_by_sequential(sorted(coords))
        _check_barrier(got, coords, rho, sequential)
    stats = engine.stats().fragment_cache
    assert stats.hits > 0  # warm barriers actually spliced fragments
    if with_deletes:
        assert stats.invalidations > 0


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("dim", DIMS)
def test_cache_is_invisible_sharded(dim, shards):
    """Sharded barriers at rho=0, tiny blocks, against the references.

    Covers the router's boundary merge consuming cached per-shard
    membership fragments and core coordinates (and its own witness
    cache) under the trust predicate; the scalar path of a single
    engine driven in step supplies the sequential reference.
    """
    sharded = _open("full", dim, 0.0, shards=shards)
    single = _open("full", dim, 0.0)
    try:
        for coords, (got, _) in _barriers([sharded, single], dim, True):
            sequential = single.raw.cgroup_by_sequential(sorted(coords))
            _check_barrier(got, coords, 0.0, sequential)
        stats = sharded.stats().fragment_cache
        assert stats.hits > 0
        if shards > 1:  # one shard has no boundary to merge
            assert sharded.raw.merge_cache_hits > 0
    finally:
        sharded.close()


def test_sequential_updates_invalidate_correctly():
    """Point-at-a-time insert/delete paths also dirty their cells."""
    engine = _open("full", 2, 0.0)
    pts = clustered_points(120, 2, seed=5)
    coords = dict(zip(engine.ingest(pts[:100]), pts[:100]))

    def check():
        everything = sorted(coords)
        _check_barrier(engine.snapshot(), coords, 0.0,
                       engine.raw.cgroup_by_sequential(everything))

    check()
    for p in pts[100:]:
        coords[engine.insert(p)] = p
        check()
    for pid in (0, 17, 55):
        engine.delete(pid)
        del coords[pid]
        check()


# ----------------------------------------------------------------------
# Counters and stats plumbing
# ----------------------------------------------------------------------


class TestCounters:
    def test_warm_snapshot_is_all_hits(self):
        engine = _open("full", 2, 0.0)
        engine.ingest(clustered_points(150, 2, seed=3))
        engine.snapshot()
        cold = engine.stats().fragment_cache
        assert cold.misses > 0 and cold.hits == 0
        engine.snapshot()
        warm = engine.stats().fragment_cache
        assert warm.misses == cold.misses  # nothing recomputed
        assert warm.hits == cold.misses  # every cell spliced

    def test_mutations_count_invalidations(self):
        engine = _open("full", 2, 0.0)
        pids = engine.ingest(clustered_points(150, 2, seed=3))
        engine.snapshot()
        assert engine.stats().fragment_cache.invalidations == 0
        engine.delete_many(pids[:3])
        assert engine.stats().fragment_cache.invalidations > 0

    def test_partial_queries_bypass_the_cache(self):
        engine = _open("full", 2, 0.0)
        pids = engine.ingest(clustered_points(200, 2, seed=4))
        engine.cgroup_by_many(pids[: len(pids) // 3])
        stats = engine.stats().fragment_cache
        # A sparse sample rarely covers whole cells; partial buckets
        # must neither populate nor count against the cache.
        assert stats.hits == 0

    def test_sharded_stats_aggregate(self):
        engine = _open("full", 2, 0.0, shards=4)
        try:
            engine.ingest(clustered_points(150, 2, seed=6))
            engine.snapshot()
            engine.snapshot()
            total = engine.stats().fragment_cache
            parts = [s.fragment_cache for s in engine.stats().per_shard]
            assert total.hits == sum(p.hits for p in parts) > 0
            assert total.misses == sum(p.misses for p in parts)
        finally:
            engine.close()

    def test_run_result_carries_counters(self):
        from repro.workload.runner import run_workload_engine
        from repro.workload.workload import generate_workload

        workload = generate_workload(
            150, 2, insert_fraction=1.0, query_frequency=30, seed=9
        )
        engine = api.open(
            algorithm="semi", eps=eps_for(2), minpts=MINPTS,
            batch_size=25,
        )
        result = run_workload_engine(engine, workload)
        stats = engine.stats().fragment_cache
        assert result.fragment_hits == stats.hits
        assert result.fragment_misses == stats.misses
        assert result.fragment_invalidations == stats.invalidations

    def test_stats_are_picklable(self):
        import pickle

        stats = FragmentCacheStats(hits=3, misses=2, invalidations=1)
        assert pickle.loads(pickle.dumps(stats)) == stats


# ----------------------------------------------------------------------
# Trust safety
# ----------------------------------------------------------------------


def test_trust_switch_flushes_everything():
    """A fragment computed under one trust set must not serve another."""
    clusterer = FullyDynamicClusterer(_eps(2), MINPTS, dim=2)
    pids = clusterer.insert_many(clustered_points(120, 2, seed=8))
    full = clusterer.membership_fragments(pids, trust=None)
    cached = clusterer._fragments.stats()
    assert cached.misses > 0

    cells = sorted(
        {clusterer.cell_of(pid) for pid in pids}
    )
    half = set(cells[: len(cells) // 2])
    trust = half.__contains__
    # Per the contract (and the shard router's usage), queried ids live
    # in trusted cells — the predicate restricts decisions, not inputs.
    pids_in_half = [p for p in pids if clusterer.cell_of(p) in half]
    restricted = clusterer.membership_fragments(pids_in_half, trust=trust)
    flushed = clusterer._fragments.stats()
    # The predicate switch dropped every entry; nothing was served from
    # the unrestricted run's fragments.
    assert flushed.invalidations > cached.invalidations
    assert {tuple(c) for c in restricted.cells.tolist()} <= half
    # Untrusted memberships came back as probes, not silent grants.
    assert all(
        tuple(cell) not in half for cell in restricted.probe_cells.tolist()
    )
    # Flipping back is a fresh flush again, and the unrestricted result
    # is reproduced exactly.
    again = clusterer.membership_fragments(pids, trust=None)
    for name in ("members", "cells", "counts"):
        assert np.array_equal(getattr(again, name), getattr(full, name))
    assert np.array_equal(again.unmatched, full.unmatched)


def test_trust_identity_not_equality():
    """Binding is by predicate object identity (stable per deployment)."""
    cache = FragmentCache()
    a = lambda cell: True  # noqa: E731
    fragment = CellFragment()
    cache.begin(a)
    cache.store_membership((0, 0), fragment)
    cache.begin(a)  # same object: nothing dropped
    assert cache.lookup_membership((0, 0)) is fragment
    cache.begin(lambda cell: True)  # equal behavior, different object
    assert cache.lookup_membership((0, 0)) is None


# ----------------------------------------------------------------------
# Crash / replay recovery
# ----------------------------------------------------------------------


def test_crash_replay_rebuilds_cache_consistently():
    """Supervised recovery must not resurrect stale fragments.

    Both workers crash mid-run *after* warm barriers populated their
    caches; the respawned workers rebuild state (cache empty) by exact
    journal replay.  The recovered deployment's snapshots, cold and
    warm, must match the references at rho=0, and the run must actually
    have recovered (restarts >= 1).
    """
    pts = clustered_points(140, 2, seed=12)
    single = _open("full", 2, 0.0)
    sharded = api.open(
        algorithm="full",
        eps=_eps(2),
        minpts=MINPTS,
        dim=2,
        shards=2,
        shard_executor="process",
        shard_fault_plan="crash:ingest:2",
    )

    def check():
        _check_barrier(sharded.snapshot(), coords, 0.0,
                       single.raw.cgroup_by_sequential(sorted(coords)))

    try:
        s_ids = single.ingest(pts[:80])
        g_ids = sharded.ingest(pts[:80])
        coords = dict(zip(g_ids, pts[:80]))
        # Warm the worker-side caches before the crash.
        check()
        single.delete_many(s_ids[:10])
        sharded.delete_many(g_ids[:10])
        for pid in g_ids[:10]:
            del coords[pid]
        # Second ingest per worker: the plan crashes every shard here,
        # so recovery replays ingest + delete_many before retrying.
        single.ingest(pts[80:])
        coords.update(zip(sharded.ingest(pts[80:]), pts[80:]))
        assert sharded.restarts >= 1
        check()
        # And the rebuilt cache serves warm barriers correctly too.
        check()
    finally:
        single.close()
        sharded.close()
