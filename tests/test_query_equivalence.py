"""Batch-vs-sequential equivalence harness for the C-group-by engine.

``cgroup_by_many`` must produce results equivalent to per-point
resolution (``cgroup_by_sequential``):

* with ``rho = 0`` every emptiness decision is exact, so the batched
  result (groups and noise, in the shared canonical ordering) must be
  *identical* to the sequential path on every configuration;
* with ``rho > 0`` each path may legally answer differently inside the
  approximation band, so the batched result is validated against
  first-principles membership bounds: every component holding a core
  point within ``eps`` of a queried point must be reported for it, and
  no component farther than ``(1+rho) * eps`` may be.

The harness sweeps dims 2/3/5, rho in {0, 0.001, 0.1}, core-heavy /
mixed / noise-heavy regimes, random subset queries, and queries
interleaved with bulk updates through both dynamic clusterers.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest

import repro.api
import repro.core.framework as framework
from repro.analysis.window import WindowedEngine
from repro.core.framework import CGroupByResult, canonical_cgroup_result
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.baselines.static_dbscan import dbscan_brute
from repro.core.framework import GridClusterer
from repro.geometry.points import sq_dist
from repro.validation.legality import check_legality
from repro.workload.workload import generate_workload

from conftest import clustered_points, random_points

Point = Tuple[float, ...]

DIMS = (2, 3, 5)
RHOS = (0.0, 0.001, 0.1)
REGIMES = ("dense", "mixed", "sparse")


#: The module's own small-query cutoff (the fixture below zeroes it).
DEFAULT_CUTOFF = framework._SEQUENTIAL_QUERY_CUTOFF


@pytest.fixture(autouse=True)
def force_batch_engine(monkeypatch):
    """Exercise the vectorized engine even on small queries.

    ``cgroup_by_many`` routes queries at or below the cutoff through the
    scalar path (they would trivially compare equal to themselves); the
    harness zeroes the cutoff so every comparison below genuinely pits
    the batch engine against per-point resolution.  The cutoff's own
    routing behavior is covered by ``test_small_query_cutoff_routing``.
    """
    monkeypatch.setattr(framework, "_SEQUENTIAL_QUERY_CUTOFF", 0)


def _points_for(regime: str, n: int, dim: int, seed: int) -> List[Point]:
    if regime == "dense":
        # Everything crowds into a handful of cells: almost all core.
        return random_points(n, dim, extent=3.0, seed=seed)
    if regime == "mixed":
        # Blobs of varied density plus outliers: core, border and noise.
        return clustered_points(n, dim, seed=seed)
    # Spread thin: mostly noise, plenty of empty neighbor probes.
    return random_points(n, dim, extent=400.0, seed=seed)


def _assert_identical(batch: CGroupByResult, seq: CGroupByResult) -> None:
    assert batch.groups == seq.groups
    assert batch.noise == seq.noise


def _assert_canonical(result: CGroupByResult) -> None:
    """The deterministic-ordering contract of every clusterer result."""
    for group in result.groups:
        assert group == sorted(set(group))
    assert result.groups == sorted(result.groups)
    assert result.noise == sorted(set(result.noise))


def _membership_bounds(algo, pid: int):
    """First-principles (must, may) component sets for one queried point.

    ``must`` holds the CC ids of close core cells with a core point
    within ``eps`` (memberships every legal answer reports); ``may``
    additionally allows anything within ``(1+rho) * eps`` (the don't-care
    band of the emptiness contract).
    """
    pt = algo.point(pid)
    cell = algo._grid.cell_of(pt)
    data = algo._cells[cell]
    if pid in data.core:
        cid = algo._cc_id(cell)
        return {cid}, {cid}
    must: Set = set()
    may: Set = set()
    if data.core:
        # Same-cell core points are within eps by the cell diameter.
        cid = algo._cc_id(cell)
        must.add(cid)
        may.add(cid)
    for other in data.neighbors:
        odata = algo._cells[other]
        if not odata.core:
            continue
        dmin = min(sq_dist(algo.point(c), pt) for c in odata.core)
        cid = algo._cc_id(other)
        if dmin <= algo._sq_eps:
            must.add(cid)
            may.add(cid)
        elif dmin <= algo._sq_relaxed:
            may.add(cid)
    return must, may


def _assert_sandwich_legal_full_query(algo) -> None:
    """Validate a Q = P batched query against the membership bounds."""
    result = algo.cgroup_by_many(list(algo.ids()))
    _assert_canonical(result)
    reported: Dict[int, Set] = {pid: set() for pid in algo.ids()}
    for group in result.groups:
        core_members = [pid for pid in group if algo.is_core(pid)]
        assert core_members, "every reported cluster must hold a core point"
        cids = {
            algo._cc_id(algo._grid.cell_of(algo.point(pid)))
            for pid in core_members
        }
        assert len(cids) == 1, "a group must map to exactly one component"
        cid = cids.pop()
        for pid in group:
            reported[pid].add(cid)
    for pid in result.noise:
        assert not reported[pid]
    for pid in algo.ids():
        must, may = _membership_bounds(algo, pid)
        assert must <= reported[pid] <= may, (
            f"pid {pid}: reported {reported[pid]} outside [{must}, {may}]"
        )


class TestExactIdentical:
    """rho = 0: the batched engine must equal per-point resolution."""

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_semi_full_and_subset_queries(self, dim, regime):
        points = _points_for(regime, 240, dim, seed=dim * 11 + len(regime))
        algo = SemiDynamicClusterer(2.0, 5, rho=0.0, dim=dim)
        ids = algo.insert_many(points)
        _assert_identical(
            algo.cgroup_by_many(ids), algo.cgroup_by_sequential(ids)
        )
        rng = random.Random(dim)
        for _ in range(6):
            q = rng.sample(ids, 25)
            _assert_identical(
                algo.cgroup_by_many(q), algo.cgroup_by_sequential(q)
            )

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_full_after_bulk_churn(self, dim, regime):
        points = _points_for(regime, 220, dim, seed=dim * 17 + len(regime))
        algo = FullyDynamicClusterer(2.0, 4, rho=0.0, dim=dim)
        ids = algo.insert_many(points)
        algo.delete_many(ids[::3])
        live = list(algo.ids())
        _assert_identical(
            algo.cgroup_by_many(live), algo.cgroup_by_sequential(live)
        )
        rng = random.Random(dim + 99)
        for _ in range(6):
            q = rng.sample(live, 20)
            _assert_identical(
                algo.cgroup_by_many(q), algo.cgroup_by_sequential(q)
            )

    @pytest.mark.parametrize("seed", (0, 1))
    def test_queries_interleaved_with_bulk_updates(self, seed):
        """Every query barrier of a batched workload answers identically."""
        workload = generate_workload(
            260, 2, insert_fraction=0.75, query_frequency=20, seed=seed
        )
        algo = FullyDynamicClusterer(150.0, 5, rho=0.0, dim=2)
        pid_of: Dict[int, int] = {}
        compared = 0
        for kind, arg in workload.batched(25):
            if kind == "insert_many":
                pids = algo.insert_many([workload.points[i] for i in arg])
                pid_of.update(zip(arg, pids))
            elif kind == "delete_many":
                algo.delete_many([pid_of.pop(i) for i in arg])
            else:
                q = [pid_of[i] for i in arg]
                _assert_identical(
                    algo.cgroup_by_many(q), algo.cgroup_by_sequential(q)
                )
                compared += 1
        assert compared > 0

    def test_small_query_cutoff_routing(self, monkeypatch):
        """At the default cutoff, small queries take the scalar path and
        large ones the engine — with identical canonical results."""
        monkeypatch.setattr(framework, "_SEQUENTIAL_QUERY_CUTOFF", DEFAULT_CUTOFF)
        assert 50 <= DEFAULT_CUTOFF < 300
        points = _points_for("mixed", 300, 2, seed=31)
        algo = SemiDynamicClusterer(2.0, 5, rho=0.0, dim=2)
        ids = algo.insert_many(points)
        calls = []
        original = algo.__class__.cgroup_by_sequential

        def spy(self, pids):
            calls.append(len(list(pids)))
            return original(self, pids)

        monkeypatch.setattr(algo.__class__, "cgroup_by_sequential", spy)
        small = algo.cgroup_by_many(ids[:50])
        assert calls == [50]  # routed through the scalar path
        calls.clear()
        large = algo.cgroup_by_many(ids)
        assert calls == []  # stayed on the engine
        monkeypatch.setattr(algo.__class__, "cgroup_by_sequential", original)
        _assert_identical(small, algo.cgroup_by_sequential(ids[:50]))
        _assert_identical(large, algo.cgroup_by_sequential(ids))

    def test_cgroup_by_routes_through_batch_engine(self):
        """The public entry points agree with both resolution paths."""
        points = _points_for("mixed", 150, 2, seed=3)
        algo = SemiDynamicClusterer(2.0, 5, rho=0.0, dim=2)
        ids = algo.insert_many(points)
        result = algo.cgroup_by(ids)
        _assert_identical(result, algo.cgroup_by_many(ids))
        clustering = algo.clusters()
        assert clustering.clusters == result.groups
        assert clustering.noise == result.noise


# ----------------------------------------------------------------------
# One query over every bucket kind
# ----------------------------------------------------------------------

#: 2d blobs whose cells are fully core inside, mixed at the fringes and
#: non-core (mostly all-noise) around them, at eps = 1 and MinPts = 12.
MIXED_EPS, MIXED_MINPTS = 1.0, 12


def _mixed_points():
    return clustered_points(400, 2, seed=5, centers=3, spread=1.2)


def _mixed_clusterer(cls, rho: float):
    """A clusterer over the mixed-bucket data; the fully-dynamic one
    also deletes every ninth point.  Returns it with its live points."""
    algo = cls(MIXED_EPS, MIXED_MINPTS, rho=rho, dim=2)
    points = _mixed_points()
    ids = algo.insert_many(points)
    live = dict(zip(ids, points))
    if cls is FullyDynamicClusterer:
        algo.delete_many(ids[::9])
        for pid in ids[::9]:
            del live[pid]
    return algo, live


def _mixed_query(algo) -> List[int]:
    """Whole cells and strict parts of cells, alternating per cell kind."""
    seen: Dict[str, int] = {}
    query: List[int] = []
    for cell in sorted(algo._cells):
        data = algo._cells[cell]
        pids = sorted(data.points)
        kind = (
            "full" if len(data.core) == len(pids)
            else "mixed" if data.core else "noncore"
        )
        seen[kind] = seen.get(kind, 0) + 1
        if seen[kind] % 2 or len(pids) == 1:
            query.extend(pids)
        else:
            query.extend(pids[:-1])
    return query


def _bucket_kinds(algo, query: List[int], noise: List[int]) -> Dict[str, int]:
    """How many buckets of ``query`` are of each kind.

    ``cached`` counts the cache-eligible ones: the query covers the
    whole cell, and the cell is not fully core.
    """
    buckets: Dict[tuple, List[int]] = {}
    for pid in query:
        buckets.setdefault(algo.cell_of(pid), []).append(pid)
    noise_set = set(noise)
    kinds = dict(full=0, full_part=0, mixed=0, mixed_part=0, all_noise=0,
                 cached=0)
    for cell, pids in buckets.items():
        data = algo._cells[cell]
        whole = len(pids) == len(data.points)
        if len(data.core) == len(data.points):
            kinds["full" if whole else "full_part"] += 1
            continue
        if data.core:
            kinds["mixed" if whole else "mixed_part"] += 1
        if all(pid in noise_set for pid in pids):
            kinds["all_noise"] += 1
        kinds["cached"] += whole
    return kinds


def _restricted(clusters, noise, query: List[int]) -> CGroupByResult:
    """A full clustering restricted to the queried ids, canonical."""
    q = set(query)
    return canonical_cgroup_result(
        [q.intersection(c) for c in clusters], q.intersection(noise)
    )


def _assert_every_kind(kinds: Dict[str, int]) -> None:
    for kind, count in kinds.items():
        assert count > 0, f"the query has no {kind} bucket: {kinds}"


GRID_CLUSTERERS = (SemiDynamicClusterer, FullyDynamicClusterer)


class TestMixedBuckets:
    """One query whose buckets are fully core (whole and partial), mixed
    (whole and partial), all noise and cache-eligible: the fully-core
    slices and the resolved buckets must assemble into one answer."""

    @pytest.mark.parametrize("cls", GRID_CLUSTERERS)
    def test_exact_against_sequential_and_brute(self, cls):
        algo, live = _mixed_clusterer(cls, rho=0.0)
        query = _mixed_query(algo)
        before = algo.fragment_cache_stats()
        got = algo.cgroup_by_many(query)
        first = algo.fragment_cache_stats()
        kinds = _bucket_kinds(algo, query, got.noise)
        _assert_every_kind(kinds)
        _assert_canonical(got)
        _assert_identical(got, algo.cgroup_by_sequential(query))
        keys = sorted(live)
        ref = dbscan_brute([live[pid] for pid in keys], MIXED_EPS, MIXED_MINPTS)
        _assert_identical(
            got,
            _restricted(
                [[keys[i] for i in c] for c in ref.clusters],
                [keys[i] for i in ref.noise],
                query,
            ),
        )
        # Only cache-eligible buckets consult the cache: each misses
        # once, then hits; fully-core and partial buckets never do.
        assert first.misses - before.misses == kinds["cached"]
        assert first.hits == before.hits
        _assert_identical(algo.cgroup_by_many(query), got)
        second = algo.fragment_cache_stats()
        assert second.hits - first.hits == kinds["cached"]
        assert second.misses == first.misses

    @pytest.mark.parametrize("cls", GRID_CLUSTERERS)
    @pytest.mark.parametrize("rho", RHOS[1:])
    def test_approximate_against_legal_clustering(self, cls, rho):
        """rho > 0: the query is the restriction of the engine's own
        ``Q = P`` clustering, and that clustering is legal."""
        algo, live = _mixed_clusterer(cls, rho=rho)
        query = _mixed_query(algo)
        got = algo.cgroup_by_many(query)
        _assert_every_kind(_bucket_kinds(algo, query, got.noise))
        snapshot = algo.clusters()
        violations = check_legality(
            coords=live,
            clusters=snapshot.clusters,
            noise=snapshot.noise,
            core={pid for pid in live if algo.is_core(pid)},
            eps=MIXED_EPS,
            minpts=MIXED_MINPTS,
            rho=rho,
            relaxed_core=False,
        )
        assert not violations, "\n".join(violations[:10])
        _assert_identical(got, _restricted(snapshot.clusters, snapshot.noise, query))

    @pytest.mark.parametrize("algorithm", ["semi", "full"])
    def test_shard_trust_against_single_engine(self, algorithm, monkeypatch):
        """Shards resolve their owned ids through ``membership_fragments``
        under a trust predicate; merged, the answer is the single
        engine's."""
        calls: List[bool] = []
        original = GridClusterer.membership_fragments

        def spy(self, pids=None, trust=None):
            calls.append(pids is not None and trust is not None)
            return original(self, pids, trust)

        monkeypatch.setattr(GridClusterer, "membership_fragments", spy)
        knobs = dict(algorithm=algorithm, eps=MIXED_EPS, minpts=MIXED_MINPTS,
                     rho=0.0, dim=2)
        single = repro.api.open(**knobs)
        sharded = repro.api.open(
            shards=2, shard_block=1, shard_executor="serial", **knobs
        )
        try:
            for engine in (single, sharded):
                ids = engine.ingest(_mixed_points())
                if algorithm == "full":
                    engine.delete_many(ids[::9])
            query = _mixed_query(single.raw)
            want = single.cgroup_by_many(query)
            _assert_every_kind(_bucket_kinds(single.raw, query, want.noise))
            calls.clear()
            got = sharded.cgroup_by_many(query)
            assert len(calls) == 2 and all(calls)
            _assert_identical(got, want)
        finally:
            single.close()
            sharded.close()


class TestOneResultForm:
    """A snapshot is the C-group-by with ``Q = P`` in the very same form:
    its clusters and noise equal, as plain lists, the groups and noise
    of ``cgroup_by_many`` over every live id — on every deployment."""

    @pytest.mark.parametrize(
        "deployment",
        ["semi", "full", "incdbscan", "recompute", "sharded", "window"],
    )
    def test_snapshot_equals_full_query(self, deployment):
        points = _points_for("mixed", 240, 2, seed=17)
        knobs = dict(eps=2.0, minpts=4, rho=0.0, dim=2)
        if deployment == "window":
            engine = WindowedEngine(repro.api.open(algorithm="full", **knobs), 150)
            engine.append_many(points)
            live = engine.ids()
        else:
            if deployment == "sharded":
                knobs.update(algorithm="full", shards=2, shard_executor="serial")
            else:
                knobs.update(algorithm=deployment)
            engine = repro.api.open(**knobs)
            live = engine.ingest(points)
            if deployment != "semi":
                engine.delete_many(live[::5])
                del live[::5]
        try:
            snapshot = engine.snapshot()
            result = engine.cgroup_by_many(live)
            assert len(snapshot.clusters) >= 2 and snapshot.noise
            assert snapshot.clusters == result.groups
            assert snapshot.noise == result.noise
        finally:
            engine.close()


class TestApproximateLegal:
    """rho > 0: batched answers must stay inside the sandwich band."""

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("rho", RHOS[1:])
    def test_semi_full_query_legal(self, dim, rho):
        points = _points_for("mixed", 200, dim, seed=dim + int(rho * 1000))
        algo = SemiDynamicClusterer(2.5, 4, rho=rho, dim=dim)
        algo.insert_many(points)
        _assert_sandwich_legal_full_query(algo)

    @pytest.mark.parametrize("rho", RHOS[1:])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_full_churned_query_legal(self, rho, regime):
        points = _points_for(regime, 180, 3, seed=int(rho * 10_000) + len(regime))
        algo = FullyDynamicClusterer(2.5, 4, rho=rho, dim=3)
        ids = algo.insert_many(points)
        algo.delete_many(ids[::4])
        _assert_sandwich_legal_full_query(algo)


class TestQueryValidation:
    """Dead pids must fail the whole query before any group is built."""

    def test_dead_pid_rejected_up_front(self):
        algo = FullyDynamicClusterer(1.0, 2, dim=2)
        pids = algo.insert_many([(0.0, 0.0), (0.1, 0.1), (5.0, 5.0)])
        algo.delete(pids[1])
        for query in ([pids[0], pids[1]], [pids[1], pids[0]], [999]):
            with pytest.raises(KeyError, match="not live"):
                algo.cgroup_by(query)
            with pytest.raises(KeyError, match="not live"):
                algo.cgroup_by_sequential(query)

    def test_error_lists_every_dead_pid(self):
        algo = SemiDynamicClusterer(1.0, 2, dim=2)
        pid = algo.insert((0.0, 0.0))
        with pytest.raises(KeyError, match=r"777.*888|888.*777"):
            algo.cgroup_by([pid, 888, 777])

    def test_empty_query(self):
        algo = SemiDynamicClusterer(1.0, 2, dim=2)
        algo.insert((0.0, 0.0))
        result = algo.cgroup_by_many([])
        assert result.groups == [] and result.noise == []


class TestDeterministicOrdering:
    """The canonical-result satellite: stable, iteration-order-free."""

    def test_canonical_helper(self):
        result = canonical_cgroup_result(
            [[9, 3, 3], [], [5, 2], [4]], noise=[8, 1, 8]
        )
        assert result.groups == [[2, 5], [3, 9], [4]]
        assert result.noise == [1, 8]

    def test_engine_results_are_canonical(self):
        points = _points_for("mixed", 200, 2, seed=13)
        algo = SemiDynamicClusterer(2.0, 5, rho=0.001, dim=2)
        ids = algo.insert_many(points)
        rng = random.Random(5)
        shuffled = ids[:]
        rng.shuffle(shuffled)
        _assert_canonical(algo.cgroup_by_many(shuffled))
        _assert_canonical(algo.cgroup_by_sequential(shuffled))
        # Query order must not affect the result at all.
        _assert_identical(
            algo.cgroup_by_many(shuffled), algo.cgroup_by_many(ids)
        )

    def test_duplicate_query_ids_deduplicated(self):
        algo = SemiDynamicClusterer(1.0, 1, dim=1)
        a = algo.insert((0.0,))
        b = algo.insert((10.0,))
        result = algo.cgroup_by_many([a, a, b, b, a])
        assert result.groups == [[a], [b]]

    def test_baseline_results_are_canonical(self):
        from repro.baselines.incdbscan import IncDBSCAN
        from repro.baselines.naive_dynamic import RecomputeClusterer

        points = _points_for("mixed", 120, 2, seed=7)
        for algo in (IncDBSCAN(2.0, 5, dim=2), RecomputeClusterer(2.0, 5, dim=2)):
            ids = [algo.insert(p) for p in points]
            result = algo.cgroup_by(ids)
            _assert_canonical(result)
            # The SequentialQueryMixin fallback answers identically.
            fallback = algo.cgroup_by_many(ids)
            _assert_identical(fallback, result)
            with pytest.raises(KeyError, match="not live"):
                algo.cgroup_by([ids[0], 10_000])
