"""Tests for the fully-dynamic clusterer — Theorem 4."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.static_dbscan import dbscan_brute
from repro.core.fullydynamic import (
    FullyDynamicClusterer,
    double_approx,
    full_exact_2d,
)
from repro.validation import check_legality, check_sandwich

from conftest import assert_matches_static, clustered_points, random_points


class TestBasics:
    def test_insert_then_delete_roundtrip(self):
        algo = FullyDynamicClusterer(1.0, 3)
        pid = algo.insert((0.0, 0.0))
        assert len(algo) == 1
        algo.delete(pid)
        assert len(algo) == 0
        assert algo.cell_count == 0

    def test_delete_unknown_raises(self):
        algo = FullyDynamicClusterer(1.0, 3)
        with pytest.raises(KeyError):
            algo.delete(5)

    def test_double_delete_raises(self):
        algo = FullyDynamicClusterer(1.0, 3)
        pid = algo.insert((0.0, 0.0))
        algo.delete(pid)
        with pytest.raises(KeyError):
            algo.delete(pid)

    def test_cluster_split_on_delete(self):
        """Deleting a bridge point splits one cluster into two (Fig 1)."""
        algo = FullyDynamicClusterer(1.0, 2, rho=0.0, dim=1)
        ids = [algo.insert((float(x),)) for x in range(11)]
        assert len(algo.clusters().clusters) == 1
        algo.delete(ids[5])
        clustering = algo.clusters()
        assert len(clustering.clusters) == 2
        assert algo.same_cluster(ids[0], ids[4])
        assert not algo.same_cluster(ids[0], ids[6])

    def test_reinsert_heals_split(self):
        algo = FullyDynamicClusterer(1.0, 2, rho=0.0, dim=1)
        ids = [algo.insert((float(x),)) for x in range(11)]
        algo.delete(ids[5])
        assert len(algo.clusters().clusters) == 2
        algo.insert((5.0,))
        assert len(algo.clusters().clusters) == 1

    def test_core_demotion_on_delete(self):
        algo = FullyDynamicClusterer(1.0, 3, rho=0.0, dim=2)
        a = algo.insert((0.0, 0.0))
        b = algo.insert((0.5, 0.0))
        c = algo.insert((0.0, 0.5))
        assert algo.is_core(a)
        algo.delete(c)
        assert not algo.is_core(a)

    def test_grid_edge_count_nonnegative(self):
        algo = FullyDynamicClusterer(1.0, 2, rho=0.0, dim=2)
        ids = [algo.insert((float(i) * 0.6, 0.0)) for i in range(10)]
        assert algo.grid_edge_count >= 1
        for pid in ids:
            algo.delete(pid)
        assert algo.grid_edge_count == 0


class TestExactEquivalence:
    """rho = 0 must reproduce exact DBSCAN after any update sequence."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_insert_only_matches_static(self, seed, dim):
        pts = random_points(100, dim, extent=10.0, seed=seed)
        algo = FullyDynamicClusterer(1.5, 4, rho=0.0, dim=dim)
        ids = [algo.insert(p) for p in pts]
        idmap = {pid: i for i, pid in enumerate(ids)}
        assert_matches_static(algo.clusters(), idmap, dbscan_brute(pts, 1.5, 4))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_churn_matches_static(self, seed):
        rng = random.Random(seed)
        pts = clustered_points(140, 2, seed=seed)
        algo = full_exact_2d(2.0, 4)
        live = {}
        for i, p in enumerate(pts):
            live[algo.insert(p)] = p
            if i % 3 == 2:
                victim = rng.choice(sorted(live))
                algo.delete(victim)
                del live[victim]
        keys = sorted(live)
        idmap = {pid: i for i, pid in enumerate(keys)}
        ref = dbscan_brute([live[k] for k in keys], 2.0, 4)
        assert_matches_static(algo.clusters(), idmap, ref)

    def test_delete_everything_then_rebuild(self):
        pts = clustered_points(80, 2, seed=5)
        algo = full_exact_2d(2.0, 4)
        ids = [algo.insert(p) for p in pts]
        for pid in ids:
            algo.delete(pid)
        assert len(algo) == 0 and algo.cell_count == 0
        ids2 = [algo.insert(p) for p in pts]
        idmap = {pid: i for i, pid in enumerate(ids2)}
        assert_matches_static(algo.clusters(), idmap, dbscan_brute(pts, 2.0, 4))

    def test_interleaved_prefix_checks(self):
        rng = random.Random(7)
        pts = clustered_points(70, 2, seed=7)
        algo = full_exact_2d(2.0, 4)
        live = {}
        for i, p in enumerate(pts):
            live[algo.insert(p)] = p
            if rng.random() < 0.3 and live:
                victim = rng.choice(sorted(live))
                algo.delete(victim)
                del live[victim]
            if i % 10 == 9:
                keys = sorted(live)
                idmap = {pid: j for j, pid in enumerate(keys)}
                ref = dbscan_brute([live[k] for k in keys], 2.0, 4)
                assert_matches_static(algo.clusters(), idmap, ref)

    @pytest.mark.parametrize("seed, every", [(23, 3), (11, 4)])
    def test_heavy_churn_agrees_with_static(self, seed, every):
        """One deletion every ``every`` insertions: witnesses are lost
        and repaired often, and the clustering stays exact."""
        rng = random.Random(seed)
        pts = clustered_points(90, 2, seed=seed)
        algo = FullyDynamicClusterer(2.0, 4, rho=0.0, dim=2)
        live = {}
        for i, p in enumerate(pts):
            live[algo.insert(p)] = p
            if i % every == every - 1:
                victim = rng.choice(sorted(live))
                algo.delete(victim)
                del live[victim]
        keys = sorted(live)
        idmap = {pid: i for i, pid in enumerate(keys)}
        ref = dbscan_brute([live[k] for k in keys], 2.0, 4)
        assert_matches_static(algo.clusters(), idmap, ref)


class TestDoubleApproxLegality:
    @pytest.mark.parametrize("rho", [0.001, 0.2, 0.5])
    def test_sandwich_and_legality_under_churn(self, rho):
        rng = random.Random(int(rho * 100))
        pts = clustered_points(120, 2, seed=31)
        algo = double_approx(2.0, 5, rho=rho, dim=2)
        live = set()
        for i, p in enumerate(pts):
            live.add(algo.insert(p))
            if i % 3 == 1 and live:
                victim = rng.choice(sorted(live))
                algo.delete(victim)
                live.discard(victim)
        clustering = algo.clusters()
        coords = {pid: algo.point(pid) for pid in live}
        core = {pid for pid in live if algo.is_core(pid)}
        assert check_sandwich(coords, clustering.clusters, 2.0, 5, rho) == []
        violations = check_legality(
            coords, clustering.clusters, clustering.noise, core,
            2.0, 5, rho, relaxed_core=True,
        )
        assert violations == []

    def test_relaxed_core_status_band(self):
        """A point in the don't-care band may be core or not, but points
        outside the band are forced."""
        algo = double_approx(1.0, 3, rho=0.5, dim=1)
        ids = [algo.insert((x,)) for x in (0.0, 1.0, 1.3)]
        # |B(0, 1.0)| = 2 < 3 but |B(0, 1.5)| = 3 >= 3: don't care for id 0.
        # Either answer is legal; legality checker accepts both:
        coords = {pid: algo.point(pid) for pid in ids}
        clustering = algo.clusters()
        core = {pid for pid in ids if algo.is_core(pid)}
        assert check_legality(
            coords, clustering.clusters, clustering.noise, core,
            1.0, 3, 0.5, relaxed_core=True,
        ) == []

    @pytest.mark.parametrize("dim", [3, 5])
    def test_higher_dimensions(self, dim):
        rng = random.Random(dim)
        pts = clustered_points(80, dim, seed=41, spread=1.0)
        algo = double_approx(3.0, 4, rho=0.1, dim=dim)
        live = set()
        for i, p in enumerate(pts):
            live.add(algo.insert(p))
            if i % 4 == 1:
                victim = rng.choice(sorted(live))
                algo.delete(victim)
                live.discard(victim)
        clustering = algo.clusters()
        coords = {pid: algo.point(pid) for pid in live}
        assert check_sandwich(coords, clustering.clusters, 3.0, 4, 0.1) == []


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 12), st.floats(0, 12)),
        min_size=1,
        max_size=40,
    ),
    st.data(),
)
def test_hypothesis_churn_equivalence(cloud, data):
    """Random insert/delete scripts: rho=0 output equals brute force."""
    algo = FullyDynamicClusterer(2.0, 3, rho=0.0, dim=2)
    live = {}
    for p in cloud:
        live[algo.insert(p)] = p
    victims = data.draw(
        st.lists(st.sampled_from(sorted(live)), unique=True, max_size=len(live))
    )
    for pid in victims:
        algo.delete(pid)
        del live[pid]
    keys = sorted(live)
    idmap = {pid: i for i, pid in enumerate(keys)}
    ref = dbscan_brute([live[k] for k in keys], 2.0, 3)
    assert_matches_static(algo.clusters(), idmap, ref)
