"""Tests for the semi-dynamic (insert-only) clusterer — Theorem 1."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.static_dbscan import dbscan_brute
from repro.core.semidynamic import SemiDynamicClusterer, semi_approx, semi_exact_2d
from repro.validation import check_legality, check_sandwich

from conftest import assert_matches_static, clustered_points, random_points


class TestBasics:
    def test_empty_clusterer(self):
        algo = SemiDynamicClusterer(1.0, 3)
        assert len(algo) == 0
        result = algo.cgroup_by([])
        assert result.groups == [] and result.noise == []

    def test_single_point_is_noise_with_high_minpts(self):
        algo = SemiDynamicClusterer(1.0, 3)
        pid = algo.insert((0.0, 0.0))
        assert not algo.is_core(pid)
        assert algo.cgroup_by([pid]).noise == [pid]

    def test_minpts_one_every_point_core(self):
        algo = SemiDynamicClusterer(1.0, 1)
        pid = algo.insert((0.0, 0.0))
        assert algo.is_core(pid)

    def test_dimension_mismatch_rejected(self):
        algo = SemiDynamicClusterer(1.0, 3, dim=2)
        with pytest.raises(ValueError):
            algo.insert((1.0, 2.0, 3.0))

    def test_delete_unsupported(self):
        algo = SemiDynamicClusterer(1.0, 3)
        pid = algo.insert((0.0, 0.0))
        with pytest.raises(NotImplementedError):
            algo.delete(pid)

    def test_minpts_validation(self):
        with pytest.raises(ValueError):
            SemiDynamicClusterer(1.0, 0)

    def test_three_close_points_form_cluster(self):
        algo = SemiDynamicClusterer(1.0, 3)
        ids = [algo.insert(p) for p in [(0, 0), (0.5, 0), (0, 0.5)]]
        assert all(algo.is_core(pid) for pid in ids)
        result = algo.cgroup_by(ids)
        assert len(result.groups) == 1
        assert set(result.groups[0]) == set(ids)

    def test_vicinity_count_tracks_insertions(self):
        algo = SemiDynamicClusterer(1.0, 4)
        a = algo.insert((0.0, 0.0))
        assert algo.vicinity_count(a) == 1
        algo.insert((0.5, 0.0))
        assert algo.vicinity_count(a) == 2
        algo.insert((0.0, 0.5))
        assert algo.vicinity_count(a) == 3
        algo.insert((0.2, 0.2))
        assert algo.vicinity_count(a) is None  # promoted
        assert algo.is_core(a)

    def test_query_unknown_id_raises(self):
        algo = SemiDynamicClusterer(1.0, 3)
        with pytest.raises(KeyError):
            algo.cgroup_by([123])

    def test_cluster_merge_via_bridge(self):
        """Two separate clusters merge when bridging points arrive (Fig 1)."""
        algo = SemiDynamicClusterer(1.0, 2)
        left = [algo.insert((float(x) / 2, 0.0)) for x in range(4)]
        right = [algo.insert((float(x) / 2 + 10.0, 0.0)) for x in range(4)]
        assert not algo.same_cluster(left[0], right[0])
        assert len(algo.clusters().clusters) == 2
        for x in range(4, 21):
            algo.insert((float(x) / 2, 0.0))
        assert algo.same_cluster(left[0], right[0])
        assert len(algo.clusters().clusters) == 1


class TestExactEquivalence:
    """With rho = 0 the dynamic output must equal static exact DBSCAN."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_uniform(self, seed, dim):
        pts = random_points(120, dim, extent=12.0, seed=seed)
        algo = SemiDynamicClusterer(1.5, 4, rho=0.0, dim=dim)
        ids = [algo.insert(p) for p in pts]
        idmap = {pid: i for i, pid in enumerate(ids)}
        assert_matches_static(algo.clusters(), idmap, dbscan_brute(pts, 1.5, 4))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_clustered_data(self, seed):
        pts = clustered_points(150, 2, seed=seed)
        algo = semi_exact_2d(2.0, 5)
        ids = [algo.insert(p) for p in pts]
        idmap = {pid: i for i, pid in enumerate(ids)}
        assert_matches_static(algo.clusters(), idmap, dbscan_brute(pts, 2.0, 5))

    def test_prefix_equivalence(self):
        """Equality must hold after *every* insertion, not only at the end."""
        pts = clustered_points(60, 2, seed=9)
        algo = semi_exact_2d(2.0, 4)
        ids = []
        for i, p in enumerate(pts):
            ids.append(algo.insert(p))
            if i % 7 == 6:
                idmap = {pid: j for j, pid in enumerate(ids)}
                ref = dbscan_brute(pts[: i + 1], 2.0, 4)
                assert_matches_static(algo.clusters(), idmap, ref)

    def test_duplicate_points(self):
        algo = SemiDynamicClusterer(1.0, 3, rho=0.0, dim=2)
        pts = [(1.0, 1.0)] * 5 + [(8.0, 8.0)]
        ids = [algo.insert(p) for p in pts]
        idmap = {pid: i for i, pid in enumerate(ids)}
        assert_matches_static(algo.clusters(), idmap, dbscan_brute(pts, 1.0, 3))

    def test_boundary_distances(self):
        """Points exactly eps apart must connect (<= semantics)."""
        algo = SemiDynamicClusterer(1.0, 2, rho=0.0, dim=1)
        a = algo.insert((0.0,))
        b = algo.insert((1.0,))
        assert algo.same_cluster(a, b)


class TestApproximateLegality:
    @pytest.mark.parametrize("rho", [0.001, 0.1, 0.5])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_sandwich_and_legality(self, rho, dim):
        pts = clustered_points(130, dim, seed=11)
        algo = semi_approx(2.0, 5, rho=rho, dim=dim)
        ids = [algo.insert(p) for p in pts]
        clustering = algo.clusters()
        coords = {pid: algo.point(pid) for pid in ids}
        core = {pid for pid in ids if algo.is_core(pid)}
        assert check_sandwich(coords, clustering.clusters, 2.0, 5, rho) == []
        violations = check_legality(
            coords, clustering.clusters, clustering.noise, core,
            2.0, 5, rho, relaxed_core=False,
        )
        assert violations == []

    def test_core_status_is_exact_for_semi(self):
        """rho-approximate semantics keep the exact core definition."""
        pts = clustered_points(100, 2, seed=13)
        algo = semi_approx(2.0, 5, rho=0.4, dim=2)
        ids = [algo.insert(p) for p in pts]
        ref = dbscan_brute(pts, 2.0, 5)
        idmap = {pid: i for i, pid in enumerate(ids)}
        got_core = {idmap[pid] for pid in ids if algo.is_core(pid)}
        assert got_core == ref.core


class TestCGroupBySemantics:
    def test_subset_query_matches_full_clustering(self):
        pts = clustered_points(100, 2, seed=21)
        algo = semi_exact_2d(2.0, 5)
        ids = [algo.insert(p) for p in pts]
        full = algo.clusters()
        rng = random.Random(0)
        for _ in range(10):
            q = rng.sample(ids, 15)
            result = algo.cgroup_by(q)
            # Each group must be the intersection of some full cluster with Q.
            expected = [set(c) & set(q) for c in full.clusters]
            expected = [e for e in expected if e]
            got = sorted(map(sorted, result.group_sets()))
            assert got == sorted(map(sorted, expected))
            assert set(result.noise) == set(full.noise) & set(q)

    def test_border_point_in_multiple_groups(self):
        algo = SemiDynamicClusterer(1.0, 4, rho=0.0, dim=1)
        # Two 4-point clusters whose tips are 1.0 away from the border
        # point; the border's ball holds only the two tips plus itself.
        left = [algo.insert((x,)) for x in (0.1, 0.4, 0.7, 1.0)]
        right = [algo.insert((x,)) for x in (3.0, 3.3, 3.6, 3.9)]
        border = algo.insert((2.0,))  # within 1.0 of 1.0 and 3.0 only
        assert not algo.is_core(border)
        result = algo.cgroup_by([*left, *right, border])
        assert len(result.groups) == 2
        count = sum(1 for g in result.groups if border in g)
        assert count == 2

    def test_memberships_helper(self):
        algo = SemiDynamicClusterer(1.0, 1, dim=1)
        a = algo.insert((0.0,))
        b = algo.insert((10.0,))
        result = algo.cgroup_by([a, b])
        assert result.memberships() == {a: 1, b: 1}


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 15), st.floats(0, 15)),
        min_size=1,
        max_size=60,
    ),
    st.integers(2, 5),
)
def test_hypothesis_exact_equivalence(cloud, minpts):
    algo = SemiDynamicClusterer(2.0, minpts, rho=0.0, dim=2)
    ids = [algo.insert(p) for p in cloud]
    idmap = {pid: i for i, pid in enumerate(ids)}
    assert_matches_static(algo.clusters(), idmap, dbscan_brute(cloud, 2.0, minpts))


class TestVicinityCountAfterDensePromotion:
    """Regression: once a cell turns dense every member is promoted and
    must stop carrying a vicinity count, including points that join the
    already-dense cell later."""

    def test_counts_cleared_when_cell_turns_dense(self):
        algo = SemiDynamicClusterer(10.0, 3, dim=2)
        # All in one cell (side = 10/sqrt(2) ~ 7.07) but pairwise spread.
        a = algo.insert((0.5, 0.5))
        b = algo.insert((6.5, 0.5))
        assert algo.vicinity_count(a) is not None
        assert algo.vicinity_count(b) is not None
        c = algo.insert((0.5, 6.5))  # third point: cell now dense
        for pid in (a, b, c):
            assert algo.is_core(pid)
            assert algo.vicinity_count(pid) is None

    def test_late_arrival_into_dense_cell_never_tracked(self):
        algo = SemiDynamicClusterer(10.0, 3, dim=2)
        ids = [algo.insert((0.5 + 0.1 * i, 0.5)) for i in range(3)]
        late = algo.insert((6.9, 6.9))
        assert algo.is_core(late)
        assert algo.vicinity_count(late) is None
        assert all(algo.vicinity_count(pid) is None for pid in ids)

    def test_bulk_path_matches_dense_promotion(self):
        pts = [(0.5, 0.5), (6.5, 0.5), (0.5, 6.5), (6.9, 6.9)]
        seq = SemiDynamicClusterer(10.0, 3, dim=2)
        for p in pts:
            seq.insert(p)
        bat = SemiDynamicClusterer(10.0, 3, dim=2)
        ids = bat.insert_many(pts)
        assert all(bat.is_core(pid) for pid in ids)
        assert all(bat.vicinity_count(pid) is None for pid in ids)
