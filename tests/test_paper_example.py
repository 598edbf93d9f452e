"""A hand-built configuration mirroring the paper's running example.

Figure 2/4 of the paper uses 18 points, MinPts = 3, forming three exact
clusters {o1..o5}, {o6..o12}, {o13..o17} with o13 a border point attached
to the cluster of o14 and o18 noise.  The paper gives no coordinates, so we
construct an analogous configuration with the same qualitative features:

* three well-separated groups of core points,
* a border point within eps of exactly one core point (o13 ~ o14),
* an isolated noise point (o18),
* a "don't care" gap between groups 1 and 2 of width between eps and
  (1 + rho) eps for rho = 0.5 (the o4 - o10 edge), so the approximate
  variants may merge those clusters while exact DBSCAN must not.
"""

from __future__ import annotations

import pytest

from repro.baselines.static_dbscan import dbscan_brute, dbscan_grid
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.validation import check_legality, check_sandwich

EPS = 1.0
MINPTS = 3
RHO = 0.5

# Group 1 (o1..o5): a tight chain of core points.
GROUP1 = [(0.0, 0.0), (0.8, 0.0), (1.6, 0.0), (2.4, 0.0), (2.4, 0.8)]
# Group 2 (o6..o12): another chain, 1.3 away from o4=(2.4, 0) on the x-axis
# (inside the don't-care band (1.0, 1.5] for rho = 0.5).
GROUP2 = [
    (3.7, 0.0),
    (4.5, 0.0),
    (5.3, 0.0),
    (5.3, 0.8),
    (4.5, 0.8),
    (3.7, 0.8),
    (4.5, 1.6),
]
# Group 3 (o14..o17) plus the border point o13.
GROUP3 = [(10.0, 10.0), (10.8, 10.0), (10.0, 10.8), (10.8, 10.8)]
O13 = (9.1, 10.0)  # within eps of o14=(10, 10) only; |B(o13,eps)| = 2 < 3
O18 = (50.0, 50.0)  # noise

ALL = GROUP1 + GROUP2 + GROUP3 + [O13, O18]
IDX_O13 = len(ALL) - 2
IDX_O18 = len(ALL) - 1


class TestStaticShape:
    def test_exact_clusters(self):
        ref = dbscan_brute(ALL, EPS, MINPTS)
        assert len(ref.clusters) == 3
        assert ref.noise == {IDX_O18}
        assert IDX_O13 not in ref.core
        # o13 joins exactly the cluster of group 3.
        memberships = ref.memberships(IDX_O13)
        assert len(memberships) == 1
        cluster3 = ref.clusters[memberships[0]]
        assert set(range(len(GROUP1) + len(GROUP2), len(ALL) - 1)) <= cluster3

    def test_grid_matches_brute(self):
        assert dbscan_grid(ALL, EPS, MINPTS).canonical() == dbscan_brute(
            ALL, EPS, MINPTS
        ).canonical()

    def test_dont_care_band_width(self):
        """The group-1/group-2 gap really is inside (eps, (1+rho) eps]."""
        from repro.geometry.points import dist

        gap = dist((2.4, 0.0), (3.7, 0.0))
        assert EPS < gap <= (1 + RHO) * EPS


class TestDynamicVariants:
    @pytest.mark.parametrize("cls", [SemiDynamicClusterer, FullyDynamicClusterer])
    def test_exact_variant_three_clusters(self, cls):
        algo = cls(EPS, MINPTS, rho=0.0, dim=2)
        ids = [algo.insert(p) for p in ALL]
        clustering = algo.clusters()
        assert len(clustering.clusters) == 3
        assert clustering.noise == [ids[IDX_O18]]
        assert not algo.is_core(ids[IDX_O13])

    @pytest.mark.parametrize("cls", [SemiDynamicClusterer, FullyDynamicClusterer])
    def test_approx_variant_sandwich(self, cls):
        algo = cls(EPS, MINPTS, rho=RHO, dim=2)
        ids = [algo.insert(p) for p in ALL]
        clustering = algo.clusters()
        # The don't-care edge means 2 or 3 clusters are both legal.
        assert len(clustering.clusters) in (2, 3)
        coords = {pid: algo.point(pid) for pid in ids}
        assert check_sandwich(coords, clustering.clusters, EPS, MINPTS, RHO) == []
        core = {pid for pid in ids if algo.is_core(pid)}
        relaxed = isinstance(algo, FullyDynamicClusterer)
        assert check_legality(
            coords, clustering.clusters, clustering.noise, core,
            EPS, MINPTS, RHO, relaxed_core=relaxed,
        ) == []

    def test_o13_relaxed_core_band(self):
        """Under double approximation o13 is a don't-care core point:
        |B(o13, eps)| = 2 < 3 but |B(o13, 1.5)| >= 3."""
        from repro.geometry.points import sq_dist

        tight = sum(1 for p in ALL if sq_dist(p, O13) <= EPS * EPS)
        loose = sum(
            1 for p in ALL if sq_dist(p, O13) <= (1 + RHO) ** 2 * EPS * EPS
        )
        assert tight == 2
        assert loose >= 3

    def test_deleting_bridge_restores_three_clusters(self):
        """Insert a bridge merging groups 1-2, then delete it (Figure 1)."""
        algo = FullyDynamicClusterer(EPS, MINPTS, rho=0.0, dim=2)
        ids = [algo.insert(p) for p in ALL]
        assert len(algo.clusters().clusters) == 3
        bridge = [algo.insert(p) for p in [(3.05, 0.0), (3.05, 0.6), (3.05, -0.6)]]
        assert len(algo.clusters().clusters) == 2
        for pid in bridge:
            algo.delete(pid)
        assert len(algo.clusters().clusters) == 3

    def test_cgroup_by_example_query(self):
        """The paper's example: Q = {o13, o14, o8} -> {o14, o13}, {o8, o13}
        under approximate semantics, or {o14, o13}, {o8} under exact."""
        algo = FullyDynamicClusterer(EPS, MINPTS, rho=0.0, dim=2)
        ids = [algo.insert(p) for p in ALL]
        o8 = ids[len(GROUP1) + 2]
        o14 = ids[len(GROUP1) + len(GROUP2)]
        o13 = ids[IDX_O13]
        result = algo.cgroup_by([o13, o14, o8])
        groups = sorted(map(sorted, result.group_sets()))
        assert groups == sorted(map(sorted, [{o13, o14}, {o8}]))
