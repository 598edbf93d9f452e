"""Cross-system integration tests: whole workloads through every algorithm."""

from __future__ import annotations

import random

import pytest

from repro.baselines.incdbscan import IncDBSCAN
from repro.baselines.static_dbscan import dbscan_grid
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.validation import check_legality, check_sandwich
from repro.workload.runner import run_workload
from repro.workload.workload import generate_workload

EPS = 200.0  # the paper's default eps = 100d at d = 2
MINPTS = 10
RHO = 0.001


def _canonical(algo, live_index):
    return frozenset(
        frozenset(live_index[pid] for pid in c) for c in algo.clusters().clusters
    )


class TestSemiDynamicWorkload:
    def test_semi_matches_static_on_seed_spreader(self):
        w = generate_workload(600, 2, insert_fraction=1.0, seed=5)
        algo = SemiDynamicClusterer(EPS, MINPTS, rho=0.0, dim=2)
        pid_of = {}
        for kind, arg in w.ops:
            assert kind == "insert"
            pid_of[arg] = algo.insert(w.points[arg])
        idmap = {pid: idx for idx, pid in pid_of.items()}
        ref = dbscan_grid(w.points, EPS, MINPTS)
        got = _canonical(algo, idmap)
        # Translate: static indexes points by position in w.points.
        assert got == ref.canonical()

    def test_semi_and_full_agree_exactly_on_insert_only(self):
        w = generate_workload(500, 3, insert_fraction=1.0, seed=6)
        semi = SemiDynamicClusterer(300.0, MINPTS, rho=0.0, dim=3)
        full = FullyDynamicClusterer(300.0, MINPTS, rho=0.0, dim=3)
        semi_map, full_map = {}, {}
        for kind, arg in w.ops:
            semi_map[semi.insert(w.points[arg])] = arg
            full_map[full.insert(w.points[arg])] = arg
        assert _canonical(semi, semi_map) == _canonical(full, full_map)

    def test_rho_approx_sandwich_on_workload(self):
        w = generate_workload(400, 2, insert_fraction=1.0, seed=7)
        algo = SemiDynamicClusterer(EPS, MINPTS, rho=RHO, dim=2)
        ids = [algo.insert(w.points[arg]) for _, arg in w.ops]
        coords = {pid: algo.point(pid) for pid in ids}
        clustering = algo.clusters()
        assert check_sandwich(coords, clustering.clusters, EPS, MINPTS, RHO) == []


class TestFullyDynamicWorkload:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_exact_matches_incdbscan_on_mixed_workload(self, seed):
        w = generate_workload(
            450, 2, insert_fraction=5 / 6, query_frequency=50, seed=seed
        )
        ours = FullyDynamicClusterer(EPS, MINPTS, rho=0.0, dim=2)
        inc = IncDBSCAN(EPS, MINPTS, dim=2)
        ours_map, inc_map = {}, {}
        for kind, arg in w.ops:
            if kind == "insert":
                ours_map[arg] = ours.insert(w.points[arg])
                inc_map[arg] = inc.insert(w.points[arg])
            elif kind == "delete":
                ours.delete(ours_map.pop(arg))
                inc.delete(inc_map.pop(arg))
            else:
                ours_result = ours.cgroup_by([ours_map[i] for i in arg])
                inc_result = inc.cgroup_by([inc_map[i] for i in arg])
                back_ours = {pid: i for i, pid in ours_map.items()}
                back_inc = {pid: i for i, pid in inc_map.items()}
                got = frozenset(
                    frozenset(back_ours[p] for p in g) for g in ours_result.groups
                )
                want = frozenset(
                    frozenset(back_inc[p] for p in g) for g in inc_result.groups
                )
                assert got == want
                assert {back_ours[p] for p in ours_result.noise} == {
                    back_inc[p] for p in inc_result.noise
                }

    def test_double_approx_legal_throughout_workload(self):
        w = generate_workload(350, 3, insert_fraction=4 / 5, seed=3)
        algo = FullyDynamicClusterer(300.0, MINPTS, rho=0.01, dim=3)
        pid_of = {}
        step = 0
        for kind, arg in w.ops:
            if kind == "insert":
                pid_of[arg] = algo.insert(w.points[arg])
            elif kind == "delete":
                algo.delete(pid_of.pop(arg))
            step += 1
            if step % 100 == 0:
                coords = {pid: algo.point(pid) for pid in pid_of.values()}
                clustering = algo.clusters()
                assert (
                    check_sandwich(coords, clustering.clusters, 300.0, MINPTS, 0.01)
                    == []
                )

    def test_run_workload_end_to_end_all_algorithms(self):
        w = generate_workload(
            250, 2, insert_fraction=5 / 6, query_frequency=25, seed=4
        )
        for algo in (
            SemiDynamicClusterer(EPS, MINPTS, rho=RHO, dim=2),
            FullyDynamicClusterer(EPS, MINPTS, rho=RHO, dim=2),
            IncDBSCAN(EPS, MINPTS, dim=2),
        ):
            if isinstance(algo, SemiDynamicClusterer):
                insert_only = generate_workload(
                    250, 2, insert_fraction=1.0, query_frequency=25, seed=4
                )
                result = run_workload(algo, insert_only)
                assert len(result.op_costs) == len(insert_only.ops)
            else:
                result = run_workload(algo, w)
                assert len(result.op_costs) == len(w.ops)
            assert result.average_cost > 0


class TestConsistencyOfQueries:
    def test_queries_consistent_with_single_clustering(self):
        """Two sub-queries must be consistent with the Q = P query — the
        paper's anti-'cheating' requirement."""
        rng = random.Random(10)
        w = generate_workload(300, 2, insert_fraction=1.0, seed=10)
        algo = FullyDynamicClusterer(EPS, MINPTS, rho=RHO, dim=2)
        ids = [algo.insert(w.points[arg]) for _, arg in w.ops]
        full = algo.clusters()
        for _ in range(15):
            q = rng.sample(ids, 20)
            result = algo.cgroup_by(q)
            expected = [set(c) & set(q) for c in full.clusters]
            expected = sorted(map(sorted, (e for e in expected if e)))
            assert sorted(map(sorted, result.group_sets())) == expected
