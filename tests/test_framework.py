"""Tests for the shared framework pieces and the workload config."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.framework import (
    CGroupByResult,
    Clustering,
    GridClusterer,
    assemble_groups,
    canonical_cgroup_result,
)
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.workload import config


class TestCGroupByResult:
    def test_group_sets(self):
        r = CGroupByResult(groups=[[1, 2], [3]], noise=[4])
        assert r.group_sets() == [{1, 2}, {3}]

    def test_memberships_counts_multi(self):
        r = CGroupByResult(groups=[[1, 2], [2, 3]], noise=[4])
        assert r.memberships() == {1: 1, 2: 2, 3: 1, 4: 0}

    def test_empty(self):
        r = CGroupByResult()
        assert r.groups == [] and r.noise == []
        assert r.memberships() == {}


class TestClustering:
    def test_cluster_count(self):
        c = Clustering(clusters=[{1}, {2, 3}], noise={4})
        assert c.cluster_count == 2


class TestAssembleGroups:
    """The flat-parts group assembler against the list-based canonical
    form, on its packed-key path and on its rank fallback."""

    @staticmethod
    def _check(parts):
        """``parts`` is a list of ``(label, ids)``; returns the groups."""
        members = np.array(
            [pid for _, ids in parts for pid in ids], dtype=np.int64
        )
        counts = np.array([len(ids) for _, ids in parts], dtype=np.int64)
        labels = np.array([label for label, _ in parts], dtype=np.int64)
        by_label = {}
        for label, ids in parts:
            by_label.setdefault(label, []).extend(ids)
        groups = assemble_groups(members, counts, labels)
        assert groups == canonical_cgroup_result(by_label.values(), []).groups
        assert all(type(pid) is int for group in groups for pid in group)
        return groups

    def test_empty(self):
        assert assemble_groups(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64)
        ) == []

    def test_packed_path(self):
        groups = self._check(
            [
                (1, [7, 3]),
                (0, [9, 3]),
                (1, [3, 4]),  # 3 repeats across parts of group 1
                (3, []),  # an empty part; labels 2 and 3 stay empty
                (0, [1]),
            ]
        )
        assert groups == [[1, 3, 9], [3, 4, 7]]

    def test_packed_path_offsets_large_ids(self):
        base = 2**62
        groups = self._check([(0, [base + 5, base]), (1, [base + 1, base])])
        assert groups == [[base, base + 1], [base, base + 5]]

    def test_rank_fallback_when_keys_overflow(self):
        # Ids spanning 2**62 with two labels need 64 key bits: the
        # assembler packs ranks instead, and maps them back to the ids.
        big = 2**62
        groups = self._check(
            [(1, [0, big]), (0, [5, big]), (1, [big, 5]), (0, [0])]
        )
        assert groups == [[0, 5, big], [0, 5, big]]
        groups = self._check([(0, [big + 3, 1]), (1, [2, big + 3]), (1, [1])])
        assert groups == [[1, 2, big + 3], [1, big + 3]]

    def test_random_parts(self):
        rng = np.random.default_rng(7)
        for high in (50, 2**40, 2**63 - 1):
            for _ in range(20):
                parts = [
                    (
                        int(rng.integers(0, 6)),
                        rng.integers(0, high, rng.integers(0, 5)).tolist(),
                    )
                    for _ in range(rng.integers(1, 9))
                ]
                self._check(parts)


class TestGridClustererShared:
    def test_point_accessors(self):
        algo = SemiDynamicClusterer(1.0, 2, dim=2)
        pid = algo.insert((1.5, 2.5))
        assert algo.point(pid) == (1.5, 2.5)
        assert pid in algo
        assert list(algo.ids()) == [pid]
        assert algo.cell_of(pid) == algo._grid.cell_of((1.5, 2.5))

    def test_point_ids_monotone(self):
        algo = FullyDynamicClusterer(1.0, 2, dim=2)
        a = algo.insert((0.0, 0.0))
        b = algo.insert((1.0, 1.0))
        assert b == a + 1
        algo.delete(a)
        c = algo.insert((2.0, 2.0))
        assert c == b + 1  # ids are never reused

    def test_coordinates_coerced_to_float_tuples(self):
        algo = SemiDynamicClusterer(1.0, 2, dim=2)
        pid = algo.insert([1, 2])  # list of ints
        assert algo.point(pid) == (1.0, 2.0)
        assert isinstance(algo.point(pid), tuple)

    def test_base_class_insert_not_implemented(self):
        base = GridClusterer(1.0, 2, dim=2)
        with pytest.raises(NotImplementedError):
            base.insert((0.0, 0.0))
        with pytest.raises(NotImplementedError):
            base.delete(0)

    def test_cell_count_tracks_occupancy(self):
        algo = FullyDynamicClusterer(1.0, 2, dim=2)
        a = algo.insert((0.0, 0.0))
        b = algo.insert((50.0, 50.0))
        assert algo.cell_count == 2
        algo.delete(a)
        assert algo.cell_count == 1
        algo.delete(b)
        assert algo.cell_count == 0

    def test_same_cluster_with_noise_points(self):
        algo = FullyDynamicClusterer(1.0, 3, dim=2)
        a = algo.insert((0.0, 0.0))
        b = algo.insert((20.0, 20.0))
        assert not algo.same_cluster(a, b)
        assert not algo.same_cluster(a, a)  # noise shares no cluster, even with itself


class TestFactories:
    def test_paper_algorithm_factories(self):
        from repro import double_approx, full_exact_2d, semi_approx, semi_exact_2d

        a = semi_exact_2d(5.0, 7)
        assert (a.eps, a.minpts, a.rho, a.dim) == (5.0, 7, 0.0, 2)
        b = semi_approx(5.0, 7, rho=0.01, dim=5)
        assert (b.rho, b.dim) == (0.01, 5)
        c = full_exact_2d(5.0, 7)
        assert (c.eps, c.minpts, c.rho, c.dim) == (5.0, 7, 0.0, 2)
        d = double_approx(5.0, 7, rho=0.01, dim=3)
        assert (d.rho, d.dim) == (0.01, 3)

    def test_high_dim_smoke(self):
        """rho > 0 clusterers operate in d = 7 (the paper's max)."""
        from repro import double_approx, semi_approx

        pts = [tuple(float(i + j) for j in range(7)) for i in range(15)]
        for algo in (
            semi_approx(3.0, 3, rho=0.001, dim=7),
            double_approx(3.0, 3, rho=0.001, dim=7),
        ):
            ids = [algo.insert(p) for p in pts]
            result = algo.cgroup_by(ids)
            assert len(result.groups) >= 1


class TestConfig:
    def test_eps_for_default(self):
        assert config.eps_for(2) == 200.0
        assert config.eps_for(7, 800) == 5600.0

    def test_bench_n_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_N", "123")
        assert config.bench_n() == 123
        monkeypatch.delenv("REPRO_BENCH_N")
        assert config.bench_n(777) == 777

    def test_table2_values_present(self):
        assert config.MINPTS == 10
        assert config.RHO == 0.001
        assert set(config.DIMENSIONS) == {2, 3, 5, 7}
        assert set(config.EPS_PER_D) == {50, 100, 200, 400, 800}
        assert 5 / 6 in config.INSERT_FRACTIONS
