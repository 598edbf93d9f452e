"""Batch-vs-sequential equivalence harness for the bulk-update engine.

``insert_many`` / ``delete_many`` must produce cluster groupings
equivalent to the sequential path:

* with ``rho = 0`` every structure involved is exact, so the batch
  clustering (clusters, noise, core status, vicinity counts) must be
  *identical* to sequential processing;
* with ``rho > 0`` the two paths may legally diverge inside the
  approximation band, so both must independently satisfy the sandwich
  guarantee (:mod:`repro.validation.sandwich`).

The harness sweeps dims 2/3/5, rho in {0, 0.001, 0.1}, dense-cell and
sparse regimes, several batch sizes, and interleaved insert / delete /
query workloads.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.baselines.static_dbscan import dbscan_brute
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.validation import check_invariants
from repro.validation.sandwich import check_sandwich
from repro.workload.workload import batch_ops, generate_workload

from conftest import assert_matches_static, clustered_points, random_points

Point = Tuple[float, ...]

DIMS = (2, 3, 5)
RHOS = (0.0, 0.001, 0.1)
BATCH_SIZES = (1, 7, 64, 10_000)

#: (regime name, eps) — point generators live in `_points_for`.
REGIMES = ("dense", "mixed", "sparse")


def _points_for(regime: str, n: int, dim: int, seed: int) -> List[Point]:
    if regime == "dense":
        # Everything crowds into a handful of cells: exercises the
        # dense-cell short-circuit (cells holding >= MinPts points).
        return random_points(n, dim, extent=3.0, seed=seed)
    if regime == "mixed":
        # Blobs of varied density plus outliers.
        return clustered_points(n, dim, seed=seed)
    # Spread thin: mostly noise, no dense cells.
    return random_points(n, dim, extent=400.0, seed=seed)


def _canonical(clusterer) -> Tuple[frozenset, frozenset]:
    clustering = clusterer.clusters()
    return (
        frozenset(frozenset(c) for c in clustering.clusters),
        frozenset(clustering.noise),
    )


def _query_canonical(result) -> Tuple[frozenset, frozenset]:
    return (
        frozenset(frozenset(g) for g in result.groups),
        frozenset(result.noise),
    )


def _assert_both_sandwich(seq, bat, eps: float, minpts: int, rho: float) -> None:
    for label, clusterer in (("sequential", seq), ("batched", bat)):
        coords = {pid: clusterer.point(pid) for pid in clusterer.ids()}
        clusters = clusterer.clusters().clusters
        violations = check_sandwich(coords, clusters, eps, minpts, rho)
        assert not violations, f"{label} path violates sandwich: {violations}"


class TestSemiInsertMany:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("regime", REGIMES)
    @pytest.mark.parametrize("batch_size", (7, 10_000))
    def test_exact_identical_to_sequential(self, dim, regime, batch_size):
        """rho = 0: batch state must equal sequential state exactly."""
        points = _points_for(regime, 240, dim, seed=dim * 7 + len(regime))
        eps, minpts = 2.0, 5
        seq = SemiDynamicClusterer(eps, minpts, rho=0.0, dim=dim)
        seq_ids = [seq.insert(p) for p in points]
        bat = SemiDynamicClusterer(eps, minpts, rho=0.0, dim=dim)
        bat_ids: List[int] = []
        for start in range(0, len(points), batch_size):
            bat_ids.extend(bat.insert_many(points[start : start + batch_size]))
        assert seq_ids == bat_ids
        assert _canonical(seq) == _canonical(bat)
        for pid in seq_ids:
            assert seq.is_core(pid) == bat.is_core(pid)
            assert seq.vicinity_count(pid) == bat.vicinity_count(pid)

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("rho", RHOS[1:])
    def test_approximate_sandwich_legal(self, dim, rho):
        """rho > 0: both paths must satisfy the sandwich guarantee."""
        points = _points_for("mixed", 160, dim, seed=dim + int(rho * 1000))
        eps, minpts = 2.5, 4
        seq = SemiDynamicClusterer(eps, minpts, rho=rho, dim=dim)
        for p in points:
            seq.insert(p)
        bat = SemiDynamicClusterer(eps, minpts, rho=rho, dim=dim)
        bat.insert_many(points)
        _assert_both_sandwich(seq, bat, eps, minpts, rho)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_batch_size_invariance_exact(self, batch_size):
        """Any chunking of the same stream yields the same clustering."""
        points = _points_for("mixed", 300, 2, seed=99)
        eps, minpts = 2.0, 5
        ref = SemiDynamicClusterer(eps, minpts, rho=0.0, dim=2)
        ref.insert_many(points)
        bat = SemiDynamicClusterer(eps, minpts, rho=0.0, dim=2)
        for start in range(0, len(points), batch_size):
            bat.insert_many(points[start : start + batch_size])
        assert _canonical(ref) == _canonical(bat)

    def test_batch_interleaved_with_sequential_inserts(self):
        """Mixing insert and insert_many on one instance stays exact."""
        points = _points_for("mixed", 200, 3, seed=4)
        eps, minpts = 2.0, 4
        seq = SemiDynamicClusterer(eps, minpts, rho=0.0, dim=3)
        for p in points:
            seq.insert(p)
        mix = SemiDynamicClusterer(eps, minpts, rho=0.0, dim=3)
        for p in points[:50]:
            mix.insert(p)
        mix.insert_many(points[50:150])
        for p in points[150:170]:
            mix.insert(p)
        mix.insert_many(points[170:])
        assert _canonical(seq) == _canonical(mix)

    def test_empty_and_singleton_batches(self):
        algo = SemiDynamicClusterer(1.0, 3, dim=2)
        assert algo.insert_many([]) == []
        assert algo.insert_many([(0.0, 0.0)]) == [0]
        assert len(algo) == 1

    def test_dimension_mismatch_rejected(self):
        algo = SemiDynamicClusterer(1.0, 3, dim=2)
        with pytest.raises(ValueError):
            algo.insert_many([(0.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            algo.insert_many([(0.0, 0.0), (1.0,)])


class TestFullyDynamicBulk:
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_insert_delete_many_exact(self, dim, regime):
        """rho = 0: bulk insert + bulk delete equals sequential exactly."""
        rng = random.Random(dim * 31 + len(regime))
        points = _points_for(regime, 200, dim, seed=dim * 13)
        eps, minpts = 2.0, 4
        seq = FullyDynamicClusterer(eps, minpts, rho=0.0, dim=dim)
        seq_ids = [seq.insert(p) for p in points]
        bat = FullyDynamicClusterer(eps, minpts, rho=0.0, dim=dim)
        bat_ids = bat.insert_many(points)
        assert seq_ids == bat_ids
        assert _canonical(seq) == _canonical(bat)

        doomed = rng.sample(seq_ids, len(seq_ids) // 3)
        for pid in doomed:
            seq.delete(pid)
        bat.delete_many(doomed)
        assert _canonical(seq) == _canonical(bat)
        for pid in seq.ids():
            assert seq.is_core(pid) == bat.is_core(pid)

    @pytest.mark.parametrize("rho", RHOS[1:])
    def test_insert_delete_many_sandwich_legal(self, rho):
        points = _points_for("mixed", 150, 2, seed=int(rho * 10_000))
        eps, minpts = 2.5, 4
        seq = FullyDynamicClusterer(eps, minpts, rho=rho, dim=2)
        seq_ids = [seq.insert(p) for p in points]
        bat = FullyDynamicClusterer(eps, minpts, rho=rho, dim=2)
        bat.insert_many(points)
        doomed = seq_ids[::4]
        for pid in doomed:
            seq.delete(pid)
        bat.delete_many(doomed)
        _assert_both_sandwich(seq, bat, eps, minpts, rho)

    def test_delete_many_empties_cells_and_registry(self):
        algo = FullyDynamicClusterer(1.0, 2, dim=2)
        pids = algo.insert_many([(0.1, 0.1), (0.2, 0.2), (5.0, 5.0)])
        algo.delete_many(pids)
        assert len(algo) == 0
        assert algo.cell_count == 0

    def test_delete_many_validates_ids(self):
        algo = FullyDynamicClusterer(1.0, 2, dim=2)
        pids = algo.insert_many([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(KeyError):
            algo.delete_many([pids[0], 999])
        with pytest.raises(ValueError):
            algo.delete_many([pids[0], pids[0]])
        # Failed validation must not have mutated anything.
        assert len(algo) == 2

    def test_delete_many_then_reinsert(self):
        """State stays consistent across bulk delete / bulk re-insert."""
        points = _points_for("mixed", 120, 2, seed=21)
        eps, minpts = 2.0, 4
        seq = FullyDynamicClusterer(eps, minpts, rho=0.0, dim=2)
        bat = FullyDynamicClusterer(eps, minpts, rho=0.0, dim=2)
        seq_ids = [seq.insert(p) for p in points]
        bat_ids = bat.insert_many(points)
        victims = seq_ids[10:70]
        for pid in victims:
            seq.delete(pid)
        bat.delete_many(victims)
        revived = [points[seq_ids.index(pid)] for pid in victims]
        seq_new = [seq.insert(p) for p in revived]
        bat_new = bat.insert_many(revived)
        assert seq_new == bat_new
        assert _canonical(seq) == _canonical(bat)


class TestFullyDynamicBulkVariants:
    """The bulk paths under witness churn.

    Rounds of ``insert_many`` and ``delete_many`` on one clusterer; after
    each call the clustering must equal exact DBSCAN (rho = 0) or pass
    the sandwich check (rho > 0), and the internal invariants hold.  The
    points are spread thin enough that close core cells often lack a
    witness, so batches of promotions and demotions must de-list and
    repair.
    """

    @pytest.mark.parametrize("rho", (0.0, 0.1))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_bulk_rounds_match_oracle(self, seed, rho):
        rng = random.Random(seed)
        points = random_points(240, 2, extent=15.0, seed=3)
        eps, minpts = 2.0, 3
        algo = FullyDynamicClusterer(eps, minpts, rho=rho, dim=2)
        live: Dict[int, Point] = {}

        def check() -> None:
            assert check_invariants(algo) == []
            clustering = algo.clusters()
            if rho == 0.0:
                keys = sorted(live)
                idmap = {pid: i for i, pid in enumerate(keys)}
                ref = dbscan_brute([live[k] for k in keys], eps, minpts)
                assert_matches_static(clustering, idmap, ref)
            else:
                violations = check_sandwich(
                    live, clustering.clusters, eps, minpts, rho
                )
                assert not violations, violations

        for start in range(0, len(points), 60):
            chunk = points[start : start + 60]
            live.update(zip(algo.insert_many(chunk), chunk))
            check()
            doomed = rng.sample(sorted(live), len(live) // 3)
            algo.delete_many(doomed)
            for pid in doomed:
                del live[pid]
            check()


class TestInterleavedWorkloads:
    """Full interleaved insert/delete/query streams through both encodings."""

    def _apply_sequential(self, clusterer, workload):
        pid_of: Dict[int, int] = {}
        answers = []
        for kind, arg in workload.ops:
            if kind == "insert":
                pid_of[arg] = clusterer.insert(workload.points[arg])
            elif kind == "delete":
                clusterer.delete(pid_of.pop(arg))
            else:
                result = clusterer.cgroup_by([pid_of[i] for i in arg])
                answers.append(_query_canonical(result))
        return answers

    def _apply_batched(self, clusterer, workload, batch_size):
        pid_of: Dict[int, int] = {}
        answers = []
        for kind, arg in workload.batched(batch_size):
            if kind == "insert_many":
                pids = clusterer.insert_many([workload.points[i] for i in arg])
                pid_of.update(zip(arg, pids))
            elif kind == "delete_many":
                clusterer.delete_many([pid_of.pop(i) for i in arg])
            else:
                result = clusterer.cgroup_by([pid_of[i] for i in arg])
                answers.append(_query_canonical(result))
        return answers

    @pytest.mark.parametrize("batch_size", (3, 25, 10_000))
    @pytest.mark.parametrize("seed", (0, 1))
    def test_exact_queries_identical(self, batch_size, seed):
        """rho = 0: every interleaved query answers identically."""
        workload = generate_workload(
            260, 2, insert_fraction=0.75, query_frequency=20, seed=seed
        )
        eps, minpts = 150.0, 5
        seq = FullyDynamicClusterer(eps, minpts, rho=0.0, dim=2)
        bat = FullyDynamicClusterer(eps, minpts, rho=0.0, dim=2)
        seq_answers = self._apply_sequential(seq, workload)
        bat_answers = self._apply_batched(bat, workload, batch_size)
        assert seq_answers == bat_answers
        assert _canonical(seq) == _canonical(bat)

    @pytest.mark.parametrize("rho", (0.001, 0.1))
    def test_approximate_final_state_sandwich(self, rho):
        workload = generate_workload(
            200, 3, insert_fraction=0.8, query_frequency=25, seed=5
        )
        eps, minpts = 200.0, 4
        seq = FullyDynamicClusterer(eps, minpts, rho=rho, dim=3)
        bat = FullyDynamicClusterer(eps, minpts, rho=rho, dim=3)
        self._apply_sequential(seq, workload)
        self._apply_batched(bat, workload, 25)
        _assert_both_sandwich(seq, bat, eps, minpts, rho)

    def test_batched_encoding_preserves_update_multiset(self):
        """Between any two queries both encodings apply the same updates."""
        workload = generate_workload(
            300, 2, insert_fraction=0.7, query_frequency=15, seed=8
        )
        sequential_segments = []
        segment: List[Tuple[str, int]] = []
        for kind, arg in workload.ops:
            if kind == "query":
                sequential_segments.append(sorted(segment))
                segment = []
            else:
                segment.append((kind, arg))
        sequential_segments.append(sorted(segment))

        batched_segments = []
        segment = []
        for kind, arg in batch_ops(workload.ops, 13):
            if kind == "query":
                batched_segments.append(sorted(segment))
                segment = []
            else:
                single = kind[: -len("_many")]
                segment.extend((single, idx) for idx in arg)
        batched_segments.append(sorted(segment))
        assert sequential_segments == batched_segments


class TestBatchInputValidation:
    """insert_many must reject poison inputs up front, before any state
    mutation — a NaN reaching the cell grid would corrupt the registry."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected_without_mutation(self, bad):
        for cls in (SemiDynamicClusterer, FullyDynamicClusterer):
            algo = cls(1.0, 3, dim=2)
            with pytest.raises(ValueError, match="non-finite"):
                algo.insert_many([(0.0, 0.0), (bad, 1.0)])
            assert len(algo) == 0
            assert algo.cell_count == 0


class TestExplicitIds:
    """insert_many(points, ids): a shard stores points under global ids,
    and a rebalance transfer brings ids older than some it holds."""

    @pytest.mark.parametrize("cls", (SemiDynamicClusterer, FullyDynamicClusterer))
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_out_of_order_batches_match_contiguous(self, cls, dim, seed):
        points = clustered_points(300, dim, seed=seed)
        want = cls(2.0, 5, dim=dim)
        want.insert_many(points)
        # Split the ids into ascending runs and apply them newest-first,
        # so most batches land below ids the clusterer already holds.
        rng = random.Random(seed)
        runs: List[List[int]] = [[] for _ in range(4)]
        for pid in range(len(points)):
            runs[rng.randrange(4)].append(pid)
        got = cls(2.0, 5, dim=dim)
        for run in reversed(runs):
            assert got.insert_many([points[i] for i in run], ids=run) == run
        assert _canonical(got) == _canonical(want)
        assert all(got.is_core(p) == want.is_core(p) for p in range(len(points)))
        query = list(range(0, len(points), 3))
        assert _query_canonical(got.cgroup_by_many(query)) == _query_canonical(
            want.cgroup_by_many(query)
        )
        if cls is FullyDynamicClusterer:
            doomed = runs[0][::2] + runs[2][1::2]
            got.delete_many(doomed)
            want.delete_many(doomed)
            assert _canonical(got) == _canonical(want)
            check_invariants(got)

    @pytest.mark.parametrize("cls", (SemiDynamicClusterer, FullyDynamicClusterer))
    def test_bad_ids_rejected_without_mutation(self, cls):
        algo = cls(1.0, 3, dim=2)
        algo.insert_many([(0.0, 0.0), (5.0, 5.0)], ids=[4, 9])
        bad = [
            ([(1.0, 1.0), (2.0, 2.0)], [12, 11], "ascending"),
            ([(1.0, 1.0), (2.0, 2.0)], [12, 12], "ascending"),
            ([(1.0, 1.0), (2.0, 2.0)], [3], "2 points"),
            ([(1.0, 1.0), (2.0, 2.0)], [2, 4], "already live"),
        ]
        for points, ids, message in bad:
            with pytest.raises(ValueError, match=message):
                algo.insert_many(points, ids=ids)
            assert sorted(algo.ids()) == [4, 9]
            assert algo.cell_count == 2
        # Implicit ids continue after the highest id ever given.
        assert algo.insert_many([(9.0, 9.0)]) == [10]
        assert algo.insert_many([(9.5, 9.0)], ids=[7]) == [7]
        assert algo.insert_many([(9.0, 9.5)]) == [11]
