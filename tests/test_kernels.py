"""The kernel layer against first principles.

Every kernel decision must equal the brute-force difference formula
bit-for-bit: counts, booleans, proof ids and cell groupings are discrete
decisions made from exact distances, and ``distance_matrix`` evaluates
the same axis-ordered exact sum per element.  The pair kernels tile
their operands (``numpy_backend.CACHE_BLOCK_BYTES``), so each check runs
at the default tile budget and at one shrunk until dozens of tiles are
crossed.  The sweep reuses the dims {2, 3, 5} / rho {0, 0.001, 0.1}
grid of ``tests/test_query_equivalence.py`` (rho enters a kernel only
through its radius argument), plus scalar oracles, the ~64MB chunking
cap regression, the dispatch table, and an end-to-end clusterer
comparison at rho = 0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.grid import Grid
from repro.geometry.points import box_min_sq_dist, sq_dist
from repro.kernels import interface, numpy_backend, registry

DIMS = (2, 3, 5)
RHOS = (0.0, 0.001, 0.1)
EPS = 0.35
#: 512 bytes => 64-entry tiles: dozens of tiles per call.
TINY_BLOCK_BYTES = 512


def _data(dim: int, seed: int, n: int = 220, m: int = 180):
    rng = np.random.RandomState(seed)
    a = rng.rand(n, dim) * 2.0
    b = rng.rand(m, dim) * 2.0
    # Plant exact-threshold pairs so boundary decisions are exercised.
    b[0] = a[0].copy()
    b[1] = a[1] + np.array([EPS] + [0.0] * (dim - 1))
    return a, b


def _expect_buckets(buckets, rows, grid: Grid) -> None:
    """A CSR ``bucket_by_cell`` result against :meth:`Grid.cell_of`:
    cells distinct and lexicographic, each bucket's indices exactly its
    rows, ascending."""
    want = {}
    for idx, row in enumerate(rows):
        want.setdefault(grid.cell_of(row), []).append(idx)
    cells = sorted(want)
    assert buckets.cells.dtype == np.int64
    assert buckets.cells.shape == (len(cells), grid.dim)
    assert [tuple(c) for c in buckets.cells.tolist()] == cells
    sizes = [len(want[cell]) for cell in cells]
    assert buckets.offsets.tolist() == np.cumsum([0, *sizes]).tolist()
    assert buckets.order.tolist() == [i for cell in cells for i in want[cell]]


def _brute_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every pair's squared distance by the untiled difference formula."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class TestBackendEquivalence:
    """Each kernel against the brute-force formula over dims x rho."""

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("rho", RHOS)
    def test_pair_kernels_bit_identical(self, dim, rho, monkeypatch):
        a, b = _data(dim, seed=dim * 7 + int(rho * 1000))
        sq_radius = (EPS * (1.0 + rho)) ** 2
        within = _brute_sq_dists(a, b) <= sq_radius
        far = np.full((4, dim), 1e6)
        ids = list(range(100, 100 + len(b)))
        proofs = [ids[int(np.argmax(row))] if row.any() else None
                  for row in within]
        for block_bytes in (numpy_backend.CACHE_BLOCK_BYTES, TINY_BLOCK_BYTES):
            monkeypatch.setattr(numpy_backend, "CACHE_BLOCK_BYTES", block_bytes)
            assert np.array_equal(
                kernels.ball_counts(a, b, sq_radius), within.sum(axis=1)
            )
            assert kernels.any_within(a, b, sq_radius) == bool(within.any())
            assert not kernels.any_within(a, far, sq_radius)
            # A lone witness deep in a late tile must still be found.
            assert kernels.any_within(a[-3:], b, sq_radius) == bool(
                within[-3:].any()
            )
            assert kernels.count_within(a[0], b, sq_radius) == int(within[0].sum())
            assert kernels.find_within_many(a, ids, b, sq_radius) == proofs

    @pytest.mark.parametrize("dim", DIMS)
    def test_distance_matrix_bit_identical(self, dim, monkeypatch):
        a, b = _data(dim, seed=dim + 31)
        want = _brute_sq_dists(a, b)
        for block_bytes in (numpy_backend.CACHE_BLOCK_BYTES, TINY_BLOCK_BYTES):
            monkeypatch.setattr(numpy_backend, "CACHE_BLOCK_BYTES", block_bytes)
            got = kernels.distance_matrix(a, b)
            assert got.shape == (len(a), len(b))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", DIMS)
    def test_grouping_kernels_identical(self, dim):
        a, _ = _data(dim, seed=dim + 5)
        a = a * 40.0 - 30.0  # negative coordinates included
        for eps in (0.7, 3.0):
            grid = Grid(eps, dim)
            _expect_buckets(kernels.bucket_by_cell(a, grid.side), a.tolist(), grid)
        cells = np.floor(a / 0.7).astype(np.int64)
        keys = kernels.pack_cell_keys(cells)
        # Monotone in the lexicographic cell order, equal only on equal
        # cells.
        rows = [tuple(c) for c in cells.tolist()]
        order = sorted(range(len(rows)), key=rows.__getitem__)
        assert np.all(np.diff(keys[order]) >= 0)
        for i, j in zip(order, order[1:]):
            assert (keys[i] == keys[j]) == (rows[i] == rows[j])

    @pytest.mark.parametrize("dim", DIMS)
    def test_bucketing_survives_key_overflow(self, dim):
        """Cells spread past the int64 key span: ``pack_cell_keys``
        declines and ``bucket_by_cell`` groups row-wise, same result."""
        grid = Grid(0.9, dim)
        rng = np.random.RandomState(dim)
        a = rng.rand(60, dim) * 4.0 - 2.0
        a[::7, 0] = 3e17  # repeated far cells, on both sides of zero
        a[3::7, 0] = -3e17
        a[5::7, -1] = -1e17
        cells = np.floor(a / grid.side).astype(np.int64)
        assert kernels.pack_cell_keys(cells) is None
        _expect_buckets(kernels.bucket_by_cell(a, grid.side), a.tolist(), grid)

    @pytest.mark.parametrize("dim", DIMS)
    def test_box_kernels_identical(self, dim):
        a, _ = _data(dim, seed=dim + 17)
        lo = np.full(dim, 0.5)
        hi = np.full(dim, 1.2)
        got = kernels.box_sq_dists(a, lo, hi)
        box = (tuple(lo.tolist()), tuple(hi.tolist()))
        want = [box_min_sq_dist(box, row) for row in a.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        deltas = np.floor(a * 5).astype(np.int64) - 3
        grid = Grid(0.9, dim)
        origin = (0,) * dim
        want = [grid.cell_min_sq_dist(origin, tuple(d)) for d in deltas.tolist()]
        np.testing.assert_allclose(
            kernels.cell_gap_sq_dists(deltas, grid.side), want, rtol=1e-15, atol=0
        )


class TestAgainstOracles:
    """The kernels must match scalar first principles."""

    def test_counts_match_brute_force(self):
        a, b = _data(3, seed=2, n=60, m=45)
        sq_radius = EPS * EPS
        want = np.array(
            [sum(sq_dist(p, q) <= sq_radius for q in b) for p in a], dtype=np.int64
        )
        assert np.array_equal(kernels.ball_counts(a, b, sq_radius), want)
        assert kernels.any_within(a, b, sq_radius) == bool(want.any())
        assert kernels.count_within(a[3], b, sq_radius) == int(want[3])
        dm = kernels.distance_matrix(a, b)
        for i in (0, 17, 59):
            for j in (0, 21, 44):
                # The vectorized accumulation may differ from the scalar
                # loop in the last ulp; bit-identity with the vectorized
                # formula is the hard contract (asserted above).
                want_d = sq_dist(a[i], b[j])
                assert abs(dm[i, j] - want_d) <= 4 * np.spacing(want_d)

    def test_find_within_many_lowest_index_proof(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        got = kernels.find_within_many(
            np.array([[0.05, 0.0], [4.9, 5.0], [9.0, 9.0]]), [7, 8, 9], pts, 0.25
        )
        assert got == [7, 9, None]

    def test_empty_inputs(self):
        empty = np.empty((0, 2))
        b = np.array([[1.0, 2.0]])
        assert kernels.ball_counts(empty, b, 1.0).tolist() == []
        assert kernels.ball_counts(b, empty, 1.0).tolist() == [0]
        assert not kernels.any_within(empty, b, 1.0)
        assert kernels.count_within((0.0, 0.0), empty, 1.0) == 0
        assert kernels.distance_matrix(empty, b).shape == (0, 1)
        cells, offsets, order = kernels.bucket_by_cell(empty, 1.0)
        assert cells.shape == (0, 2) and cells.dtype == np.int64
        assert offsets.tolist() == [0]
        assert order.shape == (0,) and order.dtype == np.int64


class TestSortedUnique:
    """The sort-based dedup helper equals ``np.unique`` on id arrays."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [3, 3, 3],
            [5, 1, 5, 2, 1, 5],
            [-4, 0, -4, 9, -1, 0],
        ],
        ids=["empty", "singleton", "all-duplicates", "duplicates", "negative"],
    )
    def test_matches_np_unique(self, values):
        arr = np.asarray(values, dtype=np.int64)
        got = kernels.sorted_unique(arr)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(arr))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_matches_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(-1000, 1000, size=int(rng.integers(1, 4000)))
        assert np.array_equal(kernels.sorted_unique(arr), np.unique(arr))

    def test_input_is_not_modified(self):
        arr = np.array([4, 2, 4, 1], dtype=np.int64)
        kernels.sorted_unique(arr)
        assert arr.tolist() == [4, 2, 4, 1]


class TestChunking:
    """The ~64MB block cap: tiny caps must not change any output."""

    def test_blocked_outputs_identical(self, monkeypatch):
        a, b = _data(3, seed=9, n=150, m=130)
        sq_radius = EPS * EPS
        ids = list(range(len(b)))
        want = (
            kernels.ball_counts(a, b, sq_radius),
            kernels.distance_matrix(a, b),
            kernels.any_within(a, b, sq_radius),
            kernels.count_within(a[0], b, sq_radius),
            kernels.find_within_many(a, ids, b, sq_radius),
        )
        # The global cap bounds every tile too: dozens of chunks per call.
        monkeypatch.setattr(interface, "MAX_BLOCK_BYTES", TINY_BLOCK_BYTES)
        assert np.array_equal(kernels.ball_counts(a, b, sq_radius), want[0])
        assert np.array_equal(kernels.distance_matrix(a, b), want[1])
        assert kernels.any_within(a, b, sq_radius) == want[2]
        assert kernels.count_within(a[0], b, sq_radius) == want[3]
        assert kernels.find_within_many(a, ids, b, sq_radius) == want[4]

    def test_default_cap_is_64mb(self):
        assert interface.MAX_BLOCK_BYTES == 64 * 1024 * 1024
        assert interface.max_block_entries() == 8 * 1024 * 1024


class TestRegistry:
    def test_dispatchers_route_through_get_kernel(self, monkeypatch):
        """A wrapper over ``registry.get_kernel`` sees every kernel call,
        including the packing ``bucket_by_cell`` does internally."""
        seen = []
        lookup = registry.get_kernel

        def recording(name):
            seen.append(name)
            return lookup(name)

        monkeypatch.setattr(registry, "get_kernel", recording)
        a, b = _data(2, seed=4, n=20, m=15)
        kernels.distance_matrix(a, b)
        kernels.ball_counts(a, b, 0.1)
        kernels.any_within(a, b, 0.1)
        kernels.count_within(a[0], b, 0.1)
        kernels.find_within_many(a, list(range(len(b))), b, 0.1)
        kernels.bucket_by_cell(a, 0.5)
        kernels.box_sq_dists(a, np.zeros(2), np.ones(2))
        kernels.cell_gap_sq_dists(np.zeros((3, 2), dtype=np.int64), 0.5)
        assert sorted(set(seen)) == sorted(kernels.KERNEL_NAMES)


class TestEndToEnd:
    """Whole-clusterer results do not depend on the tile budget."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_clusterings_identical_across_tile_sizes(self, dim, monkeypatch):
        from conftest import clustered_points
        from repro.core.fullydynamic import FullyDynamicClusterer

        points = clustered_points(200, dim, seed=dim)
        results = []
        for block_bytes in (numpy_backend.CACHE_BLOCK_BYTES, TINY_BLOCK_BYTES):
            monkeypatch.setattr(numpy_backend, "CACHE_BLOCK_BYTES", block_bytes)
            algo = FullyDynamicClusterer(2.0, 5, rho=0.0, dim=dim)
            pids = algo.insert_many(points)
            algo.delete_many(pids[::4])
            result = algo.cgroup_by_many(list(algo.ids()))
            results.append((result.groups, result.noise))
        assert results[0] == results[1]

    def test_run_result_records_backend(self):
        from repro.core.semidynamic import SemiDynamicClusterer
        from repro.workload.runner import run_workload_batched
        from repro.workload.workload import generate_workload

        workload = generate_workload(60, 2, insert_fraction=1.0, seed=3)
        result = run_workload_batched(
            SemiDynamicClusterer(150.0, 5, dim=2), workload, batch_size=16
        )
        assert result.backend == "numpy"
