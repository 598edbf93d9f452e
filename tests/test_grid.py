"""Tests for the grid geometry and neighbor discovery strategies."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.grid import Grid
from repro.geometry.points import sq_dist


class TestGeometry:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Grid(0.0, 2)
        with pytest.raises(ValueError):
            Grid(1.0, 0)
        with pytest.raises(ValueError):
            Grid(1.0, 2, rho=-0.5)
        with pytest.raises(ValueError):
            Grid(1.0, 2, strategy="bogus")

    def test_side_length(self):
        g = Grid(2.0, 4)
        assert g.side == pytest.approx(1.0)
        g3 = Grid(3.0, 3)
        assert g3.side == pytest.approx(3.0 / math.sqrt(3))

    def test_same_cell_within_eps(self):
        """The defining property: any two points in one cell are <= eps apart."""
        rng = random.Random(0)
        for dim in (1, 2, 3, 5, 7):
            g = Grid(1.0, dim)
            for _ in range(200):
                base = tuple(rng.uniform(-5, 5) for _ in range(dim))
                cell = g.cell_of(base)
                other = tuple(
                    (c + rng.random()) * g.side for c in cell
                )
                assert g.cell_of(other) == cell or any(
                    abs((b / g.side) - round(b / g.side)) < 1e-9 for b in other
                )
                if g.cell_of(other) == cell:
                    assert sq_dist(base, other) <= 1.0 + 1e-9

    def test_cell_of_negative_coordinates(self):
        g = Grid(1.0, 2)
        cell = g.cell_of((-0.1, -0.1))
        assert cell == (-1, -1)

    def test_cell_min_dist_adjacent_is_zero(self):
        g = Grid(1.0, 2)
        assert g.cell_min_sq_dist((0, 0), (0, 1)) == 0.0
        assert g.cell_min_sq_dist((0, 0), (1, 1)) == 0.0

    def test_cell_min_dist_gap(self):
        g = Grid(1.0, 2)
        d = g.cell_min_sq_dist((0, 0), (3, 0))
        assert d == pytest.approx((2 * g.side) ** 2)

    def test_cells_close_symmetric(self):
        g = Grid(1.0, 3)
        assert g.cells_close((0, 0, 0), (2, 1, 0))
        assert g.cells_close((2, 1, 0), (0, 0, 0))

    def test_cell_box(self):
        g = Grid(2.0, 2)
        lo, hi = g.cell_box((1, -1))
        assert lo == pytest.approx((g.side, -g.side))
        assert hi == pytest.approx((2 * g.side, 0.0))

    def test_threshold_includes_rho(self):
        g0 = Grid(1.0, 2, rho=0.0)
        g5 = Grid(1.0, 2, rho=0.5)
        assert g5.threshold == pytest.approx(1.5)
        assert len(g5.offsets) >= len(g0.offsets)


class TestOffsets:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_offsets_match_predicate(self, dim):
        """Every offset in the table is close; near-misses are excluded."""
        g = Grid(1.0, dim)
        table = set(g.offsets)
        origin = tuple([0] * dim)
        reach = int(math.ceil(g.threshold / g.side)) + 2
        for delta in _all_offsets(dim, reach):
            if delta == origin:
                continue
            expected = g.cells_close(origin, delta)
            assert (delta in table) == expected, delta

    def test_offsets_exclude_zero(self):
        g = Grid(1.0, 2)
        assert (0, 0) not in g.offsets

    def test_2d_offset_count(self):
        # side = eps/sqrt(2); cells with |delta| <= 2 minus far corners.
        g = Grid(1.0, 2)
        # (±2, ±2) has gap sqrt(2)*side*sqrt(2) = ... compute directly:
        expected = sum(
            1
            for dx in range(-3, 4)
            for dy in range(-3, 4)
            if (dx, dy) != (0, 0) and g.cells_close((0, 0), (dx, dy))
        )
        assert len(g.offsets) == expected


def _all_offsets(dim, reach):
    if dim == 0:
        yield ()
        return
    for rest in _all_offsets(dim - 1, reach):
        for x in range(-reach, reach + 1):
            yield (x, *rest)


class TestNeighborDiscovery:
    @pytest.mark.parametrize("strategy", ["offsets", "scan"])
    def test_strategies_agree(self, strategy):
        rng = random.Random(4)
        registry = {}
        g = Grid(1.0, 3, strategy=strategy)
        for _ in range(150):
            p = tuple(rng.uniform(0, 6) for _ in range(3))
            registry[g.cell_of(p)] = True
        reference = Grid(1.0, 3, strategy="scan")
        for cell in list(registry)[:40]:
            got = set(g.neighbors_of(cell, registry))
            want = set(reference.neighbors_of(cell, registry))
            assert got == want

    def test_neighbors_excludes_self(self):
        g = Grid(1.0, 2)
        registry = {(0, 0): True, (0, 1): True}
        assert (0, 0) not in g.neighbors_of((0, 0), registry)
        assert (0, 1) in g.neighbors_of((0, 0), registry)

    def test_auto_strategy_runs_high_dim(self):
        g = Grid(1.0, 7, strategy="auto")
        registry = {tuple([0] * 7): True, tuple([1] * 7): True}
        got = g.neighbors_of(tuple([0] * 7), registry)
        assert got == [tuple([1] * 7)]

    def test_bounding_cells(self):
        g = Grid(1.0, 2)
        cells = g.bounding_cells([(0.1, 0.1), (0.2, 0.2), (5.0, 5.0)])
        assert len(cells) == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(0.5, 5.0),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
)
def test_hypothesis_closeness_matches_point_distance(dim, eps, ca, cb):
    """If two cells contain points within eps, they must be close."""
    g = Grid(eps, dim)
    a = ca[:dim]
    b = cb[:dim]
    # Closest possible points of the two cells:
    pa = []
    pb = []
    for i in range(dim):
        if a[i] < b[i]:
            pa.append((a[i] + 1) * g.side)
            pb.append(b[i] * g.side)
        elif a[i] > b[i]:
            pa.append(a[i] * g.side)
            pb.append((b[i] + 1) * g.side)
        else:
            pa.append(a[i] * g.side)
            pb.append(a[i] * g.side)
    closest = math.sqrt(sq_dist(tuple(pa), tuple(pb)))
    if closest <= eps * 0.999:
        assert g.cells_close(tuple(a), tuple(b))
    if closest > eps * 1.001:
        assert not g.cells_close(tuple(a), tuple(b))


class TestNegativeCoordinateFlooring:
    """Regression: cell_of must floor (not truncate) negative coordinates,
    and the vectorized batch bucketing must agree with it exactly."""

    def test_flooring_across_zero(self):
        g = Grid(1.0, 1)
        side = g.side
        assert g.cell_of((-1e-9,)) == (-1,)
        assert g.cell_of((0.0,)) == (0,)
        assert g.cell_of((-side,)) == (-1,)
        assert g.cell_of((-side - 1e-9,)) == (-2,)
        assert g.cell_of((-2.5 * side,)) == (-3,)

    def test_point_always_inside_its_cell_box(self):
        rng = random.Random(13)
        for dim in (1, 2, 3, 5):
            g = Grid(1.7, dim)
            for _ in range(300):
                p = tuple(rng.uniform(-20, 20) for _ in range(dim))
                lo, hi = g.cell_box(g.cell_of(p))
                assert all(
                    lo[i] <= p[i] <= hi[i] for i in range(dim)
                ), f"{p} escapes box of {g.cell_of(p)}"

    def test_vectorized_bucketing_matches_cell_of(self):
        import numpy as np

        from repro.kernels import bucket_by_cell

        rng = random.Random(7)
        for dim in (1, 2, 3):
            g = Grid(0.9, dim)
            pts = [
                tuple(rng.uniform(-30, 30) for _ in range(dim))
                for _ in range(500)
            ]
            arr = np.asarray(pts, dtype=float)
            cells, offsets, order = bucket_by_cell(arr, g.side)
            seen = {}
            bounds = offsets.tolist()
            for k, cell in enumerate(map(tuple, cells.tolist())):
                for i in order[bounds[k]:bounds[k + 1]].tolist():
                    seen[i] = cell
            assert len(seen) == len(pts)
            for i, p in enumerate(pts):
                assert seen[i] == g.cell_of(p)
