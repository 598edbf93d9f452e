"""Tests for the emptiness structure and the approximate range counter."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.emptiness import EmptinessStructure
from repro.geometry.points import sq_dist
from repro.geometry.range_count import ApproximateRangeCounter


class TestEmptinessStructure:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EmptinessStructure(2, 0.0, 0.1)
        with pytest.raises(ValueError):
            EmptinessStructure(2, 1.0, -0.1)

    def test_empty_structure_returns_none(self):
        s = EmptinessStructure(2, 1.0, 0.0)
        assert s.empty((0.0, 0.0)) is None

    def test_exact_mode_hit_and_miss(self):
        s = EmptinessStructure(2, 1.0, 0.0)
        s.insert(7, (3.0, 3.0))
        assert s.empty((3.5, 3.0)) == 7
        assert s.empty((5.0, 3.0)) is None

    def test_boundary_inclusive(self):
        s = EmptinessStructure(1, 1.0, 0.0)
        s.insert(1, (0.0,))
        assert s.empty((1.0,)) == 1

    def test_proof_point_within_relaxed(self):
        rng = random.Random(3)
        s = EmptinessStructure(2, 1.0, 0.5)
        pts = {}
        for pid in range(100):
            p = (rng.random() * 6, rng.random() * 6)
            pts[pid] = p
            s.insert(pid, p)
        for _ in range(200):
            q = (rng.random() * 6, rng.random() * 6)
            proof = s.empty(q)
            has_tight = any(sq_dist(p, q) <= 1.0 for p in pts.values())
            if has_tight:
                assert proof is not None
            if proof is not None:
                assert sq_dist(pts[proof], q) <= 1.5**2 + 1e-12

    def test_delete_then_miss(self):
        s = EmptinessStructure(2, 1.0, 0.0)
        s.insert(1, (0.0, 0.0))
        s.delete(1)
        assert s.empty((0.0, 0.0)) is None
        assert len(s) == 0

    def test_contains_and_ids(self):
        s = EmptinessStructure(2, 1.0, 0.0)
        s.insert(5, (1.0, 1.0))
        s.insert(6, (2.0, 2.0))
        assert 5 in s and 6 in s and 7 not in s
        assert sorted(s.ids()) == [5, 6]


class TestApproximateRangeCounter:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ApproximateRangeCounter(2, -1.0, 0.0)

    def test_exact_mode_counts(self):
        c = ApproximateRangeCounter(1, 1.0, 0.0)
        for pid, x in enumerate([0.0, 0.5, 1.0, 2.0]):
            c.insert(pid, (x,))
        assert c.count((0.0,)) == 3  # 0.0, 0.5, 1.0

    def test_count_bounds_random(self):
        rng = random.Random(17)
        c = ApproximateRangeCounter(3, 1.0, 0.3)
        pts = {}
        for pid in range(400):
            p = tuple(rng.random() * 5 for _ in range(3))
            pts[pid] = p
            c.insert(pid, p)
        for _ in range(80):
            q = tuple(rng.random() * 5 for _ in range(3))
            k = c.count(q)
            lo = sum(1 for p in pts.values() if sq_dist(p, q) <= 1.0)
            hi = sum(1 for p in pts.values() if sq_dist(p, q) <= 1.69 + 1e-12)
            assert lo <= k <= hi

    def test_stop_at_reaches_threshold(self):
        c = ApproximateRangeCounter(2, 1.0, 0.0)
        for pid in range(50):
            c.insert(pid, (0.0, 0.0))
        assert c.count((0.0, 0.0), stop_at=10) >= 10

    def test_count_after_deletions(self):
        c = ApproximateRangeCounter(2, 1.0, 0.0)
        for pid in range(20):
            c.insert(pid, (0.1 * pid, 0.0))
        for pid in range(0, 20, 2):
            c.delete(pid)
        expected = sum(1 for pid in range(1, 20, 2) if 0.1 * pid <= 1.0)
        assert c.count((0.0, 0.0)) == expected

    def test_point_accessor(self):
        c = ApproximateRangeCounter(2, 1.0, 0.0)
        c.insert(3, (1.5, 2.5))
        assert c.point(3) == (1.5, 2.5)
        assert 3 in c


class TestEmptyMany:
    """Batched emptiness must honour the scalar contract at every size."""

    def _filled(self, n, rho, seed=0, dim=2):
        import random as _random

        rng = _random.Random(seed)
        s = EmptinessStructure(dim, 1.0, rho)
        pts = {}
        for pid in range(n):
            p = tuple(rng.random() * 6 for _ in range(dim))
            pts[pid] = p
            s.insert(pid, p)
        return s, pts, rng

    @pytest.mark.parametrize("n", (5, 60, 400))
    def test_exact_mode_matches_scalar(self, n):
        """rho = 0: every answer is exact, small and large cells alike."""
        import numpy as np

        s, pts, rng = self._filled(n, rho=0.0, seed=n)
        qs = np.array([[rng.random() * 7, rng.random() * 7] for _ in range(150)])
        proofs = s.empty_many(qs)
        assert len(proofs) == 150
        for q, proof in zip(qs, proofs):
            assert (proof is None) == (s.empty(tuple(q)) is None)
            if proof is not None:
                assert sq_dist(pts[proof], tuple(q)) <= 1.0

    @pytest.mark.parametrize("n", (20, 400))
    def test_relaxed_mode_contract(self, n):
        import numpy as np

        s, pts, rng = self._filled(n, rho=0.4, seed=n + 1)
        sq_relaxed = 1.4 ** 2
        qs = np.array([[rng.random() * 7, rng.random() * 7] for _ in range(150)])
        for q, proof in zip(qs, s.empty_many(qs)):
            has_tight = any(sq_dist(p, tuple(q)) <= 1.0 for p in pts.values())
            if has_tight:
                assert proof is not None
            if proof is not None:
                assert sq_dist(pts[proof], tuple(q)) <= sq_relaxed + 1e-12

    def test_matrix_path_sees_buffer_without_flushing(self):
        """A bulk append is visible to the very next batched and scalar
        query, with ids and coordinates stored row for row."""
        import numpy as np

        s = EmptinessStructure(2, 1.0, 0.0)
        s.insert_many(
            np.array([1, 2], dtype=np.int64), np.array([[0.0, 0.0], [4.0, 4.0]])
        )
        assert len(s) == 2 and list(s.ids()) == [1, 2]
        queries = np.array([[0.5, 0.0], [4.0, 4.5], [2.0, 2.0]])
        proofs = s.empty_many(queries)
        assert proofs == [1, 2, None]
        assert [s.empty(q) for q in queries.tolist()] == proofs
        assert s.point(2) == (4.0, 4.0)

    def test_empty_inputs(self):
        import numpy as np

        s = EmptinessStructure(2, 1.0, 0.0)
        assert s.empty_many(np.empty((0, 2))) == []
        s.insert(1, (0.0, 0.0))
        assert s.empty_many(np.array([[3.0, 3.0]])) == [None]


class TestEmptyManyValidation:
    """Malformed query batches must fail up front with a clear
    ValueError, never as a numpy broadcast error deep in a kernel."""

    def _structure(self):
        s = EmptinessStructure(2, 1.0, 0.0)
        s.insert(1, (0.0, 0.0))
        return s

    def test_ragged_batch_rejected(self):
        with pytest.raises(ValueError, match="empty_many query"):
            self._structure().empty_many([(0.0, 0.0), (1.0,)])

    def test_object_array_rejected(self):
        import numpy as np

        ragged = np.empty(2, dtype=object)
        ragged[0] = (0.0, 0.0)
        ragged[1] = (1.0, 2.0, 3.0)
        with pytest.raises(ValueError, match="empty_many query"):
            self._structure().empty_many(ragged)

    def test_wrong_dimension_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match=r"expected \(n, 2\)"):
            self._structure().empty_many(np.zeros((3, 5)))
        # A single flat point is not an (n, dim) batch either.
        with pytest.raises(ValueError, match="empty_many query"):
            self._structure().empty_many(np.array([1.0, 2.0]))

    def test_non_finite_rejected_on_conversion(self):
        # Conversion-path inputs (anything but a ready float64 batch)
        # get the full validation, including the finite scan.
        with pytest.raises(ValueError, match="non-finite"):
            self._structure().empty_many([[float("nan"), 0.0]])

    def test_float64_batches_pass_straight_through(self):
        import numpy as np

        got = self._structure().empty_many(np.array([[0.5, 0.0], [5.0, 5.0]]))
        assert got == [1, None]

    def test_valid_lists_still_accepted(self):
        assert self._structure().empty_many([[0.5, 0.0], [5.0, 5.0]]) == [1, None]


class TestCounterMatrixPath:
    """The counting twin of the emptiness matrix path: small structures
    with buffered bulk insertions answer without indexing the buffer."""

    def test_count_sees_buffer_without_flushing(self):
        c = ApproximateRangeCounter(2, 1.0, 0.0)
        c.insert_many([(1, (0.0, 0.0)), (2, (0.5, 0.0)), (3, (4.0, 4.0))])
        assert c._pending  # still buffered
        assert c.count((0.0, 0.0)) == 2
        assert c._pending  # the kernel-backed count did not flush

    def test_matrix_count_matches_tree_count_exact(self):
        import random as _random

        rng = _random.Random(7)
        pts = [(rng.random() * 4, rng.random() * 4) for _ in range(100)]
        buffered = ApproximateRangeCounter(2, 1.0, 0.0)
        buffered.insert_many(list(enumerate(pts)))
        eager = ApproximateRangeCounter(2, 1.0, 0.0)
        for pid, p in enumerate(pts):
            eager.insert(pid, p)
        for q in pts[:25]:
            assert buffered.count(q) == eager.count(q)


_COORD = st.integers(-8, 8).map(lambda v: v / 4)  # exact squares: ties hit
_POINT = st.tuples(_COORD, _COORD)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _POINT),
        st.tuples(st.just("insert_many"), st.lists(_POINT, max_size=6)),
        st.tuples(st.just("delete"), st.integers(0, 99)),
        st.tuples(st.just("delete_many"), st.lists(st.integers(0, 99), max_size=5)),
        st.tuples(st.just("contains"), st.integers(0, 99)),
    ),
    max_size=30,
)


class TestFlatStoreProperties:
    """Random interleavings of the flat store's updates against a dict."""

    @settings(max_examples=60, deadline=None)
    @given(
        ops=_OPS,
        queries=st.lists(_POINT, min_size=1, max_size=6),
        rho=st.sampled_from([0.0, 0.5]),
    )
    def test_interleavings_match_brute_force(self, ops, queries, rho):
        import numpy as np

        eps = 1.0
        s = EmptinessStructure(2, eps, rho)
        live = {}
        next_id = 100  # ids unrelated to rows
        qs = np.array(queries, dtype=float)
        for kind, arg in ops:
            if kind == "insert":
                s.insert(next_id, arg)
                live[next_id] = arg
                next_id += 3
            elif kind == "insert_many":
                pids = list(range(next_id, next_id + 3 * len(arg), 3))
                s.insert_many(
                    np.array(pids, dtype=np.int64),
                    np.array(arg, dtype=float).reshape(-1, 2),
                )
                live.update(zip(pids, arg))
                next_id += 3 * len(arg)
            elif kind == "contains":
                assert (arg in s) == (arg in live)
            elif live:
                keys = sorted(live)
                picks = [arg] if kind == "delete" else arg
                gone = sorted({keys[i % len(keys)] for i in picks})
                if kind == "delete":
                    s.delete(gone[0])
                else:
                    s.delete_many(gone)
                for pid in gone:
                    del live[pid]
            # Ids and coordinates stay aligned row for row.
            ids, coords = s.arrays()
            assert len(s) == len(live) == len(ids)
            assert sorted(ids.tolist()) == sorted(live)
            for pid, row in zip(ids.tolist(), coords.tolist()):
                assert tuple(row) == live[pid] == s.point(pid)
            # Both radii of the contract, scalar and batched.
            proofs = s.empty_many(qs)
            for q, proof in zip(queries, proofs):
                assert proof == s.empty(q)
                if any(sq_dist(p, q) <= eps * eps for p in live.values()):
                    assert proof is not None
                if proof is None:
                    continue
                assert proof in live
                assert sq_dist(live[proof], q) <= (eps * (1 + rho)) ** 2

    def test_ids_checked_once_the_map_exists(self):
        import numpy as np

        s = EmptinessStructure(2, 1.0, 0.0)
        s.insert(1, (0.0, 0.0))
        assert 1 in s  # builds the id map
        with pytest.raises(KeyError):
            s.insert(1, (2.0, 2.0))
        with pytest.raises(KeyError):
            s.insert_many(np.array([5, 5]), np.zeros((2, 2)))
        with pytest.raises(KeyError):
            s.delete_many([1, 1])
        with pytest.raises(KeyError):
            s.delete(9)
        assert list(s.ids()) == [1] and s.empty((0.5, 0.0)) == 1
