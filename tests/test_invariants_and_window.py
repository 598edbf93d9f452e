"""Tests for the invariant auditor and the sliding-window wrapper."""

from __future__ import annotations

import random
from collections import deque

import pytest

import repro.api as api
from repro.analysis.window import WindowedEngine
from repro.baselines.static_dbscan import dbscan_brute
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.errors import ConfigError, UnsupportedOperationError
from repro.validation import check_invariants

from conftest import assert_matches_static, clustered_points


class TestInvariantAuditor:
    def test_fresh_clusterer_is_healthy(self):
        algo = FullyDynamicClusterer(1.0, 3, rho=0.0, dim=2)
        assert check_invariants(algo) == []

    @pytest.mark.parametrize("rho", [0.0, 0.1])
    def test_healthy_throughout_churn(self, rho):
        rng = random.Random(5)
        pts = clustered_points(100, 2, seed=5)
        algo = FullyDynamicClusterer(2.0, 4, rho=rho, dim=2)
        live = []
        for i, p in enumerate(pts):
            live.append(algo.insert(p))
            if i % 3 == 1:
                algo.delete(live.pop(rng.randrange(len(live))))
            if i % 10 == 9:
                assert check_invariants(algo) == []
        assert check_invariants(algo) == []

    def test_detects_injected_corruption_core_set(self):
        """Failure injection: flip a point's core flag behind the
        algorithm's back — the auditor must notice."""
        algo = FullyDynamicClusterer(1.0, 3, rho=0.0, dim=2)
        ids = [algo.insert(p) for p in [(0, 0), (0.2, 0), (0, 0.2), (9, 9)]]
        data = algo._cells[algo.cell_of(ids[3])]
        data.core.add(ids[3])  # corrupt: noise point marked core
        data.noncore.discard(ids[3])
        assert check_invariants(algo) != []

    def test_detects_injected_corruption_neighbors(self):
        algo = FullyDynamicClusterer(1.0, 3, rho=0.0, dim=2)
        a = algo.insert((0.0, 0.0))
        algo.insert((50.0, 50.0))
        cell = algo.cell_of(a)
        algo._cells[cell].neighbors.add((999, 999))  # corrupt cache
        assert any("neighbor" in p for p in check_invariants(algo))

    def test_detects_noncore_point_in_dense_cell(self):
        algo = FullyDynamicClusterer(1.0, 3, rho=0.0, dim=2)
        ids = [algo.insert(p) for p in [(0, 0), (0.2, 0), (0, 0.2)]]
        data = algo._cells[algo.cell_of(ids[0])]
        assert data.core == set(ids)
        # corrupt: demote one point of the dense cell behind the back
        data.core.discard(ids[0])
        data.noncore.add(ids[0])
        data.emptiness.delete(ids[0])
        problems = check_invariants(algo)
        assert any("dense cell" in p for p in problems), problems

    def test_detects_stale_edge(self):
        algo = FullyDynamicClusterer(1.0, 2, rho=0.0, dim=1)
        ids = [algo.insert((float(i) * 0.5,)) for i in range(8)]
        # Inject a bogus edge between two existing core cells that the
        # instances do not witness... instead corrupt by removing one:
        cells = [c for c, d in algo._cells.items() if d.core]
        if len(cells) >= 2:
            # find a witnessed pair and kill the witness behind the back
            data = algo._cells[cells[0]]
            for other, (inst, side) in data.abcp.items():
                if inst.witness is not None:
                    inst.witness = None
                    break
            else:
                pytest.skip("no witnessed pair to corrupt")
            assert any("stale CC edge" in p or "edges" in p
                       for p in check_invariants(algo))


class TestSlidingWindow:
    """Per-point sliding-window behaviour, through :class:`WindowedEngine`."""

    @staticmethod
    def _window(capacity, eps, minpts, rho=0.0, dim=2):
        engine = api.open(
            algorithm="full", eps=eps, minpts=minpts, rho=rho, dim=dim
        )
        return WindowedEngine(engine, capacity)

    def test_capacity_validation(self):
        with api.open(algorithm="full", eps=1.0, minpts=3) as engine:
            with pytest.raises(ConfigError):
                WindowedEngine(engine, 0)

    def test_respects_capacity(self):
        with self._window(5, 1.0, 2, dim=1) as win:
            for i in range(12):
                win.append((float(i),))
            assert len(win) == 5
            assert len(win.engine) == 5

    def test_oldest_and_newest(self):
        with self._window(3, 1.0, 2, dim=1) as win:
            ids = [win.append((float(i),)) for i in range(3)]
            assert win.oldest() == ids[0]
            assert win.newest() == ids[2]
            win.append((3.0,))
            assert win.oldest() == ids[1]

    def test_empty_window(self):
        with self._window(3, 1.0, 2) as win:
            assert win.oldest() is None and win.newest() is None
            assert len(win) == 0

    def test_window_contents_match_static(self):
        pts = clustered_points(60, 2, seed=9)
        with self._window(25, 2.0, 4) as win:
            for p in pts:
                win.append(p)
            live_ids = win.ids()
            live_pts = [win.engine.point(pid) for pid in live_ids]
            idmap = {pid: i for i, pid in enumerate(live_ids)}
            assert_matches_static(
                win.snapshot().clustering, idmap, dbscan_brute(live_pts, 2.0, 4)
            )

    def test_queries_work_through_wrapper(self):
        with self._window(10, 1.0, 2, dim=1) as win:
            a = win.append((0.0,))
            b = win.append((0.5,))
            c = win.append((8.0,))
            result = win.cgroup_by([a, b, c])
            assert {a, b} in result.group_sets()
            assert win.engine.raw.same_cluster(a, b)
            assert not win.engine.raw.same_cluster(a, c)

    def test_invariants_hold_through_window_churn(self):
        pts = clustered_points(80, 2, seed=10)
        with self._window(20, 2.0, 4, rho=0.01) as win:
            for i, p in enumerate(pts):
                win.append(p)
                if i % 15 == 14:
                    assert check_invariants(win.engine.raw) == []


class TestWindowedEngine:
    """The engine-native sliding window (satellite of the service PR).

    The load-bearing contract: ``append_many`` is *defined* as
    ``ingest`` + ``delete_many(oldest)`` and nothing else, so windowed
    results are bit-identical at ``rho = 0`` to a caller doing the
    explicit expiry by hand.
    """

    @staticmethod
    def _engine(**overrides):
        knobs = dict(algorithm="full", eps=2.0, minpts=3, rho=0.0, dim=2)
        knobs.update(overrides)
        return api.open(**knobs)

    def test_capacity_validation(self):
        with self._engine() as engine:
            for bad in (0, -1, True, 1.5, "8", None):
                with pytest.raises(ConfigError):
                    WindowedEngine(engine, bad)

    def test_rejects_insert_only_engine(self):
        with api.open(algorithm="semi", eps=2.0, minpts=3, dim=2) as engine:
            with pytest.raises(UnsupportedOperationError):
                WindowedEngine(engine, 10)

    @pytest.mark.parametrize("batch_size", [1, 3, 7])
    def test_expiry_equivalence_vs_explicit_delete_many(self, batch_size):
        """Bit-identical to explicit oldest-first expiry at rho=0."""
        pts = clustered_points(90, 2, seed=21)
        batches = [
            pts[i : i + batch_size] for i in range(0, len(pts), batch_size)
        ]
        capacity = 25
        windowed = WindowedEngine(self._engine(), capacity)
        explicit = self._engine()
        fifo = deque()
        try:
            for batch in batches:
                batch = [list(p) for p in batch]
                pids, expired = windowed.append_many(batch)
                want_pids = explicit.ingest(batch)
                fifo.extend(want_pids)
                want_expired = []
                while len(fifo) > capacity:
                    want_expired.append(fifo.popleft())
                if want_expired:
                    explicit.delete_many(want_expired)
                assert pids == want_pids
                assert expired == want_expired
                assert len(windowed) == len(fifo)
                got = windowed.snapshot()
                want = explicit.snapshot()
                assert sorted(sorted(c) for c in got.clusters) == sorted(
                    sorted(c) for c in want.clusters
                )
                assert sorted(got.noise) == sorted(want.noise)
                assert windowed.epoch == explicit.epoch
            # Spot-check a query pass-through on the final state.
            live = windowed.ids()
            got_outcome = windowed.cgroup_by_many(live)
            want_outcome = explicit.cgroup_by_many(live)
            assert got_outcome.groups == want_outcome.groups
            assert got_outcome.noise == want_outcome.noise
        finally:
            windowed.close()
            explicit.close()

    def test_batch_equal_to_capacity_replaces_window(self):
        with WindowedEngine(self._engine(), 4) as win:
            first, expired = win.append_many(
                [[float(i), 0.0] for i in range(4)]
            )
            assert expired == []
            second, expired = win.append_many(
                [[float(i), 5.0] for i in range(4)]
            )
            assert expired == first
            assert win.ids() == second

    def test_batch_larger_than_capacity_expires_own_head(self):
        """Overflow expires points of the arriving batch itself."""
        with WindowedEngine(self._engine(), 3) as win:
            pids, expired = win.append_many(
                [[float(i), 0.0] for i in range(5)]
            )
            assert pids == [0, 1, 2, 3, 4]
            assert expired == [0, 1]
            assert win.ids() == [2, 3, 4]
            assert len(win.engine) == 3

    def test_capacity_one_keeps_only_newest(self):
        with WindowedEngine(self._engine(), 1) as win:
            for i in range(5):
                pid = win.append([float(i), 0.0])
                assert win.ids() == [pid]
                assert win.oldest() == win.newest() == pid
            assert len(win.engine) == 1

    def test_empty_batch_is_a_no_op(self):
        with WindowedEngine(self._engine(), 3) as win:
            pids, expired = win.append_many([])
            assert pids == [] and expired == []
            assert len(win) == 0 and win.epoch == 0
            assert win.oldest() is None and win.newest() is None

    def test_empty_window_queries(self):
        with WindowedEngine(self._engine(), 3) as win:
            snap = win.snapshot()
            assert snap.clusters == []
            outcome = win.cgroup_by_many([])
            assert outcome.groups == [] and outcome.noise == []

    def test_membership_and_fifo_order(self):
        with WindowedEngine(self._engine(), 3) as win:
            pids, _ = win.append_many([[0.0, 0.0], [1.0, 0.0]])
            third, expired = win.append_many([[2.0, 0.0], [3.0, 0.0]])
            assert expired == [pids[0]]
            assert pids[0] not in win
            assert all(p in win for p in [pids[1]] + third)
            assert win.ids() == [pids[1]] + third

    def test_close_is_idempotent_and_context_manager(self):
        win = WindowedEngine(self._engine(), 5)
        win.append([0.0, 0.0])
        win.close()
        assert win.engine.closed
        win.close()  # second close is a no-op via the engine's own

    def test_works_over_sharded_engine(self):
        """The window drives a ShardedEngine identically (rho=0)."""
        sharded = WindowedEngine(
            self._engine(shards=4, shard_executor="serial"), 15
        )
        plain = WindowedEngine(self._engine(), 15)
        pts = clustered_points(45, 2, seed=31)
        try:
            for i in range(0, len(pts), 5):
                batch = [list(p) for p in pts[i : i + 5]]
                got = sharded.append_many(batch)
                want = plain.append_many(batch)
                assert got == want
            got_snap = sharded.snapshot()
            want_snap = plain.snapshot()
            assert sorted(sorted(c) for c in got_snap.clusters) == sorted(
                sorted(c) for c in want_snap.clusters
            )
            assert sorted(got_snap.noise) == sorted(want_snap.noise)
        finally:
            sharded.close()
            plain.close()
