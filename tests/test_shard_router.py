"""Unit tests of the sharding layer: topology, routing, error parity,
session barriers, and the epoch consistency token.

The differential clustering guarantees live in
``tests/test_shard_equivalence.py``; this module pins the contracts
around them — in particular the two satellite behaviors of the PR:

* **dead-pid error parity** — a ``delete_many`` (or query) naming an
  unknown id must raise the single engine's exact
  :class:`UnknownPointError`, with *no partial mutation on any shard*;
* **ingest-session barriers** — buffered runs spanning shards flush
  atomically on a query barrier, and a failed run is rejected before
  any shard mutates, with only that run discarded.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.api as api
from repro.api import EngineConfig
from repro.connectivity.union_find import UnionFind
from repro.errors import (
    ConfigError,
    ReproError,
    UnknownPointError,
    UnsupportedOperationError,
)
from repro.shard import ShardTopology, ShardedEngine
from repro.shard import router as router_module
from repro.workload.runner import run_workload_engine
from repro.workload.workload import generate_workload

from conftest import clustered_points


def _sharded(shards=3, block=2, **overrides):
    knobs = dict(
        algorithm="full", eps=2.5, minpts=5, dim=2,
        shards=shards, shard_block=block,
    )
    knobs.update(overrides)
    return api.open(**knobs)


def _shard_fingerprint(engine):
    """Per-shard (epoch, live size) — what "no mutation" is judged by."""
    return [(s.epoch, s.points) for s in engine.stats().per_shard]


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------


class TestTopology:
    def test_ownership_is_deterministic_across_instances(self):
        a = ShardTopology(eps=2.0, dim=3, rho=0.001, shard_count=5, block=4)
        b = ShardTopology(eps=2.0, dim=3, rho=0.001, shard_count=5, block=4)
        rng = random.Random(0)
        cells = [
            tuple(rng.randrange(-50, 50) for _ in range(3)) for _ in range(200)
        ]
        assert [a.owner_of_cell(c) for c in cells] == [
            b.owner_of_cell(c) for c in cells
        ]

    def test_vectorized_owners_match_scalar(self):
        import numpy as np

        topo = ShardTopology(eps=2.0, dim=2, rho=0.0, shard_count=7, block=3)
        rng = random.Random(1)
        cells = [
            tuple(rng.randrange(-40, 40) for _ in range(2)) for _ in range(300)
        ]
        vec = topo.owners_of_cells(np.asarray(cells, dtype=np.int64))
        assert vec.tolist() == [topo.owner_of_cell(c) for c in cells]

    @pytest.mark.parametrize("dim", (1, 2, 4, 5))
    def test_reach_covers_every_close_cell(self, dim):
        """No close cell may sit beyond the replication reach box."""
        topo = ShardTopology(
            eps=2.0, dim=dim, rho=0.1, shard_count=4, block=2
        )
        grid = topo.grid
        origin = (0,) * dim
        beyond = (topo.reach + 1,) + (0,) * (dim - 1)
        at_reach = (topo.reach,) + (0,) * (dim - 1)
        assert not grid.cells_close(origin, beyond)
        assert grid.cells_close(origin, at_reach)

    def test_close_cells_share_a_replica(self):
        """If two cells are close, each one's points reach the other's
        owner — the invariant that makes owned core status exact."""
        topo = ShardTopology(eps=2.0, dim=2, rho=0.001, shard_count=6, block=2)
        rng = random.Random(2)
        for _ in range(300):
            a = tuple(rng.randrange(-30, 30) for _ in range(2))
            b = tuple(
                ai + rng.randrange(-topo.reach, topo.reach + 1) for ai in a
            )
            if not topo.grid.cells_close(a, b):
                continue
            assert topo.owner_of_cell(a) in topo.replica_shards(b)
            assert topo.owner_of_cell(b) in topo.replica_shards(a)

    def test_owner_is_always_a_replica(self):
        topo = ShardTopology(eps=3.0, dim=3, rho=0.0, shard_count=5, block=4)
        rng = random.Random(3)
        for _ in range(100):
            cell = tuple(rng.randrange(-20, 20) for _ in range(3))
            assert topo.owner_of_cell(cell) in topo.replica_shards(cell)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


class TestConfig:
    def test_shard_knob_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig(eps=1.0, minpts=3, shards=0)
        with pytest.raises(ConfigError):
            EngineConfig(eps=1.0, minpts=3, shards=True)
        with pytest.raises(ConfigError):
            EngineConfig(eps=1.0, minpts=3, shard_block=4)  # needs shards
        with pytest.raises(ConfigError):
            EngineConfig(eps=1.0, minpts=3, shard_executor="serial")
        with pytest.raises(ConfigError):
            EngineConfig(eps=1.0, minpts=3, shards=2, shard_block=0)
        with pytest.raises(ConfigError):
            EngineConfig(eps=1.0, minpts=3, shards=2, shard_executor="mpi")

    def test_unshardeable_algorithms_rejected(self):
        for algorithm in ("incdbscan", "recompute"):
            with pytest.raises(ConfigError):
                EngineConfig(eps=1.0, minpts=3, algorithm=algorithm, shards=2)

    def test_open_dispatches_on_shards(self):
        assert isinstance(api.open(eps=1.0, minpts=3, shards=2), ShardedEngine)
        assert isinstance(api.open(eps=1.0, minpts=3), api.Engine)
        # An explicit shards=None override un-shards a sharded config.
        config = EngineConfig(eps=1.0, minpts=3, shards=2)
        assert isinstance(api.open(config, shards=None), api.Engine)

    def test_fragment_surface_requires_grid(self):
        engine = api.open(eps=1.0, minpts=3, algorithm="incdbscan")
        with pytest.raises(UnsupportedOperationError):
            engine.gum_edge_fragment()
        with pytest.raises(UnsupportedOperationError):
            engine.membership_fragments([0])


# ----------------------------------------------------------------------
# Dead-pid parity (satellite: all-or-nothing across the fan-out)
# ----------------------------------------------------------------------


class TestDeadPidParity:
    def _engines(self):
        single = api.open(algorithm="full", eps=2.5, minpts=5, dim=2)
        sharded = _sharded()
        points = clustered_points(120, 2, seed=9)
        single.ingest(points)
        pids = sharded.ingest(points)
        return single, sharded, pids

    def test_delete_many_unknown_pid_message_parity(self):
        single, sharded, pids = self._engines()
        with pytest.raises(UnknownPointError) as single_exc:
            single.delete_many([pids[0], 10_000, 99_999])
        with pytest.raises(UnknownPointError) as sharded_exc:
            sharded.delete_many([pids[0], 10_000, 99_999])
        assert str(sharded_exc.value) == str(single_exc.value)

    def test_delete_many_unknown_pid_mutates_no_shard(self):
        _, sharded, pids = self._engines()
        before = _shard_fingerprint(sharded)
        epoch_before = sharded.epoch
        with pytest.raises(UnknownPointError):
            sharded.delete_many([pids[3], pids[7], 424242])
        assert _shard_fingerprint(sharded) == before
        assert sharded.epoch == epoch_before  # rejected pre-routing
        assert len(sharded) == len(pids)
        # The named live pids are still deletable afterwards.
        sharded.delete_many([pids[3], pids[7]])
        assert len(sharded) == len(pids) - 2

    def test_scalar_delete_unknown_pid_message_parity(self):
        single, sharded, _ = self._engines()
        with pytest.raises(UnknownPointError) as single_exc:
            single.delete(31337)
        with pytest.raises(UnknownPointError) as sharded_exc:
            sharded.delete(31337)
        assert str(sharded_exc.value) == str(single_exc.value)

    def test_delete_many_duplicate_pid_parity(self):
        single, sharded, pids = self._engines()
        for engine in (single, sharded):
            with pytest.raises(ValueError, match="duplicate point ids"):
                engine.delete_many([pids[1], pids[1]])
        assert len(sharded) == len(pids)

    def test_query_dead_pid_message_parity(self):
        single, sharded, pids = self._engines()
        with pytest.raises(UnknownPointError) as single_exc:
            single.cgroup_by([pids[0], 777_777])
        with pytest.raises(UnknownPointError) as sharded_exc:
            sharded.cgroup_by([pids[0], 777_777])
        assert str(sharded_exc.value) == str(single_exc.value)

    def test_insert_only_family_rejects_deletions(self):
        sharded = api.open(
            algorithm="semi", eps=2.5, minpts=5, dim=2, shards=2
        )
        pids = sharded.ingest(clustered_points(40, 2, seed=4))
        with pytest.raises(UnsupportedOperationError):
            sharded.delete_many(pids[:2])
        with pytest.raises(UnsupportedOperationError):
            sharded.delete(pids[0])


# ----------------------------------------------------------------------
# Ingest sessions over the router (satellite: barrier semantics)
# ----------------------------------------------------------------------


class TestShardedSessions:
    def test_query_barrier_flushes_atomically_across_shards(self):
        sharded = _sharded(shards=4, block=1)
        points = clustered_points(150, 2, seed=11)
        single = api.open(algorithm="full", eps=2.5, minpts=5, dim=2)
        want_pids = single.ingest(points)
        with sharded.session(flush_threshold=1000) as session:
            got_pids = [session.ingest(p) for p in points]
            assert got_pids == want_pids
            assert session.pending_updates == len(points)
            assert len(sharded) == 0  # nothing routed yet
            outcome = session.cgroup_by(got_pids)  # the barrier
            assert session.pending_updates == 0
            assert len(sharded) == len(points)
            # Every shard saw its whole slice in the one flush.
            assert sharded.epoch == len(points)
            stats = sharded.stats()
            assert all(s.epoch == s.points for s in stats.per_shard)
        want = single.cgroup_by(want_pids)
        assert outcome.result.groups == want.result.groups
        assert outcome.result.noise == want.result.noise

    def test_failed_flush_discards_only_that_run_on_every_shard(self):
        sharded = _sharded(shards=3, block=1)
        seeded = sharded.ingest(clustered_points(60, 2, seed=12))
        sharded.delete_many([seeded[5]])  # make one id stale up front
        session = sharded.session(flush_threshold=1000)
        first = session.ingest_many(clustered_points(20, 2, seed=13))
        # A delete run naming the stale id: buffered now (both ids sit
        # below the watermark), rejected by router validation at flush.
        session.delete_many([seeded[0], seeded[5]])
        tail_point = (100.0, 100.0)
        predicted_tail = session.ingest(tail_point)
        before = _shard_fingerprint(sharded)
        with pytest.raises(UnknownPointError):
            session.flush()
        # The insert run before the poisoned delete run applied...
        assert len(sharded) == 59 + 20
        assert all(pid in sharded for pid in first)
        # ...the failed delete run was dropped without touching any
        # shard (fingerprints moved only by the applied insert run)...
        assert seeded[0] in sharded
        mid = _shard_fingerprint(sharded)
        assert mid != before
        # ...and the run *after* it stayed buffered: the retry applies
        # it exactly as predicted.
        assert session.pending_updates == 1
        session.flush()
        assert predicted_tail in sharded
        assert tuple(sharded.point(predicted_tail)) == tail_point

    def test_session_exit_on_exception_discards_everywhere(self):
        sharded = _sharded(shards=3, block=1)
        with pytest.raises(RuntimeError, match="boom"):
            with sharded.session() as session:
                session.ingest_many(clustered_points(25, 2, seed=14))
                raise RuntimeError("boom")
        assert len(sharded) == 0
        assert all(
            (s.epoch, s.points) == (0, 0) for s in sharded.stats().per_shard
        )


# ----------------------------------------------------------------------
# Epoch consistency token
# ----------------------------------------------------------------------


class TestEpochToken:
    def test_out_of_band_shard_write_fails_the_merge(self):
        sharded = _sharded(shards=2, block=2)
        pids = sharded.ingest(clustered_points(50, 2, seed=15))
        # Reach around the router and write to one shard directly: the
        # next merge must refuse to combine inconsistent snapshots.
        backend = sharded.raw.executor._backends[0]
        backend.engine.insert((3.0, 3.0))
        with pytest.raises(ReproError, match="out-of-band"):
            sharded.cgroup_by(pids)

    def test_sharded_stats_counts_replicas(self):
        sharded = _sharded(shards=3, block=1)
        pids = sharded.ingest(clustered_points(80, 2, seed=16))
        stats = sharded.stats()
        assert stats.points == len(pids) == len(sharded)
        assert stats.shards == 3
        assert stats.replicas == sum(s.points for s in stats.per_shard)
        assert stats.replicas >= stats.points
        assert stats.epoch == sharded.epoch == len(pids)


# ----------------------------------------------------------------------
# Runner + CLI integration
# ----------------------------------------------------------------------


class TestRunnerIntegration:
    def test_run_workload_engine_stamps_shard_count(self):
        workload = generate_workload(
            120, 2, insert_fraction=0.8, query_frequency=30, seed=5
        )
        engine = api.open(
            algorithm="full", eps=200.0, minpts=5, dim=2,
            shards=2, batch_size=40,
        )
        result = run_workload_engine(engine, workload)
        assert result.shards == 2
        assert "insert_many" in result.op_kinds
        single = api.open(algorithm="full", eps=200.0, minpts=5, dim=2)
        assert run_workload_engine(single, workload).shards == 1

    def test_cli_bench_with_shards(self, capsys):
        from repro.__main__ import main

        code = main([
            "bench", "--n", "120", "--shards", "2", "--seed", "3",
            "--format", "json", "full-exact",
        ])
        assert code == 0
        import json

        record = json.loads(capsys.readouterr().out)
        assert record["shards"] == 2
        entry = record["algorithms"][0]
        assert entry["shards"] == 2
        assert entry["config"]["shards"] == 2

    def test_cli_bench_rejects_unshardeable(self, capsys):
        from repro.__main__ import main

        code = main(["bench", "--n", "50", "--shards", "2", "incdbscan"])
        assert code == 2
        assert "cannot shard" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Label contract of the GUM fragment
# ----------------------------------------------------------------------


LABEL_KNOBS = dict(eps=1.0, minpts=5, dim=2, rho=0.0)


def _global_grid_graph(single):
    """First-principles core-cell components and witnessed cell pairs.

    Core status comes from the single engine; connectivity is computed
    from scratch: two core cells are adjacent when some pair of their
    core points lies within ``eps`` (the rho=0 grid-graph edge)."""
    raw = single.raw
    core = [pid for pid in raw.ids() if single.is_core(pid)]
    cells = [raw.cell_of(pid) for pid in core]
    coords = np.array([raw.point(pid) for pid in core]).reshape(-1, 2)
    sq = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1)
    uf = UnionFind()
    for cell in cells:
        uf.add(cell)
    witnessed = set()
    for a, b in zip(*np.nonzero(sq <= LABEL_KNOBS["eps"] ** 2)):
        if cells[a] != cells[b]:
            uf.union(cells[a], cells[b])
            witnessed.add((cells[a], cells[b]))
    return {cell: uf.find(cell) for cell in cells}, witnessed


def _check_labels(engine, single) -> int:
    """Every shard's labels are sound and complete; returns how many
    witnessed same-owner cell pairs the completeness check covered."""
    router = engine.raw
    replies = router.executor.map(
        [("merge_state", (None, router.topology.version))]
        * router.shard_count
    )
    component, witnessed = _global_grid_graph(single)
    seen = set()
    covered = 0
    for shard, (_, gum, _) in enumerate(replies):
        cells = list(map(tuple, gum.core_cells.tolist()))
        labels = gum.labels.tolist()
        assert len(cells) == len(labels) == len(set(cells))
        assert sorted(set(labels)) == list(range(len(set(labels))))
        assert all(router.topology.owner_of_cell(c) == shard for c in cells)
        assert seen.isdisjoint(cells)
        seen.update(cells)
        label_of = dict(zip(cells, labels))
        # sound: one label never spans two single-engine components
        by_label = {}
        for cell, label in label_of.items():
            by_label.setdefault(label, set()).add(component[cell])
        assert all(len(roots) == 1 for roots in by_label.values())
        # complete: witnessed owned pairs share a label
        for a, b in witnessed:
            if a in label_of and b in label_of:
                assert label_of[a] == label_of[b], (shard, a, b)
                covered += 1
    assert seen == set(component), "owned core cells != global core cells"
    return covered


def _label_contract_run(engine, single, algorithm, seed, shard_count):
    rng = np.random.default_rng(seed)
    points = np.array(clustered_points(900, 2, seed=seed, spread=1.0))
    live_engine, live_single = [], []
    covered = transferred = 0
    for step, chunk in enumerate(np.array_split(points, 6)):
        live_engine += engine.ingest(chunk)
        live_single += single.ingest(chunk)
        if algorithm == "full":
            drop = sorted(
                rng.choice(len(live_engine), size=len(chunk) // 4,
                           replace=False).tolist(),
                reverse=True,
            )
            engine.delete_many([live_engine.pop(i) for i in drop])
            single.delete_many([live_single.pop(i) for i in drop])
        if step == 2 and shard_count > 1:
            router = engine.raw
            anchor = router.point(live_engine[0])
            block = router.topology.block_of(router._grid.cell_of(anchor))
            dest = (router.topology.owner_of_block(block) + 1) % shard_count
            routed = router._routed[dest]
            engine.rebalance(block, dest)
            transferred = router._routed[dest] - routed
        covered += _check_labels(engine, single)
    assert covered > 0, "no witnessed same-owner pair was checked"
    if shard_count > 1:
        assert transferred > 0, "the rebalance moved no points"


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("algorithm", ("semi", "full"))
def test_shard_labels_are_sound_and_complete(algorithm, seed, shard_count):
    """At rho=0, for every shard: owned core cells with equal labels are
    connected in a single engine (sound), and owned core cells with an
    exact witness between them share a label (complete) — through
    inserts, deletes (full) and a rebalance that moves points."""
    knobs = dict(LABEL_KNOBS, algorithm=algorithm)
    engine = api.open(
        **knobs, shards=shard_count, shard_block=16, shard_executor="serial"
    )
    single = api.open(**knobs)
    try:
        _label_contract_run(engine, single, algorithm, seed, shard_count)
    finally:
        engine.close()
        single.close()


@pytest.mark.parametrize("algorithm", ("semi", "full"))
def test_shard_labels_after_a_merge_crash(algorithm):
    """A worker that crashes inside ``merge_state`` restarts from its
    journal and reports the labels of its rebuilt engine, which obey the
    same contract."""
    knobs = dict(LABEL_KNOBS, algorithm=algorithm)
    engine = api.open(
        **knobs, shards=2, shard_block=16, shard_executor="process",
        shard_fault_plan="crash:merge_state:1:shard=0",
    )
    single = api.open(**knobs)
    try:
        _label_contract_run(engine, single, algorithm, 3, 2)
        assert engine.restarts == 1
    finally:
        engine.close()
        single.close()


# ----------------------------------------------------------------------
# Witness-cache invalidation
# ----------------------------------------------------------------------


def _chebyshev(a, b) -> int:
    return max(abs(x - y) for x, y in zip(a, b))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("dim", (2, 3))
def test_witness_invalidation_matches_brute_force(monkeypatch, dim, seed):
    """A cached pair is dropped exactly when one of its cells lies within
    the closeness reach (Chebyshev) of a dirty cell — on random pairs
    and dirty sets, over several chunks of the vectorized test."""
    monkeypatch.setattr(router_module, "_NEAR_CHUNK", 7)
    engine = _sharded(shards=2, dim=dim, shard_executor="serial")
    try:
        router = engine.raw
        reach = router.topology.reach
        rng = random.Random(seed)

        def cell():
            return tuple(rng.randint(-4 * reach, 4 * reach) for _ in range(dim))

        pairs = {(cell(), cell()) for _ in range(rng.randint(1, 60))}
        dirty = {cell() for _ in range(rng.randint(1, 25))}
        router._witness_cache.update((pair, rng.random() < 0.5) for pair in pairs)
        router._dirty_cells.update(dirty)
        before = router.merge_cache_invalidations
        router._invalidate_witnesses()

        stale = {
            pair
            for pair in pairs
            if any(_chebyshev(c, d) <= reach for c in pair for d in dirty)
        }
        assert set(router._witness_cache) == pairs - stale
        assert router.merge_cache_invalidations - before == len(stale)
        assert not router._dirty_cells
    finally:
        engine.close()


def test_witness_cache_cleared_past_the_dirty_limit(monkeypatch):
    monkeypatch.setattr(router_module, "_WITNESS_CLEAR_DIRTY", 3)
    engine = _sharded(shards=2, shard_executor="serial")
    try:
        router = engine.raw
        far = 100 * router.topology.reach
        router._witness_cache[((far, far), (far, far + 1))] = True
        router._dirty_cells.update((0, i) for i in range(4))
        router._invalidate_witnesses()
        assert not router._witness_cache and not router._dirty_cells
    finally:
        engine.close()
