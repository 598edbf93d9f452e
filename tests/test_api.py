"""Behavior of the `repro.api` facade: config, engine, ingest sessions.

The engine-vs-direct output equivalence suite lives in
``tests/test_engine_equivalence.py``; this file covers the facade's own
semantics — typed config validation and normalization, epoch stamping,
protocol compatibility with the workload runners, and the buffered
ingest session's flush/barrier contract.
"""

from __future__ import annotations

import pytest

import repro
import repro.api as api
from repro.api import Engine, EngineConfig, IngestSession, QueryOutcome, Snapshot
from repro.baselines.incdbscan import IncDBSCAN
from repro.baselines.naive_dynamic import RecomputeClusterer
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.errors import (
    ConfigError,
    ReproError,
    UnknownPointError,
    UnsupportedOperationError,
)

from conftest import clustered_points


def _full_engine(**overrides) -> Engine:
    knobs = dict(algorithm="full", eps=1.0, minpts=3, dim=2)
    knobs.update(overrides)
    return api.open(**knobs)


class TestEngineConfig:
    def test_frozen(self):
        config = EngineConfig(eps=1.0, minpts=5)
        with pytest.raises(AttributeError):
            config.eps = 2.0

    def test_alias_resolution_by_rho(self):
        """Aliases stay as given; resolved_algorithm is the canonical name."""
        config = EngineConfig(eps=1.0, minpts=5, algorithm="semi")
        assert config.algorithm == "semi"
        assert config.resolved_algorithm == "semi-exact"
        assert (
            EngineConfig(eps=1.0, minpts=5, algorithm="semi", rho=0.01).resolved_algorithm
            == "semi-approx"
        )
        assert (
            EngineConfig(eps=1.0, minpts=5, algorithm="full").resolved_algorithm
            == "full-exact"
        )
        assert (
            EngineConfig(eps=1.0, minpts=5, algorithm="full", rho=0.01).resolved_algorithm
            == "double-approx"
        )
        canonical = EngineConfig(eps=1.0, minpts=5, algorithm="double-approx", rho=0.01)
        assert canonical.resolved_algorithm == canonical.algorithm

    def test_alias_survives_rho_override(self):
        """replace()/open(config, rho=...) re-resolves a family alias
        instead of contradicting an eagerly-frozen exact choice."""
        config = EngineConfig(eps=1.0, minpts=5, algorithm="full")
        assert config.resolved_algorithm == "full-exact"
        approx = config.replace(rho=0.001)
        assert approx.resolved_algorithm == "double-approx"
        assert api.open(config, rho=0.001).config.resolved_algorithm == "double-approx"
        # An explicitly exact name still rejects the contradiction.
        with pytest.raises(ConfigError, match="exact by definition"):
            EngineConfig(eps=1.0, minpts=5, algorithm="full-exact").replace(rho=0.001)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            EngineConfig(eps=1.0, minpts=5, algorithm="quantum-dbscan")

    def test_exact_rho_contradiction(self):
        with pytest.raises(ConfigError, match="exact by definition"):
            EngineConfig(eps=1.0, minpts=5, algorithm="full-exact", rho=0.01)
        with pytest.raises(ConfigError, match="no rho parameter"):
            EngineConfig(eps=1.0, minpts=5, algorithm="incdbscan", rho=0.01)

    @pytest.mark.parametrize(
        "knobs, match",
        [
            (dict(eps=float("nan")), "finite"),
            (dict(eps="wide"), "number"),
            (dict(minpts=2.5), "integer"),
            (dict(batch_size=0), "batch_size"),
            (dict(batch_size=True), "batch_size"),
            (dict(flush_threshold=0), "flush_threshold"),
        ],
    )
    def test_knob_validation(self, knobs, match):
        base = dict(eps=1.0, minpts=5)
        base.update(knobs)
        with pytest.raises(ConfigError, match=match):
            EngineConfig(**base)

    def test_replace_revalidates(self):
        config = EngineConfig(eps=1.0, minpts=5)
        assert config.replace(dim=3).dim == 3
        with pytest.raises(ConfigError):
            config.replace(eps=-1.0)

    def test_as_dict_roundtrip(self):
        config = EngineConfig(eps=2.0, minpts=7, algorithm="full", rho=0.001, dim=3)
        assert EngineConfig(**config.as_dict()) == config

    def test_build_clusterer_types(self):
        cases = {
            "semi-exact": SemiDynamicClusterer,
            "semi-approx": SemiDynamicClusterer,
            "full-exact": FullyDynamicClusterer,
            "double-approx": FullyDynamicClusterer,
            "incdbscan": IncDBSCAN,
            "recompute": RecomputeClusterer,
        }
        for name, cls in cases.items():
            rho = 0.001 if name.endswith("approx") else 0.0
            config = EngineConfig(eps=1.0, minpts=5, algorithm=name, rho=rho)
            clusterer = config.build_clusterer()
            assert type(clusterer) is cls
            if hasattr(clusterer, "rho"):
                assert clusterer.rho == config.effective_rho


class TestEngineFacade:
    def test_open_variants_are_equivalent(self):
        config = EngineConfig(eps=1.0, minpts=3, dim=2)
        assert Engine.open(config).config == api.open(eps=1.0, minpts=3).config
        overridden = api.open(config, dim=3)
        assert overridden.config.dim == 3

    def test_open_rejects_bad_knobs(self):
        with pytest.raises(ConfigError):
            api.open(eps=1.0, minpts=3, nonsense=True)

    def test_epoch_counts_update_operations(self):
        engine = _full_engine()
        pids = engine.ingest([(0.0, 0.0), (0.1, 0.1), (5.0, 5.0)])
        assert engine.epoch == 3
        engine.insert((0.2, 0.2))
        assert engine.epoch == 4
        engine.delete(pids[2])
        assert engine.epoch == 5
        engine.delete_many(pids[:2])
        assert engine.epoch == 7

    def test_query_outcome_is_epoch_stamped(self):
        engine = _full_engine()
        pids = engine.ingest([(0.0, 0.0), (0.1, 0.1), (0.2, 0.2)])
        outcome = engine.cgroup_by(pids)
        assert isinstance(outcome, QueryOutcome)
        assert outcome.epoch == engine.epoch == 3
        assert outcome.backend == engine.backend
        assert outcome.groups == [sorted(pids)]
        assert outcome.noise == []
        assert outcome.group_sets() == [set(pids)]

    def test_snapshot_and_stats(self):
        engine = _full_engine()
        engine.ingest([(0.0, 0.0), (0.1, 0.1), (0.2, 0.2), (9.0, 9.0)])
        snap = engine.snapshot()
        assert isinstance(snap, Snapshot)
        assert snap.epoch == 4 and snap.size == 4
        assert snap.cluster_count == 1 and snap.noise == [3]
        stats = engine.stats()
        assert stats.points == 4 and stats.epoch == 4
        assert stats.algorithm == "full-exact"
        assert stats.cells == engine.raw.cell_count
        assert stats.config is engine.config

    def test_dead_pid_and_insert_only_errors(self):
        engine = _full_engine()
        with pytest.raises(UnknownPointError):
            engine.delete(3)
        semi = api.open(algorithm="semi", eps=1.0, minpts=3)
        semi.insert((0.0, 0.0))
        with pytest.raises(UnsupportedOperationError, match="insert-only"):
            semi.delete(0)
        with pytest.raises(UnsupportedOperationError, match="insert-only"):
            semi.delete_many([0])

    def test_engine_satisfies_runner_protocols(self):
        """The runners drive an Engine exactly like a bare clusterer."""
        from repro.workload.runner import run_workload_engine
        from repro.workload.workload import generate_workload

        workload = generate_workload(120, 2, seed=5)
        sequential = run_workload_engine(
            api.open(algorithm="full", eps=200.0, minpts=10, dim=2), workload
        )
        batched = run_workload_engine(
            api.open(
                algorithm="full", eps=200.0, minpts=10, dim=2, batch_size=16
            ),
            workload,
        )
        assert sequential.operation_count == batched.operation_count == 120 + workload.query_count
        assert "insert_many" in batched.op_kinds
        assert "insert_many" not in sequential.op_kinds

    def test_context_manager_closes_on_exit(self):
        with _full_engine() as engine:
            engine.insert((0.0, 0.0))
            assert len(engine) == 1
        # Exiting the block releases the engine (matching ShardedEngine),
        # and close stays idempotent afterwards.
        assert engine.closed
        engine.close()
        assert engine.closed

    def test_top_level_reexports(self):
        assert repro.Engine is Engine
        assert repro.EngineConfig is EngineConfig
        assert repro.IngestSession is IngestSession


class TestRejectedBatchesChangeNothing:
    """Every algorithm applies a batch whole or not at all."""

    ALGORITHMS = (
        "semi-exact", "semi-approx", "full-exact", "double-approx",
        "incdbscan", "recompute",
    )

    @staticmethod
    def _open(algorithm: str) -> Engine:
        rho = 0.1 if algorithm in ("semi-approx", "double-approx") else 0.0
        engine = api.open(algorithm=algorithm, eps=1.0, minpts=3, rho=rho)
        engine.ingest([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (5.0, 5.0)])
        return engine

    @staticmethod
    def _state(engine: Engine):
        return len(engine), [pid in engine for pid in range(8)], engine.snapshot().clusters

    def _assert_unchanged(self, engine: Engine, before) -> None:
        assert self._state(engine) == before
        assert engine.ingest([(9.0, 9.0)]) == [4]  # the next id is unchanged

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "batch",
        [
            [(1.0, 1.0), (float("nan"), 0.0), (2.0, 2.0)],
            [(1.0, 1.0), (float("inf"), 0.0)],
            [(1.0, 1.0), (2.0, 2.0, 2.0)],
            [(1.0, 1.0), (2.0,)],
        ],
        ids=["nan", "inf", "extra-coordinate", "missing-coordinate"],
    )
    def test_rejected_ingest(self, algorithm, batch):
        engine = self._open(algorithm)
        before = self._state(engine)
        with pytest.raises(ValueError):
            engine.ingest(batch)
        self._assert_unchanged(engine, before)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "pids,error",
        [([0, 7], UnknownPointError), ([1, 0, 1], ValueError)],
        ids=["dead-id", "duplicate-id"],
    )
    def test_rejected_delete_many(self, algorithm, pids, error):
        engine = self._open(algorithm)
        before = self._state(engine)
        if algorithm.startswith("semi"):
            error = UnsupportedOperationError
        with pytest.raises(error):
            engine.delete_many(pids)
        self._assert_unchanged(engine, before)


class TestIngestSession:
    def test_eager_ids_match_applied_ids(self):
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        predicted = [session.ingest(p) for p in [(0.0, 0.0), (0.1, 0.1)]]
        predicted += session.ingest_many([(0.2, 0.2), (0.3, 0.3)])
        assert predicted == [0, 1, 2, 3]
        assert session.pending_updates == 4
        assert len(engine) == 0  # nothing applied yet
        session.flush()
        assert len(engine) == 4
        assert sorted(engine.raw.ids()) == predicted

    def test_auto_flush_on_threshold(self):
        engine = _full_engine()
        session = engine.session(flush_threshold=3)
        session.ingest((0.0, 0.0))
        session.ingest((0.1, 0.1))
        assert len(engine) == 0
        session.ingest((0.2, 0.2))
        assert len(engine) == 3 and session.pending_updates == 0
        assert session.flush_count == 1

    def test_query_barrier_flushes_first(self):
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        pids = session.ingest_many([(0.0, 0.0), (0.1, 0.1), (0.2, 0.2)])
        outcome = session.cgroup_by(pids)
        assert outcome.groups == [sorted(pids)]
        assert outcome.epoch == 3  # the barrier applied the buffer
        assert session.pending_updates == 0

    def test_snapshot_and_stats_are_barriers(self):
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        session.ingest((0.0, 0.0))
        assert session.snapshot().size == 1
        session.ingest((0.1, 0.1))
        assert session.stats().points == 2

    def test_buffered_deletes_coalesce(self):
        engine = _full_engine(flush_threshold=None)
        pids = engine.ingest([(0.0, 0.0), (0.1, 0.1), (5.0, 5.0)])
        session = engine.session()
        session.delete(pids[0])
        session.delete(pids[2])
        assert len(engine) == 3  # buffered
        session.flush()
        assert len(engine) == 1

    def test_delete_of_pending_insert_forces_flush(self):
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        pid = session.ingest((0.0, 0.0))
        session.delete(pid)  # targets a buffered insertion
        session.flush()
        assert len(engine) == 0
        assert engine.epoch == 2  # one insert + one delete applied

    def test_insert_only_delete_fails_fast(self):
        engine = api.open(algorithm="semi", eps=1.0, minpts=3)
        session = engine.session()
        session.ingest((0.0, 0.0))
        with pytest.raises(UnsupportedOperationError):
            session.delete(0)
        # The buffered insert is still intact and flushable.
        session.flush()
        assert len(engine) == 1

    def test_context_manager_flushes_on_success(self):
        engine = _full_engine(flush_threshold=None)
        with engine.session() as session:
            session.ingest((0.0, 0.0))
        assert len(engine) == 1

    def test_context_manager_discards_on_error(self):
        engine = _full_engine(flush_threshold=None)
        with pytest.raises(RuntimeError, match="boom"):
            with engine.session() as session:
                session.ingest((0.0, 0.0))
                raise RuntimeError("boom")
        assert len(engine) == 0 and session.pending_updates == 0

    def test_discard(self):
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        session.ingest_many([(0.0, 0.0), (0.1, 0.1)])
        assert session.discard() == 2
        session.flush()
        assert len(engine) == 0

    def test_failed_run_keeps_later_runs_buffered(self):
        """A mid-flush failure drops only the failing run; later runs
        (and their handed-out ids) survive for a retried flush."""
        engine = _full_engine(flush_threshold=None)
        first = engine.insert((5.0, 5.0))
        session = engine.session()
        session.delete(first)
        pid_a = session.ingest((0.0, 0.0))
        session.delete(999)          # dead pid: this run will fail
        pid_b = session.ingest((0.1, 0.1))
        with pytest.raises(UnknownPointError):
            session.flush()
        # Runs before the failure applied; the dead delete run is gone;
        # the trailing insert run is still pending with its id intact.
        assert first not in engine and pid_a in engine
        assert session.pending_updates == 1
        session.flush()
        assert pid_b in engine and len(engine) == 2

    def test_stale_session_detected(self):
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        session.ingest((0.0, 0.0))
        engine.insert((9.0, 9.0))  # direct write invalidates predictions
        with pytest.raises(ReproError, match="stale"):
            session.flush()

    def test_bad_threshold_rejected(self):
        engine = _full_engine()
        with pytest.raises(ConfigError, match="flush_threshold"):
            engine.session(flush_threshold=0)

    def test_large_stream_equals_direct_ingest(self):
        points = clustered_points(400, 2, seed=11)
        direct = FullyDynamicClusterer(1.0, 5, rho=0.0, dim=2)
        direct.insert_many(points)
        engine = _full_engine(eps=1.0, minpts=5)
        with engine.session(flush_threshold=64) as session:
            for p in points:
                session.ingest(p)
        assert session.flush_count >= 6
        expected = direct.cgroup_by_many(sorted(direct.ids()))
        got = engine.snapshot()
        direct_snap = direct.clusters()
        assert sorted(map(sorted, got.clusters)) == sorted(
            map(sorted, direct_snap.clusters)
        )
        assert got.noise == direct_snap.noise
        assert expected.groups == engine.cgroup_by_many(
            sorted(engine.raw.ids())
        ).groups


class TestLifecycleIdempotence:
    """The close()/__exit__ audit: Engine, ShardedEngine, IngestSession.

    One shared contract: the first close does the work, every later
    close is a silent no-op (a crash-path double-close must never raise
    a secondary error on top of the one that mattered), and using a
    retired session raises a clear ReproError.
    """

    # -- Engine ---------------------------------------------------------

    def test_engine_double_close(self):
        engine = _full_engine()
        engine.insert((0.0, 0.0))
        engine.close()
        assert engine.closed
        engine.close()
        engine.close()
        assert engine.closed

    def test_engine_exit_then_close(self):
        with _full_engine() as engine:
            pass
        assert engine.closed
        engine.close()  # close after __exit__ stays a no-op

    def test_engine_close_inside_with_block(self):
        # __exit__ after an explicit close must not raise.
        with _full_engine() as engine:
            engine.close()
        assert engine.closed

    # -- ShardedEngine --------------------------------------------------

    def test_sharded_engine_double_close(self):
        engine = api.open(
            algorithm="full", eps=1.0, minpts=3, dim=2,
            shards=2, shard_executor="serial",
        )
        engine.ingest([(0.0, 0.0), (5.0, 5.0)])
        engine.close()
        assert engine.closed
        engine.close()
        assert engine.closed

    def test_sharded_engine_context_manager(self):
        with api.open(
            algorithm="full", eps=1.0, minpts=3, dim=2,
            shards=2, shard_executor="serial",
        ) as engine:
            engine.ingest([(0.0, 0.0)])
            engine.close()  # explicit close inside the block is fine
        assert engine.closed

    # -- IngestSession --------------------------------------------------

    def test_session_close_flushes_buffered_ops(self):
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        pids = session.ingest_many([(0.0, 0.0), (0.1, 0.1)])
        assert session.pending_updates == 2
        session.close()
        assert session.closed
        assert session.pending_updates == 0
        assert all(pid in engine for pid in pids)

    def test_session_double_close_is_silent(self):
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        session.ingest((0.0, 0.0))
        session.close()
        session.close()
        session.close()
        assert session.closed and len(engine) == 1

    @pytest.mark.parametrize(
        "op",
        [
            lambda s: s.ingest((0.0, 0.0)),
            lambda s: s.ingest_many([(0.0, 0.0)]),
            lambda s: s.delete(0),
            lambda s: s.delete_many([0]),
            lambda s: s.cgroup_by([0]),
            lambda s: s.cgroup_by_many([0]),
            lambda s: s.snapshot(),
            lambda s: s.stats(),
        ],
        ids=[
            "ingest", "ingest_many", "delete", "delete_many",
            "cgroup_by", "cgroup_by_many", "snapshot", "stats",
        ],
    )
    def test_closed_session_rejects_ops(self, op):
        engine = _full_engine(flush_threshold=None)
        engine.insert((0.0, 0.0))
        session = engine.session()
        session.close()
        with pytest.raises(ReproError, match="closed ingest session"):
            op(session)

    def test_session_close_with_failing_flush_raises_once(self):
        """A failing final flush propagates the primary error exactly
        once: the buffer is discarded, later closes are silent."""
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        session.delete(999)  # dead pid: the close-flush will fail
        with pytest.raises(UnknownPointError):
            session.close()
        assert session.closed
        assert session.pending_updates == 0  # discarded, not stuck
        session.close()  # no secondary error

    def test_session_exit_after_close_is_silent(self):
        engine = _full_engine(flush_threshold=None)
        with engine.session() as session:
            session.ingest((0.0, 0.0))
            session.close()
        assert session.closed and len(engine) == 1

    def test_session_close_after_engine_close_discards(self):
        """Closing a session whose engine died discards the buffer and
        surfaces the engine failure — exactly once."""
        engine = _full_engine(flush_threshold=None)
        session = engine.session()
        session.ingest((0.0, 0.0))
        engine.close()
        with pytest.raises(Exception):
            session.close()
        assert session.closed and session.pending_updates == 0
        session.close()  # and never again
