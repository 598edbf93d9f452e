"""The unified error model: hierarchy, routing, and compatibility.

Every user-facing failure derives from ``ReproError``; each concrete
class also subclasses the builtin it historically raised, so callers
catching ``ValueError`` / ``KeyError`` / ``RuntimeError`` keep working.
Constructor/config validation across *all* clusterers must surface as
``ConfigError``; dead-id failures as ``UnknownPointError``.
"""

from __future__ import annotations

from itertools import chain

import pytest

import repro.api
from repro.api import EngineConfig
from repro.api.config import ALGORITHM_CHOICES
from repro.baselines.incdbscan import IncDBSCAN
from repro.baselines.naive_dynamic import RecomputeClusterer
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.errors import (
    ConfigError,
    InvalidQueryError,
    ReproError,
    UnknownPointError,
    UnsupportedOperationError,
)

ALL_CLUSTERERS = (
    SemiDynamicClusterer,
    FullyDynamicClusterer,
    IncDBSCAN,
    RecomputeClusterer,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for cls in (
            ConfigError,
            UnknownPointError,
            InvalidQueryError,
            UnsupportedOperationError,
        ):
            assert issubclass(cls, ReproError)

    def test_builtin_compatibility(self):
        """Each class keeps the builtin its failure historically raised."""
        assert issubclass(ConfigError, ValueError)
        assert issubclass(InvalidQueryError, ValueError)
        assert issubclass(UnknownPointError, KeyError)
        assert issubclass(UnsupportedOperationError, RuntimeError)

    def test_one_except_catches_everything(self):
        with pytest.raises(ReproError):
            SemiDynamicClusterer(-1.0, 10)
        with pytest.raises(ReproError):
            FullyDynamicClusterer(1.0, 10).delete(123)


class TestConstructorValidation:
    """eps <= 0, minpts < 1, rho < 0: each a ConfigError."""

    @pytest.mark.parametrize("cls", ALL_CLUSTERERS)
    @pytest.mark.parametrize("eps", (0.0, -3.5))
    def test_nonpositive_eps(self, cls, eps):
        with pytest.raises(ConfigError, match="eps must be positive"):
            cls(eps, 10)

    @pytest.mark.parametrize("cls", ALL_CLUSTERERS)
    @pytest.mark.parametrize("minpts", (0, -2))
    def test_minpts_below_one(self, cls, minpts):
        with pytest.raises(ConfigError, match="minpts must be >= 1"):
            cls(1.0, minpts)

    @pytest.mark.parametrize(
        "cls", (SemiDynamicClusterer, FullyDynamicClusterer)
    )
    def test_negative_rho(self, cls):
        with pytest.raises(ConfigError, match="rho must be non-negative"):
            cls(1.0, 10, rho=-0.001)

    @pytest.mark.parametrize(
        "knobs",
        [{"algorithm": name} for name in ALGORITHM_CHOICES]
        + [{"algorithm": "full-exact", "shards": 2, "shard_executor": "serial"}],
        ids=list(ALGORITHM_CHOICES) + ["sharded"],
    )
    def test_dim_mismatch_on_insert(self, knobs):
        """A wrong-dimension point is bad data, not configuration: every
        insert path refuses it with the same ``ValueError`` and stores
        nothing."""
        failures = []
        for call in ("insert", "insert_many"):
            with repro.api.open(eps=1.0, minpts=3, dim=2, **knobs) as engine:
                point = (1.0, 2.0, 3.0)
                arg = point if call == "insert" else [point]
                with pytest.raises(ValueError) as info:
                    getattr(engine, call)(arg)
                assert len(engine) == 0
            failures.append((type(info.value), str(info.value)))
        assert failures[0] == failures[1]
        assert failures[0][0] is ValueError
        assert "expected (n, 2)" in failures[0][1]

    def test_unknown_backend(self):
        """Neither the kernel backend nor the fragment cache is a knob:
        naming one is the unknown-knob configuration error."""
        with pytest.raises(ConfigError, match="backend"):
            repro.api.open(eps=1.0, minpts=10, backend="numpy")
        with pytest.raises(ConfigError, match="fragment_cache"):
            repro.api.open(eps=1.0, minpts=10, fragment_cache=False)

    def test_engine_config_mirrors_clusterer_validation(self):
        """EngineConfig rejects exactly what the clusterers reject."""
        with pytest.raises(ConfigError, match="eps"):
            EngineConfig(eps=0.0, minpts=10)
        with pytest.raises(ConfigError, match="minpts"):
            EngineConfig(eps=1.0, minpts=0)
        with pytest.raises(ConfigError, match="rho"):
            EngineConfig(eps=1.0, minpts=10, rho=-0.1, algorithm="full")
        with pytest.raises(ConfigError, match="dim"):
            EngineConfig(eps=1.0, minpts=10, dim=0)


class TestUnknownPoint:
    def test_query_rejects_dead_ids_across_clusterers(self):
        for cls in ALL_CLUSTERERS:
            algo = cls(1.0, 2, dim=2)
            pid = algo.insert((0.0, 0.0))
            with pytest.raises(UnknownPointError, match="not live"):
                algo.cgroup_by([pid, 999])
            # Compatibility: the historical KeyError contract still holds.
            with pytest.raises(KeyError):
                algo.cgroup_by([999])

    @pytest.mark.parametrize("shards", (None, 2))
    def test_non_integer_ids_are_never_live(self, shards):
        """A non-integer id fails small and large (vectorized) queries
        and deletes alike; it is not truncated to a live integer id."""
        engine = repro.api.open(eps=1.0, minpts=2, dim=2, shards=shards)
        engine.ingest([(float(i), 0.0) for i in range(300)])
        for query in ([1.7, 2], [1.7] + list(range(2, 300)), [1.0, 2]):
            with pytest.raises(UnknownPointError, match=r"\[1\.\d\] are not"):
                engine.cgroup_by_many(query)
        with pytest.raises(UnknownPointError, match=r"\[2\.0\] are not"):
            engine.delete_many([1, 2.0])
        assert len(engine) == 300

    def test_delete_rejects_dead_ids(self):
        for cls in (FullyDynamicClusterer, IncDBSCAN, RecomputeClusterer):
            algo = cls(1.0, 2, dim=2)
            algo.insert((0.0, 0.0))
            with pytest.raises(UnknownPointError, match="not live"):
                algo.delete(41)

    def test_same_cluster_rejects_dead_ids(self):
        """same_cluster fails like every other query path, not KeyError."""
        for cls in ALL_CLUSTERERS:
            algo = cls(1.0, 2, dim=2)
            pid = algo.insert((0.0, 0.0))
            with pytest.raises(UnknownPointError, match="not live"):
                algo.same_cluster(pid, 999)
            with pytest.raises(UnknownPointError, match="not live"):
                algo.same_cluster(999, pid)
            # Both dead ids are listed in one up-front failure.
            with pytest.raises(UnknownPointError, match="998.*999|999.*998"):
                algo.same_cluster(998, 999)

    def test_cluster_ids_of_routes_through_validation(self):
        algo = FullyDynamicClusterer(1.0, 2, dim=2)
        algo.insert((0.0, 0.0))
        with pytest.raises(UnknownPointError, match="not live"):
            algo._cluster_ids_of(555)

    def test_bulk_delete_rejects_whole_batch_up_front(self):
        algo = FullyDynamicClusterer(1.0, 2, dim=2)
        pids = algo.insert_many([(0.0, 0.0), (0.1, 0.1)])
        with pytest.raises(UnknownPointError, match="rejected"):
            algo.delete_many([pids[0], 777])
        # Nothing was deleted: the batch failed before mutating.
        assert len(algo) == 2


class TestRejectedInsert:
    """A single ``insert`` checks its point by the batch rule first: a
    non-finite coordinate raises and leaves no phantom point behind."""

    @pytest.mark.parametrize("algorithm", ALGORITHM_CHOICES)
    @pytest.mark.parametrize(
        "bad",
        [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_point_changes_nothing(self, algorithm, bad):
        engine = repro.api.open(eps=1.0, minpts=3, algorithm=algorithm)
        engine.ingest([(0.0, 0.0), (0.1, 0.1)])
        with pytest.raises(ValueError, match="non-finite"):
            engine.insert(bad)
        assert len(engine) == 2 and engine.epoch == 2
        assert 2 not in engine
        snapshot = engine.snapshot()
        assert sorted(chain(snapshot.noise, *snapshot.clusters)) == [0, 1]
        assert engine.insert((0.2, 0.2)) == 2


class TestInvalidQuery:
    def test_malformed_query_batch(self):
        from repro.geometry.emptiness import EmptinessStructure

        struct = EmptinessStructure(2, 1.0, 0.0)
        struct.insert(0, (0.0, 0.0))
        with pytest.raises(InvalidQueryError, match="empty_many query"):
            struct.empty_many([(0.0,), (1.0, 2.0, 3.0)])


class TestDeprecatedRunnerShim:
    def test_old_import_location_warns_and_aliases(self):
        import repro.workload.runner as runner

        with pytest.warns(DeprecationWarning, match="repro.errors"):
            legacy = runner.UnsupportedOperationError
        assert legacy is UnsupportedOperationError

    def test_workload_package_reexport_is_clean(self, recwarn):
        """repro.workload re-exports from the new home without warning."""
        import repro.workload as workload

        assert workload.UnsupportedOperationError is UnsupportedOperationError
        assert not [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]
