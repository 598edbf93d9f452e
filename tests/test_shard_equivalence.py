"""Randomized differential harness: a sharded engine is indistinguishable.

In the spirit of workload-fuzzing database testing (query/workload
generation against a differential oracle), this harness feeds seeded
randomized mixed insert/delete/query workloads through a
:class:`repro.api.ShardedEngine` and a plain :class:`repro.api.Engine`
side by side:

* at ``rho = 0`` every primitive is exact and the clustering unique, so
  every C-group-by result along the way — and the final full-clustering
  snapshot — must be **bit-identical** between the two, for shard
  counts {1, 2, 4, 8} (the ``--shards`` pytest option narrows the
  sweep, e.g. for the CI shard matrix), across dims 2/3/5;
* at ``rho > 0`` the two may legally disagree inside the approximation
  band, so the sharded results are checked for canonical ordering and
  the final state against the first-principles pointwise legality rules
  (:func:`repro.validation.legality.check_legality`).

Shard blocks are deliberately tiny (``shard_block=1``: every cell its
own ownership block) so cross-shard boundaries cut straight through
every cluster — the maximally adversarial topology for the boundary
merge.  A process-executor configuration runs the same differential to
cover the transport; block sizes > 1 are covered by the clustered
regime below.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

import repro.api as api
from repro.core.framework import CGroupByResult
from repro.validation.legality import check_legality
from repro.workload.config import eps_for
from repro.workload.workload import Workload, generate_workload

from conftest import clustered_points

DIMS = (2, 3, 5)
RHOS = (0.0, 0.001, 0.1)
N = 220
MINPTS = 10
BATCH = 33

#: Reference replays are pure functions of (algorithm, dim, rho); cache
#: them so the shard-count sweep pays for each single-engine run once.
_reference_cache: Dict[tuple, tuple] = {}


def _workload(dim: int, insert_only: bool) -> Workload:
    return generate_workload(
        N,
        dim,
        insert_fraction=1.0 if insert_only else 0.75,
        query_frequency=22,
        seed=1234 + dim,
    )


def _replay(engine, workload: Workload) -> Tuple[List[CGroupByResult], list]:
    """Drive the batched encoding; returns (query results, final snapshot)."""
    results = []
    pid_of: Dict[int, int] = {}
    for kind, arg in workload.batched(BATCH):
        if kind == "insert_many":
            pids = engine.insert_many([workload.points[i] for i in arg])
            pid_of.update(zip(arg, pids))
        elif kind == "delete_many":
            engine.delete_many([pid_of.pop(i) for i in arg])
        else:
            results.append(engine.cgroup_by_many([pid_of[i] for i in arg]).result)
    snap = engine.snapshot()
    return results, [sorted(map(sorted, snap.clusters)), sorted(snap.noise)]


def _open_single(algorithm: str, dim: int, rho: float):
    return api.open(
        algorithm=algorithm, eps=eps_for(dim), minpts=MINPTS, rho=rho, dim=dim
    )


def _reference(algorithm: str, dim: int, rho: float, workload: Workload):
    key = (algorithm, dim, rho)
    if key not in _reference_cache:
        engine = _open_single(algorithm, dim, rho)
        _reference_cache[key] = _replay(engine, workload) + (engine,)
    return _reference_cache[key]


def _open_sharded(
    algorithm: str,
    dim: int,
    rho: float,
    shard_count: int,
    executor: str = "serial",
    block: int = 1,
):
    return api.open(
        algorithm=algorithm,
        eps=eps_for(dim),
        minpts=MINPTS,
        rho=rho,
        dim=dim,
        shards=shard_count,
        shard_block=block,
        shard_executor=executor,
    )


def _assert_canonical(result: CGroupByResult) -> None:
    for group in result.groups:
        assert group == sorted(set(group))
    assert result.groups == sorted(result.groups)
    assert result.noise == sorted(set(result.noise))


def _assert_identical_runs(label, got, want) -> None:
    got_queries, got_snap = got
    want_queries, want_snap = want
    assert len(got_queries) == len(want_queries)
    for i, (g, w) in enumerate(zip(got_queries, want_queries)):
        assert g.groups == w.groups, f"{label}: query #{i} groups differ"
        assert g.noise == w.noise, f"{label}: query #{i} noise differs"
    assert got_snap == want_snap, f"{label}: final snapshots differ"


def _assert_legal_final_state(engine, rho: float, relaxed_core: bool) -> None:
    """Pointwise Sections 2/6.2 legality of the sharded final state."""
    router = engine.raw
    coords = {pid: router.point(pid) for pid in router.ids()}
    snap = engine.snapshot()
    core = {pid for pid in coords if engine.is_core(pid)}
    violations = check_legality(
        coords=coords,
        clusters=snap.clusters,
        noise=snap.noise,
        core=core,
        eps=engine.config.eps,
        minpts=engine.config.minpts,
        rho=rho,
        relaxed_core=relaxed_core,
    )
    assert not violations, "\n".join(violations[:10])


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("dim", DIMS)
def test_full_mixed_workload_differential(dim, rho, shard_count):
    """Fully-dynamic mixed workloads: identical at rho=0, legal beyond."""
    workload = _workload(dim, insert_only=False)
    engine = _open_sharded("full", dim, rho, shard_count)
    got = _replay(engine, workload)
    assert got[0], "workload produced no queries"
    for result in got[0]:
        _assert_canonical(result)
    if rho == 0.0:
        want_queries, want_snap, _ = _reference("full", dim, rho, workload)
        _assert_identical_runs(
            f"full d={dim} shards={shard_count}", got, (want_queries, want_snap)
        )
    else:
        _assert_legal_final_state(engine, rho, relaxed_core=True)


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("dim", DIMS)
def test_semi_insert_only_differential(dim, rho, shard_count):
    """Insert-only workloads through the semi-dynamic family."""
    workload = _workload(dim, insert_only=True)
    engine = _open_sharded("semi", dim, rho, shard_count)
    got = _replay(engine, workload)
    assert got[0], "workload produced no queries"
    for result in got[0]:
        _assert_canonical(result)
    if rho == 0.0:
        want_queries, want_snap, _ = _reference("semi", dim, rho, workload)
        _assert_identical_runs(
            f"semi d={dim} shards={shard_count}", got, (want_queries, want_snap)
        )
    else:
        # Semi-dynamic core counts are exact (rho relaxes only edges and
        # memberships), hence the strict core rule.
        _assert_legal_final_state(engine, rho, relaxed_core=False)


@pytest.mark.parametrize("block", (2, 16))
@pytest.mark.parametrize("dim", (2, 3))
def test_clustered_regime_block_sizes(dim, block, shard_count):
    """Dense blobs split across real multi-cell ownership blocks.

    The workload harness above shreds ownership maximally (block=1);
    this regime covers blocks that actually contain several cells, with
    interleaved bulk deletions, at rho=0 where results are unique.
    """
    points = clustered_points(260, dim, seed=dim * 7 + block)
    single = api.open(algorithm="full", eps=2.5, minpts=5, dim=dim)
    sharded = api.open(
        algorithm="full", eps=2.5, minpts=5, dim=dim,
        shards=shard_count, shard_block=block,
    )
    single_pids = single.ingest(points)
    sharded_pids = sharded.ingest(points)
    assert sharded_pids == single_pids
    for eng, pids in ((single, single_pids), (sharded, sharded_pids)):
        eng.delete_many(pids[::4])
    live = [pid for i, pid in enumerate(single_pids) if i % 4]
    rng = random.Random(dim * 100 + block)
    queries = [live, rng.sample(live, 40), rng.sample(live, 80)]
    for q in queries:
        got = sharded.cgroup_by_many(q).result
        want = single.cgroup_by_many(q).result
        assert got.groups == want.groups
        assert got.noise == want.noise
    got_snap, want_snap = sharded.snapshot(), single.snapshot()
    assert sorted(map(sorted, got_snap.clusters)) == sorted(
        map(sorted, want_snap.clusters)
    )
    assert got_snap.noise == want_snap.noise


@pytest.mark.parametrize("tcp_shards", (2, 4))
def test_tcp_executor_differential(tcp_shards):
    """The distributed executor clears the same bar: real shard-worker
    subprocesses behind sockets, merged bit-identically at rho=0."""
    from repro.shard.rpc import local_workers

    workload = _workload(2, insert_only=False)
    with local_workers(tcp_shards) as addresses:
        engine = api.open(
            algorithm="full",
            eps=eps_for(2),
            minpts=MINPTS,
            rho=0.0,
            dim=2,
            shards=tcp_shards,
            shard_block=1,
            shard_executor="tcp",
            shard_workers=addresses,
        )
        try:
            got = _replay(engine, workload)
            want_queries, want_snap, _ = _reference("full", 2, 0.0, workload)
            _assert_identical_runs(
                f"tcp executor shards={tcp_shards}",
                got,
                (want_queries, want_snap),
            )
        finally:
            engine.close()


def test_rebalance_mid_workload_differential(shard_count):
    """An online ownership migration in the middle of a mixed workload
    changes nothing observable: every query before and after the flip,
    and the final snapshot, stay bit-identical to the single engine."""
    if shard_count == 1:
        pytest.skip("rebalancing needs somewhere to move a block")
    workload = _workload(2, insert_only=False)
    engine = _open_sharded("full", 2, 0.0, shard_count)
    reference = _open_single("full", 2, 0.0)
    results, want_results = [], []
    pid_of: Dict[int, int] = {}
    ref_of: Dict[int, int] = {}
    steps = list(workload.batched(BATCH))
    flip_at = len(steps) // 2
    for step, (kind, arg) in enumerate(steps):
        if step == flip_at:
            router = engine.raw
            anchor = next(iter(router.ids()))
            block = router.topology.block_of(
                router._grid.cell_of(router.point(anchor))
            )
            owner = router.topology.owner_of_block(block)
            version = engine.rebalance(block, (owner + 1) % shard_count)
            assert version == engine.ownership_version >= 1
        if kind == "insert_many":
            points = [workload.points[i] for i in arg]
            pid_of.update(zip(arg, engine.insert_many(points)))
            ref_of.update(zip(arg, reference.insert_many(points)))
        elif kind == "delete_many":
            engine.delete_many([pid_of.pop(i) for i in arg])
            reference.delete_many([ref_of.pop(i) for i in arg])
        else:
            results.append(engine.cgroup_by_many([pid_of[i] for i in arg]).result)
            want_results.append(
                reference.cgroup_by_many([ref_of[i] for i in arg]).result
            )
    assert results, "workload produced no queries"
    for got, want in zip(results, want_results):
        assert got.groups == want.groups
        assert got.noise == want.noise
    got_snap, want_snap = engine.snapshot(), reference.snapshot()
    assert sorted(map(sorted, got_snap.clusters)) == sorted(
        map(sorted, want_snap.clusters)
    )
    assert sorted(got_snap.noise) == sorted(want_snap.noise)


def test_process_executor_differential():
    """Spawned worker processes merge bit-identically too."""
    workload = _workload(2, insert_only=False)
    engine = _open_sharded("full", 2, 0.0, 3, executor="process")
    try:
        got = _replay(engine, workload)
        want_queries, want_snap, _ = _reference("full", 2, 0.0, workload)
        _assert_identical_runs(
            "process executor", got, (want_queries, want_snap)
        )
    finally:
        engine.close()


def test_epoch_stamps_track_the_global_dataset_version(shard_count):
    """QueryOutcome/Snapshot epochs count global updates, like Engine."""
    workload = _workload(2, insert_only=False)
    engine = _open_sharded("full", 2, 0.0, shard_count)
    updates = 0
    pid_of: Dict[int, int] = {}
    for kind, arg in workload.batched(BATCH):
        if kind == "insert_many":
            pids = engine.insert_many([workload.points[i] for i in arg])
            pid_of.update(zip(arg, pids))
            updates += len(arg)
        elif kind == "delete_many":
            engine.delete_many([pid_of.pop(i) for i in arg])
            updates += len(arg)
        else:
            outcome = engine.cgroup_by_many([pid_of[i] for i in arg])
            assert outcome.epoch == updates == engine.epoch
            assert outcome.backend == engine.backend
    assert engine.snapshot().epoch == updates
