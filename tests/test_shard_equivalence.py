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
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pytest

import repro.api as api
from repro.core.framework import CGroupByResult
from repro.validation.legality import check_legality
from repro.validation.sandwich import check_sandwich
from repro.workload.config import eps_for
from repro.workload.workload import Workload, generate_workload

from conftest import clustered_points

DIMS = (2, 3, 5)
RHOS = (0.0, 0.001, 0.1)
N = 220
MINPTS = 10
BATCH = 33
#: Workload steps between the snapshots a replay takes.
SNAPSHOT_EVERY = 3

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


def _canon_snapshot(snap) -> list:
    return [sorted(map(sorted, snap.clusters)), sorted(snap.noise)]


def _replay(
    engine, workload: Workload, check: Optional[Callable] = None
) -> Tuple[List[CGroupByResult], list]:
    """Drive the batched encoding; returns (query results, snapshots).

    A ``Q = P`` snapshot is taken every ``SNAPSHOT_EVERY`` steps and
    after the last one; ``check(engine, snapshot)`` sees each of them.
    """
    results, snaps = [], []
    pid_of: Dict[int, int] = {}

    def snapshot() -> None:
        snap = engine.snapshot()
        if check is not None:
            check(engine, snap)
        snaps.append(_canon_snapshot(snap))

    for step, (kind, arg) in enumerate(workload.batched(BATCH), 1):
        if kind == "insert_many":
            pids = engine.insert_many([workload.points[i] for i in arg])
            pid_of.update(zip(arg, pids))
        elif kind == "delete_many":
            engine.delete_many([pid_of.pop(i) for i in arg])
        else:
            results.append(engine.cgroup_by_many([pid_of[i] for i in arg]).result)
        if step % SNAPSHOT_EVERY == 0:
            snapshot()
    snapshot()
    return results, snaps


def _sandwich_check(rho: float) -> Callable:
    """A ``_replay`` check: every snapshot is sandwich-legal at ``rho``."""

    def check(engine, snap) -> None:
        router = engine.raw
        coords = {pid: router.point(pid) for pid in router.ids()}
        assert check_sandwich(
            coords, snap.clusters, engine.config.eps, MINPTS, rho
        ) == []

    return check


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
    assert len(got_snap) == len(want_snap)
    for i, (g, w) in enumerate(zip(got_snap, want_snap)):
        assert g == w, f"{label}: snapshot #{i} differs"


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
    """Fully-dynamic mixed workloads: identical at rho=0, legal beyond.

    Snapshots along the way (not only at the end) are bit-identical to
    the single engine's at rho=0 and sandwich-legal above."""
    workload = _workload(dim, insert_only=False)
    engine = _open_sharded("full", dim, rho, shard_count)
    got = _replay(engine, workload, None if rho == 0.0 else _sandwich_check(rho))
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
    """Insert-only workloads through the semi-dynamic family, with the
    same periodic snapshot checks."""
    workload = _workload(dim, insert_only=True)
    engine = _open_sharded("semi", dim, rho, shard_count)
    got = _replay(engine, workload, None if rho == 0.0 else _sandwich_check(rho))
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


def _empty_cells_differential(shard_count: int, block: int, **executor) -> None:
    """Snapshots while deletes empty cells, against a single engine."""
    knobs = dict(algorithm="full", eps=2.5, minpts=5, dim=2)
    single = api.open(**knobs)
    sharded = api.open(
        **knobs, shards=shard_count, shard_block=block, **executor
    )
    try:
        points = clustered_points(300, 2, seed=5)
        ids = single.ingest(points)
        assert sharded.ingest(points) == ids
        clusterer, router = single.raw, sharded.raw
        assert _canon_snapshot(sharded.snapshot()) == _canon_snapshot(
            single.snapshot()
        )
        if shard_count > 1:
            probes = sum(
                len(fragments.probe_ids)
                for fragments, _, _ in router.executor.map(
                    [("merge_state", (None, router.ownership_version))]
                    * shard_count
                )
            )
            assert probes > 0, "the snapshot settled no probes"
        by_cell: Dict[tuple, List[int]] = {}
        for pid in ids:
            by_cell.setdefault(clusterer.cell_of(pid), []).append(pid)
        for cell in sorted(by_cell, key=lambda c: (-len(by_cell[c]), c))[:6]:
            single.delete_many(by_cell[cell])
            sharded.delete_many(by_cell[cell])
            assert cell not in clusterer._cells
            assert _canon_snapshot(sharded.snapshot()) == _canon_snapshot(
                single.snapshot()
            ), f"snapshot after emptying cell {cell} differs"
    finally:
        single.close()
        sharded.close()


@pytest.mark.parametrize("block", (1, 2))
def test_snapshots_after_deletes_that_empty_cells(shard_count, block):
    """``Q = P`` snapshots through the owned-cell walk while deletes
    empty whole cells (the busiest first, so clusters shrink and split),
    compared with the single engine after every delete at rho=0.
    ``shard_block=2`` leaves many non-core points next to foreign cells,
    so the merge settles a good share of memberships through probes."""
    _empty_cells_differential(shard_count, block, shard_executor="serial")


@pytest.mark.parametrize("tcp_shards", (2, 4))
def test_tcp_executor_snapshot_differential(tcp_shards):
    """The same snapshot differential with the flat fragment record
    crossing real sockets to shard-worker subprocesses."""
    from repro.shard.rpc import local_workers

    with local_workers(tcp_shards) as addresses:
        _empty_cells_differential(
            tcp_shards, 2, shard_executor="tcp", shard_workers=addresses
        )


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
    the snapshots just before and just after it, and the final snapshot
    stay bit-identical to the single engine.

    ``shard_block=16`` makes the moved block reach points the
    destination does not yet hold, so the rebalance really transfers
    data; the snapshot right after the flip must follow the new
    ownership table (the new owner walks the block's cells) and must
    not report the copies the old owner kept."""
    if shard_count == 1:
        pytest.skip("rebalancing needs somewhere to move a block")
    workload = _workload(2, insert_only=False)
    engine = _open_sharded("full", 2, 0.0, shard_count, block=16)
    reference = _open_single("full", 2, 0.0)
    results, want_results = [], []
    pid_of: Dict[int, int] = {}
    ref_of: Dict[int, int] = {}
    steps = list(workload.batched(BATCH))
    flip_at = len(steps) // 2
    transferred = 0

    def assert_same_snapshot(label: str) -> None:
        assert _canon_snapshot(engine.snapshot()) == _canon_snapshot(
            reference.snapshot()
        ), f"snapshot {label} the flip differs"

    for step, (kind, arg) in enumerate(steps):
        if step == flip_at:
            assert_same_snapshot("just before")
            router = engine.raw
            anchor = next(iter(router.ids()))
            block = router.topology.block_of(
                router._grid.cell_of(router.point(anchor))
            )
            dest = (router.topology.owner_of_block(block) + 1) % shard_count
            routed = router._routed[dest]
            version = engine.rebalance(block, dest)
            assert version == engine.ownership_version >= 1
            transferred = router._routed[dest] - routed
            assert_same_snapshot("just after")
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
    assert transferred > 0, "the rebalance moved no points"
    assert results, "workload produced no queries"
    for got, want in zip(results, want_results):
        assert got.groups == want.groups
        assert got.noise == want.noise
    assert_same_snapshot("long after")


@pytest.mark.parametrize("seed", (0, 1))
def test_rebalance_away_and_back_after_deletes(shard_count, seed):
    """A block's old owner keeps its copies through a rebalance; deletes
    must still reach them, or the block rebalanced back would count
    dead points in its owner's core decisions."""
    if shard_count == 1:
        pytest.skip("rebalancing needs somewhere to move a block")
    knobs = dict(algorithm="full", eps=3.0, minpts=5, dim=2)
    engine = api.open(
        **knobs, shards=shard_count, shard_block=8, shard_executor="serial"
    )
    reference = api.open(**knobs)
    try:
        points = np.random.default_rng(seed).uniform(0.0, 60.0, size=(600, 2))
        got_ids, want_ids = engine.ingest(points), reference.ingest(points)
        router = engine.raw
        block = router.topology.block_of(
            router._grid.cell_of(router.point(got_ids[seed]))
        )
        owner = router.topology.owner_of_block(block)
        engine.rebalance(block, (owner + 1) % shard_count)
        engine.delete_many(got_ids[::2])
        reference.delete_many(want_ids[::2])
        engine.rebalance(block, owner)
        got_q = engine.cgroup_by_many(got_ids[1::6]).result
        assert got_q == reference.cgroup_by_many(want_ids[1::6]).result
        got_snap, want_snap = engine.snapshot(), reference.snapshot()
        assert sorted(map(sorted, got_snap.clusters)) == sorted(
            map(sorted, want_snap.clusters)
        )
        assert sorted(got_snap.noise) == sorted(want_snap.noise)
    finally:
        engine.close()
        reference.close()


@pytest.mark.parametrize("executor", ("serial", "tcp"))
@pytest.mark.parametrize("algorithm", ("semi", "full"))
def test_rebalance_flip_regression(algorithm, executor):
    """A rebalance flip must drop the shards' cached fragments.

    The trust predicate follows the new ownership table but stays the
    same object, and the fragment cache binds by predicate identity.
    Here cell (0, 0)'s fragment is resolved while its close neighbour
    (2, 0) is owned by the same shard, so it probes nothing toward it.
    Once (2, 0) moves away, a point that makes (2, 0) core lands in
    (3, 0): (0, 0) is not dirtied, and a stale fragment would leave its
    point noise where a single engine clusters all four."""
    from repro.shard.rpc import local_workers

    knobs = dict(algorithm=algorithm, eps=1.0, minpts=4, dim=2)
    with ExitStack() as stack:
        extra = {}
        if executor == "tcp":
            extra["shard_workers"] = stack.enter_context(local_workers(2))
        engine = api.open(
            **knobs, shards=2, shard_block=1, shard_executor=executor,
            **extra,
        )
        stack.callback(engine.close)
        single = api.open(**knobs)
        stack.callback(single.close)
        for x in range(-3, 7):
            for y in range(-3, 4):
                engine.rebalance((x, y), 0 if (x, y) in ((0, 0), (2, 0)) else 1)
        first = [(0.6, 0.3), (1.5, 0.3), (2.0, 0.3)]
        engine.ingest(first)
        single.ingest(first)
        engine.snapshot()
        engine.rebalance((2, 0), 1)
        engine.ingest([(2.45, 0.3)])
        single.ingest([(2.45, 0.3)])
        assert _canon_snapshot(engine.snapshot()) == _canon_snapshot(
            single.snapshot()
        ) == [[[0, 1, 2, 3]], []]
        ids = list(range(4))
        assert (
            engine.cgroup_by_many(ids).result
            == single.cgroup_by_many(ids).result
        )


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
