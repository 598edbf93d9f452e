"""The benchmark's oracles accept true results and reject corrupted ones.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import os
from types import SimpleNamespace

import pytest

import oracles
import tracing
from workloads import WORKLOADS, generate, rows

import repro.api
from repro.analysis.window import WindowedEngine

HERE = os.path.dirname(os.path.abspath(__file__))
KNOBS_2D = dict(dim=2, eps=200.0, minpts=10)


@pytest.fixture(scope="module")
def points():
    return generate(3_000, 2, seed=7)


def _corruptions(snapshot):
    """Copies of a snapshot-like object, each wrong in one way."""
    clusters = [set(c) for c in snapshot.clusters]
    noise = set(snapshot.noise)
    big = max(range(len(clusters)), key=lambda i: len(clusters[i]))
    moved = copy.deepcopy(clusters)
    moved_pid = min(moved[big])
    moved[big].discard(moved_pid)
    dropped = copy.deepcopy(clusters)
    dropped[big].discard(min(dropped[big]))
    merged = [set().union(*clusters)]
    return {
        "point moved to noise": (moved, noise | {moved_pid}),
        "point dropped": (dropped, noise),
        "clusters merged": (merged, noise),
    }


def test_window_oracle(points):
    capacity = 1_000
    knobs = dict(algorithm="full", **KNOBS_2D)
    with WindowedEngine(repro.api.open(**knobs), capacity) as window:
        for start in range(0, 2_500, 500):
            window.append_many(rows(points, start, 500, len(points)))
        snapshot = window.snapshot()
        live = window.ids()
    coords = rows(points, live[0], len(live), len(points))
    assert len(snapshot.clusters) >= 2
    assert oracles.window_check(snapshot, live, coords, knobs) == []
    for what, (clusters, noise) in _corruptions(snapshot).items():
        bad = SimpleNamespace(clusters=clusters, noise=noise)
        assert oracles.window_check(bad, live, coords, knobs), what


def test_single_engine_oracle(points):
    knobs = dict(algorithm="semi", **KNOBS_2D)
    chunks = [rows(points, i, 1_000, len(points))
              for i in range(0, 3_000, 1_000)]
    with repro.api.open(shards=2, shard_executor="serial", **knobs) as engine:
        for chunk in chunks:
            engine.ingest(chunk)
        snapshot = engine.snapshot()
        ids = list(range(0, 3_000, 7))
        query = (ids, engine.cgroup_by_many(ids))
    assert oracles.single_engine_check(snapshot, chunks, knobs, query) == []
    for what, (clusters, noise) in _corruptions(snapshot).items():
        bad = SimpleNamespace(clusters=clusters, noise=noise)
        assert oracles.single_engine_check(bad, chunks, knobs), what
    groups = [list(g) for g in query[1].groups]
    groups[0] = groups[0][1:]
    bad = SimpleNamespace(groups=groups, noise=query[1].noise)
    assert oracles.single_engine_check(snapshot, chunks, knobs, (ids, bad))


def test_sandwich_oracle(points):
    rho = 0.001
    coords = rows(points, 0, 3_000, len(points))
    with repro.api.open(algorithm="full", rho=rho, **KNOBS_2D) as engine:
        assert engine.config.resolved_algorithm == "double-approx"
        engine.ingest(coords)
        snapshot = engine.snapshot()
    live = list(range(3_000))

    def check(clusters, noise):
        return oracles.sandwich_check(clusters, noise, live, coords, 2,
                                      KNOBS_2D["eps"], KNOBS_2D["minpts"], rho)

    assert check(snapshot.clusters, snapshot.noise) == []
    for what, (clusters, noise) in _corruptions(snapshot).items():
        assert check(clusters, noise), what


def test_benchmark_spec_matches_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == tracing.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
