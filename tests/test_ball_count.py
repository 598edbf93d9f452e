"""Exactness of the sequential core test, ``GridClusterer._ball_count``.

The count adds whole close cells whose box lies inside the ball, skips
those whose box misses it, and scans the rest.  Lattice streams put many
pairs at exactly ``eps`` on cell faces and corners (grid steps of
``eps``, ``eps / 2`` and the cell side), also with every coordinate
offset by 1e6, where locating a point in its cell rounds: every answer
must still equal a scan with ``sq_dist``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

import pytest

from repro.baselines.static_dbscan import dbscan_brute
from repro.core.fullydynamic import FullyDynamicClusterer
from repro.core.semidynamic import SemiDynamicClusterer
from repro.geometry.points import Point, sq_dist

from conftest import assert_matches_static

EPS = 1.0


def _lattice(dim: int, step: float, offset: float, n: int, seed: int) -> List[Point]:
    """``n`` distinct points of a step-``step`` lattice, shuffled."""
    per_axis = max(
        int(round(3 * EPS / step)) + 1, math.ceil((2 * n) ** (1 / dim))
    )
    rng = random.Random(seed)
    picked = set()
    while len(picked) < min(n, per_axis ** dim):
        picked.add(tuple(rng.randrange(per_axis) for _ in range(dim)))
    order = sorted(picked)
    rng.shuffle(order)
    return [tuple(offset + k * step for k in idx) for idx in order]


def _steps(dim: int) -> List[float]:
    return sorted({EPS, EPS / 2, EPS / math.sqrt(dim)})


CASES = [
    (dim, step, offset)
    for dim in (1, 2, 4)
    for step in _steps(dim)
    for offset in (0.0, 1e6)
]


def _check_counts(algo, live: Dict[int, Point]) -> None:
    """Every live point's count against a brute-force scan."""
    minpts = algo.minpts
    for pid, p in live.items():
        exact = sum(sq_dist(p, q) <= algo._sq_eps for q in live.values())
        data = algo._cells[algo._grid.cell_of(p)]
        got = algo._ball_count(p, data)
        if exact < minpts:
            assert got == exact, (pid, p, got, exact)
        else:
            assert got >= minpts, (pid, p, got, exact)


def _check_exact(algo, live: Dict[int, Point]) -> None:
    """Core set and clustering against exact DBSCAN (rho = 0)."""
    keys = sorted(live)
    ref = dbscan_brute([live[k] for k in keys], algo.eps, algo.minpts)
    assert {k for i, k in enumerate(keys) if i in ref.core} == {
        pid for pid in keys if algo.is_core(pid)
    }
    assert_matches_static(
        algo.clusters(), {pid: i for i, pid in enumerate(keys)}, ref
    )


@pytest.mark.parametrize("dim,step,offset", CASES)
@pytest.mark.parametrize("minpts", (3, 6))
def test_full_sequential_matches_brute(dim, step, offset, minpts):
    points = _lattice(dim, step, offset, 70, seed=dim)
    rng = random.Random(7)
    algo = FullyDynamicClusterer(EPS, minpts, rho=0.0, dim=dim)
    live: Dict[int, Point] = {}
    for i, p in enumerate(points):
        live[algo.insert(p)] = p
        if i % 4 == 3:
            pid = rng.choice(sorted(live))
            algo.delete(pid)
            del live[pid]
        if i % 10 == 9:
            _check_counts(algo, live)
            _check_exact(algo, live)
    _check_counts(algo, live)
    _check_exact(algo, live)


@pytest.mark.parametrize("dim,step,offset", CASES)
@pytest.mark.parametrize("minpts", (3, 6))
def test_semi_sequential_matches_brute(dim, step, offset, minpts):
    points = _lattice(dim, step, offset, 70, seed=dim + 10)
    algo = SemiDynamicClusterer(EPS, minpts, rho=0.0, dim=dim)
    live: Dict[int, Point] = {}
    for i, p in enumerate(points):
        live[algo.insert(p)] = p
        if i % 10 == 9:
            _check_counts(algo, live)
            _check_exact(algo, live)
    _check_exact(algo, live)


def _core_set(algo) -> set:
    return {pid for pid in algo.ids() if algo.is_core(pid)}


@pytest.mark.parametrize("dim,step,offset", CASES)
def test_full_sequential_and_bulk_agree_at_rho(dim, step, offset):
    """Both paths count exactly, so at rho > 0 their core sets agree."""
    points = _lattice(dim, step, offset, 80, seed=dim + 20)
    rng = random.Random(3)
    seq = FullyDynamicClusterer(EPS, 4, rho=0.5, dim=dim)
    bulk = FullyDynamicClusterer(EPS, 4, rho=0.5, dim=dim)
    for start in range(0, len(points), 20):
        chunk = points[start : start + 20]
        assert [seq.insert(p) for p in chunk] == bulk.insert_many(chunk)
        _check_counts(seq, {pid: seq.point(pid) for pid in seq.ids()})
        assert _core_set(seq) == _core_set(bulk)
        doomed = rng.sample(sorted(seq.ids()), 6)
        for pid in doomed:
            seq.delete(pid)
        bulk.delete_many(doomed)
        assert _core_set(seq) == _core_set(bulk)


@pytest.mark.parametrize("dim,step,offset", CASES)
def test_semi_sequential_and_bulk_agree_at_rho(dim, step, offset):
    points = _lattice(dim, step, offset, 80, seed=dim + 30)
    seq = SemiDynamicClusterer(EPS, 4, rho=0.5, dim=dim)
    bulk = SemiDynamicClusterer(EPS, 4, rho=0.5, dim=dim)
    for start in range(0, len(points), 20):
        chunk = points[start : start + 20]
        assert [seq.insert(p) for p in chunk] == bulk.insert_many(chunk)
        assert _core_set(seq) == _core_set(bulk)
        assert all(
            seq.vicinity_count(pid) == bulk.vicinity_count(pid)
            for pid in seq.ids()
        )
