"""Ablation benchmark for the grid's neighbor discovery.

The two strategies of :class:`repro.core.grid.Grid` find the same close
cells: precomputed offset tables probe the registry, a scan tests every
registered cell.  The offset table grows as (2 sqrt(d) + 3)^d, so the
cheaper strategy depends on the dimension and on how many cells are
non-empty; this measures both across dimensions.

Rows go to benchmarks/results/ablations.txt.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.grid import Grid
from repro.workload.config import RHO, eps_for
from repro.workload.seed_spreader import seed_spreader

from figlib import write_results

N_POINTS = 2000

_rows = []


@pytest.fixture(scope="module", autouse=True)
def _dump_series():
    yield
    if _rows:
        write_results(
            "ablations.txt",
            f"Ablations: neighbor discovery, {N_POINTS} seed-spreader "
            f"points, rho={RHO}",
            [["ablation\tvariant\tavg_cost_us"]
             + [f"{a}\t{v}\t{c:.2f}" for a, v, c in _rows]],
        )


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("strategy", ["offsets", "scan"])
def test_ablation_neighbor_discovery(benchmark, dim, strategy):
    """Time neighbor discovery over the cells of a seed-spreader dataset."""
    pts = seed_spreader(N_POINTS, dim, seed=dim)
    grid = Grid(eps_for(dim), dim, rho=RHO, strategy=strategy)
    registry = {}
    for p in pts:
        registry[grid.cell_of(p)] = True
    cells = list(registry)

    def run():
        start = time.perf_counter()
        total = 0
        for cell in cells:
            total += len(grid.neighbors_of(cell, registry))
        return total, time.perf_counter() - start

    total, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["neighbor_links"] = total
    benchmark.extra_info["cells"] = len(cells)
    _rows.append(
        (f"neighbors d={dim}", strategy, elapsed * 1e6 / max(1, len(cells)))
    )
    # Both strategies must find the same adjacency.
    reference = Grid(eps_for(dim), dim, rho=RHO, strategy="scan")
    sample = random.Random(0).sample(cells, min(20, len(cells)))
    for cell in sample:
        assert set(grid.neighbors_of(cell, registry)) == set(
            reference.neighbors_of(cell, registry)
        )
