"""Streaming scenario families beyond the paper's Section 8.1 workload.

The paper's workload is a fixed mixed insert/delete/query sequence; a
*scenario* here is a higher-level serving pattern.  The first family is
**sliding-window / time-decay clustering**: arrivals stream in per-tick
batches (bursty or density-evolving, from the seed-spreader regime
generators), a :class:`repro.analysis.WindowedEngine` keeps only the
most recent ``capacity`` points by expiring the oldest through bulk
``delete_many`` on the fully-dynamic path, and periodic C-group-by
queries over the live window act as barriers.

:func:`run_sliding_window` mirrors the contract of
:func:`repro.workload.runner.run_workload_engine`: wall-clock
microseconds per timed entry in a :class:`RunResult`, with
``op_sizes`` amortizing each windowed batch over the updates it covered
(inserts plus expiries) and the scenario name stamped into
``RunResult.scenario``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro import kernels
from repro.analysis.window import WindowedEngine
from repro.errors import ConfigError
from repro.workload.runner import RunResult
from repro.workload.seed_spreader import (
    burst_arrival_stream,
    evolving_density_stream,
)

Point = Tuple[float, ...]

#: Arrival-regime choices of the sliding-window scenario builder.
ARRIVAL_REGIMES = ("burst", "evolving")

#: Scenario names the CLI exposes (``bench --scenario``); ``mixed`` is
#: the classic Section 8.1 workload handled by the plain runners.
SCENARIO_CHOICES = ("mixed", "sliding-window")

QUERY_SIZE_DEFAULT = 64


@dataclass(frozen=True)
class SlidingWindowScenario:
    """One generated sliding-window run: batches plus window knobs."""

    dim: int
    capacity: int
    arrival: str
    batches: List[List[Point]] = field(repr=False)
    query_frequency: int = 5
    query_size: int = QUERY_SIZE_DEFAULT
    seed: Optional[int] = None

    @property
    def total_points(self) -> int:
        return sum(len(b) for b in self.batches)


def sliding_window_scenario(
    n: int,
    dim: int,
    capacity: Optional[int] = None,
    arrival: str = "burst",
    query_frequency: int = 5,
    query_size: int = QUERY_SIZE_DEFAULT,
    seed: Optional[int] = None,
) -> SlidingWindowScenario:
    """Build a sliding-window scenario from one of the arrival regimes.

    ``capacity`` defaults to ``max(1, n // 4)`` — the window turns over
    roughly four times per run, so the expiry path is exercised
    throughout instead of only at the tail.  A query barrier lands
    after every ``query_frequency`` batches, over up to ``query_size``
    ids sampled uniformly from the live window.
    """
    if arrival not in ARRIVAL_REGIMES:
        raise ConfigError(
            f"unknown arrival regime {arrival!r}; choices: "
            f"{', '.join(ARRIVAL_REGIMES)}"
        )
    if query_frequency < 1:
        raise ConfigError(
            f"query_frequency must be >= 1, got {query_frequency}"
        )
    if query_size < 1:
        raise ConfigError(f"query_size must be >= 1, got {query_size}")
    if capacity is None:
        capacity = max(1, n // 4)
    elif (
        not isinstance(capacity, int)
        or isinstance(capacity, bool)
        or capacity < 1
    ):
        raise ConfigError(
            f"window capacity must be a positive integer, got {capacity!r}"
        )
    if arrival == "burst":
        batches = burst_arrival_stream(n, dim, seed=seed)
    else:
        batches = evolving_density_stream(n, dim, seed=seed)
    return SlidingWindowScenario(
        dim=dim,
        capacity=capacity,
        arrival=arrival,
        batches=batches,
        query_frequency=query_frequency,
        query_size=query_size,
        seed=seed,
    )


def run_sliding_window(
    engine,
    scenario: SlidingWindowScenario,
    max_batches: Optional[int] = None,
) -> RunResult:
    """Drive (a prefix of) a sliding-window scenario through an engine.

    Each timed ``window_append`` entry covers the batch's insertions
    plus the expiries it triggered (that is the latency one windowed
    arrival tick costs the caller); queries are timed as usual.  The
    query-id sampling is seeded from the scenario, so two runs of the
    same scenario execute identical op sequences.
    """
    window = WindowedEngine(engine, scenario.capacity)
    result = RunResult(
        backend=kernels.active_backend_name(), scenario="sliding-window"
    )
    rng = random.Random(scenario.seed)
    perf = time.perf_counter
    batches = scenario.batches
    if max_batches is not None:
        batches = batches[:max_batches]
    for tick, batch in enumerate(batches, start=1):
        if batch:
            start = perf()
            pids, expired = window.append_many(batch)
            elapsed = perf() - start
            result.op_kinds.append("window_append")
            result.op_costs.append(elapsed * 1e6)
            result.op_sizes.append(len(pids) + len(expired))
        if tick % scenario.query_frequency == 0 and len(window) >= 2:
            live = window.ids()
            k = min(scenario.query_size, len(live))
            pids = rng.sample(live, k)
            start = perf()
            window.cgroup_by_many(pids)
            elapsed = perf() - start
            result.op_kinds.append("query")
            result.op_costs.append(elapsed * 1e6)
            result.op_sizes.append(1)
    result.shards = engine.config.shards or 1
    if engine.config.shards:
        result.transport = engine.config.resolved_shard_transport
        result.restarts = getattr(engine, "restarts", 0)
    fragment_stats = engine.stats().fragment_cache
    result.fragment_hits = fragment_stats.hits
    result.fragment_misses = fragment_stats.misses
    result.fragment_invalidations = fragment_stats.invalidations
    return result
