"""Execute a workload against any clusterer and record per-op costs.

The clusterer must expose ``insert(point) -> pid``, ``delete(pid)`` and
``cgroup_by(pids)``.  Costs are wall-clock microseconds per operation,
mirroring the paper's measurement units.

:func:`run_workload_batched` drives the bulk engine instead: consecutive
same-kind updates are coalesced into ``insert_many`` / ``delete_many``
calls of at most ``batch_size`` points, queries are barriers resolved
through the batched ``cgroup_by_many`` query engine, and each bulk call
is one timed entry.  ``RunResult.op_sizes`` records how many updates
each entry covers, so per-update costs stay comparable across the two
encodings.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Sequence

from repro import kernels
# Imported under an alias so the module-level __getattr__ shim below
# still intercepts (and deprecation-warns on) the historical
# ``from repro.workload.runner import UnsupportedOperationError``.
from repro.errors import UnsupportedOperationError as _UnsupportedOperationError
from repro.workload.workload import Workload, batch_ops


class DynamicClusterer(Protocol):
    def insert(self, point: Sequence[float]) -> int: ...

    def delete(self, pid: int) -> None: ...

    def cgroup_by(self, pids): ...


class BulkDynamicClusterer(DynamicClusterer, Protocol):
    """The bulk surface driven by :func:`run_workload_batched`.

    Every clusterer in the repo provides it — the dynamic clusterers via
    their vectorized update paths and the shared batched query engine,
    the baselines via the sequential fallbacks of
    :class:`repro.core.bulk.SequentialBulkMixin` and
    :class:`repro.core.bulk.SequentialQueryMixin`.
    """

    def insert_many(self, points) -> List[int]: ...

    def delete_many(self, pids) -> None: ...

    def cgroup_by_many(self, pids): ...


def __getattr__(name: str):
    # Deprecated re-export: UnsupportedOperationError moved to
    # repro.errors (PEP 562 module __getattr__, so importing it from
    # here still works but warns).
    if name == "UnsupportedOperationError":
        warnings.warn(
            "importing UnsupportedOperationError from repro.workload.runner "
            "is deprecated; import it from repro.errors (or repro) instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return _UnsupportedOperationError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _interpolated_percentile(costs: List[float], p: float) -> float:
    """Linear-interpolation percentile of a cost list (0-100)."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    costs = sorted(costs)
    if not costs:
        return 0.0
    rank = (len(costs) - 1) * (p / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return costs[lo]
    frac = rank - lo
    return costs[lo] * (1.0 - frac) + costs[hi] * frac


@dataclass
class RunResult:
    """Per-operation costs of one workload execution (microseconds).

    ``op_sizes[i]`` is the number of workload operations entry ``i``
    covered — 1 for sequential updates and for queries, the batch
    length for ``insert_many`` / ``delete_many`` entries.  The
    ``per-update`` / ``per-operation`` accessors amortize batch entries
    over their sizes, which is what makes batched and sequential runs
    comparable number-for-number.

    ``backend`` records which kernel backend (:mod:`repro.kernels`)
    produced the run, ``shards`` how many engine shards served it
    (1 for a single engine) and ``transport`` how routed batches
    reached those shards (``"inline"`` for the serial executor,
    ``"socket"`` for the process and tcp executors, ``""`` for an
    unsharded run), so benchmark files and reports can attribute
    numbers to the compute substrate and deployment shape that
    generated them.  ``restarts`` counts supervised shard-worker
    recoveries during the run (always 0 for unsharded and serial
    deployments) — a run that survived worker deaths says so in its
    record.  ``fragment_hits`` / ``fragment_misses`` /
    ``fragment_invalidations`` record the incremental fragment cache's
    counters over the run (all 0 for a bare clusterer run or an
    engine without a grid), so a benchmark row shows how incremental its
    barriers actually were.  ``scenario`` names the workload family the
    run executed (``""`` for the classic Section 8.1 mixed workload,
    ``"sliding-window"`` for :mod:`repro.workload.scenarios` runs), so
    result files distinguish the families without guessing from op
    kinds.
    """

    op_kinds: List[str] = field(default_factory=list)
    op_costs: List[float] = field(default_factory=list)
    op_sizes: List[int] = field(default_factory=list)
    backend: str = ""
    shards: int = 1
    transport: str = ""
    restarts: int = 0
    fragment_hits: int = 0
    fragment_misses: int = 0
    fragment_invalidations: int = 0
    scenario: str = ""

    def _sizes(self) -> List[int]:
        # Hand-built results may omit sizes; treat every entry as 1 op.
        return self.op_sizes if self.op_sizes else [1] * len(self.op_costs)

    @property
    def total_cost(self) -> float:
        return sum(self.op_costs)

    @property
    def average_cost(self) -> float:
        """The paper's *average workload cost*: avgcost(W)."""
        return self.total_cost / len(self.op_costs) if self.op_costs else 0.0

    @property
    def operation_count(self) -> int:
        """Underlying workload operations covered (batches amortized)."""
        return sum(self._sizes())

    @property
    def average_cost_per_operation(self) -> float:
        """avgcost over the underlying operations.

        Equals ``average_cost`` for sequential runs; for batched runs
        each batch entry is spread over the updates it covered.
        """
        count = self.operation_count
        return self.total_cost / count if count else 0.0

    def update_costs(self) -> List[float]:
        return [
            c for k, c in zip(self.op_kinds, self.op_costs) if k != "query"
        ]

    def per_update_costs(self) -> List[float]:
        """Update entry costs amortized per covered update."""
        return [
            c / s
            for k, c, s in zip(self.op_kinds, self.op_costs, self._sizes())
            if k != "query" and s > 0
        ]

    def query_costs(self) -> List[float]:
        return [
            c for k, c in zip(self.op_kinds, self.op_costs) if k == "query"
        ]

    @property
    def max_update_cost(self) -> float:
        costs = self.update_costs()
        return max(costs) if costs else 0.0

    def percentile(self, p: float) -> float:
        """The p-th percentile (0-100) of the update entry costs.

        Linear interpolation between closest ranks, so ``percentile(50)``
        is the median update cost and ``percentile(99)`` the tail cost
        production monitoring watches (the paper itself reports only the
        maximum).  Batch entries count as one update each (the latency a
        caller experiences); use :meth:`per_update_percentile` for the
        amortized view.  Returns 0.0 when the run had no updates.
        """
        return _interpolated_percentile(self.update_costs(), p)

    def per_update_percentile(self, p: float) -> float:
        """The p-th percentile of the amortized per-update costs."""
        return _interpolated_percentile(self.per_update_costs(), p)

    def query_percentile(self, p: float) -> float:
        """The p-th percentile (0-100) of the query entry costs.

        The query-side tail twin of :meth:`percentile` — ``p50``/``p99``
        of these are what the benchmark result files record and what the
        CI tail tripwires watch.  Returns 0.0 when the run had no
        queries.
        """
        return _interpolated_percentile(self.query_costs(), p)


def _unsupported(description: str, clusterer: object) -> _UnsupportedOperationError:
    return _UnsupportedOperationError(
        f"{description} but {type(clusterer).__name__} does not support "
        f"deletions (insert-only algorithm); use FullyDynamicClusterer or "
        f"an insert-only workload"
    )


def run_workload(
    clusterer: DynamicClusterer,
    workload: Workload,
    max_ops: Optional[int] = None,
) -> RunResult:
    """Run (a prefix of) a workload, timing each operation."""
    result = RunResult(backend=kernels.active_backend_name())
    pid_of = {}
    perf = time.perf_counter
    ops = workload.ops if max_ops is None else workload.ops[:max_ops]
    points = workload.points
    for position, (kind, arg) in enumerate(ops):
        if kind == "insert":
            start = perf()
            pid = clusterer.insert(points[arg])
            elapsed = perf() - start
            pid_of[arg] = pid
            size = 1
        elif kind == "delete":
            pid = pid_of.pop(arg)
            start = perf()
            try:
                clusterer.delete(pid)
            except NotImplementedError as exc:
                raise _unsupported(
                    f"workload op #{position} is a 'delete'", clusterer
                ) from exc
            elapsed = perf() - start
            size = 1
        elif kind == "query":
            pids = [pid_of[idx] for idx in arg]
            start = perf()
            clusterer.cgroup_by(pids)
            elapsed = perf() - start
            size = 1
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        result.op_kinds.append(kind)
        result.op_costs.append(elapsed * 1e6)
        result.op_sizes.append(size)
    return result


def run_workload_batched(
    clusterer: BulkDynamicClusterer,
    workload: Workload,
    batch_size: int,
    max_ops: Optional[int] = None,
) -> RunResult:
    """Run (a prefix of) a workload through the bulk-update engine.

    The (prefix of the) operation sequence is re-encoded with
    :func:`repro.workload.workload.batch_ops` and each ``insert_many`` /
    ``delete_many`` call is timed as one operation covering
    ``op_sizes[i]`` updates.  Queries observe the same alive sets as in
    the sequential encoding, so results are comparable run-for-run.
    """
    result = RunResult(backend=kernels.active_backend_name())
    pid_of = {}
    perf = time.perf_counter
    ops = workload.ops if max_ops is None else workload.ops[:max_ops]
    points = workload.points
    ops_done = 0  # underlying workload ops executed, for error reporting
    for kind, arg in batch_ops(ops, batch_size):
        if kind == "insert_many":
            batch = [points[idx] for idx in arg]
            start = perf()
            pids = clusterer.insert_many(batch)
            elapsed = perf() - start
            for idx, pid in zip(arg, pids):
                pid_of[idx] = pid
            size = len(arg)
        elif kind == "delete_many":
            pids = [pid_of.pop(idx) for idx in arg]
            start = perf()
            try:
                clusterer.delete_many(pids)
            except NotImplementedError as exc:
                raise _unsupported(
                    f"a bulk delete covers workload ops "
                    f"#{ops_done}..#{ops_done + len(arg) - 1}",
                    clusterer,
                ) from exc
            elapsed = perf() - start
            size = len(arg)
        elif kind == "query":
            pids = [pid_of[idx] for idx in arg]
            start = perf()
            clusterer.cgroup_by_many(pids)
            elapsed = perf() - start
            size = 1
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        ops_done += size
        result.op_kinds.append(kind)
        result.op_costs.append(elapsed * 1e6)
        result.op_sizes.append(size)
    return result


def run_workload_engine(
    engine,
    workload: Workload,
    max_ops: Optional[int] = None,
) -> RunResult:
    """Drive (a prefix of) a workload through a :class:`repro.api.Engine`.

    The engine facade satisfies both runner protocols (its ``insert`` /
    ``delete`` / ``cgroup_by`` and ``insert_many`` / ``delete_many`` /
    ``cgroup_by_many`` delegate to the underlying clusterer), so this
    picks the encoding from the engine's own configuration: the batched
    encoding when ``engine.config.batch_size`` is set, the sequential
    one otherwise.  Costs are therefore directly comparable with
    :func:`run_workload` / :func:`run_workload_batched` runs of the same
    workload against a bare clusterer.
    """
    batch_size = engine.config.batch_size
    if batch_size:
        result = run_workload_batched(engine, workload, batch_size, max_ops)
    else:
        result = run_workload(engine, workload, max_ops)
    result.shards = engine.config.shards or 1
    if engine.config.shards:
        result.transport = engine.config.resolved_shard_transport
        result.restarts = getattr(engine, "restarts", 0)
    fragment_stats = engine.stats().fragment_cache
    result.fragment_hits = fragment_stats.hits
    result.fragment_misses = fragment_stats.misses
    result.fragment_invalidations = fragment_stats.invalidations
    return result
