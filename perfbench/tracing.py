"""Per-layer tracing from outside the program.

Every wrapper installed here is a pure pass-through put on a class (or
module) attribute, so calls the program makes on itself, such as a
tree's own ``self.rebuild()``, are caught as well.  A span pushes a
frame on a stack; when it ends, its duration is charged to its parent
frame, which gives every span a self time (duration minus the wrapped
calls it made).  Aggregates are kept in memory per ``(parent, span)``
edge and written out once, when the benchmark ends.

Shard workers run in spawned processes that cannot be wrapped from
here, so their busy time shows only as the parent's
``shard.transport.recv_reply`` wait.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, class or None for module functions, attributes, span prefix).
# Each layer's public entry points, plus the service's op executor.
SPANS: List[Tuple[str, Optional[str], Tuple[str, ...], str]] = [
    ("repro.core.framework", "GridClusterer",
     ("cgroup_by", "cgroup_by_many", "clusters", "membership_fragments",
      "gum_edge_fragment"), "core"),
    ("repro.core.fullydynamic", "FullyDynamicClusterer",
     ("insert", "insert_many", "delete", "delete_many"), "core"),
    ("repro.core.semidynamic", "SemiDynamicClusterer",
     ("insert", "insert_many"), "core"),
    ("repro.geometry.kdtree", "DynamicKDTree",
     ("insert", "insert_many", "delete", "rebuild", "find_within",
      "find_within_many", "count_fuzzy", "ball_ids"), "geometry.kdtree"),
    ("repro.geometry.kdtree", "DeferredKDTree",
     ("find_within_many", "insert", "insert_many", "delete"),
     "geometry.deferred"),
    ("repro.geometry.emptiness", "EmptinessStructure",
     ("empty", "empty_many"), "geometry.emptiness"),
    ("repro.geometry.range_count", "ApproximateRangeCounter",
     ("count",), "geometry.range_count"),
    ("repro.connectivity.hdt", "HDTConnectivity",
     ("add_vertex", "remove_vertex", "insert_edge", "delete_edge",
      "connected", "component_id", "component_size", "component_vertices",
      "has_edge"), "connectivity.hdt"),
    ("repro.api.engine", "Engine",
     ("ingest", "delete_many", "cgroup_by", "cgroup_by_many", "snapshot",
      "stats"), "api.engine"),
    ("repro.shard.engine", "ShardedEngine",
     ("ingest", "delete_many", "cgroup_by_many", "snapshot", "stats"),
     "api.engine"),
    ("repro.api.session", "IngestSession",
     ("ingest_many", "delete_many", "flush"), "api.session"),
    ("repro.analysis.window", "WindowedEngine",
     ("append_many",), "api.window"),
    ("repro.shard.router", "ShardRouter",
     ("insert_many", "delete_many", "cgroup_by_many", "clusters"),
     "shard.router"),
    ("repro.shard.supervisor", "ShardSupervisor", ("call", "map"),
     "shard.supervisor"),
    ("repro.shard.executors", "ProcessShardExecutor",
     ("call", "map", "map_scatter"), "shard.executor"),
    ("repro.shard.executors", "SerialShardExecutor", ("call", "map"),
     "shard.executor"),
    ("repro.shard.transport", "ParentChannel",
     ("send_call", "recv_reply"), "shard.transport"),
    ("repro.service.protocol", None,
     ("decode_request", "encode", "snapshot_payload", "outcome_payload"),
     "service.protocol"),
]

#: Spans whose every duration is kept, for per-call percentiles.
SAMPLED_PREFIXES = ("api.engine.",)

KERNELS = (
    "distance_matrix", "ball_counts", "any_within", "count_within",
    "find_within_many", "bucket_by_cell", "pack_cell_keys", "box_sq_dists",
    "cell_gap_sq_dists",
)
ENGINE_OPS = ("ingest", "delete_many", "cgroup_by_many", "snapshot")
SERVICE_OPS = ("ingest", "delete", "cgroup_by", "snapshot")

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: a workload does not reach reports 0.
PER_LAYER: Dict[str, str] = {
    "core.insert_many.self_ms": "ms",
    "core.delete_many.self_ms": "ms",
    "core.cgroup_by_many.self_ms": "ms",
    "geometry.kdtree.rebuild.calls": "count",
    "geometry.kdtree.rebuild.self_ms": "ms",
    "geometry.kdtree.delete.calls": "count",
    "geometry.emptiness.empty.calls": "count",
    "geometry.emptiness.empty.self_ms": "ms",
    "geometry.range_count.self_ms": "ms",
    "core.fragments.hits": "count",
    "core.fragments.misses": "count",
    "core.fragments.invalidations": "count",
    "core.fragments.hit_ratio": "ratio",
    "core.clusters.self_ms": "ms",
    "connectivity.hdt.insert_edge.calls": "count",
    "connectivity.hdt.delete_edge.calls": "count",
    "connectivity.hdt.self_ms": "ms",
}
for _k in KERNELS:
    PER_LAYER[f"kernels.{_k}.calls"] = "count"
    PER_LAYER[f"kernels.{_k}.self_ms"] = "ms"
PER_LAYER.update({
    "shard.router.clusters.self_ms": "ms",
    "shard.router.cgroup_by_many.self_ms": "ms",
    "shard.router.insert_many.self_ms": "ms",
    "shard.router.merge_cache_hit_ratio": "ratio",
    "shard.transport.send_call.self_ms": "ms",
    "shard.transport.recv_reply.wait_ms": "ms",
    "shard.transport.payload_bytes": "bytes",
    "shard.supervisor.map.calls": "count",
    "shard.supervisor.restarts": "count",
})
for _op in ENGINE_OPS:
    PER_LAYER[f"api.engine.{_op}.ms"] = "ms"
PER_LAYER.update({
    "api.session.flush.calls": "count",
    "api.session.flush.self_ms": "ms",
})
for _op in SERVICE_OPS:
    PER_LAYER[f"service.{_op}.queue_wait_ms.p50"] = "ms"
    PER_LAYER[f"service.{_op}.queue_wait_ms.p90"] = "ms"
    PER_LAYER[f"service.{_op}.execute_ms.p50"] = "ms"
PER_LAYER.update({
    "service.protocol.decode_request.self_ms": "ms",
    "service.protocol.encode.self_ms": "ms",
    "service.protocol.snapshot_payload.self_ms": "ms",
    "service.ops_rejected": "count",
    "service.ops_failed": "count",
})


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Tracer:
    """Span stack plus in-memory aggregates; inactive until started."""

    def __init__(self) -> None:
        self.active = False
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[Optional[str], str], list] = defaultdict(
            lambda: [0, 0.0]
        )
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counters: Dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn: Callable) -> Callable:
        sampled = name.startswith(SAMPLED_PREFIXES)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - frame[1]
                edge = tracer.edges[(parent[0] if parent else None, name)]
                edge[0] += 1
                edge[1] += elapsed
                if sampled:
                    tracer.samples[name].append(elapsed)

        span.__wrapped__ = fn
        return span

    def count(self, name: str, amount: float) -> None:
        if self.active:
            self.counters[name] += amount

    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap the entry points in :data:`SPANS`, kernels and payloads."""
        for module_name, class_name, attrs, prefix in SPANS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            for attr in attrs:
                original = owner.__dict__[attr] if class_name else getattr(
                    module, attr)
                setattr(owner, attr, self.wrap(f"{prefix}.{attr}", original))
        self._install_kernels()
        self._install_payload_counters()

    def _install_kernels(self) -> None:
        # The dispatchers in repro.kernels look the kernel up on every
        # call, so wrapping what the registry hands out catches them all.
        from repro.kernels import registry

        lookup = registry.get_kernel
        wrapped: Dict[Tuple[str, Callable], Callable] = {}

        def get_kernel(name: str) -> Callable:
            fn = lookup(name)
            key = (name, fn)
            if key not in wrapped:
                wrapped[key] = self.wrap(f"kernels.{name}", fn)
            return wrapped[key]

        registry.get_kernel = get_kernel

    def _install_payload_counters(self) -> None:
        from repro.shard import transport

        request_bytes = transport.payload_bytes
        read_payloads = transport.read_payloads

        def payload_bytes(arrays):
            nbytes = request_bytes(arrays)
            self.count("shard.transport.payload_bytes", nbytes)
            return nbytes

        def read(segment, entries):
            views = read_payloads(segment, entries)
            self.count(
                "shard.transport.payload_bytes", sum(v.nbytes for v in views)
            )
            return views

        transport.payload_bytes = payload_bytes
        transport.read_payloads = read

    # ------------------------------------------------------------------

    def layer_metrics(self, extra: Dict[str, float]) -> Dict[str, float]:
        """Every :data:`PER_LAYER` value from the spans plus ``extra``.

        The last part of a metric's name says how it is computed from the
        span named by the rest: ``calls``; ``self_ms``, the self time of
        that span and of every span under it (``connectivity.hdt`` sums
        all HDT entry points); ``wait_ms``, its total duration; ``ms``,
        its median per-call duration.  Anything else is a counter.
        ``extra`` carries what the program counts itself (fragment
        cache, merge cache, restarts, service counters and per-op service
        latencies), read by the caller around the timed phase.
        """
        out = {}
        for name in PER_LAYER:
            span, _, kind = name.rpartition(".")
            if kind == "calls":
                value = self.calls.get(span, 0)
            elif kind == "self_ms":
                value = 1e3 * sum(
                    t for s, t in self.self_time.items()
                    if s == span or s.startswith(span + "."))
            elif kind == "wait_ms":
                value = 1e3 * self.total.get(span, 0.0)
            elif kind == "ms" and self.samples.get(span):
                value = 1e3 * statistics.median(self.samples[span])
            else:
                value = self.counters.get(name, 0.0)
            out[name] = value
        out.update(extra)
        unknown = set(out) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"metrics outside PER_LAYER: {sorted(unknown)}")
        return out

    def span_tree(self) -> List[dict]:
        """The ``(parent, span)`` edges, heaviest first, for the trace file."""
        rows = [
            {"parent": parent, "span": name, "calls": calls,
             "total_ms": total * 1e3}
            for (parent, name), (calls, total) in self.edges.items()
        ]
        return sorted(rows, key=lambda r: -r["total_ms"])


def fragment_metrics(before, after) -> Dict[str, float]:
    """Fragment-cache deltas between two ``FragmentCacheStats`` (or None)."""
    if before is None or after is None:
        return {}
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    return {
        "core.fragments.hits": hits,
        "core.fragments.misses": misses,
        "core.fragments.invalidations": after.invalidations
        - before.invalidations,
        "core.fragments.hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
    }


def service_op_metrics(queue_wait: Dict[str, List[float]],
                       execute: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-op queue-wait p50/p90 and execute p50, in ms."""
    out = {}
    for op in SERVICE_OPS:
        waits = queue_wait.get(op, [])
        out[f"service.{op}.queue_wait_ms.p50"] = percentile(waits, 0.5) * 1e3
        out[f"service.{op}.queue_wait_ms.p90"] = percentile(waits, 0.9) * 1e3
        out[f"service.{op}.execute_ms.p50"] = 1e3 * percentile(
            execute.get(op, []), 0.5)
    return out
