"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``bench``    — run one workload scenario through chosen algorithms
  and print the paper's metrics (average / max-update / query cost);
  ``--scenario sliding-window`` swaps the Section 8.1 mixed workload
  for the streaming sliding-window scenario family.
* ``serve``    — start the streaming cluster-analytics service
  (:mod:`repro.service`) over one engine (single or sharded).
* ``shard-worker`` — run one remote shard worker for the TCP executor
  (:mod:`repro.shard.rpc`); point an engine at it with
  ``shard_executor="tcp"`` and ``shard_workers=["host:port", ...]``.
* ``generate`` — write a seed-spreader dataset as CSV to stdout or a file.
* ``usec``     — run the Theorem 2 hardness reduction on random instances.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import statistics
import sys
from dataclasses import fields
from typing import List

import repro.api
from repro import kernels
from repro.api import EngineConfig
from repro.api.config import ALGORITHM_CHOICES, KNOBS, SHARD_EXECUTOR_CHOICES
from repro.errors import ConfigError, ReproError
from repro.service import ClusterService, ServiceLimits
from repro.workload.config import MINPTS, RHO, eps_for
from repro.workload.runner import run_workload_engine
from repro.workload.scenarios import (
    ARRIVAL_REGIMES,
    SCENARIO_CHOICES,
    run_sliding_window,
    sliding_window_scenario,
)
from repro.workload.seed_spreader import seed_spreader
from repro.workload.workload import generate_workload


def flag(name: str) -> str:
    """The flag spelling of a knob or option name."""
    return "--" + name.replace("_", "-")


def _knob_rows(command: str):
    """The knob-table rows ``command`` takes as flags."""
    return [row for row in KNOBS.values() if command in row.cli]


def _add_engine_flags(parser, command: str, **cli_defaults) -> None:
    """``--eps-per-d`` plus one flag per knob row naming ``command``.

    A knob with an env fallback defaults to None (resolved later);
    ``cli_defaults`` sets the command's own default where it differs
    from the library's."""
    parser.add_argument(
        "--eps-per-d", type=int, default=100, help="eps = eps_per_d * dim"
    )
    for row in _knob_rows(command):
        default = None if row.env or row.required else row.default
        text = row.doc
        if row.env:
            fallback = "" if row.default is None else f" or {row.default}"
            text += f" (default: {row.env}{fallback})"
        if row.requires:
            text += f"; only meaningful with {flag('shards')}"
        if row.requires and row.requires != SHARD_EXECUTOR_CHOICES:
            text += f" --shard-executor {'/'.join(row.requires)}"
        parser.add_argument(
            flag(row.name),
            type={int: int, float: float}.get(row.kind),
            choices=row.options(),
            default=cli_defaults.get(row.name, default),
            help=text,
        )


def _engine_config(args, command: str, algorithm: str, eps: float):
    """The validated config of one engine ``command`` runs."""
    knobs = {}
    for row in _knob_rows(command):
        value = getattr(args, row.name)
        if isinstance(value, str) and row.kind is tuple:
            value = row.parse(value)
        # Shard flags only mean something with --shards.
        knobs[row.name] = None if row.requires and not args.shards else value
    # Exact and rho-free algorithms ignore --rho (matching the historical
    # CLI semantics); EngineConfig would reject the contradiction.
    if algorithm.endswith("-exact") or algorithm in ("incdbscan", "recompute"):
        knobs["rho"] = 0.0
    return EngineConfig(**dict(knobs, algorithm=algorithm, eps=eps))


def _usage_error(exc: ReproError, command: str) -> int:
    """Report ``exc`` with knob names spelled as ``command``'s flags."""
    message = str(exc)
    for row in _knob_rows(command):
        message = re.sub(rf"\b{row.name}\b", flag(row.name), message)
    print(message, file=sys.stderr)
    return 2


def cmd_bench(args: argparse.Namespace) -> int:
    unknown = [a for a in args.algorithms if a not in ALGORITHM_CHOICES]
    if unknown:
        print(
            f"unknown algorithm(s): {', '.join(unknown)} "
            f"(choices: {', '.join(ALGORITHM_CHOICES)})",
            file=sys.stderr,
        )
        return 2
    eps = args.eps if args.eps is not None else eps_for(args.dim, args.eps_per_d)
    # Every engine's config is validated before any workload is
    # generated, so a bad flag fails fast with the config's message.
    try:
        configs = {
            name: _engine_config(args, "bench", name, eps)
            for name in args.algorithms
        }
        shard_transport = (
            configs[args.algorithms[0]].resolved_shard_transport
            if args.shards
            else None
        )
    except ConfigError as exc:
        return _usage_error(exc, "bench")
    insert_fraction = 1.0 if args.semi else args.insert_fraction
    sliding = args.scenario == "sliding-window"
    if sliding and args.semi:
        print(
            "--semi (insert-only) conflicts with --scenario "
            "sliding-window: window expiry needs deletions",
            file=sys.stderr,
        )
        return 2
    workload = scenario = None
    if sliding:
        try:
            scenario = sliding_window_scenario(
                args.n,
                args.dim,
                capacity=args.window_capacity,
                arrival=args.arrival,
                seed=args.seed,
            )
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    else:
        workload = generate_workload(
            args.n,
            args.dim,
            insert_fraction=insert_fraction,
            query_frequency=max(1, int(args.n * args.query_freq)),
            seed=args.seed,
        )
    as_text = args.format == "text"
    record = {
        "workload": {
            "n": args.n,
            "dim": args.dim,
            "eps": eps,
            "minpts": args.minpts,
            "rho": args.rho,
            "scenario": args.scenario,
            "insert_fraction": None if sliding else insert_fraction,
            "query_count": None if sliding else workload.query_count,
            "batch_size": args.batch_size,
            "seed": args.seed,
        },
        "backend": kernels.active_backend_name(),
        "shards": args.shards or 1,
        "transport": shard_transport,
        "algorithms": [],
    }
    if sliding:
        record["workload"]["arrival"] = scenario.arrival
        record["workload"]["window_capacity"] = scenario.capacity
        record["workload"]["batches"] = len(scenario.batches)
    if as_text:
        batch_note = (
            f", batched (insert_many/delete_many, batch={args.batch_size})"
            if args.batch_size
            else ""
        )
        shard_note = (
            f", sharded ({args.shards} shards, {args.shard_executor} "
            f"executor, {shard_transport} transport)"
            if args.shards
            else ""
        )
        if sliding:
            print(
                f"scenario: sliding-window ({scenario.arrival} arrivals), "
                f"N={args.n}, capacity={scenario.capacity}, "
                f"{len(scenario.batches)} ticks, d={args.dim}, eps={eps:g}, "
                f"MinPts={args.minpts}, rho={args.rho}{shard_note}, "
                f"backend={kernels.active_backend_name()}"
            )
        else:
            print(
                f"workload: N={args.n} (%ins={insert_fraction:.3f}), d={args.dim}, "
                f"eps={eps:g}, MinPts={args.minpts}, rho={args.rho}, "
                f"{workload.query_count} queries{batch_note}{shard_note}, "
                f"backend={kernels.active_backend_name()}"
            )
    for name in args.algorithms:
        if name.startswith("semi") and (sliding or insert_fraction < 1.0):
            reason = (
                "insert-only algorithm cannot expire a sliding window"
                if sliding
                else "semi-dynamic algorithm, workload has deletions"
            )
            if as_text:
                print(f"  {name:14s} skipped ({reason})")
            record["algorithms"].append({
                "name": name,
                "skipped": True,
                "reason": reason,
            })
            continue
        engine = repro.api.open(configs[name])
        result = (
            run_sliding_window(engine, scenario)
            if sliding
            else run_workload_engine(engine, workload)
        )
        queries = result.query_costs()
        # Amortized per-operation numbers, so batched and sequential rows
        # are comparable (a batch entry covers many updates); identical to
        # the raw per-op values for sequential runs.
        per_update = result.per_update_costs()
        entry = {
            "name": name,
            "skipped": False,
            "avg_cost_per_op_us": result.average_cost_per_operation,
            "avg_update_us": (
                statistics.mean(per_update) if per_update else 0.0
            ),
            "max_update_us": max(per_update) if per_update else 0.0,
            "p50_update_us": result.per_update_percentile(50),
            "p99_update_us": result.per_update_percentile(99),
            "avg_query_us": statistics.mean(queries) if queries else 0.0,
            "p50_query_us": result.query_percentile(50),
            "p99_query_us": result.query_percentile(99),
            "update_count": len(per_update),
            "query_count": len(queries),
            "epoch": engine.epoch,
            "scenario": result.scenario or "mixed",
            "backend": result.backend,
            "shards": result.shards,
            "transport": result.transport,
            "restarts": result.restarts,
            "fragment_hits": result.fragment_hits,
            "fragment_misses": result.fragment_misses,
            "fragment_invalidations": result.fragment_invalidations,
            "config": engine.config.as_dict(),
        }
        if args.shards:
            engine.close()
        record["algorithms"].append(entry)
        if as_text:
            # The text row is a projection of the same record entry, so
            # the two formats can never drift apart.
            print(
                f"  {name:14s} avg {entry['avg_cost_per_op_us']:10.1f} us/op   "
                f"max-update {entry['max_update_us']:12.1f} us   "
                f"p99-update {entry['p99_update_us']:12.1f} us   "
                f"avg-query {entry['avg_query_us']:10.1f} us   "
                f"p99-query {entry['p99_query_us']:10.1f} us"
            )
    if not as_text:
        print(json.dumps(record, indent=2))
    return 0


async def _serve_until_shutdown(service, host: str, port: int) -> int:
    """Bind, announce, block until shutdown is requested, then drain."""
    import signal

    await service.start(host, port)
    bound_host, bound_port = service.address
    mode = (
        f"sliding-window (capacity {service.window.capacity})"
        if service.windowed
        else "mixed ingest/delete/query"
    )
    limits = service.limits
    print(
        f"serving on {bound_host}:{bound_port} — "
        f"{service.engine.config.resolved_algorithm} engine, {mode}; "
        f"max {limits.max_sessions} sessions, queue depth "
        f"{limits.queue_depth}, {limits.max_inflight} in-flight ops; "
        f"ctrl-c drains and exits",
        flush=True,
    )
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, service.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix event loops: ctrl-c raises KeyboardInterrupt
    try:
        await service.wait_shutdown()
    finally:
        print("draining sessions ...", flush=True)
        await service.aclose()
        stats = service.stats
        print(
            f"drained {stats.drained_sessions} session(s) "
            f"({stats.failed_drains} failed); "
            f"{stats.ops_accepted} ops accepted, "
            f"{stats.ops_rejected} rejected, {stats.ops_failed} failed",
            flush=True,
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    eps = args.eps if args.eps is not None else eps_for(args.dim, args.eps_per_d)
    engine = None
    try:
        engine = repro.api.open(
            _engine_config(args, "serve", args.algorithm, eps)
        )
        limits = ServiceLimits(
            **{f.name: getattr(args, f.name) for f in fields(ServiceLimits)}
        )
        service = ClusterService(
            engine,
            limits=limits,
            window_capacity=args.window_capacity,
            allow_shutdown=args.allow_shutdown_op,
        )
    except ReproError as exc:
        if engine is not None:
            engine.close()
        return _usage_error(exc, "serve")
    try:
        return asyncio.run(_serve_until_shutdown(service, args.host, args.port))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    finally:
        engine.close()


def cmd_shard_worker(args: argparse.Namespace) -> int:
    from repro.shard.rpc import serve_worker

    try:
        serve_worker(args.host, args.port, once=args.once)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0
    except OSError as exc:
        print(f"cannot serve on {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    points = seed_spreader(args.n, args.dim, seed=args.seed)
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        for p in points:
            out.write(",".join(f"{x:.6f}" for x in p) + "\n")
    finally:
        if args.output:
            out.close()
    if args.output:
        print(f"wrote {len(points)} points to {args.output}")
    return 0


def cmd_usec(args: argparse.Namespace) -> int:
    from repro.hardness.reduction import (
        make_reduction_clusterer,
        solve_usec_ls_with_clusterer,
    )
    from repro.hardness.usec import random_usec_ls_instance, usec_ls_brute

    mismatches = 0
    for seed in range(args.instances):
        inst = random_usec_ls_instance(
            args.n, args.n, args.dim, extent=3.0, seed=seed
        )
        got = solve_usec_ls_with_clusterer(
            inst.red, inst.blue, make_reduction_clusterer
        )
        want = usec_ls_brute(inst.red, inst.blue)
        status = "OK" if got == want else "MISMATCH"
        mismatches += got != want
        print(
            f"instance {seed}: clustering={'yes' if got else 'no'} "
            f"brute={'yes' if want else 'no'} [{status}]"
        )
    print(f"{args.instances - mismatches}/{args.instances} agree")
    return 1 if mismatches else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Dynamic density based clustering (Gan & Tao, SIGMOD 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a workload through algorithms")
    bench.add_argument("--n", type=int, default=2000, help="number of updates")
    _add_engine_flags(bench, "bench", minpts=MINPTS, rho=RHO)
    bench.add_argument(
        "--insert-fraction", type=float, default=5 / 6, help="%%ins of Table 2"
    )
    bench.add_argument(
        "--query-freq", type=float, default=0.05, help="queries per update"
    )
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument(
        "--semi", action="store_true", help="insert-only workload"
    )
    bench.add_argument(
        "--scenario",
        choices=SCENARIO_CHOICES,
        default="mixed",
        help="workload family: the paper's Section 8.1 mixed "
        "insert/delete/query sequence (mixed), or the streaming "
        "sliding-window scenario — per-tick arrival batches through a "
        "WindowedEngine that expires the oldest points via bulk "
        "delete_many, with periodic C-group-by barriers over the live "
        "window",
    )
    bench.add_argument(
        "--window-capacity",
        type=int,
        default=None,
        help="sliding-window scenario: keep this many most-recent "
        "points (default: n // 4, so the window turns over ~4x per run)",
    )
    bench.add_argument(
        "--arrival",
        choices=ARRIVAL_REGIMES,
        default="burst",
        help="sliding-window arrival regime: bursty tick sizes from a "
        "quiet/hot geometric mixture (burst) or fixed ticks whose "
        "cluster density evolves over the stream (evolving)",
    )
    bench.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable rows (text) or one JSON "
        "record with the full metrics (avg/max/p50/p99 update and "
        "query costs, backend, per-algorithm engine config)",
    )
    bench.add_argument(
        "algorithms",
        nargs="*",
        default=["double-approx", "incdbscan"],
        help=f"algorithms to run (choices: {', '.join(ALGORITHM_CHOICES)})",
    )
    bench.set_defaults(func=cmd_bench)

    serve = sub.add_parser(
        "serve",
        help="start the streaming cluster-analytics service "
        "(JSON-lines over TCP; see repro.service)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7171,
        help="TCP port to bind (0 binds an ephemeral port, announced "
        "on stdout)",
    )
    _add_engine_flags(serve, "serve", minpts=MINPTS, rho=RHO, algorithm="full")
    serve.add_argument(
        "--window-capacity",
        type=int,
        default=None,
        help="serve in sliding-window mode: keep this many most-recent "
        "points, expiring the oldest through bulk delete_many; raw "
        "ingest/delete ops are rejected (405) in favor of window_append",
    )
    for limit in fields(ServiceLimits):
        serve.add_argument(
            flag(limit.name),
            type=type(limit.default),
            default=limit.default,
            help=f"{limit.metadata['doc']} (default: %(default)s)",
        )
    serve.add_argument(
        "--allow-shutdown-op",
        action="store_true",
        help="let clients stop the service with a 'shutdown' op "
        "(useful for scripted smoke tests; off by default)",
    )
    serve.set_defaults(func=cmd_serve)

    worker = sub.add_parser(
        "shard-worker",
        help="run one remote shard worker for the tcp executor "
        "(serves ShardBackend sessions over a socket; see "
        "repro.shard.rpc)",
    )
    worker.add_argument("--host", type=str, default="127.0.0.1")
    worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (0 binds an ephemeral port, announced "
        "on stdout)",
    )
    worker.add_argument(
        "--once",
        action="store_true",
        help="exit after serving one engine session (scripted tests)",
    )
    worker.set_defaults(func=cmd_shard_worker)

    gen = sub.add_parser("generate", help="emit a seed-spreader dataset (CSV)")
    gen.add_argument("--n", type=int, default=10000)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", type=str, default=None)
    gen.set_defaults(func=cmd_generate)

    usec = sub.add_parser("usec", help="run the Theorem 2 hardness reduction")
    usec.add_argument("--n", type=int, default=12, help="points per color")
    usec.add_argument("--dim", type=int, default=2)
    usec.add_argument("--instances", type=int, default=5)
    usec.set_defaults(func=cmd_usec)
    return parser


def main(argv: List[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
