"""Layered benchmark of the repro dynamic-DBSCAN stack.

One run::

    python3 perfbench/run.py --workload window-full-2d --seed 1 \
        --seconds 20 --trace 0

prints one ``metric`` line per end-to-end metric (``--trace 0``) or
per-layer metric (``--trace 1``) with its unit and sample count, an
environment stamp, the oracle and teardown verdicts, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
It exits 1 if the oracle, the teardown check or any operation failed,
and also, printing no result, if the program is not there to measure.

Every workload, timed and traced, with the tracing overhead::

    python3 perfbench/run.py --all --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def end_to_end_names():
    with open(SPEC) as fh:
        return [m["name"] for m in json.load(fh)["end_to_end"]]


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_program():
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"not from {src}")


def run_one(args) -> int:
    import_program()
    import numpy

    from repro import kernels
    from tracing import PER_LAYER, Tracer
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(outdir, exist_ok=True)
    result = WORKLOADS[args.workload](args.seed, args.seconds, tracer, outdir)

    env = {
        "record": "env", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "backend": kernels.active_backend_name(),
        "shard_transport": result.transport, "git_commit": git_commit(),
    }
    print(json.dumps(env))
    names = end_to_end_names()
    missing = [n for n in names if n not in result.metrics]
    if missing:
        result.problems.append(f"end-to-end metrics not measured: {missing}")
    for name in names:
        if name in result.metrics:
            value, unit, samples = result.metrics[name]
            print(f"metric {name} {value:.6g} {unit} n={samples}")
    metrics = {}
    if args.trace:
        if result.layers is None:
            result.problems.append("traced run produced no per-layer metrics")
        else:
            for name, unit in PER_LAYER.items():
                value = float(result.layers.get(name, 0.0))
                metrics[name] = {"value": value, "unit": unit}
                print(f"layer {name} {value:.6g} {unit}")
            with open(os.path.join(
                    outdir, f"trace-{args.workload}-{args.seed}.json"),
                    "w") as fh:
                json.dump({"env": env, "layers": result.layers,
                           "spans": result.spans}, fh, indent=1)
        traced = {n: v for n, (v, _, _) in result.metrics.items()}
        print("traced end-to-end " + json.dumps(traced))
    else:
        metrics = {n: {"value": v, "unit": u}
                   for n, (v, u, _) in result.metrics.items()}
    for note in result.notes:
        print(f"note {note}")
    print(f"accounting attempted={result.attempted} failed={result.failed} "
          f"restarts={result.restarts}")
    for problem in result.problems:
        print(f"problem {problem}")
    correct = not result.problems and result.failed == 0
    print("oracle and teardown: " + ("pass" if correct else "FAIL"))
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, as subprocesses; one table."""
    status = 0
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            status = status or proc.returncode
            runs[trace] = proc.stdout.splitlines()
            if proc.returncode:
                sys.stdout.write(proc.stdout + proc.stderr)
        print(f"== {workload} (seed {args.seed}, {args.seconds}s)")
        traced = {}
        for line in runs[1]:
            if line.startswith("traced end-to-end "):
                traced = json.loads(line[len("traced end-to-end "):])
        for line in runs[0]:
            if line.startswith("metric "):
                _, name, value, unit, samples = line.split()
                with_trace = traced.get(name)
                overhead = (f"traced {with_trace:.6g} "
                            f"({(with_trace / float(value) - 1) * 100:+.1f}%)"
                            if with_trace else "")
                print(f"  {name:18s} {value:>12s} {unit:6s} {samples:8s} "
                      f"{overhead}")
            elif line.startswith(("{\"record\"", "note ", "accounting ",
                                  "problem ", "oracle ")):
                print(f"  {line}")
        for line in runs[1]:
            if line.startswith("layer "):
                print(f"  {line}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
