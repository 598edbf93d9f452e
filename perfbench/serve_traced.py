"""Run ``python -m repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_traced.py OUT.json serve --dim 2 ...``

A ``ping`` whose payload is :data:`START` resets and starts the tracer;
one whose payload is :data:`STOP` stops it and freezes the per-layer
metrics.  They are written to ``OUT.json`` when the server exits.

Queue wait of a request is the time from the end of its
``protocol.decode_request`` to the start of its execution, that is its
residence time minus its own execution span.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

START = "perfbench:start"
STOP = "perfbench:stop"


def main(argv):
    out_path, serve_args = argv[0], argv[1:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    from tracing import Tracer, fragment_metrics, service_op_metrics

    from repro import __main__ as cli
    from repro.service import protocol, server

    tracer = Tracer()
    tracer.install()
    services = []
    decoded_at = {}
    queue_wait = defaultdict(list)
    execute = defaultdict(list)
    state = {"metrics": None}

    init = server.ClusterService.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    server.ClusterService.__init__ = capture

    decode = protocol.decode_request

    def decode_request(line):
        request = decode(line)
        if tracer.active:
            decoded_at[id(request)] = time.perf_counter()
        return request

    protocol.decode_request = decode_request

    def counters(service):
        stats = service.engine.stats()
        return (stats.fragment_cache, service.stats.ops_rejected,
                service.stats.ops_failed)

    run = server.ClusterService._execute

    def _execute(self, session, request):
        op = request.get("op")
        if op == "ping" and request.get("payload") == START:
            tracer.reset()
            decoded_at.clear()
            queue_wait.clear()
            execute.clear()
            state["before"] = counters(self)
            tracer.active = True
        elif op == "ping" and request.get("payload") == STOP and tracer.active:
            tracer.active = False
            frag0, rejected0, failed0 = state["before"]
            frag1, rejected1, failed1 = counters(self)
            extra = fragment_metrics(frag0, frag1)
            extra.update(service_op_metrics(queue_wait, execute))
            extra["service.ops_rejected"] = rejected1 - rejected0
            extra["service.ops_failed"] = failed1 - failed0
            state["metrics"] = tracer.layer_metrics(extra)
        if not tracer.active:
            return run(self, session, request)
        start = time.perf_counter()
        decoded = decoded_at.pop(id(request), None)
        if decoded is not None:
            queue_wait[op].append(start - decoded)
        try:
            return run(self, session, request)
        finally:
            execute[op].append(time.perf_counter() - start)

    server.ClusterService._execute = _execute

    code = cli.main(serve_args)
    with open(out_path, "w") as fh:
        json.dump({"metrics": state["metrics"], "spans": tracer.span_tree()},
                  fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
