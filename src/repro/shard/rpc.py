"""The tcp shard executor: one remote worker process per shard.

Workers are launched out-of-band (``python -m repro shard-worker --port
P``, one per shard, on any host) and the parent connects with
``shard_executor="tcp"`` plus ``shard_workers=["host:port", ...]``.
:class:`TcpShardExecutor` is the process executor with one difference:
it reaches each shard's worker by connecting to its address instead of
spawning it.  The wire (:mod:`repro.shard.transport`), the worker loop
(:func:`repro.shard.executors.serve_session`), deadlines, poisoning,
fan-outs and close are the process executor's own.

Restarting a shard reconnects to the same address and opens a *fresh
session*: the worker rebuilds its backend from the hello (state empty,
incarnation bumped), so the :class:`repro.shard.supervisor.ShardSupervisor`
recovers a remote worker exactly as it respawns a local one — snapshot
restore plus journal replay.  An injected ``crash`` fault aborts the
serving session (state discarded, parent sees EOF) while the listener
survives, modeling a platform supervisor that restarts the worker
process on the same address.

Workers trust their parent: the control frames are pickles, so a
worker must only ever be reachable from the deployment's own router
(bind to loopback or a private interface, as the quickstart does).
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import time

import repro
from repro.api.config import EngineConfig
from repro.errors import ConfigError, ReproError
from repro.shard.executors import (
    ProcessShardExecutor,
    ShardWorkerLost,
    abort_session,
    serve_session,
)

#: How long a connect attempt sleeps before retrying, while the
#: startup deadline has not expired.  Covers recovery: a platform
#: supervisor restarting a crashed worker on the same address.
_CONNECT_RETRY_SECONDS = 0.05


class TcpShardExecutor(ProcessShardExecutor):
    """One externally launched TCP worker per shard, fan-outs overlapped.

    The executor never spawns or reaps a process; it only (re)connects
    sessions, and ``close()`` leaves the workers serving.
    """

    def __init__(self, config: EngineConfig, shard_count: int) -> None:
        self._addresses = config.resolved_shard_workers
        if len(self._addresses) != shard_count:
            raise ConfigError(
                f"{len(self._addresses)} shard worker addresses for "
                f"{shard_count} shards; exactly one worker per shard is "
                f"required"
            )
        super().__init__(config, shard_count)

    def _connect(self, index: int) -> socket.socket:
        """Connect to shard ``index``'s worker.

        The first session (incarnation 0) fails fast: an address nobody
        listens on is a deployment error.  A reconnect from
        :meth:`restart_worker` retries within the startup deadline, so
        a worker its platform supervisor is still bringing back is
        tolerated.
        """
        host, port = self._addresses[index]
        retrying = self._incarnations[index] > 0
        deadline = time.monotonic() + self._startup_timeout()
        while True:
            try:
                sock = socket.create_connection(
                    (host, port), timeout=max(deadline - time.monotonic(), 0.001)
                )
                break
            except OSError as exc:
                if not retrying or time.monotonic() >= deadline:
                    window = (
                        f" within {self._startup_timeout():g}s"
                        if retrying else ""
                    )
                    raise ShardWorkerLost(
                        f"cannot reach shard worker {index} at "
                        f"{host}:{port}{window}; "
                        f"is 'python -m repro shard-worker' running there?"
                    ) from exc
                time.sleep(_CONNECT_RETRY_SECONDS)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def serve_worker(
    host: str = "127.0.0.1", port: int = 0, *, once: bool = False
) -> None:
    """Run one shard worker: bind, announce, serve sessions forever.

    The ``python -m repro shard-worker`` entry point.  ``port=0`` binds
    an ephemeral port; the chosen address is announced on stdout as
    ``shard worker listening on host:port`` (flushed), which is how the
    test/CI launcher discovers it.  One session is served at a time —
    an executor owns its worker for the session's lifetime — and the
    listener survives session failures, so a supervisor's reconnect
    always has somewhere to land.  ``once`` returns after the first
    session ends (tests).
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((host, port))
        listener.listen(8)
        bound_host, bound_port = listener.getsockname()[:2]
        print(
            f"shard worker listening on {bound_host}:{bound_port}",
            flush=True,
        )
        while True:
            conn, _ = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                serve_session(conn, on_crash=abort_session)
            finally:
                with contextlib.suppress(OSError):
                    conn.close()
            if once:
                return
    finally:
        with contextlib.suppress(OSError):
            listener.close()


# ----------------------------------------------------------------------
# Local worker launching (tests, CI, the quickstart)
# ----------------------------------------------------------------------


def spawn_worker_process(port: int = 0, host: str = "127.0.0.1"):
    """Launch one ``python -m repro shard-worker`` subprocess.

    Returns ``(process, "host:port")`` once the worker has announced
    its listening address.  ``port=0`` lets the worker pick a free
    ephemeral port.  The child imports ``repro`` from the directory
    this process imported it from, so a parent that found the package
    through ``sys.path`` alone launches a worker that finds it too.
    A worker that exits before announcing raises a :class:`ReproError`
    carrying everything it printed.
    """
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "shard-worker",
            "--host",
            host,
            "--port",
            str(port),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    output = []
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            proc.stdout.close()
            raise ReproError(
                f"shard worker exited with status {proc.returncode} "
                f"before announcing its address; its output:\n"
                + "".join(output)
            )
        if "listening on" in line:
            address = line.rsplit(" ", 1)[-1].strip()
            return proc, address
        output.append(line)


def terminate_worker_process(proc) -> None:
    """Stop a worker launched by :func:`spawn_worker_process`."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - straggler
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


@contextlib.contextmanager
def local_workers(count: int):
    """``count`` localhost workers on ephemeral ports, reaped on exit.

    Yields the ``["host:port", ...]`` list ready for the
    ``shard_workers`` config knob.
    """
    procs = []
    addresses = []
    try:
        for _ in range(count):
            proc, address = spawn_worker_process()
            procs.append(proc)
            addresses.append(address)
        yield addresses
    finally:
        for proc in procs:
            terminate_worker_process(proc)


__all__ = [
    "TcpShardExecutor",
    "local_workers",
    "serve_worker",
    "spawn_worker_process",
    "terminate_worker_process",
]
