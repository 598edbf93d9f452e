"""Distributed TCP shard executor: one remote worker process per shard.

The ROADMAP's "millions-of-users" step: the executor interface is tiny
(``call`` / ``map`` / ``map_scatter`` over plain data), so this module
turns the PR 5–7 process-pool deployment into a genuinely distributed
one by speaking the same call surface over sockets.  Workers are
launched out-of-band (``python -m repro shard-worker --port P``, one
per shard, on any host) and the parent connects with
``shard_executor="tcp"`` plus ``shard_workers=["host:port", ...]``.

**Wire format.**  Every message is a length-prefixed (8-byte
big-endian) pickled *control frame* followed by one raw *payload
frame* per bulk numpy array::

    parent -> worker:  ("hello", config, index, count, incarnation, fault_spec)
                       ("call", method, control)
                       ("bye",)
    worker -> parent:  ("ready", index)
                       ("ok", control)
                       ("error", exception)

The control/payload split reuses the exact descriptor framing of the
shm transport (:mod:`repro.shard.transport`): the declared bulk
positions of :data:`repro.shard.backend.BULK_CALLS` are walked with
``_extract``, every ndarray is replaced by a ``_Ref`` placeholder and
its ``(dtype, shape)`` descriptor rides the control frame; the bytes
themselves are streamed raw — **array data is never pickled in either
direction** — and rebuilt on receipt as read-only views over the
received buffers.

**Failure surface** mirrors :class:`ProcessShardExecutor` exactly:
every reply wait is deadline-bounded (``shard_call_timeout`` →
:class:`repro.errors.ShardTimeoutError`), a dead worker or reset
connection raises :class:`ShardWorkerLost`, and either failure poisons
the shard's connection until :meth:`TcpShardExecutor.restart_worker`
reconnects it.  Reconnecting starts a *fresh session*: the worker
rebuilds its backend from the hello (state empty, incarnation bumped),
so the :class:`repro.shard.supervisor.ShardSupervisor` recovers a
remote worker exactly as it respawns a local one — snapshot restore
plus journal replay.  An injected ``crash`` fault aborts the serving
session (state discarded, parent sees EOF) while the listener
survives, modeling a platform supervisor that restarts the worker
process on the same address.

Workers trust their parent: the control frames are pickles, so a
worker must only ever be reachable from the deployment's own router
(bind to loopback or a private interface, as the quickstart does).
"""

from __future__ import annotations

import contextlib
import pickle
import socket
import struct
import subprocess
import sys
import time
import traceback
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.config import EngineConfig
from repro.errors import ConfigError, ReproError, ShardTimeoutError
from repro.shard.backend import BULK_CALLS, ShardBackend
from repro.shard.executors import (
    RECOVERABLE_FAILURES,
    STARTUP_TIMEOUT_FLOOR,
    Call,
    ShardWorkerLost,
)
from repro.shard.faults import injector_for
from repro.shard.transport import _extract, _plant

#: How long a connect attempt sleeps before retrying, while the
#: startup deadline has not expired.  Covers both cold start (worker
#: still binding its listener) and recovery (a platform supervisor
#: restarting a crashed worker on the same address).
_CONNECT_RETRY_SECONDS = 0.05

_LENGTH = struct.Struct(">Q")


class _SessionCrash(Exception):
    """Injected ``crash`` inside a tcp worker: abort the session only."""


def _recv_exact(sock: socket.socket, n: int, deadline: Optional[float]) -> bytearray:
    """Read exactly ``n`` bytes; EOFError on close, timeout on deadline."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardTimeoutError("no reply within the deadline")
            sock.settimeout(remaining)
        else:
            sock.settimeout(None)
        try:
            count = sock.recv_into(view[got:])
        except socket.timeout:
            raise ShardTimeoutError("no reply within the deadline") from None
        if count == 0:
            raise EOFError("connection closed mid-message")
        got += count
    return buf


def _recv_frame(sock: socket.socket, deadline: Optional[float]) -> bytearray:
    header = _recv_exact(sock, _LENGTH.size, deadline)
    (length,) = _LENGTH.unpack(bytes(header))
    if length == 0:
        return bytearray()
    return _recv_exact(sock, length, deadline)


def write_message(
    sock: socket.socket, header: Any, arrays: Sequence[np.ndarray]
) -> None:
    """One control frame (pickled, with payload descriptors) + raw arrays.

    The pickle is built *before* any byte hits the socket, so a
    pickling failure leaves the stream clean — the error-relay
    fallback depends on that.
    """
    desc = [(arr.dtype.str, arr.shape) for arr in arrays]
    blob = pickle.dumps((header, desc), protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH.pack(len(blob)) + blob)
    for arr in arrays:
        sock.sendall(_LENGTH.pack(arr.nbytes))
        if arr.nbytes:
            sock.sendall(memoryview(arr).cast("B"))


def read_message(
    sock: socket.socket, deadline: Optional[float] = None
) -> Tuple[Any, List[np.ndarray]]:
    """One message back: the control header plus read-only array views.

    The views own their receive buffers, so — unlike shm views — they
    stay valid for as long as the caller holds them.
    """
    header, desc = pickle.loads(bytes(_recv_frame(sock, deadline)))
    views: List[np.ndarray] = []
    for dtype_str, shape in desc:
        dt = np.dtype(dtype_str)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        buf = _recv_frame(sock, deadline)
        flat = np.frombuffer(buf, dtype=dt, count=count)
        flat.flags.writeable = False
        views.append(flat.reshape(shape))
    return header, views


def _frame_args(method: str, args: Tuple[Any, ...]):
    """Split call args into (control, arrays) per the declared bulk spec."""
    spec = BULK_CALLS.get(method)
    if spec is None or not spec.arg_positions:
        return args, []
    arrays: List[np.ndarray] = []
    control = tuple(
        _extract(arg, arrays) if i in spec.arg_positions else arg
        for i, arg in enumerate(args)
    )
    return control, arrays


def _frame_result(method: str, result: Any):
    """Split a call result into (control, arrays) per the bulk spec."""
    spec = BULK_CALLS.get(method)
    if spec is None or not spec.bulk_result:
        return result, []
    arrays: List[np.ndarray] = []
    return _extract(result, arrays), arrays


class TcpShardExecutor:
    """One externally launched TCP worker per shard, fan-outs overlapped.

    Mirrors :class:`repro.shard.executors.ProcessShardExecutor`'s call
    and failure surface (``call`` / ``map`` / ``map_scatter`` /
    ``restart_worker`` / poisoned channels), but the workers live
    behind ``shard_workers`` addresses instead of pipes — the executor
    never spawns or reaps a process, it only (re)connects sessions.
    """

    def __init__(self, config: EngineConfig, shard_count: int) -> None:
        self.shard_count = shard_count
        self.transport = "tcp"
        self.call_timeout = config.resolved_shard_call_timeout
        self._fault_spec = config.resolved_shard_fault_plan
        self._config = config
        self._addresses = config.resolved_shard_workers
        if len(self._addresses) != shard_count:
            raise ConfigError(
                f"{len(self._addresses)} shard worker addresses for "
                f"{shard_count} shards; exactly one worker per shard is "
                f"required"
            )
        self._socks: List[Optional[socket.socket]] = [None] * shard_count
        self._incarnations: List[int] = [0] * shard_count
        self._poisoned: List[bool] = [False] * shard_count
        self._closed = False
        try:
            for index in range(shard_count):
                self._connect(index)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def _startup_timeout(self) -> float:
        return max(self.call_timeout, STARTUP_TIMEOUT_FLOOR)

    def _connect(self, index: int) -> None:
        """Open shard ``index``'s session: connect, hello, await ready.

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
            except (OSError, socket.timeout) as exc:
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
        try:
            write_message(
                sock,
                (
                    "hello",
                    self._config,
                    index,
                    self.shard_count,
                    self._incarnations[index],
                    self._fault_spec,
                ),
                [],
            )
            header, _ = read_message(
                sock, deadline=time.monotonic() + self._startup_timeout()
            )
        except (
            ConnectionError,
            OSError,
            EOFError,
            pickle.UnpicklingError,
        ) as exc:
            sock.close()
            raise ShardWorkerLost(
                f"shard worker {index} at {host}:{port} did not complete "
                f"the session handshake"
            ) from exc
        if header[0] == "error":
            sock.close()
            raise header[1]
        if header[0] != "ready" or header[1] != index:
            sock.close()
            raise ShardWorkerLost(
                f"shard worker {index} at {host}:{port} answered the "
                f"hello with {header!r}"
            )
        self._socks[index] = sock
        self._poisoned[index] = False

    def restart_worker(self, index: int) -> None:
        """Drop shard ``index``'s session and open a fresh one.

        The recovery primitive the supervisor drives after a death or
        timeout.  The new session's backend is *empty* (the worker
        rebuilds it per hello, incarnation bumped); rebuilding its
        state is the caller's job — the supervisor restores the last
        snapshot and replays the journal suffix.
        """
        self._ensure_open()
        sock = self._socks[index]
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._socks[index] = None
        self._incarnations[index] += 1
        self._connect(index)

    def restart_count(self, index: int) -> int:
        """How many times shard ``index``'s session has been reopened."""
        return self._incarnations[index]

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ReproError(
                "this tcp shard executor is closed; calls after close() "
                "are a lifecycle bug in the caller"
            )

    def _send(self, shard_index: int, method: str, args: Tuple) -> None:
        if self._poisoned[shard_index]:
            raise ShardWorkerLost(
                f"shard worker {shard_index}'s connection is poisoned by "
                f"an earlier timeout or disconnect; the session must be "
                f"reopened before it can serve calls again"
            )
        sock = self._socks[shard_index]
        control, arrays = _frame_args(method, args)
        try:
            # Bound the send too: a worker that stopped reading (hung
            # with full buffers) must not block the parent forever.
            sock.settimeout(self.call_timeout)
            write_message(sock, ("call", method, control), arrays)
        except socket.timeout as exc:
            self._poisoned[shard_index] = True
            raise ShardTimeoutError(
                f"shard worker {shard_index} did not accept a call within "
                f"{self.call_timeout:g}s (shard_call_timeout)"
            ) from exc
        except (ConnectionError, BrokenPipeError, OSError) as exc:
            self._poisoned[shard_index] = True
            raise ShardWorkerLost(
                f"shard worker {shard_index} is gone (connection closed)"
            ) from exc

    def _recv(self, shard_index: int, timeout: Optional[float] = None) -> Any:
        if timeout is None:
            timeout = self.call_timeout
        sock = self._socks[shard_index]
        try:
            header, views = read_message(
                sock, deadline=time.monotonic() + timeout
            )
        except EOFError as exc:
            self._poisoned[shard_index] = True
            raise ShardWorkerLost(
                f"shard worker {shard_index} died mid-call"
            ) from exc
        # ShardTimeoutError subclasses TimeoutError (an OSError), so it
        # must be told apart before the generic connection failures.
        except ShardTimeoutError as exc:
            self._poisoned[shard_index] = True
            raise ShardTimeoutError(
                f"shard worker {shard_index} did not reply within "
                f"{timeout:g}s (shard_call_timeout); the worker is hung "
                f"and its session must be reopened before it can serve "
                f"calls again"
            ) from exc
        except (ConnectionError, OSError) as exc:
            self._poisoned[shard_index] = True
            raise ShardWorkerLost(
                f"shard worker {shard_index}'s connection failed mid-call"
            ) from exc
        tag = header[0]
        if tag == "error":
            raise header[1]
        return _plant(header[1], views)

    def call(self, shard_index: int, method: str, *args) -> Any:
        self._ensure_open()
        self._send(shard_index, method, args)
        return self._recv(shard_index)

    def map_scatter(self, calls: Sequence[Call]) -> List[Any]:
        """One outcome per shard: results and *failures*, never a raise.

        Identical contract to the process executor's: every involved
        shard's reply is drained, and a shard's failure comes back as
        the exception object in its slot so the supervisor can recover
        exactly the shards that failed.
        """
        self._ensure_open()
        results: List[Any] = [None] * len(calls)
        involved = []
        for index, call in enumerate(calls):
            if call is None:
                continue
            try:
                self._send(index, call[0], call[1])
            except RECOVERABLE_FAILURES as exc:
                results[index] = exc
                continue
            involved.append(index)
        for index in involved:
            try:
                results[index] = self._recv(index)
            except BaseException as exc:  # noqa: BLE001
                results[index] = exc
        return results

    def map(self, calls: Sequence[Call]) -> List[Any]:
        """One result (or ``None``) per shard, all shards in flight at once.

        Raises the first failure in shard order, after draining every
        reply.
        """
        results = self.map_scatter(calls)
        for outcome in results:
            if isinstance(outcome, BaseException):
                raise outcome
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """End every session; idempotent.  Workers themselves live on —
        they are external processes serving one session after another.
        """
        if self._closed:
            return
        self._closed = True
        for index, sock in enumerate(self._socks):
            if sock is None:
                continue
            if not self._poisoned[index]:
                try:
                    sock.settimeout(1.0)
                    write_message(sock, ("bye",), [])
                except (ConnectionError, OSError, socket.timeout):
                    pass
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self._socks[index] = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _send_error(sock: socket.socket, exc: BaseException) -> None:
    """Relay an exception without letting the relay kill the session.

    The pickle is built before any byte is written, so an unpicklable
    exception falls back to a :class:`ReproError` carrying the repr and
    traceback text — the stream stays in sync either way.
    """
    try:
        write_message(sock, ("error", exc), [])
    except (ConnectionError, BrokenPipeError, OSError):
        raise
    except Exception:
        detail = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        write_message(
            sock,
            (
                "error",
                ReproError(
                    f"shard backend raised an exception that could not be "
                    f"relayed over the socket: {exc!r}\n"
                    f"--- original traceback ---\n{detail}"
                ),
            ),
        )


def _serve_session(conn: socket.socket) -> None:
    """Serve one executor session: hello, then calls until bye/EOF.

    Each session owns a freshly built backend; ending the session (bye,
    EOF, or an injected crash) discards it — which is exactly the
    "worker restarted, state empty" contract the supervisor's
    snapshot-plus-replay recovery is built for.
    """
    try:
        header, _ = read_message(conn)
    except (EOFError, ConnectionError, OSError, pickle.UnpicklingError):
        return
    if not isinstance(header, tuple) or header[0] != "hello":
        with contextlib.suppress(ConnectionError, OSError):
            _send_error(
                conn, ReproError(f"expected a hello frame, got {header!r}")
            )
        return
    _, config, index, count, incarnation, fault_spec = header
    try:
        backend = ShardBackend(config, index, count)
        injector = injector_for(fault_spec, index, incarnation)
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        with contextlib.suppress(ConnectionError, OSError):
            _send_error(conn, exc)
        return
    try:
        write_message(conn, ("ready", index), [])
        while True:
            try:
                header, views = read_message(conn)
            except (EOFError, ConnectionError, OSError):
                return
            if not isinstance(header, tuple) or header[0] == "bye":
                return
            _, method, control = header
            args = _plant(control, views)
            if injector is not None:
                try:
                    injector.fire(method, on_crash=_raise_session_crash)
                except _SessionCrash:
                    # Abort without replying: the parent sees EOF, the
                    # state dies with the session, and the listener
                    # lives on to accept the recovery connection.
                    return
                except BaseException as exc:  # noqa: BLE001 - injected error
                    try:
                        _send_error(conn, exc)
                    except (ConnectionError, BrokenPipeError, OSError):
                        return
                    continue
            try:
                result = getattr(backend, method)(*args)
            except BaseException as exc:  # noqa: BLE001 - relayed
                try:
                    _send_error(conn, exc)
                except (ConnectionError, BrokenPipeError, OSError):
                    return
                continue
            control, arrays = _frame_result(method, result)
            try:
                write_message(conn, ("ok", control), arrays)
            except (ConnectionError, BrokenPipeError, OSError):
                return
            except Exception as exc:  # noqa: BLE001 - reply framing failed
                try:
                    _send_error(
                        conn,
                        ReproError(
                            f"shard {index} failed to frame a reply for "
                            f"{method!r}: {exc!r}"
                        ),
                    )
                except (ConnectionError, BrokenPipeError, OSError):
                    return
    finally:
        backend.close()


def _raise_session_crash() -> None:
    raise _SessionCrash()


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
                _serve_session(conn)
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
    ephemeral port.
    """
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
    )
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise ReproError(
                f"shard worker exited with status {proc.returncode} "
                f"before announcing its address"
            )
        if "listening on" in line:
            address = line.rsplit(" ", 1)[-1].strip()
            return proc, address


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
    "read_message",
    "serve_worker",
    "spawn_worker_process",
    "terminate_worker_process",
    "write_message",
]
