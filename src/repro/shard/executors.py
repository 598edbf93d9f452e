"""Shard executors: where the per-shard backends actually live.

The router never talks to a :class:`repro.shard.backend.ShardBackend`
directly; it issues ``(method, args)`` calls through an executor, so
single-process and multi-process deployments share one routing and one
merge path:

* :class:`SerialShardExecutor` holds the backends in-process and runs
  calls inline — deterministic, debuggable, zero transport cost; the
  default, and what the differential-testing harness drives.
* :class:`ProcessShardExecutor` spawns one worker process per shard
  (multiprocessing ``spawn``: nothing of the parent's interpreter
  state is inherited) and talks to it over its end of a
  ``socket.socketpair()``.  :class:`repro.shard.rpc.TcpShardExecutor`
  is the same executor with the workers behind TCP addresses instead.

Both worker executors speak the one shard wire of
:mod:`repro.shard.transport`, and every worker runs the one worker
loop, :func:`serve_session`: a hello builds a fresh backend, then calls
are served until goodbye or EOF.  :meth:`ProcessShardExecutor.map`
writes every request before reading any reply, so the per-shard work
of a fan-out overlaps.

**Failure surface.**  Every reply wait carries a deadline
(``EngineConfig.shard_call_timeout``), so a hung worker raises
:class:`repro.errors.ShardTimeoutError` instead of hanging the parent,
and a dead worker raises :class:`ShardWorkerLost` — both within
bounded time.  After either failure the shard's channel is *poisoned*
(a late reply from a timed-out worker would desynchronize the
request/reply alternation), and :meth:`ProcessShardExecutor.restart_worker`
is the recovery primitive: drop the connection, reap the straggler
(terminate, then SIGKILL) and spawn a fresh worker with a bumped
*incarnation* number — for tcp, reconnect instead — and fail fast on
its liveness ping.  The :class:`repro.shard.supervisor.ShardSupervisor`
drives it and replays the shard's journal to rebuild state exactly.

Exceptions raised inside a backend propagate to the caller unchanged
when they pickle; an exception that defeats pickling is relayed as a
:class:`repro.errors.ReproError` carrying its ``repr`` and traceback
text.  ``close()`` is idempotent — safe after double-close and after
worker death — escalates terminate → kill on stragglers and releases
every ``Process`` object.  Calls on a closed executor raise a clear
:class:`ReproError`.

Fault injection (:mod:`repro.shard.faults`): when the config resolves
a fault plan, each worker consults a per-incarnation injector before
dispatching a call — the chaos-test surface that proves the recovery
path, at zero cost when no plan is set.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import socket
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.api.config import EngineConfig
from repro.errors import ReproError, ShardTimeoutError
from repro.shard.backend import ShardBackend
from repro.shard.faults import injector_for
from repro.shard.transport import ParentChannel, WorkerChannel

#: One fan-out request: ``(method name, argument tuple)`` or ``None``
#: for "this shard sits the round out".
Call = Optional[Tuple[str, Tuple[Any, ...]]]

#: Worker-isolation sentinel: workers report this through
#: ``runtime_info``.  A parent that mutates it before opening a
#: process executor must *not* see the mutation reflected back — the
#: regression test that backends are rebuilt fresh in spawned workers.
WORKER_SENTINEL = "fresh"

#: Floor (seconds) on the deadline of a worker's *first* replies — the
#: hello and liveness ping after a spawn, respawn or reconnect.  A cold
#: ``spawn`` start imports the whole package in the child, which can
#: dwarf a tight ``shard_call_timeout`` tuned for steady-state calls;
#: startup still fails in bounded time, just against a realistic bound.
STARTUP_TIMEOUT_FLOOR = 60.0

#: How long (seconds) each escalation step of a worker teardown waits:
#: graceful join after the goodbye, join after terminate, join after
#: kill.
REAP_TIMEOUT = 5.0

#: Process workers always start from a fresh interpreter.
_SPAWN = mp.get_context("spawn")


class ShardWorkerLost(ReproError):
    """A shard worker died or its channel is unusable.

    Distinct from a *relayed* backend exception (the worker survives
    those): this is the executor diagnosing the worker itself —
    connection closed on send, EOF mid-reply, or a poisoned channel
    after an earlier timeout.  Together with
    :class:`repro.errors.ShardTimeoutError` it is exactly the failure
    set the supervisor treats as recoverable by restart-and-replay.
    """


#: The failures recovery applies to.  Anything else an executor call
#: raises is a relayed backend exception and propagates untouched.
RECOVERABLE_FAILURES = (ShardWorkerLost, ShardTimeoutError)


class SerialShardExecutor:
    """All shard backends in the calling process, called inline."""

    def __init__(self, config: EngineConfig, shard_count: int) -> None:
        self.shard_count = shard_count
        self.transport = "inline"
        self._config = config
        self._backends = [
            ShardBackend(config, index, shard_count)
            for index in range(shard_count)
        ]
        self._restarts = [0] * shard_count
        self._closed = False

    def _ensure_open(self) -> None:
        if self._closed:
            raise ReproError(
                "this serial shard executor is closed; calls after "
                "close() are a lifecycle bug in the caller"
            )

    def restart_worker(self, shard_index: int) -> None:
        """Replace one backend with a freshly built (empty) one.

        In-process twin of the process/tcp restart primitive, so the
        supervisor's journal/snapshot recovery can be driven (and
        tested) without spawning anything.
        """
        self._ensure_open()
        self._backends[shard_index].close()
        self._backends[shard_index] = ShardBackend(
            self._config, shard_index, self.shard_count
        )
        self._restarts[shard_index] += 1

    def restart_count(self, shard_index: int) -> int:
        return self._restarts[shard_index]

    def call(self, shard_index: int, method: str, *args) -> Any:
        self._ensure_open()
        return getattr(self._backends[shard_index], method)(*args)

    def map(self, calls: Sequence[Call]) -> List[Any]:
        """One result (or ``None``) per shard, in shard order."""
        self._ensure_open()
        return [
            None if call is None else self.call(index, call[0], *call[1])
            for index, call in enumerate(calls)
        ]

    def close(self) -> None:
        """Close every per-shard engine; idempotent."""
        if self._closed:
            return
        self._closed = True
        for backend in self._backends:
            backend.close()
        self._backends = []


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class SessionAborted(Exception):
    """An injected ``crash`` that ends only the serving session."""


def abort_session() -> None:
    """``on_crash`` hook of a worker that outlives its sessions."""
    raise SessionAborted()


def serve_session(
    sock: socket.socket, on_crash: Optional[Callable[[], None]] = None
) -> None:
    """Serve one executor session: hello, then calls until goodbye/EOF.

    The hello builds a fresh backend; ending the session discards it,
    which is exactly the "worker restarted, state empty" contract the
    supervisor's snapshot-plus-replay recovery is built for.  An
    injected ``crash`` calls ``on_crash`` — by default none, so the
    process exits the way a segfault would; a tcp worker passes
    :func:`abort_session` and lives on to serve the recovery session.
    """
    channel = WorkerChannel(sock)
    request = channel.recv_call()
    if request is None:
        return
    method, args = request
    try:
        if method != "hello":
            raise ReproError(f"expected a hello call, got {method!r}")
        config, index, count, incarnation, fault_spec = args
        backend = ShardBackend(config, index, count)
        injector = injector_for(fault_spec, index, incarnation)
    except BaseException as exc:  # noqa: BLE001 - relayed to the parent
        try:
            channel.send_error(exc)
        except OSError:
            pass
        return
    try:
        channel.send_ok(method, index)
        while True:
            request = channel.recv_call()
            if request is None:
                return
            method, args = request
            try:
                if injector is not None:
                    injector.fire(method, on_crash=on_crash)
                result = getattr(backend, method)(*args)
            except SessionAborted:
                # No reply: the parent sees EOF and the state dies
                # with the session.
                return
            except BaseException as exc:  # noqa: BLE001 - relayed
                channel.send_error(exc)
                continue
            try:
                channel.send_ok(method, result)
            except OSError:
                raise
            except Exception as exc:  # noqa: BLE001 - reply framing failed
                channel.send_error(
                    ReproError(
                        f"shard {index} failed to frame a reply for "
                        f"{method!r}: {exc!r}"
                    )
                )
    except OSError:
        return
    finally:
        backend.close()


def _process_worker(sock: socket.socket) -> None:
    """Entry point of a spawned worker: one session on ``sock``."""
    try:
        serve_session(sock)
    finally:
        sock.close()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class ProcessShardExecutor:
    """One worker per shard over the shard wire, fan-outs overlapped.

    This class owns deadlines, channel poisoning, ``call`` / ``map`` /
    ``map_scatter``, restart and close for every worker executor.  It
    spawns its workers; :class:`repro.shard.rpc.TcpShardExecutor`
    overrides only :meth:`_connect` to reach remote ones instead.
    """

    def __init__(self, config: EngineConfig, shard_count: int) -> None:
        self.shard_count = shard_count
        self.transport = config.resolved_shard_transport
        self.call_timeout = config.resolved_shard_call_timeout
        self._fault_spec = config.resolved_shard_fault_plan
        self._config = config
        self._channels: List[Optional[ParentChannel]] = [None] * shard_count
        self._procs: List[Optional[mp.process.BaseProcess]] = [None] * shard_count
        self._incarnations: List[int] = [0] * shard_count
        #: A poisoned channel saw a timeout or EOF: its request/reply
        #: alternation can no longer be trusted (a late reply may still
        #: arrive), so sends fail until restart_worker replaces it.
        self._poisoned: List[bool] = [False] * shard_count
        self._closed = False
        atexit.register(self.close)
        # Fail construction fast (bad config, unreachable or dying
        # worker) instead of on the first routed batch — and if it does
        # fail, tear down whatever was already started.
        try:
            for index in range(shard_count):
                self._open(index)
            for index in range(shard_count):
                self._await_ready(index)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    def _startup_timeout(self) -> float:
        return max(self.call_timeout, STARTUP_TIMEOUT_FLOOR)

    def _connect(self, index: int) -> socket.socket:
        """Spawn shard ``index``'s worker; return the parent's socket end."""
        parent, child = socket.socketpair()
        proc = _SPAWN.Process(
            target=_process_worker,
            args=(child,),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        try:
            proc.start()
        except BaseException:
            parent.close()
            raise
        finally:
            child.close()
        self._procs[index] = proc
        return parent

    def _open(self, index: int) -> None:
        """Open shard ``index``'s session: connect, then send the hello
        and the liveness ping without waiting (see :meth:`_await_ready`)."""
        self._channels[index] = ParentChannel(self._connect(index))
        self._poisoned[index] = False
        self._send(
            index,
            "hello",
            (
                self._config,
                index,
                self.shard_count,
                self._incarnations[index],
                self._fault_spec,
            ),
        )
        self._send(index, "ping", ())

    def _await_ready(self, index: int) -> None:
        """The hello's and the ping's replies, within the startup deadline."""
        self._recv(index, timeout=self._startup_timeout())
        self._recv(index, timeout=self._startup_timeout())

    def _drop(self, index: int, graceful: bool) -> None:
        """Close shard ``index``'s channel (with a goodbye when
        ``graceful``), leaving its worker to :meth:`_reap`."""
        channel = self._channels[index]
        self._channels[index] = None
        if channel is not None:
            channel.close(bye=graceful)

    def _reap(self, index: int, graceful: bool) -> None:
        """Make shard ``index``'s worker process fully gone, if any.

        ``graceful`` first waits for a clean exit (the goodbye was
        sent); then terminate, then — for a worker that ignores
        SIGTERM, e.g. one that is SIGSTOP'd — SIGKILL.  The final
        ``proc.close()`` releases the ``Process`` object so a
        long-lived parent opening many executors leaks nothing.
        """
        proc = self._procs[index]
        self._procs[index] = None
        if proc is None:
            return
        if graceful:
            proc.join(timeout=REAP_TIMEOUT)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=REAP_TIMEOUT)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=REAP_TIMEOUT)
        try:
            proc.close()
        except ValueError:  # pragma: no cover - unkillable process
            pass

    def restart_worker(self, index: int) -> None:
        """Replace shard ``index``'s worker with a fresh, empty one.

        The recovery primitive the supervisor drives after a death or
        timeout: the connection is dropped, the straggler reaped, and a
        new session opened with a bumped incarnation number.  Fails
        fast — within the startup deadline — if the new worker does not
        answer its liveness ping.  Rebuilding the new backend's state
        is the caller's job (the supervisor replays its journal).
        """
        self._ensure_open()
        self._drop(index, graceful=False)
        self._reap(index, graceful=False)
        self._incarnations[index] += 1
        self._open(index)
        self._await_ready(index)

    def restart_count(self, index: int) -> int:
        """How many times shard ``index``'s worker has been replaced."""
        return self._incarnations[index]

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise ReproError(
                f"this {type(self).__name__} is closed; calls after "
                f"close() are a lifecycle bug in the caller"
            )

    def _send(self, shard_index: int, method: str, args: Tuple) -> None:
        if self._poisoned[shard_index]:
            raise ShardWorkerLost(
                f"shard worker {shard_index}'s channel is poisoned by an "
                f"earlier timeout or death; the worker must be restarted "
                f"before it can serve calls again"
            )
        try:
            self._channels[shard_index].send_call(
                method, args, self.call_timeout
            )
        except socket.timeout as exc:
            self._poisoned[shard_index] = True
            raise ShardTimeoutError(
                f"shard worker {shard_index} did not accept a call within "
                f"{self.call_timeout:g}s (shard_call_timeout)"
            ) from exc
        except OSError as exc:
            self._poisoned[shard_index] = True
            raise ShardWorkerLost(
                f"shard worker {shard_index} is gone (connection closed)"
            ) from exc

    def _recv(self, shard_index: int, timeout: Optional[float] = None) -> Any:
        if timeout is None:
            timeout = self.call_timeout
        try:
            ok, value = self._channels[shard_index].recv_reply(timeout)
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
                f"and must be restarted before it can serve calls again"
            ) from exc
        except OSError as exc:
            self._poisoned[shard_index] = True
            raise ShardWorkerLost(
                f"shard worker {shard_index}'s connection failed mid-call"
            ) from exc
        if not ok:
            raise value
        return value

    def call(self, shard_index: int, method: str, *args) -> Any:
        self._ensure_open()
        self._send(shard_index, method, args)
        return self._recv(shard_index)

    def map_scatter(self, calls: Sequence[Call]) -> List[Any]:
        """One outcome per shard: results and *failures*, never a raise.

        The supervised fan-out primitive: every involved shard's reply
        is drained (leaving one on a connection would desynchronize the
        next round), and a shard's failure comes back as the exception
        object in its slot instead of aborting the whole round — so
        the supervisor can recover exactly the shards that failed and
        keep every healthy shard's result.
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

        Raises the first failure in shard order (after draining every
        reply); unsupervised deployments keep their fail-fast
        behavior, supervised ones go through :meth:`map_scatter`.
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
        """End every session and reap every spawned worker; idempotent.

        Healthy workers get a goodbye and a graceful join; stragglers
        are escalated terminate → kill, and every ``Process`` object is
        released, even after worker crashes or hangs.
        """
        if self._closed:
            return
        self._closed = True
        # Drop the atexit reference so closed executors can be GC'd in
        # long-lived processes that open many sharded engines.
        atexit.unregister(self.close)
        # A poisoned shard's worker is hung or dead: no goodbye and no
        # graceful wait, straight to terminate/kill.
        healthy = [not poisoned for poisoned in self._poisoned]
        for index in range(self.shard_count):
            self._drop(index, graceful=healthy[index])
        for index in range(self.shard_count):
            self._reap(index, graceful=healthy[index])

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
