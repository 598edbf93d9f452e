"""The asyncio cluster-analytics server.

:class:`ClusterService` multiplexes many concurrent client sessions
onto **one** engine (:class:`repro.api.Engine` or
:class:`repro.shard.ShardedEngine`).  Each connection gets its own
bounded op queue plus a worker task; engine calls are synchronous, so
the event loop serializes them for free — the service's job is the
*coordination* around them:

* **Buffered ingest** — write ops go through a per-session
  :class:`repro.api.IngestSession`.  Sessions predict point ids
  eagerly, which only stays sound if a single session holds buffered
  updates at a time; the service enforces exactly that with an
  *active-writer* token: before a session buffers, the previous
  writer's buffer is flushed (:meth:`_ensure_writer`).
* **Query barriers** — every query op first flushes the active
  writer (:meth:`_barrier`), so a query observes all updates whose
  acks were issued before it, session boundaries notwithstanding.
  Responses carry the engine ``epoch`` as the consistency token.
* **Admission control & backpressure** — at most ``max_sessions``
  connections, at most ``max_inflight`` queued ops service-wide and
  ``queue_depth`` per session; excess requests are rejected *now*
  with a 429 instead of buffering without bound.  A client that stops
  reading its responses is aborted once the connection's write buffer
  exceeds ``max_write_buffer`` — service memory stays bounded in
  every direction.
* **Graceful drain** — :meth:`aclose` stops admitting work (503),
  lets every queued op finish and flushes each session's buffered
  updates.  A session whose final flush fails is failed atomically
  (its remaining buffer is discarded and counted in
  ``failed_drains``); acked-and-applied work is never silently
  dropped.

A ``window_capacity`` turns the deployment into **sliding-window
mode**: raw ``ingest`` / ``delete`` are rejected (405) and clients
drive ``window_append``, which inserts a batch and expires the oldest
points through the engine's fully-dynamic ``delete_many`` path via
:class:`repro.analysis.WindowedEngine`.

Only the standard library is used — ``asyncio.start_server`` plus the
JSON-lines protocol of :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.analysis.window import WindowedEngine
from repro.errors import ConfigError, ReproError
from repro.service import protocol
from repro.service.protocol import ProtocolError


@dataclass(frozen=True)
class ServiceLimits:
    """Admission-control and backpressure knobs of one service.

    Each field's ``doc`` metadata is also the help of its
    ``python -m repro serve`` flag and its README row.
    """

    max_sessions: int = field(default=64, metadata={
        "doc": "concurrent client connections admitted; excess "
               "connections are rejected with a 429"})
    queue_depth: int = field(default=32, metadata={
        "doc": "operations one session may have queued (not yet "
               "executed) before new ops get a 429"})
    max_inflight: int = field(default=256, metadata={
        "doc": "operations queued service-wide across all sessions "
               "before new ops get a 429"})
    max_write_buffer: int = field(default=1 << 20, metadata={
        "doc": "bytes of un-sent response data one connection may "
               "accumulate before the service aborts it, so a stalled "
               "client cannot grow service memory without bound"})
    drain_timeout: float = field(default=30.0, metadata={
        "doc": "seconds graceful shutdown waits for one session's queue "
               "to empty before failing the session"})

    def __post_init__(self) -> None:
        for name in ("max_sessions", "queue_depth", "max_inflight",
                     "max_write_buffer"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if not self.drain_timeout > 0:
            raise ConfigError(
                f"drain_timeout must be positive, got {self.drain_timeout!r}"
            )


@dataclass
class ServiceStats:
    """Running counters of one :class:`ClusterService`."""

    sessions_opened: int = 0
    sessions_rejected: int = 0
    sessions_aborted: int = 0
    ops_accepted: int = 0
    ops_rejected: int = 0
    ops_failed: int = 0
    drained_sessions: int = 0
    failed_drains: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sessions_opened": self.sessions_opened,
            "sessions_rejected": self.sessions_rejected,
            "sessions_aborted": self.sessions_aborted,
            "ops_accepted": self.ops_accepted,
            "ops_rejected": self.ops_rejected,
            "ops_failed": self.ops_failed,
            "drained_sessions": self.drained_sessions,
            "failed_drains": self.failed_drains,
        }


class _Session:
    """One connected client: its streams, op queue and worker task."""

    def __init__(self, service: "ClusterService", session_id: int,
                 reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.service = service
        self.session_id = session_id
        self.reader = reader
        self.writer = writer
        self.queue: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue(
            maxsize=service.limits.queue_depth
        )
        self.ingest = None if service.windowed else service.engine.session()
        self.worker: Optional[asyncio.Task] = None
        self.aborted = False
        self.finished = False  # reader loop exited; no new ops arrive

    @property
    def pending_updates(self) -> int:
        return self.ingest.pending_updates if self.ingest is not None else 0


class ClusterService:
    """A cluster-analytics server over one engine.

    Typical embedding (the CLI's ``serve`` command does exactly this)::

        service = ClusterService(engine)
        await service.start("127.0.0.1", 7171)
        await service.wait_shutdown()   # a signal or a 'shutdown' op
        await service.aclose()          # graceful drain

    The service borrows the engine — closing the service does **not**
    close the engine.
    """

    def __init__(
        self,
        engine,
        limits: Optional[ServiceLimits] = None,
        window_capacity: Optional[int] = None,
        allow_shutdown: bool = False,
    ) -> None:
        self.engine = engine
        self.limits = limits if limits is not None else ServiceLimits()
        self.allow_shutdown = bool(allow_shutdown)
        self.window = (
            WindowedEngine(engine, window_capacity)
            if window_capacity is not None
            else None
        )
        self.stats = ServiceStats()
        self._sessions: Set[_Session] = set()
        self._connections: Set[asyncio.Task] = set()
        self._active_writer: Optional[_Session] = None
        self._inflight = 0
        self._next_session_id = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown_event = asyncio.Event()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def windowed(self) -> bool:
        """Whether this deployment serves sliding-window mode."""
        return self.window is not None

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def inflight(self) -> int:
        """Ops queued service-wide and not yet answered."""
        return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def address(self):
        """The bound ``(host, port)``, once :meth:`start` returned."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start accepting connections.

        ``port=0`` binds an ephemeral port; read it back from
        :attr:`address`.
        """
        if self._server is not None:
            raise ReproError("service is already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=host,
            port=port,
            limit=protocol.MAX_LINE_BYTES,
        )

    async def wait_shutdown(self) -> None:
        """Block until :meth:`request_shutdown` (or a ``shutdown`` op)."""
        await self._shutdown_event.wait()

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit; safe to call from signal handlers."""
        self._shutdown_event.set()

    async def aclose(self) -> None:
        """Graceful drain: stop admitting, finish queues, flush sessions.

        Idempotent.  Every admitted op that was queued is executed and
        answered; every session's buffered ingest is flushed.  A
        session whose drain fails (queue stuck past ``drain_timeout``
        or final flush raising) is failed atomically — its remaining
        buffer is discarded, the failure counted in ``failed_drains``
        — rather than leaving half-applied state behind.
        """
        self._draining = True
        self._shutdown_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        sessions = list(self._sessions)
        if sessions:
            await asyncio.gather(
                *(self._drain_session(s) for s in sessions)
            )
        # A client that left just before shutdown has its handler still
        # closing the session outside ``_sessions``; let it finish here
        # rather than be cancelled mid-close when the event loop ends.
        closing = self._connections - {asyncio.current_task()}
        if closing:
            await asyncio.wait(closing, timeout=self.limits.drain_timeout)

    async def _drain_session(self, session: _Session) -> None:
        try:
            await asyncio.wait_for(
                session.queue.join(), timeout=self.limits.drain_timeout
            )
            self._flush_session(session)
        except Exception:
            self.stats.failed_drains += 1
            if session.ingest is not None:
                session.ingest.discard()
        else:
            self.stats.drained_sessions += 1
        finally:
            await self._teardown(session)

    async def _teardown(self, session: _Session) -> None:
        """Release one session's tasks and transport; idempotent."""
        self._sessions.discard(session)
        if self._active_writer is session:
            self._active_writer = None
        if session.worker is not None:
            session.worker.cancel()
            try:
                await session.worker
            except (asyncio.CancelledError, Exception):
                pass
            session.worker = None
        if session.ingest is not None and not session.ingest.closed:
            # Every path into teardown has already flushed (or
            # discarded and counted) the buffer; this close only
            # retires the session object.
            try:
                session.ingest.close()
            except Exception:
                session.ingest.discard()
        try:
            if not session.writer.is_closing():
                session.writer.close()
            await session.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Writer coordination (the consistency core)
    # ------------------------------------------------------------------

    def _flush_session(self, session: _Session) -> None:
        if session.ingest is not None:
            session.ingest.flush()

    def _ensure_writer(self, session: _Session) -> None:
        """Make ``session`` the sole buffering writer.

        Eager id prediction in :class:`repro.api.IngestSession` is only
        sound while a single session holds buffered updates; handing
        the writer token over therefore flushes the previous holder
        first.
        """
        if self._active_writer is not session:
            if self._active_writer is not None:
                self._flush_session(self._active_writer)
            self._active_writer = session

    def _barrier(self) -> None:
        """Flush the active writer so a query observes every acked op."""
        if self._active_writer is not None:
            self._flush_session(self._active_writer)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        if self._draining:
            self.stats.sessions_rejected += 1
            await self._reject_connection(
                writer, protocol.UNAVAILABLE, "service is shutting down"
            )
            return
        if len(self._sessions) >= self.limits.max_sessions:
            self.stats.sessions_rejected += 1
            await self._reject_connection(
                writer,
                protocol.BACKPRESSURE,
                f"session limit reached ({self.limits.max_sessions})",
            )
            return
        self._next_session_id += 1
        session = _Session(self, self._next_session_id, reader, writer)
        self._sessions.add(session)
        self.stats.sessions_opened += 1
        session.worker = asyncio.create_task(self._worker(session))
        try:
            await self._read_loop(session)
        finally:
            session.finished = True
            if not self._draining:
                # Normal end-of-connection: answer what was queued,
                # then flush — acked ingest must land in the engine
                # even when the client has already gone away.
                try:
                    await session.queue.join()
                    self._flush_session(session)
                except Exception:
                    self.stats.failed_drains += 1
                    if session.ingest is not None:
                        session.ingest.discard()
                await self._teardown(session)
            # While draining, aclose() owns teardown.

    async def _reject_connection(
        self, writer: asyncio.StreamWriter, code: int, message: str
    ) -> None:
        try:
            writer.write(
                protocol.encode(protocol.error_response(None, code, message))
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(self, session: _Session) -> None:
        while True:
            try:
                line = await session.reader.readline()
            except (ConnectionError, OSError):
                return
            except ValueError:
                # Line longer than the reader limit.
                self._send(
                    session,
                    protocol.error_response(
                        None,
                        protocol.BAD_REQUEST,
                        f"request line exceeds {protocol.MAX_LINE_BYTES} "
                        f"bytes",
                    ),
                )
                return
            if not line:
                return
            if not line.strip():
                continue
            try:
                request = protocol.decode_request(line)
            except ProtocolError as exc:
                self.stats.ops_rejected += 1
                self._send(
                    session,
                    protocol.error_response(None, exc.code, exc.message),
                )
                continue
            req_id = request.get("id")
            op = request["op"]
            if op == "bye":
                # Connection-scoped control op: never queued, never
                # rejected — answer and end the session; the normal
                # end-of-connection path flushes buffered ingest.
                self._send(
                    session,
                    protocol.ok_response(
                        req_id, bye=True, epoch=self.engine.epoch
                    ),
                )
                return
            if self._draining:
                self.stats.ops_rejected += 1
                self._send(
                    session,
                    protocol.error_response(
                        req_id,
                        protocol.UNAVAILABLE,
                        "service is draining; no new operations",
                    ),
                )
                continue
            if self._inflight >= self.limits.max_inflight:
                self.stats.ops_rejected += 1
                self._send(
                    session,
                    protocol.error_response(
                        req_id,
                        protocol.BACKPRESSURE,
                        f"service is at max in-flight operations "
                        f"({self.limits.max_inflight})",
                    ),
                )
                continue
            try:
                session.queue.put_nowait(request)
            except asyncio.QueueFull:
                self.stats.ops_rejected += 1
                self._send(
                    session,
                    protocol.error_response(
                        req_id,
                        protocol.BACKPRESSURE,
                        f"session queue full "
                        f"({self.limits.queue_depth} operations)",
                    ),
                )
                continue
            self._inflight += 1
            self.stats.ops_accepted += 1
            if session.aborted:
                return

    async def _worker(self, session: _Session) -> None:
        while True:
            request = await session.queue.get()
            try:
                response = self._execute(session, request)
            except ProtocolError as exc:
                self.stats.ops_failed += 1
                response = protocol.error_response(
                    request.get("id"), exc.code, exc.message
                )
            except ReproError as exc:
                self.stats.ops_failed += 1
                response = protocol.error_response(
                    request.get("id"),
                    protocol.code_for_exception(exc),
                    protocol.exception_message(exc),
                )
            except Exception as exc:  # noqa: BLE001 - wire boundary
                self.stats.ops_failed += 1
                response = protocol.error_response(
                    request.get("id"),
                    protocol.INTERNAL,
                    protocol.exception_message(exc),
                )
            self._send(session, response)
            session.queue.task_done()
            self._inflight -= 1

    # ------------------------------------------------------------------
    # Op execution (synchronous: one op is atomic on the event loop)
    # ------------------------------------------------------------------

    def _execute(
        self, session: _Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = request["op"]
        req_id = request.get("id")
        if op == "ping":
            payload = {"pong": True, "epoch": self.engine.epoch}
            if "payload" in request:
                payload["payload"] = request["payload"]
            return protocol.ok_response(req_id, **payload)
        if op == "ingest":
            self._require_mixed(op)
            points = protocol.parse_points(request, self.engine.config.dim)
            self._ensure_writer(session)
            pids = session.ingest.ingest_many(points)
            return protocol.ok_response(
                req_id,
                pids=pids,
                pending=session.pending_updates,
                epoch=self.engine.epoch,
            )
        if op == "delete":
            self._require_mixed(op)
            pids = protocol.parse_pids(request)
            self._ensure_writer(session)
            session.ingest.delete_many(pids)
            return protocol.ok_response(
                req_id,
                deleted=len(pids),
                pending=session.pending_updates,
                epoch=self.engine.epoch,
            )
        if op == "flush":
            if session.ingest is not None:
                session.ingest.flush()
            return protocol.ok_response(
                req_id, pending=0, epoch=self.engine.epoch
            )
        if op == "cgroup_by":
            pids = protocol.parse_pids(request)
            self._barrier()
            outcome = self.engine.cgroup_by_many(pids)
            return protocol.ok_response(
                req_id, **protocol.outcome_payload(outcome)
            )
        if op == "snapshot":
            self._barrier()
            snapshot = self.engine.snapshot()
            return protocol.ok_response(
                req_id, **protocol.snapshot_payload(snapshot)
            )
        if op == "stats":
            self._barrier()
            stats = self.engine.stats()
            payload = {
                "points": stats.points,
                "epoch": stats.epoch,
                "backend": stats.backend,
                "algorithm": stats.algorithm,
                "shards": getattr(stats, "shards", 1),
                "sessions": self.session_count,
                "inflight": self._inflight,
                "service": self.stats.as_dict(),
            }
            if self.window is not None:
                payload["window_size"] = len(self.window)
                payload["window_capacity"] = self.window.capacity
            return protocol.ok_response(req_id, **payload)
        if op == "window_append":
            if self.window is None:
                raise ProtocolError(
                    protocol.UNSUPPORTED,
                    "window_append needs a windowed deployment; start the "
                    "service with a window capacity "
                    "(serve --window-capacity)",
                )
            points = protocol.parse_points(request, self.engine.config.dim)
            self._barrier()
            pids, expired = self.window.append_many(points)
            return protocol.ok_response(
                req_id,
                pids=pids,
                expired=expired,
                window_size=len(self.window),
                epoch=self.engine.epoch,
            )
        if op == "shutdown":
            if not self.allow_shutdown:
                raise ProtocolError(
                    protocol.UNSUPPORTED,
                    "shutdown op is disabled; start the service with "
                    "allow_shutdown (serve --allow-shutdown-op)",
                )
            self.request_shutdown()
            return protocol.ok_response(
                req_id, shutting_down=True, epoch=self.engine.epoch
            )
        raise ProtocolError(  # pragma: no cover - decode_request gates ops
            protocol.BAD_REQUEST, f"unhandled op {op!r}"
        )

    def _require_mixed(self, op: str) -> None:
        if self.window is not None:
            raise ProtocolError(
                protocol.UNSUPPORTED,
                f"{op} is not available in a windowed deployment; drive "
                f"arrivals through window_append",
            )

    # ------------------------------------------------------------------
    # Response transport
    # ------------------------------------------------------------------

    def _send(self, session: _Session, response: Dict[str, Any]) -> None:
        """Queue one response line; abort the session if it stalls.

        Responses are written without awaiting ``drain()`` so one slow
        client never stalls its worker mid-queue; the bound comes from
        the hard ``max_write_buffer`` ceiling instead — a connection
        whose client stops reading is aborted, which is the documented
        bounded-memory contract.
        """
        if session.aborted or session.writer.is_closing():
            return
        try:
            session.writer.write(protocol.encode(response))
        except (ConnectionError, OSError):
            session.aborted = True
            return
        transport = session.writer.transport
        if (
            transport is not None
            and transport.get_write_buffer_size() > self.limits.max_write_buffer
        ):
            session.aborted = True
            self.stats.sessions_aborted += 1
            transport.abort()
