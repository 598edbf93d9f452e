"""An asyncio client for the cluster-analytics service.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.service.protocol`: it assigns a fresh request id to every
op, keeps a future per outstanding id and matches responses as they
arrive — which is what makes out-of-order replies (a 429 reject
overtaking queued work) transparent to callers.  Typed helpers cover
every service op; a server-side error response resolves into a raised
:class:`ServiceError` carrying the wire code.

Pipelining is explicit: ``await client.ingest(...)`` is one
round-trip, while ``client.submit("ingest", points=...)`` returns the
future immediately so a caller can keep many ops in flight (the load
harness drives the service exactly that way).
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.service import protocol


class ServiceError(ReproError):
    """A service-side error response, surfaced client-side.

    ``code`` is the wire error code (400/404/405/429/500/503) and
    ``error_type`` its symbolic name from the response.
    """

    def __init__(self, code: int, error_type: str, message: str) -> None:
        super().__init__(f"[{code} {error_type}] {message}")
        self.code = code
        self.error_type = error_type
        self.message = message


class ServiceTimeoutError(ServiceError):
    """No response arrived within the client's per-call deadline.

    The connection is then unusable (a stalled server answers nothing
    else either), so every other pending call fails with it.
    """


#: Seconds one call waits for its response before it fails with
#: :class:`ServiceTimeoutError`: far above any healthy round-trip, so it
#: only ends calls to a server that stopped answering.
CALL_TIMEOUT = 60.0


class ServiceClient:
    """One connection to a :class:`repro.service.ClusterService`.

    Use as an async context manager, or pair :meth:`connect` with
    :meth:`aclose`::

        client = await ServiceClient.connect("127.0.0.1", 7171)
        try:
            pids = (await client.ingest([[0.0, 0.0]]))["pids"]
            groups = (await client.cgroup_by(pids))["groups"]
        finally:
            await client.aclose()
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[Any, "asyncio.Future[Dict[str, Any]]"] = {}
        self._next_id = 0
        self._closed = False
        self._conn_lost: Optional[Exception] = None
        self._reader_task = asyncio.ensure_future(self._read_responses())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    # ------------------------------------------------------------------
    # Response pump
    # ------------------------------------------------------------------

    async def _read_responses(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self._fail_pending(
                        None, "service closed the connection"
                    )
                    return
                if not line.strip():
                    continue
                response = protocol.decode_response(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
                # Responses with unknown / absent ids (e.g. a reject
                # issued before the request was parsed) are dropped;
                # their requester already failed or never existed.
        except asyncio.CancelledError:
            self._fail_pending(None, "client is closing")
            raise
        except Exception as exc:  # noqa: BLE001
            # Any way the pump can die — a connection reset, a socket
            # error, an over-long or garbled line from a crashing
            # server — must fail every outstanding request: a pending
            # future nothing will ever resolve is a caller hung
            # forever.
            self._fail_pending(
                exc, f"connection to the service was lost: {exc}"
            )

    def _fail_pending(
        self, cause: Optional[BaseException], message: str
    ) -> None:
        """Fail every outstanding request with a :class:`ServiceError`.

        Callers always see the client's documented failure surface
        (``ServiceError`` with code 503) whatever the underlying cause
        — raw ``OSError`` / decode errors ride along as ``__cause__``.
        """
        error = ServiceError(protocol.UNAVAILABLE, "connection_lost", message)
        error.__cause__ = cause
        self._conn_lost = error
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    # ------------------------------------------------------------------
    # Request submission
    # ------------------------------------------------------------------

    def submit(self, op: str, **params) -> "asyncio.Future[Dict[str, Any]]":
        """Send one op now; returns the future of its response payload.

        The returned future resolves to the ``ok`` response dict or
        raises :class:`ServiceError` for an error response — enabling
        explicit pipelining without awaiting each round-trip.
        """
        if self._closed:
            raise ReproError("client is closed")
        if self._conn_lost is not None:
            raise ReproError(
                f"connection lost: {self._conn_lost}"
            ) from self._conn_lost
        self._next_id += 1
        req_id = self._next_id
        request = {"id": req_id, "op": op}
        request.update(params)
        raw: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[req_id] = raw
        self._writer.write(protocol.encode(request))
        return asyncio.ensure_future(self._unwrap(raw))

    async def _unwrap(self, raw: "asyncio.Future[Dict[str, Any]]"):
        try:
            response = await asyncio.wait_for(raw, CALL_TIMEOUT)
        except asyncio.TimeoutError:
            message = (
                f"no response within {CALL_TIMEOUT}s; "
                f"the service stopped answering"
            )
            self._fail_pending(None, message)
            raise ServiceTimeoutError(
                protocol.UNAVAILABLE, "timeout", message
            ) from None
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        raise ServiceError(
            int(error.get("code", protocol.INTERNAL)),
            str(error.get("type", "error")),
            str(error.get("message", "unknown service error")),
        )

    async def call(self, op: str, **params) -> Dict[str, Any]:
        """One full round-trip: submit the op, await its response."""
        return await self.submit(op, **params)

    # ------------------------------------------------------------------
    # Typed helpers (one per service op)
    # ------------------------------------------------------------------

    async def ping(self, payload=None) -> Dict[str, Any]:
        if payload is None:
            return await self.call("ping")
        return await self.call("ping", payload=payload)

    async def ingest(
        self, points: Sequence[Sequence[float]]
    ) -> Dict[str, Any]:
        return await self.call("ingest", points=[list(p) for p in points])

    async def delete(self, pids: Sequence[int]) -> Dict[str, Any]:
        return await self.call("delete", pids=list(pids))

    async def flush(self) -> Dict[str, Any]:
        return await self.call("flush")

    async def cgroup_by(self, pids: Sequence[int]) -> Dict[str, Any]:
        return await self.call("cgroup_by", pids=list(pids))

    async def snapshot(self) -> Dict[str, Any]:
        return await self.call("snapshot")

    async def stats(self) -> Dict[str, Any]:
        return await self.call("stats")

    async def window_append(
        self, points: Sequence[Sequence[float]]
    ) -> Dict[str, Any]:
        return await self.call(
            "window_append", points=[list(p) for p in points]
        )

    async def shutdown(self) -> Dict[str, Any]:
        return await self.call("shutdown")

    async def bye(self) -> Dict[str, Any]:
        """Polite goodbye: the server flushes this session and hangs up."""
        return await self.call("bye")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def aclose(self) -> None:
        """Close the connection; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        try:
            if not self._writer.is_closing():
                self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()
        return None
