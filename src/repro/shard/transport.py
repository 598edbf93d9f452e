"""The shard wire: one framing for every worker executor.

Every shard worker — a spawned local process on its end of a
``socket.socketpair()``, or a ``python -m repro shard-worker`` behind a
TCP address — speaks this protocol over one stream socket, in strict
request/reply alternation.  Each message is one length-prefixed
(8-byte big-endian) pickled *control frame* followed by one raw
*payload frame* per bulk numpy array::

    parent -> worker:  ("call", "hello", (config, index, count,
                                          incarnation, fault_spec))
                       ("call", method, control)
                       ("bye",)
    worker -> parent:  ("ok", control)
                       ("error", exception)

The hello opens a session: the worker builds a fresh backend from it
and answers ``("ok", index)``.

Which calls carry bulk payloads is declared
(:data:`repro.shard.backend.BULK_CALLS`), never guessed: framing walks
only the declared argument positions and results, substitutes a
:class:`_Ref` placeholder for each ndarray it finds, and the control
frame carries each array's ``(dtype, shape)``.  The array bytes are
streamed raw — never pickled — and rebuilt on receipt as read-only
arrays over their own receive buffers, so a reply stays valid for as
long as the caller holds it.

:func:`payload_bytes` and :func:`read_payloads` are looked up through
this module's globals on every send and receive, so a tracer that
replaces them sees every payload byte.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
import traceback
from dataclasses import fields, is_dataclass
from dataclasses import replace as dataclass_replace
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError, ShardTimeoutError
from repro.shard.backend import BULK_CALLS

_LENGTH = struct.Struct(">Q")

#: How long a goodbye may block before the parent gives up on it.
BYE_TIMEOUT = 1.0


class _Ref:
    """Control-frame placeholder for one extracted bulk array."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self):
        return (_Ref, (self.index,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Ref({self.index})"


def _extract(obj: Any, arrays: List[np.ndarray]) -> Any:
    """Replace every ndarray reachable from ``obj`` with a :class:`_Ref`.

    Walks tuples, dict *values* and dataclass fields; lists (and dict
    keys) are control data by convention and are left untouched.  The
    collected arrays are made C-contiguous, so each is written with
    one ``sendall``.
    """
    if isinstance(obj, np.ndarray):
        arrays.append(np.ascontiguousarray(obj))
        return _Ref(len(arrays) - 1)
    if isinstance(obj, tuple):
        return tuple(_extract(item, arrays) for item in obj)
    if isinstance(obj, dict):
        return {key: _extract(value, arrays) for key, value in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return dataclass_replace(
            obj,
            **{
                f.name: _extract(getattr(obj, f.name), arrays)
                for f in fields(obj)
            },
        )
    return obj


def _plant(obj: Any, views: List[np.ndarray]) -> Any:
    """Inverse of :func:`_extract`: substitute arrays for placeholders."""
    if isinstance(obj, _Ref):
        return views[obj.index]
    if isinstance(obj, tuple):
        return tuple(_plant(item, views) for item in obj)
    if isinstance(obj, dict):
        return {key: _plant(value, views) for key, value in obj.items()}
    if is_dataclass(obj) and not isinstance(obj, type):
        return dataclass_replace(
            obj,
            **{f.name: _plant(getattr(obj, f.name), views) for f in fields(obj)},
        )
    return obj


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


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def payload_bytes(arrays: Sequence[np.ndarray]) -> int:
    """Bytes the payload frames of ``arrays`` carry (prefixes excluded)."""
    return sum(arr.nbytes for arr in arrays)


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
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size, deadline))
    return _recv_exact(sock, length, deadline) if length else bytearray()


def read_payloads(
    read_frame: Callable[[], bytearray],
    desc: Sequence[Tuple[str, Tuple[int, ...]]],
) -> List[np.ndarray]:
    """The payload frames described by ``desc``, as read-only arrays.

    ``read_frame()`` returns the next frame's bytes; each array views
    its own frame buffer, so it outlives every later message.
    """
    views: List[np.ndarray] = []
    for dtype_str, shape in desc:
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        buf = read_frame()
        if len(buf) != count * dtype.itemsize:
            raise ReproError(
                f"payload frame of {len(buf)} bytes does not hold a "
                f"{dtype_str} array of shape {shape}: the stream is out "
                f"of sync"
            )
        flat = np.frombuffer(buf, dtype=dtype, count=count)
        flat.flags.writeable = False
        views.append(flat.reshape(shape))
    return views


def write_message(
    sock: socket.socket, header: Any, arrays: Sequence[np.ndarray]
) -> int:
    """One control frame (pickled, with payload descriptors) + raw arrays.

    The pickle is built *before* any byte hits the socket, so a
    pickling failure leaves the stream clean — the error-relay
    fallback depends on that.  Each array is written straight from its
    own buffer, uncopied.  Returns the payload bytes sent.
    """
    desc = [(arr.dtype.str, arr.shape) for arr in arrays]
    blob = pickle.dumps((header, desc), protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LENGTH.pack(len(blob)) + blob)
    for arr in arrays:
        sock.sendall(_LENGTH.pack(arr.nbytes))
        if arr.nbytes:
            sock.sendall(memoryview(arr).cast("B"))
    return payload_bytes(arrays)


def read_message(
    sock: socket.socket, deadline: Optional[float] = None
) -> Tuple[Any, List[np.ndarray]]:
    """One message back: the control header plus read-only arrays."""
    header, desc = pickle.loads(_recv_frame(sock, deadline))
    return header, read_payloads(lambda: _recv_frame(sock, deadline), desc)


# ----------------------------------------------------------------------
# The two ends of one shard's connection
# ----------------------------------------------------------------------


class ParentChannel:
    """The parent's end of one shard's connection.

    Raises ``EOFError`` when the worker is gone,
    :class:`repro.errors.ShardTimeoutError` past a deadline and
    ``OSError`` on a broken connection; the executor maps each to a
    shard-context error and poisons the channel, since a late reply
    would break the request/reply alternation.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    def send_call(
        self, method: str, args: Tuple[Any, ...], timeout: float
    ) -> None:
        """Frame and send one call; ``timeout`` bounds the send too, so
        a worker that stopped reading cannot block the parent."""
        control, arrays = _frame_args(method, args)
        self.sock.settimeout(timeout)
        write_message(self.sock, ("call", method, control), arrays)

    def recv_reply(self, timeout: float) -> Tuple[bool, Any]:
        """One reply within ``timeout`` seconds, as ``(ok, value)``.

        A relayed backend exception comes back as ``(False, exc)``, not
        raised, so the caller can tell it from the connection failures
        this method raises: a relayed ``EOFError`` or ``OSError`` must
        not poison a healthy channel.
        """
        header, views = read_message(
            self.sock, deadline=time.monotonic() + timeout
        )
        if header[0] == "error":
            return False, header[1]
        return True, _plant(header[1], views)

    def close(self, bye: bool) -> None:
        """Close the connection, after a goodbye when ``bye`` is set."""
        if bye:
            try:
                self.sock.settimeout(BYE_TIMEOUT)
                write_message(self.sock, ("bye",), [])
            except OSError:
                pass
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


class WorkerChannel:
    """The worker's end of one session's connection."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    def recv_call(self) -> Optional[Tuple[str, Tuple[Any, ...]]]:
        """The next ``(method, args)``, or ``None`` on goodbye or EOF."""
        try:
            header, views = read_message(self.sock)
        except (EOFError, OSError, pickle.UnpicklingError):
            return None
        if not isinstance(header, tuple) or header[0] != "call":
            return None
        _, method, control = header
        return method, _plant(control, views)

    def send_ok(self, method: str, result: Any) -> None:
        control, arrays = _frame_result(method, result)
        write_message(self.sock, ("ok", control), arrays)

    def send_error(self, exc: BaseException) -> None:
        """Relay an exception; never let the relay itself end the session.

        The pickle is built before any byte is written, so an
        unpicklable exception falls back to a :class:`ReproError`
        carrying its repr and traceback text, and the stream stays in
        sync either way.
        """
        try:
            write_message(self.sock, ("error", exc), [])
        except OSError:
            raise
        except Exception:
            detail = "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
            write_message(
                self.sock,
                (
                    "error",
                    ReproError(
                        f"shard backend raised an exception that could not "
                        f"be relayed across the process boundary: {exc!r}\n"
                        f"--- original traceback ---\n{detail}"
                    ),
                ),
                [],
            )
