"""The wire protocol of the streaming cluster-analytics service.

One JSON object per line (UTF-8, ``\\n``-terminated) in each direction
— trivially scriptable from any language, inspectable with ``nc``, and
free of heavyweight dependencies.

**Requests** carry an ``op`` name, an optional client-chosen ``id``
(echoed verbatim in the response so out-of-order replies — e.g. an
immediate backpressure reject overtaking queued work — can be matched),
and op-specific parameters::

    {"id": 7, "op": "ingest", "points": [[1.0, 2.0], [1.5, 2.5]]}

**Responses** echo ``id``, carry ``ok`` plus either the op's payload or
an ``error`` object, and — for every op that touched or observed the
engine — the engine ``epoch``, the service's monotonic consistency
token::

    {"id": 7, "ok": true, "pids": [0, 1], "pending": 2, "epoch": 0}
    {"id": 8, "ok": false, "error": {"code": 429, "type":
        "backpressure", "message": "session queue full"}}

Error codes follow the HTTP convention the issue names: ``400`` bad
request, ``404`` unknown point id, ``405`` unsupported op for this
deployment, ``429`` backpressure / admission reject, ``500`` internal,
``503`` shutting down.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from repro.errors import (
    ConfigError,
    InvalidQueryError,
    ReproError,
    ShardTimeoutError,
    UnknownPointError,
    UnsupportedOperationError,
)

#: Longest accepted request line (bytes).  Bounds per-request memory;
#: also passed as the ``limit`` of the server's stream reader.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Ops the service understands.  ``window_append`` only in windowed
#: deployments; ``shutdown`` only when the server enables it.
KNOWN_OPS = (
    "ping",
    "ingest",
    "delete",
    "flush",
    "cgroup_by",
    "snapshot",
    "stats",
    "window_append",
    "bye",
    "shutdown",
)

BAD_REQUEST = 400
UNKNOWN_POINT = 404
UNSUPPORTED = 405
BACKPRESSURE = 429
INTERNAL = 500
UNAVAILABLE = 503

_CODE_TYPES = {
    BAD_REQUEST: "bad_request",
    UNKNOWN_POINT: "unknown_point",
    UNSUPPORTED: "unsupported",
    BACKPRESSURE: "backpressure",
    INTERNAL: "internal",
    UNAVAILABLE: "unavailable",
}


class ProtocolError(ReproError):
    """A malformed or rejected request, carrying its wire error code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def encode(payload: Dict[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the line terminator."""
    return (
        json.dumps(payload, separators=(",", ":"), allow_nan=False).encode(
            "utf-8"
        )
        + b"\n"
    )


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse and shape-check one request line.

    Raises :class:`ProtocolError` (code 400) on anything that is not a
    JSON object with a known string ``op``.
    """
    try:
        request = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(BAD_REQUEST, f"request is not JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError(
            BAD_REQUEST,
            f"request must be a JSON object, got {type(request).__name__}",
        )
    op = request.get("op")
    if not isinstance(op, str):
        raise ProtocolError(BAD_REQUEST, "request is missing a string 'op'")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            BAD_REQUEST,
            f"unknown op {op!r}; known ops: {', '.join(KNOWN_OPS)}",
        )
    req_id = request.get("id")
    if req_id is not None and not isinstance(req_id, (str, int)):
        raise ProtocolError(
            BAD_REQUEST, f"request id must be a string or integer, got "
            f"{type(req_id).__name__}"
        )
    return request


def decode_response(line: bytes) -> Dict[str, Any]:
    """Parse one response line (client side)."""
    try:
        response = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            BAD_REQUEST, f"response is not JSON: {exc}"
        ) from None
    if not isinstance(response, dict):
        raise ProtocolError(
            BAD_REQUEST,
            f"response must be a JSON object, got {type(response).__name__}",
        )
    return response


def ok_response(req_id, **payload) -> Dict[str, Any]:
    response = {"id": req_id, "ok": True}
    response.update(payload)
    return response


def error_response(req_id, code: int, message: str) -> Dict[str, Any]:
    return {
        "id": req_id,
        "ok": False,
        "error": {
            "code": code,
            "type": _CODE_TYPES.get(code, "error"),
            "message": message,
        },
    }


def code_for_exception(exc: BaseException) -> int:
    """The wire error code a service-side exception maps to."""
    if isinstance(exc, ProtocolError):
        return exc.code
    if isinstance(exc, UnknownPointError):
        return UNKNOWN_POINT
    if isinstance(exc, UnsupportedOperationError):
        return UNSUPPORTED
    if isinstance(exc, (InvalidQueryError, ConfigError)):
        return BAD_REQUEST
    if isinstance(exc, ShardTimeoutError):
        return INTERNAL
    if isinstance(exc, ReproError):
        return INTERNAL
    return INTERNAL


def exception_message(exc: BaseException) -> str:
    """A wire-safe message for a service-side exception."""
    if isinstance(exc, UnknownPointError):
        # KeyError subclasses repr-quote their str(); unwrap one level.
        args = exc.args
        return str(args[0]) if args else str(exc)
    return str(exc) or type(exc).__name__


# ----------------------------------------------------------------------
# Parameter validation (server side)
# ----------------------------------------------------------------------


def parse_points(request: Dict[str, Any], dim: int) -> List[List[float]]:
    """Validate and convert a request's ``points`` parameter."""
    points = request.get("points")
    if not isinstance(points, list):
        raise ProtocolError(
            BAD_REQUEST, "'points' must be a list of coordinate rows"
        )
    parsed: List[List[float]] = []
    for row in points:
        if not isinstance(row, (list, tuple)) or len(row) != dim:
            raise ProtocolError(
                BAD_REQUEST,
                f"every point must be a list of {dim} coordinates, got "
                f"{row!r}",
            )
        try:
            coords = [float(x) for x in row]
        except (TypeError, ValueError):
            raise ProtocolError(
                BAD_REQUEST, f"non-numeric coordinate in point {row!r}"
            ) from None
        if not all(math.isfinite(x) for x in coords):
            raise ProtocolError(
                BAD_REQUEST, f"non-finite coordinate in point {row!r}"
            )
        parsed.append(coords)
    return parsed


def parse_pids(request: Dict[str, Any], key: str = "pids") -> List[int]:
    """Validate and convert a request's point-id list parameter."""
    pids = request.get(key)
    if not isinstance(pids, list):
        raise ProtocolError(BAD_REQUEST, f"{key!r} must be a list of ids")
    parsed: List[int] = []
    for pid in pids:
        if isinstance(pid, bool) or not isinstance(pid, int):
            raise ProtocolError(
                BAD_REQUEST, f"point ids must be integers, got {pid!r}"
            )
        parsed.append(pid)
    return parsed


# ----------------------------------------------------------------------
# Payload builders (shared by the server and the differential harness,
# so "bit-identical to a direct Engine" is checked through the same
# serialization)
# ----------------------------------------------------------------------


def outcome_payload(outcome) -> Dict[str, Any]:
    """The wire payload of an epoch-stamped C-group-by outcome.

    Group and noise order are the engine's canonical deterministic
    order — serialized as-is, NOT re-sorted, so the wire bytes are
    bit-identical to what a direct engine call yields.
    """
    return {
        "groups": [list(group) for group in outcome.groups],
        "noise": list(outcome.noise),
        "epoch": outcome.epoch,
        "backend": outcome.backend,
    }


def snapshot_payload(snapshot) -> Dict[str, Any]:
    """The wire payload of an epoch-stamped full clustering.

    ``Clustering`` already holds the canonical form (each cluster
    ascending, clusters in lexicographic order, noise ascending), so it
    is serialized as-is, like :func:`outcome_payload`.
    """
    return {
        "clusters": snapshot.clusters,
        "noise": snapshot.noise,
        "epoch": snapshot.epoch,
        "size": snapshot.size,
    }
