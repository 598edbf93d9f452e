"""The unified error model of the public API.

Every user-facing failure raised by the library derives from
:class:`ReproError`, so ``except ReproError`` catches anything the
system itself diagnoses while programming errors (and numpy internals)
still propagate as-is.  Each concrete class additionally subclasses the
builtin exception the same failure used to raise — ``ConfigError`` is a
``ValueError``, ``UnknownPointError`` a ``KeyError``,
``UnsupportedOperationError`` a ``RuntimeError`` — so existing callers
(and tests) that catch the old types keep working unchanged.

The hierarchy:

* :class:`ReproError` — root of everything the library diagnoses.

  * :class:`ConfigError` — invalid construction-time parameters:
    non-positive ``eps``, ``minpts < 1``, negative ``rho``, an unknown
    algorithm / backend / strategy.
    All constructor and :class:`repro.api.EngineConfig` validation
    raises this, so "is this configuration valid?" is one ``except``.
  * :class:`UnknownPointError` — an operation referenced a point id
    that is not live (never existed, or was deleted).  Queries raise it
    *before* resolving any group, deletions before mutating anything.
  * :class:`InvalidQueryError` — a query batch that is malformed as
    data (ragged rows, wrong trailing dimension, non-finite
    coordinates), as opposed to referencing dead ids.
  * :class:`UnsupportedOperationError` — an operation the selected
    algorithm cannot execute, e.g. a deletion reaching the insert-only
    semi-dynamic clusterer.  Historically lived in
    :mod:`repro.workload.runner`; importing it from there still works
    but emits a :class:`DeprecationWarning`.
  * :class:`ShardTimeoutError` — a shard worker failed to reply within
    the deadline (``EngineConfig.shard_call_timeout``).  A hung or
    stopped worker surfaces as this instead of blocking the parent
    forever; the shard supervisor treats it as a recoverable failure
    (kill, respawn, replay).  Subclasses the builtin ``TimeoutError``.
  * :class:`StaleOwnershipError` — a routed shard call carried an
    ownership-table version that does not match the worker's table.
    Raised by the worker (and relayed verbatim) so a router that
    missed a ``rebalance`` fails loudly instead of silently reading
    or writing blocks the shard no longer owns.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error the library itself diagnoses."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration or construction-time parameter."""


class UnknownPointError(ReproError, KeyError):
    """An operation referenced a point id that is not live.

    Subclasses ``KeyError`` because that is what the point-store lookups
    historically raised; ``str()`` therefore renders like a ``KeyError``
    (the message in quotes).
    """


class InvalidQueryError(ReproError, ValueError):
    """A query batch that is malformed as data (not a dead-id failure)."""


class UnsupportedOperationError(ReproError, RuntimeError):
    """An operation the selected algorithm cannot execute.

    Raised with a clear diagnosis instead of letting the clusterer's
    ``NotImplementedError`` escape mid-run — e.g. when a ``delete`` op
    reaches the insert-only ``SemiDynamicClusterer``.
    """


class ShardTimeoutError(ReproError, TimeoutError):
    """A shard worker did not reply within ``shard_call_timeout``.

    Every reply wait in the process shard executor goes through a
    ``poll``-based deadline, so a hung worker (deadlocked, SIGSTOP'd,
    or with a fault-injected hang) raises this instead of hanging the
    parent.  After a timeout the worker's channel is desynchronized
    and poisoned: the shard supervisor recovers by killing and
    respawning the worker and replaying its journal; without a
    supervisor the shard is unusable until restarted.
    """


class StaleOwnershipError(ReproError):
    """A routed shard call carried a stale ownership-table version.

    Every data-plane call the shard router fans out (``ingest``,
    ``delete_many``, ``merge_state``) is stamped with the router's
    block→shard ownership-table version.  A worker whose table is at a
    different version rejects the call with this error instead of
    acting on blocks it may no longer own — the distributed analogue
    of the per-shard epoch token the boundary merge already checks.
    Not a recoverable failure: replaying the same stale call cannot
    succeed, so the supervisor relays it to the caller.
    """


__all__ = [
    "ReproError",
    "ConfigError",
    "UnknownPointError",
    "InvalidQueryError",
    "UnsupportedOperationError",
    "ShardTimeoutError",
    "StaleOwnershipError",
]
