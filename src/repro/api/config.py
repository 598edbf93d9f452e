"""Typed, frozen engine configuration, every knob declared once.

Each field of :class:`EngineConfig` is one row of the knob table
(:data:`KNOBS`): type, range or choices, environment fallback, what it
requires, default, doc and the CLI commands taking it as a flag.  The
rows drive ``EngineConfig`` validation, the explicit > env > default
resolution behind the ``resolved_*`` properties, the ``bench`` /
``serve`` flags and the README's knob table.  Every invalid knob raises
:class:`repro.errors.ConfigError` before any structure is built.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigError

#: Canonical algorithm names (the paper's Section 8 line-up, matching
#: the CLI choices) plus the two family aliases ``semi`` / ``full``,
#: which resolve by ``rho``: exact when ``rho == 0``, approximate
#: otherwise.
ALGORITHM_CHOICES = (
    "semi-exact",
    "semi-approx",
    "full-exact",
    "double-approx",
    "incdbscan",
    "recompute",
)

_ALIASES = {"semi": ("semi-exact", "semi-approx"),
            "full": ("full-exact", "double-approx")}

#: Algorithms whose core definition has no rho relaxation at all.
_EXACT_ONLY = ("incdbscan", "recompute")

#: Algorithms a sharded deployment cannot run: sharding partitions the
#: *cell registry*, so only the grid-based clusterers qualify.  (Today
#: this coincides with ``_EXACT_ONLY``, but the two express different
#: properties — rho-free vs. grid-less — and may diverge.)
UNSHARDEABLE_ALGORITHMS = ("incdbscan", "recompute")

SHARD_EXECUTOR_CHOICES = ("serial", "process", "tcp")

# Defaults of the knobs of the same name; their rows say why.
DEFAULT_FLUSH_THRESHOLD = 4096
DEFAULT_SHARD_BLOCK = 16
DEFAULT_SHARD_CALL_TIMEOUT = 60.0
DEFAULT_SHARD_MAX_RESTARTS = 3
DEFAULT_SHARD_JOURNAL_SNAPSHOT_EVERY = 512

#: Per knob type: how a message names it, and the Python types it takes.
_KINDS = {
    int: ("an integer", int),
    float: ("a number", (int, float)),
    str: ("a string", str),
    tuple: ("a sequence of 'host:port' strings", (list, tuple)),
}


@dataclass(frozen=True)
class Knob:
    """One row of the knob table.

    ``default`` is what an unset knob resolves to; ``nullable`` knobs
    accept None; ``choices`` is a tuple of the legal values;
    ``low`` is a lower bound, exclusive when ``strict``; ``requires``
    names the shard executors the knob needs (it then needs ``shards``
    too); ``check`` validates further; ``cli`` lists the commands that
    take the knob as a flag.
    """

    kind: type
    doc: str
    default: Any = None
    required: bool = False
    nullable: bool = False
    env: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None
    low: Optional[float] = None
    strict: bool = False
    requires: Tuple[str, ...] = ()
    check: Optional[Callable[[Any], Any]] = None
    cli: Tuple[str, ...] = ()
    name: str = ""

    def range_text(self) -> str:
        if self.low is None:
            return ""
        if self.low == 0:
            text = "positive" if self.strict else "non-negative"
        else:
            text = (">" if self.strict else ">=") + f" {self.low:g}"
        return text + (" and finite" if self.kind is float else "")

    def validate(self, value: Any) -> Any:
        """``value`` if legal for this knob (sequences become tuples),
        else a :class:`ConfigError` naming the knob."""
        what, accepted = _KINDS[self.kind]
        if self.choices is not None and value not in self.choices:
            raise ConfigError(
                f"unknown {self.name} {value!r}; choices: "
                f"{', '.join(self.choices)}"
            )
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ConfigError(
                f"{self.name} must be {what}"
                f"{' or None' if self.nullable else ''}, got {value!r}"
            )
        if self.low is not None and not (
            math.isfinite(value)
            and (value > self.low if self.strict else value >= self.low)
        ):
            raise ConfigError(
                f"{self.name} must be {self.range_text()}, got {value!r}"
            )
        if self.check is not None:
            self.check(value)
        return tuple(value) if self.kind is tuple else value

    def parse(self, text: str) -> Any:
        """A flag or environment string as this knob's type; text that
        does not parse stays as is, for :meth:`validate` to reject."""
        if self.kind is tuple:
            return tuple(s.strip() for s in text.split(",") if s.strip())
        try:
            return self.kind(text)
        except ValueError:
            return text

    def resolve(self, explicit: Any) -> Any:
        """The explicit value if set, else the environment variable
        (its errors name it), else the default."""
        if explicit is not None:
            return float(explicit) if self.kind is float else explicit
        text = os.environ.get(self.env) if self.env else None
        if not text:
            return self.default
        try:
            return self.validate(self.parse(text))
        except ConfigError as exc:
            raise ConfigError(f"{self.env}={text!r}: {exc}") from None


def _knob(kind: type, doc: str, **spec: Any) -> Any:
    """One :class:`EngineConfig` field carrying its :class:`Knob` row.

    A knob with an env fallback or a ``requires`` is stored as None
    until set, so resolution can tell "unset" from "set to default".
    """
    row = Knob(kind, doc, **spec)
    if row.required:
        return field(metadata={"knob": row})
    unset = None if row.env or row.requires else row.default
    row = replace(row, nullable=row.nullable or unset is None)
    return field(default=unset, metadata={"knob": row})


def _check_fault_plan(plan: str) -> None:
    # Imported lazily: repro.shard imports this module at load.
    from repro.shard.faults import parse_fault_plan

    parse_fault_plan(plan)


def _parse_worker_address(spec: str) -> Tuple[str, int]:
    """Parse one ``host:port`` shard-worker address (ConfigError on junk)."""
    if isinstance(spec, str):
        host, _, port_text = spec.rpartition(":")
        port = int(port_text) if port_text.isdigit() else -1
        if host and 0 < port < 65536:
            return host, port
    raise ConfigError(
        f"shard worker address must be a 'host:port' string with a valid "
        f"port, got {spec!r}"
    )


_SHARDED = SHARD_EXECUTOR_CHOICES
_WORKERS = ("process", "tcp")
_BOTH = ("bench", "serve")


def _resolved(name: str) -> property:
    return property(
        lambda self: KNOBS[name].resolve(getattr(self, name)),
        doc=f"The ``{name}`` in effect: explicit > env > default.",
    )


@dataclass(frozen=True)
class EngineConfig:
    """Validated, immutable configuration of one :class:`repro.api.Engine`.

    Required: ``eps`` and ``minpts``; the rest default to the paper's
    conventions.  Setting ``shards`` makes :func:`repro.api.open` build
    a :class:`repro.shard.ShardedEngine`, which the ``shard_*`` knobs
    tune.  ``algorithm`` is stored as given, so ``replace(rho=...)`` on
    a family alias re-resolves; :attr:`resolved_algorithm` is the
    canonical name.
    """

    eps: float = _knob(
        float, "the DBSCAN radius", required=True, low=0, strict=True,
        cli=_BOTH)
    minpts: int = _knob(
        int, "the DBSCAN core threshold MinPts", required=True, low=1,
        cli=_BOTH)
    algorithm: str = _knob(
        str, "a Section 8 algorithm, or the family alias semi / full "
        "(exact at rho = 0, approximate above)", default="full-exact",
        choices=ALGORITHM_CHOICES + tuple(_ALIASES), cli=("serve",))
    rho: float = _knob(
        float, "the approximation slack; 0 is exact DBSCAN", default=0.0,
        low=0, cli=_BOTH)
    dim: int = _knob(int, "point dimensionality", default=2, low=1, cli=_BOTH)
    batch_size: Optional[int] = _knob(
        int, "coalesce update runs into insert_many / delete_many calls "
        "of at most this many points (unset: one update at a time)",
        low=1, cli=("bench",))
    flush_threshold: Optional[int] = _knob(
        int, "updates an ingest session buffers before flushing; None "
        "flushes only on query barriers", default=DEFAULT_FLUSH_THRESHOLD,
        low=1, nullable=True)
    shards: Optional[int] = _knob(
        int, "partition the cell registry across this many engines "
        "behind one router (grid-based algorithms only)", low=1, cli=_BOTH)
    shard_block: Optional[int] = _knob(
        int, "cell-ownership block side in cells per axis: larger blocks "
        "replicate fewer halo points but balance coarser",
        default=DEFAULT_SHARD_BLOCK, low=1, requires=_SHARDED)
    shard_executor: Optional[str] = _knob(
        str, "where shard engines live: in-process (serial), a spawned "
        "worker process each (process), or a remote 'python -m repro "
        "shard-worker' each (tcp); both worker kinds speak one socket "
        "wire", default="serial",
        choices=SHARD_EXECUTOR_CHOICES, requires=_SHARDED, cli=_BOTH)
    shard_call_timeout: Optional[float] = _knob(
        float, "deadline in seconds on every shard-worker reply; a hung "
        "worker fails with ShardTimeoutError and is restarted",
        default=DEFAULT_SHARD_CALL_TIMEOUT, env="REPRO_SHARD_CALL_TIMEOUT",
        low=0, strict=True, requires=_SHARDED, cli=_BOTH)
    shard_max_restarts: Optional[int] = _knob(
        int, "per-shard respawn-and-replay budget of the supervisor; 0 "
        "makes a worker death fatal", default=DEFAULT_SHARD_MAX_RESTARTS,
        env="REPRO_SHARD_MAX_RESTARTS", low=0, requires=_SHARDED)
    shard_fault_plan: Optional[str] = _knob(
        str, "a repro.shard.faults injection plan the workers consult",
        env="REPRO_FAULT_PLAN", check=_check_fault_plan, requires=_WORKERS)
    shard_workers: Optional[Tuple[str, ...]] = _knob(
        tuple, "one host:port worker address per shard (comma-separated "
        "in flags and the environment)", env="REPRO_SHARD_WORKERS",
        check=lambda specs: [_parse_worker_address(s) for s in specs],
        requires=("tcp",), cli=_BOTH)
    shard_journal_snapshot_every: Optional[int] = _knob(
        int, "journaled mutations per shard between the supervisor's "
        "snapshots, each of which truncates the recovery journal",
        default=DEFAULT_SHARD_JOURNAL_SNAPSHOT_EVERY,
        env="REPRO_SHARD_JOURNAL_SNAPSHOT_EVERY", low=1, requires=_SHARDED)

    def __post_init__(self) -> None:
        for row in KNOBS.values():
            value = getattr(self, row.name)
            if value is None and row.nullable:
                continue
            # Frozen dataclass: store the normalized value (list -> tuple).
            object.__setattr__(self, row.name, row.validate(value))
            if row.requires and self.shards is None:
                raise ConfigError(
                    f"{row.name}={value!r} requires shards to be set"
                )
            if row.requires and self.resolved_shard_executor not in row.requires:
                raise ConfigError(
                    f"{row.name}={value!r} requires shard_executor="
                    f"{' or '.join(map(repr, row.requires))}, not the "
                    f"{self.resolved_shard_executor} executor"
                )
        # Family aliases resolve by rho, so only an *explicitly* named
        # exact algorithm can contradict a non-zero rho.
        if self.algorithm.endswith("-exact") and self.rho != 0:
            raise ConfigError(
                f"algorithm {self.algorithm!r} is exact by definition but "
                f"rho={self.rho}; use the approximate variant, the "
                f"family alias, or rho=0"
            )
        if self.algorithm in _EXACT_ONLY and self.rho != 0:
            raise ConfigError(
                f"algorithm {self.algorithm!r} has no rho parameter; got "
                f"rho={self.rho}"
            )
        if self.shards is not None and (
            self.resolved_algorithm in UNSHARDEABLE_ALGORITHMS
        ):
            raise ConfigError(
                f"cannot shard algorithm {self.resolved_algorithm!r}: "
                f"sharding partitions the cell registry, which only the "
                f"grid-based algorithms (semi/full families) maintain"
            )
        if self.shard_workers is not None and (
            len(self.shard_workers) != self.shards
        ):
            raise ConfigError(
                f"shard_workers lists {len(self.shard_workers)} addresses "
                f"but shards={self.shards}; exactly one worker address per "
                f"shard is required"
            )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def resolved_algorithm(self) -> str:
        """The canonical algorithm name (family aliases resolved by rho)."""
        if self.algorithm in _ALIASES:
            exact, approx = _ALIASES[self.algorithm]
            return exact if self.rho == 0 else approx
        return self.algorithm

    @property
    def insert_only(self) -> bool:
        """Whether the configured algorithm rejects deletions."""
        return self.algorithm.startswith("semi")

    @property
    def effective_rho(self) -> float:
        """The rho the built clusterer actually runs with."""
        return 0.0 if self.resolved_algorithm.endswith("-exact") else self.rho

    resolved_shard_block = _resolved("shard_block")
    resolved_shard_executor = _resolved("shard_executor")
    resolved_shard_call_timeout = _resolved("shard_call_timeout")
    resolved_shard_max_restarts = _resolved("shard_max_restarts")
    resolved_shard_journal_snapshot_every = _resolved(
        "shard_journal_snapshot_every")

    @property
    def resolved_shard_transport(self) -> str:
        """What the executor moves calls on: ``inline`` for the serial
        executor, the ``socket`` shard wire for process and tcp."""
        if self.resolved_shard_executor in _WORKERS:
            return "socket"
        return "inline"

    @property
    def resolved_shard_fault_plan(self) -> Optional[str]:
        """The fault plan the workers consult (None without workers)."""
        if self.resolved_shard_executor not in _WORKERS:
            return None
        return KNOBS["shard_fault_plan"].resolve(self.shard_fault_plan)

    @property
    def resolved_shard_workers(self) -> Tuple[Tuple[str, int], ...]:
        """The ``(host, port)`` address of every tcp shard worker (the
        tcp executor checks there is one per shard)."""
        specs = KNOBS["shard_workers"].resolve(self.shard_workers)
        if specs is None:
            raise ConfigError(
                "shard_executor='tcp' needs worker addresses: set "
                "shard_workers=['host:port', ...] or the "
                "REPRO_SHARD_WORKERS environment variable "
                "(comma-separated)"
            )
        return tuple(_parse_worker_address(spec) for spec in specs)

    def replace(self, **changes) -> "EngineConfig":
        """A new validated config with the given fields replaced."""
        return replace(self, **changes)

    def as_dict(self) -> dict:
        """Plain-dict view (JSON-ready) of every configured knob."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def build_clusterer(self):
        """Instantiate the configured clusterer."""
        # Imported here: repro.core imports repro.kernels at module
        # load, and keeping config importable early avoids any cycle.
        from repro.baselines.incdbscan import IncDBSCAN
        from repro.baselines.naive_dynamic import RecomputeClusterer
        from repro.core.fullydynamic import FullyDynamicClusterer
        from repro.core.semidynamic import SemiDynamicClusterer

        algorithm = self.resolved_algorithm
        if algorithm in _EXACT_ONLY:
            rho_free = IncDBSCAN if algorithm == "incdbscan" else RecomputeClusterer
            return rho_free(self.eps, self.minpts, dim=self.dim)
        grid = (
            SemiDynamicClusterer
            if algorithm.startswith("semi")
            else FullyDynamicClusterer
        )
        return grid(
            self.eps,
            self.minpts,
            rho=self.effective_rho,
            dim=self.dim,
        )


#: The knob table, in field order: one named :class:`Knob` per field.
KNOBS: Dict[str, Knob] = {
    f.name: replace(f.metadata["knob"], name=f.name)
    for f in fields(EngineConfig)
}
