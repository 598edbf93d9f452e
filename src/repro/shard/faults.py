"""Deterministic fault injection for shard workers.

The chaos half of the fault-tolerance layer: a **fault plan** is a
declarative schedule of failures — *crash this worker at its 2nd
``ingest`` call*, *hang ``merge_state`` on shard 1* — that workers
consult inside :func:`repro.shard.executors.serve_session`.  Plans make
worker failure a first-class, reproducible test input, so the recovery
machinery (deadline-bounded calls, supervised restart, journal replay)
is proven against *injected* deaths and hangs rather than hand-rolled
monkeypatching: the same randomized-adversarial-testing direction the
workload-synthesis ROADMAP item points at, applied to failures.

A plan is a ``;``-separated list of rules, each::

    kind:method:nth[:key=value ...]

* ``kind`` — what happens when the rule fires:

  - ``crash``  — the worker process exits immediately
    (``os._exit``), simulating a segfault/OOM kill; the parent sees
    EOF on the socket.  A tcp worker ends only the session instead.
  - ``hang``   — the worker sleeps (default: effectively forever),
    simulating a deadlock; the parent sees a
    :class:`repro.errors.ShardTimeoutError` once the call deadline
    expires.
  - ``delay``  — the worker sleeps ``seconds`` (default 0.05) and then
    serves the call normally; simulates a slow worker that must *not*
    trip recovery when the delay fits the deadline.
  - ``error``  — the worker raises a :class:`repro.errors.ReproError`
    from inside the call; relayed like any backend exception (the
    worker survives, no recovery runs).

* ``method`` — the executor-call name the rule watches (``ingest``,
  ``delete_many``, ``merge_state``, ``ping``, ...).
* ``nth`` — fire at the Nth call of that method (1-based), counted
  per worker incarnation.
* options:

  - ``shard=i`` — only on shard ``i`` (default: every shard);
  - ``seconds=x`` — sleep length for ``hang`` / ``delay``;
  - ``incarnation=k`` or ``incarnation=*`` — which worker incarnation
    the rule arms in.  Default ``0`` (the original worker only), so a
    respawned worker replaying its journal does not re-trigger the
    fault that killed its predecessor; ``*`` arms in every
    incarnation, which is how a test exhausts the restart budget.

Plans are carried by the validated ``shard_fault_plan`` config knob or
the ``REPRO_FAULT_PLAN`` environment variable (knob wins), and parsed
with :class:`repro.errors.ConfigError` on any malformed rule.  When no
plan is set, workers skip injection entirely — the hot loop pays one
``is None`` check per call and nothing else.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError, ReproError

#: Everything a rule's ``kind`` field may name.
FAULT_KINDS = ("crash", "hang", "delay", "error")

#: Exit status of an injected ``crash`` — distinctive in worker logs,
#: unmistakably not a normal interpreter exit.
CRASH_EXIT_CODE = 117

#: Default sleep of a ``hang`` rule: far beyond any sane call deadline,
#: so an unsupervised parent's timeout (not the sleep running out) is
#: always what ends the wait.
HANG_SECONDS = 3600.0

#: Default sleep of a ``delay`` rule.
DELAY_SECONDS = 0.05


@dataclass(frozen=True)
class FaultRule:
    """One parsed fault-plan rule (see module docstring for semantics)."""

    kind: str
    method: str
    nth: int
    shard: Optional[int] = None
    seconds: Optional[float] = None
    incarnation: Optional[int] = 0  # None means every incarnation ('*')


def parse_fault_plan(spec: str) -> Tuple[FaultRule, ...]:
    """Parse a plan spec into rules; :class:`ConfigError` on bad syntax."""
    rules = []
    for chunk in spec.split(";"):
        part = chunk.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) < 3:
            raise ConfigError(
                f"fault rule {part!r} must be 'kind:method:nth[:key=value]'"
            )
        kind, method, nth_text = fields[0], fields[1], fields[2]
        if kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {kind!r} in rule {part!r}; choices: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if not method:
            raise ConfigError(f"fault rule {part!r} names no method")
        try:
            nth = int(nth_text)
        except ValueError:
            raise ConfigError(
                f"fault rule {part!r} has non-integer call index "
                f"{nth_text!r}"
            ) from None
        if nth < 1:
            raise ConfigError(
                f"fault rule {part!r} call index must be >= 1, got {nth}"
            )
        shard: Optional[int] = None
        seconds: Optional[float] = None
        incarnation: Optional[int] = 0
        for option in fields[3:]:
            key, sep, value = option.partition("=")
            if not sep:
                raise ConfigError(
                    f"fault rule option {option!r} in {part!r} must be "
                    f"'key=value'"
                )
            if key == "shard":
                try:
                    shard = int(value)
                except ValueError:
                    raise ConfigError(
                        f"fault rule {part!r}: shard must be an integer, "
                        f"got {value!r}"
                    ) from None
                if shard < 0:
                    raise ConfigError(
                        f"fault rule {part!r}: shard must be >= 0"
                    )
            elif key == "seconds":
                try:
                    seconds = float(value)
                except ValueError:
                    raise ConfigError(
                        f"fault rule {part!r}: seconds must be a number, "
                        f"got {value!r}"
                    ) from None
                if seconds < 0:
                    raise ConfigError(
                        f"fault rule {part!r}: seconds must be >= 0"
                    )
            elif key == "incarnation":
                if value == "*":
                    incarnation = None
                else:
                    try:
                        incarnation = int(value)
                    except ValueError:
                        raise ConfigError(
                            f"fault rule {part!r}: incarnation must be an "
                            f"integer or '*', got {value!r}"
                        ) from None
                    if incarnation < 0:
                        raise ConfigError(
                            f"fault rule {part!r}: incarnation must be >= 0"
                        )
            else:
                raise ConfigError(
                    f"unknown fault rule option {key!r} in {part!r}; "
                    f"choices: shard, seconds, incarnation"
                )
        rules.append(
            FaultRule(
                kind=kind,
                method=method,
                nth=nth,
                shard=shard,
                seconds=seconds,
                incarnation=incarnation,
            )
        )
    if not rules:
        raise ConfigError(f"fault plan {spec!r} contains no rules")
    return tuple(rules)


class FaultInjector:
    """Per-worker rule evaluator: counts calls, fires matching rules.

    Built once at worker startup from the rules that apply to this
    ``(shard, incarnation)``; :meth:`fire` is consulted before every
    dispatched call.  Counting is per method name and restarts from
    zero in every incarnation — which, combined with the default
    ``incarnation=0`` arming, is what keeps journal replay from
    re-triggering the fault it is recovering from.
    """

    def __init__(
        self,
        rules: Tuple[FaultRule, ...],
        shard_index: int,
        incarnation: int,
    ) -> None:
        self.shard_index = shard_index
        self._rules = [
            rule
            for rule in rules
            if (rule.shard is None or rule.shard == shard_index)
            and (rule.incarnation is None or rule.incarnation == incarnation)
        ]
        self._counts: Dict[str, int] = {}

    def fire(self, method: str, on_crash=None) -> None:
        """Trigger any rule matching this (Nth) call of ``method``.

        ``crash`` never returns; ``hang``/``delay`` sleep and return so
        the call proceeds (for a hang, into a parent that has long
        since timed out); ``error`` raises — the worker loop relays it
        like any backend exception.

        ``on_crash`` overrides what a ``crash`` rule does: process
        workers die outright (``os._exit``), while a tcp worker passes
        a callback that aborts only the serving session — modeling a
        platform supervisor that restarts the worker on the same
        address while the listener survives.  The callback must not
        return; if it does, the process exit runs anyway.
        """
        if not self._rules:
            return
        count = self._counts.get(method, 0) + 1
        self._counts[method] = count
        for rule in self._rules:
            if rule.method != method or rule.nth != count:
                continue
            if rule.kind == "crash":
                if on_crash is not None:
                    on_crash()
                os._exit(CRASH_EXIT_CODE)
            if rule.kind == "hang":
                time.sleep(rule.seconds if rule.seconds is not None else HANG_SECONDS)
            elif rule.kind == "delay":
                time.sleep(rule.seconds if rule.seconds is not None else DELAY_SECONDS)
            else:
                raise ReproError(
                    f"injected fault: {rule.kind} at call {rule.nth} of "
                    f"{rule.method!r} on shard {self.shard_index}"
                )


def injector_for(
    spec: Optional[str], shard_index: int, incarnation: int
) -> Optional[FaultInjector]:
    """The injector a worker should consult, or ``None`` when no plan is set.

    ``None`` is the zero-overhead path: the worker loop's only cost is
    the ``is None`` check per call.
    """
    if not spec:
        return None
    return FaultInjector(parse_fault_plan(spec), shard_index, incarnation)


__all__ = [
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultRule",
    "injector_for",
    "parse_fault_plan",
]
