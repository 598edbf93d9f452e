"""Supervised worker recovery: journal, restart, exact replay.

Unsupervised, a single worker death would brick the whole sharded
engine, and a hung worker would hang the parent with it.  The
:class:`ShardSupervisor` sits between the router and a worker executor
(:class:`repro.shard.executors.ProcessShardExecutor` or its tcp
subclass) and turns both failures into a bounded, provably-exact
recovery:

* **Journal.**  Every state-mutating call
  (:data:`repro.shard.backend.MUTATING_CALLS` — ``ingest`` /
  ``delete_many``) that *succeeds* is appended to a per-shard
  write-ahead journal.  A shard worker is a pure function of its call
  history — it is constructed from ``(config, index, count)`` alone
  and every engine update path is deterministic — so the journal *is*
  the shard's state, in replayable form.
* **Recovery.**  When a call fails with a recoverable failure
  (:class:`repro.shard.executors.ShardWorkerLost` — the worker died —
  or :class:`repro.errors.ShardTimeoutError` — it hung), the
  supervisor has the executor replace the worker (respawn a local one,
  reconnect to a remote one; bumped incarnation), replays the shard's
  journal against the empty backend, and retries the in-flight call.
  Replay rebuilds state *exactly*: at ``rho = 0`` the recovered
  deployment's query and snapshot sequences are bit-identical to an
  unsharded engine's, the same differential bar the router already
  clears — proven by the chaos suite under injected crashes and
  hangs.  Whether the dying worker had half-applied the failed call
  is irrelevant: its state is discarded wholesale and rebuilt from
  calls that are known to have succeeded.
* **Bounds.**  Restarts are budgeted per shard
  (``EngineConfig.shard_max_restarts``); exhausting the budget raises
  a :class:`repro.errors.ReproError` that names it.  A budget of 0
  disables recovery — the fail-fast pre-supervision behavior.
  Restart counts surface in ``ShardedStats.restarts`` and
  ``RunResult.restarts``.

Relayed *backend* exceptions (a bad batch, an injected ``error``
fault) are not failures of the worker and propagate untouched — the
worker survived them, nothing needs rebuilding.

* **Truncation.**  The journal holds references to the routed argument
  arrays, so left unchecked its memory footprint would grow linearly
  with update history — a leak in any long-lived deployment.  Instead,
  after every ``shard_journal_snapshot_every`` journaled mutations on
  a shard the supervisor drains that worker's state through
  ``export_state`` (points + global ids + epoch + ownership table),
  stores it as the shard's *snapshot*, and truncates the journal —
  right after the journaled call, since every reply owns its receive
  buffers and no later call can overwrite them.  Recovery then seeds
  the fresh worker with ``restore_state`` and replays only the journal
  suffix.  At ``rho = 0`` the clustering is a pure function of the
  live point set, and the restore re-ingests every point under the
  global id it was exported with, so snapshot-plus-suffix recovery
  stays bit-identical — the chaos suite proves it.  ``journal_size`` is therefore bounded
  by the knob, regardless of history length.

The journal/replay contract is executor-agnostic: the supervisor
drives the process and tcp executors, and the serial one in tests,
through the same ``restart_worker`` / ``call`` / ``map_scatter``
surface.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.config import EngineConfig
from repro.errors import ReproError
from repro.shard.backend import MUTATING_CALLS
from repro.shard.executors import RECOVERABLE_FAILURES, Call


class ShardSupervisor:
    """Executor wrapper adding journaling and restart-with-replay.

    Exposes the executor surface the router drives (``call`` / ``map``
    / ``shard_count`` / ``transport`` / ``close``), so supervision is
    invisible to the routing and merge paths — it changes only what
    happens when a worker dies or hangs.
    """

    def __init__(self, executor, config: EngineConfig) -> None:
        self._executor = executor
        self.shard_count = executor.shard_count
        self.max_restarts = config.resolved_shard_max_restarts
        self.snapshot_every = config.resolved_shard_journal_snapshot_every
        self._journal: List[List[Tuple[str, Tuple[Any, ...]]]] = [
            [] for _ in range(executor.shard_count)
        ]
        self._snapshots: List[Optional[Dict[str, Any]]] = [
            None
        ] * executor.shard_count
        self._restarts = [0] * executor.shard_count

    # ------------------------------------------------------------------
    # Introspection (delegated or supervision-specific)
    # ------------------------------------------------------------------

    @property
    def executor(self):
        """The supervised executor (escape hatch for tests/tools)."""
        return self._executor

    @property
    def transport(self) -> str:
        return self._executor.transport

    @property
    def restarts(self) -> int:
        """Worker restarts performed over this deployment's lifetime."""
        return sum(self._restarts)

    @property
    def restarts_per_shard(self) -> Tuple[int, ...]:
        return tuple(self._restarts)

    def journal_size(self, shard_index: int) -> int:
        """Journaled mutating calls held for one shard (test surface).

        Stays below ``snapshot_every``: reaching it takes a snapshot
        that truncates the journal back to empty.
        """
        return len(self._journal[shard_index])

    def has_snapshot(self, shard_index: int) -> bool:
        """Whether truncation has produced a snapshot for this shard."""
        return self._snapshots[shard_index] is not None

    def snapshot_epoch(self, shard_index: int) -> Optional[int]:
        """The epoch the shard's snapshot was captured at (test surface)."""
        snapshot = self._snapshots[shard_index]
        return None if snapshot is None else int(snapshot["epoch"])

    # ------------------------------------------------------------------
    # Recovery core
    # ------------------------------------------------------------------

    def _recover(self, shard_index: int, cause: BaseException) -> None:
        """Restart shard ``shard_index`` and replay its journal.

        Loops (within the budget) because the respawn ping or the
        replay itself can fail recoverably again — e.g. a fault plan
        pinned to a later incarnation.  Every attempt restarts from an
        empty backend, so a partial previous replay leaves nothing
        behind.
        """
        while True:
            if self._restarts[shard_index] >= self.max_restarts:
                raise ReproError(
                    f"shard {shard_index} exhausted its restart budget "
                    f"(shard_max_restarts={self.max_restarts}) and cannot "
                    f"be recovered; last failure: {cause}"
                ) from cause
            self._restarts[shard_index] += 1
            try:
                self._executor.restart_worker(shard_index)
                snapshot = self._snapshots[shard_index]
                if snapshot is not None:
                    # Seed the empty backend with the truncation
                    # snapshot, then replay only the journal suffix.
                    # restore_state is issued directly (never
                    # journaled): it is the base the journal sits on.
                    self._executor.call(
                        shard_index,
                        "restore_state",
                        snapshot["points"],
                        snapshot["ids"],
                        snapshot["epoch"],
                        snapshot["version"],
                        snapshot["overrides"],
                    )
                for method, args in self._journal[shard_index]:
                    self._executor.call(shard_index, method, *args)
                return
            except RECOVERABLE_FAILURES as exc:
                cause = exc
            except ReproError as exc:
                # A journaled call failing on replay means the replayed
                # state diverged from the recorded history — that is a
                # supervision bug, not a worker failure; do not retry.
                raise ReproError(
                    f"journal replay diverged while recovering shard "
                    f"{shard_index}: a call that previously succeeded "
                    f"failed on replay ({exc})"
                ) from exc

    def _attempt(
        self, shard_index: int, method: str, args: Tuple[Any, ...]
    ) -> Any:
        """One call, recovering-and-retrying until success or budget end."""
        while True:
            try:
                return self._executor.call(shard_index, method, *args)
            except RECOVERABLE_FAILURES as exc:
                self._recover(shard_index, exc)

    def _record(self, shard_index: int, call: Tuple[str, Tuple]) -> None:
        if call[0] in MUTATING_CALLS:
            self._journal[shard_index].append((call[0], call[1]))
            if len(self._journal[shard_index]) >= self.snapshot_every:
                self._take_snapshot(shard_index)

    def _take_snapshot(self, shard_index: int) -> None:
        """Drain one shard's state and truncate its journal.

        ``export_state`` builds its arrays and ownership table afresh,
        and a worker's reply owns its receive buffers, so the snapshot
        is kept as returned: no later call can change it.
        """
        self._snapshots[shard_index] = self._attempt(
            shard_index, "export_state", ()
        )
        self._journal[shard_index] = []

    # ------------------------------------------------------------------
    # The executor surface
    # ------------------------------------------------------------------

    def call(self, shard_index: int, method: str, *args) -> Any:
        result = self._attempt(shard_index, method, args)
        self._record(shard_index, (method, args))
        return result

    def map(self, calls: Sequence[Call]) -> List[Any]:
        """One result (or ``None``) per shard, failures recovered per shard.

        The healthy shards' results from the overlapped fan-out are
        kept; each failed shard is restarted, replayed and retried
        individually.  Only a shard whose *retry chain* exhausts the
        budget (or a relayed backend exception) surfaces — first in
        shard order, matching the executor's own ``map``.
        """
        outcomes = self._executor.map_scatter(calls)
        failure = None
        for index, call in enumerate(calls):
            if call is None:
                continue
            outcome = outcomes[index]
            if isinstance(outcome, RECOVERABLE_FAILURES):
                try:
                    self._recover(index, outcome)
                    outcome = self._attempt(index, call[0], call[1])
                except BaseException as exc:  # noqa: BLE001
                    if failure is None:
                        failure = exc
                    continue
            elif isinstance(outcome, BaseException):
                if failure is None:
                    failure = outcome
                continue
            outcomes[index] = outcome
            self._record(index, call)
        if failure is not None:
            raise failure
        return outcomes

    def close(self) -> None:
        self._executor.close()
