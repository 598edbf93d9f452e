"""Buffered ingest sessions — the ROADMAP's "async ingest" item.

An :class:`IngestSession` accumulates updates in memory and applies
them through the engine's vectorized bulk paths (``insert_many`` /
``delete_many``) only when a *flush* happens:

* automatically, once the buffer reaches the flush threshold
  (``EngineConfig.flush_threshold``, overridable per session);
* at a **query barrier** — any ``cgroup_by`` / ``snapshot`` / ``stats``
  through the session flushes first, so queries always observe every
  update issued before them;
* explicitly via :meth:`IngestSession.flush` or on clean ``with``-block
  exit.

Because the bulk insert paths only add new points to the per-cell point
dicts and append core points to the flat per-cell emptiness stores, a
pure-ingest phase through a session builds no spatial index.

Point ids are handed out *eagerly*: every clusterer assigns contiguous
ids in arrival order, so the session predicts the ids a flush will
assign and returns them immediately from :meth:`ingest` /
:meth:`ingest_many`.  The prediction is verified at flush time; writing
to the engine directly while a session holds buffered updates is the
one way to invalidate it, and raises a clear
:class:`repro.errors.ReproError` instead of corrupting id bookkeeping.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.api.config import KNOBS
from repro.errors import ReproError


class IngestSession:
    """Buffered update session over one :class:`repro.api.Engine`.

    Obtain one from :meth:`repro.api.Engine.session`; usable as a
    context manager (clean exit flushes, an in-flight exception discards
    the buffer so a failed batch is not half-replayed)::

        with engine.session() as session:
            for point in stream:
                session.ingest(point)
        # exiting flushed; engine.snapshot() now sees every point
    """

    def __init__(self, engine, flush_threshold: Optional[int] = None) -> None:
        if flush_threshold is not None:
            KNOBS["flush_threshold"].validate(flush_threshold)
        self._engine = engine
        self._threshold = (
            flush_threshold
            if flush_threshold is not None
            else engine.config.flush_threshold
        )
        # Buffered update runs in arrival order; consecutive same-kind
        # updates coalesce into one run = one bulk call at flush time.
        # Insert runs carry the id predicted for their first point, so
        # flush can verify the eager handouts against reality.
        self._runs: List[Tuple[str, list, Optional[int]]] = []
        self._pending = 0
        self._flushes = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_updates(self) -> int:
        """Updates buffered and not yet applied to the engine."""
        return self._pending

    @property
    def flush_count(self) -> int:
        """Flushes performed so far (auto, barrier and explicit)."""
        return self._flushes

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has retired this session."""
        return self._closed

    def _check_open(self, op: str) -> None:
        if self._closed:
            raise ReproError(
                f"cannot {op} through a closed ingest session; open a new "
                f"session with engine.session()"
            )

    def _watermark(self) -> Optional[int]:
        """The next id the engine's clusterer will assign (applied state)."""
        return getattr(self._engine.raw, "next_id", None)

    # ------------------------------------------------------------------
    # Buffered updates
    # ------------------------------------------------------------------

    def ingest(self, point: Sequence[float]) -> int:
        """Buffer one insertion; returns the id the flush will assign."""
        return self.ingest_many([point])[0]

    def ingest_many(self, points: Iterable[Sequence[float]]) -> List[int]:
        """Buffer a batch of insertions; returns their (predicted) ids.

        Ids are assigned eagerly: clusterers allocate contiguous ids in
        arrival order and bulk flushes preserve batch order, so the ids
        a flush will hand out are known now.  (On the rare clusterer
        without an id watermark the batch is applied immediately
        instead, which returns the true ids at the cost of buffering.)
        """
        self._check_open("ingest")
        batch = [tuple(float(x) for x in p) for p in points]
        if not batch:
            return []
        watermark = self._watermark()
        if watermark is None:
            # No id watermark to predict from: degrade to write-through.
            return self._engine.ingest(batch)
        base = watermark + self._buffered_inserts()
        if self._runs and self._runs[-1][0] == "insert":
            self._runs[-1][1].extend(batch)
        else:
            self._runs.append(("insert", batch, base))
        self._pending += len(batch)
        self._maybe_flush()
        return list(range(base, base + len(batch)))

    def delete(self, pid: int) -> None:
        """Buffer one deletion by id."""
        self.delete_many([pid])

    def delete_many(self, pids: Iterable[int]) -> None:
        """Buffer a batch of deletions by id.

        Deleting a point whose insertion is still buffered forces a
        flush first (the id must exist before the engine can remove
        it); deletions on an insert-only algorithm fail immediately
        rather than poisoning the buffer.
        """
        self._check_open("delete")
        pid_list = [int(pid) for pid in pids]
        if not pid_list:
            return
        if self._engine.config.insert_only:
            raise self._engine._insert_only_error("delete")
        watermark = self._watermark()
        if watermark is not None and any(pid >= watermark for pid in pid_list):
            # Targets a buffered insertion: materialize it first.
            self.flush()
        if self._runs and self._runs[-1][0] == "delete":
            self._runs[-1][1].extend(pid_list)
        else:
            self._runs.append(("delete", pid_list, None))
        self._pending += len(pid_list)
        self._maybe_flush()

    def _buffered_inserts(self) -> int:
        return sum(len(run) for kind, run, _ in self._runs if kind == "insert")

    def _maybe_flush(self) -> None:
        if self._threshold is not None and self._pending >= self._threshold:
            self.flush()

    def flush(self) -> None:
        """Apply every buffered update to the engine, in arrival order.

        If a run fails, that run is dropped (the raised error reports
        it; the dynamic clusterers' bulk paths validate before mutating,
        so a failed run applied nothing — only the sequential-fallback
        baselines can be left partially applied) and every *later* run
        stays buffered instead of being silently discarded: after a
        failed *delete* run a retried flush applies the rest exactly as
        predicted, and after a failed *insert* run the retry trips the
        stale-id check loudly (the dropped inserts shifted the id
        space), never reassigning handed-out ids in silence.
        """
        if not self._runs:
            return
        self._flushes += 1
        while self._runs:
            kind, payload, expected = self._runs[0]
            try:
                if kind == "insert":
                    pids = self._engine.ingest(payload)
                    if expected is not None and pids and pids[0] != expected:
                        raise ReproError(
                            f"ingest session ids went stale: the flush "
                            f"assigned ids from {pids[0]}, the session "
                            f"predicted {expected} — the engine was written "
                            f"to directly while this session held buffered "
                            f"updates"
                        )
                else:
                    self._engine.delete_many(payload)
            finally:
                # Pop on success and on failure alike; only the raise
                # distinguishes them.
                self._runs.pop(0)
                self._pending -= len(payload)

    def discard(self) -> int:
        """Drop every buffered update unapplied; returns how many."""
        dropped = self._pending
        self._runs = []
        self._pending = 0
        return dropped

    # ------------------------------------------------------------------
    # Query barriers
    # ------------------------------------------------------------------

    def cgroup_by(self, pids: Iterable[int]):
        """Barrier + C-group-by: flushes, then queries the engine."""
        self._check_open("query (cgroup_by)")
        self.flush()
        return self._engine.cgroup_by(pids)

    def cgroup_by_many(self, pids: Iterable[int]):
        """Barrier + batched C-group-by."""
        self._check_open("query (cgroup_by_many)")
        self.flush()
        return self._engine.cgroup_by_many(pids)

    def snapshot(self):
        """Barrier + epoch-stamped full clustering."""
        self._check_open("snapshot")
        self.flush()
        return self._engine.snapshot()

    def stats(self):
        """Barrier + epoch-stamped service counters."""
        self._check_open("stats")
        self.flush()
        return self._engine.stats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush buffered updates and retire the session; idempotent.

        The first ``close`` flushes (so close-with-buffered-ops loses
        nothing); if that flush fails — the engine died, a worker
        crashed — the remaining buffer is discarded and the *primary*
        error propagates once.  Every later ``close`` is a silent
        no-op: a crash-path double-close never raises a secondary
        error on top of the one that mattered.  Updates and queries
        through a closed session raise a clear
        :class:`repro.errors.ReproError`.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.flush()
        except BaseException:
            self.discard()
            raise

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.discard()
            self._closed = True
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IngestSession(pending={self._pending}, "
            f"threshold={self._threshold}, flushes={self._flushes})"
        )
