"""One shard of a sharded deployment: an engine plus its trust boundary.

A :class:`ShardBackend` wraps one ordinary :class:`repro.api.Engine`
over this shard's slice of the data — every point of every cell whose
ownership block hashed here, plus halo replicas of foreign cells within
the grid's closeness reach (see :mod:`repro.shard.topology`).  Because
the halo completes the neighborhoods of all owned cells, the engine's
core-status decisions (and emptiness structures) for *owned* cells are
exactly what a single global engine computes; its view of halo cells is
advisory only.  Accordingly, every resolution the backend reports is
restricted by the ownership predicate, and anything touching foreign
territory comes back as probes/candidates for the router's boundary
merge.

A shard has no id space of its own: ``ingest`` ships each slice's
global ids with its points and the engine stores every point under
its global id, so deletes, ``is_core``, membership fragments and
probes all speak global ids, and a snapshot restore re-ingests the
live set under the same ids.

The backend is the unit the executors move across process boundaries:
it is constructed from ``(config, shard_index, shard_count)`` alone and
all its method arguments and results are plain data.  Bulk payloads —
point batches, id arrays, the fragment frontiers — are numpy arrays,
and :data:`BULK_CALLS` declares exactly which calls carry them, so the
shard wire (:mod:`repro.shard.transport`) streams them as raw array
frames without guessing, never as per-element python objects.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.config import EngineConfig
from repro.api.engine import Engine
from repro.core.bulk import GumEdgeFragment, MembershipFragments
from repro.errors import ReproError
from repro.shard.topology import ShardTopology


@dataclass(frozen=True)
class BulkSpec:
    """Where one executor call's bulk numpy payloads are declared to live.

    ``arg_positions`` names the positional arguments that may hold (or
    contain) bulk arrays; ``bulk_result`` declares the same for the
    call's result.  Everything undeclared is control metadata and is
    pickled untouched — the framer never guesses.
    """

    arg_positions: Tuple[int, ...] = ()
    bulk_result: bool = False


#: The wire contract of the executor call surface: which calls
#: carry bulk numpy payloads, and where.  Every id on the wire is a
#: global id: ``ingest`` takes an ``(n, dim)`` float64 point batch and
#: the batch's int64 global-id array, and replies with nothing bulk;
#: ``delete_many`` takes an int64 id array; ``merge_state`` takes an
#: int64 id array (``None`` for a ``Q = P`` snapshot, which ships no
#: ids) and returns the flat membership-fragment arrays and the owned
#: core cells with their component labels — a fixed handful of frames
#: however many cells the shard owns — plus the frontier coordinate
#: arrays, one per frontier cell.  Everything else
#: (``ping``, ``stats``, ``is_core``, ...) is control-plane only.
BULK_CALLS = {
    "ingest": BulkSpec(arg_positions=(0, 2)),
    "delete_many": BulkSpec(arg_positions=(0,)),
    "merge_state": BulkSpec(arg_positions=(0,), bulk_result=True),
    # Journal truncation: the supervisor drains a shard's live state
    # (point batch + id array) and re-seeds a fresh worker with it
    # before replaying the journal suffix.
    "export_state": BulkSpec(arg_positions=(), bulk_result=True),
    "restore_state": BulkSpec(arg_positions=(0, 1)),
}

#: The state-mutating subset of the executor call surface — exactly the
#: calls the shard supervisor journals, because replaying them (in
#: order, against a freshly rebuilt backend) reproduces the backend's
#: state bit-for-bit.  Every other call is read-only and safe to retry
#: without journaling.  ``restore_state`` mutates but is deliberately
#: absent: only the supervisor issues it, as the seed a journal suffix
#: replays on top of — journaling it would recurse.
MUTATING_CALLS = frozenset({"ingest", "delete_many", "set_ownership"})

IdBatch = Union[Sequence[int], np.ndarray]


def _id_list(pids: IdBatch) -> List[int]:
    """Normalize an id payload (array or list) to plain python ints."""
    if isinstance(pids, np.ndarray):
        return pids.tolist()
    return [int(pid) for pid in pids]


class ShardBackend:
    """One per-shard engine behind the ownership trust predicate."""

    def __init__(
        self, config: EngineConfig, shard_index: int, shard_count: int
    ) -> None:
        # The per-shard engine is an ordinary single engine: strip the
        # sharding knobs so construction cannot recurse.
        self.config = config.replace(
            shards=None,
            shard_block=None,
            shard_executor=None,
            shard_call_timeout=None,
            shard_max_restarts=None,
            shard_fault_plan=None,
            shard_workers=None,
            shard_journal_snapshot_every=None,
        )
        self.index = shard_index
        self.topology = ShardTopology(
            eps=config.eps,
            dim=config.dim,
            rho=config.effective_rho,
            shard_count=shard_count,
            block=config.resolved_shard_block,
        )
        self._trust = self.topology.trust(shard_index)
        self.engine = Engine.open(self.config)
        self._epoch_offset = 0

    # ------------------------------------------------------------------
    # Updates (global ids: the router owns the id space)
    # ------------------------------------------------------------------

    def ingest(
        self,
        points: Union[Sequence[Sequence[float]], np.ndarray],
        version: Optional[int] = None,
        ids: Optional[IdBatch] = None,
    ) -> None:
        """Bulk-insert this shard's slice of a batch under its global ids.

        ``ids`` are the slice's fresh, strictly ascending global ids
        (``None`` continues the engine's own contiguous numbering).
        ``version`` is the router's ownership-table stamp (checked
        against this shard's table; ``None`` skips the check).
        """
        self.topology.check_version(version)
        self.engine.ingest(points, ids)

    def delete_many(self, pids: IdBatch, version: Optional[int] = None) -> None:
        """Bulk-delete by global ids (router pre-validated the batch)."""
        self.topology.check_version(version)
        self.engine.delete_many(_id_list(pids))

    # ------------------------------------------------------------------
    # Merge inputs
    # ------------------------------------------------------------------

    def merge_state(
        self,
        pids: Optional[np.ndarray],
        version: Optional[int] = None,
    ) -> Tuple[MembershipFragments, GumEdgeFragment, int]:
        """Everything the router needs from this shard for one merge.

        Membership fragments for the queried ids — ``None`` queries
        every point this shard owns (a ``Q = P`` snapshot walks the
        owned cells), an empty array none — then this shard's owned core
        cells labelled by its engine's components, with the boundary
        candidates and frontier, and the backend epoch: the
        consistency token the router checks against the update count it
        routed here, so a merge can never silently combine shards at
        different dataset versions.
        """
        self.topology.check_version(version)
        return (
            self.engine.membership_fragments(pids, trust=self._trust),
            self.engine.gum_edge_fragment(trust=self._trust),
            self.epoch(),
        )

    # ------------------------------------------------------------------
    # Ownership and recovery state (supervisor / rebalance surface)
    # ------------------------------------------------------------------

    def set_ownership(self, version: int, overrides: dict) -> int:
        """Install a new block→shard table (a rebalance flip); journaled.

        Returns the installed version.  The trust predicate closes over
        the topology's live caches, so owned-cell decisions follow the
        new table immediately.  It stays the same object, so the
        engine's fragment cache (bound by predicate identity) cannot see
        the flip: fragments resolved under the old table would keep
        deciding, or probing, across the moved boundary.  They are
        dropped here.
        """
        self.topology.apply_ownership(version, overrides)
        self.engine.raw.drop_fragments()
        return self.topology.version

    def export_state(self) -> dict:
        """This shard's full recoverable state, as plain bulk data.

        The supervisor's journal-truncation path: the live point batch
        and its global ids (ascending), plus the epoch and the
        ownership table.  At rho=0 the clustering is a pure function of
        the live point set, so ``restore_state`` of this payload plus a
        replay of the journal suffix is bit-identical to the original
        history.
        """
        ids, points = self.engine.raw.live_points()
        return {
            "points": points,
            "ids": ids,
            "epoch": self.epoch(),
            "version": self.topology.version,
            "overrides": self.topology.ownership_overrides,
        }

    def restore_state(
        self,
        points: np.ndarray,
        ids: np.ndarray,
        epoch: int,
        version: int,
        overrides: dict,
    ) -> None:
        """Re-seed a fresh backend from an exported snapshot.

        Only the supervisor calls this (never journaled): the engine
        re-ingests the live set under its original global ids, and the
        epoch offset keeps the consistency token counting from the
        snapshot epoch rather than from zero.
        """
        self.engine.ingest(np.asarray(points, dtype=np.float64), ids)
        self._epoch_offset = int(epoch) - self.engine.epoch
        self.topology.apply_ownership(version, overrides)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def epoch(self) -> int:
        return self.engine.epoch + self._epoch_offset

    def size(self) -> int:
        """Live points held by this shard (owned plus halo replicas)."""
        return len(self.engine)

    def is_core(self, pid: int) -> bool:
        return self.engine.is_core(pid)

    def stats(self):
        return self.engine.stats()

    def ping(self) -> int:
        """Liveness probe (also used to warm worker processes)."""
        return self.index

    def runtime_info(self) -> dict:
        """Where and in what state this backend actually runs.

        The regression surface for worker isolation: a spawned worker
        reports its own pid and a fresh (un-inherited) module sentinel,
        proving the backend was rebuilt in-process rather than forked
        with the parent's state.
        """
        from repro.shard import executors

        return {
            "index": self.index,
            "pid": os.getpid(),
            "sentinel": executors.WORKER_SENTINEL,
            "backend": self.engine.backend,
        }

    def fault(self, kind: str = "plain") -> None:
        """Deliberately raise — the executors' error-relay test surface."""
        if kind == "unpicklable":
            exc = ReproError(
                "injected fault carrying an unpicklable payload"
            )
            exc.payload = lambda: None  # defeats pickle at relay time
            raise exc
        # The connection-failure types, relayed: they must not read as
        # a lost or hung worker on the parent's side.
        if kind == "eof":
            raise EOFError("injected fault")
        if kind == "timeout":
            raise TimeoutError("injected fault")
        raise ReproError("injected fault")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying engine (idempotent)."""
        self.engine.close()
