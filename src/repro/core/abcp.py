"""Approximate bichromatic close pair (aBCP) maintenance — Lemma 3.

One :class:`ABCPInstance` watches one pair of close core cells ``(A, B)``
and maintains a *witness pair* ``(a, b)`` with ``a`` a core point of ``A``
and ``b`` of ``B`` such that

* if non-empty, ``dist(a, b) <= (1 + rho) * eps``;
* it **must** be non-empty whenever some core pair is within ``eps``.

The grid-graph edge between ``A`` and ``B`` exists exactly while the witness
is non-empty (Section 7.2).

The implementation follows the paper's proof: a de-listing queue ``L`` holds
points whose emptiness query against the opposite cell is still owed.  Newly
inserted core points are appended to ``L``; each is de-listed (queried) at
most once per instance, giving O(1) amortized emptiness queries per update.

One refinement over the paper's prose: when the *initial* scan of the
smaller side stops early at the first witness, the remaining unscanned
points of that side are placed in ``L`` rather than dropped.  (Otherwise a
pair of initial points could hide forever: both sides present at
construction, the scan stops before reaching the pair's endpoint, and no
subsequent insertion ever re-queries it.  The suffix-pointer representation
in the paper's own remark has exactly this behaviour.)

Updates come in batches of one side: ``insert_many`` and ``delete_many``
de-list or repair at most once per call, after the side's emptiness
structure already reflects the whole batch.  ``insert`` and ``delete`` are
one-element batches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Collection, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.emptiness import EmptinessStructure

Coords = Callable[[int], Sequence[float]]

SIDE_A = 0
SIDE_B = 1


class ABCPInstance:
    """Witness-pair maintenance for one pair of close core cells."""

    __slots__ = ("_empt", "_coords", "witness", "_pending")

    def __init__(
        self,
        empt_a: EmptinessStructure,
        empt_b: EmptinessStructure,
        coords: Coords,
    ) -> None:
        self._empt = (empt_a, empt_b)
        self._coords = coords
        self.witness: Optional[Tuple[int, int]] = None
        # L as a queue of ``(pids, side, start)`` runs: ``pids[start:]``
        # are owed, so a batch enters L in O(1).
        self._pending: Deque[Tuple[Sequence[int], int, int]] = deque()
        # Initial scan over the smaller side (Lemma 3's O(min(|A|, |B|))):
        # a de-listing of all its points, which stops at the first witness
        # and leaves the rest owed.
        side = SIDE_A if len(empt_a) <= len(empt_b) else SIDE_B
        self._pending.append((self._empt[side].ids(), side, 0))
        self._delist()

    @property
    def has_witness(self) -> bool:
        return self.witness is not None

    def _set_witness(self, pid: int, side: int, partner: int) -> None:
        self.witness = (pid, partner) if side == SIDE_A else (partner, pid)

    def _delist(self) -> None:
        """Drain owed queries until a witness appears or L empties.

        Owed points still alive are queried in L's order, in chunks of
        doubling size (1, 2, 4, ...) with one batched emptiness call
        each.  The first proof found is the one a point-at-a-time drain
        finds; the points queried after it stay owed.  So a drain makes
        at most about twice the queries of the point-at-a-time one.
        """
        pending = self._pending
        coords = self._coords
        size = 1
        while pending:
            pids, side, pos = pending.popleft()
            empt = self._empt[side]
            batch: List[int] = []
            where: List[int] = []
            while pos < len(pids) and len(batch) < size:
                pid = pids[pos]
                if pid in empt:  # else lazily dropped (deleted or demoted)
                    batch.append(pid)
                    where.append(pos)
                pos += 1
            if batch:
                size *= 2
                proofs = self._empt[1 - side].empty_many(
                    np.array([coords(pid) for pid in batch], dtype=float)
                )
                for k, proof in enumerate(proofs):
                    if proof is not None:
                        if where[k] + 1 < len(pids):
                            pending.appendleft((pids, side, where[k] + 1))
                        self._set_witness(batch[k], side, proof)
                        return
            if pos < len(pids):
                pending.appendleft((pids, side, pos))

    def insert(self, pid: int, side: int) -> None:
        """A core point appeared on ``side`` (already in its emptiness)."""
        self.insert_many((pid,), side)

    def insert_many(self, pids: Sequence[int], side: int) -> None:
        """Core points appeared on ``side``; de-lists at most once.

        ``pids`` is kept in ``L`` as given, so the caller must not
        mutate it afterwards.
        """
        if len(pids):
            self._pending.append((pids, side, 0))
        if self.witness is None:
            self._delist()

    def delete(self, pid: int, side: int) -> None:
        """A core point left ``side`` (already removed from its emptiness)."""
        self.delete_many((pid,), side)

    def delete_many(self, pids: Collection[int], side: int) -> None:
        """Core points left ``side`` (already removed); repairs at most once.

        Entries of ``L`` for the removed points are dropped lazily by
        the alive check in :meth:`_delist`.
        """
        if self.witness is None or self.witness[side] not in pids:
            return
        partner = self.witness[1 - side]
        proof = self._empt[side].empty(self._coords(partner))
        if proof is not None:
            self._set_witness(partner, 1 - side, proof)
            return
        self.witness = None
        self._delist()
