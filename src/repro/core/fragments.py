"""Incremental fragment cache — cell-level invalidation (ROADMAP item).

The paper's thesis is "pay only for what changed"; this module applies
it one level up, to the *query* side.  A :class:`FragmentCache` memoizes
the per-cell artifact every barrier used to recompute from scratch: one
**membership fragment** (:class:`CellFragment`) per queried grid cell,
the resolved memberships of *all* of that cell's points, keyed by the
core cell granting each membership (not by CC id — component ids drift
globally on every union/split, while the granted-by-cell decomposition
only changes when the local neighborhood does).  Nothing else needs a
cache: a shard reports each core cell's component from the engine's own
CC structure, and its frontier coordinates are a copy of the cell's
emptiness store
(:meth:`repro.core.framework.GridClusterer.gum_edge_fragment`).

Invalidation is **eager and cell-local**.  When a mutation touches cell
set ``T``, core status can change only in ``ring1 = T ∪ N(T)`` (a ball
count reaches at most one closeness step); a cell's membership fragment
additionally depends on its neighbors' core sets, so fragments die for
``ring2 = ring1 ∪ N(ring1)``.  The rings are derived by the owner
(:meth:`repro.core.framework.GridClusterer._touch_cells`) from the
grid's own neighbor links, which is why insert paths must touch *after*
linking new cells and delete paths *before* unlinking emptied ones.
Eagerness matters: a lazy validity check is unsound once a recompute
clears the dirty mark while stale dependent entries survive.

Trust safety: every entry is implicitly keyed by the trust predicate it
was computed under (by object identity — the shard backends pass one
stable predicate per deployment, single engines pass ``None``).  A
lookup under a different predicate flushes the cache first, so a
fragment resolved with one shard's authority can never serve another.
A predicate that changes what it admits while staying the same object
(a shard's ownership flip) must :meth:`FragmentCache.clear` the cache.

Reuse legality: with ``rho = 0`` every cached decision is exact and
deterministic, so a replayed fragment equals a recomputed one.  With
``rho > 0`` a cached fragment is a previously *legal* answer for a
neighborhood that has not changed since — replaying it is as legal as
recomputing (the sandwich guarantee constrains answers, not when they
were computed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.grid import Cell

__all__ = [
    "CellFragment",
    "FragmentCache",
    "FragmentCacheStats",
]

#: Distinguishes "no trust predicate yet" from a ``None`` predicate
#: (which is itself a valid token: the unrestricted single engine).
_UNSET = object()


@dataclass(frozen=True)
class FragmentCacheStats:
    """Cumulative hit / miss / invalidation counters of one cache.

    ``hits`` and ``misses`` count cacheable per-cell membership
    lookups (a bucket whose query covers every live point of its cell —
    always true for ``Q = P`` snapshots and for the shard merge's
    owned-cell queries); partial-query buckets bypass the cache and
    count nothing.
    ``invalidations`` counts cached entries dropped by mutations (and
    trust-predicate switches or ownership flips), not mutation calls.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0


@dataclass
class CellFragment:
    """The resolved membership fragment of one fully-queried cell.

    ``members`` maps each granting core cell to the queried ids of
    *this* cell that belong to its cluster (own cell for core points
    and same-cell grants; close core cells for witnessed memberships).
    ``noise`` lists ids with no membership among trusted cells;
    ``probes`` the ``(pid, cell)`` decisions left open because the cell
    fell outside the resolver's trust.  Arrays are treated as immutable
    by every consumer (splicing always copies), so one fragment can be
    shared across queries.
    """

    members: Dict[Cell, np.ndarray] = field(default_factory=dict)
    noise: List[int] = field(default_factory=list)
    probes: List[Tuple[int, Cell]] = field(default_factory=list)


class FragmentCache:
    """Memoized per-cell fragments with eager cell-level invalidation."""

    def __init__(self) -> None:
        self._membership: Dict[Cell, CellFragment] = {}
        self._trust_token: object = _UNSET
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Trust binding
    # ------------------------------------------------------------------

    def begin(self, trust: object) -> None:
        """Bind a query to its trust predicate (identity-compared).

        Entries computed under a different predicate are unusable —
        they may have decided against cells this predicate does not
        trust, or probed where it would decide — so a switch flushes
        everything.  Single engines always pass ``None`` and shard
        backends one stable predicate object, so in practice a flush
        only happens when one clusterer serves both roles.
        """
        if trust is not self._trust_token:
            if self._trust_token is not _UNSET:
                self.clear()
            self._trust_token = trust

    # ------------------------------------------------------------------
    # Membership fragments
    # ------------------------------------------------------------------

    def lookup_membership(self, cell: Cell) -> Optional[CellFragment]:
        """Cached fragment of a fully-queried cell (counts hit/miss)."""
        frag = self._membership.get(cell)
        if frag is None:
            self.misses += 1
        else:
            self.hits += 1
        return frag

    def store_membership(self, cell: Cell, fragment: CellFragment) -> None:
        self._membership[cell] = fragment

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self._membership

    def invalidate(self, cells: Iterable[Cell]) -> None:
        """Drop the fragments of ``cells``: ``ring2`` around the mutated
        cells (see the module docstring)."""
        dropped = 0
        membership = self._membership
        for cell in cells:
            if membership.pop(cell, None) is not None:
                dropped += 1
        self.invalidations += dropped

    def clear(self) -> None:
        """Drop every entry (a trust switch or an ownership flip)."""
        self.invalidations += len(self._membership)
        self._membership.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> FragmentCacheStats:
        """Immutable snapshot of the cumulative counters."""
        return FragmentCacheStats(
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FragmentCache(membership={len(self._membership)}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"invalidations={self.invalidations})"
        )
