"""Deterministic cell-ownership topology of a sharded deployment.

Cells are grouped into axis-aligned *blocks* of ``block`` cells per
axis; each block is owned by exactly one shard, chosen by a
deterministic integer hash of the block coordinates (splitmix64 mixed
per axis — pure arithmetic, so every process, machine and run agrees
without relying on ``PYTHONHASHSEED``).  Batch-level cell dedup routes
through :func:`repro.kernels.pack_cell_keys`, the same monotone packing
the bucketing kernel uses.

Beyond ownership the topology answers the *replication* question: which
shards must see a point so that every shard computes exact core status
for the cells it owns.  A point influences counts only within the grid
closeness reach (``reach`` cells per axis, the Chebyshev radius of the
close-cell neighborhood, derived with the grid's own arithmetic so the
two can never disagree); a point is therefore replicated to every shard
owning a block that intersects the reach box around its cell.  Owned
cells see their full neighborhoods, making owned core status — and the
emptiness structures over owned core sets — authoritative; everything a
shard knows about *foreign* (halo) cells is advisory and is re-decided
at the router's boundary merge.

On top of the pure hash sits a **versioned ownership table**: a sparse
map of per-block overrides plus a monotonically increasing version.
:meth:`assign_block` migrates one block to an explicit shard and bumps
the version; the router stamps the version into every routed
data-plane call and workers reject mismatches with
:class:`repro.errors.StaleOwnershipError`, so a live ``rebalance`` is
an atomic flip — transfer the block's influence set, then broadcast
the new table — with drift caught at the call boundary instead of
corrupting a merge.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.grid import Cell, Grid
from repro.errors import ConfigError, StaleOwnershipError
from repro.kernels import pack_cell_keys, sorted_unique

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_M2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (wrapping arithmetic)."""
    x = (x + _SPLITMIX_GAMMA) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x ^= x >> np.uint64(30)
    x *= _SPLITMIX_M1
    x ^= x >> np.uint64(27)
    x *= _SPLITMIX_M2
    x ^= x >> np.uint64(31)
    return x


def _hash_rows(rows: np.ndarray) -> np.ndarray:
    """Order-sensitive per-axis splitmix64 chain over integer rows."""
    h = np.zeros(len(rows), dtype=np.uint64)
    for axis in range(rows.shape[1]):
        h = _splitmix64(h ^ rows[:, axis].astype(np.int64).view(np.uint64))
    return h


class ShardTopology:
    """Pure cell-to-shard geometry shared by router and shard backends.

    Construction is cheap and deterministic from ``(grid params,
    shard_count, block)`` alone, so the router and every worker process
    build identical topologies independently — nothing about ownership
    ever crosses a process boundary.
    """

    def __init__(
        self, eps: float, dim: int, rho: float, shard_count: int, block: int
    ) -> None:
        self.shard_count = shard_count
        self.block = block
        self.grid = Grid(eps, dim, rho)
        self.dim = dim
        # Chebyshev radius of the close-cell neighborhood, derived with
        # the exact arithmetic of Grid.cell_min_sq_dist: the largest
        # per-axis offset whose boundary gap stays within the closeness
        # threshold.  Cells farther than `reach` on any axis can never
        # be close, so the reach box bounds every cross-cell influence
        # (ball counts, emptiness probes, GUM witnesses).
        side = self.grid.side
        sq_threshold = self.grid.threshold * self.grid.threshold
        gap = 0
        while True:
            g = (gap + 1) * side
            if g * g > sq_threshold:
                break
            gap += 1
        self.reach = gap + 1
        # Versioned ownership table: the hash decides every block not
        # explicitly overridden; rebalancing installs overrides and
        # bumps the version.  Version 0 with no overrides is the pure
        # hash every process derives independently.
        self.version = 0
        self._overrides: Dict[Cell, int] = {}
        self._owner_cache: Dict[Cell, int] = {}
        self._block_owner_cache: Dict[Cell, int] = {}
        self._replica_cache: Dict[Cell, Tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # Ownership
    # ------------------------------------------------------------------

    def _owners_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        owners = (
            _hash_rows(blocks) % np.uint64(self.shard_count)
        ).astype(np.int64)
        for block, shard in self._overrides.items():
            mask = np.all(
                blocks == np.asarray(block, dtype=np.int64), axis=1
            )
            if mask.any():
                owners[mask] = shard
        return owners

    @property
    def ownership_overrides(self) -> Dict[Cell, int]:
        """A copy of the table's explicit block→shard overrides."""
        return dict(self._overrides)

    def check_version(self, version) -> None:
        """Reject a routed call stamped with a non-current table version."""
        if version is not None and int(version) != self.version:
            raise StaleOwnershipError(
                f"ownership table is at version {self.version} but the "
                f"call was routed under version {int(version)}; the "
                f"router and this shard disagree about block ownership"
            )

    def assign_block(self, block: Cell, shard_index: int) -> int:
        """Migrate one block to an explicit owner; returns the new version.

        Pure table surgery — transferring the block's points is the
        router's job (see ``ShardRouter.rebalance``).  Assigning a
        block back to its hash owner still records an override: the
        version must move forward so every party re-syncs.
        """
        if not (0 <= shard_index < self.shard_count):
            raise ConfigError(
                f"cannot assign block {block!r} to shard {shard_index}: "
                f"deployment has {self.shard_count} shards"
            )
        if len(block) != self.dim:
            raise ConfigError(
                f"block {block!r} has {len(block)} axes; topology is "
                f"{self.dim}-dimensional"
            )
        overrides = dict(self._overrides)
        overrides[tuple(int(b) for b in block)] = int(shard_index)
        self.apply_ownership(self.version + 1, overrides)
        return self.version

    def apply_ownership(
        self, version: int, overrides: Mapping[Cell, int]
    ) -> None:
        """Install a complete ownership table (worker-side flip).

        Replaces the override map wholesale and drops every derived
        cache; the version may only move forward (equal is a no-op
        replay of the current table, smaller is a stale flip).
        """
        version = int(version)
        if version < self.version:
            raise StaleOwnershipError(
                f"refusing to move the ownership table backwards: at "
                f"version {self.version}, asked to install {version}"
            )
        self._overrides = {
            tuple(int(b) for b in block): int(shard)
            for block, shard in overrides.items()
        }
        self.version = version
        self._owner_cache.clear()
        self._block_owner_cache.clear()
        self._replica_cache.clear()

    def owner_of_block(self, block: Cell) -> int:
        owner = self._block_owner_cache.get(block)
        if owner is None:
            row = np.asarray([block], dtype=np.int64)
            owner = int(self._owners_of_blocks(row)[0])
            self._block_owner_cache[block] = owner
        return owner

    def block_of(self, cell: Cell) -> Cell:
        """The ownership block covering a cell (floor division per axis)."""
        b = self.block
        return tuple(c // b for c in cell)

    def owner_of_cell(self, cell: Cell) -> int:
        """The shard owning a cell (authoritative for its core status)."""
        owner = self._owner_cache.get(cell)
        if owner is None:
            owner = self._owner_cache[cell] = self.owner_of_block(
                self.block_of(cell)
            )
        return owner

    def owners_of_cells(self, cells: np.ndarray) -> np.ndarray:
        """Vectorized owner shard per cell row (``(n, dim)`` int array).

        Cell rows are deduplicated through the monotone
        :func:`pack_cell_keys` packing before hashing, so a batch
        concentrated in few cells pays for few hashes.
        """
        if len(cells) == 0:
            return np.empty(0, dtype=np.int64)
        keys = pack_cell_keys(cells)
        if keys is None:  # astronomically spread cells: hash every row
            return self._owners_of_blocks(cells // self.block)
        _, first_idx, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        owners = self._owners_of_blocks(cells[first_idx] // self.block)
        return owners[inverse.ravel()]

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def replica_shards(self, cell: Cell) -> Tuple[int, ...]:
        """Every shard that must hold the points of ``cell`` (sorted).

        The owners of all blocks intersecting the closeness-reach box
        around the cell: the owner itself plus the shards for which the
        cell is halo — their owned cells' exact ball counts (and the
        router's boundary merge) need its points.
        """
        shards = self._replica_cache.get(cell)
        if shards is None:
            r, b = self.reach, self.block
            axis_blocks: List[List[int]] = [
                list(range((c - r) // b, (c + r) // b + 1)) for c in cell
            ]
            span = 1
            for axis in axis_blocks:
                span *= len(axis)
            if span == 1:
                shards = (self.owner_of_block(tuple(a[0] for a in axis_blocks)),)
            else:
                # One vectorized hash over the whole candidate-block box
                # (small blocks at high dimension make the box large).
                grids = np.meshgrid(
                    *[np.asarray(a, dtype=np.int64) for a in axis_blocks],
                    indexing="ij",
                )
                rows = np.stack([g.ravel() for g in grids], axis=1)
                owners = self._owners_of_blocks(rows)
                shards = tuple(sorted_unique(owners).tolist())
            self._replica_cache[cell] = shards
        return shards

    def trust(self, shard_index: int):
        """The ownership predicate one shard resolves under."""
        owner_of_cell = self.owner_of_cell
        return lambda cell: owner_of_cell(cell) == shard_index
