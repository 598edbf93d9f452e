"""The shard router: global id space, batch routing, boundary merge.

The router owns everything global about a sharded deployment:

* the **global point registry** and the contiguous global id space
  (``_next_id``), assigned in arrival order exactly like a single
  engine, with per-shard local-id translation tables on the side;
* **routing** — one :func:`repro.kernels.bucket_by_cell` pass per
  update batch, then each cell's points go to the owner shard plus its
  halo replicas (:meth:`ShardTopology.replica_shards`), preserving
  arrival order within every shard;
* the **boundary merge** — the only place cross-shard state meets.

The merge collects, in one overlapped fan-out, each shard's membership
fragments for its owned query ids and its GUM edge fragment
(:meth:`repro.core.framework.GridClusterer.gum_edge_fragment`).  Owned
core cells are disjoint and globally complete, so their union is the
global GUM vertex set; trusted edges union in directly and cross-shard
candidate pairs are settled with one exact witness test over the two
frontiers' core coordinates — the same ``(1+rho) eps`` threshold the
in-shard structures maintain.  Membership probes (a non-core point
against a foreign core cell) are settled with exact ``eps`` ball tests
against the owner's frontier.  A union-find over the merged edge set
turns per-cell fragments into clusters, canonicalized by
:func:`repro.core.framework.canonical_cgroup_result` — at ``rho = 0``
every decision involved is exact, which is why a merged result is
bit-identical to a single engine's.

Every shard response carries the shard's engine epoch; the router
checks it against the update count it routed there, so lost updates or
out-of-band writes fail loudly instead of merging stale state.

Two further concerns live here because they are inherently global:

* **Versioned routing.**  Every routed data-plane call is stamped with
  the router's ownership-table version; workers reject mismatches with
  :class:`repro.errors.StaleOwnershipError`.  :meth:`rebalance`
  migrates one ownership block online: transfer the block's influence
  set to the destination under the current version, broadcast the new
  table to every shard, then flip the router's own copy — from the
  caller's perspective one atomic ownership flip.
* **A persistent boundary-witness cache.**  The exact witness test for
  a cross-shard cell pair depends only on the two cells' frontier core
  sets, and a cell's core set can change only under a mutation within
  the grid's closeness reach of it.  The router therefore keeps witness
  outcomes across query barriers and invalidates a pair only when a
  mutation dirties a cell within reach of it — repeated ``Q = P``
  snapshots over a quiet boundary pay for each witness once (the same
  dirty-cell discipline the per-shard fragment cache applies to
  membership fragments, lifted to the merge layer).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.api.config import EngineConfig
from repro.connectivity.union_find import UnionFind
from repro.core.framework import (
    CGroupByResult,
    Clustering,
    canonical_cgroup_result,
)
from repro.core.grid import Cell, Grid
from repro.errors import ConfigError, ReproError, UnknownPointError
from repro.geometry.points import Point
from repro.kernels import any_within, as_point_array, ball_counts, bucket_by_cell
from repro.shard.topology import ShardTopology


class ShardRouter:
    """Routes updates and merges queries across per-shard engines."""

    def __init__(self, config: EngineConfig, executor) -> None:
        self.config = config
        self.executor = executor
        self.shard_count = executor.shard_count
        self.topology = ShardTopology(
            eps=config.eps,
            dim=config.dim,
            rho=config.effective_rho,
            shard_count=self.shard_count,
            block=config.resolved_shard_block,
        )
        self._grid: Grid = self.topology.grid
        eps = config.eps
        relaxed = eps * (1.0 + config.effective_rho)
        self._sq_eps = eps * eps
        self._sq_relaxed = relaxed * relaxed
        self._points: Dict[int, Point] = {}
        self._next_id = 0
        self._epoch = 0
        self._global_to_local: List[Dict[int, int]] = [
            {} for _ in range(self.shard_count)
        ]
        self._local_to_global: List[Dict[int, int]] = [
            {} for _ in range(self.shard_count)
        ]
        #: Updates routed to each shard — what its engine epoch must read.
        self._routed: List[int] = [0] * self.shard_count
        # Boundary-witness cache (see module docstring).
        self._witness_cache: Dict[Tuple[Cell, Cell], bool] = {}
        self._dirty_cells: Set[Cell] = set()
        self.merge_cache_hits = 0
        self.merge_cache_misses = 0
        self.merge_cache_invalidations = 0

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, pid: int) -> bool:
        return pid in self._points

    @property
    def epoch(self) -> int:
        return self._epoch

    def point(self, pid: int) -> Point:
        return self._points[pid]

    def ids(self) -> Iterable[int]:
        return self._points.keys()

    def owner_of(self, pid: int) -> int:
        """The shard whose engine is authoritative for this point."""
        return self.topology.owner_of_cell(self._grid.cell_of(self._points[pid]))

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert_many(self, points) -> List[int]:
        """Route one insertion batch; returns the new global ids.

        The whole batch is validated up front (shape, dimension, finite
        coordinates) before any shard sees a point, so a malformed batch
        mutates nothing anywhere — the all-or-nothing contract of the
        single engine, preserved across the fan-out.
        """
        batch = points if isinstance(points, list) else list(points)
        arr = as_point_array(batch, self.config.dim)
        if len(arr) == 0:
            return []
        tuples: List[Point] = [tuple(row) for row in arr.tolist()]
        base = self._next_id
        replica_shards = self.topology.replica_shards
        member_idxs: List[List[np.ndarray]] = [
            [] for _ in range(self.shard_count)
        ]
        for cell, idxs in bucket_by_cell(arr, self._grid.side):
            self._dirty_cells.add(cell)
            for shard in replica_shards(cell):
                member_idxs[shard].append(idxs)
        orders: List[Optional[np.ndarray]] = [None] * self.shard_count
        calls = []
        for shard, parts in enumerate(member_idxs):
            if not parts:
                calls.append(None)
                continue
            # Concatenate-and-sort restores arrival order within the
            # shard's slice — the deterministic replay order every
            # engine applies.  The slice ships as an (n, dim) float64
            # array, the declared bulk form (BULK_CALLS): the shard
            # wire streams it as one raw frame instead of n python
            # tuples.
            order = np.sort(np.concatenate(parts))
            orders[shard] = order
            calls.append(("ingest", (arr[order], self.topology.version)))
        try:
            local_ids = self.executor.map(calls)
        finally:
            # Mirror Engine.ingest: the epoch over-counts on failure
            # rather than ever under-counting.
            self._epoch += len(tuples)
        for i, pt in enumerate(tuples):
            self._points[base + i] = pt
        self._next_id = base + len(tuples)
        for shard, order in enumerate(orders):
            if order is None:
                continue
            g2l = self._global_to_local[shard]
            l2g = self._local_to_global[shard]
            # Backends reply with an int64 id array (read-only when it
            # came over the wire): normalize to python ints here,
            # where the ids enter long-lived registries.
            shard_ids = local_ids[shard].tolist()
            for i, local_pid in zip(order.tolist(), shard_ids):
                g2l[base + i] = local_pid
                l2g[local_pid] = base + i
            self._routed[shard] += len(shard_ids)
        return list(range(base, base + len(tuples)))

    def delete_many(self, pids: Iterable[int]) -> None:
        """Route one deletion batch to every replica of every id.

        Validation happens entirely at the router — duplicates and dead
        ids are rejected with the single engine's exact error types and
        messages *before* any shard is contacted, so an invalid batch is
        all-or-nothing across the whole deployment.
        """
        pid_list = [int(pid) for pid in pids]
        if not pid_list:
            return
        if len(set(pid_list)) != len(pid_list):
            raise ValueError("duplicate point ids in delete_many batch")
        dead = [pid for pid in pid_list if pid not in self._points]
        if dead:
            raise UnknownPointError(
                f"point id(s) {sorted(set(dead))} are not live; "
                f"the batch was rejected before deleting anything"
            )
        per_shard: List[List[int]] = [[] for _ in range(self.shard_count)]
        replica_shards = self.topology.replica_shards
        cell_of = self._grid.cell_of
        for pid in pid_list:
            cell = cell_of(self._points[pid])
            self._dirty_cells.add(cell)
            for shard in replica_shards(cell):
                per_shard[shard].append(pid)
        calls = []
        for shard, shard_pids in enumerate(per_shard):
            if not shard_pids:
                calls.append(None)
                continue
            g2l = self._global_to_local[shard]
            local = np.fromiter(
                (g2l[pid] for pid in shard_pids),
                dtype=np.int64,
                count=len(shard_pids),
            )
            calls.append(("delete_many", (local, self.topology.version)))
        try:
            self.executor.map(calls)
        finally:
            self._epoch += len(pid_list)
        for shard, shard_pids in enumerate(per_shard):
            g2l = self._global_to_local[shard]
            l2g = self._local_to_global[shard]
            for pid in shard_pids:
                del l2g[g2l.pop(pid)]
            self._routed[shard] += len(shard_pids)
        for pid in pid_list:
            del self._points[pid]

    # ------------------------------------------------------------------
    # Merged queries
    # ------------------------------------------------------------------

    def cgroup_by_many(self, pids: Iterable[int]) -> CGroupByResult:
        """C-group-by across shards, merged at the boundary."""
        pid_list = list(pids)
        if not pid_list:
            return CGroupByResult()
        missing = [pid for pid in pid_list if pid not in self._points]
        if missing:
            raise UnknownPointError(
                f"point id(s) {sorted(set(missing))} are not live; "
                f"the query was rejected before resolving any group"
            )
        return self._merge(sorted(set(pid_list)))

    def clusters(self) -> Clustering:
        """Full clustering of the live dataset (the ``Q = P`` query)."""
        if not self._points:
            return Clustering()
        result = self._merge(sorted(self._points))
        return Clustering(clusters=result.group_sets(), noise=set(result.noise))

    def is_core(self, pid: int) -> bool:
        """Authoritative core status, answered by the owner shard."""
        if pid not in self._points:
            raise UnknownPointError(f"point id {pid} is not live")
        shard = self.owner_of(pid)
        return self.executor.call(
            shard, "is_core", self._global_to_local[shard][pid]
        )

    def shard_stats(self) -> List:
        """Per-shard engine stats (halo replicas included in counts)."""
        return self.executor.map([("stats", ())] * self.shard_count)

    # ------------------------------------------------------------------
    # Ownership (versioned table + online rebalance)
    # ------------------------------------------------------------------

    @property
    def ownership_version(self) -> int:
        """The router's current ownership-table version."""
        return self.topology.version

    def rebalance(self, block: Cell, dest: int) -> int:
        """Migrate one ownership block to ``dest`` online; new version.

        Three steps, each leaving the deployment consistent:

        1. **Transfer.**  Every live point inside the closeness-reach
           box around the block (the block's full influence set — what
           ``dest`` needs to compute exact core status for the block's
           cells) that ``dest`` does not already hold is bulk-ingested
           there, stamped with the *current* version like any routed
           update.
        2. **Broadcast.**  The new table (version + overrides) is
           installed on every shard via the journaled ``set_ownership``
           call, so a recovered worker replays the flip in order with
           the version-stamped updates around it.
        3. **Flip.**  The router installs the same table locally; every
           subsequent call is stamped with the new version.

        The old owner keeps its now-foreign copies: stale halo data is
        advisory by construction (the trust predicate follows the new
        table immediately), so it can never leak into owned-core
        decisions or the boundary merge.  Witness cache entries are
        dropped wholesale — the flip redraws the boundary itself.
        """
        block_t = tuple(int(b) for b in block)
        if len(block_t) != self.config.dim:
            raise ConfigError(
                f"block {block!r} has {len(block_t)} axes; deployment is "
                f"{self.config.dim}-dimensional"
            )
        if not (0 <= dest < self.shard_count):
            raise ConfigError(
                f"cannot rebalance block {block_t!r} to shard {dest}: "
                f"deployment has {self.shard_count} shards"
            )
        reach, b = self.topology.reach, self.topology.block
        lo = [blk * b - reach for blk in block_t]
        hi = [(blk + 1) * b - 1 + reach for blk in block_t]
        g2l = self._global_to_local[dest]
        cell_of = self._grid.cell_of
        transfer = sorted(
            pid
            for pid, pt in self._points.items()
            if pid not in g2l
            and all(
                low <= c <= high
                for low, c, high in zip(lo, cell_of(pt), hi)
            )
        )
        if transfer:
            arr = np.array(
                [self._points[pid] for pid in transfer], dtype=np.float64
            )
            local_ids = self.executor.call(
                dest, "ingest", arr, self.topology.version
            )
            l2g = self._local_to_global[dest]
            for pid, local_pid in zip(transfer, local_ids.tolist()):
                g2l[pid] = local_pid
                l2g[local_pid] = pid
            self._routed[dest] += len(transfer)
        overrides = self.topology.ownership_overrides
        overrides[block_t] = dest
        new_version = self.topology.version + 1
        self.executor.map(
            [("set_ownership", (new_version, overrides))] * self.shard_count
        )
        self.topology.apply_ownership(new_version, overrides)
        self._witness_cache.clear()
        self._dirty_cells.clear()
        return new_version

    def _invalidate_witnesses(self) -> None:
        """Drop cached witnesses within reach of any mutated cell.

        A pair's witness depends only on the two cells' frontier core
        sets, and a cell's core set can change only under a mutation
        within the closeness reach of it — so a cached pair survives
        exactly when both its cells are farther than ``reach`` (in
        Chebyshev distance) from every dirty cell.  When the dirty set
        times the cache would make the scan itself expensive, the cache
        is simply rebuilt from scratch.
        """
        dirty, cache = self._dirty_cells, self._witness_cache
        if cache:
            if len(dirty) * len(cache) > 32768:
                self.merge_cache_invalidations += len(cache)
                cache.clear()
            else:
                reach = self.topology.reach
                touched: Dict[Cell, bool] = {}

                def near_dirty(cell: Cell) -> bool:
                    hit = touched.get(cell)
                    if hit is None:
                        hit = touched[cell] = any(
                            max(
                                abs(c - d) for c, d in zip(cell, dirty_cell)
                            )
                            <= reach
                            for dirty_cell in dirty
                        )
                    return hit

                stale = [
                    pair
                    for pair in cache
                    if near_dirty(pair[0]) or near_dirty(pair[1])
                ]
                for pair in stale:
                    del cache[pair]
                self.merge_cache_invalidations += len(stale)
        dirty.clear()

    def _merge(self, query: List[int]) -> CGroupByResult:
        """One overlapped fan-out plus the boundary merge (see module doc)."""
        per_shard: List[Optional[List[int]]] = [None] * self.shard_count
        points = self._points
        coords = np.array([points[pid] for pid in query])
        cells = np.floor(coords / self._grid.side).astype(np.int64)
        owners = self.topology.owners_of_cells(cells)
        for pid, shard in zip(query, owners.tolist()):
            if per_shard[shard] is None:
                per_shard[shard] = []
            per_shard[shard].append(self._global_to_local[shard][pid])
        responses = self.executor.map(
            [
                (
                    "merge_state",
                    (
                        None
                        if locals_ is None
                        else np.asarray(locals_, dtype=np.int64),
                        self.topology.version,
                    ),
                )
                for locals_ in per_shard
            ]
        )
        for shard, (_, _, epoch) in enumerate(responses):
            if epoch != self._routed[shard]:
                raise ReproError(
                    f"shard {shard} is at epoch {epoch} but the router "
                    f"routed {self._routed[shard]} updates to it; the "
                    f"shard was written out-of-band or lost updates — "
                    f"refusing to merge inconsistent snapshots"
                )

        # --- the global grid graph: vertices, trusted edges, boundary ---
        core_cells: Set[Cell] = set()
        frontier: Dict[Cell, np.ndarray] = {}
        for _, gum, _ in responses:
            core_cells.update(gum.core_cells)
            frontier.update(gum.frontier)
        uf = UnionFind()
        for cell in sorted(core_cells):
            uf.add(cell)
        for _, gum, _ in responses:
            for a, b in gum.edges:
                uf.union(a, b)
        cross_pairs = sorted(
            {
                (a, b) if a < b else (b, a)
                for _, gum, _ in responses
                for a, b in gum.candidates
                if b in core_cells
            }
        )
        if self._dirty_cells:
            self._invalidate_witnesses()
        for a, b in cross_pairs:
            if uf.connected(a, b):
                continue  # an extra witness cannot change any component
            witness = self._witness_cache.get((a, b))
            if witness is None:
                coords_a, coords_b = frontier.get(a), frontier.get(b)
                if coords_a is None or coords_b is None:
                    raise ReproError(
                        f"boundary merge is missing frontier core "
                        f"coordinates for cell pair {a} / {b} — shard "
                        f"fragments are inconsistent"
                    )
                witness = bool(
                    any_within(coords_a, coords_b, self._sq_relaxed)
                )
                self._witness_cache[(a, b)] = witness
                self.merge_cache_misses += 1
            else:
                self.merge_cache_hits += 1
            if witness:
                uf.union(a, b)

        # --- fragments and probes -> groups over global components ------
        groups: Dict[Hashable, Set[int]] = {}
        matched: Set[int] = set()
        probes_by_cell: Dict[Cell, List[int]] = {}
        for shard, (fragments, _, _) in enumerate(responses):
            if fragments is None:
                continue
            l2g = self._local_to_global[shard]
            for cell, local_members in fragments.fragments.items():
                members = groups.setdefault(uf.find(cell), set())
                for local_pid in local_members:
                    pid = l2g[local_pid]
                    members.add(pid)
                    matched.add(pid)
            for local_pid, cell in fragments.probes:
                if cell in core_cells:
                    probes_by_cell.setdefault(cell, []).append(l2g[local_pid])
        for cell in sorted(probes_by_cell):
            coords = frontier.get(cell)
            if coords is None:
                raise ReproError(
                    f"boundary merge is missing frontier core coordinates "
                    f"for probed cell {cell} — shard fragments are "
                    f"inconsistent"
                )
            probe_pids = sorted(set(probes_by_cell[cell]))
            q_arr = np.array([self._points[pid] for pid in probe_pids])
            hits = ball_counts(q_arr, coords, self._sq_eps) > 0
            if not hits.any():
                continue
            members = groups.setdefault(uf.find(cell), set())
            for pid, hit in zip(probe_pids, hits.tolist()):
                if hit:
                    members.add(pid)
                    matched.add(pid)
        noise = [pid for pid in query if pid not in matched]
        return canonical_cgroup_result(groups.values(), noise)
