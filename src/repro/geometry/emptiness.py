"""The rho-approximate epsilon-emptiness structure of Section 4.2.

One instance guards the *core points* of a single grid cell.  Its
``empty(q)`` query implements the paper's contract:

* returns a **proof point id** (a core point within ``(1+rho) * eps`` of
  ``q``) whenever the cell contains a core point within ``eps`` of ``q``;
* returns ``None`` whenever no core point lies within ``(1+rho) * eps``;
* may do either in between (the "don't care" band).

With ``rho = 0`` the structure is exact, which is how the framework captures
exact DBSCAN.

A cell has side ``eps / sqrt(d)``, so it holds few points, and the paper
needs nothing from it but the emptiness answer.  The structure is a flat
store: one growable float64 coordinate array and one int64 id array.
Appends go to the end; deletions fill the vacated rows with the last
live rows.  Both queries are exact scans
at the relaxed radius ``(1+rho) * eps`` through the ``find_within_many``
kernel — a legal instantiation of the contract — and the proof is the
lowest matching row, so answers are deterministic.

The ``pid -> row`` map that deletions and membership tests need is built
on first use: insert-only callers (the semi-dynamic clusterer) never pay
for it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.errors import ConfigError, InvalidQueryError
from repro.geometry.points import Point

#: Rows allocated for a fresh structure (grown by doubling).
_INITIAL_CAPACITY = 8


class EmptinessStructure:
    """Dynamic approximate emptiness queries over one cell's core points."""

    __slots__ = (
        "dim", "eps", "rho", "_sq_eps", "_sq_relaxed", "_ids", "_coords",
        "_n", "_row",
    )

    def __init__(self, dim: int, eps: float, rho: float) -> None:
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if rho < 0:
            raise ConfigError(f"rho must be non-negative, got {rho}")
        self.dim = dim
        self.eps = eps
        self.rho = rho
        self._sq_eps = eps * eps
        relaxed = eps * (1.0 + rho)
        self._sq_relaxed = relaxed * relaxed
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._coords = np.empty((_INITIAL_CAPACITY, dim), dtype=float)
        self._n = 0
        self._row: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Contents
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __contains__(self, pid: int) -> bool:
        return pid in self._rows()

    def ids(self) -> List[int]:
        """Stored ids in row order (a fresh list)."""
        return self._ids[: self._n].tolist()

    def point(self, pid: int) -> Point:
        """Coordinates of a stored point."""
        return tuple(self._coords[self._rows()[pid]].tolist())

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, coords)`` of the stored points in row order.

        Views into the store: valid until the next update.
        """
        n = self._n
        return self._ids[:n], self._coords[:n]

    def _rows(self) -> Dict[int, int]:
        """The ``pid -> row`` map, built on first use and kept after."""
        if self._row is None:
            self._row = dict(
                zip(self._ids[: self._n].tolist(), range(self._n))
            )
        return self._row

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, pid: int, point: Sequence[float]) -> None:
        """Add a point under a fresh id."""
        self.insert_many((pid,), (point,))

    def insert_many(
        self, pids: Sequence[int], coords: Sequence[Sequence[float]]
    ) -> None:
        """Append a batch: ``pids`` (an int64 array or a sequence) with
        ``coords`` row for row (a float64 ``(n, dim)`` array or rows).

        Ids must be fresh; that is checked once the id map exists (after
        the first deletion or membership test).
        """
        k = len(pids)
        if k == 0:
            return
        n = self._n
        row = self._row
        if row is not None:
            new_ids = pids.tolist() if isinstance(pids, np.ndarray) else list(pids)
            if len(set(new_ids)) != k or any(pid in row for pid in new_ids):
                raise KeyError("point id already present")
            row.update(zip(new_ids, range(n, n + k)))
        if n + k > len(self._ids):
            cap = max(2 * len(self._ids), n + k)
            ids = np.empty(cap, dtype=np.int64)
            ids[:n] = self._ids[:n]
            coords_store = np.empty((cap, self.dim), dtype=float)
            coords_store[:n] = self._coords[:n]
            self._ids, self._coords = ids, coords_store
        self._ids[n : n + k] = pids
        self._coords[n : n + k] = coords
        self._n = n + k

    def delete(self, pid: int) -> None:
        """Remove a stored point by id."""
        self.delete_many((pid,))

    def delete_many(self, pids: Sequence[int]) -> None:
        """Remove a batch of stored ids.

        Vacated rows are filled with the last live rows, highest vacated
        row first, so the layout after a batch depends only on the set of
        removed ids, not on their order.
        """
        row = self._rows()
        dead = sorted((row[pid] for pid in pids), reverse=True)  # KeyError first
        if len(set(dead)) != len(dead):
            raise KeyError("duplicate point ids in delete batch")
        for pid in pids:
            del row[pid]
        ids, coords = self._ids, self._coords
        n = self._n
        for r in dead:
            n -= 1
            if r != n:
                moved = int(ids[n])
                ids[r] = moved
                coords[r] = coords[n]
                row[moved] = r
        self._n = n

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def empty(self, q: Sequence[float]) -> Optional[int]:
        """Emptiness query: proof point id, or ``None`` (see module doc)."""
        if not self._n:
            return None
        qs = np.asarray(q, dtype=float).reshape(1, self.dim)
        ids, coords = self.arrays()
        return kernels.find_within_many(qs, ids, coords, self._sq_relaxed)[0]

    def empty_many(self, qs: np.ndarray) -> List[Optional[int]]:
        """Batched emptiness: one proof id (or ``None``) per query row.

        Every answer is the one the scalar ``empty`` gives for that row.

        The query batch is validated up front: ragged/object arrays and
        wrong trailing dimensions raise a clear ``ValueError`` here
        instead of a numpy broadcast error deep inside a kernel.  A
        float64 ``(n, dim)`` array is already proof of its own
        dtype/shape and passes straight through — the batched query
        engine calls this per close core cell with arrays it built
        itself, and re-scanning them each time would tax the hot path.
        """
        if (
            isinstance(qs, np.ndarray)
            and qs.dtype == np.float64
            and qs.ndim == 2
            and qs.shape[1] == self.dim
        ):
            pass  # hot path: dtype/shape are exactly what the kernels need
        else:
            try:
                qs = kernels.as_point_array(qs, self.dim)
            except ValueError as exc:
                raise InvalidQueryError(f"empty_many query {exc}") from None
        if len(qs) == 0 or not self._n:
            return [None] * len(qs)
        ids, coords = self.arrays()
        return kernels.find_within_many(qs, ids, coords, self._sq_relaxed)
