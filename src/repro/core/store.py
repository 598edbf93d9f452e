"""The columnar point store shared by every clusterer and the shard router.

Live points are kept as three columns: an ascending int64 id column, an
``(n, dim)`` float64 coordinate array row for row, and a live mask.

* Fresh ids are assigned in ascending order (``next_id`` on), so they
  append at the end; explicit older ids (a rebalance transfer, a shard
  restoring its state) take one sorted merge.
* A delete sets a tombstone; the columns are compacted once dead rows
  outnumber live ones, so deletes cost O(1) amortized.
* A batch lookup is one ``searchsorted`` over the id column (or, while
  the column holds consecutive ids, one offset from its first id) plus
  a liveness test, and the same test names the exact dead set of a
  rejected batch.

Scalar ``point()``, ``in`` and ``len`` remain; ``point()`` costs one
binary search (or the offset) and returns the coordinates as a float tuple,
bit-identical to the stored row.  Rows past the used prefix hold the
largest int64 as their id, so a scalar search runs over the whole
column without slicing it.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.errors import UnknownPointError
from repro.geometry.points import Point
from repro.kernels import sorted_unique

#: Rows allocated for a fresh store (grown by doubling).
_INITIAL_CAPACITY = 64

#: The id of an unused row: sorts after every id a store can hold.
_PAD = np.iinfo(np.int64).max
_PAD_INT = int(_PAD)

_QUERY_REJECTED = "the query was rejected before resolving any group"
_DELETE_REJECTED = "the batch was rejected before deleting anything"


def _dead_values(values: list, store: "PointStore") -> list:
    """The values that are not live ids of ``store``, each once: dead
    integers ascending, then any non-integer values in given order."""
    ints = {v for v in values if isinstance(v, (int, np.integer))}
    dead: list = sorted(v for v in ints if v not in store)
    for v in values:
        if not isinstance(v, (int, np.integer)) and v not in dead:
            dead.append(v)
    return dead


class PointStore:
    """Live points as an ascending id column, coordinate rows and a live
    mask (see the module docstring)."""

    __slots__ = ("dim", "next_id", "_ids", "_coords", "_live", "_n", "_dead")

    def __init__(self, dim: int) -> None:
        self.dim = dim
        #: The id the next fresh point gets.
        self.next_id = 0
        self._ids = np.full(_INITIAL_CAPACITY, _PAD, dtype=np.int64)
        self._coords = np.empty((_INITIAL_CAPACITY, dim), dtype=np.float64)
        self._live = np.zeros(_INITIAL_CAPACITY, dtype=bool)
        self._n = 0  # rows in use, live or dead
        self._dead = 0

    # ------------------------------------------------------------------
    # Scalar access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n - self._dead

    def __contains__(self, pid: object) -> bool:
        return self._row(pid) >= 0

    def _row(self, pid: object) -> int:
        """Row of a live id, or -1."""
        if not isinstance(pid, (int, np.integer)) or not -_PAD_INT <= pid < _PAD_INT:
            return -1
        n, ids = self._n, self._ids
        if self._dense():
            row = int(pid) - ids.item(0)
            if not 0 <= row < n:
                return -1
        else:
            row = int(ids.searchsorted(pid))
            if row == n or ids.item(row) != pid:
                return -1
        return row if self._live.item(row) else -1

    def _dense(self) -> bool:
        """Whether the used rows hold consecutive ids (no id was ever
        skipped or compacted away in between), so that a row is its
        id's offset from the first id.  Fresh inserts and tombstoned
        deletes keep a store dense; a sliding window's compactions drop
        only its oldest rows and keep it dense too."""
        n = self._n
        return n > 0 and self._ids.item(n - 1) - self._ids.item(0) == n - 1

    def point(self, pid: int) -> Point:
        """Coordinates of a live id; a dead id raises
        :class:`repro.errors.UnknownPointError` (a ``KeyError``)."""
        row = self._row(pid)
        if row < 0:
            raise UnknownPointError(f"point id {pid} is not live")
        return tuple(self._coords[row].tolist())

    def ids(self) -> List[int]:
        """All live ids, ascending."""
        n = self._n
        ids = self._ids[:n]
        return (ids[self._live[:n]] if self._dead else ids).tolist()

    def live(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, coords)`` of every live point, ids ascending (copies)."""
        n = self._n
        if self._dead:
            keep = self._live[:n]
            return self._ids[:n][keep], self._coords[:n][keep]
        return self._ids[:n].copy(), self._coords[:n].copy()

    # ------------------------------------------------------------------
    # Batch lookup
    # ------------------------------------------------------------------

    def rows(self, pids: np.ndarray) -> np.ndarray:
        """Row of each of the int64 ids ``pids``; -1 where not live.

        One offset from the first id when the store is dense
        (:meth:`_dense`), else one ``searchsorted`` (cheapest on
        ascending ``pids``); either way each row is confirmed by its id
        and the live mask."""
        n, ids = self._n, self._ids
        if not n:
            return np.full(len(pids), -1, dtype=np.int64)
        if self._dense():
            rows = pids - ids.item(0)  # may wrap; confirmed below
            rows[(rows < 0) | (rows >= n)] = 0
        else:
            rows = ids[:n].searchsorted(pids)
            rows[rows == n] = 0
        hit = ids[rows] == pids
        hit &= self._live[rows]
        return np.where(hit, rows, -1)

    def lookup(
        self, pids: Iterable[int], delete: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)`` of a whole batch, checked before anything acts.

        ``ids`` is the batch as an int64 array, in the given order.  A
        query batch (the default) may repeat ids; a delete batch
        (``delete=True``) may not (``ValueError``).  Any id that is not
        live raises :class:`repro.errors.UnknownPointError` naming every
        dead id of the batch, so the caller is never left with a
        partially applied batch.
        """
        ids = self._as_ids(pids, delete)
        if delete and len(ids) > 1:
            ordered = np.sort(ids)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("duplicate point ids in delete_many batch")
        return ids, self._live_rows(ids, delete)

    def query(self, pids: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, coords)`` of the distinct ids of a query batch,
        ascending: the order- and multiplicity-free form the batched
        query engines resolve.  Checked like :meth:`lookup`."""
        ids = sorted_unique(self._as_ids(pids, False))
        return ids, self._coords[self._live_rows(ids, False)]

    def _as_ids(self, pids: Iterable[int], delete: bool) -> np.ndarray:
        """A batch as an int64 array; a value that is not an integer
        (so never a live id) rejects the batch (see :meth:`lookup`)."""
        if isinstance(pids, np.ndarray) and pids.dtype == np.int64:
            return pids
        values = pids if isinstance(pids, (list, tuple)) else list(pids)
        if not len(values):
            return np.empty(0, dtype=np.int64)
        try:
            ids = np.asarray(values)
        except (OverflowError, ValueError):
            ids = np.empty(0, dtype=object)
        if ids.dtype.kind == "u" and ids.max() > _PAD:
            ids = ids.astype(object)
        if ids.dtype.kind not in "iu" or ids.ndim != 1:
            # Not all plain int64 values: only integers can be live.
            dead = _dead_values(values, self)
            if dead:
                self._reject(dead, delete)
            ids = np.array([int(v) for v in values], dtype=np.int64)
        return ids.astype(np.int64, copy=False)

    def _live_rows(self, ids: np.ndarray, delete: bool) -> np.ndarray:
        """:meth:`rows` of ``ids``, rejecting the batch if any is dead."""
        rows = self.rows(ids)
        dead = rows < 0
        if dead.any():
            self._reject(np.unique(ids[dead]).tolist(), delete)
        return rows

    @staticmethod
    def _reject(dead: list, delete: bool) -> None:
        rejected = _DELETE_REJECTED if delete else _QUERY_REJECTED
        raise UnknownPointError(f"point id(s) {dead} are not live; {rejected}")

    def coords(self, rows: np.ndarray) -> np.ndarray:
        """The coordinates of store rows (from :meth:`lookup`) as a new
        ``(n, dim)`` float64 array."""
        return self._coords[rows]

    def gather(self, pids: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, coords)`` of a query batch (see :meth:`lookup`)."""
        ids, rows = self.lookup(pids)
        return ids, self._coords[rows]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def append(self, point: Point) -> int:
        """Store one validated point under the next fresh id."""
        n = self._n
        if n == len(self._ids):
            self._resize(2 * n)
        pid = self.next_id
        self._ids[n] = pid
        self._coords[n] = point
        self._live[n] = True
        self._n = n + 1
        self.next_id = pid + 1
        return pid

    def add(self, coords: np.ndarray, ids=None) -> np.ndarray:
        """Store a validated ``(k, dim)`` float64 batch; returns its ids.

        Without ``ids`` the batch takes the fresh range from
        ``next_id`` on.  Explicit ``ids`` must be strictly ascending and
        not live, but may be older than ids already held; they are
        merged into place.  A rejected batch changes nothing.
        """
        k = len(coords)
        if ids is None:
            ids = np.arange(self.next_id, self.next_id + k, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (k,):
                raise ValueError(f"got {ids.size} ids for a batch of {k} points")
            if k > 1 and not (ids[1:] > ids[:-1]).all():
                raise ValueError("batch ids must be strictly ascending")
        if not k:
            return ids
        n = self._n
        if n and ids[0] <= self._ids[n - 1]:
            live = ids[self.rows(ids) >= 0]
            if len(live):
                raise ValueError(f"point id(s) {live.tolist()} are already live")
            self._merge(ids, coords)
        else:
            if n + k > len(self._ids):
                self._resize(max(2 * len(self._ids), n + k))
            self._ids[n:n + k] = ids
            self._coords[n:n + k] = coords
            self._live[n:n + k] = True
            self._n = n + k
        self.next_id = max(self.next_id, int(ids[-1]) + 1)
        return ids

    def discard(self, rows: np.ndarray) -> None:
        """Tombstone live rows (from :meth:`lookup` with ``delete=True``)."""
        self._live[rows] = False
        self._dead += len(rows)
        if 2 * self._dead > self._n:
            self._compact()

    def pop(self, pid: int) -> Point:
        """Delete one live id; returns its coordinates (see :meth:`point`)."""
        row = self._row(pid)
        if row < 0:
            raise UnknownPointError(f"point id {pid} is not live")
        point = tuple(self._coords[row].tolist())
        self._live[row] = False
        self._dead += 1
        if 2 * self._dead > self._n:
            self._compact()
        return point

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def _merge(self, ids: np.ndarray, coords: np.ndarray) -> None:
        """Insert ascending ids (none live) at their sorted places."""
        self._compact()
        n = self._n
        at = self._ids[:n].searchsorted(ids)
        merged_ids = np.insert(self._ids[:n], at, ids)
        merged_coords = np.insert(self._coords[:n], at, coords, axis=0)
        self._n = 0
        self._resize(2 * len(merged_ids))
        m = len(merged_ids)
        self._ids[:m] = merged_ids
        self._coords[:m] = merged_coords
        self._live[:m] = True
        self._n = m

    def _compact(self) -> None:
        """Drop dead rows, keeping the live ones in id order."""
        if not self._dead:
            return
        n = self._n
        keep = np.flatnonzero(self._live[:n])
        m = len(keep)
        self._ids[:m] = self._ids[keep]
        self._coords[:m] = self._coords[keep]
        self._live[:m] = True
        self._ids[m:n] = _PAD
        self._live[m:n] = False
        self._n, self._dead = m, 0
        if len(self._ids) > 4 * max(m, _INITIAL_CAPACITY):
            self._resize(2 * max(m, _INITIAL_CAPACITY))

    def _resize(self, capacity: int) -> None:
        """Reallocate the columns to ``capacity`` rows (>= rows in use)."""
        n = self._n
        ids = np.full(capacity, _PAD, dtype=np.int64)
        ids[:n] = self._ids[:n]
        coords = np.empty((capacity, self.dim), dtype=np.float64)
        coords[:n] = self._coords[:n]
        live = np.zeros(capacity, dtype=bool)
        live[:n] = self._live[:n]
        self._ids, self._coords, self._live = ids, coords, live
