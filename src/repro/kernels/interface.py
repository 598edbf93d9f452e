"""The kernel interface: names, contracts, and the block cap.

A *kernel* is one of the hot numeric primitives every clusterer, index
and query engine in the repo bottoms out in.  Each kernel has a fixed
array-level signature and an exactness contract (below); the
implementations live in :mod:`repro.kernels.numpy_backend`, and the
dispatch table (:mod:`repro.kernels.registry`) maps each name to one.

Kernel contracts
----------------

``distance_matrix(a, b) -> (n, m) float64``
    Exact squared Euclidean distances via the difference formula —
    the same axis-ordered vectorized sum per element, whatever the
    blocking.

``ball_counts(a, b, sq_radius) -> (n,) int64``
    For each row of ``a``, how many rows of ``b`` lie within the ball.
    The implementation may use fast approximate identities internally
    (e.g. the BLAS expansion) but every membership *decision* must equal
    the exact difference formula bit-for-bit.

``any_within(a, b, sq_radius) -> bool``
    Whether any pair ``(a[i], b[j])`` lies within the ball.  Same
    exactness guarantee as ``ball_counts``.

``count_within(q, pts, sq_radius) -> int``
    Scalar-query form: how many rows of ``pts`` lie within the ball
    around the single point ``q``.  Exact.

``find_within_many(qs, ids, pts, sq_radius) -> list[Optional[int]]``
    For each query row, ``ids[j]`` (as a Python int) of some row
    ``pts[j]`` within the ball, else ``None``; ``ids`` is a sequence or
    an int64 array.  Proofs are the lowest-index match
    (deterministic); membership decisions are exact.

``bucket_by_cell(arr, side) -> CellBuckets(cells, offsets, order)``
    Group point rows by grid cell via vectorized flooring, in CSR form:
    ``cells`` is the ``(k, dim)`` int64 array of the distinct cells in
    lexicographic order, ``offsets`` the ``(k + 1,)`` int64 bucket
    bounds, and ``order`` the ``(n,)`` int64 row indices sorted stably
    by cell, so ``order[offsets[i]:offsets[i + 1]]`` are the rows of
    ``cells[i]``, ascending.  The flooring equals
    :meth:`repro.core.grid.Grid.cell_of` on every row, negative
    coordinates included.  Empty input gives ``k = 0`` and
    ``offsets == [0]``.

``pack_cell_keys(cells) -> Optional[(n,) int64]``
    Row-major monotone packing of integer cell rows into flat scalar
    keys (``None`` when the bounding-box span would overflow int64).

``box_sq_dists(pts, lo, hi) -> (n,) float64``
    Squared distance from each row to an axis-parallel box (zero
    inside).

``cell_gap_sq_dists(deltas, side) -> (n,) float64``
    Squared boundary-to-boundary distance of grid cells offset by the
    integer rows ``deltas`` from a reference cell, for cells of the
    given side.

Memory cap
----------

``MAX_BLOCK_BYTES`` caps the largest intermediate array any kernel may
materialize (distance-matrix chunks, difference tensors): ~64MB by
default, so a 50k x 50k neighborhood never allocation-spikes.  Kernels
consult it *at call time* so tests (and operators) can shrink it.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

Cell = Tuple[int, ...]


class CellBuckets(NamedTuple):
    """The CSR result of ``bucket_by_cell`` (see the contract above)."""

    cells: np.ndarray
    offsets: np.ndarray
    order: np.ndarray

#: Every kernel the dispatch layer exposes, in a stable order.
KERNEL_NAMES = (
    "distance_matrix",
    "ball_counts",
    "any_within",
    "count_within",
    "find_within_many",
    "bucket_by_cell",
    "pack_cell_keys",
    "box_sq_dists",
    "cell_gap_sq_dists",
)

#: Cap on the bytes of any single intermediate array a kernel
#: materializes (float64 entries).  Patchable; read at call time.
MAX_BLOCK_BYTES = 64 * 1024 * 1024


def max_block_entries() -> int:
    """Largest float64 entry count a kernel block may materialize."""
    return max(1, MAX_BLOCK_BYTES // 8)

