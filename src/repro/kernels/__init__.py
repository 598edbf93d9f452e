"""``repro.kernels`` — the compute-kernel layer.

Every hot numeric primitive in the repo (distance matrices, ball
counts, witness searches, cell bucketing/key packing) lives behind this
package's small typed interface; nothing outside ``repro.kernels``
performs distance-matrix or cell-packing math.  The module-level
functions below are thin dispatchers into the kernel table
(:mod:`repro.kernels.registry`), so the algorithms never name an
implementation.  There is one implementation per kernel,
:mod:`repro.kernels.numpy_backend`: numpy, with the BLAS identity plus
an exact band recheck for the pair decisions, and cache-blocked tiles
for the pair kernels.  Counts, booleans and proof ids are discrete
decisions made from exact distances (``tests/test_kernels.py`` checks
them against the brute-force difference formula).

See :mod:`repro.kernels.interface` for the kernel contracts and the
~64MB :data:`~repro.kernels.interface.MAX_BLOCK_BYTES` intermediate cap.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.kernels import registry
from repro.kernels.interface import (
    KERNEL_NAMES,
    MAX_BLOCK_BYTES,
    Cell,
    CellBuckets,
)

__all__ = [
    "KERNEL_NAMES",
    "MAX_BLOCK_BYTES",
    "Cell",
    "CellBuckets",
    "active_backend_name",
    "as_point_array",
    "distance_matrix",
    "ball_counts",
    "any_within",
    "count_within",
    "find_within_many",
    "bucket_by_cell",
    "pack_cell_keys",
    "box_sq_dists",
    "cell_gap_sq_dists",
    "sorted_unique",
]


def active_backend_name() -> str:
    """The name results and reports are stamped with (``numpy``)."""
    return "numpy"


# ----------------------------------------------------------------------
# Dispatchers — one per kernel, contracts in repro.kernels.interface
# ----------------------------------------------------------------------


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(n, m)`` squared Euclidean distances between row pairs."""
    return registry.get_kernel("distance_matrix")(a, b)


def ball_counts(a: np.ndarray, b: np.ndarray, sq_radius: float) -> np.ndarray:
    """For each row of ``a``, how many rows of ``b`` lie within the ball."""
    return registry.get_kernel("ball_counts")(a, b, sq_radius)


def any_within(a: np.ndarray, b: np.ndarray, sq_radius: float) -> bool:
    """Whether any pair ``(a[i], b[j])`` lies within the ball."""
    return registry.get_kernel("any_within")(a, b, sq_radius)


def count_within(q: Sequence[float], pts: np.ndarray, sq_radius: float) -> int:
    """How many rows of ``pts`` lie within the ball around point ``q``."""
    return registry.get_kernel("count_within")(q, pts, sq_radius)


def find_within_many(
    qs: np.ndarray,
    ids: Sequence[int],
    pts: np.ndarray,
    sq_radius: float,
) -> List[Optional[int]]:
    """Per query row: the lowest-index id within the ball, else ``None``."""
    return registry.get_kernel("find_within_many")(qs, ids, pts, sq_radius)


def bucket_by_cell(arr: np.ndarray, side: float) -> CellBuckets:
    """Group rows by grid cell, in CSR form: lexicographic ``cells``,
    bucket ``offsets`` and the stable cell ``order`` of the rows."""
    return registry.get_kernel("bucket_by_cell")(arr, side)


def pack_cell_keys(cells: np.ndarray) -> Optional[np.ndarray]:
    """Monotone row-major int64 keys for cell rows (None on overflow)."""
    return registry.get_kernel("pack_cell_keys")(cells)


def box_sq_dists(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from each row to an axis-parallel box."""
    return registry.get_kernel("box_sq_dists")(pts, lo, hi)


def cell_gap_sq_dists(deltas: np.ndarray, side: float) -> np.ndarray:
    """Squared boundary gap of cells offset by integer rows ``deltas``."""
    return registry.get_kernel("cell_gap_sq_dists")(deltas, side)


# ----------------------------------------------------------------------
# Shared helpers (not dispatched kernels)
# ----------------------------------------------------------------------


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending (``np.unique``).

    A sort plus an adjacent-difference mask: on integer id arrays this
    is an order of magnitude cheaper than ``np.unique``, whose hash
    path (numpy >= 2.3) dominates at every size the query paths see.
    """
    out = np.sort(values)
    if len(out) > 1:
        keep = np.empty(len(out), dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def as_point_array(points: Sequence[Sequence[float]], dim: int) -> np.ndarray:
    """Validate a batch of points and return it as an ``(n, dim)`` array.

    Rejects ragged/object inputs, wrong trailing dimensions and
    non-finite coordinates with a clear ``ValueError`` *before* any
    kernel runs, so malformed batches never surface as numpy broadcast
    errors deep in a kernel.
    """
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"batch is not a rectangular array of floats: {exc}") from exc
    if arr.size == 0:
        return np.empty((0, dim), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(
            f"batch has shape {arr.shape}, expected (n, {dim})"
        )
    if not np.isfinite(arr).all():
        raise ValueError("batch contains non-finite coordinates (nan/inf)")
    return arr
