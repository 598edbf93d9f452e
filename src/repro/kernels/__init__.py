"""``repro.kernels`` — the pluggable compute-kernel backend layer.

Every hot numeric primitive in the repo (distance matrices, ball
counts, witness searches, cell bucketing/key packing) lives behind this
package's small typed interface; nothing outside ``repro.kernels``
performs distance-matrix or cell-packing math.  The module-level
functions below are thin dispatchers into the active backend's kernel
table, so swapping backends never touches the algorithms:

* ``numpy`` — the reference backend, a pure code-motion of the
  original implementations (BLAS identity + exact band recheck);
* ``accel`` — numba-jit exact loops when numba is importable, else
  cache-blocked numpy tiles; provides only the kernels it accelerates
  and falls back per kernel to the reference for the rest;
* ``auto`` (default) — ``accel``.

Selection, in increasing precedence: the ``REPRO_BACKEND`` environment
variable (read once at import), :func:`use_backend` from code, and the
``--backend`` CLI flag of ``python -m repro`` (which simply calls
:func:`use_backend`).  All backends are bit-identical on every kernel:
counts, booleans and proof ids are discrete decisions made from exact
distances, and ``distance_matrix`` uses the same axis-ordered exact
formula everywhere (``tests/test_kernels.py`` sweeps the grid).

See :mod:`repro.kernels.interface` for the kernel contracts and the
~64MB :data:`~repro.kernels.interface.MAX_BLOCK_BYTES` intermediate cap.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.kernels import accel, numpy_backend, registry
from repro.kernels.interface import KERNEL_NAMES, MAX_BLOCK_BYTES, Backend, Cell
from repro.kernels.registry import (
    ActiveBackend,
    active_backend,
    available_backends,
    backend_summary,
    register_backend,
    use_backend,
)

__all__ = [
    "KERNEL_NAMES",
    "MAX_BLOCK_BYTES",
    "Backend",
    "Cell",
    "ActiveBackend",
    "active_backend",
    "active_backend_name",
    "available_backends",
    "backend_summary",
    "register_backend",
    "use_backend",
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
]

register_backend(numpy_backend.BACKEND, reference=True)
register_backend(accel.BACKEND, preferred=True)

#: The selection ``REPRO_BACKEND`` asked for (None when unset): the one
#: read of the variable, applied here at import.
ENV_BACKEND = os.environ.get("REPRO_BACKEND") or None
try:
    use_backend(ENV_BACKEND or registry.AUTO)
except ValueError as exc:
    raise ConfigError(
        f"REPRO_BACKEND={ENV_BACKEND!r} is not a valid kernel backend: {exc}"
    ) from None


def active_backend_name() -> str:
    """The resolved name of the live backend (``numpy`` or ``accel``)."""
    return active_backend().resolved


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


def bucket_by_cell(arr: np.ndarray, side: float) -> List[Tuple[Cell, np.ndarray]]:
    """Group rows by grid cell: lexicographic cells, ascending indices."""
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
# Shared validation (not a dispatched kernel — no math to accelerate)
# ----------------------------------------------------------------------


def as_point_array(points: Sequence[Sequence[float]], dim: int) -> np.ndarray:
    """Validate a batch of points and return it as an ``(n, dim)`` array.

    Rejects ragged/object inputs, wrong trailing dimensions and
    non-finite coordinates with a clear ``ValueError`` *before* any
    kernel runs, so malformed batches never surface as numpy broadcast
    errors deep in a backend.
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
