"""The kernel implementations: numpy, cache-blocked where it pays.

Every hot numeric primitive of the engine — the bulk update paths, the
emptiness stores, the batched queries and the shard merge — lives
here, checked against the brute-force difference formula
(``tests/test_kernels.py``).

Exactness: ``ball_counts`` / ``any_within`` use the BLAS identity
``|x - y|^2 = |x|^2 + |y|^2 - 2 x.y`` for speed and re-verify pairs in
the cancellation band with the exact difference formula, so membership
decisions equal scalar ``sq_dist`` comparisons bit-for-bit.
``distance_matrix`` / ``count_within`` / ``find_within_many`` use the
exact formula throughout.

Blocking: the pair kernels (``distance_matrix`` / ``ball_counts`` /
``any_within``) tile both operands into ~L2-sized blocks
(:data:`CACHE_BLOCK_BYTES`) and run one untiled tile body per block
pair.  Streaming chunks of ``a`` against *all* of ``b`` would evict
every ``b`` row from cache between chunks on wide neighborhoods; a
tile keeps one ``b`` block hot across a whole stripe of ``a``.  Tiling
changes no output: every element and every decision is computed by the
same formula whatever the tile shape.  The other kernels chunk their
intermediates to at most
:func:`repro.kernels.interface.max_block_entries` float64 entries
(~64MB), which also caps every tile.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import interface
from repro.kernels.interface import CellBuckets

#: Relative slack of the fast BLAS distance identity.  The identity
#: ``|x - y|^2 = |x|^2 + |y|^2 - 2 x.y`` suffers cancellation of order
#: ``u * (|x|^2 + |y|^2)`` (u = 2^-52); pairs whose fast distance lands
#: within this slack of the threshold are re-verified with the exact
#: difference formula, so the decisions below are bit-identical to
#: ``sq_dist`` comparisons.
BAND = 1e-9


def fast_sq_dists(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Approximate squared distances via BLAS plus the per-pair slack."""
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = np.einsum("ij,ij->i", b, b)
    scale = a2[:, None] + b2[None, :]
    d2 = scale - 2.0 * (a @ b.T)
    return d2, BAND * (scale + 1.0)


def exact_within(point: np.ndarray, others: np.ndarray, sq_radius: float) -> np.ndarray:
    """Exact membership recheck of one point against candidate rows."""
    diff = point[None, :] - others
    return np.einsum("ij,ij->i", diff, diff) <= sq_radius


#: Tile cap (bytes of one float64 distance block) of the pair kernels,
#: sized to stay L2-resident.  Patchable; read at call time.  The
#: global :data:`repro.kernels.interface.MAX_BLOCK_BYTES` cap still
#: bounds every tile.
CACHE_BLOCK_BYTES = 4 * 1024 * 1024


def _tile_shape(m: int) -> Tuple[int, int]:
    """(a_rows, b_rows) per tile: near-square, capped by the tile budget."""
    entries = max(1, min(CACHE_BLOCK_BYTES, interface.MAX_BLOCK_BYTES) // 8)
    b_rows = max(1, min(m, int(entries**0.5) * 2))
    a_rows = max(1, entries // b_rows)
    return a_rows, b_rows


def distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact squared distances between every row pair (see interface).

    The returned ``(n, m)`` matrix is the caller's memory to budget; the
    tiling below caps the *intermediate* difference tensor, which is
    ``dim`` times larger than its slice of the output.
    """
    n, m = len(a), len(b)
    out = np.empty((n, m), dtype=float)
    if n == 0 or m == 0:
        return out
    a_rows, b_rows = _tile_shape(m)
    a_rows = max(1, a_rows // a.shape[1])  # difference tensor is dim x larger
    for a0 in range(0, n, a_rows):
        block = a[a0 : a0 + a_rows, None, :]
        for b0 in range(0, m, b_rows):
            diff = block - b[None, b0 : b0 + b_rows, :]
            out[a0 : a0 + a_rows, b0 : b0 + b_rows] = np.einsum(
                "ijk,ijk->ij", diff, diff
            )
    return out


def ball_counts_block(block: np.ndarray, b: np.ndarray, sq_radius: float) -> np.ndarray:
    """One tile of :func:`ball_counts`: per-row counts of ``block`` in ``b``."""
    d2, tol = fast_sq_dists(block, b)
    counts = (d2 < sq_radius - tol).sum(axis=1)
    border = np.abs(d2 - sq_radius) <= tol
    for row in np.nonzero(border.any(axis=1))[0].tolist():
        candidates = b[border[row]]
        counts[row] += int(exact_within(block[row], candidates, sq_radius).sum())
    return counts


def ball_counts(a: np.ndarray, b: np.ndarray, sq_radius: float) -> np.ndarray:
    """For each row of ``a``, how many rows of ``b`` lie within the ball.

    Counts accumulate over ``b`` tiles; each tile makes exact decisions
    via the band recheck, so the per-row sums do not depend on the tile
    shape (integer addition is associative).
    """
    n = len(a)
    counts = np.zeros(n, dtype=np.int64)
    if n == 0 or len(b) == 0:
        return counts
    a_rows, b_rows = _tile_shape(len(b))
    for a0 in range(0, n, a_rows):
        block = a[a0 : a0 + a_rows]
        for b0 in range(0, len(b), b_rows):
            counts[a0 : a0 + a_rows] += ball_counts_block(
                block, b[b0 : b0 + b_rows], sq_radius
            )
    return counts


def any_within_block(block: np.ndarray, b: np.ndarray, sq_radius: float) -> bool:
    """One tile of :func:`any_within`."""
    d2, tol = fast_sq_dists(block, b)
    if (d2 < sq_radius - tol).any():
        return True
    border = np.abs(d2 - sq_radius) <= tol
    for row in np.nonzero(border.any(axis=1))[0].tolist():
        if exact_within(block[row], b[border[row]], sq_radius).any():
            return True
    return False


def any_within(a: np.ndarray, b: np.ndarray, sq_radius: float) -> bool:
    """Whether any pair ``(a[i], b[j])`` lies within the ball.

    Same exactness guarantee (and tiling) as :func:`ball_counts`.  A
    small probe block runs first: in dense regimes adjacent cells almost
    always hold a witness among the first few rows, so the common case
    never materializes the full matrix.
    """
    if len(a) == 0 or len(b) == 0:
        return False
    a_rows, b_rows = _tile_shape(len(b))
    probe = min(32, len(a))
    for b0 in range(0, len(b), b_rows):
        if any_within_block(a[:probe], b[b0 : b0 + b_rows], sq_radius):
            return True
    for a0 in range(probe, len(a), a_rows):
        block = a[a0 : a0 + a_rows]
        for b0 in range(0, len(b), b_rows):
            if any_within_block(block, b[b0 : b0 + b_rows], sq_radius):
                return True
    return False


def count_within(q: Sequence[float], pts: np.ndarray, sq_radius: float) -> int:
    """How many rows of ``pts`` lie within the ball around ``q`` (exact)."""
    if len(pts) == 0:
        return 0
    q_arr = np.asarray(q, dtype=float)
    chunk = max(1, interface.max_block_entries() // max(1, pts.shape[1]))
    total = 0
    for start in range(0, len(pts), chunk):
        diff = pts[start : start + chunk] - q_arr[None, :]
        total += int((np.einsum("ij,ij->i", diff, diff) <= sq_radius).sum())
    return total


def find_within_many(
    qs: np.ndarray,
    ids: Sequence[int],
    pts: np.ndarray,
    sq_radius: float,
) -> List[Optional[int]]:
    """For each query row, some id of ``pts`` within the ball, else ``None``.

    Distances use the exact difference formula (the vectorized twin of
    ``sq_dist``, summing coordinates in the same order), so membership
    decisions are bit-identical to scalar comparisons.  Proofs are the
    lowest-index match, which makes the output deterministic, and come
    back as Python ints whether ``ids`` is a sequence or an array.
    """
    out: List[Optional[int]] = [None] * len(qs)
    if len(qs) == 0 or len(ids) == 0:
        return out
    id_arr = np.asarray(ids, dtype=np.int64)
    per_row = len(id_arr) * qs.shape[1]
    chunk = max(1, interface.max_block_entries() // per_row)
    for start in range(0, len(qs), chunk):
        block = qs[start : start + chunk]
        diff = block[:, None, :] - pts[None, :, :]
        hit = np.einsum("ijk,ijk->ij", diff, diff) <= sq_radius
        found = hit.any(axis=1).tolist()
        proofs = id_arr[hit.argmax(axis=1)].tolist()
        for row, (ok, proof) in enumerate(zip(found, proofs), start):
            if ok:
                out[row] = proof
    return out


def pack_cell_keys(cells: np.ndarray) -> Optional[np.ndarray]:
    """Row-major monotone packing of int64 cell rows into scalar keys.

    Returns ``None`` when the bounding-box span product would not fit in
    an int64 (astronomically spread coordinates) — callers must then
    fall back to row-wise grouping.  The packing is monotone in the
    lexicographic cell order, which is what lets grouping sorts run on a
    flat int64 array.
    """
    lo = cells.min(axis=0)
    # Span and its product are computed in Python ints: an int64
    # subtraction could wrap on astronomically spread coordinates and
    # defeat the very overflow guard below.
    span_py = [
        int(hi_c) - int(lo_c) + 1
        for lo_c, hi_c in zip(lo.tolist(), cells.max(axis=0).tolist())
    ]
    prod = 1
    for s in span_py:
        prod *= s
    if prod >= 2**62:
        return None
    span = np.asarray(span_py, dtype=np.int64)
    strides = np.ones(len(span), dtype=np.int64)
    for i in range(len(span) - 2, -1, -1):
        strides[i] = strides[i + 1] * span[i + 1]
    return ((cells - lo) * strides).sum(axis=1)


def bucket_by_cell(arr: np.ndarray, side: float) -> CellBuckets:
    """Group batch indices by grid cell via vectorized flooring.

    Returns the CSR form ``(cells, offsets, order)``: distinct cells in
    lexicographic order (the deterministic replay order), bucket
    bounds, and the row indices sorted stably by cell, so indices are
    ascending within each cell.  The flooring matches
    :meth:`repro.core.grid.Grid.cell_of` exactly, including on negative
    coordinates.  Key packing routes through the dispatched
    ``pack_cell_keys`` kernel.
    """
    dim = arr.shape[1] if arr.ndim == 2 else 0
    if len(arr) == 0:
        return CellBuckets(
            np.empty((0, dim), dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    from repro.kernels import registry  # late: avoid import cycle

    cells = np.floor(arr / side).astype(np.int64)
    keys = registry.get_kernel("pack_cell_keys")(cells)
    if keys is None:  # astronomically spread coordinates: row-wise fallback
        _, inverse = np.unique(cells, axis=0, return_inverse=True)
        keys = inverse.ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    n = len(order)
    starts = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    offsets = np.empty(len(starts) + 2, dtype=np.int64)
    offsets[0] = 0
    offsets[1:-1] = starts
    offsets[-1] = n
    return CellBuckets(cells[order[offsets[:-1]]], offsets, order)


def box_sq_dists(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from each row to an axis-parallel box.

    Vectorized :func:`repro.geometry.points.box_min_sq_dist` — a lower
    bound on the distance to any point inside the box, used to prune
    rows that can never witness a ball predicate against that box.
    """
    d = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    return np.einsum("ij,ij->i", d, d)


def cell_gap_sq_dists(deltas: np.ndarray, side: float) -> np.ndarray:
    """Squared boundary gap of cells offset by integer rows ``deltas``.

    Matches :meth:`repro.core.grid.Grid.cell_min_sq_dist` on every row:
    per dimension the boundary gap is ``max(|delta| - 1, 0) * side``.
    """
    gaps = np.maximum(np.abs(deltas) - 1, 0) * side
    return (gaps * gaps).sum(axis=1)

