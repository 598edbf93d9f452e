"""The grid of Section 4.1: cells of side eps/sqrt(d) and eps-closeness.

Any two points in the same cell are within ``eps`` of each other.  Two cells
are *close* when the minimum distance between their boundaries is at most
the closeness threshold.  We use a single threshold of ``(1 + rho) * eps``
everywhere (edge candidates and core-status rechecks): every pair of points
the relaxed definitions can relate lies within it, so one neighbor set per
cell serves both uses.  With ``rho = 0`` this is the paper's plain
eps-closeness.

Neighbor discovery supports two strategies (ablated in the benchmarks):

* ``"offsets"`` — precompute all integer offset vectors whose cells can be
  close (O((2 sqrt(d) + 3)^d) once, via numpy), then probe the registry;
* ``"scan"`` — iterate the registry of non-empty cells and test closeness
  directly (better when cells are few but d is large).

``"auto"`` picks per call based on the current registry size.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.kernels import cell_gap_sq_dists

Cell = Tuple[int, ...]

_STRATEGIES = ("auto", "offsets", "scan")


class Grid:
    """Geometry of the cell grid plus neighbor-offset machinery."""

    def __init__(
        self, eps: float, dim: int, rho: float = 0.0, strategy: str = "auto"
    ) -> None:
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if dim < 1:
            raise ConfigError(f"dimension must be >= 1, got {dim}")
        if rho < 0:
            raise ConfigError(f"rho must be non-negative, got {rho}")
        if strategy not in _STRATEGIES:
            raise ConfigError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
        self.eps = eps
        self.dim = dim
        self.rho = rho
        self.strategy = strategy
        self.side = eps / math.sqrt(dim)
        self.threshold = (1.0 + rho) * eps
        self._sq_threshold = self.threshold * self.threshold
        self._offsets: Optional[List[Cell]] = None

    def cell_of(self, point: Sequence[float]) -> Cell:
        """Cell coordinates covering ``point``."""
        side = self.side
        return tuple(int(math.floor(x / side)) for x in point)

    def cell_min_sq_dist(self, a: Cell, b: Cell) -> float:
        """Squared distance between the closest boundary points of two cells."""
        side = self.side
        total = 0.0
        for ai, bi in zip(a, b):
            gap = abs(ai - bi) - 1
            if gap > 0:
                g = gap * side
                total += g * g
        return total

    def cells_close(self, a: Cell, b: Cell) -> bool:
        """Whether two cells are within the closeness threshold."""
        return self.cell_min_sq_dist(a, b) <= self._sq_threshold

    @property
    def offsets(self) -> List[Cell]:
        """Non-zero offset vectors to all potentially-close cells."""
        if self._offsets is None:
            self._offsets = self._compute_offsets()
        return self._offsets

    def _compute_offsets(self) -> List[Cell]:
        reach = int(math.ceil(self.threshold / self.side)) + 1
        axis = np.arange(-reach, reach + 1)
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        deltas = np.stack([g.ravel() for g in grids], axis=1)
        mask = cell_gap_sq_dists(deltas, self.side) <= self._sq_threshold
        mask &= np.any(deltas != 0, axis=1)
        return [tuple(int(x) for x in row) for row in deltas[mask]]

    def neighbors_of(self, cell: Cell, registry: Dict[Cell, object]) -> List[Cell]:
        """Existing registry cells close to ``cell`` (excluding itself)."""
        strategy = self.strategy
        if strategy == "auto":
            # Probing the offset table costs one dict lookup per offset; the
            # scan costs one closeness test per registered cell.  Pick the
            # smaller side, but only pay for building the offset table when
            # it is small enough to ever win.
            offset_count = (2 * int(math.ceil(self.threshold / self.side)) + 3) ** self.dim
            strategy = "offsets" if offset_count <= max(4096, 4 * len(registry)) else "scan"
        if strategy == "offsets":
            found = []
            for delta in self.offsets:
                other = tuple(c + d for c, d in zip(cell, delta))
                if other in registry:
                    found.append(other)
            return found
        return [
            other
            for other in registry
            if other != cell and self.cells_close(cell, other)
        ]

    def cell_box(self, cell: Cell) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """The axis-parallel box covered by ``cell``."""
        side = self.side
        lo = tuple(c * side for c in cell)
        hi = tuple((c + 1) * side for c in cell)
        return lo, hi

    def bounding_cells(self, points: Iterable[Sequence[float]]) -> List[Cell]:
        """Distinct cells covering the given points (helper for tests)."""
        return sorted({self.cell_of(p) for p in points})
