"""The Table 2 parameter grid, scaled for pure Python.

The paper fixes ``N = 10M`` updates, ``MinPts = 10`` and ``rho = 0.001``
and varies the rest (defaults in bold in Table 2):

=============  ================================  =========
parameter      values                            default
=============  ================================  =========
d              2, 3, 5, 7                        3
eps            50d, 100d, 200d, 400d, 800d       100d
%ins           2/3, 4/5, 5/6, 8/9, 10/11         5/6
f_qry          0.01N ... 0.1N                    0.05N
=============  ================================  =========

We keep every ratio and constant except ``N``: pure Python cannot run 10M
updates per configuration, so benchmarks default to the sizes below and
honour the ``REPRO_BENCH_N`` environment variable for larger runs.  All
comparisons in EXPERIMENTS.md are *relative* (same N for every algorithm),
which preserves the figures' shapes.
"""

from __future__ import annotations

import os

MINPTS = 10
RHO = 0.001

DIMENSIONS = (2, 3, 5, 7)
DEFAULT_DIM = 3

EPS_PER_D = (50, 100, 200, 400, 800)
DEFAULT_EPS_PER_D = 100

INSERT_FRACTIONS = (2 / 3, 4 / 5, 5 / 6, 8 / 9, 10 / 11)
DEFAULT_INSERT_FRACTION = 5 / 6

QUERY_FREQ_FRACTIONS = (0.01, 0.02, 0.05, 0.1)
DEFAULT_QUERY_FREQ_FRACTION = 0.05

#: Default number of updates per benchmark workload (paper: 10M).
DEFAULT_BENCH_N = 5000

#: Smaller N used for the slowest baseline configurations (the paper
#: likewise terminated IncDBSCAN runs that exceeded its time budget).
SLOW_BENCH_N = 2500


def bench_n(default: int = DEFAULT_BENCH_N) -> int:
    """Benchmark workload size, overridable via ``REPRO_BENCH_N``."""
    value = os.environ.get("REPRO_BENCH_N")
    return int(value) if value else default


def eps_for(dim: int, eps_per_d: int = DEFAULT_EPS_PER_D) -> float:
    """The paper's eps parameterization: eps = (eps/d) * d."""
    return float(eps_per_d * dim)
