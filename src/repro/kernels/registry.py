"""The per-kernel dispatch table.

Every dispatcher in :mod:`repro.kernels` looks its kernel up here on
each call, so a wrapper installed over :func:`get_kernel` (a tracer, a
test double) sees every kernel call, including the ones kernels make
on each other.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.kernels import numpy_backend
from repro.kernels.interface import KERNEL_NAMES

_TABLE: Dict[str, Callable] = {
    name: getattr(numpy_backend, name) for name in KERNEL_NAMES
}


def get_kernel(name: str) -> Callable:
    """The implementation of one kernel."""
    return _TABLE[name]
