"""Dense linear-algebra helpers shared by the LP solver and the benchmark code.

Matrices are 2-D float64 numpy arrays in row-major (C) order, vectors are
1-D float64 arrays.  Every public entry point validates shapes and rejects
NaN/Inf, so downstream numerical code can assume clean inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_matrix", "as_vector", "count_nonzeros"]

SUPPORT_TOL = 1e-6  # an entry of a solution counts as nonzero above this magnitude


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_vector(x, length: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking its length."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"expected length {length}, got {v.shape[0]}")
    return v


def count_nonzeros(x) -> int:
    """Number of entries with magnitude above SUPPORT_TOL."""
    v = as_vector(x)
    return int(np.count_nonzero(np.abs(v) > SUPPORT_TOL))
