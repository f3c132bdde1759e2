"""Small GF(2) linear algebra helpers (dense, uint8)."""
from __future__ import annotations

import numpy as np


class SingularF2Matrix(ValueError):
    pass


def _eliminate(aug: np.ndarray, cols: int) -> list:
    """Gauss-Jordan elimination of ``aug`` in place, pivoting on its first
    ``cols`` columns; returns the pivot columns in order."""
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == aug.shape[0]:
            break
        nonzero = np.flatnonzero(aug[r:, c])
        if nonzero.size == 0:
            continue
        p = r + int(nonzero[0])
        aug[[r, p]] = aug[[p, r]]
        hit = aug[:, c].astype(bool)
        hit[r] = False
        aug[hit] ^= aug[r]
        pivots.append(c)
    return pivots


def rank(a: np.ndarray) -> int:
    a = (np.asarray(a, dtype=np.uint8) & 1).copy()
    return len(_eliminate(a, a.shape[1]))


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b over GF(2); a must be square and invertible."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8) & 1
    m = a.shape[0]
    if a.shape[1] != m or b.shape[0] != m:
        raise ValueError("shape mismatch")
    aug = np.concatenate([a & 1, b.reshape(m, 1)], axis=1)
    pivots = _eliminate(aug, m)
    if len(pivots) < m:
        missing = next(c for c in range(m) if c >= len(pivots) or pivots[c] != c)
        raise SingularF2Matrix(f"no pivot in column {missing}")
    return aug[:, m]
