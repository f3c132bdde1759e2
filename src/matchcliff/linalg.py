"""Dense real kernels: Pfaffians, orthogonal exponentials of
antisymmetric matrices and block rotations."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class Tolerances:
    antisymmetry: float = 1e-12
    orthogonality: float = 1e-10
    orthogonality_polish: float = 1e-12
    purity: float = 1e-8
    probability: float = 1e-8
    expectation_imag: float = 1e-9
    covariance_entry: float = 1e-9  # |gamma_jk| <= 1 + this
    coefficient_imag: float = 1e-12  # quadratic Hamiltonian coefficients
    restricted_imag: float = 1e-8  # Heisenberg-sum expectations


TOL = Tolerances()


class NotAntisymmetric(ValueError):
    pass


def check_antisymmetric(a: np.ndarray, tol: float = TOL.antisymmetry) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotAntisymmetric(f"expected square matrix, got shape {a.shape}")
    dev = np.max(np.abs(a + a.T)) if a.size else 0.0
    if not dev <= tol:
        raise NotAntisymmetric(f"max |a_ij + a_ji| = {dev:.3e} > {tol:.1e}")
    return a


def slog_pfaffian(a: np.ndarray, tol: float = TOL.antisymmetry) -> tuple:
    """(sign, log|Pf|) via Parlett-Reid tridiagonalization with partial
    pivoting; the log of the pivot product cannot overflow.

    Returns (1.0, 0.0) for the empty 0x0 matrix and (0.0, -inf) for odd
    order or a zero pivot.
    """
    a = check_antisymmetric(a, tol)
    a = 0.5 * (a - a.T)  # exact antisymmetry for the pivoted updates
    m = a.shape[0]
    if m % 2 == 1:
        return 0.0, -math.inf
    sign, log = 1.0, 0.0
    for k in range(0, m - 1, 2):
        # pivot the largest entry of column k below the diagonal into row k+1
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            sign = -sign
        pivot = float(a[k, k + 1])
        if pivot == 0.0:
            return 0.0, -math.inf
        if pivot < 0.0:
            sign = -sign
        log += math.log(abs(pivot))
        if k + 2 < m:
            tau = a[k, k + 2 :] / pivot
            col = a[k + 2 :, k + 1]
            a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return sign, log


def pfaffian(a: np.ndarray, tol: float = TOL.antisymmetry) -> float:
    """Pfaffian as sign * exp(log|Pf|) from slog_pfaffian.

    Returns 0.0 for odd dimension; Pf of the empty 0x0 matrix is 1.
    Raises ValueError when the value is not a finite float.
    """
    sign, log = slog_pfaffian(a, tol)
    try:
        value = sign * math.exp(log)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"Pfaffian is not a finite float: log|Pf| = {log:.6g}")
    return value


def expm_antisymmetric(
    h: np.ndarray, scale: float = 4.0, tol: Tolerances = TOL
) -> np.ndarray:
    """R = exp(scale * h) for antisymmetric h; R is polished to orthogonal."""
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite entries in generator")
    h = check_antisymmetric(h, tol.antisymmetry)
    r = scipy.linalg.expm(scale * h)
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite entries in the exponential")
    drift = np.max(np.abs(r @ r.T - np.eye(r.shape[0]))) if r.size else 0.0
    if drift > tol.orthogonality_polish:
        # project to the nearest orthogonal matrix
        u, _, vt = np.linalg.svd(r)
        r = u @ vt
    return r


def rotate_rows(a: np.ndarray, blocks) -> np.ndarray:
    """a <- R_L ... R_1 a in place and returned, for the blocks
    (offset, R_i) in application order: R_i rotates rows offset ..
    offset + len(R_i) - 1 and fixes the others."""
    for offset, r in blocks:
        rows = slice(offset, offset + r.shape[0])
        a[rows] = r @ a[rows]
    return a


def check_rotation(r: np.ndarray, tol: float = TOL.orthogonality) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    m = r.shape[0]
    dev = np.max(np.abs(r @ r.T - np.eye(m))) if r.size else 0.0
    if not dev <= tol:
        raise ValueError(f"not orthogonal: ||R R^T - I|| = {dev:.3e}")
    return r
