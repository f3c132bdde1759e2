"""Dense real kernels: Pfaffians, determinants, orthogonal exponentials
of antisymmetric matrices and block rotations.

The exponential of an antisymmetric A = 4 h takes a closed form at order
4 (so(4) = su(2) + su(2)) and a Taylor polynomial of degree 20 at every
other order, evaluated by Paterson-Stockmeyer in powers of A^4: seven
matrix products, no linear solve.  A is normal and A^4 symmetric, so
||A||_2 <= ||A^4||_1^(1/4), which A^4, already formed, gives in O(m^2);
A is scaled by 2^-s until that bound is at most 1.5, where the Taylor
remainder is below the unit roundoff, and the polynomial is squared s
times.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack


@dataclass(frozen=True)
class Tolerances:
    antisymmetry: float = 1e-12
    orthogonality: float = 1e-10
    orthogonality_polish: float = 1e-12
    probability: float = 1e-8
    expectation_imag: float = 1e-9
    covariance_entry: float = 1e-9  # |gamma_jk| <= 1 + this
    restricted_imag: float = 1e-8  # Heisenberg-sum expectations


TOL = Tolerances()


class NotAntisymmetric(ValueError):
    pass


def antisymmetry_defect(a: np.ndarray) -> float:
    """max |a_ij + a_ji| over one square float matrix; NaN if an entry is
    NaN."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotAntisymmetric(f"expected one square matrix, got shape {a.shape}")
    return float(np.abs(a + a.T).max(initial=0.0))


def check_antisymmetric(a: np.ndarray) -> np.ndarray:
    """a as an exactly antisymmetric float array, the one rule for a
    matrix that enters the program: a defect max |a_ij + a_ji| above
    TOL.antisymmetry, or NaN, is refused; a nonzero one within it is
    repaired to (a - a^T) / 2; a itself is returned when it is 0."""
    a = np.asarray(a, dtype=float)
    dev = antisymmetry_defect(a)
    if not dev <= TOL.antisymmetry:
        raise NotAntisymmetric(f"max |a_ij + a_ji| = {dev:.3e} > {TOL.antisymmetry:.1e}")
    return 0.5 * (a - a.T) if dev else a


def slog_pfaffian(a: np.ndarray) -> tuple:
    """(sign, log|Pf|) from one Householder tridiagonalization, LAPACK
    dgehrd (Wimmer, arXiv:1102.3440), of a square float matrix a that must
    be exactly antisymmetric, as check_antisymmetric makes it: a is handed
    to dgehrd unscanned and uncopied, and a defect gives a wrong answer.

    a = Q T Q^T with T tridiagonal antisymmetric and Q a product of
    elementary reflectors, each of determinant -1 unless trivial (tau = 0),
    so Pf(a) = det(Q) Pf(T) = (-1)^{#nonzero tau} prod_i T[2i, 2i+1]; the
    log of that product cannot overflow.

    Returns (1.0, 0.0) for the empty 0x0 matrix and (0.0, -inf) for odd
    order or a zero factor T[2i, 2i+1].
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected one square matrix, got shape {a.shape}")
    m = a.shape[0]
    if m % 2 == 1:
        return 0.0, -math.inf
    if m == 0:
        return 1.0, 0.0
    t, tau, info = scipy.linalg.lapack.dgehrd(a)
    if info != 0:
        raise ValueError(f"dgehrd failed with info={info}")
    factors = t.diagonal(1)[::2].tolist()
    if not all(factors):
        return 0.0, -math.inf
    flips = np.count_nonzero(tau) + sum(f < 0.0 for f in factors)
    return -1.0 if flips % 2 else 1.0, math.fsum(map(math.log, map(abs, factors)))


def log_abs_det_half(a: np.ndarray) -> float:
    """log|det(a / 2)| from one LAPACK LU, dgetrf, of the square float
    matrix a.  An F-contiguous a, such as the transpose of a C-contiguous
    matrix (det a^T = det a), is factored in place and overwritten.

    The sum runs over log|u_ii / 2| on the diagonal of U.  Halving is
    exact, so this is the LU of a / 2 with the same pivots, and the log
    neither overflows nor cancels an m ln 2 term.  The sum is the log of
    the product of the pivots, halved by m exact binary shifts, when no
    partial product can leave the normal floats: with b = max(1, max
    |u_ii|), each lies between |product| / b^m and b^m.  Otherwise the
    logs are summed one by one.  Returns 0.0 for the empty 0x0 matrix
    without a LAPACK call (dgetrf refuses order 0), and -inf for an
    exactly zero pivot (info > 0).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected one square matrix, got shape {a.shape}")
    m = a.shape[0]
    if m == 0:
        return 0.0
    lu, _, info = scipy.linalg.lapack.dgetrf(a, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dgetrf refused argument {-info}")
    if info > 0:
        return -math.inf
    pivots = lu.diagonal()
    values = pivots.tolist()
    # b^m < 2^bound, and |product| >= 2^(its frexp exponent - 1)
    bound = m * max(math.frexp(max(map(abs, values)))[1], 0)
    product = abs(math.prod(values))
    if (
        product
        and bound < sys.float_info.max_exp
        and math.frexp(product)[1] - bound - m >= sys.float_info.min_exp
    ):
        return math.log(math.ldexp(product, -m))
    return float(np.log(np.abs(0.5 * pivots)).sum())


def pfaffian(a: np.ndarray) -> float:
    """Pfaffian as sign * exp(log|Pf|) from slog_pfaffian, under its
    precondition: a exactly antisymmetric, unscanned.  Order 2 is in
    closed form, Pf = a_01, the factor slog_pfaffian reads there.

    Returns 0.0 for odd dimension; Pf of the empty 0x0 matrix is 1.
    Raises ValueError when the value is not a finite float.
    """
    if a.shape == (2, 2):
        value = float(a[0, 1])
        if not math.isfinite(value):
            raise ValueError(f"Pfaffian is not a finite float: {value}")
        return value
    sign, log = slog_pfaffian(a)
    try:
        value = sign * math.exp(log)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"Pfaffian is not a finite float: log|Pf| = {log:.6g}")
    return value


def _so4_units() -> np.ndarray:
    """I, then the self-dual units J1..J3, then I, then the anti-self-dual
    units K1..K3, as an (8, 4, 4) array.  Each J and K squares to -I, and
    every J commutes with every K."""
    units = np.zeros((8, 4, 4))
    units[0] = units[4] = np.eye(4)
    pairs = (((0, 1), (2, 3)), ((0, 2), (3, 1)), ((0, 3), (1, 2)))
    for k, (first, second) in enumerate(pairs):
        for unit, sign in ((units[1 + k], 1.0), (units[5 + k], -1.0)):
            unit[first], unit[first[::-1]] = 1.0, -1.0
            unit[second], unit[second[::-1]] = sign, -sign
    return units


_SO4 = _so4_units()
# flat a @ _SO4_COORDS = the coordinates of a on J1..J3, K1..K3 (|J|_F^2 = 4)
_SO4_COORDS = np.concatenate([_SO4[1:4], _SO4[5:8]]).reshape(6, 16).T / 4.0
# row 4i + j: the flat product (unit i of the J set) (unit j of the K set)
_SO4_PRODUCTS = np.einsum("iab,jbc->ijac", _SO4[:4], _SO4[4:]).reshape(16, 16)


def _expm_so4(a: np.ndarray) -> np.ndarray:
    """exp(a) for an (L, 4, 4) stack of antisymmetric a, in closed form.

    so(4) = su(2) + su(2): a = a+ + a-, with a+ = p . J self-dual and
    a- = q . K anti-self-dual.  The parts commute and a+^2 = -|p|^2 I, so
        exp(a) = (cos|p| I + sin|p|/|p| a+) (cos|q| I + sin|q|/|q| a-),
    a product of two unit quaternions, expanded on the table of J_i K_j.
    """
    count = a.shape[0]
    coords = (a.reshape(count, 16) @ _SO4_COORDS).reshape(count, 2, 3)
    theta = np.sqrt(np.einsum("lki,lki->lk", coords, coords))
    # sin(theta) / theta from the same theta as the cosine, so that each
    # quaternion has unit norm to rounding; 1 at theta = 0
    ratio = np.divide(np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0)
    quat = np.empty((count, 2, 4))
    quat[..., 0] = np.cos(theta)
    quat[..., 1:] = ratio[..., None] * coords
    outer = quat[:, 0, :, None] * quat[:, 1, None, :]
    return (outer.reshape(count, 16) @ _SO4_PRODUCTS).reshape(count, 4, 4)


# Taylor degree 20 = 4 * 5: the terms c_k A^k, c_k = 1/k!, fall in five
# chunks of four, sum_j c_{4k+j} A^j (j = 0..3), plus c_20 A^4.  Up to
# ||A||_2 = _TAYLOR_THETA the remainder, at most theta^21 / 21! /
# (1 - theta / 22) = 1.05e-16, is below the unit roundoff 2^-53.
_TAYLOR_THETA = 1.5
_TAYLOR_COEFFS = np.array([1.0 / math.factorial(k) for k in range(21)])
_TAYLOR_CHUNKS = _TAYLOR_COEFFS[:20].reshape(5, 4)


def _expm_taylor(a: np.ndarray) -> np.ndarray:
    """exp(a) for an (L, m, m) stack of antisymmetric a, with one scaling
    s for the whole stack, the least with ||A^4||_1^(1/4) / 2^s <=
    _TAYLOR_THETA: the Taylor polynomial of A = a / 2^s, evaluated as
        B_0 + A^4 (B_1 + A^4 (B_2 + A^4 (B_3 + A^4 (B_4 + c_20 A^4)))),
    B_k the chunks of _TAYLOR_CHUNKS, squared s times."""
    m = a.shape[-1]
    powers = np.empty((3,) + a.shape)  # A, A^2, A^3, each scaled
    a2 = np.matmul(a, a, out=powers[1])
    a4 = a2 @ a2
    bound = float(np.max(np.abs(a4).sum(axis=-2), initial=0.0)) ** 0.25
    s = math.ceil(math.log2(bound / _TAYLOR_THETA)) if bound > _TAYLOR_THETA else 0
    np.multiply(a, 2.0**-s, out=powers[0])
    a2 *= 4.0**-s
    a4 *= 16.0**-s
    np.matmul(powers[0], a2, out=powers[2])
    # the chunks less their constant terms, which go on the diagonal
    chunks = np.tensordot(_TAYLOR_CHUNKS[:, 1:], powers, axes=1)
    r = _TAYLOR_COEFFS[20] * a4
    for k in reversed(range(5)):
        if k < 4:
            r = a4 @ r
        r += chunks[k]
        r.reshape(-1, m * m)[:, :: m + 1] += _TAYLOR_CHUNKS[k, 0]
    for _ in range(s):
        r = r @ r
    return r


def expm_antisymmetric(h: np.ndarray) -> np.ndarray:
    """R = exp(4 h) for antisymmetric h, one (m, m) matrix or an (L, m, m)
    stack, in h's shape; each R is polished to orthogonal.  The factor 4
    takes the generator h of exp(-i H), H = i sum_jk h_jk c_j c_k, to its
    Majorana rotation.

    Order 4 takes the closed form of _expm_so4, every other order the
    scaled Taylor polynomial of _expm_taylor.  A generator whose size
    times its order and the machine epsilon exceeds the rotation tolerance
    is refused: the rounding error of its exponential would exceed that
    tolerance.
    """
    h = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite entries in generator")
    h = 4.0 * h
    m = h.shape[-1]
    size = float(np.max(np.abs(h), initial=0.0))
    if size * m * np.finfo(float).eps > TOL.orthogonality:
        raise ValueError(
            f"generator too large: max |4 h| = {size:.3e} at order {m}; "
            "its exponential would be inaccurate or non-finite"
        )
    stack = h if h.ndim == 3 else h[None]
    r = _expm_so4(stack) if m == 4 else _expm_taylor(stack)
    if not np.all(np.isfinite(r)):
        raise ValueError("non-finite entries in the exponential")
    drifted = _orthogonality_defect(r) > TOL.orthogonality_polish
    if np.any(drifted):
        # project to the nearest orthogonal matrix
        u, _, vt = np.linalg.svd(r[drifted])
        r[drifted] = u @ vt
    return r if h.ndim == 3 else r[0]


def rotate_rows(a: np.ndarray, blocks) -> np.ndarray:
    """a <- R_L ... R_1 a in place and returned, for the blocks
    (offset, R_i) in application order: R_i rotates rows offset ..
    offset + len(R_i) - 1 and fixes the others."""
    for offset, r in blocks:
        rows = slice(offset, offset + r.shape[0])
        a[rows] = r @ a[rows]
    return a


def _orthogonality_defect(r: np.ndarray) -> np.ndarray:
    """max |R R^T - I| of one matrix, or of each matrix of a stack."""
    dev = r @ np.swapaxes(r, -1, -2) - np.eye(r.shape[-2])
    return np.max(np.abs(dev), axis=(-2, -1), initial=0.0)


def check_rotation(r: np.ndarray) -> np.ndarray:
    """r as a float array, one (m, m) matrix or an (L, m, m) stack, if
    every matrix is orthogonal to within TOL.orthogonality."""
    r = np.asarray(r, dtype=float)
    dev = np.max(_orthogonality_defect(r), initial=0.0)
    if not dev <= TOL.orthogonality:
        raise ValueError(f"not orthogonal: ||R R^T - I|| = {dev:.3e}")
    return r
