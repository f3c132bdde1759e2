"""Covariance-matrix representation of fermionic Gaussian states.

gamma_jk = -(i/2) <[c_j, c_k]> over the 2n+2 chain-form Majoranas of
n+1 qubits: an ancilla qubit at physical position 0, then logical qubit
i at physical qubit i+1.  The ancilla lets linear Majorana terms act as
quadratic ones (Jozsa-Miyake, arXiv:0804.4050; Bravyi,
quant-ph/0404180), so every input, a basis state among them, is a
product state that evolve takes by its Bloch vectors, and parity-breaking
observables are read by the same Pfaffians as the others.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import linalg
from .encodings import MajoranaMap
from .linalg import TOL
from .pauli import PauliString


class FrameworkError(ValueError):
    pass


class InternalConsistencyError(AssertionError):
    """A value violated a bound that only a sign/convention bug can break."""


# a query bit, as the int it stands for; any other value is refused
_BITS = {0: 0, 1: 1}


@dataclass(frozen=True)
class MarginalQuery:
    qubits: tuple
    bits: tuple

    def __post_init__(self):
        try:
            bits = tuple(map(_BITS.__getitem__, self.bits))
        except KeyError:
            raise ValueError(f"query bits must be 0 or 1, got {self.bits!r}") from None
        try:
            qubits = tuple(map(operator.index, self.qubits))
        except TypeError:
            raise ValueError(f"query qubits must be integers, got {self.qubits!r}") from None
        if len(qubits) != len(bits):
            raise ValueError("qubits and bits differ in length")
        if len(set(qubits)) != len(qubits):
            raise ValueError("repeated query qubit")
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class CovarianceMatrix:
    """A covariance, exactly antisymmetric: gamma == -gamma^T bit for bit,
    so no query scans it.  The constructor applies
    linalg.check_antisymmetric, whose repair of a defect within
    TOL.antisymmetry only a hand-built gamma needs."""

    # (2n+2, 2n+2), the ancilla pair first; kept as a read-only copy, so
    # the caller's array stays writeable
    gamma: np.ndarray
    n: int  # logical qubit count

    def __post_init__(self):
        g = linalg.check_antisymmetric(np.array(self.gamma, dtype=float))
        m = 2 * self.n + 2
        if g.shape != (m, m):
            raise FrameworkError(f"gamma shape {g.shape} does not fit {self.n} qubits")
        if not np.max(np.abs(g)) <= 1.0 + TOL.covariance_entry:
            raise InternalConsistencyError("covariance entries outside [-1, 1]")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)


def evolve(inp, s) -> CovarianceMatrix:
    """S gamma S^T for an input descriptor, gamma fixed by its qubits' Bloch
    vectors (x, y, z) (`inp.bloch()`), and a rotation S of the Majoranas,
    orthogonal to within TOL.orthogonality, that fixes Majorana 0.

    gamma = U - U^T with U its strict upper triangle (_upper_triangle), so
    S gamma S^T = Y - Y^T, exactly antisymmetric, with Y = S U S^T.  When
    every x and y is 0, as a basis input's are, U holds only the pairs
    U[2a, 2a+1] = z_a, z = (prod of all z, z_1, ..., z_n), and Y =
    (S[:, 0::2] z) S[:, 1::2]^T: half the work of one GEMM, after O(n)."""
    s = linalg.check_rotation(s)
    m = 2 * inp.n + 2
    if s.shape != (m, m):
        raise FrameworkError(f"body operator shape {s.shape} does not fit {inp.n} qubits")
    e0 = np.eye(1, m)[0]
    if not max(np.max(np.abs(s[0] - e0)), np.max(np.abs(s[:, 0] - e0))) <= TOL.orthogonality:
        raise FrameworkError("the body operator must leave Majorana 0 fixed")
    bloch = inp.bloch()
    if bloch[:, :2].any():
        y = s @ _upper_triangle(bloch) @ s.T
    else:
        z = np.concatenate([[np.prod(bloch[:, 2])], bloch[:, 2]])
        y = (s[:, 0::2] * z) @ s[:, 1::2].T
    return CovarianceMatrix(y - y.T, inp.n)


def _upper_triangle(bloch) -> np.ndarray:
    """U, the strict upper triangle of the product state's covariance
    gamma = U - U^T, from the Bloch rows (x, y, z), with the ancilla a site
    before the logical qubits, (x, y, z) = (1, 0, prod of all z).  For
    sites a < b, with P the product of z over the sites strictly between,
        gamma[2a, 2b] = -y_a P x_b      gamma[2a, 2b+1] = -y_a P y_b
        gamma[2a+1, 2b] = x_a P x_b     gamma[2a+1, 2b+1] = x_a P y_b
    and gamma[2a, 2a+1] = z_a.  Majorana 0 pairs with the parity: for
    logical qubit j, with A the product of z over the qubits after j,
        gamma[0, 2j+2] = -y_j A         gamma[0, 2j+3] = x_j A.
    Every product is cumulative, never a quotient: z = 0 at theta = pi/2."""
    n = len(bloch)
    x, y, z = np.concatenate([[[1.0, 0.0, np.prod(bloch[:, 2])]], bloch]).T
    later = np.less.outer(np.arange(n + 1), np.arange(n + 1))  # a < b
    # between[a, b] = prod of z_l over a < l < b, zero unless a < b
    run = np.cumprod(np.where(later, z[None, :], 1.0), axis=1)
    between = np.zeros((n + 1, n + 1))
    between[:, 1:] = run[:, :-1]
    between *= later
    u = np.zeros((2 * n + 2, 2 * n + 2))
    u[0::2, 0::2] = -np.outer(y, x) * between
    u[0::2, 1::2] = -np.outer(y, y) * between + np.diag(z)
    u[1::2, 0::2] = np.outer(x, x) * between
    u[1::2, 1::2] = np.outer(x, y) * between
    after = np.ones(n)
    after[:-1] = np.cumprod(z[:0:-1])[::-1][1:]
    u[0, 2::2] = -y[1:] * after
    u[0, 3::2] = x[1:] * after
    return u


@functools.lru_cache(maxsize=64)
def chain_map(n: int) -> MajoranaMap:
    """The map of n-qubit Paulis p to the covariance's Majoranas, those of
    embed_l12(p), in closed form and the same for every free circuit of
    size n."""
    return MajoranaMap(n, ancilla=True)


def pauli_expectation(
    c: CovarianceMatrix, p: PauliString, majoranas: MajoranaMap | None = None
) -> float:
    """<p> on the Gaussian state, exact via Wick's theorem.

    majoranas maps p to i^phase c_I over the covariance's Majoranas, a
    compiled circuit's pull-back through its Clifford included; by
    default chain_map(n), embed_l12(p), a product of an even number
    2k of Majoranas.  (-i)^k <c_I> = Pf(Gamma_I), so
    <p> = i^(phase + k) Pf(Gamma_I).  Gamma_I is a gather of the exactly
    antisymmetric gamma, so it meets the Pfaffian's precondition.
    """
    if majoranas is None:
        if p.n != c.n:
            raise ValueError("length mismatch")
        majoranas = chain_map(c.n)
    indices, phase = majoranas(p)
    if not p.is_hermitian():
        raise ValueError("expectation of a non-Hermitian string")
    sub = c.gamma.take(indices, axis=0).take(indices, axis=1)
    val = 1j ** ((phase + len(indices) // 2) % 4) * linalg.pfaffian(sub)
    if not abs(val.imag) <= TOL.expectation_imag:
        raise InternalConsistencyError(
            f"expectation has imaginary residue {val.imag:.3e}"
        )
    return float(val.real)


# (-1)^bit, the sign of an outcome in its qubit projector (1 + s Z)/2
_OUTCOME_SIGNS = np.array([1.0, -1.0])


@functools.lru_cache(maxsize=64)
def majorana_pairs(n: int) -> np.ndarray:
    """Read-only (n, 2) table whose row q is the Majorana pair
    (2q + 2, 2q + 3) with Z_q = -i c_{2q+2} c_{2q+3}."""
    pairs = np.arange(2, 2 * n + 2, dtype=np.intp).reshape(n, 2)
    pairs.flags.writeable = False
    return pairs


def marginal_probability(c: CovarianceMatrix, q: MarginalQuery) -> float:
    """Probability of reading the given bits on the given logical qubits,
    qubit q at its Majorana pair (2q + 2, 2q + 3).

    Expanding the product of qubit projectors (1 + s_i Z_i)/2 by Wick's
    theorem resums into 2^{-k} (prod s_i) Pf(Gamma_S + D), with D the
    block-diagonal antisymmetric matrix of the outcome signs
    s_i = (-1)^{bit}.  A probability is non-negative and Pf^2 = det, so
    it equals sqrt|det((Gamma_S + D) / 2)|, computed in the log domain,
    which neither overflows nor cancels a k ln 2 term.  Its error is
    absolute, about 1e-16: a probability below about 1e-15 is rounding
    noise, not a zero, and an exact 0.0 comes only from an exactly zero
    pivot.

    One query costs one gather of Gamma_S, by two takes, and one in-place
    LAPACK LU (linalg.log_abs_det_half) of its transpose with the signs added;
    the halving is folded into the LU's diagonal.  Gamma_S + D is not
    scanned for antisymmetry: Gamma_S is exactly antisymmetric, and
    adding s to an entry and subtracting it from its mirror keeps it so.
    """
    qubits = q.qubits
    if qubits and not (min(qubits) >= 0 and max(qubits) < c.n):
        raise IndexError(f"query qubits {qubits} out of range")
    idx = majorana_pairs(c.n).take(qubits, axis=0).ravel()
    sub = c.gamma.take(idx, axis=0).take(idx, axis=1)
    signs = _OUTCOME_SIGNS.take(q.bits)
    # D on the flat view: (2i, 2i+1) sits at i (4k+2) + 1, (2i+1, 2i) at
    # i (4k+2) + 2k
    k = len(qubits)
    flat = sub.reshape(-1)
    flat[1 :: 4 * k + 2] += signs
    flat[2 * k :: 4 * k + 2] -= signs
    prob = math.exp(0.5 * linalg.log_abs_det_half(sub.T))
    if not -TOL.probability <= prob <= 1.0 + TOL.probability:
        raise InternalConsistencyError(f"probability {prob} outside [0, 1]")
    return float(min(max(prob, 0.0), 1.0))
