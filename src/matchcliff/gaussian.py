"""Covariance-matrix representation of fermionic Gaussian states.

gamma_jk = -(i/2) <[c_j, c_k]> over the chain-form Majoranas.  Two
frameworks: "standard" (2n Majoranas on n qubits, basis-state inputs)
and "extended" (2n+2 Majoranas on n+1 qubits; an ancilla qubit at
physical position 0 lets linear Majorana terms act as quadratic ones,
so product-state inputs and parity-breaking observables become
Gaussian-tractable).  Logical qubit i sits at physical qubit i+1 in
the extended framework.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .encodings import (
    EXTENDED,
    STANDARD,
    chain_decompose,
    decompose_pauli,  # unused here; bench/tracing.py wraps this binding
    embed_l12,
)
from .linalg import TOL, Tolerances
from .pauli import PauliString


class FrameworkError(ValueError):
    pass


class InternalConsistencyError(AssertionError):
    """A value violated a bound that only a sign/convention bug can break."""


@dataclass(frozen=True)
class MarginalQuery:
    qubits: tuple
    bits: tuple

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "bits", tuple(int(b) & 1 for b in self.bits))
        if len(self.qubits) != len(self.bits):
            raise ValueError("qubits and bits differ in length")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("repeated query qubit")


@dataclass(frozen=True)
class CovarianceMatrix:
    gamma: np.ndarray
    framework: str  # STANDARD or EXTENDED
    n: int  # logical qubit count

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        linalg.check_antisymmetric(g, TOL.antisymmetry * 10)
        m = 2 * self.n if self.framework == STANDARD else 2 * self.n + 2
        if g.shape != (m, m):
            raise FrameworkError(f"gamma shape {g.shape} does not match framework")
        if not np.max(np.abs(g)) <= 1.0 + TOL.covariance_entry:
            raise InternalConsistencyError("covariance entries outside [-1, 1]")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    def purity_defect(self) -> float:
        m = self.gamma.shape[0]
        return float(np.max(np.abs(self.gamma @ self.gamma.T - np.eye(m))))

    def check_pure(self, tol: float = TOL.purity):
        d = self.purity_defect()
        if not d <= tol:
            raise InternalConsistencyError(f"state not pure: defect {d:.3e}")


def _basis_blocks(bits) -> np.ndarray:
    m = 2 * len(bits)
    g = np.zeros((m, m))
    for i, b in enumerate(bits):
        s = 1.0 if int(b) == 0 else -1.0
        g[2 * i, 2 * i + 1] = s
        g[2 * i + 1, 2 * i] = -s
    return g


def init_covariance(inp) -> CovarianceMatrix:
    """Covariance of the input state descriptor.

    Basis inputs use the standard framework; product inputs use the
    extended one (built by product_state_covariance).
    """
    from .circuits import BasisInput, ProductInput

    if isinstance(inp, BasisInput):
        return CovarianceMatrix(_basis_blocks(inp.bits), STANDARD, inp.n)
    if isinstance(inp, ProductInput):
        return product_state_covariance(inp.angles)
    raise TypeError(f"unknown input descriptor {inp!r}")


def embed_basis_covariance(c: CovarianceMatrix) -> CovarianceMatrix:
    """Lift a standard-framework covariance into the extended framework
    (ancilla qubit prepended in |0>)."""
    if c.framework != STANDARD:
        raise FrameworkError("already extended")
    m = c.gamma.shape[0]
    g = np.zeros((m + 2, m + 2))
    g[0, 1] = 1.0
    g[1, 0] = -1.0
    g[2:, 2:] = c.gamma
    return CovarianceMatrix(g, EXTENDED, c.n)


def pauli_terms_to_h(terms, n: int) -> np.ndarray:
    """Antisymmetric 2n x 2n h with sum_k coef_k p_k = i sum_jk h_jk c_j c_k.

    Every term must be an n-qubit string that decomposes into exactly
    two chain-form Majoranas.
    """
    h = np.zeros((2 * n, 2 * n))
    for coef, p in terms:
        if p.n != n:
            raise ValueError(f"term {p} does not act on {n} qubits")
        indices, phase = chain_decompose(p)
        if len(indices) != 2:
            raise ValueError(f"term {p} is not quadratic in the chain form")
        if not np.isfinite(coef):
            raise ValueError(f"non-finite coefficient {coef} on {p}")
        a, b = indices
        val = -1j * coef * phase / 2.0
        if not abs(val.imag) <= TOL.coefficient_imag:
            raise InternalConsistencyError("non-real quadratic coefficient")
        h[a, b] += val.real
        h[b, a] -= val.real
    return h


def evolve(c: CovarianceMatrix, r: np.ndarray, tol: Tolerances = TOL) -> CovarianceMatrix:
    """gamma <- R gamma R^T for a Majorana rotation R."""
    r = linalg.check_rotation(np.asarray(r, dtype=float), tol.orthogonality)
    if r.shape[0] != c.gamma.shape[0]:
        raise FrameworkError("rotation dimension mismatch")
    if c.framework == EXTENDED:
        dev = max(
            np.max(np.abs(r[0, 1:])), np.max(np.abs(r[1:, 0])), abs(r[0, 0] - 1.0)
        )
        if not dev <= tol.orthogonality:
            raise FrameworkError(
                "extended-framework rotations must leave the first Majorana fixed"
            )
    return CovarianceMatrix(r @ c.gamma @ r.T, c.framework, c.n)


def evolve_by_terms(c: CovarianceMatrix, terms) -> CovarianceMatrix:
    """Evolve by exp(-i H) with H a sum of (coef, PauliString) terms
    quadratic in the chain form of the covariance's frame (n + 1 qubits
    in the extended framework)."""
    h = pauli_terms_to_h(terms, c.gamma.shape[0] // 2)
    return evolve(c, linalg.expm_antisymmetric(h))


def _embed_terms(terms):
    return [(coef, embed_l12(p)) for coef, p in terms]


@functools.lru_cache(maxsize=1024)
def product_state_covariance(angles) -> CovarianceMatrix:
    """Extended-framework covariance of the product state with per-qubit
    angles (theta, phi): cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    Built from the all-zeros state by Gaussian rotations alone: rotate
    logical qubit 1 into the desired local state (the linear generator
    is quadratic in the extended frame), then move it up the chain with
    fermionic-SWAP gates, farthest qubit first.
    """
    n = len(angles)
    cov = CovarianceMatrix(_basis_blocks([0] * (n + 1)), EXTENDED, n)
    fswap_coef = np.pi / 4.0
    for q in range(n - 1, -1, -1):
        theta, phi = angles[q]
        y1 = PauliString.single(n, 0, "Y")  # linear in the chain frame
        z1 = PauliString.single(n, 0, "Z")
        if theta != 0.0:
            cov = evolve(
                cov,
                linalg.expm_antisymmetric(
                    pauli_terms_to_h(_embed_terms([(theta / 2.0, y1)]), n + 1)
                ),
            )
        if phi != 0.0:
            cov = evolve(
                cov,
                linalg.expm_antisymmetric(
                    pauli_terms_to_h(_embed_terms([(phi / 2.0, z1)]), n + 1)
                ),
            )
        for j in range(q):  # fSWAP chain: logical (j, j+1)
            xx = PauliString.single(n, j, "X") * PauliString.single(n, j + 1, "X")
            yy = PauliString.single(n, j, "Y") * PauliString.single(n, j + 1, "Y")
            zj = PauliString.single(n, j, "Z")
            zj1 = PauliString.single(n, j + 1, "Z")
            terms = [
                (fswap_coef, yy),
                (fswap_coef, xx),
                (fswap_coef, zj),
                (fswap_coef, zj1),
            ]
            cov = evolve(
                cov,
                linalg.expm_antisymmetric(
                    pauli_terms_to_h(_embed_terms(terms), n + 1)
                ),
            )
    return cov


def monomial_expectation(c: CovarianceMatrix, indices) -> float:
    """(-i)^k <c_{i_1} ... c_{i_2k}> = Pf of the covariance submatrix."""
    indices = tuple(int(i) for i in indices)
    if len(indices) % 2:
        raise ValueError("odd monomials need the parity argument; rejected here")
    m = c.gamma.shape[0]
    if any(not 0 <= i < m for i in indices):
        raise IndexError("Majorana index out of range")
    if len(set(indices)) != len(indices):
        raise ValueError("repeated Majorana index")
    sub = c.gamma[np.ix_(indices, indices)]
    return linalg.pfaffian(sub)


def pauli_expectation(
    c: CovarianceMatrix, p: PauliString, tol: Tolerances = TOL
) -> float:
    """<p> on the Gaussian state, exact via Wick's theorem."""
    if p.n != c.n:
        raise ValueError("length mismatch")
    if not p.is_hermitian():
        raise ValueError("expectation of a non-Hermitian string")
    query = p if c.framework == STANDARD else embed_l12(p)
    indices, phase = chain_decompose(query)
    if len(indices) % 2:
        return 0.0  # parity superselection in the standard framework
    k = len(indices) // 2
    val = phase * (1j**k) * monomial_expectation(c, indices)
    if not abs(val.imag) <= tol.expectation_imag:
        raise InternalConsistencyError(
            f"expectation has imaginary residue {val.imag:.3e}"
        )
    return float(val.real)


def _pair_indices(c: CovarianceMatrix, qubit: int) -> tuple:
    """Majorana pair (a, a+1) with Z_qubit = -i c_a c_{a+1} in the frame."""
    if not 0 <= qubit < c.n:
        raise IndexError(f"qubit {qubit} out of range")
    if c.framework == STANDARD:
        return (2 * qubit, 2 * qubit + 1)
    return (2 * qubit + 2, 2 * qubit + 3)


def marginal_probability(
    c: CovarianceMatrix, q: MarginalQuery, tol: Tolerances = TOL
) -> float:
    """Probability of reading the given bits on the given logical qubits.

    Expanding the product of qubit projectors (1 + s_i Z_i)/2 by Wick's
    theorem resums into 2^{-k} (prod s_i) Pf(Gamma_S + D), with D the
    block-diagonal antisymmetric matrix of the outcome signs
    s_i = (-1)^{bit}.  A probability is non-negative and Pf^2 = det, so
    it equals sqrt|det((Gamma_S + D) / 2)|: one LAPACK determinant in
    the log domain, which neither overflows nor cancels a k ln 2 term.
    """
    idx = []
    for qu in q.qubits:
        idx.extend(_pair_indices(c, qu))
    sub = c.gamma[np.ix_(idx, idx)].copy()
    pairs = np.arange(0, len(idx), 2)
    signs = 1.0 - 2.0 * np.asarray(q.bits, dtype=float)
    sub[pairs, pairs + 1] += signs
    sub[pairs + 1, pairs] -= signs
    linalg.check_antisymmetric(sub)
    _, logabsdet = np.linalg.slogdet(0.5 * sub)
    prob = math.exp(0.5 * logabsdet)
    if not -tol.probability <= prob <= 1.0 + tol.probability:
        raise InternalConsistencyError(f"probability {prob} outside [0, 1]")
    return float(min(max(prob, 0.0), 1.0))
