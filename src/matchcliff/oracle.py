"""Brute-force dense-statevector reference implementation.

Ground truth for the fast engines at small qubit counts.  Qubit 0 is
the most significant bit of the amplitude index, matching the
left-to-right text order of bitstrings and Pauli strings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .pauli import PauliString

SIZE_CAP = 12
DOUBLED_CAP = 6

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
GATE_MATRICES = {"H": _H, "S": _S, "CNOT": _CNOT, "CZ": _CZ, "SWAP": _SWAP}


class SizeCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class DenseState:
    n: int
    amp: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amp, dtype=complex)
        if amp.shape != (2**self.n,):
            raise ValueError("amplitude vector has wrong length")
        nrm = np.linalg.norm(amp)
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: |psi| = {nrm}")
        amp.flags.writeable = False
        object.__setattr__(self, "amp", amp)


def _check_cap(n: int):
    if n > SIZE_CAP:
        raise SizeCapExceeded(f"n = {n} exceeds the dense cap {SIZE_CAP}")


def basis_state(n: int, bits) -> DenseState:
    _check_cap(n)
    bits = np.asarray(bits, dtype=np.uint8) & 1
    amp = np.zeros(2**n, dtype=complex)
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    amp[idx] = 1.0
    return DenseState(n, amp)


def product_state(angles) -> DenseState:
    """angles: sequence of (theta, phi); qubit i in
    cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    n = len(angles)
    _check_cap(n)
    amp = np.array([1.0 + 0j])
    for theta, phi in angles:
        local = np.array(
            [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)],
            dtype=complex,
        )
        amp = np.kron(amp, local)
    return DenseState(n, amp)


def apply_unitary(state: DenseState, u: np.ndarray, qubits) -> DenseState:
    """Apply a 2^k x 2^k unitary on the given qubits (first qubit in the
    tuple is the most significant index of u)."""
    n = state.n
    k = len(qubits)
    psi = state.amp.reshape((2,) * n)
    psi = np.moveaxis(psi, qubits, range(k))
    shape = psi.shape
    psi = u @ psi.reshape(2**k, -1)
    psi = np.moveaxis(psi.reshape(shape), range(k), qubits)
    return DenseState(n, psi.reshape(-1))


def apply_pauli(state: DenseState, p: PauliString) -> DenseState:
    if p.n != state.n:
        raise ValueError("length mismatch")
    n = state.n
    idx = np.arange(2**n)
    xmask = 0
    zmask = 0
    for j in range(n):
        bitpos = n - 1 - j
        if p.x[j]:
            xmask |= 1 << bitpos
        if p.z[j]:
            zmask |= 1 << bitpos
    # popcount of idx & zmask
    par = np.zeros(2**n, dtype=np.int64)
    t = idx & zmask
    while np.any(t):
        par ^= t & 1
        t >>= 1
    signs = 1.0 - 2.0 * par
    out = np.empty_like(state.amp)
    out[idx ^ xmask] = (1j**p.phase_exp) * signs * state.amp
    return DenseState(n, out)


def apply_clifford_gate(state: DenseState, name: str, qubits) -> DenseState:
    return apply_unitary(state, GATE_MATRICES[name], tuple(qubits))


def expectation(state: DenseState, p: PauliString) -> complex:
    return complex(np.vdot(state.amp, apply_pauli(state, p).amp))


def marginal(state: DenseState, qubits, bits) -> float:
    """Probability of measuring the given bits on the given qubits."""
    n = state.n
    probs = np.abs(state.amp) ** 2
    idx = np.arange(2**n)
    mask = np.ones(2**n, dtype=bool)
    for q, b in zip(qubits, bits):
        bitpos = n - 1 - q
        mask &= ((idx >> bitpos) & 1) == int(b)
    return float(np.sum(probs[mask]))


def postselect(state: DenseState, qubits, bits) -> tuple:
    """(renormalized post-measurement state on the remaining qubits,
    probability of the outcome)."""
    n = state.n
    psi = state.amp.reshape((2,) * n)
    sl = [slice(None)] * n
    for q, b in zip(qubits, bits):
        sl[q] = int(b)
    sub = psi[tuple(sl)].reshape(-1)
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob <= 0:
        raise ValueError("postselection on a zero-probability outcome")
    kept = [q for q in range(n) if q not in set(qubits)]
    return DenseState(len(kept), sub / np.sqrt(prob)), prob


def pauli_sum_matrix(terms, n: int) -> np.ndarray:
    """Dense matrix of sum_k coef_k * pauli_k."""
    h = np.zeros((2**n, 2**n), dtype=complex)
    for coef, p in terms:
        h += coef * p.dense()
    return h


def unitary_from_hamiltonian(terms, n: int) -> np.ndarray:
    """exp(-i H) for H given as a list of (coef, PauliString)."""
    return _unitary(pauli_sum_matrix(terms, n))


def _unitary(hmat: np.ndarray) -> np.ndarray:
    """exp(-i H) for a dense H; raises ValueError when it is not finite."""
    u = scipy.linalg.expm(-1j * hmat)
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite entries in the dense unitary")
    return u


def _matchgate_unitary(coeffs) -> np.ndarray:
    a0, a1, b1, b2, d1, d2 = coeffs
    terms = [
        (a0, PauliString.from_string("YY")),
        (a1, PauliString.from_string("XX")),
        (b1, PauliString.from_string("YX")),
        (b2, PauliString.from_string("XY")),
        (d1, PauliString.from_string("ZI")),
        (d2, PauliString.from_string("IZ")),
    ]
    return unitary_from_hamiltonian(terms, 2)


def initial_state(inp) -> DenseState:
    from .circuits import BasisInput

    if isinstance(inp, BasisInput):
        return basis_state(inp.n, inp.bits)
    return product_state(inp.angles)


def apply_circuit(circuit, state: DenseState | None = None) -> DenseState:
    """Gate-by-gate dense application of a layered circuit."""
    from .circuits import CliffordLayer, LinearLayer, MatchgateLayer, QuadraticLayer
    from .encodings import jordan_wigner

    n = circuit.n
    _check_cap(n)
    if state is None:
        state = initial_state(circuit.input)
    for lay in circuit.layers:
        if isinstance(lay, CliffordLayer):
            state = apply_clifford_gate(state, lay.gate, lay.qubits)
        elif isinstance(lay, MatchgateLayer):
            state = apply_unitary(
                state, _matchgate_unitary(lay.coeffs), (lay.qubit, lay.qubit + 1)
            )
        elif isinstance(lay, LinearLayer):
            jw = jordan_wigner(n)
            terms = [(b, jw.majoranas[j]) for j, b in enumerate(lay.b)]
            state = DenseState(n, unitary_from_hamiltonian(terms, n) @ state.amp)
        elif isinstance(lay, QuadraticLayer):
            jw = jordan_wigner(n)
            h = lay.h
            hmat = np.zeros((2**n, 2**n), dtype=complex)
            for i in range(2 * n):
                for j in range(2 * n):
                    if h[i, j] != 0.0:
                        hmat += (
                            1j
                            * h[i, j]
                            * (jw.majoranas[i].dense() @ jw.majoranas[j].dense())
                        )
            state = DenseState(n, _unitary(hmat) @ state.amp)
        else:
            raise TypeError(f"unknown layer {lay!r}")
    return state


def gaussianity_residual(state: DenseState, encoding) -> float:
    """Norm of sum_k (c_k|psi>) tensor (c_k|psi>) on the doubled space.

    Zero exactly when the state is Gaussian with respect to the given
    Majorana set.
    """
    if state.n > DOUBLED_CAP:
        raise SizeCapExceeded(f"n = {state.n} exceeds the doubled cap {DOUBLED_CAP}")
    if encoding.n != state.n:
        raise ValueError("length mismatch")
    acc = np.zeros(4**state.n, dtype=complex)
    for c in encoding.majoranas:
        v = apply_pauli(state, c).amp
        acc += np.kron(v, v)
    return float(np.linalg.norm(acc))
