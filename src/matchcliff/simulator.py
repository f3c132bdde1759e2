"""Query dispatch: route (circuit, input, query) triples to the
polynomial-time algorithm that covers them, or refuse with a reason.

The fast paths are covariance evolution plus Pfaffian readout
(gaussian module), exact basis-state tracking through basis-permuting
Cliffords (tableau module), and a restricted-degree Heisenberg sum for
generally conjugated circuits.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import gaussian, linalg, tableau
from .circuits import (
    BasisInput,
    Circuit,
    CliffordLayer,
    LinearLayer,
    MatchgateLayer,
    ProductInput,
    QuadraticLayer,
)
from .encodings import EXTENDED, STANDARD, chain_decompose, chain_majorana, embed_l12
from .gaussian import CovarianceMatrix, MarginalQuery
from .pauli import _X, _Y, _Z, PauliString
from .tableau import CliffordClass, CliffordTableau

D_MAX_DEFAULT = 4
D_MAX_CAP = 6


class UnsupportedQuery(ValueError):
    """No known polynomial-time algorithm covers this query."""


class DegreeTooLarge(UnsupportedQuery):
    pass


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class SimClass:
    """Granted simulability flags plus refusal notes."""

    flags: frozenset
    notes: tuple = ()

    def has(self, flag: str) -> bool:
        return flag in self.flags


def matchgate_terms(n: int, k: int, coeffs) -> list:
    """(coef, PauliString) terms of the two-qubit generator on (k, k+1)."""
    a0, a1, b1, b2, d1, d2 = coeffs
    X = lambda q: PauliString.single(n, q, "X")
    Y = lambda q: PauliString.single(n, q, "Y")
    Z = lambda q: PauliString.single(n, q, "Z")
    return [
        (a0, Y(k) * Y(k + 1)),
        (a1, X(k) * X(k + 1)),
        (b1, Y(k) * X(k + 1)),
        (b2, X(k) * Y(k + 1)),
        (d1, Z(k)),
        (d2, Z(k + 1)),
    ]


def layer_terms(lay, n: int) -> list:
    """Hamiltonian terms of one non-Clifford layer, on the logical qubits."""
    if isinstance(lay, MatchgateLayer):
        return matchgate_terms(n, lay.qubit, lay.coeffs)
    if isinstance(lay, LinearLayer):
        return [(b, chain_majorana(n, j)) for j, b in enumerate(lay.b) if b != 0.0]
    raise TypeError(f"no term form for {lay!r}")


def layer_rotation(lay, n: int, frame: str) -> np.ndarray:
    """Majorana rotation of exp(-i H_layer) in the given framework."""
    if isinstance(lay, QuadraticLayer):
        h = lay.h_matrix()
        if frame == EXTENDED:
            hp = np.zeros((2 * n + 2, 2 * n + 2))
            hp[2:, 2:] = h
            h = hp
        return linalg.expm_antisymmetric(h)
    terms = layer_terms(lay, n)
    if frame == EXTENDED:
        terms = [(c, embed_l12(p)) for c, p in terms]
        n += 1
    return linalg.expm_antisymmetric(gaussian.pauli_terms_to_h(terms, n))


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit with everything its queries share, computed once."""

    circuit: Circuit
    frame: str
    conj: CliffordTableau | None
    post: CliffordTableau | None
    rotations: tuple  # per body layer, in application order
    post_inverse: CliffordTableau | None = None  # pulls Paulis back through post
    conj_class: CliffordClass | None = None
    # pi with C Z_q C^dag = Z_pi(q), for the swap and CZ+swap classes
    qubit_perm: tuple | None = None
    # C|input> = phase |bits>, for basis inputs under a basis-permuting C
    input_action: tuple | None = None

    # The restricted route's data is built on its first query, not while
    # compiling: free circuits, whose dispatcher route is the covariance,
    # would otherwise hold a 2n x 2n product they never read.

    @functools.cached_property
    def body_product(self) -> np.ndarray:
        """S = R_L ... R_1 on the 2n logical Majoranas.  A body without
        linear layers fixes the extended frame's ancilla pair, so there S
        is the [2:, 2:] block of the product."""
        m = 2 * self.circuit.n
        s = np.eye(m + 2 if self.frame == EXTENDED else m)
        for r in self.rotations:
            s = r @ s
        return s[-m:, -m:]

    @functools.cached_property
    def dressed(self) -> tuple:
        """C^dag c_k C for each chain Majorana c_k, C the conjugation."""
        n = self.circuit.n
        majoranas = (chain_majorana(n, k) for k in range(2 * n))
        if self.conj is None:
            return tuple(majoranas)
        inv_conj = tableau.invert(self.conj)
        return tuple(inv_conj.conjugate_pauli(m) for m in majoranas)


@functools.lru_cache(maxsize=256)
def compile_circuit(c: Circuit) -> CompiledCircuit:
    frame = (
        EXTENDED
        if isinstance(c.input, ProductInput) or c.has_linear()
        else STANDARD
    )
    extra = {}
    conj = post = None
    if c.structure == "conjugated":
        conj = c.conjugation_tableau()
        cls = tableau.classify(conj)
        if c.has_linear() and cls == CliffordClass.GENERAL:
            raise CompileError(
                "linear layers inside a generally conjugated circuit have no "
                "supported algorithm"
            )
        extra["conj_class"] = cls
        if cls in (CliffordClass.SWAP_ONLY, CliffordClass.CZ_SWAP):
            extra["qubit_perm"] = _tableau_qubit_permutation(conj)
        if isinstance(c.input, BasisInput) and cls != CliffordClass.GENERAL:
            bits, phase = tableau.basis_action(conj, c.input.bits)
            extra["input_action"] = (tuple(int(b) for b in bits), phase)
    elif c.structure == "post_clifford":
        post = c.post_tableau()
        extra["post_inverse"] = tableau.invert(post)
    rotations = tuple(
        layer_rotation(lay, c.n, frame) for lay in c.body_layers()
    )
    return CompiledCircuit(c, frame, conj, post, rotations, **extra)


def body_covariance(cc: CompiledCircuit, inp=None) -> CovarianceMatrix:
    """Input covariance evolved through the body rotations (Clifford
    blocks excluded)."""
    c = cc.circuit
    inp = c.input if inp is None else inp
    return _body_covariance_cached(c, inp)


@functools.lru_cache(maxsize=1024)
def _body_covariance_cached(c: Circuit, inp) -> CovarianceMatrix:
    cc = compile_circuit(c)
    if isinstance(inp, BasisInput):
        cov = gaussian.init_covariance(inp)
        if cc.frame == EXTENDED:
            cov = gaussian.embed_basis_covariance(cov)
    else:
        cov = gaussian.product_state_covariance(inp.angles)
    for r in cc.rotations:
        cov = gaussian.evolve(cov, r)
    return cov


def classify_circuit(c: Circuit) -> SimClass:
    if c.structure == "conjugated":
        cls = tableau.classify(c.conjugation_tableau())
        if cls == CliffordClass.SWAP_ONLY:
            return SimClass(frozenset({"PIBO", "CIBO", "CIbO", "PIpO"}))
        if cls == CliffordClass.CZ_SWAP:
            return SimClass(
                frozenset({"CIBO", "CIbO", "PIpO"}),
                ("product-input marginals would simulate magic-state circuits",),
            )
        if cls == CliffordClass.PERMUTATION:
            return SimClass(
                frozenset({"CIbO", "PIpO"}),
                ("short marginals pull back to sums of several projectors",),
            )
        return SimClass(
            frozenset({"PIpO"}),
            (
                "general conjugation admits no known reduction to a "
                "free-fermion marginal",
            ),
        )
    if c.structure == "post_clifford":
        return SimClass(frozenset({"CIPO", "PIPO"}))
    return SimClass(frozenset({"PIBO", "CIBO", "CIbO", "CIPO", "PIPO", "PIpO"}))


def _tableau_qubit_permutation(t: CliffordTableau) -> tuple:
    """pi with T Z_q T^dag = Z_pi(q), valid for the swap/CZ-swap classes."""
    return tuple(int(np.argmax(t.image_of_z(q).z)) for q in range(t.n))


def run_expectation(c: Circuit, p: PauliString, d_max: int = D_MAX_DEFAULT) -> float:
    """<p> after the full circuit, via the fastest granted algorithm."""
    cc = compile_circuit(c)
    if c.structure == "free":
        return gaussian.pauli_expectation(body_covariance(cc), p)
    if c.structure == "post_clifford":
        q = cc.post_inverse.conjugate_pauli(p)
        return gaussian.pauli_expectation(body_covariance(cc), q)
    # conjugated: restricted-degree Heisenberg sum
    return restricted_pauli_expectation(c, p, d_max=d_max, _compiled=cc)


def run_marginal(
    c: Circuit, q: MarginalQuery, track_phases: bool = True
) -> float:
    cc = compile_circuit(c)
    n = c.n
    if any(not 0 <= qu < n for qu in q.qubits):
        raise IndexError("query qubit out of range")
    if c.structure == "free":
        return gaussian.marginal_probability(body_covariance(cc), q)
    if c.structure == "post_clifford":
        raise UnsupportedQuery(
            "post-Clifford circuits are granted Pauli-expectation outputs only"
        )
    cls = cc.conj_class
    if cls == CliffordClass.GENERAL:
        raise UnsupportedQuery(
            "general conjugation admits no known reduction to a free-fermion "
            "marginal"
        )
    pi = cc.qubit_perm
    if isinstance(c.input, ProductInput):
        if cls != CliffordClass.SWAP_ONLY:
            raise UnsupportedQuery(
                "product inputs under CZ/permutation conjugation would "
                "simulate magic-state circuits"
            )
        angles = [None] * n
        for qu in range(n):
            angles[pi[qu]] = c.input.angles[qu]
        cov = body_covariance(cc, ProductInput(tuple(angles)))
        return gaussian.marginal_probability(
            cov, MarginalQuery(tuple(pi[qu] for qu in q.qubits), q.bits)
        )
    # basis input
    bits_in, phase_in = cc.input_action
    weight = (phase_in * np.conj(phase_in)).real if track_phases else 1.0
    if cls in (CliffordClass.SWAP_ONLY, CliffordClass.CZ_SWAP):
        cov = body_covariance(cc, BasisInput(bits_in))
        prob = gaussian.marginal_probability(
            cov, MarginalQuery(tuple(pi[qu] for qu in q.qubits), q.bits)
        )
        return float(weight * prob)
    # permutation class: only full-length queries survive the pullback
    if len(q.qubits) != n:
        raise UnsupportedQuery(
            "partial marginals under permutation conjugation pull back to "
            "sums of several projectors; only full-length outputs are granted"
        )
    full = [0] * n
    for qu, b in zip(q.qubits, q.bits):
        full[qu] = b
    bits_out, phase_out = tableau.basis_action(cc.conj, full)
    if track_phases:
        weight *= (phase_out * np.conj(phase_out)).real
    cov = body_covariance(cc, BasisInput(bits_in))
    prob = gaussian.marginal_probability(
        cov, MarginalQuery(tuple(range(n)), tuple(int(b) for b in bits_out))
    )
    return float(weight * prob)


def _product_site_expectations(angles) -> list:
    out = []
    for theta, phi in angles:
        out.append(
            {
                "I": 1.0,
                "X": np.sin(theta) * np.cos(phi),
                "Y": np.sin(theta) * np.sin(phi),
                "Z": np.cos(theta),
            }
        )
    return out


def _input_pauli_expectation(inp, p: PauliString) -> complex:
    if isinstance(inp, BasisInput):
        if p.x.any():
            return 0.0
        bits = np.asarray(inp.bits, dtype=np.uint8)
        _, phase = p.apply_to_bits(bits)
        return phase
    site = _product_site_expectations(inp.angles)
    val = complex(p.prefix())
    for j, letter in enumerate(p.letters()):
        val *= site[j][letter]
        if val == 0.0:
            return 0.0
    return val


def restricted_pauli_expectation(
    c: Circuit,
    p: PauliString,
    d_max: int = D_MAX_DEFAULT,
    _compiled: CompiledCircuit | None = None,
) -> float:
    """Heisenberg-sum expectation for conjugated circuits: conjugate the
    query into the chain frame, rotate each Majorana factor through the
    body, and contract against per-site input expectations.

    Cost (2n)^d; refuses when the query needs more than d_max Majorana
    factors (hard cap 6).
    """
    if d_max > D_MAX_CAP:
        raise ValueError(f"d_max capped at {D_MAX_CAP}")
    cc = _compiled if _compiled is not None else compile_circuit(c)
    if c.structure not in ("conjugated", "free"):
        raise UnsupportedQuery("restricted path needs a conjugated or free circuit")
    if c.has_linear():
        raise UnsupportedQuery("restricted path does not cover linear layers")
    n = c.n
    conj = cc.conj if cc.conj is not None else CliffordTableau.identity(n)
    indices, mu = chain_decompose(conj.conjugate_pauli(p))
    d = len(indices)
    if d > d_max:
        raise DegreeTooLarge(
            f"query needs {d} Majorana factors, above the limit {d_max}"
        )
    if d == 0:
        return float((mu * _input_pauli_expectation(c.input, PauliString.identity(n))).real)
    s, dressed = cc.body_product, cc.dressed
    total = 0.0 + 0.0j
    for js in itertools.product(range(2 * n), repeat=d):
        w = 1.0
        for t, i_t in enumerate(indices):
            w *= s[i_t, js[t]]
            if w == 0.0:
                break
        if w == 0.0:
            continue
        mono = PauliString.identity(n)
        for j in js:
            mono = mono * dressed[j]
        total += w * _input_pauli_expectation(c.input, mono)
    val = mu * total
    if not abs(val.imag) <= linalg.TOL.restricted_imag:
        raise gaussian.InternalConsistencyError(
            f"restricted expectation has imaginary residue {val.imag:.3e}"
        )
    return float(val.real)


# -- two-qubit gate helpers -------------------------------------------


def gate_matrix_from_blocks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """4x4 gate with a acting on span(|00>, |11>) and b on span(|01>, |10>)."""
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0], g[0, 3], g[3, 0], g[3, 3] = a[0, 0], a[0, 1], a[1, 0], a[1, 1]
    g[1, 1], g[1, 2], g[2, 1], g[2, 2] = b[0, 0], b[0, 1], b[1, 0], b[1, 1]
    return g


def is_valid_gate_pair(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Unitary 2x2 blocks with equal determinant (the free-fermion
    condition on two-qubit gates of this block form)."""
    for m in (a, b):
        if np.max(np.abs(m @ m.conj().T - np.eye(2))) > tol:
            return False
    return abs(np.linalg.det(a) - np.linalg.det(b)) < tol


def _su2_log(a: np.ndarray) -> np.ndarray:
    """(x, y, z) with a = exp(-i (x X + y Y + z Z)) up to global phase."""
    det = np.linalg.det(a)
    a = a / np.sqrt(det)
    h = 1j * scipy.linalg.logm(a)
    h = (h + h.conj().T) / 2
    return np.array(
        [
            np.trace(h @ _X).real / 2,
            np.trace(h @ _Y).real / 2,
            np.trace(h @ _Z).real / 2,
        ]
    )


def coeffs_from_blocks(a: np.ndarray, b: np.ndarray) -> tuple:
    """Generator coefficients (a0, a1, b1, b2, d1, d2) whose gate equals
    the block-form gate of (a, b) up to global phase."""
    if not is_valid_gate_pair(a, b):
        raise ValueError("blocks must be unitary with equal determinants")
    hx_e, hy_e, hz_e = _su2_log(a)
    hx_o, hy_o, hz_o = _su2_log(b)
    return (
        (hx_o - hx_e) / 2.0,  # a0
        (hx_o + hx_e) / 2.0,  # a1
        (hy_e + hy_o) / 2.0,  # b1
        (hy_e - hy_o) / 2.0,  # b2
        (hz_e + hz_o) / 2.0,  # d1
        (hz_e - hz_o) / 2.0,  # d2
    )


FSWAP_COEFFS = (np.pi / 4, np.pi / 4, 0.0, 0.0, np.pi / 4, np.pi / 4)


@dataclass(frozen=True)
class Ghz4Gadget:
    circuit: Circuit
    postselect_qubits: tuple
    postselect_bits: tuple
    target_state: np.ndarray  # on the four remaining qubits


def ghz4_gadget() -> Ghz4Gadget:
    """Six-qubit CZ-conjugated circuit on |+>^6 whose last two qubits,
    post-selected on 00, leave the first four in (|0000>+|1111>)/sqrt(2)."""
    h_star = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
    h_mat = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    g_star = coeffs_from_blocks(h_star, h_star)
    g_hh = coeffs_from_blocks(h_mat, h_mat)
    czs = [
        CliffordLayer("CZ", (0, 1)),
        CliffordLayer("CZ", (1, 2)),
        CliffordLayer("CZ", (3, 4)),
        CliffordLayer("CZ", (4, 5)),
    ]
    body = [
        MatchgateLayer(0, g_star),
        MatchgateLayer(1, g_star),
        MatchgateLayer(3, g_star),
        MatchgateLayer(4, g_star),
        MatchgateLayer(2, g_hh),
        MatchgateLayer(3, FSWAP_COEFFS),
        MatchgateLayer(2, FSWAP_COEFFS),
        MatchgateLayer(4, FSWAP_COEFFS),
        MatchgateLayer(3, FSWAP_COEFFS),
    ]
    plus = tuple((np.pi / 2, 0.0) for _ in range(6))
    circuit = Circuit(
        6, ProductInput(plus), tuple(czs + body + czs), "conjugated"
    )
    target = np.zeros(16, dtype=complex)
    target[0] = target[15] = 1 / np.sqrt(2)
    return Ghz4Gadget(circuit, (4, 5), (0, 0), target)
