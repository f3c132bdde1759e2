"""Query dispatch: route (circuit, input, query) triples to the
polynomial-time algorithm that covers them, or refuse with a reason.

compile_circuit decides once what a circuit grants, from one table
(GRANTS) keyed by its structure or its conjugation's class, and
multiplies its body into one rotation S of the Majoranas; the
classifier, the dispatchers and the CLI look that decision up.  The
routes are covariance evolution, S gamma S^T, plus Pfaffian readout
(gaussian module), through one readout state per compiled circuit, with
basis inputs and query bits mapped through basis-permuting Cliffords
(tableau module), and a restricted-degree Heisenberg sum over the minors
of S for conjugated circuits.
"""
from __future__ import annotations

import functools
import itertools
import math
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
from .encodings import MajoranaMap, chain_monomials
from .gaussian import CovarianceMatrix, MarginalQuery
from .pauli import _X, _Y, _Z, PauliString
from .tableau import CliffordClass, CliffordTableau

D_MAX_DEFAULT = 4
D_MAX_CAP = 6
# index sets per batch of the restricted sum, which bounds its memory
# when C(2n, d) is large; a sum that fits in one batch is kept per degree
MINOR_BATCH = 2048
_I_POWERS = np.array([1, 1j, -1, -1j])


class UnsupportedQuery(ValueError):
    """No known polynomial-time algorithm covers this query."""


class DegreeTooLarge(UnsupportedQuery):
    pass


@dataclass(frozen=True)
class SimClass:
    """The query kinds a circuit grants, and the reason for each kind it
    refuses."""

    flags: frozenset
    refusals: dict  # flag -> reason

    def require(self, flag: str) -> None:
        """Raise UnsupportedQuery with its reason unless flag is granted."""
        if flag not in self.flags:
            raise UnsupportedQuery(self.refusals[flag])

    def expectation_method(self, inp) -> str:
        """The route of a Pauli expectation on inp: the covariance when
        every Pauli output is granted, else the restricted sum."""
        every = PIPO if isinstance(inp, ProductInput) else CIPO
        return "covariance" if every in self.flags else "restricted"


# Query kinds: an input, product (PI) or computational basis (CI), and an
# output: marginals on any qubits (BO), full-length bitstring
# probabilities (bO), every Pauli expectation (PO) or those of Majorana
# degree at most d_max (pO).  A basis input is a product input.
PIBO, CIBO, CIbO, CIPO, PIPO, PIpO = "PIBO", "CIBO", "CIbO", "CIPO", "PIPO", "PIpO"
_MARGINALS = (PIBO, CIBO, CIbO)
_MAGIC = "product inputs under CZ/permutation conjugation would simulate magic-state circuits"
_NO_LINEAR = "restricted path does not cover linear layers"

# The simulability hierarchy: what each structure, or each class of a
# conjugation, grants.  A body with a linear layer also loses PIpO
# (_grants).
GRANTS = {
    "free": SimClass(frozenset({PIBO, CIBO, CIbO, CIPO, PIPO, PIpO}), {}),
    "post_clifford": SimClass(
        frozenset({CIPO, PIPO}),
        {
            **dict.fromkeys(
                _MARGINALS,
                "post-Clifford circuits are granted Pauli-expectation outputs only",
            ),
            PIpO: "restricted path needs a conjugated or free circuit",
        },
    ),
    CliffordClass.SWAP_ONLY: SimClass(frozenset({PIBO, CIBO, CIbO, PIpO}), {}),
    CliffordClass.CZ_SWAP: SimClass(frozenset({CIBO, CIbO, PIpO}), {PIBO: _MAGIC}),
    CliffordClass.PERMUTATION: SimClass(
        frozenset({CIbO, PIpO}),
        {
            PIBO: _MAGIC,
            CIBO: "partial marginals under permutation conjugation pull back to "
            "sums of several projectors; only full-length outputs are granted",
        },
    ),
    CliffordClass.GENERAL: SimClass(
        frozenset({PIpO}),
        dict.fromkeys(
            _MARGINALS,
            "general conjugation admits no known reduction to a free-fermion marginal",
        ),
    ),
}


def _grants(c: Circuit, cls: CliffordClass | None) -> SimClass:
    """The row of GRANTS for c, less PIpO if its body has a linear layer;
    cls, the class of its conjugation, is read only for a conjugated
    circuit."""
    row = GRANTS[cls if c.structure == "conjugated" else c.structure]
    if PIpO not in row.flags or not c.has_linear():
        return row
    return SimClass(row.flags - {PIpO}, {**row.refusals, PIpO: _NO_LINEAR})


def _generator_map() -> np.ndarray:
    """(6, 16) matrix taking coefficients (a0, a1, b1, b2, d1, d2) to the
    flattened 4x4 matchgate generator."""
    rows = [
        0.5
        * np.array(
            [
                [0.0, -d1, b1, a0],
                [d1, 0.0, -a1, -b2],
                [-b1, a1, 0.0, -d2],
                [-a0, b2, d2, 0.0],
            ]
        ).reshape(16)
        for a0, a1, b1, b2, d1, d2 in np.eye(6)
    ]
    return np.array(rows)


_GENERATOR_MAP = _generator_map()


def matchgate_generator(coeffs) -> np.ndarray:
    """4x4 antisymmetric generator h of a matchgate on (k, k+1), for
    coefficient rows (..., 6) in the order (a0, a1, b1, b2, d1, d2): with
    H = a0 YY + a1 XX + b1 YX + b2 XY + d1 Z(k) + d2 Z(k+1) written as
    i sum_jk h_jk c_j c_k, h is zero outside the logical Majoranas
    2k..2k+3, which are 2k+2..2k+5 of the covariance, and this block there.
    The block is the same for every k.  Returns an array of shape
    (..., 4, 4)."""
    coeffs = np.asarray(coeffs, dtype=float)
    return (coeffs @ _GENERATOR_MAP).reshape(coeffs.shape[:-1] + (4, 4))


def layer_generator(lay, n: int) -> np.ndarray:
    """(2n+2) x (2n+2) generator h of a linear or quadratic layer, whose
    rotation on the covariance's Majoranas is exp(4 h).  A linear layer
    sum_j b_j c_j is quadratic through the ancilla pair (Jozsa-Miyake):
    its only nonzero row and column are Majorana 1's."""
    h = np.zeros((2 * n + 2, 2 * n + 2))
    if isinstance(lay, LinearLayer):
        b = np.array(lay.b, dtype=float)
        h[1, 2:] = -b / 2
        h[2:, 1] = b / 2
    elif isinstance(lay, QuadraticLayer):
        h[2:, 2:] = lay.h
    else:
        raise TypeError(f"no dense generator for {lay!r}")
    return h


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit with everything its queries share, computed once."""

    circuit: Circuit
    grants: SimClass
    # S = R_L ... R_1, the read-only (2n+2) x (2n+2) rotation of the
    # covariance's Majoranas by the whole body
    body: np.ndarray
    post_inverse: CliffordTableau | None = None  # pulls Paulis back through post
    conj_class: CliffordClass | None = None
    # (A, b) with C|x> = phase |A x + b mod 2>, for a basis-permuting C
    basis_map: tuple | None = None

    # The covariance route's readout and map and the restricted route's
    # maps and kept batches are built on their first query, not while
    # compiling, so a circuit holds only what its queries read.

    @functools.cached_property
    def readout(self) -> CovarianceMatrix:
        """The covariance that the covariance route reads, built on its
        first query by gaussian.evolve from the input descriptor: S gamma
        S^T of the input, with C|x> = |A x + b> for a basis input x under a
        basis-permuting C.  Under the swap and CZ+swap classes C Z_q C^dag
        = Z_pi(q), pi read from the X parts of A, and a product input's
        qubit j moves to pi(j); S's rows are gathered so that pair pi(q)
        lands on pair q.  The permutation class maps each query's bits
        through basis_map."""
        c = self.circuit
        inp, s = c.input, self.body
        if isinstance(inp, BasisInput) and self.basis_map is not None:
            a, b = self.basis_map
            inp = BasisInput(tuple((a @ np.array(inp.bits) + b) & 1))
        if self.conj_class in (CliffordClass.SWAP_ONLY, CliffordClass.CZ_SWAP):
            perm = self.basis_map[0].argmax(axis=0)
            if isinstance(inp, ProductInput):
                inp = ProductInput(tuple(inp.angles[j] for j in np.argsort(perm)))
            s = s[np.concatenate([[0, 1], gaussian.majorana_pairs(c.n)[perm].ravel()])]
        return gaussian.evolve(inp, s)

    @functools.cached_property
    def basis_masks(self) -> tuple:
        """basis_map as ints, bit i for row i: (the columns of A, b), so
        that a query's bits pull back by XORs."""
        a, b = self.basis_map
        columns = tuple(sum(1 << int(i) for i in np.flatnonzero(col)) for col in a.T)
        return columns, sum(1 << int(i) for i in np.flatnonzero(b))

    @functools.cached_property
    def expectation_map(self) -> MajoranaMap | None:
        """The covariance route's map of a query p to the covariance's
        Majoranas, those of embed_l12(post_inverse p post_inverse^dag);
        None for a free circuit, whose queries gaussian.pauli_expectation
        maps in closed form."""
        if self.post_inverse is None:
            return None
        return MajoranaMap(self.circuit.n, self.post_inverse, ancilla=True)

    @functools.cached_property
    def restricted_map(self) -> MajoranaMap:
        """The restricted route's map of a query p to C p C^dag = mu c_I,
        C the leading Clifford block (none for a free circuit)."""
        c = self.circuit
        lead = c.conjugation_tableau() if c.structure == "conjugated" else None
        return MajoranaMap(c.n, lead)

    @functools.cached_property
    def minor_batches(self) -> dict:
        """d -> (index sets, dressed values) of the whole restricted sum of
        degree d, for each d with C(2n, d) <= MINOR_BATCH queried so far:
        at most D_MAX_CAP + 1 batches of at most MINOR_BATCH sets."""
        return {}


@functools.lru_cache(maxsize=256)
def compile_circuit(c: Circuit) -> CompiledCircuit:
    extra = {}
    cls = None
    if c.structure == "conjugated":
        conj = c.conjugation_tableau()
        cls = extra["conj_class"] = tableau.classify(conj)
        if cls != CliffordClass.GENERAL:
            extra["basis_map"] = tableau.basis_map(conj)
    elif c.structure == "post_clifford":
        extra["post_inverse"] = tableau.invert(c.post_tableau())
    # a matchgate rotates only its four Majoranas, and the body's matchgates
    # are exponentiated in one stacked call; a linear or quadratic layer
    # rotates every Majorana.  S starts as the first block, written into
    # the identity, and one pass multiplies the others onto it
    layers = c.body_layers()
    coeffs = [lay.coeffs for lay in layers if isinstance(lay, MatchgateLayer)]
    local = iter(
        linalg.expm_antisymmetric(
            matchgate_generator(np.array(coeffs, dtype=float).reshape(-1, 6))
        )
    )
    blocks = [
        (2 * lay.qubit + 2, next(local))
        if isinstance(lay, MatchgateLayer)
        else (0, linalg.expm_antisymmetric(layer_generator(lay, c.n)))
        for lay in layers
    ]
    body = np.eye(2 * c.n + 2)
    if blocks:
        offset, r = blocks[0]
        rows = slice(offset, offset + len(r))
        body[rows, rows] = r
    body = linalg.rotate_rows(body, blocks[1:])
    body.flags.writeable = False
    return CompiledCircuit(c, _grants(c, cls), body, **extra)


def classify_circuit(c: Circuit) -> SimClass:
    """The grants compile_circuit decided, so a circuit is classified once
    however often it is queried.  A body too large or not finite to
    exponentiate, which compile refuses, still has its row of GRANTS."""
    try:
        return compile_circuit(c).grants
    except ValueError:
        return _grants(c, tableau.classify(c.conjugation_tableau()))


def run_expectation(c: Circuit, p: PauliString, d_max: int = D_MAX_DEFAULT) -> float:
    """<p> after the full circuit, by the route the grants choose.  d_max,
    the restricted route's degree limit, must lie in 0..D_MAX_CAP whichever
    route answers."""
    _check_d_max(d_max)
    cc = compile_circuit(c)
    if cc.grants.expectation_method(c.input) == "restricted":
        return restricted_pauli_expectation(c, p, d_max=d_max)
    return gaussian.pauli_expectation(cc.readout, p, cc.expectation_map)


def run_marginal(c: Circuit, q: MarginalQuery) -> float:
    """Probability of the bits on the qubits after the full circuit.  A
    Clifford maps a basis state to a unit-modulus multiple of a basis
    state, so its phases never weigh on a probability.  The error is
    absolute, about 1e-16 (gaussian.marginal_probability): a probability
    below about 1e-15 is rounding noise, not a zero."""
    cc = compile_circuit(c)
    n = c.n
    if q.qubits and not (min(q.qubits) >= 0 and max(q.qubits) < n):
        raise IndexError("query qubit out of range")
    if isinstance(c.input, ProductInput):
        cc.grants.require(PIBO)
    else:
        cc.grants.require(CIbO if len(q.qubits) == n else CIBO)
    # under the permutation class only full-length queries are granted,
    # and their bits x pull back through the affine basis map: A x + b is
    # b XOR the columns of A at the qubits whose bit is 1
    if cc.conj_class == CliffordClass.PERMUTATION:
        columns, image = cc.basis_masks
        for qubit, bit in zip(q.qubits, q.bits):
            if bit:
                image ^= columns[qubit]
        q = MarginalQuery(q.qubits, tuple((image >> qubit) & 1 for qubit in q.qubits))
    return gaussian.marginal_probability(cc.readout, q)


def _input_table(inp) -> np.ndarray:
    """(n, 4) table of <X^x Z^z> on each input qubit, in column 2x + z,
    from the Bloch vector (x, y, z); XZ = -iY."""
    bx, by, bz = inp.bloch().T
    return np.stack([np.ones_like(bz), bz, bx, -1j * by], axis=1)


def _check_d_max(d_max: int) -> None:
    if not 0 <= d_max <= D_MAX_CAP:
        raise ValueError(f"d_max capped at {D_MAX_CAP} and at least 0, got {d_max}")


def _dressed_values(c: Circuit, js: np.ndarray) -> np.ndarray:
    """<c_J> on the input after the trailing Clifford block, for the
    ascending index sets J, the rows of js: c_J from chain_monomials,
    dressed by one tableau conjugation, is i^e X^x Z^z, whose value on
    the product input is i^e prod_a T[a, 2 x_a + z_a]."""
    n = c.n
    members = np.zeros((len(js), 2 * n), dtype=np.uint8)
    members[np.arange(len(js))[:, None], js] = 1
    rows, phases = chain_monomials(members)
    rows, phases = c.post_tableau().conjugate_rows(rows, phases)
    table = _input_table(c.input)
    values = np.prod(table[np.arange(n), 2 * rows[:, :n] + rows[:, n:]], axis=1)
    return _I_POWERS[phases] * values


def _minor_batches(cc: CompiledCircuit, d: int):
    """(index sets, dressed values) over the C(2n, d) ascending index sets
    J, |J| = d, in batches of MINOR_BATCH sets; kept with the circuit
    when they fit in one batch."""
    c = cc.circuit
    kept = math.comb(2 * c.n, d) <= MINOR_BATCH
    if kept and d in cc.minor_batches:
        yield cc.minor_batches[d]
        return
    sets = itertools.combinations(range(2 * c.n), d)
    while chunk := list(itertools.islice(sets, MINOR_BATCH)):
        js = np.array(chunk, dtype=np.intp).reshape(len(chunk), d)
        batch = js, _dressed_values(c, js)
        if kept:
            cc.minor_batches[d] = batch
        yield batch


def restricted_pauli_expectation(
    c: Circuit, p: PauliString, d_max: int = D_MAX_DEFAULT
) -> float:
    """Heisenberg-sum expectation for conjugated circuits.  The query is
    conjugated into the chain frame, C p C^dag = mu c_I with C the leading
    Clifford block, by the compiled restricted_map; the body rotation S
    gives U^dag c_I U = sum over the ascending J with |J| = d of
    det(S[I, J]) c_J; each c_J is dressed by the trailing block (the
    inverse of C) and read against the input's per-qubit Pauli table.

    Cost C(2n, d) minors, in batches of MINOR_BATCH index sets; a sum
    that fits in one batch keeps its index sets and dressed values with
    the circuit, so a query is then one row gather of S, one batched
    determinant and one dot.  Refuses when the query needs more than
    d_max Majorana factors (hard cap 6).
    """
    _check_d_max(d_max)
    if not p.is_hermitian():
        raise ValueError("expectation of a non-Hermitian string")
    cc = compile_circuit(c)
    cc.grants.require(PIpO)
    indices, phase = cc.restricted_map(p)
    d = len(indices)
    if d > d_max:
        raise DegreeTooLarge(
            f"query needs {d} Majorana factors, above the limit {d_max}"
        )
    # PIpO bodies have no linear layer, so S fixes the ancilla pair; row J
    # of s_cols[js] is S[I, J] transposed, which has its determinant
    s_cols = cc.body[2:, 2:].take(indices, axis=0).T
    total = 0.0 + 0.0j
    for js, values in _minor_batches(cc, d):
        total += np.linalg.det(s_cols[js]) @ values
    val = _I_POWERS[phase] * total
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


def is_valid_gate_pair(a: np.ndarray, b: np.ndarray) -> bool:
    """Unitary 2x2 blocks with equal determinant, to within 1e-9 (the
    free-fermion condition on two-qubit gates of this block form)."""
    for m in (a, b):
        if np.max(np.abs(m @ m.conj().T - np.eye(2))) > 1e-9:
            return False
    return abs(np.linalg.det(a) - np.linalg.det(b)) < 1e-9


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
