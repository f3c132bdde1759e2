"""Fermion-to-qubit encodings: ordered sets of mutually anticommuting
Hermitian Pauli strings, one pair per fermionic mode.

Provides the standard chain encoding (Jordan-Wigner form), the
Fenwick-tree encoding (Bravyi-Kitaev form), validation, Clifford
conjugation, decomposition of arbitrary Paulis into Majorana monomials
(closed form in the chain encoding, GF(2) solve in any other), the I/Z
letter-grid classifier with CZ+SWAP circuit recovery, and the
two "linear terms become quadratic" extension constructions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import f2
from .pauli import PauliString

class NotCzSwapFamily(ValueError):
    """Some Z_i is not a quadratic product of the encoding's Majoranas."""


class MalformedPairing(ValueError):
    """Off-diagonal letters outside {I, Z} or inconsistent mode pairs."""


@dataclass(frozen=True)
class Encoding:
    majoranas: tuple

    def __post_init__(self):
        object.__setattr__(self, "majoranas", tuple(self.majoranas))
        if not self.majoranas:
            raise ValueError("empty encoding")

    @property
    def n(self) -> int:
        """Qubit count the strings act on."""
        return self.majoranas[0].n

    @property
    def num_majoranas(self) -> int:
        return len(self.majoranas)

    def symplectic_basis(self) -> np.ndarray:
        """2n x 2n F2 matrix whose column k is the k-th Majorana."""
        return np.stack([c.symplectic() for c in self.majoranas], axis=1)


def chain_majorana(n: int, k: int) -> PauliString:
    """The k-th chain-form Majorana on n qubits: Z..Z X_j for k = 2j,
    Z..Z Y_j for k = 2j+1 (0-based)."""
    j, odd = divmod(k, 2)
    x = np.zeros(n, dtype=np.uint8)
    z = np.zeros(n, dtype=np.uint8)
    z[:j] = 1
    x[j] = 1
    z[j] = odd
    return PauliString(x, z, odd)


def jordan_wigner(n: int) -> Encoding:
    """Chain encoding: c_{2i} = Z..Z X_i, c_{2i+1} = Z..Z Y_i (0-based)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Encoding(tuple(chain_majorana(n, k) for k in range(2 * n)))


def _fenwick_parents(n: int) -> list:
    """Parent pointers of the Fenwick tree on nodes 0..n-1 (root n-1)."""
    parent = [None] * n

    def build(lo, hi):
        if lo >= hi:
            return
        mid = (lo + hi) // 2
        parent[mid] = hi
        build(lo, mid)
        build(mid + 1, hi)

    build(0, n - 1)
    return parent


def bravyi_kitaev(n: int) -> Encoding:
    """Fenwick-tree encoding with O(log n) average weight.

    c_{2j}   = X on the update set and on j, Z on the parity set.
    c_{2j+1} = X on the update set, Y on j, Z on the remainder set
               (parity set minus the children of j).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    parent = _fenwick_parents(n)
    children = [[] for _ in range(n)]
    for j, p in enumerate(parent):
        if p is not None:
            children[p].append(j)
    # subtree of node t covers the contiguous mode range [lo[t], t]
    lo = list(range(n))

    def subtree_lo(t):
        for c in children[t]:
            lo[t] = min(lo[t], subtree_lo(c))
        return lo[t]

    subtree_lo(n - 1)

    def update_set(j):
        out = []
        while parent[j] is not None:
            j = parent[j]
            out.append(j)
        return out

    def parity_set(j):
        # nodes whose subtrees tile the range [0, j-1]
        out = []
        hi = j - 1
        while hi >= 0:
            out.append(hi)
            hi = lo[hi] - 1
        return out

    cs = []
    for j in range(n):
        upd = update_set(j)
        par = parity_set(j)
        rem = [t for t in par if t not in children[j]]
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        x[upd] = 1
        x[j] = 1
        z[par] = 1
        cs.append(PauliString(x, z, 0))
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        x[upd] = 1
        x[j] = 1
        z[j] = 1
        z[rem] = 1
        cs.append(PauliString(x, z, 1))
    return Encoding(tuple(cs))


def validate(e: Encoding) -> list:
    """Return the list of violations (empty list means the encoding is
    a valid set of Majorana representatives)."""
    out = []
    m = e.num_majoranas
    for k, c in enumerate(e.majoranas):
        if c.n != e.n:
            out.append(f"operator {k}: length {c.n} != {e.n}")
        if not c.is_hermitian():
            out.append(f"operator {k}: not Hermitian")
        if c.is_identity():
            out.append(f"operator {k}: identity")
    if any(c.n != e.n for c in e.majoranas):
        # the pair and rank checks need strings of one length
        return out
    for a in range(m):
        for b in range(a + 1, m):
            ca, cb = e.majoranas[a], e.majoranas[b]
            if ca.equal_up_to_phase(cb):
                out.append(f"pair ({a},{b}): equal up to phase")
            if ca.commutes_with(cb):
                out.append(f"pair ({a},{b}): commuting")
    basis = e.symplectic_basis()
    if f2.rank(basis.T) != m:
        out.append("symplectic vectors not linearly independent over F2")
    return out


def conjugate_encoding(e: Encoding, t) -> Encoding:
    if t.n != e.n:
        raise ValueError("length mismatch")
    return Encoding(tuple(t.conjugate_pauli(c) for c in e.majoranas))


def decompose_pauli(e: Encoding, p: PauliString) -> tuple:
    """p = phase * c_{i_1} ... c_{i_k} with ascending 0-based indices.

    The index subset is the unique F2 solution in the encoding's
    symplectic basis; the phase is a fourth root of unity.
    """
    if p.n != e.n:
        raise ValueError("length mismatch")
    sol = f2.solve(e.symplectic_basis(), p.symplectic())
    indices = tuple(int(i) for i in np.flatnonzero(sol))
    return indices, _recompose_phase(p, [e.majoranas[i] for i in indices])


def _later_parity(x: np.ndarray) -> np.ndarray:
    """Parity of x over the qubits after each qubit, along the last axis."""
    return ((np.cumsum(x[..., ::-1], axis=-1)[..., ::-1] - x) & 1).astype(np.uint8)


def chain_monomials(members: np.ndarray) -> tuple:
    """(x | z) rows and phases of ascending chain monomials.

    Row r of ``members`` is a 0/1 mask over the 2n chain Majoranas; the
    monomial c_{j_1} ... c_{j_d} (j_1 < ... < j_d the marked indices)
    equals i^phases[r] X^x Z^z.  Qubit q carries x_q = e_q + o_q and
    z_q = o_q + s_q (mod 2), with e_q, o_q the marks of c_{2q}, c_{2q+1}
    and s_q the parity of x over the qubits after q.  For j < k the Z
    part of c_j misses the X of c_k, so multiplying in ascending order
    swaps no letters, and the phase is the number of odd indices.
    """
    members = np.asarray(members, dtype=np.uint8)
    even, odd = members[..., 0::2], members[..., 1::2]
    x = even ^ odd
    rows = np.concatenate([x, odd ^ _later_parity(x)], axis=-1)
    return rows, odd.sum(axis=-1, dtype=np.int64) % 4


def chain_members(rows, ancilla: bool = False) -> np.ndarray:
    """0/1 masks over the chain Majoranas of the Paulis with (x | z) rows
    (..., 2n), in closed form.

    With s_j the parity of x over the qubits after j, c_{2j+1} is a
    factor iff z_j + s_j = 1 and c_{2j} iff x_j + z_j + s_j = 1 (mod 2):
    each factor at qubit k > j leaves one Z at j, and the factors at j
    leave its x and z bits.  With ancilla the masks run over the 2n + 2
    Majoranas of the extended frame and are those of embed_l12(p): the
    leading X of a string with odd x is c_1, never c_0, and logical
    Majorana k is 2 + k.  The map is linear over GF(2), so the masks of
    the rows v M are v chain_members(M) mod 2.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    n = rows.shape[-1] // 2
    x, z = rows[..., :n], rows[..., n:]
    later = _later_parity(x)
    odd = z ^ later
    lead = 2 if ancilla else 0
    members = np.zeros(rows.shape[:-1] + (2 * n + lead,), dtype=np.uint8)
    if ancilla:
        members[..., 1] = later[..., 0] ^ x[..., 0]
    members[..., lead::2] = x ^ odd
    members[..., lead + 1 :: 2] = odd
    return members


def _recompose(members: np.ndarray, rows: np.ndarray, ancilla: bool) -> np.ndarray:
    """The phases of the chain monomials of the masks; raise unless their
    (x | z) rows are the rows given, embedded when ancilla."""
    got, phases = chain_monomials(members)
    if ancilla:
        n = rows.shape[-1] // 2
        x, z = rows[..., :n], rows[..., n:]
        lead = x.sum(axis=-1, dtype=np.int64)[..., None] & 1
        zero = np.zeros_like(lead)
        rows = np.concatenate([lead, x, zero, z], axis=-1)
    if not np.array_equal(got, rows):
        raise AssertionError("decomposition failed to recompose")
    return phases


def chain_decompose(p: PauliString) -> tuple:
    """decompose_pauli(jordan_wigner(p.n), p) in closed form
    (chain_members).  The phase is p's relative to the monomial's (see
    chain_monomials).  The extended frame's Majoranas are the chain form
    on one more qubit, so its strings decompose here too.
    """
    row = p.symplectic()
    members = chain_members(row)
    phase = _recompose(members, row, False)
    indices = tuple(int(i) for i in np.flatnonzero(members))
    return indices, complex(1j ** ((p.phase_exp - int(phase)) % 4))


class MajoranaMap:
    """C p C^dag = i^phase c_I in the chain frame, for n-qubit Paulis p and
    a fixed Clifford tableau C (the identity when None): one GF(2) map from
    p's (x | z) row v to the mask of I, in the extended frame of
    embed_l12 when ancilla.

    C p C^dag has the row v M and the phase p.phase_exp + v . e +
    2 v U v^T (CliffordTableau.conjugate_rows), and its mask is
    v chain_members(M) mod 2, so one float table [masks | e | U] answers
    a query with one vector-matrix product.  The map is linear, so its
    recomposition check runs once, on the 2n unit rows, when it is built.
    Without a tableau it is chain_members on the row, with no table.
    """

    def __init__(self, n: int, tableau=None, ancilla: bool = False):
        self.n = n
        self.ancilla = ancilla
        self._table = None
        rows = np.eye(2 * n, dtype=np.uint8) if tableau is None else tableau.matrix
        masks = chain_members(rows, ancilla)
        _recompose(masks, rows, ancilla)
        if tableau is not None:
            self._width = masks.shape[1]
            self._table = np.concatenate(
                [masks, tableau.phases[:, None], tableau.order_form], axis=1
            ).astype(np.float64)

    def __call__(self, p: PauliString) -> tuple:
        """(ascending indices I as an intp array, phase mod 4)."""
        if p.n != self.n:
            raise ValueError(f"length mismatch: {p.n} != {self.n}")
        phase = p.phase_exp
        if self._table is None:
            members = chain_members(p.symplectic(), self.ancilla)
        else:
            v = np.concatenate([p.x, p.z], dtype=np.float64)
            image = v @ self._table
            w = self._width
            members = image[:w].astype(np.int64) & 1
            phase += int(image[w]) + 2 * int(image[w + 1 :] @ v)
        odd = int(np.count_nonzero(members[1::2]))
        return np.flatnonzero(members), (phase - odd) % 4


def _recompose_phase(p: PauliString, factors) -> complex:
    """Phase of p relative to the ordered product of its factors, which
    must recompose p up to that phase."""
    prod = PauliString.identity(p.n)
    for c in factors:
        prod = prod * c
    if not np.array_equal(prod.x, p.x) or not np.array_equal(prod.z, p.z):
        raise AssertionError("decomposition failed to recompose")
    return complex(1j ** ((p.phase_exp - prod.phase_exp) % 4))


# -- I/Z letter-grid form and CZ+SWAP recovery ------------------------


@dataclass(frozen=True)
class EncodingMatrix:
    """Mode-by-qubit letter grid for encodings whose Z_i are all
    quadratic Majorana products.

    Row i describes the identical letter pattern shared by mode i's two
    Majoranas: an {X,Y} pair at qubit ``diag_col[i]`` and letters in
    {I, Z} elsewhere, with the complementarity grid[i][col_j] = Z
    exactly when grid[j][col_i] = I.
    """

    n: int
    diag_col: tuple  # qubit carrying the {X,Y} pair of each mode
    grid: tuple  # grid[i][j] in {"I","Z"} for j != diag_col[i], "*" at it


def encoding_matrix(e: Encoding) -> EncodingMatrix:
    if e.num_majoranas % 2:
        raise MalformedPairing("odd number of Majoranas")
    n = e.n
    if e.num_majoranas != 2 * n:
        raise MalformedPairing("mode count does not match qubit count")
    diag_col = [None] * n
    for q in range(n):
        zq = PauliString.single(n, q, "Z")
        indices, _ = decompose_pauli(e, zq)
        if len(indices) != 2:
            raise NotCzSwapFamily(
                f"Z on qubit {q} decomposes into {len(indices)} Majoranas"
            )
        a, b = indices
        if b != a + 1 or a % 2:
            raise MalformedPairing(
                f"Z on qubit {q} pairs Majoranas {a},{b} across modes"
            )
        mode = a // 2
        if diag_col[mode] is not None:
            raise MalformedPairing(f"mode {mode} paired with two qubits")
        diag_col[mode] = q
    grid = []
    for mode in range(n):
        ca, cb = e.majoranas[2 * mode], e.majoranas[2 * mode + 1]
        q = diag_col[mode]
        row = []
        for j in range(n):
            if j == q:
                pair = {ca.letters()[j], cb.letters()[j]}
                if pair != {"X", "Y"}:
                    raise MalformedPairing(
                        f"mode {mode} letters at qubit {j} are not an X,Y pair"
                    )
                row.append("*")
                continue
            la, lb = ca.letters()[j], cb.letters()[j]
            if la != lb or la not in "IZ":
                raise MalformedPairing(
                    f"mode {mode} off-diagonal letter {la}{lb} at qubit {j}"
                )
            row.append(la)
        grid.append(tuple(row))
    for i in range(n):
        for j in range(i + 1, n):
            zi = grid[i][diag_col[j]] == "Z"
            zj = grid[j][diag_col[i]] == "Z"
            if zi == zj:
                raise MalformedPairing(
                    f"modes {i},{j}: complementarity violated"
                )
    return EncodingMatrix(n, tuple(diag_col), tuple(grid))


@dataclass(frozen=True)
class RecoveredCircuit:
    """Moves taking the chain-form grid to the input grid.

    mode_order: fermionic reordering rho; mode i of the recovered
        encoding is row rho[i] of the input.
    swaps: qubit SWAP gates. czs: qubit CZ gates.
    gates: the flat Clifford gate list (SWAPs then CZs).
    """

    mode_order: tuple
    swaps: tuple
    czs: tuple

    @property
    def gates(self) -> tuple:
        return tuple(("SWAP", a, b) for a, b in self.swaps) + tuple(
            ("CZ", a, b) for a, b in self.czs
        )


def _perm_to_swaps(perm) -> list:
    """Transpositions (a,b) whose left-to-right SWAP product realizes
    the relabeling q -> perm[q]."""
    swaps = []
    p = list(perm)
    for i in range(len(p)):
        if p[i] == i:
            continue
        j = p.index(i)
        swaps.append((i, j))
        p[i], p[j] = p[j], p[i]
    return swaps


def recover_cz_swap_circuit(m: EncodingMatrix) -> RecoveredCircuit:
    """Recover a SWAP/CZ circuit and fermionic reordering connecting the
    chain-form grid (strictly lower-triangular Z pattern) to ``m``.

    Preference order: a pure reorder/SWAP solution when the Z-counts
    are a clean 0..n-1 ladder with a lower-triangular grid; otherwise
    keep qubit labels aligned with modes and flip the mismatched cells
    with CZ gates.
    """
    n = m.n
    z_count = [sum(1 for c in row if c == "Z") for row in m.grid]

    def grid_after(order):
        # rows reordered; columns relabeled so mode i sits at qubit i
        col_of = {m.diag_col[order[i]]: i for i in range(n)}
        g = []
        for i in range(n):
            row = ["I"] * n
            for j in range(n):
                row[col_of[m.diag_col[order[j]]]] = m.grid[order[i]][
                    m.diag_col[order[j]]
                ]
            row[i] = "*"
            g.append(row)
        return g, col_of

    # try the ladder order first: it yields a swap/reorder-only answer
    if sorted(z_count) == list(range(n)):
        order = sorted(range(n), key=lambda i: z_count[i])
        g, col_of = grid_after(order)
        if all(
            g[i][j] == ("Z" if j < i else "I")
            for i in range(n)
            for j in range(n)
            if i != j
        ):
            perm = [m.diag_col[order[q]] for q in range(n)]  # qubit q -> target
            swaps = _perm_to_swaps(perm)
            return RecoveredCircuit(tuple(order), tuple(swaps), ())

    # fallback: order modes by their diagonal qubit (no SWAPs), fix the
    # above-diagonal Z cells with CZ gates
    order = sorted(range(n), key=lambda i: m.diag_col[i])
    g, col_of = grid_after(order)
    czs = []
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] == "Z":
                czs.append((i, j))
    perm = [col_of[q] for q in range(n)]
    swaps = _perm_to_swaps(perm)
    return RecoveredCircuit(tuple(order), tuple(swaps), tuple(czs))


# -- extensions making linear Majorana terms quadratic ----------------


def embed_l12(p: PauliString) -> PauliString:
    """Map a linear-or-quadratic chain-form Majorana product on n qubits
    into a quadratic one on n+1 qubits.

    Parity-preserving strings gain a leading I, parity-breaking ones a
    leading X; phases carry over unchanged.
    """
    lead_x = 0 if p.parity_preserving() else 1
    x = np.concatenate([[lead_x], p.x]).astype(np.uint8)
    z = np.concatenate([[0], p.z]).astype(np.uint8)
    return PauliString(x, z, p.phase_exp)


def parity_extended_majoranas(e: Encoding) -> tuple:
    """Lemma-style single-operator extension: gamma_0 = normalized
    product of all Majoranas, gamma'_i = i * gamma_i * gamma_0.

    Returns 2n+1 Hermitian strings (gamma'_0 = gamma_0 first); the
    primed set preserves quadratics and turns each linear gamma_j into
    i * gamma'_0 gamma'_j.
    """
    g0 = PauliString.identity(e.n)
    for c in e.majoranas:
        g0 = g0 * c
    if not g0.is_hermitian():
        g0 = g0.times_i()
    # normalize to prefix +1
    g0 = g0.with_phase_exp(g0.y_count % 4)
    out = [g0]
    for c in e.majoranas:
        out.append((c * g0).times_i())
    return tuple(out)


def parity_extended_h(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadratic coefficient matrix over the primed set equal to the
    original quadratic-plus-linear Hamiltonian i sum h_ij c_i c_j +
    sum b_j c_j."""
    h = np.asarray(h, dtype=float)
    b = np.asarray(b, dtype=float)
    m = h.shape[0]
    hp = np.zeros((m + 1, m + 1))
    hp[1:, 1:] = h
    hp[0, 1:] = b / 2.0
    hp[1:, 0] = -b / 2.0
    return hp
