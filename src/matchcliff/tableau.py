"""Clifford unitaries as conjugation tableaux.

A tableau stores the images C X_i C^dag and C Z_i C^dag as a 2n x 2n
symplectic matrix over GF(2) plus a phase vector mod 4: row k is the
(x | z) vector of the image of X_0..X_{n-1}, Z_0..Z_{n-1}, and the image
is i^phases[k] X^x Z^z, the PauliString convention.  A gate updates a
few columns; conjugation is a vector-matrix product plus a phase sum;
the inverse of M is Omega M^T Omega in closed form (Aaronson-Gottesman,
quant-ph/0406196).  Tableaux are classified into a small hierarchy by
structural predicates on the images (swap networks, CZ+SWAP networks,
basis-permuting Cliffords, everything else), and basis-permuting
tableaux can be applied directly to computational basis states.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString

GATE_NAMES = ("H", "S", "CNOT", "CZ", "SWAP")


class NotAPermutationClifford(ValueError):
    """Raised when a basis-state action is requested of a tableau that
    does not map basis states to basis states."""


class CliffordClass(enum.Enum):
    SWAP_ONLY = "SwapOnly"
    CZ_SWAP = "CzSwap"
    PERMUTATION = "Permutation"
    GENERAL = "General"


@dataclass(frozen=True, eq=False)
class CliffordTableau:
    n: int
    matrix: np.ndarray  # (2n, 2n) bits: row k is the (x | z) vector of image k
    phases: np.ndarray  # (2n,) mod 4: image k is i^phases[k] X^x Z^z

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.uint8) & 1
        e = np.array(self.phases, dtype=np.uint8) & 3
        if m.shape != (2 * self.n, 2 * self.n) or e.shape != (2 * self.n,):
            raise ValueError("need a 2n x 2n matrix and 2n phases")
        m.flags.writeable = False
        e.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "phases", e)

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def identity(n: int) -> "CliffordTableau":
        """The identity on n qubits, one shared instance per n, so that its
        cached order_form is built once."""
        return CliffordTableau(n, np.eye(2 * n, dtype=np.uint8), np.zeros(2 * n, dtype=np.uint8))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.matrix, other.matrix)
            and np.array_equal(self.phases, other.phases)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.matrix.tobytes(), self.phases.tobytes()))

    @functools.cached_property
    def images(self) -> tuple:
        """The 2n images as PauliStrings: X_0..X_{n-1}, then Z_0..Z_{n-1}."""
        return tuple(self._image(k) for k in range(2 * self.n))

    def _image(self, k: int) -> PauliString:
        row = self.matrix[k]
        return PauliString(row[: self.n], row[self.n :], self.phases[k])

    def image_of_x(self, q: int) -> PauliString:
        return self._image(q)

    def image_of_z(self, q: int) -> PauliString:
        return self._image(self.n + q)

    @functools.cached_property
    def order_form(self) -> np.ndarray:
        """U[k, l] = z_k . x_l mod 2 when generator k comes before generator
        l in the factor order X_0, Z_0, X_1, Z_1, ..., else 0.  Multiplying
        out the images selected by v leaves the sign (-1)^(v U v^T)."""
        n = self.n
        m = self.matrix.astype(np.float64)
        g = (m[:, n:] @ m[:, :n].T) % 2
        pos = np.concatenate([2 * np.arange(n), 2 * np.arange(n) + 1])
        return (g * (pos[:, None] < pos[None, :])).astype(np.uint8)

    def conjugate_rows(self, v, phases) -> tuple:
        """C P_r C^dag for the Paulis P_r = i^phases[r] X^x Z^z with
        (x | z) = v[r]: returns their rows v M mod 2 and phases mod 4.  A
        Pauli is the ordered product of its generators, so its image's
        phase is its own, plus the selected images' phases, plus twice
        the number of z_k . x_l overlaps with k before l."""
        # float products keep BLAS; counts up to 2n stay exact, and the
        # integer mask is far cheaper than a float modulo
        v = np.asarray(v, dtype=np.float64)
        rows = ((v @ self.matrix).astype(np.int64) & 1).astype(np.uint8)
        order = ((v @ self.order_form) * v).sum(axis=1)
        out = np.asarray(phases, dtype=np.float64) + v @ self.phases + 2 * order
        return rows, (out.astype(np.int64) & 3).astype(np.uint8)

    def conjugate_pauli(self, p: PauliString) -> PauliString:
        """C p C^dag with exact phase."""
        if p.n != self.n:
            raise ValueError(f"length mismatch: {p.n} != {self.n}")
        rows, phases = self.conjugate_rows(p.symplectic()[None, :], (p.phase_exp,))
        return PauliString(rows[0, : self.n], rows[0, self.n :], phases[0])

    def is_valid(self) -> bool:
        """Images Hermitian and commutation relations of X_i, Z_i preserved:
        M Omega M^T = Omega over GF(2), Omega = [[0, I], [I, 0]]."""
        n = self.n
        y_count = (self.matrix[:, :n] & self.matrix[:, n:]).sum(axis=1)
        if ((self.phases.astype(np.int64) - y_count) % 2).any():
            return False
        m = self.matrix.astype(np.int64)
        omega = np.roll(np.eye(2 * n, dtype=np.int64), n, axis=1)
        return np.array_equal((m @ omega @ m.T) % 2, omega)


def from_gates(n: int, gates) -> CliffordTableau:
    """Tableau of the circuit applying ``gates`` in list order.

    Each gate is (name, qubits...) with name in H,S,CNOT,CZ,SWAP.  It
    conjugates every image at once by updating the x and z columns of its
    qubits, with the phase each update incurs in the i^e X^x Z^z form.
    """
    m = np.eye(2 * n, dtype=np.uint8)
    e = np.zeros(2 * n, dtype=np.uint8)  # wraps mod 256, which keeps it mod 4
    x, z = m[:, :n], m[:, n:]
    for spec in gates:
        name, qubits = spec[0], tuple(spec[1:])
        if name not in GATE_NAMES:
            raise ValueError(f"unknown gate {name!r}")
        if any(not 0 <= q < n for q in qubits):
            raise IndexError(f"qubit out of range in {spec}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit in {spec}")
        if (name in ("H", "S")) != (len(qubits) == 1):
            raise ValueError(f"wrong arity in {spec}")
        if name == "H":  # X <-> Z, and XZ -> ZX = -XZ
            (q,) = qubits
            e += 2 * (x[:, q] & z[:, q])
            m[:, [q, n + q]] = m[:, [n + q, q]]
        elif name == "S":  # X -> iXZ
            (q,) = qubits
            e += x[:, q]
            z[:, q] ^= x[:, q]
        elif name == "CNOT":  # X_c -> X_c X_t, Z_t -> Z_c Z_t
            c, t = qubits
            x[:, t] ^= x[:, c]
            z[:, c] ^= z[:, t]
        elif name == "CZ":  # X_a -> X_a Z_b, X_b -> Z_a X_b
            a, b = qubits
            e += 2 * (x[:, a] & x[:, b])
            z[:, a] ^= x[:, b]
            z[:, b] ^= x[:, a]
        else:
            a, b = qubits
            m[:, [a, b, n + a, n + b]] = m[:, [b, a, n + b, n + a]]
    return CliffordTableau(n, m, e)


def compose(a: CliffordTableau, b: CliffordTableau) -> CliffordTableau:
    """Tableau of "apply b, then a" (unitary a.b)."""
    if a.n != b.n:
        raise ValueError("length mismatch")
    return CliffordTableau(a.n, *a.conjugate_rows(b.matrix, b.phases))


def invert(a: CliffordTableau) -> CliffordTableau:
    """Tableau t with compose(t, a) = identity.

    A symplectic M has the inverse Omega M^T Omega: with M = [[A, B],
    [C, D]] that is [[D^T, B^T], [C^T, A^T]].  Row k of it is the Pauli
    part of a^dag g_k a; its phase is the one that a's conjugation of
    that row cancels.
    """
    n = a.n
    m = a.matrix
    m_inv = np.block([[m[n:, n:].T, m[:n, n:].T], [m[n:, :n].T, m[:n, :n].T]])
    fwd, phases = a.conjugate_rows(m_inv, np.zeros(2 * n))
    if not np.array_equal(fwd, np.eye(2 * n, dtype=np.uint8)):
        raise ValueError("tableau matrix is not symplectic")
    return CliffordTableau(n, m_inv, (4 - phases.astype(np.int64)) % 4)


def classify(t: CliffordTableau) -> CliffordClass:
    n = t.n
    m, e = t.matrix, t.phases.astype(np.int64)
    x_of_x, z_of_x = m[:n, :n], m[:n, n:]
    x_of_z, z_of_z = m[n:, :n], m[n:, n:]
    # basis-permuting: every Z image is a signed product of Z letters
    if x_of_z.any():
        return CliffordClass.GENERAL
    # the swap and CZ+swap classes map Z_i to +Z_pi(i) and X_i to
    # +X_pi(i) times Z letters
    if (z_of_z.sum(axis=1) == 1).all() and not e[n:].any():
        pi = z_of_z.argmax(axis=1)
        y_count = (x_of_x & z_of_x).sum(axis=1)
        if np.array_equal(x_of_x, np.eye(n, dtype=np.uint8)[pi]) and not (
            (e[:n] - y_count) % 4
        ).any():
            return CliffordClass.CZ_SWAP if z_of_x.any() else CliffordClass.SWAP_ONLY
    return CliffordClass.PERMUTATION


def basis_map(t: CliffordTableau) -> tuple:
    """(A, b) with t|x> = phase |A x + b mod 2>, for a basis-permuting t.

    Column j of A is the X part of t X_j t^dag, and b is the image of
    |0...0>.  With M = [[P, Q], [0, Z]], the Z images (-1)^r_j Z^(row j
    of Z) fix t|0...0>, so Z b = r; the symplectic condition P Z^T = I
    makes Z^-1 = P^T = A, so b = A r.
    """
    n = t.n
    if t.matrix[n:, :n].any():
        raise NotAPermutationClifford("tableau does not permute basis states")
    a = np.ascontiguousarray(t.matrix[:n, :n].T)
    r = t.phases[n:] >> 1  # a Hermitian Z image has phase 0 or 2
    return a, ((a.astype(np.int64) @ r) & 1).astype(np.uint8)


def basis_action(t: CliffordTableau, bits) -> tuple:
    """t|bits> = phase |bits'>, with the convention t|0...0> = +|b>.

    Only defined for basis-permuting tableaux.
    """
    _, b = basis_map(t)
    n = t.n
    bits = np.asarray(bits, dtype=np.uint8) & 1
    if bits.shape[0] != n:
        raise ValueError("bitstring length mismatch")
    # t|x> = (t X^x t^dag) t|0> = Q |b>
    q = t.conjugate_pauli(PauliString(bits, np.zeros(n, dtype=np.uint8), 0))
    return q.apply_to_bits(b)


def random_tableau(n: int, seed: int) -> CliffordTableau:
    """Seeded tableau from a random word of 6n + 12 generator gates (not
    Haar uniform)."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(6 * n + 12):
        name = GATE_NAMES[rng.integers(len(GATE_NAMES))]
        if name in ("H", "S"):
            gates.append((name, int(rng.integers(n))))
        else:
            if n < 2:
                gates.append(("S", 0))
                continue
            a, b = rng.choice(n, size=2, replace=False)
            gates.append((name, int(a), int(b)))
    return from_gates(n, gates)
