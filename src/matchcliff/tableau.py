"""Clifford unitaries as conjugation tableaux.

A tableau stores the images C X_i C^dag and C Z_i C^dag as phased
PauliStrings.  Conjugation of an arbitrary string is linear over the
symplectic representation, with exact phase bookkeeping.  Tableaux are
classified into a small hierarchy by structural predicates on the
images (swap networks, CZ+SWAP networks, basis-permuting Cliffords,
everything else), and basis-permuting tableaux can be applied directly
to computational basis states.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import f2
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


@dataclass(frozen=True)
class CliffordTableau:
    n: int
    images: tuple  # 2n PauliStrings: images of X_0..X_{n-1}, Z_0..Z_{n-1}

    def __post_init__(self):
        if len(self.images) != 2 * self.n:
            raise ValueError("need 2n image strings")
        object.__setattr__(self, "images", tuple(self.images))

    @staticmethod
    def identity(n: int) -> "CliffordTableau":
        imgs = [PauliString.single(n, q, "X") for q in range(n)]
        imgs += [PauliString.single(n, q, "Z") for q in range(n)]
        return CliffordTableau(n, tuple(imgs))

    def image_of_x(self, q: int) -> PauliString:
        return self.images[q]

    def image_of_z(self, q: int) -> PauliString:
        return self.images[self.n + q]

    def conjugate_pauli(self, p: PauliString) -> PauliString:
        """C p C^dag with exact phase."""
        if p.n != self.n:
            raise ValueError(f"length mismatch: {p.n} != {self.n}")
        out = PauliString.identity(self.n).with_phase_exp(p.phase_exp)
        for j in range(self.n):
            if p.x[j]:
                out = out * self.images[j]
            if p.z[j]:
                out = out * self.images[self.n + j]
        return out

    def symplectic_matrix(self) -> np.ndarray:
        """2n x 2n F2 matrix with row k = symplectic vector of image k."""
        return np.stack([img.symplectic() for img in self.images])

    def is_valid(self) -> bool:
        """Images Hermitian and commutation relations of X_i, Z_i preserved."""
        if any(not img.is_hermitian() for img in self.images):
            return False
        n = self.n
        for a in range(2 * n):
            for b in range(a + 1, 2 * n):
                # generators a,b anticommute iff they are the X,Z pair
                # of one qubit
                should = not (b == a + n)
                if self.images[a].commutes_with(self.images[b]) != should:
                    return False
        return True


def _elementary_images(n: int, gate: str, qubits: tuple) -> dict:
    """Nontrivial conjugation images of one generator gate, as a map
    from (kind, qubit) to PauliString, kind in {"X","Z"}."""
    X, Z, Y = (lambda q: PauliString.single(n, q, "X"),
               lambda q: PauliString.single(n, q, "Z"),
               lambda q: PauliString.single(n, q, "Y"))
    if gate == "H":
        (q,) = qubits
        return {("X", q): Z(q), ("Z", q): X(q)}
    if gate == "S":
        (q,) = qubits
        return {("X", q): Y(q), ("Z", q): Z(q)}
    if gate == "CNOT":
        c, t = qubits
        return {
            ("X", c): X(c) * X(t),
            ("X", t): X(t),
            ("Z", c): Z(c),
            ("Z", t): Z(c) * Z(t),
        }
    if gate == "CZ":
        a, b = qubits
        return {
            ("X", a): X(a) * Z(b),
            ("X", b): Z(a) * X(b),
            ("Z", a): Z(a),
            ("Z", b): Z(b),
        }
    if gate == "SWAP":
        a, b = qubits
        return {
            ("X", a): X(b),
            ("X", b): X(a),
            ("Z", a): Z(b),
            ("Z", b): Z(a),
        }
    raise ValueError(f"unknown gate {gate!r}")


def _conjugate_by_gate(p: PauliString, n: int, gate: str, qubits: tuple) -> PauliString:
    imgs = _elementary_images(n, gate, qubits)
    out = PauliString.identity(n).with_phase_exp(p.phase_exp)
    for j in range(n):
        if p.x[j]:
            out = out * imgs.get(("X", j), PauliString.single(n, j, "X"))
        if p.z[j]:
            out = out * imgs.get(("Z", j), PauliString.single(n, j, "Z"))
    return out


def from_gates(n: int, gates) -> CliffordTableau:
    """Tableau of the circuit applying ``gates`` in list order.

    Each gate is (name, qubits...) with name in H,S,CNOT,CZ,SWAP.
    """
    images = list(CliffordTableau.identity(n).images)
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
        images = [_conjugate_by_gate(img, n, name, qubits) for img in images]
    return CliffordTableau(n, tuple(images))


def compose(a: CliffordTableau, b: CliffordTableau) -> CliffordTableau:
    """Tableau of "apply b, then a" (unitary a.b)."""
    if a.n != b.n:
        raise ValueError("length mismatch")
    return CliffordTableau(a.n, tuple(a.conjugate_pauli(img) for img in b.images))


def invert(a: CliffordTableau) -> CliffordTableau:
    """Tableau t with compose(t, a) = identity."""
    n = a.n
    m_inv = f2.invert(a.symplectic_matrix())
    images = []
    for k in range(2 * n):
        vec = m_inv[k]
        cand = PauliString.from_symplectic(vec)
        cand = cand.with_phase_exp(cand.y_count % 4)  # sign +, Hermitian
        # fix the sign by conjugating forward
        target = CliffordTableau.identity(n).images[k]
        fwd = a.conjugate_pauli(cand)
        if fwd == target:
            images.append(cand)
        elif fwd == -target:
            images.append(-cand)
        else:
            raise AssertionError("inverse image mismatch beyond sign")
    return CliffordTableau(n, tuple(images))


def classify(t: CliffordTableau) -> CliffordClass:
    n = t.n
    # permutation pi from the Z images, if they are single +Z letters
    pi = [None] * n
    z_single = True
    for i in range(n):
        img = t.image_of_z(i)
        if img.x.any() or int(np.sum(img.z)) != 1 or img.prefix() != 1:
            z_single = False
            break
        pi[i] = int(np.argmax(img.z))
    if z_single:
        swap_only = True
        cz_swap = True
        for i in range(n):
            img = t.image_of_x(i)
            e_pi = np.zeros(n, dtype=np.uint8)
            e_pi[pi[i]] = 1
            if not (np.array_equal(img.x, e_pi) and img.prefix() == 1):
                cz_swap = False
                swap_only = False
                break
            if img.z.any():
                swap_only = False
        if swap_only:
            return CliffordClass.SWAP_ONLY
        if cz_swap:
            return CliffordClass.CZ_SWAP
    # basis-permuting: every Z image is a signed product of Z letters
    if all(not t.image_of_z(i).x.any() for i in range(n)):
        return CliffordClass.PERMUTATION
    return CliffordClass.GENERAL


def basis_action(t: CliffordTableau, bits) -> tuple:
    """t|bits> = phase |bits'>, with the convention t|0...0> = +|b>.

    Only defined for basis-permuting tableaux.
    """
    if classify(t) == CliffordClass.GENERAL:
        raise NotAPermutationClifford("tableau does not permute basis states")
    n = t.n
    bits = np.asarray(bits, dtype=np.uint8) & 1
    if bits.shape[0] != n:
        raise ValueError("bitstring length mismatch")
    # b solves <b| C Z_j C^dag |b> = +1 for all j
    a_mat = np.stack([t.image_of_z(j).z for j in range(n)])
    rhs = np.array(
        [0 if t.image_of_z(j).prefix() == 1 else 1 for j in range(n)],
        dtype=np.uint8,
    )
    b = f2.solve(a_mat, rhs)
    # t|x> = (t X^x t^dag) t|0> = Q |b>
    q = t.conjugate_pauli(PauliString(bits, np.zeros(n, dtype=np.uint8), 0))
    out_bits, phase = q.apply_to_bits(b)
    return out_bits, phase


def random_tableau(n: int, seed: int, num_gates: int | None = None) -> CliffordTableau:
    """Seeded tableau from a random generator-gate word (not Haar uniform)."""
    rng = np.random.default_rng(seed)
    if num_gates is None:
        num_gates = 6 * n + 12
    gates = []
    for _ in range(num_gates):
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


def stabilizer_state_to_encoding(t: CliffordTableau):
    """Majorana set making the stabilizer state t|0...0> Gaussian.

    Elementwise conjugation of the standard chain-form Majoranas.
    """
    from .encodings import Encoding, jordan_wigner

    jw = jordan_wigner(t.n)
    return Encoding(tuple(t.conjugate_pauli(c) for c in jw.majoranas))
