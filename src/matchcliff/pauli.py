"""Exact algebra of n-qubit Pauli strings with phase tracking.

A string is stored in symplectic form: two bit vectors ``x`` and ``z``
plus an integer phase exponent mod 4.  The represented operator is

    i**phase_exp * (X^x_0 Z^z_0) (x) (X^x_1 Z^z_1) (x) ...

where a site with x = z = 1 is the product XZ = -iY.  Qubit 0 is the
leftmost letter in the text rendering.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PREFIXES = {0: "", 1: "i", 2: "-", 3: "-i"}
_LETTER_OF_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_BITS_OF_LETTER = {v: k for k, v in _LETTER_OF_BITS.items()}

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)
_MATS = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}

DENSE_CAP = 12


class PauliLengthMismatch(ValueError):
    """Operands act on different numbers of qubits."""


@dataclass(frozen=True)
class PauliString:
    x: np.ndarray
    z: np.ndarray
    phase_exp: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.uint8) & 1
        z = np.asarray(self.z, dtype=np.uint8) & 1
        x.flags.writeable = False
        z.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phase_exp", int(self.phase_exp) % 4)
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z must be equal-length 1-d bit vectors")

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), 0)

    @staticmethod
    def single(n: int, qubit: int, letter: str) -> "PauliString":
        """The one-letter string ``letter`` on ``qubit`` (0-based)."""
        if not 0 <= qubit < n:
            raise IndexError(f"qubit {qubit} out of range for n={n}")
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        xb, zb = _BITS_OF_LETTER[letter]
        x[qubit], z[qubit] = xb, zb
        # Y = i * XZ
        return PauliString(x, z, 1 if letter == "Y" else 0)

    @staticmethod
    def from_string(s: str) -> "PauliString":
        """Parse e.g. "XIZY" or "-iXX" (prefix in "", "i", "-", "-i")."""
        s = s.strip()
        g = 0
        if s.startswith("-i"):
            g, s = 3, s[2:]
        elif s.startswith("+i") or s.startswith("i"):
            g, s = 1, s.lstrip("+")[1:]
        elif s.startswith("-"):
            g, s = 2, s[1:]
        elif s.startswith("+"):
            s = s[1:]
        if not s or any(c not in "IXYZ" for c in s):
            raise ValueError(f"bad Pauli string {s!r}")
        x = np.array([_BITS_OF_LETTER[c][0] for c in s], dtype=np.uint8)
        z = np.array([_BITS_OF_LETTER[c][1] for c in s], dtype=np.uint8)
        n_y = sum(1 for c in s if c == "Y")
        return PauliString(x, z, (g + n_y) % 4)

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def y_count(self) -> int:
        return int(np.count_nonzero(self.x & self.z))

    def is_identity(self) -> bool:
        return self.phase_exp == 0 and not self.x.any() and not self.z.any()

    def is_hermitian(self) -> bool:
        return (self.phase_exp - self.y_count) % 2 == 0

    def weight(self) -> int:
        return int(np.sum(self.x | self.z))

    def parity_preserving(self) -> bool:
        """True iff the string flips an even number of bits (even X-part)."""
        return int(np.sum(self.x)) % 2 == 0

    def letters(self) -> str:
        return "".join(
            _LETTER_OF_BITS[(int(a), int(b))] for a, b in zip(self.x, self.z)
        )

    def prefix(self) -> complex:
        """Scalar g with operator = g * (tensor of letters)."""
        return 1j ** ((self.phase_exp - self.y_count) % 4)

    def __str__(self) -> str:
        return _PREFIXES[(self.phase_exp - self.y_count) % 4] + self.letters()

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.phase_exp == other.phase_exp
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.x.tobytes(), self.z.tobytes(), self.phase_exp))

    def equal_up_to_phase(self, other: "PauliString") -> bool:
        return np.array_equal(self.x, other.x) and np.array_equal(self.z, other.z)

    # -- algebra --------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise PauliLengthMismatch(f"{self.n} != {other.n}")
        # Z^z1 X^x2 = (-1)^(z1 x2) X^x2 Z^z1, sitewise
        swaps = int(np.sum(self.z & other.x))
        return PauliString(
            self.x ^ other.x,
            self.z ^ other.z,
            (self.phase_exp + other.phase_exp + 2 * swaps) % 4,
        )

    def __neg__(self) -> "PauliString":
        return PauliString(self.x, self.z, self.phase_exp + 2)

    def with_phase_exp(self, phase_exp: int) -> "PauliString":
        return PauliString(self.x, self.z, phase_exp)

    def times_i(self) -> "PauliString":
        return PauliString(self.x, self.z, self.phase_exp + 1)

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise PauliLengthMismatch(f"{self.n} != {other.n}")
        overlap = int(np.sum(self.x & other.z)) + int(np.sum(self.z & other.x))
        return overlap % 2 == 0

    def symplectic(self) -> np.ndarray:
        """Concatenated (x | z) bit vector, length 2n."""
        return np.concatenate([self.x, self.z])

    # -- basis-state / dense action ------------------------------------

    def apply_to_bits(self, bits: np.ndarray) -> tuple[np.ndarray, complex]:
        """p|bits> = phase |bits'>; exact, for basis states."""
        bits = np.asarray(bits, dtype=np.uint8) & 1
        if bits.shape[0] != self.n:
            raise PauliLengthMismatch(f"{bits.shape[0]} != {self.n}")
        sign_flips = int(np.sum(self.z & bits))
        phase = 1j**self.phase_exp * (-1) ** sign_flips
        return bits ^ self.x, complex(phase)

    def dense(self) -> np.ndarray:
        if self.n > DENSE_CAP:
            raise ValueError(f"dense() capped at {DENSE_CAP} qubits")
        m = np.array([[self.prefix()]])
        for c in self.letters():
            m = np.kron(m, _MATS[c])
        return m
