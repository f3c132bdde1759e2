"""Dense state-vector reference, written from the circuit definitions
alone (it imports nothing from matchcliff).

Conventions, as the circuit file format defines them: qubit 0 is the
leftmost letter of a Pauli string and the first axis of the state
tensor; a matchgate on (k, k+1) is exp(-iH) with
H = a0 YY + a1 XX + b1 YX + b2 XY + d1 ZI + d2 IZ; a product input puts
qubit q in cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>; a quadratic
layer is exp(-iH) with H = i sum_jk h_jk c_j c_k over the chain-form
Majoranas c_{2i} = Z..Z X_i, c_{2i+1} = Z..Z Y_i.

The covariance helpers build gamma_jk = -(i/2)<[c_j, c_k]> of a basis
state evolved by one quadratic layer without any dense state, for the
large-n readout checks; `dense_covariance` checks that construction at
small n.
"""
from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER = {"I": I2, "X": X, "Y": Y, "Z": Z}

CLIFFORD = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}

# single-qubit letter products: a * b = phase * c
_MUL = {
    ("X", "Y"): (1j, "Z"), ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"), ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"), ("X", "Z"): (-1j, "Y"),
}


def expm_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h, by eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def matchgate_unitary(coeffs) -> np.ndarray:
    a0, a1, b1, b2, d1, d2 = coeffs
    h = (
        a0 * np.kron(Y, Y)
        + a1 * np.kron(X, X)
        + b1 * np.kron(Y, X)
        + b2 * np.kron(X, Y)
        + d1 * np.kron(Z, I2)
        + d2 * np.kron(I2, Z)
    )
    return expm_hermitian(h)


def basis_state(bits) -> np.ndarray:
    psi = np.zeros((2,) * len(bits), dtype=complex)
    psi[tuple(int(b) for b in bits)] = 1.0
    return psi


def product_state(angles) -> np.ndarray:
    psi = np.ones((), dtype=complex)
    for theta, phi in angles:
        local = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
        psi = np.multiply.outer(psi, local)
    return psi


def apply(psi: np.ndarray, u: np.ndarray, qubits) -> np.ndarray:
    """Apply a 2^k x 2^k unitary to the given qubits (first qubit most
    significant in u)."""
    k = len(qubits)
    t = np.moveaxis(psi, qubits, range(k))
    shape = t.shape
    t = (u @ t.reshape(2**k, -1)).reshape(shape)
    return np.moveaxis(t, range(k), qubits)


def run_layers(psi: np.ndarray, layers) -> np.ndarray:
    """Apply layers given as ("matchgate", k, coeffs) or
    ("clifford", name, qubits) tuples, in order."""
    for lay in layers:
        if lay[0] == "matchgate":
            psi = apply(psi, matchgate_unitary(lay[2]), (lay[1], lay[1] + 1))
        else:
            psi = apply(psi, CLIFFORD[lay[1]], tuple(lay[2]))
    return psi


def clifford_unitary(n: int, gates) -> np.ndarray:
    """Dense unitary of Clifford gates (name, qubits) applied in order."""
    cols = np.eye(2**n, dtype=complex).reshape((2,) * n + (2**n,))
    for name, qubits in gates:
        cols = apply(cols, CLIFFORD[name], tuple(qubits))
    return cols.reshape(2**n, 2**n)


def pauli_matrix(text: str) -> np.ndarray:
    """Dense matrix of a signed letter string such as "-XZIY"."""
    sign = -1.0 if text.startswith("-") else 1.0
    m = np.array([[sign]], dtype=complex)
    for c in text.lstrip("+-"):
        m = np.kron(m, LETTER[c])
    return m


def expectation(psi: np.ndarray, text: str) -> float:
    v = psi.reshape(-1)
    val = np.vdot(v, pauli_matrix(text) @ v)
    return float(val.real)


def marginal(psi: np.ndarray, qubits, bits) -> float:
    probs = np.abs(psi) ** 2
    index = [slice(None)] * psi.ndim
    for q, b in zip(qubits, bits):
        index[q] = int(b)
    return float(np.sum(probs[tuple(index)]))


def majorana_letters(n: int, j: int) -> str:
    q = j // 2
    return "Z" * q + ("X" if j % 2 == 0 else "Y") + "I" * (n - q - 1)


def majorana_product(n: int, indices) -> tuple:
    """(phase, letters) with c_{i1} c_{i2} ... = phase * letters."""
    phase = 1.0 + 0j
    letters = ["I"] * n
    for j in indices:
        for q, b in enumerate(majorana_letters(n, j)):
            a = letters[q]
            if b == "I":
                continue
            if a == "I":
                letters[q] = b
            elif a == b:
                letters[q] = "I"
            else:
                p, c = _MUL[(a, b)]
                phase *= p
                letters[q] = c
    return phase, "".join(letters)


def hermitian_majorana_string(n: int, indices) -> str:
    """Signed letter string of the Hermitian monomial i^{d(d-1)/2}
    c_{i1}...c_{id} (ascending indices, d = len(indices))."""
    d = len(indices)
    phase, letters = majorana_product(n, sorted(indices))
    phase *= 1j ** (d * (d - 1) // 2)
    if abs(phase.imag) > 1e-12:
        raise ValueError("monomial is not Hermitian")
    return ("-" if phase.real < 0 else "") + letters


def pauli_from_matrix(n: int, a: np.ndarray) -> str:
    """Signed letter string of a dense Hermitian Pauli matrix."""
    x = int(np.argmax(np.abs(a[:, 0])))
    base = a[x, 0]
    letters = []
    for q in range(n):
        bit = 1 << (n - 1 - q)
        xq = (x >> (n - 1 - q)) & 1
        zq = int(np.real(a[x ^ bit, bit] / base) < 0)
        letters.append({(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}[(xq, zq)])
    text = "".join(letters)
    g = base / (1j ** text.count("Y"))
    if abs(abs(g) - 1.0) > 1e-9 or abs(g.imag) > 1e-9:
        raise ValueError("matrix is not a Hermitian Pauli string")
    if np.max(np.abs(a - pauli_matrix(text) * g.real)) > 1e-9:
        raise ValueError("matrix is not a Pauli string")
    return ("-" if g.real < 0 else "") + text


# -- covariance matrices ------------------------------------------------


def majorana_matrices(n: int) -> list:
    return [pauli_matrix(majorana_letters(n, j)) for j in range(2 * n)]


def quadratic_unitary(h: np.ndarray) -> np.ndarray:
    """Dense exp(-iH), H = i sum_jk h_jk c_j c_k (small n only)."""
    n = h.shape[0] // 2
    cs = majorana_matrices(n)
    ham = np.zeros((2**n, 2**n), dtype=complex)
    for j in range(2 * n):
        for k in range(2 * n):
            if h[j, k] != 0.0:
                ham += 1j * h[j, k] * (cs[j] @ cs[k])
    return expm_hermitian(ham)


def dense_covariance(psi: np.ndarray) -> np.ndarray:
    n = psi.ndim
    v = psi.reshape(-1)
    cs = majorana_matrices(n)
    g = np.zeros((2 * n, 2 * n))
    for j in range(2 * n):
        for k in range(j + 1, 2 * n):
            comm = cs[j] @ cs[k] - cs[k] @ cs[j]
            g[j, k] = (-0.5j * np.vdot(v, comm @ v)).real
            g[k, j] = -g[j, k]
    return g


def basis_covariance(bits) -> np.ndarray:
    """gamma of |bits>: gamma_{2i,2i+1} = <Z_i> = (-1)^{b_i}."""
    n = len(bits)
    g = np.zeros((2 * n, 2 * n))
    for i, b in enumerate(bits):
        s = 1.0 - 2.0 * int(b)
        g[2 * i, 2 * i + 1] = s
        g[2 * i + 1, 2 * i] = -s
    return g


def quadratic_rotation(h: np.ndarray) -> np.ndarray:
    """R = exp(4h): exp(-iH) c_j exp(iH) = sum_k exp(-4h)_jk c_k, so the
    covariance moves as gamma -> R gamma R^T."""
    w, v = np.linalg.eigh(-4j * h)  # 4h = i K with K Hermitian
    return ((v * np.exp(1j * w)) @ v.conj().T).real


def evolved_covariance(bits, h: np.ndarray) -> np.ndarray:
    r = quadratic_rotation(h)
    return r @ basis_covariance(bits) @ r.T


def marginal_from_covariance(gamma: np.ndarray, qubits, bits) -> float:
    """2^-k sqrt|det(Gamma_S + D)|, D the block-diagonal outcome signs."""
    idx = [j for q in qubits for j in (2 * q, 2 * q + 1)]
    sub = gamma[np.ix_(idx, idx)].copy()
    for i, b in enumerate(bits):
        s = 1.0 - 2.0 * int(b)
        sub[2 * i, 2 * i + 1] += s
        sub[2 * i + 1, 2 * i] -= s
    sign, logdet = np.linalg.slogdet(sub)
    if sign == 0:
        return 0.0
    return float(np.exp(0.5 * logdet - len(qubits) * np.log(2.0)))


def squared_expectation_from_covariance(gamma: np.ndarray, indices) -> float:
    """|<i^{d(d-1)/2} c_I>|^2 = det(Gamma_I) (Wick: the value is Pf)."""
    idx = list(indices)
    return float(np.linalg.det(gamma[np.ix_(idx, idx)]))
