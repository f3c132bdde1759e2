import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcliff import f2, oracle, tableau
from matchcliff.pauli import PauliString
from matchcliff.tableau import (
    CliffordClass,
    CliffordTableau,
    NotAPermutationClifford,
    basis_action,
    classify,
    compose,
    from_gates,
    invert,
    random_tableau,
)

from conftest import random_clifford_gates, random_pauli_string


def dense_unitary(n, gates):
    u = np.eye(2**n, dtype=complex)
    for g in gates:
        full = np.zeros((2**n, 2**n), dtype=complex)
        for col in range(2**n):
            v = np.zeros(2**n, dtype=complex)
            v[col] = 1.0
            s = oracle.apply_clifford_gate(oracle.DenseState(n, v), g.gate, g.qubits)
            full[:, col] = s.amp
        u = full @ u
    return u


def test_identity_tableau_fixes_all_paulis():
    t = CliffordTableau.identity(3)
    for q in range(3):
        assert t.image_of_x(q) == PauliString.single(3, q, "X")
        assert t.image_of_z(q) == PauliString.single(3, q, "Z")


def test_conjugation_matches_dense():
    rng = np.random.default_rng(0)
    n = 3
    for trial in range(20):
        gates = random_clifford_gates(rng, n, 5)
        t = from_gates(n, [(g.gate, *g.qubits) for g in gates])
        u = dense_unitary(n, gates)
        for _ in range(4):
            p = random_pauli_string(rng, n)
            got = t.conjugate_pauli(p).dense()
            want = u @ p.dense() @ u.conj().T
            assert np.allclose(got, want, atol=1e-10)


def test_compose_and_invert():
    rng = np.random.default_rng(1)
    n = 3
    for trial in range(15):
        ga = random_clifford_gates(rng, n, 4)
        gb = random_clifford_gates(rng, n, 4)
        a = from_gates(n, [(g.gate, *g.qubits) for g in ga])
        b = from_gates(n, [(g.gate, *g.qubits) for g in gb])
        ab = compose(a, b)
        both = from_gates(
            n, [(g.gate, *g.qubits) for g in gb] + [(g.gate, *g.qubits) for g in ga]
        )
        assert ab.images == both.images
        ident = compose(a, invert(a))
        assert ident.images == CliffordTableau.identity(n).images


def test_random_tableau_is_valid_and_seeded():
    for n in (2, 4):
        t1 = random_tableau(n, seed=7)
        t2 = random_tableau(n, seed=7)
        assert t1.images == t2.images
        assert t1.is_valid()


def test_classify_hierarchy():
    n = 3
    swap = from_gates(n, [("SWAP", 0, 2)])
    assert classify(swap) == CliffordClass.SWAP_ONLY
    czsw = from_gates(n, [("SWAP", 0, 1), ("CZ", 1, 2)])
    assert classify(czsw) == CliffordClass.CZ_SWAP
    perm = from_gates(n, [("CNOT", 0, 1), ("S", 2)])
    assert classify(perm) == CliffordClass.PERMUTATION
    gen = from_gates(n, [("H", 0)])
    assert classify(gen) == CliffordClass.GENERAL


def test_classify_is_upward_closed():
    # each class is also a member of the weaker classes' supersets
    n = 2
    ident = CliffordTableau.identity(n)
    assert classify(ident) == CliffordClass.SWAP_ONLY


def test_basis_action_cz_phase():
    t = from_gates(2, [("CZ", 0, 1)])
    bits, phase = basis_action(t, (1, 1))
    assert tuple(bits) == (1, 1) and phase == -1
    bits, phase = basis_action(t, (1, 0))
    assert tuple(bits) == (1, 0) and phase == 1


def test_basis_action_cnot_and_swap():
    t = from_gates(2, [("CNOT", 0, 1)])
    bits, phase = basis_action(t, (1, 0))
    assert tuple(bits) == (1, 1) and phase == 1
    t = from_gates(3, [("SWAP", 0, 2)])
    bits, phase = basis_action(t, (1, 0, 0))
    assert tuple(bits) == (0, 0, 1) and phase == 1


def test_basis_action_matches_dense():
    rng = np.random.default_rng(3)
    n = 3
    checked = 0
    for trial in range(30):
        gates = random_clifford_gates(rng, n, 5, names=("S", "CNOT", "CZ", "SWAP"))
        t = from_gates(n, [(g.gate, *g.qubits) for g in gates])
        u = dense_unitary(n, gates)
        # fix the dense global phase with the tableau's |0...0> convention
        b0, _ = basis_action(t, (0,) * n)
        col0 = u[:, 0]
        idx0 = int("".join(str(int(x)) for x in b0), 2)
        g = col0[idx0]
        assert abs(abs(g) - 1) < 1e-10
        u = u / g
        for _ in range(4):
            bits = rng.integers(0, 2, size=n)
            ob, phase = basis_action(t, bits)
            col = u[:, int("".join(map(str, bits)), 2)]
            want_idx = int(np.argmax(np.abs(col)))
            assert want_idx == int("".join(str(int(x)) for x in ob), 2)
            assert abs(col[want_idx] - phase) < 1e-10
            checked += 1
    assert checked > 0


def test_basis_action_rejects_general_cliffords():
    t = from_gates(2, [("H", 0)])
    with pytest.raises(NotAPermutationClifford):
        basis_action(t, (0, 0))


def test_stabilizer_state_encoding_is_valid():
    from matchcliff.encodings import conjugate_encoding, jordan_wigner, validate

    t = random_tableau(4, seed=11)
    enc = conjugate_encoding(jordan_wigner(4), t)
    assert validate(enc) == []


def reference_conjugate(t, p):
    """C p C^dag as the ordered product of the selected images."""
    out = PauliString.identity(t.n).with_phase_exp(p.phase_exp)
    for j in range(t.n):
        if p.x[j]:
            out = out * t.images[j]
        if p.z[j]:
            out = out * t.images[t.n + j]
    return out


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_from_gates_matches_the_dense_unitary_with_exact_phases(n, seed):
    rng = np.random.default_rng(seed)
    gates = random_clifford_gates(rng, n, 3 * n)
    t = from_gates(n, [(g.gate, *g.qubits) for g in gates])
    u = dense_unitary(n, gates)
    for k, img in enumerate(t.images):
        letter, q = ("X", k) if k < n else ("Z", k - n)
        want = u @ PauliString.single(n, q, letter).dense() @ u.conj().T
        assert np.max(np.abs(img.dense() - want)) <= 1e-10


@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_conjugate_pauli_equals_the_ordered_product_of_images(n, seed, phase):
    rng = np.random.default_rng(seed)
    t = random_tableau(n, seed)
    x, z = rng.integers(0, 2, size=(2, n))
    p = PauliString(x, z, phase)
    assert t.conjugate_pauli(p) == reference_conjugate(t, p)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_invert_is_a_two_sided_inverse(n, seed):
    t = random_tableau(n, seed)
    inv = invert(t)
    ident = CliffordTableau.identity(n)
    assert compose(inv, t) == ident
    assert compose(t, inv) == ident
    assert inv.is_valid()


def test_invert_and_compose_use_no_f2_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("GF(2) elimination")

    # rank and solve both eliminate through _eliminate
    monkeypatch.setattr(f2, "_eliminate", refuse)
    t = random_tableau(5, seed=3)
    assert compose(t, invert(t)) == CliffordTableau.identity(5)


def test_invert_refuses_a_matrix_that_is_not_symplectic():
    t = CliffordTableau(2, np.ones((4, 4), dtype=np.uint8), np.zeros(4, dtype=np.uint8))
    assert not t.is_valid()
    with pytest.raises(ValueError):
        invert(t)


def test_tableau_equality_is_exact():
    t = from_gates(3, [("H", 0), ("CNOT", 0, 2)])
    assert t == from_gates(3, [("H", 0), ("CNOT", 0, 2)])
    assert hash(t) == hash(from_gates(3, [("H", 0), ("CNOT", 0, 2)]))
    # S^2 and Z have the same Pauli parts but differ by the sign of X's image
    s2 = from_gates(3, [("S", 1), ("S", 1)])
    assert np.array_equal(s2.matrix, CliffordTableau.identity(3).matrix)
    assert s2 != CliffordTableau.identity(3)
    assert s2.image_of_x(1) == -PauliString.single(3, 1, "X")


@given(st.integers(min_value=1, max_value=32), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_basis_map_solves_for_the_zero_image_in_closed_form(n, seed):
    rng = np.random.default_rng(seed)
    names = ("S", "CNOT", "CZ", "SWAP") if n > 1 else ("S",)
    gates = [(g.gate, *g.qubits) for g in random_clifford_gates(rng, n, 4 * n, names=names)]
    # X = H S S H flips signs of Z images, which the other gates never do
    for q in rng.choice(n, size=int(rng.integers(n + 1)), replace=False):
        at = int(rng.integers(len(gates) + 1))
        gates[at:at] = [("H", int(q)), ("S", int(q)), ("S", int(q)), ("H", int(q))]
    t = from_gates(n, gates)
    a, b = tableau.basis_map(t)
    z_rows = t.matrix[n:, n:]
    signs = t.phases[n:] >> 1
    assert np.array_equal(b, f2.solve(z_rows, signs))
    assert np.array_equal(a, t.matrix[:n, :n].T)
    x = rng.integers(0, 2, size=n)
    bits, _ = basis_action(t, x)
    assert np.array_equal(bits, (a @ x + b) & 1)


def test_basis_action_needs_no_solve_or_classify(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-call solve or classification")

    monkeypatch.setattr(f2, "solve", refuse)
    monkeypatch.setattr(tableau, "classify", refuse)
    t = from_gates(3, [("CNOT", 0, 1), ("S", 2), ("CZ", 1, 2)])
    bits, phase = basis_action(t, (1, 1, 1))
    assert tuple(bits) == (1, 0, 1) and phase == 1j
    with pytest.raises(NotAPermutationClifford):
        basis_action(from_gates(3, [("H", 0)]), (0, 0, 0))
