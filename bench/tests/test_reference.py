"""Closed-form cases for the benchmark's dense reference."""
import numpy as np
import pytest

import reference as ref
import workloads


def test_basis_state_marginals():
    psi = ref.basis_state((0, 1, 1))
    assert ref.marginal(psi, (1,), (1,)) == 1.0
    assert ref.marginal(psi, (0,), (1,)) == 0.0
    assert ref.marginal(psi, (2, 0), (1, 0)) == 1.0
    assert ref.expectation(psi, "ZZI") == -1.0
    assert ref.expectation(psi, "-IZZ") == -1.0


@pytest.mark.parametrize(
    "name, qubits, bits, after",
    [
        ("SWAP", (0, 1), (0, 1), (1, 0)),
        ("CNOT", (0, 1), (1, 0), (1, 1)),
        ("CNOT", (1, 0), (0, 1), (1, 1)),
        ("CZ", (0, 1), (1, 1), (1, 1)),
    ],
)
def test_two_qubit_cliffords_on_basis_states(name, qubits, bits, after):
    psi = ref.run_layers(ref.basis_state(bits), [("clifford", name, qubits)])
    assert ref.marginal(psi, (0, 1), after) == pytest.approx(1.0)


def test_single_qubit_cliffords():
    plus = ref.run_layers(ref.basis_state((0,)), [("clifford", "H", (0,))])
    assert ref.expectation(plus, "X") == pytest.approx(1.0)
    plus_i = ref.run_layers(plus, [("clifford", "S", (0,))])
    assert ref.expectation(plus_i, "Y") == pytest.approx(1.0)
    # CZ flips the sign of X on a |+>|1> pair
    psi = ref.run_layers(ref.basis_state((0, 1)), [("clifford", "H", (0,)), ("clifford", "CZ", (0, 1))])
    assert ref.expectation(psi, "XI") == pytest.approx(-1.0)


@pytest.mark.parametrize("t", [0.3, 1.1])
def test_one_matchgate(t):
    # exp(-i t XX)|00> = cos t |00> - i sin t |11>
    psi = ref.run_layers(ref.basis_state((0, 0)), [("matchgate", 0, (0, t, 0, 0, 0, 0))])
    assert ref.marginal(psi, (0, 1), (1, 1)) == pytest.approx(np.sin(t) ** 2)
    assert ref.expectation(psi, "ZZ") == pytest.approx(1.0)
    # exp(-i t YY)|00> = cos t |00> + i sin t |11>
    psi = ref.run_layers(ref.basis_state((0, 0)), [("matchgate", 0, (t, 0, 0, 0, 0, 0))])
    assert ref.marginal(psi, (0,), (1,)) == pytest.approx(np.sin(t) ** 2)
    # Z terms only add phases to basis states
    psi = ref.run_layers(ref.basis_state((1, 0)), [("matchgate", 0, (0, 0, 0, 0, t, -t))])
    assert ref.marginal(psi, (0, 1), (1, 0)) == pytest.approx(1.0)
    # a matchgate on (1, 2) leaves qubit 0 alone
    psi = ref.run_layers(ref.basis_state((1, 0, 0)), [("matchgate", 1, (0, t, 0, 0, 0, 0))])
    assert ref.marginal(psi, (0, 1, 2), (1, 1, 1)) == pytest.approx(np.sin(t) ** 2)


def test_product_state_bloch_vector():
    theta, phi = 0.7, 2.1
    psi = ref.product_state(((theta, phi), (0.0, 0.0)))
    assert ref.expectation(psi, "ZI") == pytest.approx(np.cos(theta))
    assert ref.expectation(psi, "XI") == pytest.approx(np.sin(theta) * np.cos(phi))
    assert ref.expectation(psi, "YI") == pytest.approx(np.sin(theta) * np.sin(phi))
    assert ref.expectation(psi, "IZ") == pytest.approx(1.0)


def test_majorana_strings():
    assert ref.majorana_letters(3, 3) == "ZYI"
    # c0 c1 = X Y = i Z, so the Hermitian i c0 c1 is -Z
    assert ref.hermitian_majorana_string(1, (0, 1)) == "-Z"
    # c0 c2 = (X Z) X = -i Y X
    assert ref.majorana_product(2, (0, 2)) == (-1j, "YX")
    for text in ("XZ", "-YY", "IXZY"):
        assert ref.pauli_from_matrix(len(text.lstrip("-")), ref.pauli_matrix(text)) == text


def test_clifford_pullback_is_a_pauli_string():
    # H X H = Z; CNOT (X on control) CNOT = X X
    h = ref.clifford_unitary(1, [("H", (0,))])
    assert ref.pauli_from_matrix(1, h.conj().T @ ref.pauli_matrix("X") @ h) == "Z"
    cx = ref.clifford_unitary(2, [("CNOT", (0, 1))])
    assert ref.pauli_from_matrix(2, cx.conj().T @ ref.pauli_matrix("XI") @ cx) == "XX"
    s = ref.clifford_unitary(1, [("S", (0,))])
    assert ref.pauli_from_matrix(1, s.conj().T @ ref.pauli_matrix("Y") @ s) == "X"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_covariance_construction_matches_dense_state(seed):
    assert workloads.LargeReadout.dense_construction_errors(seed) == []


def test_covariance_formulas_match_dense_state():
    rng = np.random.default_rng(7)
    n = 4
    bits = (1, 0, 0, 1)
    h = rng.normal(size=(2 * n, 2 * n)) * 0.3
    h = h - h.T
    psi = (ref.quadratic_unitary(h) @ ref.basis_state(bits).reshape(-1)).reshape((2,) * n)
    gamma = ref.evolved_covariance(bits, h)
    for qubits, out in (((0, 2), (1, 0)), ((1, 2, 3), (0, 0, 1)), ((0, 1, 2, 3), (1, 0, 0, 1))):
        assert ref.marginal_from_covariance(gamma, qubits, out) == pytest.approx(
            ref.marginal(psi, qubits, out), abs=1e-12
        )
    for idx in ((0, 3), (1, 2, 4, 7)):
        value = ref.expectation(psi, ref.hermitian_majorana_string(n, idx))
        assert ref.squared_expectation_from_covariance(gamma, idx) == pytest.approx(value**2, abs=1e-12)
