import numpy as np
import pytest

from matchcliff import oracle
from matchcliff.circuits import BasisInput, Circuit, MatchgateLayer
from matchcliff.encodings import jordan_wigner
from matchcliff.pauli import PauliString


def test_basis_state_indexing():
    st = oracle.basis_state(3, (1, 0, 1))
    assert st.amp[0b101] == 1.0
    assert np.sum(np.abs(st.amp)) == 1.0


def test_product_state_amplitudes():
    st = oracle.product_state([(np.pi / 2, 0.0), (0.0, 0.0)])
    # (|00> + |10>)/sqrt(2), qubit 0 most significant
    want = np.zeros(4, dtype=complex)
    want[0b00] = want[0b10] = 1 / np.sqrt(2)
    assert np.allclose(st.amp, want)


def test_apply_pauli_matches_dense():
    rng = np.random.default_rng(0)
    n = 3
    letters = "IXYZ"
    for _ in range(25):
        amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amp /= np.linalg.norm(amp)
        st = oracle.DenseState(n, amp)
        s = "".join(letters[rng.integers(4)] for _ in range(n))
        p = PauliString.from_string(s)
        assert np.allclose(oracle.apply_pauli(st, p).amp, p.dense() @ amp)


def test_apply_unitary_on_selected_qubits():
    st = oracle.basis_state(3, (0, 0, 0))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    st = oracle.apply_unitary(st, x, (1,))
    assert st.amp[0b010] == 1.0


def test_marginal_sums_to_one():
    rng = np.random.default_rng(1)
    amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    amp /= np.linalg.norm(amp)
    st = oracle.DenseState(3, amp)
    total = sum(
        oracle.marginal(st, (0, 2), (b0, b1)) for b0 in (0, 1) for b1 in (0, 1)
    )
    assert total == pytest.approx(1.0)


def test_postselect_consistency():
    rng = np.random.default_rng(2)
    amp = rng.normal(size=8) + 1j * rng.normal(size=8)
    amp /= np.linalg.norm(amp)
    st = oracle.DenseState(3, amp)
    sub, prob = oracle.postselect(st, (1,), (0,))
    assert prob == pytest.approx(oracle.marginal(st, (1,), (0,)))
    assert np.linalg.norm(sub.amp) == pytest.approx(1.0)


def test_matchgate_unitary_preserves_parity():
    u = oracle._matchgate_unitary((0.3, -0.2, 0.1, 0.4, -0.5, 0.2))
    # no mixing between even {00,11} and odd {01,10} subspaces
    assert abs(u[0b00, 0b01]) < 1e-12
    assert abs(u[0b11, 0b10]) < 1e-12
    assert abs(u[0b01, 0b00]) < 1e-12
    assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


def test_apply_circuit_single_rotation():
    theta = 0.3
    c = Circuit(
        2,
        BasisInput((0, 0)),
        (MatchgateLayer(0, (0.0, theta, 0.0, 0.0, 0.0, 0.0)),),
        "free",
    )
    st = oracle.apply_circuit(c)
    # exp(-i theta XX)|00> = cos(theta)|00> - i sin(theta)|11>
    assert st.amp[0b00] == pytest.approx(np.cos(theta))
    assert st.amp[0b11] == pytest.approx(-1j * np.sin(theta))


@pytest.mark.parametrize("a0", [1e200, float("nan")])
def test_apply_circuit_refuses_a_non_finite_unitary(a0):
    c = Circuit(
        2, BasisInput((0, 0)), (MatchgateLayer(0, (a0, 0.0, 0.0, 0.0, 0.0, 0.0)),), "free"
    )
    with pytest.raises(ValueError, match="non-finite"):
        oracle.apply_circuit(c)


def test_dense_state_refuses_a_nan_norm():
    with pytest.raises(ValueError, match="not normalized"):
        oracle.DenseState(1, np.array([np.nan, 0.0]))


def test_size_cap_enforced():
    with pytest.raises(oracle.SizeCapExceeded):
        oracle.basis_state(13, (0,) * 13)


def test_gaussianity_residual_zero_on_vacuum():
    st = oracle.basis_state(3, (0, 0, 0))
    assert oracle.gaussianity_residual(st, jordan_wigner(3)) <= 1e-12


def test_gaussianity_residual_positive_on_ghz():
    amp = np.zeros(16, dtype=complex)
    amp[0b0000] = amp[0b1111] = 1 / np.sqrt(2)
    st = oracle.DenseState(4, amp)
    assert oracle.gaussianity_residual(st, jordan_wigner(4)) > 0.1
