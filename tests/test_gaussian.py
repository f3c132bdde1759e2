import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcliff import gaussian, linalg, oracle
from matchcliff.encodings import jordan_wigner
from matchcliff.gaussian import (
    CovarianceMatrix,
    MarginalQuery,
    evolve,
    evolve_by_terms,
    init_covariance,
    marginal_probability,
    pauli_expectation,
    pauli_terms_to_h,
    product_state_covariance,
)
from matchcliff.circuits import BasisInput, ProductInput
from matchcliff.linalg import expm_antisymmetric
from matchcliff.pauli import PauliString


def test_vacuum_covariance_expectations():
    c = init_covariance(BasisInput((0, 0, 0)))
    assert pauli_expectation(c, PauliString.from_string("ZII")) == pytest.approx(1.0)
    assert pauli_expectation(c, PauliString.from_string("IZI")) == pytest.approx(1.0)
    assert pauli_expectation(c, PauliString.from_string("ZZI")) == pytest.approx(1.0)
    assert pauli_expectation(c, PauliString.from_string("XII")) == 0.0


def test_excited_bit_flips_sign():
    c = init_covariance(BasisInput((1, 0)))
    assert pauli_expectation(c, PauliString.from_string("ZI")) == pytest.approx(-1.0)
    assert pauli_expectation(c, PauliString.from_string("IZ")) == pytest.approx(1.0)


def test_parity_breaking_strings_vanish():
    c = init_covariance(BasisInput((0, 1, 0)))
    for s in ("XII", "IYI", "XZI", "ZZY"):
        assert pauli_expectation(c, PauliString.from_string(s)) == 0.0


def test_covariance_requires_antisymmetry():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.eye(4), "standard", 2)


def test_vacuum_marginals():
    c = init_covariance(BasisInput((0,)))
    assert marginal_probability(c, MarginalQuery((0,), (0,))) == pytest.approx(1.0)
    assert marginal_probability(c, MarginalQuery((0,), (1,))) == pytest.approx(0.0)


def test_marginals_match_oracle_after_evolution():
    rng = np.random.default_rng(0)
    n = 3
    jw = jordan_wigner(n)
    for trial in range(10):
        h = rng.normal(size=(2 * n, 2 * n)) * 0.4
        h = h - h.T
        terms = [
            (h[i, j], (jw.majoranas[i] * jw.majoranas[j]).times_i())
            for i in range(2 * n)
            for j in range(2 * n)
            if i != j
        ]
        cov = evolve(init_covariance(BasisInput((0,) * n)), expm_antisymmetric(h))
        st = oracle.basis_state(n, (0,) * n)
        hmat = sum(
            1j * h[i, j] * jw.majoranas[i].dense() @ jw.majoranas[j].dense()
            for i in range(2 * n)
            for j in range(2 * n)
        )
        import scipy.linalg

        st = oracle.DenseState(n, scipy.linalg.expm(-1j * hmat) @ st.amp)
        for qubits, bits in (((0,), (1,)), ((1, 2), (0, 1)), ((0, 1, 2), (1, 1, 0))):
            got = marginal_probability(cov, MarginalQuery(qubits, bits))
            want = oracle.marginal(st, qubits, bits)
            assert abs(got - want) <= 1e-10


def test_evolution_preserves_purity():
    rng = np.random.default_rng(1)
    n = 4
    c = init_covariance(BasisInput((0, 1, 0, 1)))
    for _ in range(5):
        h = rng.normal(size=(2 * n, 2 * n))
        h = h - h.T
        c = evolve(c, expm_antisymmetric(h))
        assert c.purity_defect() <= 1e-8


def test_product_state_covariance_matches_oracle():
    rng = np.random.default_rng(2)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        angles = tuple((float(t), float(p)) for t, p in rng.normal(size=(n, 2)))
        cov = product_state_covariance(angles)
        assert cov.framework == "extended"
        st = oracle.product_state(angles)
        # single-qubit expectations through the embedded frame
        for q in range(n):
            z = PauliString.single(n, q, "Z")
            want = oracle.expectation(st, z).real
            from matchcliff.encodings import embed_l12

            got = pauli_expectation(cov, z)
            assert abs(got - want) <= 1e-10


def test_pauli_terms_to_h_roundtrip():
    n = 2
    jw = jordan_wigner(n)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(2 * n, 2 * n))
    h = h - h.T
    terms = [
        (h[i, j], (jw.majoranas[i] * jw.majoranas[j]).times_i())
        for i in range(2 * n)
        for j in range(2 * n)
        if i < j
    ]
    h2 = pauli_terms_to_h(terms, n)
    # the returned matrix enters the full double sum i sum_ij h2_ij c_i c_j
    want = sum(
        1j * h[i, j] * jw.majoranas[i].dense() @ jw.majoranas[j].dense()
        for i in range(2 * n)
        for j in range(2 * n)
        if i < j
    )
    got = sum(
        1j * h2[i, j] * jw.majoranas[i].dense() @ jw.majoranas[j].dense()
        for i in range(2 * n)
        for j in range(2 * n)
        if h2[i, j] != 0.0
    )
    assert np.max(np.abs(got - want)) <= 1e-12


def test_marginal_distribution_normalizes():
    rng = np.random.default_rng(4)
    n = 4
    h = rng.normal(size=(2 * n, 2 * n)) * 0.5
    h = h - h.T
    cov = evolve(init_covariance(BasisInput((0, 1, 1, 0))), expm_antisymmetric(h))
    import itertools

    for qubits in ((2,), (0, 3), (1, 2, 3)):
        total = sum(
            marginal_probability(cov, MarginalQuery(qubits, bits))
            for bits in itertools.product((0, 1), repeat=len(qubits))
        )
        assert total == pytest.approx(1.0, abs=1e-8)


@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_log_domain_marginal_equals_signed_pfaffian(n, scale, seed):
    """sqrt|det((Gamma_S + D) / 2)| against 2^-k prod s_i Pf(Gamma_S + D),
    whose sign the determinant form drops: the signed value is >= 0."""
    rng = np.random.default_rng(seed)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
    h = rng.normal(size=(2 * n, 2 * n)) * scale
    cov = evolve(init_covariance(BasisInput(bits)), expm_antisymmetric(h - h.T))
    k = int(rng.integers(1, n + 1))
    qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
    # mostly the likelier outcome per qubit, so the products stay sizeable
    likely = [int(cov.gamma[2 * q, 2 * q + 1] < 0) for q in qubits]
    out = tuple(b ^ int(f) for b, f in zip(likely, rng.random(k) < 0.1))
    idx = [i for q in qubits for i in (2 * q, 2 * q + 1)]
    sub = cov.gamma[np.ix_(idx, idx)].copy()
    signs = [1.0 - 2.0 * b for b in out]
    for i, s in enumerate(signs):
        sub[2 * i, 2 * i + 1] += s
        sub[2 * i + 1, 2 * i] -= s
    signed = 0.5**k * np.prod(signs) * linalg.pfaffian(sub)
    assert signed >= -1e-12
    got = marginal_probability(cov, MarginalQuery(qubits, out))
    assert abs(got - signed) <= 1e-10


def test_empty_marginal_is_one():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 6))
    cov = evolve(init_covariance(BasisInput((1, 0, 1))), expm_antisymmetric(h - h.T))
    assert marginal_probability(cov, MarginalQuery((), ())) == 1.0
