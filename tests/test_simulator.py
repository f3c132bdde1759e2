import warnings

import numpy as np
import pytest

from matchcliff import f2, oracle, simulator, tableau
from matchcliff.circuits import (
    BasisInput,
    Circuit,
    CliffordLayer,
    LinearLayer,
    MatchgateLayer,
    ProductInput,
    QuadraticLayer,
)
from matchcliff.encodings import STANDARD, chain_majorana
from matchcliff.gaussian import MarginalQuery
from matchcliff.pauli import PauliString
from matchcliff.simulator import (
    UnsupportedQuery,
    classify_circuit,
    coeffs_from_blocks,
    gate_matrix_from_blocks,
    ghz4_gadget,
    is_valid_gate_pair,
    compile_circuit,
    layer_rotation,
    restricted_pauli_expectation,
    run_expectation,
    run_marginal,
)

from conftest import (
    conjugated_circuit,
    random_basis_input,
    random_clifford_gates,
    random_matchgate_layers,
    random_pauli_string,
    random_product_input,
)


def check_expectations(c, rng, count=10, d_max=4, tol=1e-9):
    ref = oracle.apply_circuit(c)
    worst = 0.0
    for _ in range(count):
        p = random_pauli_string(rng, c.n)
        try:
            got = run_expectation(c, p, d_max=d_max)
        except (simulator.UnsupportedQuery, simulator.DegreeTooLarge):
            continue
        want = oracle.expectation(ref, p).real
        worst = max(worst, abs(got - want))
    assert worst <= tol
    return worst


def test_free_expectations_and_marginals_match_oracle():
    rng = np.random.default_rng(0)
    for trial in range(6):
        n = int(rng.integers(2, 5))
        layers = random_matchgate_layers(rng, n, 3)
        if trial % 2:
            layers.append(LinearLayer(tuple(rng.normal(size=2 * n) * 0.4)))
        inp = (
            random_basis_input(rng, n)
            if trial % 2 == 0
            else random_product_input(rng, n)
        )
        c = Circuit(n, inp, tuple(layers), "free")
        check_expectations(c, rng)
        ref = oracle.apply_circuit(c)
        for _ in range(6):
            k = int(rng.integers(1, n + 1))
            qubits = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
            got = run_marginal(c, MarginalQuery(qubits, bits))
            assert abs(got - oracle.marginal(ref, qubits, bits)) <= 1e-9


def test_post_clifford_expectations_match_oracle():
    rng = np.random.default_rng(1)
    for trial in range(6):
        n = int(rng.integers(2, 5))
        body = random_matchgate_layers(rng, n, 3)
        trail = random_clifford_gates(rng, n, 4)
        c = Circuit(n, random_basis_input(rng, n), tuple(body + trail), "post_clifford")
        check_expectations(c, rng)


def test_post_clifford_marginals_refused():
    rng = np.random.default_rng(2)
    n = 3
    body = random_matchgate_layers(rng, n, 2)
    trail = [CliffordLayer("H", (0,))]
    c = Circuit(n, BasisInput((0, 0, 0)), tuple(body + trail), "post_clifford")
    with pytest.raises(UnsupportedQuery):
        run_marginal(c, MarginalQuery((0,), (0,)))


def test_chain_frame_queries_need_no_f2_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("f2.solve called")

    monkeypatch.setattr(f2, "solve", refuse)
    rng = np.random.default_rng(11)
    n = 4
    for inp in (random_basis_input(rng, n), random_product_input(rng, n)):
        body = random_matchgate_layers(rng, n, 3) + [LinearLayer(tuple(rng.normal(size=2 * n)))]
        free = Circuit(n, inp, tuple(body), "free")
        post = Circuit(n, inp, tuple(body + random_clifford_gates(rng, n, 4)), "post_clifford")
        for c in (free, post):
            ref = oracle.apply_circuit(c)
            for _ in range(4):
                p = random_pauli_string(rng, n)
                assert run_expectation(c, p) == pytest.approx(
                    oracle.expectation(ref, p).real, abs=1e-9
                )
        ref = oracle.apply_circuit(free)
        query = MarginalQuery((0, 2), (1, 0))
        assert run_marginal(free, query) == pytest.approx(
            oracle.marginal(ref, (0, 2), (1, 0)), abs=1e-9
        )


def test_circuit_hash_is_computed_once_and_shared_by_equal_circuits():
    hashed = []

    class Coeffs(tuple):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    def build(a1):
        coeffs = Coeffs((0.1, a1, 0.2, 0.0, 0.3, -0.1))
        layers = (MatchgateLayer(0, coeffs), MatchgateLayer(1, (0.4,) * 6))
        return Circuit(3, BasisInput((0, 1, 0)), layers, "free")

    first, second, other = build(0.5), build(0.5), build(0.6)
    assert len(hashed) == 3  # once per circuit, at construction
    assert first == second and first is not second and hash(first) == hash(second)
    assert len(hashed) == 3
    assert other != first
    cc = simulator.compile_circuit(first)
    before = simulator.compile_circuit.cache_info()
    assert simulator.compile_circuit(second) is cc
    after = simulator.compile_circuit.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    simulator.compile_circuit(other)
    last = simulator.compile_circuit.cache_info()
    assert (last.hits - after.hits, last.misses - after.misses) == (0, 1)


def test_swap_conjugated_marginals_match_oracle():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n = int(rng.integers(2, 5))
        gates = random_clifford_gates(rng, n, 4, names=("SWAP",))
        inp = (
            random_basis_input(rng, n)
            if trial % 2 == 0
            else random_product_input(rng, n)
        )
        c = conjugated_circuit(rng, n, inp, gates)
        ref = oracle.apply_circuit(c)
        for _ in range(8):
            k = int(rng.integers(1, n + 1))
            qubits = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
            got = run_marginal(c, MarginalQuery(qubits, bits))
            assert abs(got - oracle.marginal(ref, qubits, bits)) <= 1e-9


def test_cz_swap_conjugated_basis_marginals_match_oracle():
    rng = np.random.default_rng(4)
    for trial in range(5):
        n = int(rng.integers(2, 5))
        gates = random_clifford_gates(rng, n, 4, names=("SWAP", "CZ"))
        c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates)
        ref = oracle.apply_circuit(c)
        for _ in range(8):
            k = int(rng.integers(1, n + 1))
            qubits = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
            bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
            got = run_marginal(c, MarginalQuery(qubits, bits))
            assert abs(got - oracle.marginal(ref, qubits, bits)) <= 1e-9


def test_cz_conjugated_product_marginals_refused():
    rng = np.random.default_rng(5)
    n = 3
    gates = [CliffordLayer("CZ", (0, 1))]
    c = conjugated_circuit(rng, n, random_product_input(rng, n), gates)
    with pytest.raises(UnsupportedQuery):
        run_marginal(c, MarginalQuery((0,), (0,)))


def test_permutation_conjugated_full_marginals_only():
    rng = np.random.default_rng(6)
    n = 3
    gates = [CliffordLayer("CNOT", (0, 1)), CliffordLayer("CNOT", (1, 2))]
    c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates)
    ref = oracle.apply_circuit(c)
    for _ in range(8):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        got = run_marginal(c, MarginalQuery(tuple(range(n)), bits))
        assert abs(got - oracle.marginal(ref, tuple(range(n)), bits)) <= 1e-9
    with pytest.raises(UnsupportedQuery):
        run_marginal(c, MarginalQuery((0, 1), (0, 0)))


def test_general_conjugated_marginals_refused():
    rng = np.random.default_rng(7)
    n = 2
    gates = [CliffordLayer("H", (0,))]
    c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates, body_count=1)
    with pytest.raises(UnsupportedQuery):
        run_marginal(c, MarginalQuery((0,), (0,)))


def test_conjugated_expectations_match_oracle():
    rng = np.random.default_rng(8)
    for names in (("SWAP",), ("SWAP", "CZ"), ("CNOT", "S"), ("H", "S", "CNOT")):
        for trial in range(3):
            n = int(rng.integers(2, 5))
            gates = random_clifford_gates(rng, n, 4, names=names)
            inp = (
                random_basis_input(rng, n)
                if trial % 2 == 0
                else random_product_input(rng, n)
            )
            c = conjugated_circuit(rng, n, inp, gates)
            check_expectations(c, rng, d_max=4)


def test_restricted_degree_cap():
    rng = np.random.default_rng(9)
    n = 3
    gates = [CliffordLayer("H", (q,)) for q in range(n)]
    c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates)
    with pytest.raises(ValueError):
        restricted_pauli_expectation(c, PauliString.from_string("ZZZ"), d_max=7)


def test_classify_circuit_flags():
    rng = np.random.default_rng(10)
    n = 3
    free = Circuit(n, BasisInput((0,) * n), tuple(random_matchgate_layers(rng, n, 2)), "free")
    assert classify_circuit(free).flags == {
        "PIBO", "CIBO", "CIbO", "CIPO", "PIPO", "PIpO",
    }
    swap = conjugated_circuit(rng, n, BasisInput((0,) * n), [CliffordLayer("SWAP", (0, 2))])
    assert classify_circuit(swap).flags == {"PIBO", "CIBO", "CIbO", "PIpO"}
    czsw = conjugated_circuit(rng, n, BasisInput((0,) * n), [CliffordLayer("CZ", (0, 1))])
    assert classify_circuit(czsw).flags == {"CIBO", "CIbO", "PIpO"}
    perm = conjugated_circuit(rng, n, BasisInput((0,) * n), [CliffordLayer("CNOT", (0, 1))])
    assert classify_circuit(perm).flags == {"CIbO", "PIpO"}
    gen = conjugated_circuit(rng, n, BasisInput((0,) * n), [CliffordLayer("H", (0,))])
    assert classify_circuit(gen).flags == {"PIpO"}
    post = Circuit(
        n,
        BasisInput((0,) * n),
        tuple(random_matchgate_layers(rng, n, 2)) + (CliffordLayer("H", (1,)),),
        "post_clifford",
    )
    assert classify_circuit(post).flags == {"CIPO", "PIPO"}


def test_gate_pair_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        coeffs = tuple(rng.normal(size=6) * 0.6)
        u = oracle._matchgate_unitary(coeffs)
        a = u[np.ix_((0, 3), (0, 3))]
        b = u[np.ix_((1, 2), (1, 2))]
        assert is_valid_gate_pair(a, b)
        rec = coeffs_from_blocks(a, b)
        u2 = oracle._matchgate_unitary(rec)
        # equality up to a global phase
        phase = u2[0, 0] / u[0, 0] if abs(u[0, 0]) > 1e-9 else u2[1, 1] / u[1, 1]
        assert np.allclose(u2, phase * u, atol=1e-9)
        assert abs(abs(phase) - 1) < 1e-9


def test_invalid_gate_pair_detected():
    a = np.eye(2, dtype=complex)
    b = np.array([[0, 1], [1, 0]], dtype=complex)  # det b = -1 != det a
    assert not is_valid_gate_pair(a, b)


def test_gate_matrix_from_blocks_layout():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    b = np.array([[5, 6], [7, 8]], dtype=complex)
    u = gate_matrix_from_blocks(a, b)
    assert u[0, 0] == 1 and u[0, 3] == 2 and u[3, 0] == 3 and u[3, 3] == 4
    assert u[1, 1] == 5 and u[1, 2] == 6 and u[2, 1] == 7 and u[2, 2] == 8


def test_ghz_gadget_shape():
    g = ghz4_gadget()
    assert g.circuit.n == 6
    assert g.circuit.structure == "conjugated"
    assert g.postselect_bits == (0, 0)
    assert len(g.postselect_qubits) == 2


def test_full_length_marginal_does_not_overflow():
    # Pf(Gamma_S + D) = 2^1100 for the all-zeros outcome
    n = 1100
    c = Circuit(n, BasisInput((0,) * n), (), "free")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_marginal(c, MarginalQuery(tuple(range(n)), (0,) * n)) == 1.0
        flipped = (0,) * 17 + (1,) + (0,) * (n - 18)
        assert run_marginal(c, MarginalQuery(tuple(range(n)), flipped)) == 0.0


def test_marginal_chain_rule_at_n256():
    rng = np.random.default_rng(12)
    n = 256
    h = rng.normal(size=(2 * n, 2 * n)) * (0.03 / np.sqrt(n))
    c = Circuit(
        n, random_basis_input(rng, n), (QuadraticLayer(tuple(map(tuple, h - h.T))),), "free"
    )
    gamma = simulator.body_covariance(compile_circuit(c)).gamma
    qubits = tuple(int(q) for q in rng.choice(n, size=n // 2, replace=False))
    bits = tuple(int(gamma[2 * q, 2 * q + 1] < 0) for q in qubits)
    extra = next(q for q in range(n) if q not in qubits)
    p = run_marginal(c, MarginalQuery(qubits, bits))
    split = [run_marginal(c, MarginalQuery(qubits + (extra,), bits + (b,))) for b in (0, 1)]
    assert p > 0.01 and min(split) > 0.0
    assert sum(split) == pytest.approx(p, rel=1e-9)


def test_compiled_clifford_data_matches_a_rebuild():
    rng = np.random.default_rng(13)
    n = 4
    for inp in (random_basis_input(rng, n), random_product_input(rng, n)):
        gates = random_clifford_gates(rng, n, 5, names=("H", "S", "CNOT", "SWAP"))
        c = conjugated_circuit(rng, n, inp, gates, body_count=4)
        cc = compile_circuit(c)
        s = np.eye(2 * n)
        for lay in c.body_layers():
            s = layer_rotation(lay, n, STANDARD) @ s
        assert np.max(np.abs(cc.body_product - s)) <= 1e-12
        conj = c.conjugation_tableau()
        inv = tableau.invert(conj)
        assert cc.dressed == tuple(
            inv.conjugate_pauli(chain_majorana(n, k)) for k in range(2 * n)
        )
        assert cc.conj_class == tableau.classify(conj)

        post = Circuit(n, inp, tuple(c.body_layers()) + tuple(gates), "post_clifford")
        assert compile_circuit(post).post_inverse == tableau.invert(post.post_tableau())

        swaps = conjugated_circuit(
            rng, n, inp, random_clifford_gates(rng, n, 4, names=("SWAP",))
        )
        pi = compile_circuit(swaps).qubit_perm
        t = swaps.conjugation_tableau()
        for q in range(n):
            assert t.image_of_z(q) == PauliString.single(n, pi[q], "Z")
        if isinstance(inp, BasisInput):
            bits, phase = tableau.basis_action(t, inp.bits)
            assert compile_circuit(swaps).input_action == (tuple(bits), phase)
