import functools
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcliff import f2, gaussian, linalg, oracle, simulator, tableau
from matchcliff.circuits import (
    BasisInput,
    Circuit,
    CliffordLayer,
    LinearLayer,
    MatchgateLayer,
    ProductInput,
    QuadraticLayer,
)
from matchcliff.encodings import chain_decompose, chain_majorana, chain_monomials, embed_l12
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
    restricted_pauli_expectation,
    run_expectation,
    run_marginal,
)

from conftest import (
    conjugated_circuit,
    dense_matchgate_rotation,
    invert_clifford_gates,
    random_basis_input,
    random_clifford_gates,
    random_linear_layer,
    random_matchgate_layers,
    random_pauli_string,
    random_product_input,
    random_quadratic_layer,
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


@given(st.sampled_from((0, 1, 2, 4)), st.data(), st.integers(0, 10**6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_restricted_route_equals_covariance_route_above_the_oracle_cap(
    d, data, seed, product
):
    n = data.draw(st.integers(2, 16 if d == 4 else 64))
    rng = np.random.default_rng(seed)
    inp = random_product_input(rng, n) if product else random_basis_input(rng, n)
    c = Circuit(n, inp, tuple(random_matchgate_layers(rng, n, 2 * n)), "free")
    # a Hermitian Majorana monomial i^(d(d-1)/2) c_J, its indices close
    # enough for a short body to correlate them
    start = int(rng.integers(0, 2 * n - d + 1))
    window = np.arange(start, min(start + 8, 2 * n))
    members = np.zeros(2 * n, dtype=np.uint8)
    members[rng.choice(window, size=d, replace=False)] = 1
    rows, phase = chain_monomials(members)
    p = PauliString(rows[:n], rows[n:], int(phase) + d * (d - 1) // 2)
    want = run_expectation(c, p)
    assert abs(restricted_pauli_expectation(c, p) - want) <= 1e-9


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
    gamma = compile_circuit(c).readout.gamma
    qubits = tuple(int(q) for q in rng.choice(n, size=n // 2, replace=False))
    bits = tuple(int(gamma[2 * q + 2, 2 * q + 3] < 0) for q in qubits)
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
        s = np.eye(2 * n + 2)
        for lay in c.body_layers():
            s = dense_matchgate_rotation(lay, n) @ s
        assert np.max(np.abs(cc.body - s)) <= 1e-12
        conj = c.conjugation_tableau()
        # the restricted route dresses by the trailing block as C^-1
        assert c.post_tableau() == tableau.invert(conj)
        assert cc.conj_class == tableau.classify(conj)

        post = Circuit(n, inp, tuple(c.body_layers()) + tuple(gates), "post_clifford")
        assert compile_circuit(post).post_inverse == tableau.invert(post.post_tableau())

        swaps = conjugated_circuit(
            rng, n, inp, random_clifford_gates(rng, n, 4, names=("SWAP",))
        )
        # pi, with C Z_q C^dag = Z_pi(q), is read from the X parts of A
        pi = compile_circuit(swaps).basis_map[0].argmax(axis=0)
        t = swaps.conjugation_tableau()
        for q in range(n):
            assert t.image_of_z(q) == PauliString.single(n, pi[q], "Z")
        if isinstance(inp, BasisInput):
            bits, _ = tableau.basis_action(t, inp.bits)
            a, b = compile_circuit(swaps).basis_map
            assert np.array_equal((a @ np.array(inp.bits) + b) & 1, bits)


@given(
    st.integers(min_value=2, max_value=16),
    st.data(),
    st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=6, max_size=6),
    st.sampled_from(("basis", "product")),
)
@settings(max_examples=60, deadline=None)
def test_matchgate_block_equals_dense_layer_rotation(n, data, coeffs, kind):
    k = data.draw(st.integers(min_value=0, max_value=n - 2))
    lay = MatchgateLayer(k, tuple(coeffs))
    inp = BasisInput((0,) * n) if kind == "basis" else ProductInput(((0.3, 0.1),) * n)
    cc = compile_circuit(Circuit(n, inp, (lay,), "free"))
    assert np.max(np.abs(cc.body - dense_matchgate_rotation(lay, n))) <= 1e-12
    # the gate's block times the identity: exactly I off Majoranas 2k+2..2k+5
    outside = cc.body.copy()
    outside[2 * k + 2 : 2 * k + 6, 2 * k + 2 : 2 * k + 6] = np.eye(4)
    assert np.array_equal(outside, np.eye(2 * n + 2))
    assert cc.readout.gamma.shape == (2 * n + 2, 2 * n + 2)


def _dense_body(c):
    """The product of the body layers' dense (2n+2) x (2n+2) rotations in
    application order, each exponentiated by scipy.linalg.expm at full
    order."""
    s = np.eye(2 * c.n + 2)
    for lay in c.body_layers():
        if isinstance(lay, MatchgateLayer):
            r = dense_matchgate_rotation(lay, c.n)
        else:
            r = scipy.linalg.expm(4.0 * simulator.layer_generator(lay, c.n))
        s = r @ s
    return s


def test_compiled_rotations_are_local_for_matchgates_only():
    """The compiled body is the product of the layers' dense rotations,
    for bodies that mix matchgates with a quadratic and a linear layer, in
    which only a linear layer mixes Majorana 1 with the logical ones; a
    body of matchgates alone fixes the ancilla pair exactly."""
    rng = np.random.default_rng(14)
    n = 5
    for inp in (random_basis_input(rng, n), random_product_input(rng, n)):
        body = (
            random_matchgate_layers(rng, n, 4)
            + [random_quadratic_layer(rng, n)]
            + random_matchgate_layers(rng, n, 3)
        )
        for c in (
            Circuit(n, inp, tuple(body), "free"),
            Circuit(n, inp, tuple(body + [random_linear_layer(rng, n)]), "free"),
        ):
            body = compile_circuit(c).body
            assert not body.flags.writeable
            assert np.max(np.abs(body - _dense_body(c))) <= 1e-12
            assert (np.max(np.abs(body[1, 2:])) > 1e-6) == c.has_linear()
        local = Circuit(n, inp, tuple(random_matchgate_layers(rng, n, 6)), "free")
        body = compile_circuit(local).body
        assert np.array_equal(body[:2], np.eye(2 * n + 2)[:2])
        assert np.array_equal(body[:, :2], np.eye(2 * n + 2)[:, :2])


def test_matchgate_generator_takes_stacked_coefficient_rows():
    rng = np.random.default_rng(15)
    rows = rng.normal(size=(3, 5, 6))
    h = simulator.matchgate_generator(rows)
    assert h.shape == (3, 5, 4, 4)
    for idx in np.ndindex(3, 5):
        assert np.array_equal(h[idx], simulator.matchgate_generator(tuple(rows[idx])))
    assert simulator.matchgate_generator(np.zeros((0, 6))).shape == (0, 4, 4)


def test_compile_exponentiates_a_body_in_one_stacked_call(monkeypatch):
    calls = []
    expm = linalg.expm_antisymmetric

    def recorded(h, *args, **kwargs):
        calls.append(np.shape(h))
        return expm(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "expm_antisymmetric", recorded)
    rng = np.random.default_rng(16)
    n = 5
    inp = random_basis_input(rng, n)
    matchgates = Circuit(n, inp, tuple(random_matchgate_layers(rng, n, 7)), "free")
    compile_circuit(matchgates)
    assert calls == [(7, 4, 4)]
    calls.clear()
    # a body with no matchgates makes an empty stacked call and its dense one
    dense = Circuit(n, inp, (random_quadratic_layer(rng, n),), "free")
    body = compile_circuit(dense).body
    assert calls == [(0, 4, 4), (2 * n + 2, 2 * n + 2)]
    assert body.shape == (2 * n + 2, 2 * n + 2)


def test_compile_builds_no_pauli_string(monkeypatch):
    """Every body layer compiles from its generator, written down: a body
    of matchgates, a linear layer and a quadratic layer builds no
    PauliString."""
    from matchcliff import pauli

    rng = np.random.default_rng(23)
    n = 5
    body = (
        random_matchgate_layers(rng, n, 3)
        + [random_linear_layer(rng, n), random_quadratic_layer(rng, n)]
        + random_matchgate_layers(rng, n, 3)
    )
    c = Circuit(n, random_product_input(rng, n), tuple(body), "free")
    built = []
    post_init = pauli.PauliString.__post_init__

    def counted_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(pauli.PauliString, "__post_init__", counted_init)
    cc = compile_circuit(c)
    assert built == []
    assert np.max(np.abs(cc.body - _dense_body(c))) <= 1e-12
    # the counter is live
    PauliString.identity(n)
    assert len(built) == 1


def test_free_restricted_query_builds_the_identity_order_form_once(monkeypatch):
    """A free circuit dresses every batch of its restricted sum through the
    identity tableau, which is shared per n, so its order form is built
    once however many batches the sum takes."""
    rng = np.random.default_rng(25)
    n = 8
    c = Circuit(n, random_product_input(rng, n), tuple(random_matchgate_layers(rng, n, 2 * n)), "free")
    monkeypatch.setattr(simulator, "MINOR_BATCH", 32)
    assert math.comb(2 * n, 2) > 3 * simulator.MINOR_BATCH
    built = []
    order_form = tableau.CliffordTableau.__dict__["order_form"].func

    def counted(self):
        built.append(self.n)
        return order_form(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(tableau.CliffordTableau, "order_form")
    monkeypatch.setattr(tableau.CliffordTableau, "order_form", prop)
    tableau.CliffordTableau.identity.cache_clear()
    p = PauliString.single(n, 3, "Z")
    got = restricted_pauli_expectation(c, p, d_max=2)
    assert built == [n]
    assert got == pytest.approx(oracle.expectation(oracle.apply_circuit(c), p).real, abs=1e-9)
    assert tableau.CliffordTableau.identity(n) is c.post_tableau() is c.conjugation_tableau()


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind", ["standard", "extended"])
def test_long_block_evolution_equals_dense_rotations_above_the_oracle_cap(n, kind):
    """20n matchgates: the compiled 4x4 blocks evolve the covariance as the
    product of dense_matchgate_rotation matrices does.  The gates are drawn
    from a pool of 2n random matchgates, so that the dense reference
    computes only 2n exponentials of order 2n + 2.  `kind` is the input:
    standard (a computational-basis state) or extended (a product state)."""
    rng = np.random.default_rng([17, n])
    inp = random_basis_input(rng, n) if kind == "standard" else random_product_input(rng, n)
    pool = random_matchgate_layers(rng, n, 2 * n)
    body = tuple(pool[i] for i in rng.integers(2 * n, size=20 * n))
    cc = compile_circuit(Circuit(n, inp, body, "free"))
    cov = cc.readout.gamma
    assert cov.shape == (2 * n + 2, 2 * n + 2)
    dense = {id(lay): dense_matchgate_rotation(lay, n) for lay in pool}
    s = np.eye(cov.shape[0])
    for lay in body:
        s = dense[id(lay)] @ s
    start = gaussian.product_state_covariance(inp).gamma
    assert np.max(np.abs(cov - s @ start @ s.T)) <= 1e-9
    assert np.max(np.abs(cov @ cov.T - np.eye(cov.shape[0]))) <= 1e-9


def test_circuit_builds_each_clifford_block_once(monkeypatch):
    built = []
    from_gates = tableau.from_gates

    def counted(n, gates):
        built.append(len(gates))
        return from_gates(n, gates)

    monkeypatch.setattr(tableau, "from_gates", counted)
    rng = np.random.default_rng(15)
    n = 4
    gates = random_clifford_gates(rng, n, 5)
    c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates)
    post = Circuit(n, c.input, c.body_layers() + tuple(gates), "post_clifford")
    assert len(built) == 3  # leading and trailing blocks, then the post block
    for circ in (c, post):
        compile_circuit(circ)
        classify_circuit(circ)
        circ.conjugation_tableau(), circ.post_tableau(), circ.body_layers()
    assert len(built) == 3


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_compiled_basis_map_equals_basis_action(n, seed):
    rng = np.random.default_rng(seed)
    gates = random_clifford_gates(rng, n, 3 * n, names=("S", "CZ", "CNOT", "SWAP"))
    c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates, body_count=1)
    cc = compile_circuit(c)
    assert cc.conj_class != tableau.CliffordClass.GENERAL
    a, b = cc.basis_map
    for _ in range(4):
        x = rng.integers(0, 2, size=n)
        want, _ = tableau.basis_action(c.conjugation_tableau(), x)
        assert np.array_equal((a @ x + b) & 1, want)


def test_permutation_queries_read_the_compiled_map(monkeypatch):
    rng = np.random.default_rng(16)
    n = 4
    gates = [CliffordLayer("CNOT", (0, 2)), CliffordLayer("S", (1,)), CliffordLayer("CNOT", (3, 1))]
    c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates)
    compile_circuit(c)

    def refuse(*args):
        raise AssertionError("per-query basis action")

    monkeypatch.setattr(tableau, "basis_action", refuse)
    monkeypatch.setattr(tableau, "classify", refuse)
    monkeypatch.setattr(f2, "solve", refuse)
    ref = oracle.apply_circuit(c)
    for _ in range(6):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
        got = run_marginal(c, MarginalQuery(tuple(range(n)), bits))
        assert abs(got - oracle.marginal(ref, tuple(range(n)), bits)) <= 1e-9


def test_clifford_data_builds_without_pauli_products(monkeypatch):
    def refuse(self, other):
        raise AssertionError("PauliString.__mul__ on the tableau path")

    monkeypatch.setattr(PauliString, "__mul__", refuse)
    rng = np.random.default_rng(17)
    n = 6
    blocks = (
        random_clifford_gates(rng, n, 12),  # general
        random_clifford_gates(rng, n, 12, names=("S", "CNOT", "CZ", "SWAP")),
        random_clifford_gates(rng, n, 12, names=("CZ", "SWAP")),
        random_clifford_gates(rng, n, 12, names=("SWAP",)),
    )
    for gates in blocks:
        for inp in (random_basis_input(rng, n), random_product_input(rng, n)):
            c = conjugated_circuit(rng, n, inp, gates, body_count=5)
            compile_circuit(c)
            classify_circuit(c)
            # C p C^dag = Z_0: degree 2 under every class
            p = c.post_tableau().conjugate_pauli(PauliString.single(n, 0, "Z"))
            assert abs(restricted_pauli_expectation(c, p)) <= 1.0 + 1e-9
            post = Circuit(n, inp, c.body_layers() + tuple(gates), "post_clifford")
            compile_circuit(post)
            classify_circuit(post)


def test_classify_circuit_answers_when_compile_refuses():
    n = 3
    lead = [CliffordLayer("H", (0,))]
    huge = MatchgateLayer(0, (0.0, 1e5, 0.0, 0.0, 0.0, 0.0))
    c = Circuit(n, BasisInput((0,) * n), tuple(lead + [huge] + lead), "conjugated")
    with pytest.raises(ValueError, match="generator too large"):
        compile_circuit(c)
    assert classify_circuit(c).flags == {"PIpO"}


_CONJUGATIONS = {
    "swap": (tableau.CliffordClass.SWAP_ONLY, [("SWAP", (0, 2)), ("SWAP", (1, 2))]),
    "cz_swap": (tableau.CliffordClass.CZ_SWAP, [("CZ", (0, 1)), ("SWAP", (1, 2))]),
    "permutation": (tableau.CliffordClass.PERMUTATION, [("CNOT", (0, 1)), ("CNOT", (2, 1))]),
    "general": (tableau.CliffordClass.GENERAL, [("H", (0,)), ("CNOT", (0, 1))]),
}


@pytest.mark.parametrize("linear", [False, True], ids=["quadratic", "linear"])
@pytest.mark.parametrize("kind", ["basis", "product"])
@pytest.mark.parametrize("shape", ["free", "post_clifford", *_CONJUGATIONS])
def test_every_granted_kind_is_answered_and_every_other_refused(shape, kind, linear):
    """Each query kind is answered, within 1e-9 of the oracle, exactly when
    classify_circuit grants it, and refused with UnsupportedQuery
    otherwise.  A low-degree expectation is also answered where every
    Pauli output is granted."""
    rng = np.random.default_rng(19)
    n = 4
    inp = random_basis_input(rng, n) if kind == "basis" else random_product_input(rng, n)
    body = random_matchgate_layers(rng, n, 4)
    if linear:
        body.append(random_linear_layer(rng, n))
    if shape == "free":
        c = Circuit(n, inp, tuple(body), "free")
    elif shape == "post_clifford":
        c = Circuit(n, inp, tuple(body + random_clifford_gates(rng, n, 4)), "post_clifford")
    else:
        cls, gates = _CONJUGATIONS[shape]
        gates = [CliffordLayer(*g) for g in gates]
        c = Circuit(n, inp, tuple(gates + body + invert_clifford_gates(gates)), "conjugated")
        assert compile_circuit(c).conj_class == cls
    flags = classify_circuit(c).flags
    ref = oracle.apply_circuit(c)
    i = "P" if kind == "product" else "C"
    partial = MarginalQuery((0, 2), tuple(int(b) for b in rng.integers(0, 2, size=2)))
    full = MarginalQuery(range(n), tuple(int(b) for b in rng.integers(0, 2, size=n)))
    # C low C^dag = Z_0 has degree 2 under every conjugation; d_max = 0
    # leaves a non-identity query no restricted answer
    low = c.post_tableau().conjugate_pauli(PauliString.single(n, 0, "Z"))
    high = PauliString.from_string("XYZX")
    cases = (
        (f"{i}IBO" in flags, lambda: run_marginal(c, partial), partial),
        ({"PIBO" if i == "P" else "CIbO"} & flags, lambda: run_marginal(c, full), full),
        (f"{i}IPO" in flags, lambda: run_expectation(c, high, d_max=0), high),
        ({"PIpO", f"{i}IPO"} & flags, lambda: run_expectation(c, low, d_max=4), low),
    )
    for granted, answer, query in cases:
        if not granted:
            with pytest.raises(UnsupportedQuery):
                answer()
            continue
        if isinstance(query, MarginalQuery):
            want = oracle.marginal(ref, query.qubits, query.bits)
        else:
            want = oracle.expectation(ref, query).real
        assert abs(answer() - want) <= 1e-9


def _swap_destinations(n, gates):
    """pi[q]: the qubit that the content of qubit q reaches through the
    SWAPs of gates, applied in order; other gates move nothing."""
    where = list(range(n))
    for g in gates:
        if g.gate == "SWAP":
            a, b = g.qubits
            where = [b if w == a else a if w == b else w for w in where]
    return where


@given(
    st.integers(min_value=2, max_value=256),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_conjugated_marginals_equal_the_relabelled_free_circuit(n, seed, cz_basis):
    """C U C^dag on an input equals U on C|input>, read at pi(q): for SWAPs
    on a product input and for CZs and SWAPs on a basis input, the
    marginals equal those of the free circuit on the relabelled input."""
    rng = np.random.default_rng(seed)
    names = ("SWAP", "CZ") if cz_basis else ("SWAP",)
    gates = random_clifford_gates(rng, n, n, names=names)
    body = random_matchgate_layers(rng, n, n)
    pi = _swap_destinations(n, gates)
    if cz_basis:
        inp = random_basis_input(rng, n)
        moved = [None] * n
        for q, b in enumerate(inp.bits):
            moved[pi[q]] = b
        free_input = BasisInput(tuple(moved))
    else:
        inp = random_product_input(rng, n)
        moved = [None] * n
        for q, angle in enumerate(inp.angles):
            moved[pi[q]] = angle
        free_input = ProductInput(tuple(moved))
    c = Circuit(n, inp, tuple(gates + body + invert_clifford_gates(gates)), "conjugated")
    free = Circuit(n, free_input, tuple(body), "free")
    for _ in range(4):
        k = int(rng.integers(1, min(n, 6) + 1))
        qubits = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
        bits = tuple(int(b) for b in rng.integers(0, 2, size=k))
        got = run_marginal(c, MarginalQuery(qubits, bits))
        want = run_marginal(free, MarginalQuery(tuple(pi[q] for q in qubits), bits))
        assert abs(got - want) <= 1e-12


def _granted_marginal_circuits(rng, n):
    swaps = random_clifford_gates(rng, n, 4, names=("SWAP",))
    mixed = random_clifford_gates(rng, n, 4, names=("SWAP", "CZ"))
    cnots = [CliffordLayer("CNOT", (0, 1)), CliffordLayer("CNOT", (2, 1))]
    return {
        "free_basis": Circuit(n, random_basis_input(rng, n), tuple(random_matchgate_layers(rng, n, 4))),
        "free_product": Circuit(n, random_product_input(rng, n), tuple(random_matchgate_layers(rng, n, 4))),
        "swap_product": conjugated_circuit(rng, n, random_product_input(rng, n), swaps),
        "cz_swap_basis": conjugated_circuit(rng, n, random_basis_input(rng, n), mixed),
        "permutation": conjugated_circuit(rng, n, random_basis_input(rng, n), cnots),
    }


@pytest.mark.parametrize(
    "kind", ["free_basis", "free_product", "swap_product", "cz_swap_basis", "permutation"]
)
def test_marginals_after_the_first_read_the_compiled_readout(monkeypatch, kind):
    """A circuit's first marginal builds its readout; later marginals
    neither evolve nor build a covariance."""
    rng = np.random.default_rng(17)
    n = 4
    c = _granted_marginal_circuits(rng, n)[kind]
    full = kind == "permutation"
    if full:
        assert compile_circuit(c).conj_class == tableau.CliffordClass.PERMUTATION

    def query():
        k = n if full else int(rng.integers(1, n + 1))
        qubits = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
        return MarginalQuery(qubits, tuple(int(b) for b in rng.integers(0, 2, size=k)))

    run_marginal(c, query())
    calls = dict.fromkeys(("evolve", "product_state_covariance"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(gaussian, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(gaussian, name, counted)
    ref = oracle.apply_circuit(c)
    for _ in range(8):
        q = query()
        got = run_marginal(c, q)
        assert abs(got - oracle.marginal(ref, q.qubits, q.bits)) <= 1e-9
    assert calls == dict.fromkeys(calls, 0)
    # the counters are live: a recompiled circuit builds its readout again
    compile_circuit.cache_clear()
    run_marginal(c, query())
    assert calls == dict.fromkeys(calls, 1)


@pytest.mark.parametrize(
    "kind", ["free_basis", "free_product", "swap_product", "cz_swap_basis", "permutation"]
)
def test_every_granted_marginal_goes_through_marginal_probability(monkeypatch, kind):
    """gaussian.marginal_probability is the one kernel entry point of a
    marginal, the permutation class's pulled-back bits included."""
    rng = np.random.default_rng(23)
    n = 4
    c = _granted_marginal_circuits(rng, n)[kind]
    calls = []

    def counted(cov, q, **kwargs):
        calls.append(q)
        return kernel(cov, q, **kwargs)

    kernel = gaussian.marginal_probability
    monkeypatch.setattr(gaussian, "marginal_probability", counted)
    ref = oracle.apply_circuit(c)
    for _ in range(4):
        k = n if kind == "permutation" else int(rng.integers(1, n + 1))
        qubits = tuple(int(x) for x in rng.choice(n, size=k, replace=False))
        q = MarginalQuery(qubits, tuple(int(b) for b in rng.integers(0, 2, size=k)))
        assert abs(run_marginal(c, q) - oracle.marginal(ref, q.qubits, q.bits)) <= 1e-9
    assert len(calls) == 4


def test_out_of_range_query_qubits_are_refused_before_the_grants():
    """A post-Clifford circuit refuses every marginal, but a qubit out of
    range is an IndexError first."""
    rng = np.random.default_rng(2)
    n = 3
    body = random_matchgate_layers(rng, n, 2)
    c = Circuit(n, BasisInput((0, 0, 0)), tuple(body + [CliffordLayer("H", (0,))]), "post_clifford")
    for qubits in ((3,), (-1,), (0, 2, 5), (-2, 1)):
        with pytest.raises(IndexError, match="out of range"):
            run_marginal(c, MarginalQuery(qubits, (0,) * len(qubits)))
    with pytest.raises(UnsupportedQuery):
        run_marginal(c, MarginalQuery((0, 2), (0, 1)))


def _log_domain_marginal(gamma, qubits, bits):
    """sqrt|det((Gamma_S + D) / 2)| by numpy's slogdet on a fresh gather,
    qubit q at the pair (2q + 2, 2q + 3)."""
    idx = (2 * np.array(qubits)[:, None] + [2, 3]).ravel()
    sub = np.array(gamma[np.ix_(idx, idx)])
    for i, b in enumerate(bits):
        s = 1.0 - 2.0 * b
        sub[2 * i, 2 * i + 1] += s
        sub[2 * i + 1, 2 * i] -= s
    return float(np.exp(0.5 * np.linalg.slogdet(0.5 * sub)[1]))


@pytest.mark.parametrize("swaps", [False, True])
def test_large_marginals_equal_the_log_determinant_at_n192(swaps):
    """A basis input and one dense quadratic layer of scale 0.15 / sqrt(n),
    free or under SWAPs, whose readout folds a qubit permutation in: each
    marginal equals sqrt|det((Gamma_S + D) / 2)| from slogdet, and
    p(S) = p(S, 0) + p(S, 1)."""
    rng = np.random.default_rng(192 + swaps)
    n = 192
    h = rng.normal(size=(2 * n, 2 * n)) * (0.15 / np.sqrt(n))
    body = [QuadraticLayer(tuple(map(tuple, h - h.T)))]
    inp = random_basis_input(rng, n)
    if swaps:
        gates = random_clifford_gates(rng, n, n, names=("SWAP",))
        c = Circuit(n, inp, tuple(gates + body + invert_clifford_gates(gates)), "conjugated")
    else:
        c = Circuit(n, inp, tuple(body), "free")
    cc = compile_circuit(c)
    pi = cc.basis_map[0].argmax(axis=0) if swaps else np.arange(n)
    assert (pi != np.arange(n)).any() == swaps
    gamma = cc.readout.gamma
    for k in (1, 8, 72, 144, 192):
        qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        a, b = gaussian.majorana_pairs(n)[list(qubits)].T
        # mostly the likelier outcome per qubit, so p stays sizeable
        likely = (gamma[a, b] < 0).astype(int)
        bits = tuple(int(v) for v in likely ^ (rng.random(k) < 0.05))
        p = run_marginal(c, MarginalQuery(qubits, bits))
        assert p > 0.0
        assert p == pytest.approx(_log_domain_marginal(gamma, qubits, bits), rel=1e-12)
        if k < n:
            extra = next(q for q in range(n) if q not in qubits)
            split = [run_marginal(c, MarginalQuery(qubits + (extra,), bits + (v,))) for v in (0, 1)]
            assert sum(split) == pytest.approx(p, rel=1e-12)


def test_body_blocks_are_applied_once_per_compile(monkeypatch):
    """compile_circuit starts S from the body's first block and multiplies
    the others onto it with one rotate_rows pass, so a one-layer dense
    body's S is that layer's R bit for bit; a query that builds the
    readout, folded or not, or a restricted sum reads S and applies no
    block."""
    calls = []
    rotate_rows = linalg.rotate_rows

    def counted(a, blocks):
        calls.append(len(blocks))
        return rotate_rows(a, blocks)

    monkeypatch.setattr(linalg, "rotate_rows", counted)
    compile_circuit.cache_clear()
    rng = np.random.default_rng(41)
    n = 5
    matchgates = random_matchgate_layers(rng, n, 6)
    dense = random_quadratic_layer(rng, n)
    swaps = random_clifford_gates(rng, n, 2 * n, names=("SWAP",))
    general = random_clifford_gates(rng, n, 2 * n, names=("H", "S", "CNOT"))
    for body, inp in itertools.product(
        (matchgates + [dense], [dense] + matchgates, [dense]),
        (random_basis_input(rng, n), random_product_input(rng, n)),
    ):
        for c in (
            Circuit(n, inp, tuple(body), "free"),
            Circuit(n, inp, tuple(swaps + body + invert_clifford_gates(swaps)), "conjugated"),
            Circuit(n, inp, tuple(general + body + invert_clifford_gates(general)), "conjugated"),
        ):
            calls.clear()
            cc = compile_circuit(c)
            assert calls == [len(body) - 1]
            if body == [dense]:
                r = linalg.expm_antisymmetric(simulator.layer_generator(dense, n))
                assert np.array_equal(cc.body, r)
            ref = oracle.apply_circuit(c)
            z = PauliString.single(n, 1, "Z")
            want = oracle.expectation(ref, z).real
            assert abs(run_expectation(c, z) - want) <= 1e-9
            assert abs(restricted_pauli_expectation(c, z) - want) <= 1e-9
            if classify_circuit(c).flags & {"PIBO", "CIBO"}:
                got = run_marginal(c, MarginalQuery((0, 3), (1, 0)))
                assert abs(got - oracle.marginal(ref, (0, 3), (1, 0))) <= 1e-9
            assert calls == [len(body) - 1]


def test_basis_readout_is_one_pair_form_product():
    """A basis input's covariance is nonzero only on the pairs (2a, 2a+1),
    so its readout is Y - Y^T, Y = (S[:, 0::2] z) S[:, 1::2]^T; a product
    input's is Y - Y^T with Y = S triu(gamma, 1) S^T.  At n = 64 under a
    dense layer both are within 1e-15 of S gamma S^T and exactly
    antisymmetric."""
    rng = np.random.default_rng(62)
    n = 64
    for inp in (random_basis_input(rng, n), random_product_input(rng, n)):
        c = Circuit(n, inp, (random_quadratic_layer(rng, n),), "free")
        cc = compile_circuit(c)
        gamma = gaussian.product_state_covariance(inp).gamma
        want = cc.body @ gamma @ cc.body.T
        assert np.max(np.abs(cc.readout.gamma - want)) <= 1e-15
        assert np.array_equal(cc.readout.gamma, -cc.readout.gamma.T)


_ANGLES = st.floats(min_value=-10.0, max_value=10.0) | st.sampled_from((0.0, math.pi / 2, math.pi))


@given(
    st.lists(st.tuples(_ANGLES, _ANGLES), min_size=1, max_size=12),
    st.sampled_from((None, ("SWAP",), ("SWAP", "CZ"))),
    st.booleans(),
    st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_every_covariance_built_is_exactly_antisymmetric(angles, names, basis, seed):
    """gamma == -gamma^T bit for bit, for the closed-form input covariance
    of random Bloch vectors and for the readout of free, SWAP- and
    CZ+SWAP-conjugated circuits on basis and product inputs, whose bodies
    mix matchgate, linear and quadratic layers."""
    rng = np.random.default_rng(seed)
    n = len(angles)
    inp = random_basis_input(rng, n) if basis else ProductInput(tuple(angles))
    g = gaussian.product_state_covariance(ProductInput(tuple(angles))).gamma
    assert np.array_equal(g, -g.T)
    body = random_matchgate_layers(rng, n, 2 * n) if n > 1 else []
    for lay in (random_linear_layer(rng, n), random_quadratic_layer(rng, n)):
        if rng.integers(2):
            body.insert(int(rng.integers(len(body) + 1)), lay)
    if names is None:
        c = Circuit(n, inp, tuple(body), "free")
    else:
        gates = random_clifford_gates(rng, n, 2 * n, names=names) if n > 1 else []
        c = Circuit(n, inp, tuple(gates + body + invert_clifford_gates(gates)), "conjugated")
    g = compile_circuit(c).readout.gamma
    assert np.array_equal(g, -g.T)


@given(st.integers(1, 8), st.integers(-8, 8), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_every_generator_built_is_exactly_antisymmetric(n, exponent, seed):
    """g == -g^T bit for bit, at coefficient magnitudes 1e-8 to 1e8, for a
    stack of matchgate generators and for the generators of a linear layer
    and of a quadratic layer whose h had a defect within TOL.antisymmetry:
    expm_antisymmetric takes them unscanned."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    g = simulator.matchgate_generator(rng.normal(size=(3 * n, 6)) * scale)
    assert np.array_equal(g, -g.swapaxes(-1, -2))
    h = rng.normal(size=(2 * n, 2 * n)) * scale
    h = h - h.T
    # at most TOL.antisymmetry / 2 plus half a spacing of h[0, 1], itself
    # at most TOL.antisymmetry / 2 wherever the addition is not lost
    h[0, 1] += linalg.TOL.antisymmetry / 2
    linear = LinearLayer(tuple(rng.normal(size=2 * n) * scale))
    for lay in (linear, QuadraticLayer(h)):
        g = simulator.layer_generator(lay, n)
        assert np.array_equal(g, -g.swapaxes(-1, -2))


@pytest.mark.parametrize("names", [("SWAP",), ("SWAP", "CZ")], ids=["swap", "cz_swap"])
def test_readout_folds_the_qubit_permutation(names, monkeypatch):
    """Under SWAP and CZ+SWAP conjugations C Z_q C^dag = Z_pi(q), and the
    readout's pair q is pair pi(q) of evolve on the input relabelled by C,
    to 1e-15: pi is folded into the body's rows, so the readout is
    evolve's own covariance, as a free circuit's is."""
    rng = np.random.default_rng([31, len(names)])
    n = 5
    evolved = []
    evolve = gaussian.evolve

    def recorded(cov, s):
        evolved.append(evolve(cov, s))
        return evolved[-1]

    monkeypatch.setattr(gaussian, "evolve", recorded)
    for inp in (random_basis_input(rng, n), random_product_input(rng, n)):
        free = compile_circuit(Circuit(n, inp, tuple(random_matchgate_layers(rng, n, 6)), "free"))
        assert free.readout is evolved[-1]
        gates = random_clifford_gates(rng, n, 2 * n, names=names)
        c = conjugated_circuit(rng, n, inp, gates, body_count=6)
        cc = compile_circuit(c)
        assert cc.conj_class in (tableau.CliffordClass.SWAP_ONLY, tableau.CliffordClass.CZ_SWAP)
        t = c.conjugation_tableau()
        pi = [int(np.flatnonzero(t.image_of_z(q).z)[0]) for q in range(n)]
        if isinstance(inp, BasisInput):
            relabelled = BasisInput(tuple(int(b) for b in tableau.basis_action(t, inp.bits)[0]))
        else:
            relabelled = ProductInput(tuple(inp.angles[pi.index(j)] for j in range(n)))
        want = evolve(gaussian.product_state_covariance(relabelled), cc.body).gamma
        # the ancilla pair stays, and pair q takes pair pi(q)'s rows and columns
        idx = [0, 1] + [2 * j + 2 + i for j in pi for i in (0, 1)]
        assert cc.readout is evolved[-1]
        assert np.max(np.abs(cc.readout.gamma - want[np.ix_(idx, idx)])) <= 1e-15


def test_free_body_with_a_linear_layer_refuses_the_restricted_route():
    """The grant table drops PIpO for any body with a linear layer, free
    ones included; the covariance route still answers their Paulis."""
    rng = np.random.default_rng(32)
    n = 4
    body = tuple(random_matchgate_layers(rng, n, 3) + [random_linear_layer(rng, n)])
    for inp in (random_basis_input(rng, n), random_product_input(rng, n)):
        c = Circuit(n, inp, body, "free")
        flags = classify_circuit(c).flags
        assert "PIpO" not in flags and {"PIPO", "CIPO"} <= flags
        p = PauliString.from_string("XZYI")
        with pytest.raises(UnsupportedQuery, match="linear layers"):
            restricted_pauli_expectation(c, p)
        want = oracle.expectation(oracle.apply_circuit(c), p).real
        assert run_expectation(c, p) == pytest.approx(want, abs=1e-9)


# -- queries as compiled x|z rows ---------------------------------------


def _all_paulis(n):
    """Every n-qubit string at every phase, i^e X^x Z^z."""
    for code in range(4**n):
        letters = [(code >> (2 * q)) & 3 for q in range(n)]
        x = np.array([v & 1 for v in letters], dtype=np.uint8)
        z = np.array([v >> 1 for v in letters], dtype=np.uint8)
        for e in range(4):
            yield PauliString(x, z, e)


def _random_paulis(rng, n, count):
    for _ in range(count):
        x, z = rng.integers(0, 2, size=(2, n))
        yield PauliString(x, z, int(rng.integers(4)))


def _assert_map_decomposes(majoranas, reference, paulis):
    for p in paulis:
        indices, phase = majoranas(p)
        want, mu = reference(p)
        assert tuple(indices.tolist()) == want, p
        assert 1j**phase == mu, p


def _route_maps(cc):
    """(map, reference) of the routes that a compiled circuit's queries
    take: the covariance route's pull-back into the extended frame, the
    restricted route's conjugation into the chain frame."""
    c = cc.circuit
    if c.structure == "post_clifford":
        post = cc.post_inverse
        return cc.expectation_map, lambda p: chain_decompose(embed_l12(post.conjugate_pauli(p)))
    conj = c.conjugation_tableau()
    return cc.restricted_map, lambda p: chain_decompose(conj.conjugate_pauli(p))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_free_maps_equal_the_pauli_string_route_on_every_string(n):
    rng = np.random.default_rng(n)
    c = Circuit(n, random_basis_input(rng, n), tuple(random_matchgate_layers(rng, n, 2)) if n > 1 else (), "free")
    cc = compile_circuit(c)
    assert cc.expectation_map is None  # gaussian.chain_map(n) reads its queries
    _assert_map_decomposes(gaussian.chain_map(n), lambda p: chain_decompose(embed_l12(p)), _all_paulis(n))
    _assert_map_decomposes(cc.restricted_map, chain_decompose, _all_paulis(n))


@pytest.mark.parametrize("n", [2, 3])
def test_compiled_maps_equal_the_pauli_string_route_on_every_string(route_circuits, n):
    for seed in range(2):
        for c in route_circuits(n, seed).values():
            _assert_map_decomposes(*_route_maps(compile_circuit(c)), _all_paulis(n))


def test_compiled_maps_equal_the_pauli_string_route_at_n64(route_circuits):
    n = 64
    rng = np.random.default_rng(64)
    paulis = list(_random_paulis(rng, n, 200))
    for c in route_circuits(n, 0).values():
        _assert_map_decomposes(*_route_maps(compile_circuit(c)), paulis)
    _assert_map_decomposes(gaussian.chain_map(n), lambda p: chain_decompose(embed_l12(p)), paulis)


def _degree_query(c, d, rng):
    """A Hermitian p with C p C^dag of Majorana degree d, C the leading
    block."""
    n = c.n
    prod = PauliString.identity(n)
    for j in sorted(rng.choice(2 * n, size=d, replace=False)):
        prod = prod * chain_majorana(n, int(j))
    if not prod.is_hermitian():
        prod = prod.times_i()
    return tableau.invert(c.conjugation_tableau()).conjugate_pauli(prod)


def test_kept_restricted_batches_equal_the_streamed_sum(route_circuits, monkeypatch):
    """C(16, d) <= MINOR_BATCH for d = 0, 2, 4: the sum's index sets and
    dressed values are kept on the first query.  C(16, 6) = 8008 sets
    stream in batches and are not kept."""
    n = 8
    rng = np.random.default_rng(20)
    circuits = route_circuits(n, 3)
    queries = {
        cls: [_degree_query(circuits[cls], d, rng) for d in (0, 2, 4, 6)]
        for cls in (tableau.CliffordClass.GENERAL, tableau.CliffordClass.SWAP_ONLY)
    }
    kept = {}
    for cls, ps in queries.items():
        kept[cls] = [restricted_pauli_expectation(circuits[cls], p, d_max=6) for p in ps]
        assert set(compile_circuit(circuits[cls]).minor_batches) == {0, 2, 4}
        assert [len(compile_circuit(circuits[cls]).minor_batches[d][0]) for d in (0, 2, 4)] == [1, 120, 1820]
    compile_circuit.cache_clear()
    monkeypatch.setattr(simulator, "MINOR_BATCH", 100)
    for cls, ps in queries.items():
        streamed = [restricted_pauli_expectation(circuits[cls], p, d_max=6) for p in ps]
        assert compile_circuit(circuits[cls]).minor_batches.keys() <= {0}
        assert np.max(np.abs(np.subtract(streamed, kept[cls]))) <= 1e-12
    assert kept[tableau.CliffordClass.GENERAL][0] == pytest.approx(1.0)


def test_kept_restricted_batches_match_the_oracle(route_circuits):
    n = 6
    rng = np.random.default_rng(21)
    for cls, c in route_circuits(n, 4).items():
        if cls == "post_clifford":
            continue
        ref = oracle.apply_circuit(c)
        for d in (1, 2, 3, 4):
            p = _degree_query(c, d, rng)
            for _ in range(2):  # the second reads the kept batch
                got = restricted_pauli_expectation(c, p)
                assert got == pytest.approx(oracle.expectation(ref, p).real, abs=1e-9)


def test_post_clifford_queries_after_the_first_build_no_pauli_strings(route_circuits, monkeypatch):
    """After a circuit's first query, a post-Clifford expectation is one
    row map and one Pfaffian: no PauliString is built, and neither
    conjugate_pauli nor chain_decompose runs."""
    from matchcliff import encodings, pauli

    n = 8
    rng = np.random.default_rng(22)
    c = route_circuits(n, 5)["post_clifford"]
    ref = oracle.apply_circuit(c)
    queries = [random_pauli_string(rng, n) for _ in range(20)]
    run_expectation(c, queries[0])
    calls = {"PauliString": 0, "conjugate_pauli": 0, "chain_decompose": 0}
    post_init = pauli.PauliString.__post_init__
    conjugate = tableau.CliffordTableau.conjugate_pauli

    def counted_init(self):
        calls["PauliString"] += 1
        post_init(self)

    def counted_conjugate(self, p):
        calls["conjugate_pauli"] += 1
        return conjugate(self, p)

    def refused_decompose(p):
        calls["chain_decompose"] += 1
        raise AssertionError("chain_decompose on the row path")

    monkeypatch.setattr(pauli.PauliString, "__post_init__", counted_init)
    monkeypatch.setattr(tableau.CliffordTableau, "conjugate_pauli", counted_conjugate)
    monkeypatch.setattr(encodings, "chain_decompose", refused_decompose)
    got = [run_expectation(c, p) for p in queries]
    assert calls == dict.fromkeys(calls, 0)
    want = [oracle.expectation(ref, p).real for p in queries]
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-9
    # the counters are live
    PauliString.identity(n)
    assert calls["PauliString"] == 1


@pytest.mark.parametrize("route", ["free", "post_clifford", "restricted"])
def test_refusals_keep_their_type_and_message_on_every_route(route_circuits, route):
    """A non-Hermitian string and a string of the wrong length are refused
    by each route's own check, before the row map reads them."""
    n = 4
    circuits = route_circuits(n, 6)
    c = {
        "free": Circuit(n, circuits["post_clifford"].input, circuits["post_clifford"].body_layers(), "free"),
        "post_clifford": circuits["post_clifford"],
        "restricted": circuits[tableau.CliffordClass.GENERAL],
    }[route]
    length = "length mismatch" if route == "free" else "length mismatch: 3 != 4"
    for _ in range(2):  # before and after the circuit's maps are built
        with pytest.raises(ValueError, match="^expectation of a non-Hermitian string$"):
            run_expectation(c, PauliString.from_string("iZIII"))
        with pytest.raises(ValueError, match=f"^{length}$"):
            run_expectation(c, PauliString.from_string("ZII"))
        run_expectation(c, PauliString.from_string("ZIII"))
