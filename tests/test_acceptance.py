"""Acceptance gate: end-to-end checks of every granted simulation route
against the dense oracle, plus the kernel and construction properties the
engine relies on.  Each test prints a single PASS line with its headline
numbers; a failure raises before the line is printed.
"""
import itertools
import time

import numpy as np
import pytest

from matchcliff import oracle, simulator, tableau
from matchcliff.circuits import (
    BasisInput,
    Circuit,
    CliffordLayer,
    LinearLayer,
    MatchgateLayer,
    ProductInput,
)
from matchcliff.encodings import (
    Encoding,
    conjugate_encoding,
    embed_l12,
    encoding_matrix,
    jordan_wigner,
    parity_extended_h,
    parity_extended_majoranas,
    recover_cz_swap_circuit,
    validate,
)
from matchcliff.gaussian import MarginalQuery
from matchcliff.linalg import expm_antisymmetric, pfaffian
from matchcliff.pauli import PauliString
from matchcliff.simulator import (
    UnsupportedQuery,
    ghz4_gadget,
    run_expectation,
    run_marginal,
)
from matchcliff.tableau import basis_action, from_gates

from conftest import (
    FIXTURES,
    conjugated_circuit,
    invert_clifford_gates,
    random_basis_input,
    random_clifford_gates,
    random_matchgate_layers,
    random_pauli_string,
    random_product_input,
)

TOL_ORACLE = 1e-9


def report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


def all_marginal_queries(n, k_max=None):
    k_max = n if k_max is None else min(n, k_max)
    for k in range(1, k_max + 1):
        for qubits in itertools.combinations(range(n), k):
            for bits in itertools.product((0, 1), repeat=k):
                yield MarginalQuery(qubits, bits)


def test_01_basis_input_marginals_match_oracle():
    """Free matchgate circuits on basis inputs: every marginal, every
    subset size, n = 2..8, within 1e-9, under a 60 s budget."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    checked = 0
    for trial in range(50):
        n = 2 + trial % 7
        c = Circuit(
            n,
            random_basis_input(rng, n),
            tuple(random_matchgate_layers(rng, n, 4)),
            "free",
        )
        ref = oracle.apply_circuit(c)
        for q in all_marginal_queries(n):
            got = run_marginal(c, q)
            want = oracle.marginal(ref, q.qubits, q.bits)
            worst = max(worst, abs(got - want))
            checked += 1
    elapsed = time.monotonic() - t0
    assert worst <= TOL_ORACLE
    assert elapsed < 60.0
    report(
        "basis-input-marginals",
        f"50 circuits, {checked} marginals, max dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_swap_conjugated_product_input_marginals():
    """SWAP-network conjugations on product inputs: all marginals match
    the oracle through the extended quadratic frame."""
    rng = np.random.default_rng(102)
    worst = 0.0
    checked = 0
    for trial in range(20):
        n = 2 + trial % 4
        gates = random_clifford_gates(rng, n, 4, names=("SWAP",))
        c = conjugated_circuit(rng, n, random_product_input(rng, n), gates)
        ref = oracle.apply_circuit(c)
        for q in all_marginal_queries(n):
            got = run_marginal(c, q)
            want = oracle.marginal(ref, q.qubits, q.bits)
            worst = max(worst, abs(got - want))
            checked += 1
    assert worst <= TOL_ORACLE
    report(
        "swap-conjugated-product-marginals",
        f"20 circuits, {checked} marginals, max dev {worst:.2e}",
    )


def test_03_cz_swap_conjugated_basis_marginals_and_phase_cancellation():
    """CZ+SWAP conjugations on basis inputs: all marginals match the
    oracle, and the tracked basis-action signs cancel (the input's phase
    has modulus exactly 1, so it cannot weigh on a probability)."""
    rng = np.random.default_rng(103)
    worst = 0.0
    checked = 0
    for trial in range(20):
        n = 2 + trial % 4
        gates = random_clifford_gates(rng, n, 5, names=("SWAP", "CZ"))
        c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates)
        bits, phase = basis_action(c.conjugation_tableau(), c.input.bits)
        assert (phase * np.conj(phase)).real == 1.0  # the signs never matter
        a, b = simulator.compile_circuit(c).basis_map
        assert np.array_equal((a @ np.array(c.input.bits) + b) & 1, bits)
        ref = oracle.apply_circuit(c)
        for q in all_marginal_queries(n):
            got = run_marginal(c, q)
            want = oracle.marginal(ref, q.qubits, q.bits)
            worst = max(worst, abs(got - want))
            checked += 1
    assert worst <= TOL_ORACLE
    report(
        "cz-swap-conjugated-basis-marginals",
        f"20 circuits, {checked} marginals, max dev {worst:.2e}, phases cancel",
    )


def test_04_encoding_fixture_recovery():
    """The CZ-chain fixture encodings are recovered as the nearest-
    neighbor CZ chain for n = 4..8; the reorder fixture needs SWAPs only;
    conjugating the chain form by the recovered circuit reproduces each
    fixture exactly."""

    def read_encoding(path):
        with open(path) as fh:
            return Encoding(
                tuple(PauliString.from_string(ln.strip()) for ln in fh if ln.strip())
            )

    def roundtrip_exact(enc, rec):
        conj = conjugate_encoding(
            jordan_wigner(enc.n), from_gates(enc.n, list(rec.gates))
        )
        return all(
            conj.majoranas[2 * i + o] == enc.majoranas[2 * r + o]
            for i, r in enumerate(rec.mode_order)
            for o in (0, 1)
        )

    for n in range(4, 9):
        enc = read_encoding(f"{FIXTURES}/cz_chain_n{n}.txt")
        rec = recover_cz_swap_circuit(encoding_matrix(enc))
        assert rec.swaps == ()
        assert rec.czs == tuple((i, i + 1) for i in range(n - 1))
        assert roundtrip_exact(enc, rec)
    enc = read_encoding(f"{FIXTURES}/reorder_equiv.txt")
    rec = recover_cz_swap_circuit(encoding_matrix(enc))
    assert rec.czs == () and rec.swaps != ()
    assert roundtrip_exact(enc, rec)
    report(
        "encoding-fixture-recovery",
        "CZ chains n=4..8 and the reorder fixture round-trip exactly",
    )


def test_05_permutation_conjugated_marginals_and_projector_pullback():
    """Permutation conjugations: full-length marginals match the oracle,
    shorter ones are refused, and the eight-qubit CNOT-chain example
    pulls one six-qubit projector back to exactly the four expected
    basis projectors."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(10):
        n = 2 + trial % 4
        gates = random_clifford_gates(rng, n, 4, names=("CNOT", "S", "SWAP"))
        c = conjugated_circuit(rng, n, random_basis_input(rng, n), gates)
        if tableau.classify(c.conjugation_tableau()) != tableau.CliffordClass.PERMUTATION:
            continue
        ref = oracle.apply_circuit(c)
        for bits in itertools.product((0, 1), repeat=n):
            got = run_marginal(c, MarginalQuery(tuple(range(n)), bits))
            worst = max(worst, abs(got - oracle.marginal(ref, tuple(range(n)), bits)))
        with pytest.raises(UnsupportedQuery):
            run_marginal(c, MarginalQuery(tuple(range(n - 1)), (0,) * (n - 1)))
    assert worst <= TOL_ORACLE

    # CNOT-chain pullback of |001001><001001| on the first six of eight
    chain = [(7, 6), (8, 5), (5, 4), (4, 3), (3, 2), (2, 1)]
    t = from_gates(8, [("CNOT", a - 1, b - 1) for a, b in chain])
    images = set()
    for extra in itertools.product((0, 1), repeat=2):
        bits = tuple(int(b) for b in "001001") + extra
        out_bits, _ = basis_action(t, bits)
        images.add("".join(str(int(x)) for x in out_bits))
    assert images == {"11100100", "11100010", "00011101", "00011011"}
    report(
        "permutation-conjugated-marginals",
        f"full-length max dev {worst:.2e}, short queries refused, "
        "pullback gives exactly 4 basis projectors",
    )


def test_06_post_clifford_basis_pauli_expectations():
    """Arbitrary Clifford after a matchgate block, basis inputs: 30
    circuits x 200 random Pauli expectations within 1e-9."""
    rng = np.random.default_rng(106)
    worst = 0.0
    for trial in range(30):
        n = 2 + trial % 5
        body = random_matchgate_layers(rng, n, 3)
        trail = random_clifford_gates(rng, n, 5)
        c = Circuit(n, random_basis_input(rng, n), tuple(body + trail), "post_clifford")
        ref = oracle.apply_circuit(c)
        for _ in range(200):
            p = random_pauli_string(rng, n)
            got = run_expectation(c, p)
            worst = max(worst, abs(got - oracle.expectation(ref, p).real))
    assert worst <= TOL_ORACLE
    report(
        "post-clifford-basis-expectations",
        f"30 circuits x 200 Paulis, max dev {worst:.2e}",
    )


def test_07_post_clifford_product_pauli_expectations():
    """Clifford after a linear-plus-quadratic block, product inputs: 30
    circuits x 200 random Paulis, including parity-breaking strings with
    nonzero values."""
    rng = np.random.default_rng(107)
    worst = 0.0
    largest_breaking = 0.0
    for trial in range(30):
        n = 2 + trial % 4
        body = random_matchgate_layers(rng, n, 3)
        body.append(LinearLayer(tuple(rng.normal(size=2 * n) * 0.4)))
        trail = random_clifford_gates(rng, n, 5)
        c = Circuit(
            n, random_product_input(rng, n), tuple(body + trail), "post_clifford"
        )
        ref = oracle.apply_circuit(c)
        for _ in range(200):
            p = random_pauli_string(rng, n)
            got = run_expectation(c, p)
            want = oracle.expectation(ref, p).real
            worst = max(worst, abs(got - want))
            if not p.parity_preserving():
                largest_breaking = max(largest_breaking, abs(want))
    assert worst <= TOL_ORACLE
    assert largest_breaking > 0.01  # the run really exercised broken parity
    report(
        "post-clifford-product-expectations",
        f"30 circuits x 200 Paulis, max dev {worst:.2e}, "
        f"largest parity-breaking value {largest_breaking:.3f}",
    )


def test_08_hadamard_conjugated_restricted_expectations():
    """Hadamard-layer conjugations on product inputs: every Pauli whose
    pullback has Majorana degree at most 4 matches the oracle."""
    rng = np.random.default_rng(108)
    worst = 0.0
    accepted = 0
    skipped = 0
    for n in (2, 3, 4, 5):
        gates = [CliffordLayer("H", (q,)) for q in range(n)]
        c = conjugated_circuit(rng, n, random_product_input(rng, n), gates)
        ref = oracle.apply_circuit(c)
        for letters in itertools.product("IXYZ", repeat=n):
            p = PauliString.from_string("".join(letters))
            try:
                got = run_expectation(c, p, d_max=4)
            except simulator.DegreeTooLarge:
                skipped += 1
                continue
            worst = max(worst, abs(got - oracle.expectation(ref, p).real))
            accepted += 1
    assert worst <= TOL_ORACLE
    assert accepted > 0
    report(
        "hadamard-conjugated-restricted-expectations",
        f"{accepted} degree<=4 Paulis, {skipped} over budget, max dev {worst:.2e}",
    )


def test_09_ghz_gadget_postselection():
    """The six-qubit CZ-conjugated gadget leaves (|0000>+|1111>)/sqrt(2)
    on the first four qubits after post-selecting 00 on the last two,
    with a seed-stable post-selection probability."""
    g = ghz4_gadget()
    ref = oracle.apply_circuit(g.circuit)
    post, prob = oracle.postselect(ref, g.postselect_qubits, g.postselect_bits)
    fid = abs(np.vdot(g.target_state, post.amp)) ** 2
    assert fid >= 1 - 1e-9
    ref2 = oracle.apply_circuit(g.circuit)
    _, prob2 = oracle.postselect(ref2, g.postselect_qubits, g.postselect_bits)
    assert prob == prob2  # deterministic per construction
    report(
        "ghz-gadget-postselection",
        f"fidelity {fid:.12f}, probability {prob:.6f} reproducible",
    )


def test_10_stabilizer_states_are_gaussian_for_constructed_encodings():
    """Every stabilizer state is Gaussian for the encoding built by
    conjugating the chain form with its preparation Clifford; the
    four-qubit cat state is not Gaussian in the chain form; the residual
    is invariant under simultaneous conjugation."""
    rng = np.random.default_rng(110)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        gates = random_clifford_gates(rng, n, int(rng.integers(3, 6 * n)))
        t = from_gates(n, [(g.gate, *g.qubits) for g in gates])
        enc = conjugate_encoding(jordan_wigner(n), t)
        st = oracle.basis_state(n, (0,) * n)
        for g in gates:
            st = oracle.apply_clifford_gate(st, g.gate, g.qubits)
        worst = max(worst, oracle.gaussianity_residual(st, enc))
    assert worst <= 1e-9

    cat = np.zeros(16, dtype=complex)
    cat[0b0000] = cat[0b1111] = 1 / np.sqrt(2)
    cat_res = oracle.gaussianity_residual(oracle.DenseState(4, cat), jordan_wigner(4))
    assert cat_res > 0.1

    # invariance: residual(C|psi>, C enc C^dag) == residual(|psi>, enc)
    worst_inv = 0.0
    for trial in range(10):
        n = 4
        gates = random_clifford_gates(rng, n, 8)
        t = from_gates(n, [(g.gate, *g.qubits) for g in gates])
        amp = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        amp /= np.linalg.norm(amp)
        st = oracle.DenseState(n, amp)
        r0 = oracle.gaussianity_residual(st, jordan_wigner(n))
        st2 = st
        for g in gates:
            st2 = oracle.apply_clifford_gate(st2, g.gate, g.qubits)
        r1 = oracle.gaussianity_residual(
            st2, conjugate_encoding(jordan_wigner(n), t)
        )
        worst_inv = max(worst_inv, abs(r0 - r1))
    assert worst_inv <= 1e-9
    report(
        "stabilizer-gaussianity",
        f"100 states max residual {worst:.2e}, cat residual {cat_res:.3f}, "
        f"conjugation invariance {worst_inv:.2e}",
    )


def test_11_kernel_properties():
    """Pfaffian squares to the determinant up to 40x40; the quadratic
    generator exponential is orthogonal to 1e-10; the generator scaling
    matches dense single-gate Heisenberg evolution to 1e-10."""
    rng = np.random.default_rng(111)
    worst_pf = 0.0
    for n in (2, 4, 8, 16, 24, 32, 40):
        for _ in range(3):
            a = rng.normal(size=(n, n))
            a = a - a.T
            det = np.linalg.det(a)
            worst_pf = max(worst_pf, abs(pfaffian(a) ** 2 - det) / abs(det))
    assert worst_pf <= 1e-9

    worst_orth = 0.0
    for n in (2, 10, 24, 40):
        h = rng.normal(size=(n, n))
        h = h - h.T
        r = expm_antisymmetric(h)
        worst_orth = max(worst_orth, np.max(np.abs(r @ r.T - np.eye(n))))
    assert worst_orth <= 1e-10

    from matchcliff.simulator import matchgate_generator

    jw = jordan_wigner(2)
    worst_heis = 0.0
    for _ in range(5):
        coeffs = tuple(rng.normal(size=6) * 0.6)
        r = expm_antisymmetric(matchgate_generator(coeffs))
        u = oracle._matchgate_unitary(coeffs)
        for i in range(4):
            lhs = u.conj().T @ jw.majoranas[i].dense() @ u
            rhs = sum(r[i, j] * jw.majoranas[j].dense() for j in range(4))
            worst_heis = max(worst_heis, np.max(np.abs(lhs - rhs)))
    assert worst_heis <= 1e-10
    report(
        "kernel-properties",
        f"Pf^2/det {worst_pf:.2e}, orthogonality {worst_orth:.2e}, "
        f"Heisenberg scaling {worst_heis:.2e}",
    )


def test_12_parity_extension_and_embedding():
    """The parity-extended quadratic generator reproduces the original
    linear-plus-quadratic Hamiltonian as a dense matrix (n <= 4); the
    ancilla embedding of degree-<=2 Majorana products is multiplicative
    on 200 random pairs, exactly."""
    rng = np.random.default_rng(112)
    worst = 0.0
    for n in (2, 3, 4):
        enc = jordan_wigner(n)
        ext = parity_extended_majoranas(enc)
        d = [p.dense() for p in ext]
        for _ in range(5):
            b = rng.normal(size=2 * n)
            h = rng.normal(size=(2 * n, 2 * n))
            h = h - h.T
            want = sum(bj * enc.majoranas[j].dense() for j, bj in enumerate(b))
            want = want + sum(
                1j * h[i, j] * enc.majoranas[i].dense() @ enc.majoranas[j].dense()
                for i in range(2 * n)
                for j in range(2 * n)
            )
            hp = parity_extended_h(h, b)
            got = sum(
                1j * hp[i, j] * d[i] @ d[j]
                for i in range(2 * n + 1)
                for j in range(2 * n + 1)
                if hp[i, j] != 0.0
            )
            worst = max(worst, np.max(np.abs(got - want)))
    assert worst <= 1e-10

    exact = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        jw = jordan_wigner(n)

        def rand_low_degree():
            k = 1 if rng.integers(2) == 0 else 2
            idx = rng.choice(2 * n, size=int(k), replace=False)
            p = jw.majoranas[int(idx[0])]
            for i in idx[1:]:
                p = p * jw.majoranas[int(i)]
            return p

        p, q = rand_low_degree(), rand_low_degree()
        exact = exact and (embed_l12(p * q) == embed_l12(p) * embed_l12(q))
    assert exact
    report(
        "parity-extension-and-embedding",
        f"dense generator dev {worst:.2e}, embedding multiplicative on 200 pairs",
    )


def test_13_marginal_distributions_normalize():
    """Every marginal-capable configuration yields distributions summing
    to one for subset sizes up to 4."""
    rng = np.random.default_rng(113)
    worst = 0.0
    configs = []
    for n in (3, 4):
        configs.append(
            Circuit(
                n,
                random_basis_input(rng, n),
                tuple(random_matchgate_layers(rng, n, 3)),
                "free",
            )
        )
        configs.append(
            Circuit(
                n,
                random_product_input(rng, n),
                tuple(random_matchgate_layers(rng, n, 3)),
                "free",
            )
        )
        swaps = random_clifford_gates(rng, n, 3, names=("SWAP",))
        configs.append(conjugated_circuit(rng, n, random_basis_input(rng, n), swaps))
        configs.append(conjugated_circuit(rng, n, random_product_input(rng, n), swaps))
        czsw = random_clifford_gates(rng, n, 4, names=("SWAP", "CZ"))
        configs.append(conjugated_circuit(rng, n, random_basis_input(rng, n), czsw))
        perm = random_clifford_gates(rng, n, 3, names=("CNOT", "S"))
        configs.append(conjugated_circuit(rng, n, random_basis_input(rng, n), perm))
    checked = 0
    for c in configs:
        for k in range(1, min(c.n, 4) + 1):
            for qubits in itertools.combinations(range(c.n), k):
                try:
                    total = sum(
                        run_marginal(c, MarginalQuery(qubits, bits))
                        for bits in itertools.product((0, 1), repeat=k)
                    )
                except UnsupportedQuery:
                    continue
                worst = max(worst, abs(total - 1.0))
                checked += 1
    assert checked > 0
    assert worst <= 1e-8
    report(
        "marginal-normalization",
        f"{checked} distributions, max |sum - 1| = {worst:.2e}",
    )
