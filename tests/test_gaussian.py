import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcliff import gaussian, linalg, oracle
from matchcliff.encodings import chain_decompose, embed_l12, jordan_wigner
from matchcliff.gaussian import (
    CovarianceMatrix,
    MarginalQuery,
    evolve,
    marginal_probability,
    pauli_expectation,
)
from matchcliff.circuits import BasisInput, ProductInput
from matchcliff.linalg import expm_antisymmetric
from matchcliff.pauli import PauliString

from conftest import input_covariance


def _body(m, blocks):
    """S = R_L ... R_1 on m Majoranas, for the blocks (offset, R_i) in
    application order, as compile_circuit multiplies a body's blocks."""
    return linalg.rotate_rows(np.eye(m), blocks)


def _logical(r):
    """S with the rotation r on the logical Majoranas, fixing the ancilla
    pair."""
    return _body(len(r) + 2, [(2, r)])


def test_vacuum_covariance_expectations():
    c = input_covariance(BasisInput((0, 0, 0)))
    assert pauli_expectation(c, PauliString.from_string("ZII")) == pytest.approx(1.0)
    assert pauli_expectation(c, PauliString.from_string("IZI")) == pytest.approx(1.0)
    assert pauli_expectation(c, PauliString.from_string("ZZI")) == pytest.approx(1.0)
    assert pauli_expectation(c, PauliString.from_string("XII")) == 0.0


def test_excited_bit_flips_sign():
    c = input_covariance(BasisInput((1, 0)))
    assert pauli_expectation(c, PauliString.from_string("ZI")) == pytest.approx(-1.0)
    assert pauli_expectation(c, PauliString.from_string("IZ")) == pytest.approx(1.0)


def test_parity_breaking_strings_vanish():
    c = input_covariance(BasisInput((0, 1, 0)))
    for s in ("XII", "IYI", "XZI", "ZZY"):
        assert pauli_expectation(c, PauliString.from_string(s)) == 0.0


def test_covariance_requires_antisymmetry():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.eye(6), 2)


def test_vacuum_marginals():
    c = input_covariance(BasisInput((0,)))
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
        cov = evolve(BasisInput((0,) * n), _logical(expm_antisymmetric(h)))
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
    inp = BasisInput((0, 1, 0, 1))
    s = np.eye(2 * n + 2)
    for _ in range(5):
        h = rng.normal(size=(2 * n, 2 * n))
        h = h - h.T
        s = _logical(expm_antisymmetric(h)) @ s
        g = evolve(inp, s).gamma
        assert np.max(np.abs(g @ g.T - np.eye(2 * n + 2))) <= 1e-8


def test_product_state_covariance_matches_oracle():
    rng = np.random.default_rng(2)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        angles = tuple((float(t), float(p)) for t, p in rng.normal(size=(n, 2)))
        cov = input_covariance(ProductInput(angles))
        assert cov.gamma.shape == (2 * n + 2, 2 * n + 2)
        st = oracle.product_state(angles)
        # single-qubit expectations through the embedded frame
        for q in range(n):
            z = PauliString.single(n, q, "Z")
            want = oracle.expectation(st, z).real
            got = pauli_expectation(cov, z)
            assert abs(got - want) <= 1e-10


def test_marginal_distribution_normalizes():
    rng = np.random.default_rng(4)
    n = 4
    h = rng.normal(size=(2 * n, 2 * n)) * 0.5
    h = h - h.T
    cov = evolve(BasisInput((0, 1, 1, 0)), _logical(expm_antisymmetric(h)))
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
    cov = evolve(BasisInput(bits), _logical(expm_antisymmetric(h - h.T)))
    k = int(rng.integers(1, n + 1))
    qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
    # mostly the likelier outcome per qubit, so the products stay sizeable
    likely = [int(cov.gamma[2 * q + 2, 2 * q + 3] < 0) for q in qubits]
    out = tuple(b ^ int(f) for b, f in zip(likely, rng.random(k) < 0.1))
    idx = [i for q in qubits for i in (2 * q + 2, 2 * q + 3)]
    sub = cov.gamma[np.ix_(idx, idx)].copy()
    signs = [1.0 - 2.0 * b for b in out]
    for i, s in enumerate(signs):
        sub[2 * i, 2 * i + 1] += s
        sub[2 * i + 1, 2 * i] -= s
    signed = 0.5**k * np.prod(signs) * linalg.pfaffian(sub)
    assert signed >= -1e-12
    got = marginal_probability(cov, MarginalQuery(qubits, out))
    assert abs(got - signed) <= 1e-10


def test_empty_marginal_is_one(capfd):
    """k = 0 never reaches dgetrf, which refuses order 0 with a message
    on stdout."""
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 6))
    cov = evolve(BasisInput((1, 0, 1)), _logical(expm_antisymmetric(h - h.T)))
    assert marginal_probability(cov, MarginalQuery((), ())) == 1.0
    assert capfd.readouterr() == ("", "")


def _random_rotation(rng, m):
    h = rng.normal(size=(m, m))
    return expm_antisymmetric(h - h.T)


@given(
    st.integers(min_value=2, max_value=32),
    st.sampled_from(("basis", "product", "poles")),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_block_evolve_equals_dense_conjugation(n, kind, seed):
    """evolve(inp, S) against S gamma S^T of the input's covariance, to
    1e-12, on both of its paths: a basis input, a product input, and a
    product input at the poles, every theta 0 or pi, where sin(0) is
    exactly 0 and sin(pi) is not."""
    rng = np.random.default_rng(seed)
    if kind == "basis":
        inp = BasisInput(tuple(int(b) for b in rng.integers(0, 2, size=n)))
    else:
        angles = rng.normal(size=(n, 2))
        if kind == "poles":
            angles[:, 0] = np.pi * rng.integers(0, 2, size=n)
        inp = ProductInput(tuple(map(tuple, angles)))
    start = input_covariance(inp)
    m = start.gamma.shape[0]
    # matchgate blocks leave the ancilla pair alone; a dense block, like a
    # linear layer's, fixes Majorana 0 only
    blocks = [(int(rng.integers(2, m - 3)), _random_rotation(rng, 4)) for _ in range(3 * n)]
    dense = np.eye(m)
    dense[1:, 1:] = _random_rotation(rng, m - 1)
    blocks.insert(n, (0, dense))
    s = np.eye(m)
    for off, r in blocks:
        full = np.eye(m)
        full[off : off + r.shape[0], off : off + r.shape[0]] = r
        s = full @ s
    assert np.max(np.abs(_body(m, blocks) - s)) <= 1e-12
    got = evolve(inp, _body(m, blocks)).gamma
    assert np.max(np.abs(got - s @ start.gamma @ s.T)) <= 1e-12


def test_evolve_refuses_blocks_that_break_the_frame():
    """A body operator that moves Majorana 0, or does not fit the
    covariance, is refused, however its blocks were laid out."""
    rng = np.random.default_rng(6)
    inp = BasisInput((0, 1))
    with pytest.raises(gaussian.FrameworkError, match="Majorana 0"):
        evolve(inp, _body(6, [(0, _random_rotation(rng, 4))]))
    with pytest.raises(gaussian.FrameworkError, match="Majorana 0"):
        evolve(inp, _body(6, [(2, _random_rotation(rng, 4)), (0, _random_rotation(rng, 6))]))
    with pytest.raises(gaussian.FrameworkError, match="does not fit"):
        evolve(inp, _body(8, [(4, _random_rotation(rng, 4))]))  # rows 4..7 of 6


def test_evolve_refuses_any_non_orthogonal_block():
    rng = np.random.default_rng(8)
    for inp in (BasisInput((0, 1, 1, 0)), ProductInput(((0.3, 0.1),) * 4)):
        for k, order in ((2, 4), (1, 8)):
            blocks = [(2, _random_rotation(rng, 4)) for _ in range(4)]
            blocks.insert(k, (0, 1.001 * _random_rotation(rng, order)))
            with pytest.raises(ValueError, match="not orthogonal"):
                evolve(inp, _body(10, blocks))


def _hermitian_majorana_monomials(n):
    """Every Hermitian chain-form c_j and i c_j c_k on n qubits."""
    cs = jordan_wigner(n).majoranas
    yield from cs
    for j in range(2 * n):
        for k in range(j + 1, 2 * n):
            yield (cs[j] * cs[k]).times_i()


def test_closed_form_product_covariance_matches_oracle_on_degree_two():
    rng = np.random.default_rng(7)
    special = (0.0, np.pi / 2, np.pi)
    for n in range(1, 9):
        thetas = [special[q % 3] if q % 2 == 0 else rng.uniform(0, np.pi) for q in range(n)]
        angles = tuple((float(t), float(rng.uniform(0, 2 * np.pi))) for t in thetas)
        cov = input_covariance(ProductInput(angles))
        st = oracle.product_state(angles)
        for p in _hermitian_majorana_monomials(n):
            want = oracle.expectation(st, p).real
            assert abs(pauli_expectation(cov, p) - want) <= 1e-10, (n, str(p))


def test_closed_form_product_covariance_is_pure_at_n256():
    rng = np.random.default_rng(8)
    n = 256
    thetas = rng.choice([0.0, np.pi / 2, np.pi, 0.3, 2.0], size=n)
    angles = tuple((float(t), float(p)) for t, p in zip(thetas, rng.uniform(0, 2 * np.pi, n)))
    gamma = input_covariance(ProductInput(angles)).gamma
    assert np.max(np.abs(gamma @ gamma.T - np.eye(2 * n + 2))) <= 1e-12


def test_basis_covariance_differs_from_the_lifted_block_form_only_in_majorana_0():
    """A basis input's covariance is the block-diagonal form with exact
    zeros off its pairs, and its ancilla pair holds the input's parity
    where the block form lifted by an ancilla in |0> holds +1.  Every
    rotation fixes Majorana 0 and no embedded query reads it, so both give
    every expectation and marginal alike, with or without a linear layer."""
    rng = np.random.default_rng(9)
    n = 3
    m = 2 * n + 2
    paulis = [
        PauliString.from_string("".join(letters))
        for letters in itertools.product("IXYZ", repeat=n)
    ]
    assert all(0 not in chain_decompose(embed_l12(p))[0] for p in paulis)
    for bits in itertools.product((0, 1), repeat=n):
        lifted = np.zeros((m, m))
        for site, z in enumerate((1.0,) + tuple(1.0 - 2.0 * b for b in bits)):
            lifted[2 * site, 2 * site + 1], lifted[2 * site + 1, 2 * site] = z, -z
        want = lifted.copy()
        want[0, 1], want[1, 0] = (-1.0) ** sum(bits), -((-1.0) ** sum(bits))
        cov = input_covariance(BasisInput(bits))
        assert np.array_equal(cov.gamma, want)
        # a linear layer's dense rotation mixes Majorana 1 into the others
        dense = np.eye(m)
        dense[1:, 1:] = _random_rotation(rng, m - 1)
        blocks = [(int(rng.integers(2, m - 3)), _random_rotation(rng, 4)) for _ in range(4)]
        for body in (_body(m, blocks), _body(m, blocks + [(0, dense)])):
            new = evolve(BasisInput(bits), body)
            # S lifted S^T by hand, as Y - Y^T with Y from the lifted pairs
            y = (body[:, 0::2] * lifted.diagonal(1)[::2]) @ body[:, 1::2].T
            old = CovarianceMatrix(y - y.T, n)
            assert np.array_equal(new.gamma[1:, 1:], old.gamma[1:, 1:])
            for p in paulis:
                if p.is_hermitian():
                    assert pauli_expectation(new, p) == pauli_expectation(old, p)
            for out in itertools.product((0, 1), repeat=n):
                q = MarginalQuery(tuple(range(n)), out)
                assert marginal_probability(new, q) == marginal_probability(old, q)


def test_marginal_query_refuses_bits_other_than_0_and_1():
    for bits in ((2,), (0, -1), (0.5, 0), ("1", 0)):
        with pytest.raises(ValueError, match="0 or 1"):
            MarginalQuery(tuple(range(len(bits))), bits)
    q = MarginalQuery((np.int64(2), 0), (np.int64(1), False))
    assert (q.qubits, q.bits) == ((2, 0), (1, 0))


def test_marginal_query_refuses_qubits_that_are_not_integers():
    """(1.9,) read qubit 1 and (0.99,) qubit 0; a qubit goes through
    operator.index, so numpy integers pass and nothing is truncated."""
    for qubits in ((1.9,), (0.99,), (1.0,), ("1",), (np.float64(2.0), 0)):
        with pytest.raises(ValueError, match="integers"):
            MarginalQuery(qubits, (0,) * len(qubits))
    q = MarginalQuery((np.int32(3), np.intp(1)), (0, 1))
    assert q.qubits == (3, 1) and all(type(i) is int for i in q.qubits)


def test_marginal_kernel_reads_the_given_pair_table():
    """Qubit q reads row q of majorana_pairs, the pair (2q + 2, 2q + 3):
    <Z_q> = gamma[2q + 2, 2q + 3], so p(q = b) = (1 + (-1)^b gamma) / 2."""
    rng = np.random.default_rng(6)
    n = 4
    h = rng.normal(size=(2 * n, 2 * n))
    cov = evolve(BasisInput((0, 1, 1, 0)), _logical(expm_antisymmetric(h - h.T)))
    pairs = gaussian.majorana_pairs(n)
    assert pairs.tolist() == [[2, 3], [4, 5], [6, 7], [8, 9]]
    for q, (a, b) in enumerate(pairs):
        for bit in (0, 1):
            got = marginal_probability(cov, MarginalQuery((q,), (bit,)))
            want = (1 + (1 - 2 * bit) * cov.gamma[a, b]) / 2
            assert got == pytest.approx(want, abs=1e-14)
    ext = gaussian.majorana_pairs(3)
    assert ext.tolist() == [[2, 3], [4, 5], [6, 7]]
    assert not ext.flags.writeable
    for qubits in ((4,), (-1,), (0, 5)):
        with pytest.raises(IndexError):
            marginal_probability(cov, MarginalQuery(qubits, (0,) * len(qubits)))


def test_covariance_refuses_a_defect_past_the_tolerance_at_construction():
    """The constructor applies check_antisymmetric's rule, TOL.antisymmetry
    at 1x: a defect past it, or a NaN entry, is refused when the
    covariance is built, not query by query."""
    g = input_covariance(BasisInput((0, 1, 0))).gamma
    for bad in (2 * linalg.TOL.antisymmetry, 5e-12, np.nan):
        off = g.copy()
        off[4, 6] = bad  # between qubits 1 and 2, unmatched by off[6, 4]
        with pytest.raises(linalg.NotAntisymmetric):
            CovarianceMatrix(off, 3)
        with pytest.raises(linalg.NotAntisymmetric):
            linalg.check_antisymmetric(off)


@pytest.mark.parametrize("n", [1, 5, 40])
def test_impossible_outcome_on_a_basis_input_is_exactly_zero(n):
    """A flipped bit makes its 2x2 block of Gamma_S + D exactly zero, so
    the LU meets an exactly zero pivot, at k = 1 and at k = n."""
    rng = np.random.default_rng(n)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
    cov = input_covariance(BasisInput(bits))
    j = int(rng.integers(n))
    assert marginal_probability(cov, MarginalQuery((j,), (1 - bits[j],))) == 0.0
    assert marginal_probability(cov, MarginalQuery((j,), (bits[j],))) == 1.0
    flipped = tuple(b ^ (q == j) for q, b in enumerate(bits))
    assert marginal_probability(cov, MarginalQuery(tuple(range(n)), flipped)) == 0.0
    assert marginal_probability(cov, MarginalQuery(tuple(range(n)), bits)) == 1.0


def test_marginal_on_a_within_tolerance_covariance_makes_one_lu_and_no_rescan(monkeypatch):
    """Counters on the antisymmetry scan, its check and the LU, with
    numpy's slogdet refused: a marginal on an evolved covariance, or on a
    hand-built one within the tolerance, makes one dgetrf and no scan."""
    import scipy.linalg.lapack

    rng = np.random.default_rng(8)
    n = 6
    h = rng.normal(size=(2 * n, 2 * n))
    cov = evolve(BasisInput((0, 1, 1, 0, 1, 0)), _logical(expm_antisymmetric(h - h.T)))
    g = input_covariance(BasisInput((0, 1, 0))).gamma.copy()
    g[4, 6] = linalg.TOL.antisymmetry / 2
    loose = CovarianceMatrix(g, 3)
    calls = dict.fromkeys(("antisymmetry_defect", "check_antisymmetric", "dgetrf"), 0)
    for owner, name in (
        (linalg, "antisymmetry_defect"),
        (linalg, "check_antisymmetric"),
        (scipy.linalg.lapack, "dgetrf"),
    ):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    monkeypatch.setattr(np.linalg, "slogdet", None)
    for k in (1, 3, n):
        marginal_probability(cov, MarginalQuery(tuple(range(k)), (1,) * k))
    assert calls == {"antisymmetry_defect": 0, "check_antisymmetric": 0, "dgetrf": 3}
    assert marginal_probability(loose, MarginalQuery((1, 2), (1, 0))) == pytest.approx(1.0)
    assert calls == {"antisymmetry_defect": 0, "check_antisymmetric": 0, "dgetrf": 4}


def test_expectation_makes_no_scan_and_hands_dgehrd_an_exact_matrix(monkeypatch):
    """Counters on the antisymmetry scan and its check, and a recorder on
    dgehrd: an expectation on an evolved covariance, or on a hand-built
    one within the tolerance, makes no scan, and the Pfaffian hands dgehrd
    the gathered submatrix, exactly antisymmetric, with no symmetrised
    copy."""
    import scipy.linalg.lapack

    rng = np.random.default_rng(9)
    n = 6
    h = rng.normal(size=(2 * n, 2 * n))
    cov = evolve(BasisInput((0, 1, 1, 0, 1, 0)), _logical(expm_antisymmetric(h - h.T)))
    g = input_covariance(BasisInput((0, 1, 0))).gamma.copy()
    g[4, 6] = linalg.TOL.antisymmetry / 2
    loose = CovarianceMatrix(g, 3)
    calls = dict.fromkeys(("antisymmetry_defect", "check_antisymmetric"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counted)
    factored = []
    dgehrd = scipy.linalg.lapack.dgehrd

    def recorded(a, *args, **kwargs):
        factored.append(a)
        return dgehrd(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgehrd", recorded)
    queries = [(cov, p) for p in ("XYZZXY", "YIIIIX", "ZZZZZZ")] + [(loose, "ZZZ")]
    for c, p in queries:
        pauli_expectation(c, PauliString.from_string(p))
    assert calls == {"antisymmetry_defect": 0, "check_antisymmetric": 0}
    assert [len(a) for a in factored] == [8, 10, 12, 6]
    for (c, p), a in zip(queries, factored):
        idx, _ = gaussian.chain_map(c.n)(PauliString.from_string(p))
        assert np.array_equal(a, c.gamma[np.ix_(idx, idx)])
        assert np.array_equal(a, -a.T)


def test_covariance_keeps_the_antisymmetric_part_of_a_within_tolerance_defect():
    """A defect at or below TOL.antisymmetry is admitted and kept as
    (gamma - gamma^T) / 2, exactly antisymmetric; an exactly
    antisymmetric gamma is kept bit for bit."""
    g = input_covariance(BasisInput((0, 1))).gamma
    assert np.array_equal(CovarianceMatrix(g, 2).gamma, g)
    for defect in (4e-13, linalg.TOL.antisymmetry):
        off = g.copy()
        off[2, 5] = defect
        want = g.copy()
        want[2, 5], want[5, 2] = defect / 2, -defect / 2
        assert np.array_equal(CovarianceMatrix(off, 2).gamma, want)


def test_covariance_keeps_a_read_only_copy_of_the_callers_array():
    """The constructor made the caller's array read-only; it now keeps a
    read-only copy, and the caller's array stays writeable."""
    g = input_covariance(BasisInput((0, 1))).gamma.copy()
    for defect in (0.0, 4e-13):  # kept as is, and as its antisymmetric part
        g[2, 5] = defect
        cov = CovarianceMatrix(g, 2)
        assert g.flags.writeable and not cov.gamma.flags.writeable
        g[2, 5] = 0.5
        assert cov.gamma[2, 5] == defect / 2
