import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcliff import tableau
from matchcliff.encodings import (
    Encoding,
    MalformedPairing,
    NotCzSwapFamily,
    bravyi_kitaev,
    chain_decompose,
    chain_majorana,
    chain_monomials,
    conjugate_encoding,
    decompose_pauli,
    embed_l12,
    encoding_matrix,
    jordan_wigner,
    parity_extended_h,
    parity_extended_majoranas,
    recover_cz_swap_circuit,
    validate,
)
from matchcliff.pauli import PauliString

from conftest import FIXTURES


def read_encoding(path):
    with open(path) as fh:
        return Encoding(
            tuple(PauliString.from_string(ln.strip()) for ln in fh if ln.strip())
        )


def car_holds_dense(enc):
    d = [p.dense() for p in enc.majoranas]
    eye = np.eye(d[0].shape[0])
    for i in range(len(d)):
        if not np.allclose(d[i], d[i].conj().T):
            return False
        for j in range(i, len(d)):
            anti = d[i] @ d[j] + d[j] @ d[i]
            want = 2 * eye if i == j else 0 * eye
            if not np.allclose(anti, want, atol=1e-12):
                return False
    return True


def test_jordan_wigner_structure():
    e = jordan_wigner(3)
    assert [str(p) for p in e.majoranas] == [
        "XII", "YII", "ZXI", "ZYI", "ZZX", "ZZY",
    ]
    assert validate(e) == []


def test_bravyi_kitaev_is_valid_and_distinct_from_chain():
    for n in (2, 3, 4, 7, 8):
        e = bravyi_kitaev(n)
        assert validate(e) == []
        if n >= 3:
            assert e.majoranas != jordan_wigner(n).majoranas


def test_bravyi_kitaev_update_set_structure():
    # at n = 7 the root is mode 6 and updating mode 3 touches only it
    e = bravyi_kitaev(7)
    c6 = e.majoranas[6]  # X-type operator of mode 3
    assert c6.letters()[6] == "X"
    assert c6.letters()[3] == "X"
    # logarithmic weight: every operator stays well below n at n = 8
    for p in bravyi_kitaev(8).majoranas:
        assert p.weight() <= 4


def test_small_encodings_satisfy_car():
    for n in (2, 3, 4):
        assert car_holds_dense(jordan_wigner(n))
        assert car_holds_dense(bravyi_kitaev(n))


def test_validate_catches_commuting_pair():
    bad = Encoding(
        (
            PauliString.from_string("XI"),
            PauliString.from_string("XI"),
            PauliString.from_string("ZX"),
            PauliString.from_string("ZY"),
        )
    )
    assert validate(bad) != []


def test_validate_catches_non_hermitian():
    p = PauliString.from_string("XI").times_i()
    bad = Encoding((p,) + jordan_wigner(2).majoranas[1:])
    assert validate(bad) != []


def test_validate_reports_strings_of_different_lengths_without_raising():
    """The pair and rank checks raised PauliLengthMismatch and a ragged
    stack error on such a set."""
    mixed = Encoding(tuple(PauliString.from_string(s) for s in ("XI", "YI", "ZX", "ZYZ")))
    assert validate(mixed) == ["operator 3: length 3 != 2"]


def test_decompose_pauli_roundtrip():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        for enc in (jordan_wigner(n), bravyi_kitaev(n)):
            for _ in range(15):
                k = int(rng.integers(1, 2 * n + 1))
                idx = sorted(int(i) for i in rng.choice(2 * n, size=k, replace=False))
                prod = enc.majoranas[idx[0]]
                for i in idx[1:]:
                    prod = prod * enc.majoranas[i]
                indices, phase = decompose_pauli(enc, prod)
                assert list(indices) == idx
                rebuilt = enc.majoranas[indices[0]]
                for i in indices[1:]:
                    rebuilt = rebuilt * enc.majoranas[i]
                assert rebuilt.with_phase_exp(0) == prod.with_phase_exp(0)
                assert abs(phase - prod.prefix() / rebuilt.prefix()) < 1e-12


@st.composite
def pauli_strings(draw):
    n = draw(st.integers(1, 64))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return PauliString(np.array(draw(bits)), np.array(draw(bits)), draw(st.integers(0, 3)))


@settings(max_examples=60, deadline=None)
@given(pauli_strings())
def test_chain_decompose_matches_f2_route(p):
    assert chain_decompose(p) == decompose_pauli(jordan_wigner(p.n), p)
    # the extended frame's strings, n + 1 qubits long
    q = embed_l12(p)
    assert chain_decompose(q) == decompose_pauli(jordan_wigner(p.n + 1), q)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.data())
def test_chain_monomials_equal_ordered_products(n, data):
    sets = data.draw(
        st.lists(
            st.sets(st.integers(0, 2 * n - 1), max_size=min(2 * n, 8)),
            min_size=1,
            max_size=4,
        )
    )
    members = np.zeros((len(sets), 2 * n), dtype=np.uint8)
    for r, js in enumerate(sets):
        members[r, sorted(js)] = 1
    rows, phases = chain_monomials(members)
    for r, js in enumerate(sets):
        prod = PauliString.identity(n)
        for j in sorted(js):
            prod = prod * chain_majorana(n, j)
        assert np.array_equal(rows[r], prod.symplectic())
        assert phases[r] == prod.phase_exp
        shift = data.draw(st.integers(0, 3))
        indices, phase = chain_decompose(prod.with_phase_exp(prod.phase_exp + shift))
        assert indices == tuple(sorted(js))
        assert phase == 1j**shift


def test_encoding_matrix_of_chain_form():
    m = encoding_matrix(jordan_wigner(4))
    assert m.diag_col == (0, 1, 2, 3)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert m.grid[i][j] == ("Z" if j < i else "I")


def test_encoding_matrix_rejects_nonlocal_z():
    with pytest.raises((NotCzSwapFamily, MalformedPairing)):
        encoding_matrix(bravyi_kitaev(4))


def roundtrip_ok(enc, rec):
    n = enc.n
    conj = conjugate_encoding(
        jordan_wigner(n), tableau.from_gates(n, list(rec.gates))
    )
    for i, r in enumerate(rec.mode_order):
        if conj.majoranas[2 * i] != enc.majoranas[2 * r]:
            return False
        if conj.majoranas[2 * i + 1] != enc.majoranas[2 * r + 1]:
            return False
    return True


def test_cz_chain_fixtures_recover_cz_chain():
    for n in range(4, 9):
        enc = read_encoding(f"{FIXTURES}/cz_chain_n{n}.txt")
        assert validate(enc) == []
        rec = recover_cz_swap_circuit(encoding_matrix(enc))
        assert rec.swaps == ()
        assert rec.czs == tuple((i, i + 1) for i in range(n - 1))
        assert roundtrip_ok(enc, rec)


def test_reorder_fixture_recovers_swaps_only():
    enc = read_encoding(f"{FIXTURES}/reorder_equiv.txt")
    assert validate(enc) == []
    rec = recover_cz_swap_circuit(encoding_matrix(enc))
    assert rec.czs == ()
    assert rec.swaps != ()
    assert roundtrip_ok(enc, rec)


def test_recovery_on_random_conjugations():
    rng = np.random.default_rng(5)
    for trial in range(25):
        n = int(rng.integers(3, 7))
        gates = []
        for _ in range(6):
            a, b = rng.choice(n, size=2, replace=False)
            gates.append((("SWAP", "CZ")[rng.integers(2)], int(a), int(b)))
        enc = conjugate_encoding(jordan_wigner(n), tableau.from_gates(n, gates))
        rec = recover_cz_swap_circuit(encoding_matrix(enc))
        assert roundtrip_ok(enc, rec)


def test_pruned_tree_fixture_is_valid_but_not_cz_swap():
    enc = read_encoding(f"{FIXTURES}/sierpinski.txt")
    assert enc.n == 10 and len(enc.majoranas) == 20
    assert validate(enc) == []
    with pytest.raises((NotCzSwapFamily, MalformedPairing)):
        encoding_matrix(enc)


def test_embed_preserves_parity_structure():
    jw = jordan_wigner(3)
    # parity-preserving quadratic term embeds with an identity prefix qubit
    quad = jw.majoranas[0] * jw.majoranas[3]
    emb = embed_l12(quad)
    assert emb.n == 4
    assert emb.letters()[0] == "I"
    # parity-breaking linear term picks up an X on the prefix qubit
    lin = jw.majoranas[2]
    assert embed_l12(lin).letters()[0] == "X"


def test_embed_is_multiplicative():
    rng = np.random.default_rng(4)
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
        assert embed_l12(p * q) == embed_l12(p) * embed_l12(q)


def test_extended_encoding_satisfies_car():
    ext = jordan_wigner(4)
    assert ext.n == 4 and len(ext.majoranas) == 8
    assert validate(ext) == []


def test_parity_extended_majoranas_satisfy_car():
    for n in (2, 3):
        for base in (jordan_wigner(n), bravyi_kitaev(n)):
            ext = parity_extended_majoranas(base)
            assert len(ext) == 2 * n + 1
            d = [p.dense() for p in ext]
            eye = np.eye(2**n)
            for i in range(len(d)):
                assert np.allclose(d[i], d[i].conj().T)
                for j in range(i, len(d)):
                    want = 2 * eye if i == j else 0 * eye
                    assert np.allclose(d[i] @ d[j] + d[j] @ d[i], want, atol=1e-12)


def test_parity_extended_h_reproduces_linear_terms():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        enc = jordan_wigner(n)
        ext = parity_extended_majoranas(enc)
        d = [p.dense() for p in ext]
        b = rng.normal(size=2 * n)
        h = rng.normal(size=(2 * n, 2 * n)) * 0.5
        h = h - h.T
        want = sum(bj * enc.majoranas[j].dense() for j, bj in enumerate(b))
        want = want + sum(
            1j * h[i, j] * enc.majoranas[i].dense() @ enc.majoranas[j].dense()
            for i in range(2 * n)
            for j in range(2 * n)
            if h[i, j] != 0.0
        )
        hp = parity_extended_h(h, b)
        got = sum(
            1j * hp[i, j] * d[i] @ d[j]
            for i in range(2 * n + 1)
            for j in range(2 * n + 1)
            if hp[i, j] != 0.0
        )
        assert np.max(np.abs(got - want)) <= 1e-10
