import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcliff import linalg

EPS = np.finfo(float).eps
# agreement of two double-precision exponentials, relative to max(1, |A|):
# about 4500 eps, fixed before comparing
EXPM_RTOL = 1e-12


def random_antisymmetric(rng, n):
    a = rng.normal(size=(n, n))
    return a - a.T


def test_pfaffian_known_4x4():
    # Pf = m01*m23 - m02*m13 + m03*m12
    m = np.zeros((4, 4))
    for (i, j), v in {(0, 1): 1, (0, 2): 2, (0, 3): 3,
                      (1, 2): 4, (1, 3): 5, (2, 3): 6}.items():
        m[i, j] = v
        m[j, i] = -v
    assert abs(linalg.pfaffian(m) - 8.0) < 1e-12


def test_pfaffian_2x2_and_edge_cases():
    m = np.array([[0.0, 3.5], [-3.5, 0.0]])
    assert linalg.pfaffian(m) == pytest.approx(3.5)
    assert linalg.pfaffian(np.zeros((0, 0))) == 1.0
    assert linalg.pfaffian(np.zeros((3, 3))) == 0.0
    assert linalg.pfaffian(np.zeros((4, 4))) == 0.0


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6, 8, 12, 20, 40):
        for _ in range(3):
            a = random_antisymmetric(rng, n)
            pf = linalg.pfaffian(a)
            det = np.linalg.det(a)
            assert abs(pf * pf - det) <= 1e-9 * max(1.0, abs(det))


def test_pfaffian_sign_under_row_column_swap():
    rng = np.random.default_rng(1)
    a = random_antisymmetric(rng, 6)
    b = a.copy()
    b[[0, 1], :] = b[[1, 0], :]
    b[:, [0, 1]] = b[:, [1, 0]]
    assert linalg.pfaffian(b) == pytest.approx(-linalg.pfaffian(a))


def test_expm_antisymmetric_is_orthogonal():
    rng = np.random.default_rng(2)
    for n in (2, 6, 20, 40):
        h = random_antisymmetric(rng, n)
        r = linalg.expm_antisymmetric(h)
        assert np.max(np.abs(r @ r.T - np.eye(n))) <= 1e-10
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)


def test_expm_zero_is_identity():
    r = linalg.expm_antisymmetric(np.zeros((6, 6)))
    assert np.allclose(r, np.eye(6))


def test_check_rotation_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        linalg.check_rotation(2.0 * np.eye(4))


def test_guards_reject_nan_and_overflow():
    nan = np.full((4, 4), np.nan)
    with pytest.raises(linalg.NotAntisymmetric):
        linalg.check_antisymmetric(nan)
    with pytest.raises(ValueError):
        linalg.check_rotation(nan)
    h = np.zeros((4, 4))
    h[0, 1], h[1, 0] = 1e200, -1e200
    with pytest.raises(ValueError, match="non-finite"):
        linalg.expm_antisymmetric(h)


@given(
    st.sampled_from([4, 6, 10, 34]),
    st.data(),
    st.integers(min_value=-8, max_value=5),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_4x4_exponential_matches_scipy(m, data, exponent, zero):
    """The so(4) closed form at order 4 and the scaled Taylor kernel at
    the dense orders match scipy.linalg.expm.  A generator past the
    refusal edge is scaled back to just inside it, so the largest
    exponents run the kernel with its most squaring steps; a dense result
    is orthogonal to the polish threshold, the closed form's to 1e-14."""
    upper = data.draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0),
            min_size=m * (m - 1) // 2,
            max_size=m * (m - 1) // 2,
        )
    )
    h = np.zeros((m, m))
    if not zero:
        h[np.triu_indices(m, 1)] = upper
        h = (h - h.T) * 10.0**exponent
    edge = linalg.TOL.orthogonality / (m * EPS) * (1 - 1e-9)
    size = 4.0 * np.max(np.abs(h))
    if size > edge:
        h *= edge / size
    a = 4.0 * h
    r = linalg.expm_antisymmetric(h)
    tol = EXPM_RTOL * max(1.0, np.linalg.norm(a, 2))
    assert np.max(np.abs(r - scipy.linalg.expm(a))) <= tol
    unit = 1e-14 if m == 4 else linalg.TOL.orthogonality_polish
    assert np.max(np.abs(r @ r.T - np.eye(m))) <= unit


def test_expm_keeps_the_shape_it_is_given():
    rng = np.random.default_rng(4)
    for m in (4, 6):
        h = random_antisymmetric(rng, m)
        assert linalg.expm_antisymmetric(h).shape == (m, m)
        for count in (0, 1, 5):
            stack = np.array([random_antisymmetric(rng, m) for _ in range(count)])
            stack = stack.reshape(count, m, m)
            r = linalg.expm_antisymmetric(stack)
            assert r.shape == (count, m, m)
            for one, many in zip(stack, r):
                assert np.max(np.abs(linalg.expm_antisymmetric(one) - many)) <= 1e-13


def test_expm_polishes_only_the_drifted_matrices(monkeypatch):
    rng = np.random.default_rng(5)
    stack = np.array([random_antisymmetric(rng, 4) for _ in range(3)])
    exact = linalg.expm_antisymmetric(stack)
    closed_form = linalg._expm_so4

    def drifted(a):
        r = closed_form(a)
        r[1] *= 1.0 + 1e-9
        return r

    monkeypatch.setattr(linalg, "_expm_so4", drifted)
    r = linalg.expm_antisymmetric(stack)
    assert np.array_equal(r[[0, 2]], exact[[0, 2]])
    assert np.max(np.abs(r[1] @ r[1].T - np.eye(4))) <= 1e-14
    assert np.max(np.abs(r[1] - exact[1])) <= 1e-14


@pytest.mark.parametrize("m", [4, 6])
def test_expm_refuses_a_generator_whose_rounding_exceeds_the_tolerance(m):
    # refused when max |4 h| * m * eps > tol.orthogonality; h / 4 is exact
    edge = linalg.TOL.orthogonality / (m * EPS)
    h = np.zeros((m, m))
    for size, refused in ((edge * (1 + 1e-9), True), (edge * (1 - 1e-9), False)):
        h[0, 1], h[1, 0] = size, -size
        if refused:
            with pytest.raises(ValueError, match="too large"):
                linalg.expm_antisymmetric(h / 4)
        else:
            r = linalg.expm_antisymmetric(h / 4)
            assert np.max(np.abs(r @ r.T - np.eye(m))) <= 1e-12
    stack = np.zeros((3, 4, 4))
    stack[2, 2, 3], stack[2, 3, 2] = 1e6, -1e6
    with pytest.raises(ValueError, match="too large"):
        linalg.expm_antisymmetric(stack)


def test_check_rotation_checks_every_matrix_of_a_stack():
    stack = np.array([np.eye(4)] * 3)
    assert linalg.check_rotation(stack) is not None
    assert linalg.check_rotation(np.zeros((0, 4, 4))).shape == (0, 4, 4)
    stack[1, 0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError, match="not orthogonal"):
        linalg.check_rotation(stack)


def schur_pfaffian(a):
    """(sign, log|Pf|) from the real Schur form a = Z T Z^T: T is
    block-diagonal with 2x2 blocks, so Pf(a) = det(Z) prod_i T[2i, 2i+1]."""
    t, z = scipy.linalg.schur(a, output="real")
    pivots = np.diag(t, 1)[::2]
    sign = np.sign(np.linalg.det(z)) * np.prod(np.sign(pivots))
    return sign, float(np.sum(np.log(np.abs(pivots))))


def test_slog_pfaffian_matches_schur_reference():
    rng = np.random.default_rng(3)
    for m in (2, 4, 6, 10, 16, 24, 32, 40):
        for _ in range(3):
            a = random_antisymmetric(rng, m)
            sign, log = linalg.slog_pfaffian(a)
            want_sign, want_log = schur_pfaffian(a)
            assert sign == want_sign
            assert log == pytest.approx(want_log, rel=1e-10, abs=1e-10)
            assert linalg.pfaffian(a) == pytest.approx(sign * np.exp(log), rel=1e-12)


def test_slog_pfaffian_does_not_overflow():
    m = 700
    a = np.zeros((m, m))
    for k in range(0, m, 2):
        a[k, k + 1], a[k + 1, k] = 10.0, -10.0
    sign, log = linalg.slog_pfaffian(a)
    assert sign == 1.0
    assert log == pytest.approx(350 * np.log(10.0), rel=1e-12)
    with pytest.raises(ValueError, match="not a finite float"):
        linalg.pfaffian(a)


def test_slog_pfaffian_edge_cases():
    assert linalg.slog_pfaffian(np.zeros((0, 0))) == (1.0, 0.0)
    assert linalg.slog_pfaffian(np.zeros((3, 3))) == (0.0, -np.inf)
    assert linalg.slog_pfaffian(np.zeros((4, 4))) == (0.0, -np.inf)


def brute_force_pfaffian(a):
    """The definition: Pf(a) = 1 / (2^k k!) sum over permutations s of
    sgn(s) prod_i a[s(2i), s(2i+1)], with m = 2k."""
    m = a.shape[0]
    perms = list(itertools.permutations(range(m)))
    perms = np.array(perms, dtype=np.intp).reshape(len(perms), m)
    # sign of each permutation from its inversion count
    inversions = np.zeros(len(perms), dtype=int)
    for i in range(m):
        inversions += (perms[:, i, None] > perms[:, i + 1 :]).sum(axis=1)
    signs = np.where(inversions % 2, -1.0, 1.0)
    terms = np.prod(a[perms[:, 0::2], perms[:, 1::2]], axis=1)
    k = m // 2
    return float(signs @ terms) / (2.0**k * math.factorial(k))


def permuted_block_diagonal(rng, m):
    """Antisymmetric 2x2 blocks on a random pairing of the indices: its
    Householder reduction meets columns that need no reflection."""
    a = np.zeros((m, m))
    order = rng.permutation(m)
    for i, j in order.reshape(-1, 2):
        a[i, j] = rng.normal()
        a[j, i] = -a[i, j]
    return a


def test_slog_pfaffian_matches_the_brute_force_definition():
    rng = np.random.default_rng(11)
    for m in (0, 2, 4, 6, 8):
        cases = [random_antisymmetric(rng, m)]
        dense = random_antisymmetric(rng, m)
        mask = rng.random((m, m)) < 0.5
        cases.append(dense * (mask & mask.T))  # sparse
        cases.append(np.triu(rng.integers(-3, 4, size=(m, m)), 1).astype(float))
        cases[-1] -= cases[-1].T
        cases.append(permuted_block_diagonal(rng, m))
        block = np.zeros((m, m))
        for k in range(0, m, 2):
            block[k, k + 1] = rng.choice([-2.0, 1.5])
            block[k + 1, k] = -block[k, k + 1]
        cases.append(block)  # every reflector trivial, tau = 0
        for a in cases:
            want = brute_force_pfaffian(a)
            sign, log = linalg.slog_pfaffian(a)
            got = sign * np.exp(log)
            scale = max(1.0, np.abs(a).max(initial=0.0)) ** (m // 2)
            assert abs(got - want) <= 1e-12 * scale
            if want != 0.0:
                assert sign == np.sign(want)


def test_slog_pfaffian_of_a_trivially_reflected_matrix_is_exact():
    """Block-diagonal and integer-valued: T = a, no reflector is applied,
    and the sign comes from the blocks alone."""
    a = np.zeros((6, 6))
    for k, v in zip((0, 2, 4), (-2.0, 3.0, -1.0)):
        a[k, k + 1], a[k + 1, k] = v, -v
    for flip in (1.0, -1.0):
        a[4, 5], a[5, 4] = -flip, flip
        sign, log = linalg.slog_pfaffian(a)
        assert sign == flip
        assert log == pytest.approx(np.log(6.0), rel=EPS)


def test_pfaffian_transforms_with_the_determinant():
    """Pf(B A B^T) = det(B) Pf(A) for any square B."""
    rng = np.random.default_rng(12)
    for m in (2, 4, 6, 10, 18, 32):
        for _ in range(3):
            a = random_antisymmetric(rng, m)
            b = rng.normal(size=(m, m))
            bab = b @ a @ b.T
            bab = 0.5 * (bab - bab.T)
            want = np.linalg.det(b) * linalg.pfaffian(a)
            assert linalg.pfaffian(bab) == pytest.approx(want, rel=1e-9)


def test_slog_pfaffian_matches_schur_at_large_order():
    """At orders 256 and 300 the Householder Pfaffian still matches the
    Schur reference."""
    rng = np.random.default_rng(13)
    for m in (256, 300):
        a = random_antisymmetric(rng, m)
        sign, log = linalg.slog_pfaffian(a)
        want_sign, want_log = schur_pfaffian(a)
        assert sign == want_sign
        assert log == pytest.approx(want_log, rel=1e-10)


def _hadamard_log_bound(a):
    """log of prod_i |row i|, which bounds log|det a|."""
    return float(np.log(np.linalg.norm(a, axis=1)).sum())


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 7, 8, 16, 33, 64, 101, 144, 288, 300])
def test_log_abs_det_half_matches_slogdet_on_antisymmetric_matrices(order):
    """log|det(a / 2)| against numpy's slogdet at orders 0 to 300: equal on
    the nonsingular even orders, -inf on both sides for an exactly zero
    row and column, and far below the Hadamard bound at odd orders, where
    an antisymmetric matrix is singular but rounding leaves its pivots
    nonzero."""
    rng = np.random.default_rng(order)
    a = random_antisymmetric(rng, order)
    got = linalg.log_abs_det_half(np.array(a).T)
    want = np.linalg.slogdet(0.5 * a)[1]
    if order % 2 == 0:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    elif order == 1:
        assert got == want == -math.inf  # the 1x1 zero matrix
    else:
        bound = _hadamard_log_bound(0.5 * a)
        assert got < bound - 20 and want < bound - 20
    if order:
        singular = np.array(a)
        j = int(rng.integers(order))
        singular[j] = singular[:, j] = 0.0
        assert linalg.log_abs_det_half(singular.T) == -math.inf
        assert np.linalg.slogdet(singular)[1] == -math.inf


def test_log_abs_det_half_factors_an_f_contiguous_matrix_in_place(capfd):
    rng = np.random.default_rng(1)
    a = random_antisymmetric(rng, 6)
    kept = np.array(a)
    linalg.log_abs_det_half(kept)
    assert np.array_equal(kept, a)  # C-contiguous: factored in a copy
    work = np.array(a)
    got = linalg.log_abs_det_half(work.T)
    assert not np.array_equal(work, a)  # F-contiguous: overwritten by its LU
    assert got == pytest.approx(np.linalg.slogdet(0.5 * a)[1], rel=1e-13)
    # order 0 makes no LAPACK call: dgetrf refuses it, on stdout
    assert linalg.log_abs_det_half(np.zeros((0, 0))) == 0.0
    assert capfd.readouterr() == ("", "")
    with pytest.raises(ValueError, match="square"):
        linalg.log_abs_det_half(np.zeros((2, 3)))


def test_log_abs_det_half_raises_on_an_illegal_lapack_argument(monkeypatch):
    monkeypatch.setattr(
        scipy.linalg.lapack, "dgetrf", lambda a, overwrite_a=0: (a, None, -4)
    )
    with pytest.raises(ValueError, match="argument 4"):
        linalg.log_abs_det_half(np.eye(2))


def test_antisymmetry_defect_is_the_check_s_measure():
    a = random_antisymmetric(np.random.default_rng(2), 5)
    a[1, 3] += 3e-12
    assert linalg.antisymmetry_defect(a) == pytest.approx(3e-12, rel=1e-3)
    assert linalg.antisymmetry_defect(np.zeros((0, 0))) == 0.0
    assert math.isnan(linalg.antisymmetry_defect(np.full((2, 2), np.nan)))
    with pytest.raises(linalg.NotAntisymmetric, match="3.000e-12 > 1.0e-12"):
        linalg.check_antisymmetric(a)
    a[1, 3] -= 2.5e-12
    linalg.check_antisymmetric(a)
    for shape in ((2, 3), (3, 4, 4)):
        with pytest.raises(linalg.NotAntisymmetric, match="one square matrix"):
            linalg.antisymmetry_defect(np.zeros(shape))


def test_check_antisymmetric_returns_an_exact_matrix():
    """An exact matrix is returned as it is; a defect within
    TOL.antisymmetry is repaired to (a - a^T) / 2, exactly antisymmetric;
    one past it, or a NaN, is refused."""
    a = random_antisymmetric(np.random.default_rng(3), 6)
    assert linalg.check_antisymmetric(a) is a
    for defect in (1e-13, linalg.TOL.antisymmetry / 2):
        off = a.copy()
        off[2, 4] += defect
        got = linalg.check_antisymmetric(off)
        assert np.array_equal(got, 0.5 * (off - off.T))
        assert np.array_equal(got, -got.T)
    for bad in (2 * linalg.TOL.antisymmetry, np.nan):
        off = a.copy()
        off[2, 4] += bad
        with pytest.raises(linalg.NotAntisymmetric):
            linalg.check_antisymmetric(off)
    assert linalg.check_antisymmetric([[0, 1], [-1, 0]]).dtype == float


@pytest.mark.parametrize("m", [1, 2, 8, 16, 64, 288])
def test_log_abs_det_half_equals_slogdet(m):
    rng = np.random.default_rng(m)
    a = rng.normal(size=(m, m))
    want = np.linalg.slogdet(a / 2)[1]
    assert linalg.log_abs_det_half(np.asfortranarray(a)) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize(
    "pivots",
    [
        [1e-200] * 4,  # the product underflows
        [1e200] * 4,  # the product overflows
        [1e300, 1e-300, 1.0],  # a partial product could leave the normal range
        [1e-300, 1e300, 0.25],
    ],
)
def test_log_abs_det_half_sums_logs_when_the_product_leaves_the_normal_range(pivots):
    a = np.diag(pivots)
    want = float(np.sum(np.log(np.abs(pivots)))) - len(pivots) * np.log(2.0)
    assert linalg.log_abs_det_half(np.asfortranarray(a)) == pytest.approx(want, rel=1e-14)


def test_pfaffian_of_order_two_is_closed_form(monkeypatch):
    """Pf = a_01 at order 2, with no LAPACK call: the factor that
    slog_pfaffian reads there, so the two agree to rounding."""
    import scipy.linalg.lapack

    a = np.array([[0.0, 3.5], [-3.5, 0.0]])
    monkeypatch.setattr(scipy.linalg.lapack, "dgehrd", None)
    assert linalg.pfaffian(a) == 3.5
    monkeypatch.undo()
    for value in random_antisymmetric(np.random.default_rng(5), 6)[0, 1:]:
        b = np.array([[0.0, value], [-value, 0.0]])
        sign, log = linalg.slog_pfaffian(b)
        assert linalg.pfaffian(b) == value and sign == np.sign(value)
        assert math.exp(log) == pytest.approx(abs(value), rel=1e-15)
