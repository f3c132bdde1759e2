import numpy as np
import pytest
import scipy.linalg

from matchcliff import linalg


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


def test_pfaffian_rejects_non_antisymmetric():
    with pytest.raises(linalg.NotAntisymmetric):
        linalg.pfaffian(np.eye(4))


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
