import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcliff import f2


def random_invertible(rng, n):
    while True:
        a = rng.integers(0, 2, size=(n, n)).astype(np.uint8)
        if f2.rank(a) == n:
            return a


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_solve_recovers_solution(n, seed):
    rng = np.random.default_rng(seed)
    a = random_invertible(rng, n)
    x = rng.integers(0, 2, size=n).astype(np.uint8)
    b = (a @ x) % 2
    assert np.array_equal(f2.solve(a, b), x)


def test_singular_matrix_raises():
    a = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(f2.SingularF2Matrix):
        f2.solve(a, np.array([1, 0, 0], dtype=np.uint8))


def test_rank_examples():
    assert f2.rank(np.eye(4, dtype=np.uint8)) == 4
    assert f2.rank(np.array([[1, 1], [1, 1]], dtype=np.uint8)) == 1
    assert f2.rank(np.zeros((2, 2), dtype=np.uint8)) == 0
