import numpy as np
import pytest

from rotkit.eigen import symmetric_eigh


def _random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return a + a.T


@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_matches_numpy_eigh(n):
    rng = np.random.default_rng(71)
    for _ in range(20):
        a = _random_symmetric(rng, n)
        values, vectors = symmetric_eigh(a)
        expected = np.sort(np.linalg.eigvalsh(a))[::-1]
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(values, expected, atol=1e-13 * scale)
        # eigenpair residual and orthonormality
        resid = a @ vectors - vectors * values
        assert np.abs(resid).max() < 1e-13 * scale
        assert np.abs(vectors.T @ vectors - np.eye(n)).max() < 1e-14


def test_diagonal_matrix_is_exact():
    values, vectors = symmetric_eigh(np.diag([3.0, -1.0, 5.0]))
    np.testing.assert_array_equal(values, [5.0, 3.0, -1.0])
    np.testing.assert_array_equal(np.abs(vectors), np.eye(3)[:, [2, 0, 1]])


def test_zero_matrix():
    values, vectors = symmetric_eigh(np.zeros((4, 4)))
    np.testing.assert_array_equal(values, np.zeros(4))
    assert np.abs(vectors.T @ vectors - np.eye(4)).max() < 1e-15


def test_descending_order():
    rng = np.random.default_rng(73)
    values, _ = symmetric_eigh(_random_symmetric(rng, 9))
    assert all(values[i] >= values[i + 1] for i in range(8))


def test_trace_preserved():
    rng = np.random.default_rng(79)
    a = _random_symmetric(rng, 9)
    values, _ = symmetric_eigh(a)
    assert abs(values.sum() - np.trace(a)) < 1e-10 * max(1.0, abs(np.trace(a)))


def test_decomposes_the_symmetric_part():
    # an asymmetry inside the tolerance is averaged out, not resolved by
    # whichever triangle LAPACK happens to read
    rng = np.random.default_rng(89)
    a = _random_symmetric(rng, 4)
    skew = np.triu(np.full((4, 4), 1e-9), 1)
    sym = a + 0.5 * (skew + skew.T)
    values, vectors = symmetric_eigh(a + skew)
    scale = float(np.abs(values).max())
    np.testing.assert_allclose(values, np.linalg.eigvalsh(sym)[::-1], rtol=0, atol=1e-13 * scale)
    assert np.abs(sym @ vectors - vectors * values).max() < 1e-13 * scale


def test_rejects_asymmetric_and_non_square():
    # only finiteness is checked: every caller builds its matrix square and
    # symmetric
    for a in (np.full((3, 3), np.nan), np.diag([1.0, np.inf, 2.0])):
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            symmetric_eigh(a)
