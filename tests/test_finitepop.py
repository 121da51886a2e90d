import numpy as np
import pytest

from exact_moments import scaled_covariance
from randadj.finitepop import (
    sample_variance,
    scale,
    scaled_variance,
)


def test_sample_variance_hand_value():
    # divisor n-1: var(1,2,3,4) = 5/3
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert sample_variance(a) == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_sample_moments_match_numpy():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        a = rng.standard_normal(n)
        assert sample_variance(a) == pytest.approx(np.var(a, ddof=1), rel=1e-12)


def _scaled_variance_loop(a_mat, v):
    """Independent high-precision double loop for the weighted moment."""
    n = len(v)
    vc = np.asarray(v, dtype=np.longdouble)
    vc = vc - vc.mean()
    total = np.longdouble(0.0)
    for i in range(n):
        for j in range(n):
            total += np.longdouble(a_mat[i, j]) * vc[i] * vc[j]
    return float(total / (n - 1))


def _scaled_covariance_loop(a_mat, v, w):
    n = len(v)
    vc = np.asarray(v, dtype=np.longdouble)
    vc = vc - vc.mean()
    wc = np.asarray(w, dtype=np.longdouble)
    wc = wc - wc.mean()
    total = np.longdouble(0.0)
    for i in range(n):
        for j in range(n):
            total += np.longdouble(a_mat[i, j]) * vc[i] * wc[j]
    return float(total / (n - 1))


def test_scaled_variance_against_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        a_mat = rng.standard_normal((n, n))
        v = rng.standard_normal(n)
        got = scaled_variance(a_mat, v)
        want = _scaled_variance_loop(a_mat, v)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_scaled_covariance_against_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        a_mat = rng.standard_normal((n, n))
        v = rng.standard_normal(n)
        w = rng.standard_normal(n)
        got = scaled_covariance(a_mat, v, w)
        want = _scaled_covariance_loop(a_mat, v, w)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_scaled_covariance_bilinear():
    rng = np.random.default_rng(9)
    n = 17
    a_mat = rng.standard_normal((n, n))
    u, v, w = rng.standard_normal((3, n))
    left = scaled_covariance(a_mat, u, v + 2.5 * w)
    right = scaled_covariance(a_mat, u, v) + 2.5 * scaled_covariance(a_mat, u, w)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-12)
    # shift invariance: centering removes any additive constant
    assert scaled_covariance(a_mat, u + 3.0, v) == pytest.approx(
        scaled_covariance(a_mat, u, v), rel=1e-10, abs=1e-12
    )


def test_scaled_variance_additive_in_weight_matrix():
    rng = np.random.default_rng(10)
    n = 12
    a_mat = rng.standard_normal((n, n))
    b_mat = rng.standard_normal((n, n))
    v = rng.standard_normal(n)
    assert scaled_variance(a_mat + b_mat, v) == pytest.approx(
        scaled_variance(a_mat, v) + scaled_variance(b_mat, v), rel=1e-10, abs=1e-12
    )


def test_scaled_variance_identity_weight_reduces_to_sample_variance():
    rng = np.random.default_rng(12)
    v = rng.standard_normal(25)
    assert scaled_variance(np.eye(25), v) == pytest.approx(
        sample_variance(v), rel=1e-12
    )


def test_scaled_covariance_symmetric_weight_is_symmetric():
    rng = np.random.default_rng(13)
    n = 9
    m = rng.standard_normal((n, n))
    sym = m + m.T
    v, w = rng.standard_normal((2, n))
    assert scaled_covariance(sym, v, w) == pytest.approx(
        scaled_covariance(sym, w, v), rel=1e-10, abs=1e-12
    )


def test_scale_contract():
    rng = np.random.default_rng(15)
    a = rng.standard_normal(40)
    s = scale(a)
    assert s.mean() == pytest.approx(0.0, abs=1e-12)
    # normalization uses divisor n, not n-1
    assert np.mean(s**2) == pytest.approx(1.0, rel=1e-12)


def test_scale_affine_equivariance():
    rng = np.random.default_rng(16)
    a = rng.standard_normal(23)
    np.testing.assert_allclose(scale(3.0 * a + 7.0), scale(a), atol=1e-10)
    np.testing.assert_allclose(scale(-2.0 * a), -scale(a), atol=1e-10)


def test_scale_rejects_constant_input():
    with pytest.raises(ValueError):
        scale(np.full(6, 4.2))


def test_population_vector_validation():
    with pytest.raises(ValueError):
        sample_variance(np.array([1.0]))
    with pytest.raises(ValueError):
        sample_variance(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        sample_variance(np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError):
        scaled_covariance(np.eye(2), np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_weight_matrix_validation():
    v = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        scaled_variance(np.ones((2, 3)), v)
    with pytest.raises(ValueError):
        scaled_variance(np.ones((2, 2)), v)
