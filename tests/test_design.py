import dataclasses
import math

import numpy as np
import pytest

from exact_moments import dense_q
from randadj.design import (
    EnumerationTooLargeError,
    SingularCovariatesError,
    build_hat_structure,
    complete_randomization,
    enumerate_assignments,
    hat_forms,
    substream,
)

# Hand-derived projection pieces for X = (0, 1, 2)^T.
HAND_X = np.array([[0.0], [1.0], [2.0]])
HAND_H = np.array(
    [
        [0.5, 0.0, -0.5],
        [0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.5],
    ]
)
HAND_Q = np.array(
    [
        [0.25, 0.0, 0.25],
        [0.0, 0.0, 0.0],
        [0.25, 0.0, 0.25],
    ]
)
HAND_B = np.array(
    [
        [1.0 / 2.0, -1.0 / 2.0, 1.0 / 4.0],
        [-1.0 / 2.0, 2.0 / 3.0, -1.0 / 2.0],
        [1.0 / 4.0, -1.0 / 2.0, 1.0 / 2.0],
    ]
)


def test_hand_instance_h_q_b():
    hat = build_hat_structure(HAND_X)
    np.testing.assert_allclose(hat.h, HAND_H, atol=1e-14)
    np.testing.assert_allclose(dense_q(hat), HAND_Q, atol=1e-14)
    # B is never stored: its forms at u = I are its entries
    hollow_b, diag_b = hat_forms(hat, np.eye(3))[2]
    np.testing.assert_allclose(hollow_b + diag_b, HAND_B, atol=1e-13)
    np.testing.assert_allclose(diag_b, np.diag(np.diag(HAND_B)), atol=1e-13)
    np.testing.assert_allclose(hat.leverages, [0.5, 0.0, 0.5], atol=1e-14)
    assert hat.n == 3 and hat.p == 1
    assert hat.alpha == pytest.approx(1.0 / 3.0)


def test_projection_invariants_random():
    rng = np.random.default_rng(21)
    for _ in range(8):
        n = int(rng.integers(10, 60))
        p = int(rng.integers(1, max(2, n // 3)))
        x = rng.standard_normal((n, p))
        hat = build_hat_structure(x)
        h = hat.h
        np.testing.assert_allclose(h, h.T, atol=1e-10)
        np.testing.assert_allclose(h @ h, h, atol=1e-9)
        assert np.trace(h) == pytest.approx(p, abs=1e-8)
        # centered projector annihilates constants
        np.testing.assert_allclose(h @ np.ones(n), 0.0, atol=1e-9)
        assert np.all(hat.leverages >= -1e-12)
        assert np.all(hat.leverages < 1.0)
        lev = hat.leverages
        np.testing.assert_allclose(dense_q(hat).sum(axis=1), 2 * lev * (1 - lev), atol=1e-9)
        want_bdiag = 1 - 1 / n + (1 - 2 / n) * lev - (1 + 1 / n) * lev**2
        diag_b = hat_forms(hat, np.eye(n))[2][1]
        np.testing.assert_allclose(diag_b, np.diag(want_bdiag), atol=1e-9)


def test_hat_structure_stores_one_n_by_n_matrix():
    # Q and B have closed forms in H, so H is the only n x n field
    n, p = 12, 3
    hat = build_hat_structure(substream(22).standard_normal((n, p)))
    square = [f.name for f in dataclasses.fields(hat)
              if np.shape(getattr(hat, f.name)) == (n, n)]
    assert square == ["h"]


@pytest.mark.parametrize("p", [20, 100, 190])
def test_hat_is_exactly_symmetric_and_the_qr_projector(p):
    """H = C'C (syrk) is symmetric bit for bit, and it is the projector
    Q Q' onto the centred column span, at p/n of 0.1, 0.5 and 0.95."""
    n = 200
    x = np.random.default_rng([23, p]).standard_normal((n, p))
    h = build_hat_structure(x).h
    assert np.array_equal(h, h.T)
    q = np.linalg.qr(x - x.mean(axis=0))[0]
    np.testing.assert_allclose(h, q @ q.T, rtol=0, atol=1e-12)


def test_hat_affine_invariance():
    """The projection depends only on the centered column span."""
    rng = np.random.default_rng(22)
    n, p = 30, 3
    x = rng.standard_normal((n, p))
    amat = rng.standard_normal((p, p)) + 4.0 * np.eye(p)
    shift = rng.standard_normal(p)
    x2 = x @ amat + shift
    h1 = build_hat_structure(x).h
    h2 = build_hat_structure(x2).h
    np.testing.assert_allclose(h1, h2, atol=1e-8)


def test_singular_covariates_rejected():
    rng = np.random.default_rng(24)
    col = rng.standard_normal(20)
    x = np.column_stack([col, col])
    with pytest.raises(SingularCovariatesError):
        build_hat_structure(x)
    # constant column centers to zero, same failure
    x2 = np.column_stack([col, np.full(20, 3.0)])
    with pytest.raises(SingularCovariatesError):
        build_hat_structure(x2)
    # every column constant: the centered Gram is all zeros, and no
    # eigenvalue ratio (0/0) is formed
    with pytest.raises(SingularCovariatesError, match="centered covariates are all zero"):
        build_hat_structure(np.full((10, 1), 2.5))


def test_shape_guards():
    with pytest.raises(ValueError):
        build_hat_structure(np.ones((5,)))
    with pytest.raises(ValueError):
        # p must stay below n
        build_hat_structure(np.random.default_rng(0).standard_normal((4, 4)))


def test_substream_determinism():
    a = substream(99, 1, 2, 3).integers(0, 2**32, 8)
    b = substream(99, 1, 2, 3).integers(0, 2**32, 8)
    c = substream(99, 1, 2, 4).integers(0, 2**32, 8)
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_substream_generator_passthrough():
    gen = np.random.default_rng(5)
    assert substream(gen) is gen
    with pytest.raises(ValueError):
        substream(gen, 1)


def test_complete_randomization_marginals():
    rng = substream(31, 7)
    asg = complete_randomization(12, 5, rng)
    assert asg.n == 12 and asg.n1 == 5 and asg.n0 == 7
    assert asg.z.dtype == bool and asg.z.sum() == 5
    assert asg.r1 == pytest.approx(5 / 12)


def test_complete_randomization_uniform_over_subsets():
    # n=8 choose 4 gives 70 equally likely treatment sets
    n, n1, draws = 8, 4, 210_000
    rng = substream(32, 1)
    counts: dict = {}
    for _ in range(draws):
        key = tuple(np.flatnonzero(complete_randomization(n, n1, rng).z))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == math.comb(n, n1)
    expected = draws / math.comb(n, n1)
    sd = math.sqrt(draws * (1 / 70) * (69 / 70))
    worst = max(abs(c - expected) for c in counts.values())
    # 4 standard deviations of a binomial cell count
    assert worst <= 4.0 * sd


def test_enumeration_order_and_count():
    asgs = list(enumerate_assignments(8, 4))
    assert len(asgs) == 70
    first = tuple(np.flatnonzero(asgs[0].z))
    last = tuple(np.flatnonzero(asgs[-1].z))
    assert first == (0, 1, 2, 3)
    assert last == (4, 5, 6, 7)
    assert all(a.n1 == 4 for a in asgs)


def test_enumeration_size_guard():
    with pytest.raises(EnumerationTooLargeError):
        list(enumerate_assignments(40, 20))
