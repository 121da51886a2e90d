"""Property tests of the per-assignment estimates (hypothesis).

Each example draws a small experiment from a numpy seed chosen by
hypothesis; the run is derandomized, so the examples are the same on every
run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randadj.design import build_hat_structure
from randadj.estimators import arm_forms
from randadj.harness import ESTIMATORS, block_estimates

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def experiments(draw):
    """(y, z, x): n in [8, 40], p below both arm sizes, t3 covariates."""
    n = draw(st.integers(8, 40))
    n1 = draw(st.integers(3, n - 3))
    p = draw(st.integers(1, min(n1, n - n1) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_t(3, size=(n, p))
    y = x @ rng.standard_normal(p) + rng.standard_t(3, size=n)
    z = np.zeros(n, dtype=bool)
    z[rng.permutation(n)[:n1]] = True
    return y, z, x


def _estimates(y, z, x):
    """(points, variances, NA reasons) of the experiment as a block of one,
    each dict without the names that are NA."""
    values, na = block_estimates(arm_forms(build_hat_structure(x), y[None], z[None]))
    defined = {name: float(v[0]) for name, v in values.items() if name not in na}
    points = {e: defined.pop(e) for e in ESTIMATORS if e in defined}
    return points, defined, na


@PROPERTY_SETTINGS
@given(experiments(),
       st.floats(0.01, 100.0) | st.floats(-100.0, -0.01),
       st.floats(-100.0, 100.0))
def test_estimates_are_affine_equivariant_in_y(exp, a, b):
    y, z, x = exp
    points, variances, na = _estimates(y, z, x)
    points2, variances2, na2 = _estimates(a * y + b, z, x)
    assert na2 == na and points2.keys() == points.keys()
    scale = np.abs(y).max()
    for key, value in points.items():
        assert points2[key] == pytest.approx(a * value, rel=1e-9,
                                             abs=1e-9 * (abs(a) * scale + abs(b)))
    assert variances2.keys() == variances.keys()
    assert variances2.pop("cb_clamped") == variances.pop("cb_clamped")
    for key, value in variances.items():
        assert variances2[key] == pytest.approx(a * a * value, rel=1e-8,
                                                abs=1e-9 * (a * scale) ** 2)


@PROPERTY_SETTINGS
@given(experiments(), st.randoms(use_true_random=False))
def test_estimates_are_invariant_to_unit_order(exp, random):
    y, z, x = exp
    order = list(range(len(y)))
    random.shuffle(order)
    points, variances, na = _estimates(y, z, x)
    points2, variances2, na2 = _estimates(y[order], z[order], x[order])
    # an HC3 reason names a unit by its index, so compare which failed
    assert na2.keys() == na.keys()
    assert points2 == pytest.approx(points, rel=1e-9, abs=1e-12)
    assert variances2 == pytest.approx(variances, rel=1e-9, abs=1e-12)


@PROPERTY_SETTINGS
@given(experiments(), st.integers(0, 2**32 - 1))
def test_estimates_are_invariant_to_affine_maps_of_x(exp, seed):
    """X -> XA + c keeps the centered column span, so every estimate stays."""
    y, z, x = exp
    p = x.shape[1]
    rng = np.random.default_rng(seed)
    # A = U diag(s) V' with singular values s in [0.5, 2]
    u, _ = np.linalg.qr(rng.standard_normal((p, p)))
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    amat = u @ np.diag(rng.uniform(0.5, 2.0, size=p)) @ v.T
    shift = rng.standard_normal(p) * 10.0
    points, variances, na = _estimates(y, z, x)
    points2, variances2, na2 = _estimates(y, z, x @ amat + shift)
    assert na2.keys() == na.keys()
    scale = np.abs(y).max()
    assert points2 == pytest.approx(points, rel=1e-8, abs=1e-12 * scale)
    assert variances2 == pytest.approx(variances, rel=1e-8, abs=1e-12 * scale**2)
