import numpy as np
import pytest

from randadj.design import (
    Assignment,
    build_hat_structure,
    complete_randomization,
    enumerate_assignments,
    substream,
)
from randadj.estimators import (
    ArmSingularError,
    ScienceTable,
    debias_correction,
    lin_fit,
    observe,
    tau_adj,
    tau_db,
    tau_lin,
    tau_lin_db,
    tau_unadj,
)
from randadj.inference import oracle_variances


def _random_table(rng, n, p, effect=1.0):
    x = rng.standard_normal((n, p))
    beta = rng.standard_normal(p)
    y0 = x @ beta + rng.standard_normal(n)
    y1 = y0 + effect + 0.5 * rng.standard_normal(n)
    return ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))


def _assign(table, n1, rng):
    return observe(table, complete_randomization(table.hat.n, n1, rng))


def test_observe_masks_by_arm():
    rng = substream(41)
    table = _random_table(rng, 12, 2)
    z = np.zeros(12, dtype=bool)
    z[[0, 3, 7, 9]] = True
    data = observe(table, Assignment(z=z, n=12, n1=4))
    np.testing.assert_array_equal(data.y[z], table.y1[z])
    np.testing.assert_array_equal(data.y[~z], table.y0[~z])


def test_tau_unadj_hand_value():
    y1 = np.array([3.0, 5.0, 9.0, 1.0])
    y0 = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.array([[0.0], [1.0], [2.0], [4.0]])
    table = ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))
    z = np.array([True, False, True, False])
    data = observe(table, Assignment(z=z, n=4, n1=2))
    # treated sees (3, 9), control sees (2, 4)
    assert tau_unadj(data) == pytest.approx(6.0 - 3.0, rel=1e-15)


def test_enumeration_unbiasedness_and_variance():
    rng = substream(42)
    table = _random_table(rng, 8, 1)
    tau_bar = table.tau_bar
    ests = [tau_unadj(observe(table, a)) for a in enumerate_assignments(8, 4)]
    assert np.mean(ests) == pytest.approx(tau_bar, abs=1e-12)
    # exact randomization variance of the difference in means
    want = oracle_variances(table, 0.5).sigma_cre2 / 8
    assert np.var(ests) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n, p, n1", [(40, 3, 17), (30, 12, 8)])
def test_tau_adj_against_pooled_slope_solve(n, p, n1):
    """tau_adj, computed through H, against the pooled-covariance slopes
    S_X^-2 s_{X,Y(z)} solved directly (n1 <= p in the second case)."""
    rng = substream(43, p)
    table = _random_table(rng, n, p)
    data = _assign(table, n1, rng)
    xbar = table.x.mean(axis=0)
    s_xx = np.cov(table.x, rowvar=False, ddof=1)
    want = 0.0
    for sign, z in ((1.0, data.z), (-1.0, ~data.z)):
        ya = data.y[z]
        s_xy = (table.x[z] - xbar).T @ (ya - ya.mean()) / (z.sum() - 1)
        beta = np.linalg.solve(np.atleast_2d(s_xx), s_xy)
        want += sign * (ya.mean() - (table.x[z] - xbar).mean(axis=0) @ beta)
    assert tau_adj(data) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_debias_correction_loop_oracle():
    rng = substream(44)
    table = _random_table(rng, 30, 4)
    data = _assign(table, 12, rng)
    n, n1 = 30, 12
    n0 = n - n1
    r1, r0 = n1 / n, n0 / n
    lev = table.hat.leverages
    y = data.y
    z = data.z
    t1 = sum(lev[i] * (y[i] - y[z].mean()) for i in range(n) if z[i]) / n1 / r1**2
    t0 = sum(lev[i] * (y[i] - y[~z].mean()) for i in range(n) if not z[i]) / n0 / r0**2
    want = r1 * r0 * (t1 - t0)
    assert debias_correction(data) == pytest.approx(want, rel=1e-12)
    assert tau_db(data) == pytest.approx(tau_adj(data) + want, rel=1e-12)


def test_tau_lin_matches_per_arm_lstsq():
    rng = substream(45)
    table = _random_table(rng, 50, 3)
    data = _assign(table, 21, rng)
    xbar = table.x.mean(axis=0)
    preds = {}
    for arm, z in ((1, data.z), (0, ~data.z)):
        design = np.column_stack([np.ones(int(z.sum())), table.x[z]])
        coef, *_ = np.linalg.lstsq(design, data.y[z], rcond=None)
        preds[arm] = coef[0] + xbar @ coef[1:]
    assert tau_lin(data) == pytest.approx(preds[1] - preds[0], rel=1e-10)


def test_lin_fit_residuals_orthogonal_in_arm():
    rng = substream(46)
    table = _random_table(rng, 40, 2)
    data = _assign(table, 18, rng)
    fit = lin_fit(data)
    for z, resid, chol in ((data.z, fit.resid1, fit.chol1), (~data.z, fit.resid0, fit.chol0)):
        xa = table.x[z] - table.x[z].mean(axis=0)
        np.testing.assert_allclose(xa.T @ resid, 0.0, atol=1e-9)
        assert resid.mean() == pytest.approx(0.0, abs=1e-10)
        # the fit carries the Cholesky factor of the arm-centered Gram
        low = np.tril(chol)
        np.testing.assert_allclose(low @ low.T, xa.T @ xa, rtol=1e-12)


def test_tau_lin_db_loop_oracle():
    rng = substream(47)
    table = _random_table(rng, 36, 3)
    data = _assign(table, 15, rng)
    fit = lin_fit(data)
    n1, n0 = 15, 21
    lev = table.hat.leverages
    corr = n0 / n1**2 * float(lev[data.z] @ fit.resid1)
    corr -= n1 / n0**2 * float(lev[~data.z] @ fit.resid0)
    assert tau_lin_db(data) == pytest.approx(tau_lin(data) + corr, rel=1e-12)


def test_adjusted_estimators_affine_invariant():
    rng = substream(48)
    n, p = 45, 3
    x = rng.standard_normal((n, p))
    y0 = x @ rng.standard_normal(p) + rng.standard_normal(n)
    y1 = y0 + 2.0
    amat = rng.standard_normal((p, p)) + 3.0 * np.eye(p)
    shift = rng.standard_normal(p)
    t1 = ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))
    x2 = x @ amat + shift
    t2 = ScienceTable(y1=y1, y0=y0, x=x2, hat=build_hat_structure(x2))
    z = complete_randomization(n, 20, substream(49))
    d1, d2 = observe(t1, z), observe(t2, z)
    assert tau_adj(d1) == pytest.approx(tau_adj(d2), rel=1e-8)
    assert tau_db(d1) == pytest.approx(tau_db(d2), rel=1e-8)
    assert tau_lin(d1) == pytest.approx(tau_lin(d2), rel=1e-8)
    assert tau_lin_db(d1) == pytest.approx(tau_lin_db(d2), rel=1e-8)


def test_lin_fit_rejects_small_arm():
    rng = substream(50)
    table = _random_table(rng, 10, 5)
    data = _assign(table, 5, rng)
    with pytest.raises(ArmSingularError) as exc:
        lin_fit(data)
    assert exc.value.arm in (0, 1)
    assert "singular" in str(exc.value)


def test_lin_fit_singular_arm_gram():
    x = np.array([[1.0], [1.0], [0.0], [2.0]])
    table = ScienceTable(
        y1=np.array([0.5, 1.5, 0.0, 0.0]), y0=np.array([0.0, 0.0, 1.0, 2.0]),
        x=x, hat=build_hat_structure(x),
    )
    z = np.array([True, True, False, False])
    data = observe(table, Assignment(z=z, n=4, n1=2))
    # both treated units share one covariate value: the arm-centered Gram is zero
    with pytest.raises(ArmSingularError) as exc:
        lin_fit(data)
    assert exc.value.arm == 1


@pytest.mark.parametrize("n1", [20, 30, 40])
def test_lin_fit_one_gram_factors_match_direct(n1):
    """The fit forms the smaller arm's Gram and takes the other as hat.gram
    less it (n1 < n0, n1 = n0 and n1 > n0); each arm's LL' equals the
    arm-centered Gram formed directly."""
    table = _random_table(substream(52, n1), 60, 5)
    hat = table.hat
    np.testing.assert_array_equal(hat.gram, hat.xc.T @ hat.xc)
    data = _assign(table, n1, substream(53, n1))
    fit = lin_fit(data)
    for z, chol in ((data.z, fit.chol1), (~data.z, fit.chol0)):
        xa = hat.xc[z] - hat.xc[z].mean(axis=0)
        direct = xa.T @ xa
        low = np.tril(chol)
        assert np.abs(low @ low.T - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("arm", [1, 0])
def test_tau_adj_needs_two_units_per_arm(arm):
    rng = substream(51)
    table = _random_table(rng, 8, 1)
    z = np.zeros(8, dtype=bool) if arm == 1 else np.ones(8, dtype=bool)
    z[3] = not z[3]
    data = observe(table, Assignment(z=z, n=8, n1=int(z.sum())))
    with pytest.raises(ArmSingularError) as exc:
        tau_adj(data)
    assert exc.value.arm == arm
    assert f"arm {arm}" in str(exc.value)


def test_science_table_shape_validation():
    x = np.random.default_rng(1).standard_normal((10, 2))
    hat = build_hat_structure(x)
    good = np.zeros(10)
    with pytest.raises(ValueError):
        ScienceTable(y1=np.zeros(9), y0=good, x=x, hat=hat)
    with pytest.raises(ValueError):
        ScienceTable(y1=good, y0=np.zeros((10, 1)), x=x, hat=hat)
