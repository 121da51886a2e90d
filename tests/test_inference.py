import numpy as np
import pytest

from exact_moments import dense_b, plugin_statistics
from randadj.design import (
    Assignment,
    _hollow,
    build_hat_structure,
    complete_randomization,
    enumerate_assignments,
    hat_forms,
    substream,
)
from randadj.estimators import ScienceTable, arm_forms, lin_fit, observe, tau_lin, tau_lin_db
from randadj.finitepop import sample_variance, scaled_variance
from randadj.inference import (
    LeverageOneError,
    efficiency_bounds,
    estimate_variance,
    hc3_variance,
    necessary_bound,
    neyman_variance_unadj,
    oracle_variances,
    residuals,
    rl2_curve,
    variance_components,
    wald_ci,
)


def _random_table(rng, n, p, hetero=0.5):
    x = rng.standard_normal((n, p))
    y0 = x @ rng.standard_normal(p) + rng.standard_normal(n)
    y1 = y0 + 1.0 + hetero * rng.standard_normal(n)
    return ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))


# ---------------------------------------------------------------- oracles


def test_sigma_cre_hand_value():
    # Y(1) = (1,2,3,4), Y(0) = 0, r1 = 1/2:
    # S2(1) = 5/3, S2(0) = 0, S2(tau) = 5/3 -> 2*(5/3) - 5/3 = 5/3
    x = np.array([[0.0], [1.0], [0.5], [2.0]])
    table = ScienceTable(
        y1=np.array([1.0, 2.0, 3.0, 4.0]),
        y0=np.zeros(4),
        x=x,
        hat=build_hat_structure(x),
    )
    ov = oracle_variances(table, 0.5)
    assert ov.sigma_cre2 == pytest.approx(5.0 / 3.0, rel=1e-14)
    assert ov.s_tau2 == pytest.approx(5.0 / 3.0, rel=1e-14)


def test_residual_decomposition():
    rng = substream(61)
    table = _random_table(rng, 30, 4)
    res = residuals(table)
    xc = table.hat.xc
    # projection residuals are orthogonal to the centered covariates
    np.testing.assert_allclose(xc.T @ res.e1, 0.0, atol=1e-9)
    np.testing.assert_allclose(xc.T @ res.e0, 0.0, atol=1e-9)
    assert res.e1.mean() == pytest.approx(0.0, abs=1e-10)
    assert res.s1.mean() == pytest.approx(0.0, abs=1e-12)
    # Pythagoras: the effect variance splits along the projection
    tau = table.y1 - table.y0
    want = scaled_variance(table.hat.h, tau) + sample_variance(res.tau_e)
    assert sample_variance(tau) == pytest.approx(want, rel=1e-10)


def test_oracle_variances_against_direct_formulas():
    rng = substream(62)
    for _ in range(5):
        n = int(rng.integers(25, 70))
        p = int(rng.integers(1, 8))
        r1 = float(rng.uniform(0.25, 0.75))
        table = _random_table(rng, n, p)
        ov = oracle_variances(table, r1)
        r0 = 1.0 - r1
        res = residuals(table)

        def neyman(a1, a0):
            return (
                sample_variance(a1) / r1
                + sample_variance(a0) / r0
                - sample_variance(a1 - a0)
            )

        assert ov.sigma_cre2 == pytest.approx(neyman(table.y1, table.y0), rel=1e-10)
        assert ov.sigma_adj2 == pytest.approx(neyman(res.e1, res.e0), rel=1e-10)
        assert ov.sigma_hd_l2 == pytest.approx(
            neyman(res.e1 + res.s1, res.e0 + res.s0), rel=1e-10
        )
        w = table.y1 / r1**2 - table.y0 / r0**2
        assert ov.sigma_hd_q2 == pytest.approx(
            (r1 * r0) ** 2 * scaled_variance(table.hat.q, w), rel=1e-10
        )
        assert ov.sigma_hd2 == pytest.approx(ov.sigma_hd_l2 + ov.sigma_hd_q2, rel=1e-12)
        assert 0.0 <= ov.r_squared <= 1.0


def test_linear_component_rewrites_as_b_weighted_variance():
    rng = substream(63)
    for _ in range(5):
        n = int(rng.integers(20, 60))
        table = _random_table(rng, n, int(rng.integers(1, 6)))
        r1 = float(rng.uniform(0.2, 0.8))
        r0 = 1.0 - r1
        ov = oracle_variances(table, r1)
        v = table.y1 / r1 + table.y0 / r0
        assert ov.sigma_hd_l2 == pytest.approx(
            r1 * r0 * scaled_variance(dense_b(table.hat), v), rel=1e-9
        )


def test_variance_components_sum():
    rng = substream(64)
    for _ in range(5):
        table = _random_table(rng, int(rng.integers(20, 50)), 3)
        r1 = float(rng.uniform(0.2, 0.8))
        parts = variance_components(table, r1)
        assert sum(parts) == pytest.approx(
            oracle_variances(table, r1).sigma_hd2, rel=1e-9
        )


def test_component_i1_hand_n3():
    # X = (0,1,2): diag Q = (1/4, 0, 1/4), diag B = (1/2, 2/3, 1/2)
    x = np.array([[0.0], [1.0], [2.0]])
    y1 = np.array([1.0, 0.0, 0.0])
    y0 = np.array([0.0, 0.0, 1.0])
    table = ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))
    r1 = 1.0 / 3.0
    r0 = 2.0 / 3.0
    dq = {1: 0.0, 0: 0.0}
    db = {1: 0.0, 0: 0.0}
    for arm, y in ((1, y1), (0, y0)):
        yc = y - y.mean()
        dq[arm] = sum(q * c**2 for q, c in zip((0.25, 0.0, 0.25), yc)) / 2.0
        db[arm] = sum(b * c**2 for b, c in zip((0.5, 2.0 / 3.0, 0.5), yc)) / 2.0
    want = r1 * r0 * (
        r1 * r0 / r1**4 * dq[1]
        + db[1] / r1**2
        + r1 * r0 / r0**4 * dq[0]
        + db[0] / r0**2
    )
    i1 = variance_components(table, r1)[0]
    assert i1 == pytest.approx(want, rel=1e-12)


def test_constant_leverage_design_closed_form():
    """With exactly equal leverages the linear component collapses to a
    scalar function of alpha and R^2."""
    n, p = 32, 4
    t = np.arange(n)
    cols = []
    for k in (1, 2):
        cols.append(np.cos(2 * np.pi * k * t / n))
        cols.append(np.sin(2 * np.pi * k * t / n))
    x = np.column_stack(cols)
    hat = build_hat_structure(x)
    np.testing.assert_allclose(hat.leverages, p / n, atol=1e-12)
    rng = substream(65)
    y0 = x @ rng.standard_normal(p) + rng.standard_normal(n)
    y1 = y0 + 1.0 + 0.4 * rng.standard_normal(n)
    table = ScienceTable(y1=y1, y0=y0, x=x, hat=hat)
    for r1 in (0.35, 0.5):
        ov = oracle_variances(table, r1)
        alpha = p / n
        want = ((1 + alpha) ** 2 - (1 + 2 * alpha) * ov.r_squared) * ov.sigma_cre2
        assert ov.sigma_hd_l2 == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------- bounds


def test_necessary_bound_values():
    assert necessary_bound(0.0) == 0.0
    assert necessary_bound(1.0) == pytest.approx(1.0, rel=1e-14)
    assert necessary_bound(0.1) == pytest.approx(0.21 / 1.2, rel=1e-14)
    with pytest.raises(ValueError):
        necessary_bound(1.2)


def test_rl2_curve_values():
    # gamma = 2 at alpha = 0.1: 0.175 + 0.1*0.9/1.2*2 = 0.325
    vals = rl2_curve([0.0, 0.1, 1.0], gamma=2.0)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[1] == pytest.approx(0.325, abs=1e-12)
    assert vals[2] == pytest.approx(1.0, abs=1e-12)
    # gamma = 0 collapses to the necessary bound
    np.testing.assert_allclose(
        rl2_curve([0.3, 0.6], gamma=0.0), necessary_bound(np.array([0.3, 0.6])), atol=1e-14
    )


def test_efficiency_bounds_ordering():
    rng = substream(66)
    table = _random_table(rng, 40, 4)
    eb = efficiency_bounds(table, 0.35)
    assert eb.sufficient_r2 >= eb.necessary_r2
    assert eb.r_l2 is None  # only defined for the balanced design
    eb_bal = efficiency_bounds(table, 0.5)
    assert eb_bal.r_l2 is not None
    assert eb_bal.r_l2 >= eb_bal.necessary_r2


# ------------------------------------------------- sample moment estimators


@pytest.mark.parametrize("n", [8, 60, 400])
def test_hat_forms_match_dense_matrices(n):
    rng = substream(66, n)
    p = max(1, n // 5)
    hat = build_hat_structure(rng.standard_t(3, size=(n, p)))
    b_mat = dense_b(hat)
    # the dense reference is the Gram of the debiased-residual map itself
    pmat = np.eye(n) - 1.0 / n
    m_map = pmat - hat.h + pmat @ np.diag(hat.leverages)
    np.testing.assert_allclose(b_mat, m_map.T @ m_map, rtol=0, atol=1e-12)

    u = rng.standard_normal((3, n))
    u[1] *= rng.standard_t(3, size=n)
    forms = hat_forms(hat, u)
    for (hollow, diag), mat in zip(forms, (hat.h, hat.q, b_mat)):
        d = np.diag(mat)
        for got, want in ((hollow, u @ (mat - np.diag(d)) @ u.T), (diag, (u * d) @ u.T)):
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= 1e-12


def _loop_diag(dmat, y, z_mask):
    idx = np.flatnonzero(z_mask)
    ybar = y[idx].mean()
    total = sum(dmat[i, i] * (y[i] - ybar) ** 2 for i in idx)
    return total / len(idx)


def _loop_offdiag(dmat, y, z_mask, n):
    idx = np.flatnonzero(z_mask)
    nz = len(idx)
    rz = nz / n
    ybar = y[idx].mean()
    total = 0.0
    for i in idx:
        for j in idx:
            if i != j:
                total += dmat[i, j] * (y[i] - ybar) * (y[j] - ybar)
    return total / (rz * nz)


def _loop_cross(dmat, y, z_mask, n):
    t_idx = np.flatnonzero(z_mask)
    c_idx = np.flatnonzero(~z_mask)
    r1 = len(t_idx) / n
    r0 = 1.0 - r1
    yb1 = y[t_idx].mean()
    yb0 = y[c_idx].mean()
    total = 0.0
    for i in t_idx:
        for j in c_idx:
            total += dmat[i, j] * (y[i] - yb1) * (y[j] - yb0)
    return total / (n * r1 * r0)


def test_sample_moments_match_loop_oracle_on_every_assignment():
    # the normalised H, Q and B forms of arm_forms, over all 70 assignments
    # as one block, against index loops over the dense matrices
    rng = substream(67)
    n = 8
    table = _random_table(rng, n, 2)
    z = np.array([asg.z for asg in enumerate_assignments(n, 4)])
    y = np.where(z, table.y1, table.y0)
    stats = plugin_statistics(arm_forms(table.hat, y, z))
    for name, dmat in (("H", table.hat.h), ("Q", table.hat.q), ("B", dense_b(table.hat))):
        hollow = dmat.copy()
        np.fill_diagonal(hollow, 0.0)
        for r, (zr, yr) in enumerate(zip(z, y)):
            for arm, mask in ((1, zr), (0, ~zr)):
                assert stats[f"diag {name} arm {arm}"][r] == pytest.approx(
                    _loop_diag(dmat, yr, mask), rel=1e-11, abs=1e-13)
                assert stats[f"hollow {name} arm {arm}"][r] == pytest.approx(
                    _loop_offdiag(hollow, yr, mask, n), rel=1e-11, abs=1e-13)
            assert stats[f"cross {name}"][r] == pytest.approx(
                _loop_cross(hollow, yr, zr, n), rel=1e-11, abs=1e-13)


def test_offdiag_ignores_diagonal_entries():
    rng = substream(70)
    table = _random_table(rng, 12, 2)
    u = observe(table, complete_randomization(12, 6, rng)).forms.u[0, :2]
    dmat = rng.standard_normal((12, 12))
    spiked = dmat.copy()
    np.fill_diagonal(spiked, 1e6)
    hollow, _ = _hollow(dmat, u)
    spiked_hollow, spiked_diagonal = _hollow(spiked, u)
    assert spiked_hollow == pytest.approx(hollow, rel=1e-9)
    assert spiked_diagonal == pytest.approx(1e6 * (u @ u.T), rel=1e-13)


# ------------------------------------------------------- variance estimate


def test_estimate_variance_zero_for_constant_outcomes():
    rng = substream(71)
    x = rng.standard_normal((12, 2))
    table = ScienceTable(
        y1=np.full(12, 3.0), y0=np.full(12, 3.0), x=x, hat=build_hat_structure(x)
    )
    data = observe(table, complete_randomization(12, 5, rng))
    v = estimate_variance(data)
    assert v.i1 == v.i2 == v.i4 == 0.0
    assert v.hd == v.hd_prime == v.combined == 0.0
    assert not v.clamped


def test_estimate_variance_wiring_and_min_rule():
    rng = substream(72)
    table = _random_table(rng, 40, 3)
    data = observe(table, complete_randomization(40, 16, rng))
    v = estimate_variance(data)
    assert v.hd == pytest.approx(v.i1 + v.i2 + v.i3_upper + v.i4, rel=1e-12)
    assert v.hd_prime == pytest.approx(v.i1 + v.i2 + v.i3_upper_prime + v.i4, rel=1e-12)
    assert v.combined == pytest.approx(min(v.hd, v.hd_prime), rel=1e-12)
    assert v.source == ("hd" if v.hd <= v.hd_prime else "hd_prime")


# instance found by seeded search where both variants go negative
CLAMP_X = [1.3193999951283466, 0.12984955820714128, 0.6856547984955702,
           -0.857256736283214, 0.06136877453027201, 0.24449426824650627,
           0.8449208635972639, 1.4838394877932772]
CLAMP_Y1 = [-0.009969426355952174, -0.025141490318042265, -0.043308888115797604,
            -0.0360836962551632, -0.05490503151186526, -0.06551144043528499,
            -0.01127565779076707, -0.05666648382068107]
CLAMP_Y0 = [0.034217188254345415, -0.06406719338877465, 0.05931791238447102,
            -0.03896615836225436, -0.011492519040950736, -0.016030221798145537,
            0.02658925413170587, 0.09721183988672161]
CLAMP_TREATED = [1, 2, 5, 6]


def test_estimate_variance_clamps_at_zero():
    x = np.array(CLAMP_X)[:, None]
    table = ScienceTable(
        y1=np.array(CLAMP_Y1), y0=np.array(CLAMP_Y0), x=x, hat=build_hat_structure(x)
    )
    z = np.zeros(8, dtype=bool)
    z[CLAMP_TREATED] = True
    v = estimate_variance(observe(table, Assignment(z=z, n=8, n1=4)))
    assert v.clamped
    assert v.combined == 0.0
    assert min(v.hd, v.hd_prime) < 0.0


# ------------------------------------------------------------ competitors


def test_neyman_variance_hand_value():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    table = ScienceTable(
        y1=np.array([1.0, 2.0, 0.0, 0.0]),
        y0=np.array([0.0, 0.0, 3.0, 4.0]),
        x=x,
        hat=build_hat_structure(x),
    )
    z = np.array([True, True, False, False])
    data = observe(table, Assignment(z=z, n=4, n1=2))
    # equal arm variances: 0.5 each side, r1 = 1/2 -> 4 * 0.5
    assert neyman_variance_unadj(data) == pytest.approx(2.0, rel=1e-12)


def test_neyman_enumeration_mean_is_conservative():
    rng = substream(73)
    table = _random_table(rng, 8, 1, hetero=1.0)
    vals = [
        neyman_variance_unadj(observe(table, a)) for a in enumerate_assignments(8, 4)
    ]
    ov = oracle_variances(table, 0.5)
    # arm sample variances are exactly unbiased, so the enumeration mean
    # equals sigma_cre2 + S2_tau
    assert np.mean(vals) == pytest.approx(ov.sigma_cre2 + ov.s_tau2, rel=1e-10)
    assert np.mean(vals) >= ov.sigma_cre2


def test_hc3_p1_loop_oracle():
    rng = substream(74)
    table = _random_table(rng, 16, 1)
    data = observe(table, complete_randomization(16, 7, rng))
    fit = lin_fit(data)
    n = 16
    want = 0.0
    for resid, mask in ((fit.resid1, data.z), (fit.resid0, ~data.z)):
        idx = np.flatnonzero(mask)
        nz = len(idx)
        xc = table.x[:, 0] - table.x[:, 0].mean()
        gram = float(np.sum(xc[idx] ** 2))
        acc = 0.0
        for k, i in enumerate(idx):
            lev = xc[i] ** 2 / gram
            acc += resid[k] ** 2 / (1.0 - lev) ** 2
        want += n / ((nz - 1) * nz) * acc
    assert hc3_variance(data, fit) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("p", [1, 3])
def test_hc3_pooled_gram_oracle(p):
    """HC3 uses pooled-centered, no-intercept arm leverages x_i'(X_z'X_z)^-1 x_i,
    x = X - Xbar, here each from a dense solve on the explicit arm Gram.  The
    textbook intercept form 1/n_z + (arm-centered leverage) is never smaller."""
    rng = substream(76)
    n = 16
    table = _random_table(rng, n, p)
    data = observe(table, complete_randomization(n, 7, rng))
    fit = lin_fit(data)
    xc = table.x - table.x.mean(axis=0)
    want = textbook = 0.0
    for resid, mask in ((fit.resid1, data.z), (fit.resid0, ~data.z)):
        xa = xc[mask]
        xa_arm = xa - xa.mean(axis=0)
        nz = len(xa)
        lev = np.array([xi @ np.linalg.solve(xa.T @ xa, xi) for xi in xa])
        lev_int = 1.0 / nz + np.array(
            [xi @ np.linalg.solve(xa_arm.T @ xa_arm, xi) for xi in xa_arm])
        assert np.all(lev_int >= lev - 1e-12)
        want += n / ((nz - 1) * nz) * np.sum(resid**2 / (1.0 - lev) ** 2)
        textbook += n / ((nz - 1) * nz) * np.sum(resid**2 / (1.0 - lev_int) ** 2)
    got = hc3_variance(data, fit)
    assert got == pytest.approx(want, rel=1e-11)
    assert textbook >= got


def _lin_reference(table, z):
    """lin, lin_db and HC3 from lstsq per arm with an intercept, pooled
    leverages from a solve on Xc'Xc, and HC3 leverages from a solve on the
    explicit pooled-centred arm Gram."""
    n = len(z)
    y = np.where(z, table.y1, table.y0)
    xbar = table.x.mean(axis=0)
    xc = table.x - xbar
    pooled = np.einsum("ij,ji->i", xc, np.linalg.solve(xc.T @ xc, xc.T))
    nz = {1: int(z.sum()), 0: int((~z).sum())}
    lin = corr = hc3 = 0.0
    for arm, mask, sign in ((1, z, 1.0), (0, ~z, -1.0)):
        design = np.column_stack([np.ones(nz[arm]), table.x[mask]])
        coef = np.linalg.lstsq(design, y[mask], rcond=None)[0]
        resid = y[mask] - design @ coef
        lin += sign * (coef[0] + xbar @ coef[1:])
        corr += sign * nz[1 - arm] / nz[arm] ** 2 * (pooled[mask] @ resid)
        xa = xc[mask]
        lev = np.einsum("ij,ji->i", xa, np.linalg.solve(xa.T @ xa, xa.T))
        hc3 += n / ((nz[arm] - 1) * nz[arm]) * np.sum(resid**2 / (1.0 - lev) ** 2)
    return lin, lin + corr, hc3


# (n, n1, p): n1/n = 0.1 and 0.9 with p = n_z - 4, and p = 60 against n0 = 62
@pytest.mark.parametrize("n, n1, p", [(200, 20, 16), (200, 180, 16), (200, 138, 60)])
def test_lin_and_hc3_match_direct_reference(n, n1, p):
    """The worst relative errors measured over these 9 assignments are
    7.2e-13 for lin and lin_db and 3.8e-10 for HC3.  The HC3 worst is at
    (200, 138, 60), where a control leverage is 1 - 5.3e-6: 1/(1 - lev)^2
    there turns a leverage error of a few ulps (7.8e-16 against a QR
    reference) into about 3e-10.  Elsewhere HC3 agrees to 2e-12."""
    rng = substream(77, n, n1, p)
    table = _random_table(rng, n, p)
    for _ in range(3):
        data = observe(table, complete_randomization(n, n1, rng))
        fit = lin_fit(data)
        lin, lin_db, hc3 = _lin_reference(table, data.z)
        assert tau_lin(data, fit) == pytest.approx(lin, rel=1e-11)
        assert tau_lin_db(data, fit) == pytest.approx(lin_db, rel=1e-11)
        assert hc3_variance(data, fit) == pytest.approx(hc3, rel=1e-9)


def test_hc3_homogeneous_in_outcome_scale():
    rng = substream(75)
    table = _random_table(rng, 20, 2)
    data = observe(table, complete_randomization(20, 9, rng))
    base = hc3_variance(data, lin_fit(data))
    scaled_table = ScienceTable(
        y1=5.0 * table.y1, y0=5.0 * table.y0, x=table.x, hat=table.hat
    )
    scaled_data = observe(scaled_table, data.assignment)
    assert hc3_variance(scaled_data, lin_fit(scaled_data)) == pytest.approx(25.0 * base, rel=1e-10)


def test_hc3_leverage_one_error_names_unit():
    x = np.array([[2.0], [1.0], [1.0], [0.0]])
    table = ScienceTable(
        y1=np.array([1.0, 2.0, 0.0, 0.0]),
        y0=np.array([0.0, 0.0, 1.0, 2.0]),
        x=x,
        hat=build_hat_structure(x),
    )
    z = np.array([True, True, False, False])
    data = observe(table, Assignment(z=z, n=4, n1=2))
    # treated pooled-centered covariates are (1, 0): unit 0 has leverage 1
    with pytest.raises(LeverageOneError) as exc:
        hc3_variance(data, lin_fit(data))
    assert exc.value.unit == 0
    assert "unit 0" in str(exc.value)


def test_wald_ci_values():
    lo, hi = wald_ci(0.0, 25.0, 25, level=0.05)
    assert lo == pytest.approx(-1.959964, abs=1e-3)
    assert hi == pytest.approx(1.959964, abs=1e-3)
    assert wald_ci(1.5, 0.0, 10) == (1.5, 1.5)
    with pytest.raises(ValueError):
        wald_ci(0.0, -1.0, 10)
    with pytest.raises(ValueError):
        wald_ci(0.0, 1.0, 10, level=1.5)
