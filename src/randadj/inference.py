"""Randomization-based variance: oracle values, plug-in estimation, intervals.

Everything here is on a common "per-n" variance scale: a variance sigma2
paired with a point estimate tau yields the interval

    tau +/- z_{1-level/2} * sqrt(sigma2 / n).

Oracle quantities (computable only from a full potential-outcome table)
live alongside their sample counterparts, block_cb's components over a
block of realized experiments.  Both read the H, Q and B forms of
design.hat_forms: the oracles over the two centred potential-outcome rows,
block_cb over each assignment's observed rows.  They share one
decomposition, so tests can compare them term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dtrtri
from scipy.special import ndtri

from .design import hat_forms
from .estimators import ArmForms, LinFit, ObservedData, ScienceTable
from .finitepop import sample_variance


class LeverageOneError(ValueError):
    """An arm-level leverage reached 1, so HC3 weights are undefined."""

    def __init__(self, arm: int, unit: int, value: float):
        self.arm = arm
        self.unit = unit
        super().__init__(
            f"HC3 leverage for unit {unit} in arm {arm} is {value:.12f}, too close to 1"
        )


# ---------------------------------------------------------------------------
# oracle variances from the population moment forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleVariances:
    """True per-n asymptotic variances for a given table and design."""

    sigma_cre2: float   # difference in means
    sigma_adj2: float   # classical regression-adjustment limit (fixed p)
    sigma_hd_l2: float  # linear part of the many-covariate limit
    sigma_hd_q2: float  # quadratic part of the many-covariate limit
    sigma_hd2: float    # sigma_hd_l2 + sigma_hd_q2
    r_squared: float    # 1 - sigma_adj2 / sigma_cre2
    s_tau2: float       # population variance of unit-level effects


def _check_r1(r1: float) -> float:
    r1 = float(r1)
    if not 0.0 < r1 < 1.0:
        raise ValueError(f"treated proportion must lie in (0,1), got {r1}")
    return r1


def _population_forms(table: ScienceTable):
    """The identity form u u' and the (hollow, diagonal) H, Q and B forms of
    design.hat_forms over the rows u = (Y(1) - Ybar(1), Y(0) - Ybar(0)), each
    divided by n - 1: entry [a, b] of a form is a finitepop scaled variance
    (a = b) or covariance (a != b).
    """
    if not (np.all(np.isfinite(table.y1)) and np.all(np.isfinite(table.y0))):
        raise ValueError("population vector contains non-finite entries")
    u = np.vstack((table.y1 - table.y1.mean(), table.y0 - table.y0.mean()))
    d = table.hat.n - 1
    return u @ u.T / d, tuple((o / d, g / d) for o, g in hat_forms(table.hat, u))


def oracle_variances(table: ScienceTable, r1: float) -> OracleVariances:
    """All oracle variances for a completely randomized design with share r1.

    Each is read from the population forms over (Y(1), Y(0)): with neyman(s)
    = s00/r1 + s11/r0 - (s00 + s11 - 2 s01), the Neyman variance of a pair
    of vectors whose covariance matrix is s,

        sigma_cre2  = neyman(I),
        sigma_adj2  = neyman(I - H)   (residuals (I - H) u, I - H idempotent),
        sigma_hd_l2 = neyman(B)       (debiased residuals M u, B = M'M),
        sigma_hd_q2 = (r1 r0)^2 w'Qw  for w = (1/r1^2, -1/r0^2).
    """
    r1 = _check_r1(r1)
    r0 = 1.0 - r1
    ident, ((oh, dh), (oq, dq), (ob, db)) = _population_forms(table)

    def neyman(s):
        return float(s[0, 0] / r1 + s[1, 1] / r0 - (s[0, 0] + s[1, 1] - 2.0 * s[0, 1]))

    w = np.array((1.0 / r1**2, -1.0 / r0**2))
    sigma_cre2 = neyman(ident)
    sigma_adj2 = neyman(ident - oh - dh)
    sigma_hd_l2 = neyman(ob + db)
    sigma_hd_q2 = float((r1 * r0) ** 2 * (w @ (oq + dq) @ w))
    if sigma_cre2 <= 0:
        raise ValueError("difference-in-means variance is not positive")
    return OracleVariances(
        sigma_cre2=sigma_cre2,
        sigma_adj2=sigma_adj2,
        sigma_hd_l2=sigma_hd_l2,
        sigma_hd_q2=sigma_hd_q2,
        sigma_hd2=sigma_hd_l2 + sigma_hd_q2,
        r_squared=min(max(1.0 - sigma_adj2 / sigma_cre2, 0.0), 1.0),
        s_tau2=float(ident[0, 0] + ident[1, 1] - 2.0 * ident[0, 1]),
    )


def variance_components(table: ScienceTable, r1: float) -> tuple[float, float, float, float]:
    """Exact four-way split of sigma_hd2 into diagonal / off-diagonal,
    single-arm / cross-arm pieces.  The four terms sum to sigma_hd2 and
    each has a sample counterpart inside block_cb.
    """
    r1 = _check_r1(r1)
    r0 = 1.0 - r1
    _, (_, (oq, dq), (ob, db)) = _population_forms(table)
    i1 = i2 = 0.0
    for k, rz in ((0, r1), (1, r0)):
        i1 += r1 * r0 * (r1 * r0 / rz**4 * dq[k, k] + db[k, k] / rz**2)
        i2 += r1 * r0 * (r1 * r0 / rz**4 * oq[k, k] + ob[k, k] / rz**2)
    i3 = 2.0 * (db[0, 1] - dq[0, 1])
    i4 = 2.0 * (ob[0, 1] - oq[0, 1])
    return float(i1), float(i2), float(i3), float(i4)


# ---------------------------------------------------------------------------
# efficiency bounds for adjustment to help at all
# ---------------------------------------------------------------------------

def necessary_bound(alpha) -> np.ndarray | float:
    """R^2 level below which adjustment cannot beat the unadjusted estimator."""
    a = np.asarray(alpha, dtype=float)
    if np.any((a < 0) | (a > 1)):
        raise ValueError("alpha must lie in [0, 1]")
    out = (a**2 + 2 * a) / (1 + 2 * a)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class EfficiencyBounds:
    necessary_r2: float
    sufficient_r2: float
    r_l2: float | None  # closed form, defined only for a balanced design


def efficiency_bounds(table: ScienceTable, r1: float) -> EfficiencyBounds:
    """Necessary and sufficient R^2 thresholds for adjustment to win."""
    r1 = _check_r1(r1)
    r0 = 1.0 - r1
    a = table.hat.alpha
    nec = necessary_bound(a)
    w = table.y1 / r1**2 - table.y0 / r0**2
    v = table.y1 / r1 + table.y0 / r0
    suf = nec + 2 * r1 * r0 * a * (1 - a) / (1 + 2 * a) * (
        sample_variance(w) / sample_variance(v)
    )
    r_l2 = None
    if r1 == 0.5:
        gamma = sample_variance(table.y1 - table.y0) / (
            2 * sample_variance((table.y1 + table.y0) / 2)
        )
        r_l2 = float(rl2_curve(a, gamma))
    return EfficiencyBounds(necessary_r2=float(nec), sufficient_r2=float(suf), r_l2=r_l2)


def rl2_curve(alphas, gamma: float) -> np.ndarray:
    """Balanced-design break-even R^2 curve over a grid of alpha values.

    gamma is the effect-heterogeneity ratio S2(tau) / (2 S2((Y(1)+Y(0))/2));
    gamma = 0 recovers the necessary bound, and the curve rises to 1 as
    alpha -> 1 regardless of gamma.
    """
    a = np.asarray(alphas, dtype=float)
    nec = necessary_bound(a)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return nec + a * (1 - a) / (1 + 2 * a) * gamma


# ---------------------------------------------------------------------------
# the plug-in variance estimator for the debiased estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceEstimate:
    """Plug-in variance estimate and its four building blocks.

    hd keeps a conservative cross-term bound tight for additive effects;
    hd_prime is the variant that is tighter under effect heterogeneity.
    combined takes the smaller of the two (ties resolved toward hd) and
    is clamped at zero (flagged) in the rare event both go negative.
    From block_cb each field is a vector over the block's assignments.
    """

    i1: float
    i2: float
    i3_upper: float
    i3_upper_prime: float
    i4: float
    hd: float
    hd_prime: float
    combined: float
    source: str  # "hd" or "hd_prime"
    clamped: bool


def block_cb(forms: ArmForms) -> VarianceEstimate:
    """estimate_variance over a block, each field a vector."""
    n = forms.hat.n
    nz = forms.nz
    rz = nz / n
    r1r0 = (rz[:, 0] * rz[:, 1])[:, None]
    # rows (arm 1, arm 0, z): the first two diagonal entries of each form
    # are the single-arm moments, its [0, 1] entry the cross-arm one
    (oh, _), (oq, dq), (ob, db) = forms.forms
    mq, mb, off_q, off_b, off_h = (np.diagonal(m, axis1=1, axis2=2)[:, :2] / d for m, d in (
        (dq, nz), (db, nz), (oq, rz * nz), (ob, rz * nz), (oh, rz * nz)))
    i1 = (r1r0 * (r1r0 / rz**4 * mq + mb / rz**2)).sum(axis=1)
    i2 = (r1r0 * (r1r0 / rz**4 * off_q + off_b / rz**2)).sum(axis=1)
    i3_upper_prime = (mb - mq).sum(axis=1)
    cross = n * rz[:, 0] * rz[:, 1]
    i3_upper = (mb - mq - off_h).sum(axis=1) + 2.0 * oh[:, 0, 1] / cross
    i4 = 2.0 * (ob[:, 0, 1] / cross - oq[:, 0, 1] / cross)

    hd = i1 + i2 + i3_upper + i4
    hd_prime = i1 + i2 + i3_upper_prime + i4
    take_hd = hd <= hd_prime
    combined = np.where(take_hd, hd, hd_prime)
    clamped = combined < 0.0
    return VarianceEstimate(
        i1=i1, i2=i2, i3_upper=i3_upper, i3_upper_prime=i3_upper_prime, i4=i4,
        hd=hd, hd_prime=hd_prime, combined=np.where(clamped, 0.0, combined),
        source=np.where(take_hd, "hd", "hd_prime"), clamped=clamped,
    )


def estimate_variance(data: ObservedData) -> VarianceEstimate:
    """Assignment-based estimate of the many-covariate variance (block_cb of
    this assignment).

    Every ingredient is a sample moment over one arm or over the two arms'
    off-diagonal pairs, weighted by entries of H, Q, or B; only observed
    outcomes enter.
    """
    est = block_cb(data.forms)
    return VarianceEstimate(**{k: v[0].item() for k, v in vars(est).items()})


# ---------------------------------------------------------------------------
# competitor variance estimators and interval construction
# ---------------------------------------------------------------------------

def block_neyman(forms: ArmForms) -> np.ndarray:
    """neyman_variance_unadj over a block."""
    nz = forms.nz
    u = forms.u[:, :2]
    return (np.einsum("rkn,rkn->rk", u, u) / (nz - 1) / (nz / forms.hat.n)).sum(axis=1)


def neyman_variance_unadj(data: ObservedData) -> float:
    """Classical conservative variance for the difference in means."""
    return float(block_neyman(data.forms)[0])


def _hc3_row(z: np.ndarray, fit: LinFit) -> float:
    """hc3_variance of the assignment z (boolean, length n) fitted by fit."""
    n = z.size
    total = 0.0
    for arm, x, resid, chol in ((1, fit.x1, fit.resid1, fit.chol1),
                                (0, fit.x0, fit.resid0, fit.chol0)):
        nz = resid.size
        # c = L^-1 x' as a triangular inverse and a product: trmm runs at a
        # higher rate than trsm over the same n_z columns
        c = dtrmm(1.0, dtrtri(chol, lower=1)[0], x.T, lower=1)
        e = c.sum(axis=1) / nz
        lev = np.einsum("ij,ij->j", c, c) - nz * (e @ c) ** 2 / (1.0 + nz * (e @ e))
        worst = int(np.argmax(lev))
        if lev[worst] >= 1.0 - 1e-10:
            unit = int(np.flatnonzero(z if arm else ~z)[worst])
            raise LeverageOneError(arm, unit, float(lev[worst]))
        total += n / ((nz - 1) * nz) * float(np.sum(resid**2 / (1.0 - lev) ** 2))
    return total


def hc3_variance(data: ObservedData, fit: LinFit) -> float:
    """HC3 sandwich variance paired with the arm-specific OLS estimator.

    Uses the arm OLS residuals of fit = lin_fit(data) and pooled-centered,
    no-intercept arm leverages lev_i = x_i'(sum_{j in arm} x_j x_j')^-1 x_i,
    x = X - Xbar; the textbook intercept form 1/n_z + (arm-centered
    leverage) projects onto a larger span, so it is never smaller.  That
    Gram is the fit's arm-centered G = LL' plus n_z d d', d the arm mean of
    x, so with c_i = L^-1 x_i and e = mean c_i, lev_i = |c_i|^2 -
    n_z (e'c_i)^2 / (1 + n_z |e|^2).  c is the triangular inverse of L
    (LAPACK trtri) times the arm's rows that the fit gathered (BLAS trmm),
    so the fit and HC3 read one gather per arm.  Already on the per-n
    scale.  Raises LeverageOneError when a leverage is within 1e-10 of 1.
    """
    return _hc3_row(data.z, fit)


def wald_ci(point: float, variance: float, n: int, level: float = 0.05) -> tuple[float, float]:
    """Normal-theory interval point +/- z * sqrt(variance / n)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if variance < 0.0:
        raise ValueError("variance must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    half = ndtri(1.0 - level / 2.0) * np.sqrt(variance / n)
    return float(point - half), float(point + half)
