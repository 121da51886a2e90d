"""Point estimators of the average treatment effect under complete randomization.

Five estimators are provided:

    tau_unadj   difference in arm means
    tau_adj     regression adjustment with pooled-covariance slopes
    tau_db      tau_adj plus a leverage-based debiasing correction
    tau_lin     regression adjustment with arm-specific OLS slopes
    tau_lin_db  tau_lin plus its own leverage correction

tau_adj and tau_db remain well defined whenever the pooled covariate matrix
is nonsingular, even if one arm has fewer units than covariates; the
arm-specific estimators additionally need n_z > p in both arms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .design import Assignment, HatStructure, hat_forms


class ArmSingularError(ValueError):
    """An arm-level regression is unidentified (p >= n_z or collinear arm)."""

    def __init__(self, arm: int, detail: str):
        self.arm = arm
        super().__init__(f"arm {arm} regression is singular: {detail}")


@dataclass(frozen=True)
class ScienceTable:
    """Complete potential-outcome table: both outcomes for every unit.

    Only simulation code and oracle calculations may touch this; anything
    an analyst could run on real data takes ObservedData instead.
    """

    y1: np.ndarray
    y0: np.ndarray
    x: np.ndarray
    hat: HatStructure

    def __post_init__(self):
        n = self.hat.n
        if self.y1.shape != (n,) or self.y0.shape != (n,):
            raise ValueError("potential outcome vectors must have length n")
        if self.x.shape != (n, self.hat.p):
            raise ValueError("covariate matrix shape does not match hat structure")

    @property
    def tau_bar(self) -> float:
        """Finite-population average treatment effect."""
        return float(np.mean(self.y1 - self.y0))


@dataclass(frozen=True)
class ObservedData:
    """One realized experiment: assignment, observed outcomes, covariates."""

    y: np.ndarray
    assignment: Assignment
    x: np.ndarray
    hat: HatStructure

    def __post_init__(self):
        n = self.hat.n
        if self.y.shape != (n,) or self.assignment.n != n:
            raise ValueError("observed data dimensions do not match hat structure")

    @property
    def z(self) -> np.ndarray:
        return self.assignment.z

    @cached_property
    def arms(self) -> dict[int, tuple[np.ndarray, np.floating]]:
        """{1: (y_1, Ybar_1), 0: (y_0, Ybar_0)}: each arm's outcomes and their
        mean, gathered once per assignment for every estimator that needs them."""
        z = self.z
        return {arm: (y, y.mean()) for arm, y in ((1, self.y[z]), (0, self.y[~z]))}


def observe(table: ScienceTable, assignment: Assignment) -> ObservedData:
    """Reveal the outcomes selected by an assignment."""
    if assignment.n != table.hat.n:
        raise ValueError("assignment length does not match the table")
    y = np.where(assignment.z, table.y1, table.y0)
    return ObservedData(y=y, assignment=assignment, x=table.x, hat=table.hat)


def tau_unadj(data: ObservedData) -> float:
    """Difference in arm means."""
    return float(data.arms[1][1]) - float(data.arms[0][1])


def _centred(data: ObservedData, arms) -> np.ndarray:
    """One row per arm: Y_i - Ybar_arm on the arm, 0 elsewhere."""
    u = np.zeros((len(arms), data.assignment.n))
    for row, arm in zip(u, arms):
        if arm not in (0, 1):
            raise ValueError("arm must be 0 or 1")
        yz, ybar = data.arms[arm]
        row[data.z if arm == 1 else ~data.z] = yz - ybar
    return u


@dataclass(frozen=True)
class ArmForms:
    """hat_forms' (hollow, diagonal) pairs of H, Q and B over the rows
    (u1, u0, z) of one assignment, with (u1, u0) = _centred(data, (1, 0)) and
    z the 0/1 treated indicator, and lev_u = (u1, u0) @ diag{H}."""

    h: tuple[np.ndarray, np.ndarray]
    q: tuple[np.ndarray, np.ndarray]
    b: tuple[np.ndarray, np.ndarray]
    lev_u: np.ndarray


def arm_forms(data: ObservedData) -> ArmForms:
    """One product with H for every hat form an assignment needs."""
    u = _centred(data, (1, 0))
    h, q, b = hat_forms(data.hat, np.vstack((u, data.z)))
    return ArmForms(h=h, q=q, b=b, lev_u=u @ data.hat.leverages)


def tau_adj(data: ObservedData, forms: ArmForms | None = None) -> float:
    """Regression-adjusted estimator with pooled-covariance slopes, with no
    p-dimensional solve: arm z's adjustment is Xbar_z' beta_z = (n-1) /
    (n_z (n_z-1)) 1_z' H u_z, and as H1 = 0 the H form over (u1, u0, z)
    holds 1_1' H u1 at [2, 0] and -1_0' H u0 at [2, 1].  Raises
    ArmSingularError when an arm has fewer than 2 units."""
    asg = data.assignment
    for arm, nz in ((1, asg.n1), (0, asg.n0)):
        if nz < 2:
            raise ArmSingularError(arm, f"needs at least 2 units, got {nz}")
    if forms is None:
        forms = arm_forms(data)
    hollow, diagonal = forms.h
    f1, f0 = (hollow[2, :2] + diagonal[2, :2]).tolist()
    return tau_unadj(data) - (asg.n - 1) * (
        f1 / (asg.n1 * (asg.n1 - 1)) + f0 / (asg.n0 * (asg.n0 - 1)))


def debias_correction(data: ObservedData, forms: ArmForms | None = None) -> float:
    """Leverage correction removing the O(p/n) bias of tau_adj.

    r1 r0 [ n1^-1 sum_{treated} H_ii (Y_i - Ybar_1) / r1^2
          - n0^-1 sum_{control} H_ii (Y_i - Ybar_0) / r0^2 ].
    """
    if forms is None:
        forms = arm_forms(data)
    asg = data.assignment
    t1, t0 = forms.lev_u.tolist()
    return asg.r1 * asg.r0 * (t1 / asg.n1 / asg.r1**2 - t0 / asg.n0 / asg.r0**2)


def tau_db(data: ObservedData) -> float:
    """Debiased regression-adjusted estimator."""
    forms = arm_forms(data)
    return tau_adj(data, forms) + debias_correction(data, forms)


@dataclass(frozen=True)
class LinFit:
    """Arm-specific OLS fits: tau_lin, in-arm residuals (arm order), and the
    arm-centered Grams' Cholesky factors, each with L in its lower triangle."""

    tau: float
    resid1: np.ndarray
    resid0: np.ndarray
    chol1: np.ndarray
    chol0: np.ndarray


def lin_fit(data: ObservedData) -> LinFit:
    """Fit Y on X with an intercept separately in each arm.

    Raises ArmSingularError (naming the arm) when an arm has n_z <= p or a
    numerically collinear centered covariate matrix.
    """
    out = {}
    p = data.hat.p
    for arm, z in ((1, data.z), (0, ~data.z)):
        nz = int(z.sum())
        if nz <= p:
            raise ArmSingularError(arm, f"n_z = {nz} <= p = {p}")
        xa = data.hat.xc[z]
        xbar = xa.mean(axis=0)
        xa = xa - xbar
        ya, ybar = data.arms[arm]
        yc = ya - ybar
        # LAPACK directly: scipy's cho_factor/cho_solve cost ~30 us a call at small p
        chol, info = dpotrf(xa.T @ xa, lower=1)
        if info:
            raise ArmSingularError(
                arm, f"{info}-th leading minor of the array is not positive definite")
        beta = dpotrs(chol, xa.T @ yc, lower=1)[0]
        # the arm's mean of Y_i - beta'(X_i - Xbar), with the pooled mean Xbar
        out[arm] = (ybar - xbar @ beta, yc - xa @ beta, chol)
    return LinFit(tau=float(out[1][0] - out[0][0]), resid1=out[1][1], resid0=out[0][1],
                  chol1=out[1][2], chol0=out[0][2])


def tau_lin(data: ObservedData, fit: LinFit | None = None) -> float:
    """Regression adjustment with arm-specific OLS slopes."""
    if fit is None:
        fit = lin_fit(data)
    return fit.tau


def tau_lin_db(data: ObservedData, fit: LinFit | None = None) -> float:
    """tau_lin plus its leverage-based bias correction.

    The correction weights the arm-specific OLS residuals by the pooled
    leverages: (n0/n1^2) sum_{treated} H_ii e_i(1) - (n1/n0^2) sum_{control} H_ii e_i(0).
    """
    if fit is None:
        fit = lin_fit(data)
    asg = data.assignment
    lev = data.hat.leverages
    corr = (
        asg.n0 / asg.n1**2 * (lev[data.z] @ fit.resid1)
        - asg.n1 / asg.n0**2 * (lev[~data.z] @ fit.resid0)
    )
    return tau_lin(data, fit) + float(corr)
