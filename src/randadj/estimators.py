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

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .design import Assignment, HatStructure


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


def observe(table: ScienceTable, assignment: Assignment) -> ObservedData:
    """Reveal the outcomes selected by an assignment."""
    if assignment.n != table.hat.n:
        raise ValueError("assignment length does not match the table")
    y = np.where(assignment.z, table.y1, table.y0)
    return ObservedData(y=y, assignment=assignment, x=table.x, hat=table.hat)


def _arm_means(data: ObservedData) -> tuple[float, float]:
    z = data.z
    return float(data.y[z].mean()), float(data.y[~z].mean())


def tau_unadj(data: ObservedData) -> float:
    """Difference in arm means."""
    ybar1, ybar0 = _arm_means(data)
    return ybar1 - ybar0


def beta_hat_pooled(data: ObservedData, arm: int) -> np.ndarray:
    """Pooled-covariance slope for one arm.

    Solves S_X^2 beta = s_{X,Y(arm)}, where the right-hand side is the
    arm's sample covariance (divisor n_z - 1) between the covariates
    centered at the *pooled* mean and the observed outcomes.
    """
    if arm not in (0, 1):
        raise ValueError("arm must be 0 or 1")
    z = data.z if arm == 1 else ~data.z
    nz = int(z.sum())
    if nz < 2:
        raise ArmSingularError(arm, f"needs at least 2 units, got {nz}")
    ya = data.y[z]
    rhs = data.hat.xc[z].T @ (ya - ya.mean())
    return (data.hat.n - 1) / (nz - 1) * data.hat.solve_gram(rhs)


def _tau_regadj(data: ObservedData, beta1: np.ndarray, beta0: np.ndarray) -> float:
    # mean_{arm z} of Y_i - beta_z'(X_i - Xbar), with the pooled mean Xbar
    z = data.z
    t1 = data.y[z].mean() - data.hat.xc[z].mean(axis=0) @ beta1
    t0 = data.y[~z].mean() - data.hat.xc[~z].mean(axis=0) @ beta0
    return float(t1 - t0)


def tau_adj(data: ObservedData) -> float:
    """Regression-adjusted estimator with pooled-covariance slopes."""
    return _tau_regadj(data, beta_hat_pooled(data, 1), beta_hat_pooled(data, 0))


def debias_correction(data: ObservedData) -> float:
    """Leverage correction removing the O(p/n) bias of tau_adj.

    r1 r0 [ n1^-1 sum_{treated} H_ii (Y_i - Ybar_1) / r1^2
          - n0^-1 sum_{control} H_ii (Y_i - Ybar_0) / r0^2 ].
    """
    asg = data.assignment
    z = data.z
    lev = data.hat.leverages
    ybar1, ybar0 = _arm_means(data)
    t1 = lev[z] @ (data.y[z] - ybar1) / asg.n1 / asg.r1**2
    t0 = lev[~z] @ (data.y[~z] - ybar0) / asg.n0 / asg.r0**2
    return float(asg.r1 * asg.r0 * (t1 - t0))


def tau_db(data: ObservedData) -> float:
    """Debiased regression-adjusted estimator."""
    return tau_adj(data) + debias_correction(data)


@dataclass(frozen=True)
class LinFit:
    """Arm-specific OLS fits: slopes, in-arm residuals (arm order), and the
    arm-centered Grams' Cholesky factors, each with L in its lower triangle."""

    beta1: np.ndarray
    beta0: np.ndarray
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
        xa = xa - xa.mean(axis=0)
        ya = data.y[z]
        yc = ya - ya.mean()
        try:
            chol = cho_factor(xa.T @ xa, lower=True)
        except np.linalg.LinAlgError as err:
            raise ArmSingularError(arm, str(err)) from err
        beta = cho_solve(chol, xa.T @ yc)
        out[arm] = (beta, yc - xa @ beta, chol[0])
    return LinFit(beta1=out[1][0], beta0=out[0][0], resid1=out[1][1], resid0=out[0][1],
                  chol1=out[1][2], chol0=out[0][2])


def tau_lin(data: ObservedData, fit: LinFit | None = None) -> float:
    """Regression adjustment with arm-specific OLS slopes."""
    if fit is None:
        fit = lin_fit(data)
    return _tau_regadj(data, fit.beta1, fit.beta0)


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
