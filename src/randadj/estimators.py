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

The hat-matrix estimators run in blocks: block_unadj, block_adj and
block_debias evaluate a block of assignments (ArmForms) at once, and
tau_unadj, tau_adj and debias_correction are their blocks of one.
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
    def forms(self) -> ArmForms:
        """This assignment as a block of one (arm_forms), made once for every
        estimator that reads it."""
        return arm_forms(self.hat, self.y[None], self.z[None])


def observe(table: ScienceTable, assignment: Assignment) -> ObservedData:
    """Reveal the outcomes selected by an assignment."""
    if assignment.n != table.hat.n:
        raise ValueError("assignment length does not match the table")
    y = np.where(assignment.z, table.y1, table.y0)
    return ObservedData(y=y, assignment=assignment, x=table.x, hat=table.hat)


@dataclass(frozen=True)
class ArmForms:
    """A block of R assignments of one hat structure, row r for assignment r.

    nz holds the arm sizes (n1, n0) and ybar the arm means (Ybar_1, Ybar_0),
    each R x 2, and u the rows (R, 3, n) = (u1, u0, z): u_z is Y_i - Ybar_z
    on arm z and 0 elsewhere, z the 0/1 treated indicator.  `forms` holds
    hat_forms' (hollow, diagonal) pairs of H, Q and B over those rows, each
    R x 3 x 3, made on first use from one product of all 3R rows with H and
    one with Q.  Every H-based estimate of the block is a vector over it.
    y and z are the observed outcomes and assignments that arm_forms was
    given (R x n, not copied), which the arm-specific fits read row by row.
    """

    hat: HatStructure
    nz: np.ndarray
    ybar: np.ndarray
    u: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @cached_property
    def forms(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return hat_forms(self.hat, self.u)


def arm_forms(hat: HatStructure, y: np.ndarray, z: np.ndarray) -> ArmForms:
    """The ArmForms of the assignments z (R x n, boolean) that observed the
    outcomes y (R x n)."""
    n1 = z.sum(axis=1)
    nz = np.stack((n1, hat.n - n1), axis=1)
    u = np.empty((z.shape[0], 3, hat.n))
    ybar = np.empty((z.shape[0], 2))
    for k, mask in enumerate((z, ~z)):
        ybar[:, k] = np.where(mask, y, 0.0).sum(axis=1) / nz[:, k]
        u[:, k] = np.where(mask, y - ybar[:, k, None], 0.0)
    u[:, 2] = z
    return ArmForms(hat=hat, nz=nz, ybar=ybar, u=u, y=y, z=z)


def block_unadj(forms: ArmForms) -> np.ndarray:
    """Difference in arm means over a block."""
    return forms.ybar[:, 0] - forms.ybar[:, 1]


def block_adj(forms: ArmForms) -> np.ndarray:
    """tau_adj over a block, with no p-dimensional solve: arm z's adjustment
    is Xbar_z' beta_z = (n-1) / (n_z (n_z-1)) 1_z' H u_z, and as H1 = 0 the
    H form over (u1, u0, z) holds 1_1' H u1 at [2, 0] and -1_0' H u0 at
    [2, 1].  Raises ArmSingularError when an arm has fewer than 2 units."""
    nz = forms.nz
    for k, arm in enumerate((1, 0)):
        if nz[:, k].min() < 2:
            raise ArmSingularError(arm, f"needs at least 2 units, got {nz[:, k].min()}")
    hollow, diagonal = forms.forms[0]
    f = hollow[:, 2, :2] + diagonal[:, 2, :2]
    return block_unadj(forms) - (forms.hat.n - 1) * (f / (nz * (nz - 1))).sum(axis=1)


def block_debias(forms: ArmForms) -> np.ndarray:
    """debias_correction over a block."""
    nz = forms.nz
    rz = nz / forms.hat.n
    t = forms.u[:, :2] @ forms.hat.leverages / nz / rz**2
    return rz[:, 0] * rz[:, 1] * (t[:, 0] - t[:, 1])


def tau_unadj(data: ObservedData) -> float:
    """Difference in arm means."""
    return float(block_unadj(data.forms)[0])


def tau_adj(data: ObservedData) -> float:
    """Regression-adjusted estimator with pooled-covariance slopes (block_adj
    of this assignment).  Raises ArmSingularError when an arm has fewer than
    2 units."""
    return float(block_adj(data.forms)[0])


def debias_correction(data: ObservedData) -> float:
    """Leverage correction removing the O(p/n) bias of tau_adj.

    r1 r0 [ n1^-1 sum_{treated} H_ii (Y_i - Ybar_1) / r1^2
          - n0^-1 sum_{control} H_ii (Y_i - Ybar_0) / r0^2 ].
    """
    return float(block_debias(data.forms)[0])


def tau_db(data: ObservedData) -> float:
    """Debiased regression-adjusted estimator."""
    return tau_adj(data) + debias_correction(data)


@dataclass(frozen=True)
class LinFit:
    """Arm-specific OLS fits: tau_lin and tau_lin_db, in-arm residuals (arm
    order), and the arm-centered Grams' Cholesky factors, each with L in its
    lower triangle."""

    tau: float
    tau_db: float
    resid1: np.ndarray
    resid0: np.ndarray
    chol1: np.ndarray
    chol0: np.ndarray


def lin_fit(data: ObservedData) -> LinFit:
    """Fit Y on X with an intercept separately in each arm.

    tau_db adds lin_db's correction, which weights the residuals by the
    pooled leverages: (n0/n1^2) sum_{treated} H_ii e_i(1) - (n1/n0^2)
    sum_{control} H_ii e_i(0).  Raises ArmSingularError (naming the arm)
    when an arm has n_z <= p or a numerically collinear centered covariate
    matrix.
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
        ya = data.y[z]
        ybar = ya.mean()
        yc = ya - ybar
        # LAPACK directly: scipy's cho_factor/cho_solve cost ~30 us a call at small p
        chol, info = dpotrf(xa.T @ xa, lower=1)
        if info:
            raise ArmSingularError(
                arm, f"{info}-th leading minor of the array is not positive definite")
        beta = dpotrs(chol, xa.T @ yc, lower=1)[0]
        # the arm's mean of Y_i - beta'(X_i - Xbar), with the pooled mean Xbar
        out[arm] = (ybar - xbar @ beta, yc - xa @ beta, chol, nz, data.hat.leverages[z])
    (a1, e1, chol1, n1, lev1), (a0, e0, chol0, n0, lev0) = out[1], out[0]
    tau = float(a1 - a0)
    corr = n0 / n1**2 * (lev1 @ e1) - n1 / n0**2 * (lev0 @ e0)
    return LinFit(tau=tau, tau_db=tau + float(corr), resid1=e1, resid0=e0,
                  chol1=chol1, chol0=chol0)


def tau_lin(data: ObservedData, fit: LinFit | None = None) -> float:
    """Regression adjustment with arm-specific OLS slopes."""
    if fit is None:
        fit = lin_fit(data)
    return fit.tau


def tau_lin_db(data: ObservedData, fit: LinFit | None = None) -> float:
    """tau_lin plus its leverage-based bias correction (see lin_fit)."""
    if fit is None:
        fit = lin_fit(data)
    return fit.tau_db
