"""Experimental design: hat-matrix geometry and complete randomization.

The hat matrix of a centered covariate matrix drives everything downstream:
the regression-adjusted point estimates, leverage-based debiasing, the
quadratic variance component, and the matrix B that appears in the linear
variance component.

    H_ij = (n-1)^-1 (X_i - Xbar)' S_X^-2 (X_j - Xbar)
    Q    = H.^2 off the diagonal, Q_ii = H_ii - H_ii^2
    B    = M'M for the debiased-residual map M = P - H + P D,
           with P = I - 11'/n and D = diag{H}

Because PH = HP = H and H^2 = H, B has the closed form

    B = (I+D) P (I+D) - (I+D) H - H (I+D) + H,
    B_ij = (1 + D_i) (1 + D_j) (delta_ij - 1/n) - (1 + D_i + D_j) H_ij,
    B_ii = -(1 + 1/n) (1 + D_i)^2 + 3 (1 + D_i) - 1,

so neither Q nor B is stored: hat_forms evaluates the bilinear forms of
H, Q and B over any set of rows from H alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

#: eigenvalue-ratio threshold below which the covariate Gram matrix is
#: treated as numerically singular
COND_EPS = 1e-12

#: largest number of assignments enumerate_assignments will agree to produce
MAX_ENUMERATION = 10**6


class SingularCovariatesError(ValueError):
    """Centered covariate matrix is numerically rank deficient."""


class EnumerationTooLargeError(ValueError):
    """The assignment space is too large to enumerate exhaustively."""


def substream(seed, *subkeys: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, *subkeys).

    Distinct key tuples give statistically independent Philox streams, so
    Monte Carlo replicates can be keyed by (cell, replicate) and produce
    identical draws regardless of execution order or worker count.
    """
    if isinstance(seed, np.random.Generator):
        if subkeys:
            raise ValueError("cannot derive subkeys from a live generator")
        return seed
    entropy = (int(seed),) + tuple(int(k) for k in subkeys)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True)
class HatStructure:
    """Hat matrix of a covariate matrix together with derived quantities.

    The bundle holds one n x n matrix, H; the forms of Q and B come from it
    (see hat_forms).

    Fields
    ------
    xc : centered covariates, n x p
    gram : pooled Gram xc'xc, p x p, from which the arm fits derive one
        arm's Gram per assignment
    h : hat matrix (projection onto the centered column span), n x n
    leverages : diag(h)
    alpha : covariate dimension ratio p/n
    """

    xc: np.ndarray
    gram: np.ndarray
    h: np.ndarray
    leverages: np.ndarray
    alpha: float
    n: int
    p: int


def build_hat_structure(X) -> HatStructure:
    """Compute the hat-matrix bundle for a raw covariate matrix.

    Requires 1 <= p < n and a numerically nonsingular centered Gram matrix
    (smallest/largest eigenvalue ratio above COND_EPS).  The inverse
    covariance is never formed: with L the Cholesky factor of xc'xc, one
    triangular solve gives C = L^-1 xc' (p x n), and H = C'C.  numpy
    evaluates C'C with BLAS syrk, which computes one triangle and mirrors
    it, so H is exactly symmetric.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("covariate matrix must be 2-d")
    n, p = X.shape
    if not 1 <= p < n:
        raise ValueError(f"need 1 <= p < n, got n={n}, p={p}")
    if not np.all(np.isfinite(X)):
        raise ValueError("covariate matrix contains non-finite entries")

    xc = X - X.mean(axis=0)
    gram = xc.T @ xc
    evals = np.linalg.eigvalsh(gram)
    if evals[-1] <= 0:
        raise SingularCovariatesError("centered covariate Gram is singular: "
                                      "the centered covariates are all zero")
    if evals[0] <= 0 or evals[0] / evals[-1] < COND_EPS:
        raise SingularCovariatesError(
            f"centered covariate Gram is numerically singular: eigenvalue ratio "
            f"{evals[0] / evals[-1]:.3e} below {COND_EPS:.0e}"
        )
    # LAPACK and BLAS directly: cho_solve would take two triangular solves
    # and an n x n x p product for the same H
    chol, info = dpotrf(gram, lower=1)
    if info:
        raise SingularCovariatesError(
            f"Cholesky factorization of the centered covariate Gram failed: "
            f"{info}-th leading minor is not positive definite")
    c = dtrsm(1.0, chol, xc.T, lower=1)
    h = c.T @ c
    return HatStructure(xc=xc, gram=gram, h=h, leverages=np.diag(h).copy(), alpha=p / n, n=n, p=p)


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of the rows of a with those of b, per leading index:
    (..., k, n) and (..., l, n) give (..., k, l)."""
    return a @ np.swapaxes(b, -1, -2)


def _times(u: np.ndarray, D: np.ndarray) -> np.ndarray:
    """u @ D for u of shape (..., k, n), as one product of all its rows."""
    return (u.reshape(-1, u.shape[-1]) @ D).reshape(u.shape)


def _hollow(D: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear forms over the rows of u, split at the diagonal of D.

    Returns (hollow, diagonal) with hollow[..., a, b] = sum_{i != j} u_ai
    D_ij u_bj and diagonal[..., a, b] = sum_i D_ii u_ai u_bi, for u of shape
    (..., k, n).  D is read once, as one product with all rows of u.
    """
    diagonal = _gram(u * np.diagonal(D), u)
    return _gram(_times(u, D), u) - diagonal, diagonal


def hat_forms(hat: HatStructure, u: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(hollow, diagonal) bilinear forms of H, Q and B over the rows of u.

    Returns ((hollow_H, diag_H), (hollow_Q, diag_Q), (hollow_B, diag_B)),
    split as in _hollow, for u of shape (..., k, n): a leading axis stacks
    blocks of rows (one per assignment, say), all multiplied by H in one
    product.  H's and B's forms are (..., k, k); Q's are (..., 2, 2), over the
    first two rows of each block, from H.^2 and diag_H (Q_ii = H_ii - H_ii^2).
    B is never formed: with g = 1 + diag{H}, G = diag{g}, the product
    uh = u H and the Gram e = v v' of v = [u; G u] give

        m_UU = uh u',  m_GU = (G u) uh',
        u H u'         = m_UU,  diagonal e_GU - e_UU,
        u B u'         = e_GG - s s'/n - m_GU - m_GU' + m_UU,
        diagonal of B: 3 e_GU - e_UU - (1 + 1/n) e_GG,

    where s holds the row sums of G u (B = GPG - GH - HG + H).
    """
    k, n = u.shape[-2:]
    g = 1.0 + hat.leverages
    v = np.concatenate((u, u * g), axis=-2)
    e = _gram(v, v)
    e_uu, e_gu, e_gg = e[..., :k, :k], e[..., k:, :k], e[..., k:, k:]
    m = _gram(_times(u, hat.h), v)
    full_h, m_gu = m[..., :k], np.swapaxes(m[..., k:], -1, -2)
    s = u @ g
    diag_h = e_gu - e_uu
    full_b = (e_gg - s[..., :, None] * (s[..., None, :] / n)
              - m_gu - np.swapaxes(m_gu, -1, -2) + full_h)
    diag_b = 3.0 * e_gu - e_uu - (1.0 + 1.0 / n) * e_gg
    hollow_q, diag_hh = _hollow(hat.h * hat.h, u[..., :2, :])
    q = (hollow_q, diag_h[..., :2, :2] - diag_hh)
    return (full_h - diag_h, diag_h), q, (full_b - diag_b, diag_b)


@dataclass(frozen=True)
class Assignment:
    """A completely randomized assignment of n1 of n units to treatment."""

    z: np.ndarray  # boolean, True = treated
    n: int
    n1: int

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def r1(self) -> float:
        return self.n1 / self.n

    @property
    def r0(self) -> float:
        return self.n0 / self.n


def _check_design_sizes(n: int, n1: int) -> None:
    if not (isinstance(n, (int, np.integer)) and isinstance(n1, (int, np.integer))):
        raise ValueError("n and n1 must be integers")
    if not 0 < n1 < n:
        raise ValueError(f"need 0 < n1 < n, got n={n}, n1={n1}")


def complete_randomization(n: int, n1: int, rng) -> Assignment:
    """Draw one assignment uniformly from the n-choose-n1 possibilities.

    `rng` may be an integer seed or a live numpy Generator; passing a
    Generator lets callers draw a reproducible sequence of assignments.
    """
    _check_design_sizes(n, n1)
    gen = rng if isinstance(rng, np.random.Generator) else substream(rng)
    z = np.zeros(n, dtype=bool)
    z[gen.permutation(n)[:n1]] = True
    return Assignment(z=z, n=n, n1=n1)


def enumerate_assignments(n: int, n1: int):
    """Yield every assignment of n1 of n units, in lexicographic order.

    Refuses (with EnumerationTooLargeError) when the count exceeds
    MAX_ENUMERATION, naming the offending count.
    """
    _check_design_sizes(n, n1)
    total = math.comb(n, n1)
    if total > MAX_ENUMERATION:
        raise EnumerationTooLargeError(
            f"C({n},{n1}) = {total} assignments exceeds the enumeration "
            f"cap of {MAX_ENUMERATION}"
        )
    for treated in itertools.combinations(range(n), n1):
        z = np.zeros(n, dtype=bool)
        z[list(treated)] = True
        yield Assignment(z=z, n=n, n1=n1)
