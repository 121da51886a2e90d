"""Finite-population moment algebra.

All randomness in this package comes from the treatment assignment; the
units' potential outcomes and covariates are fixed numbers.  The moments
defined here are therefore deterministic functionals of vectors of length
n, using the finite-population convention with divisor n - 1:

    S2(a)      = (n-1)^-1 sum_i (a_i - abar)^2
    S2(A, a)   = (n-1)^-1 sum_{i,j} A_ij (a_i - abar)(a_j - abar)

S2(A, a) reduces to S2(a) when A is the identity.
"""

from __future__ import annotations

import numpy as np


def _as_pop_vector(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"population vector must be 1-d, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("population vector needs at least 2 units")
    if not np.all(np.isfinite(a)):
        raise ValueError("population vector contains non-finite entries")
    return a


def _as_weight_matrix(A, n: int) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"weight matrix must be {n}x{n}, got {A.shape}")
    return A


def sample_variance(a) -> float:
    """S2(a) with divisor n - 1."""
    a = _as_pop_vector(a)
    ac = a - a.mean()
    return float(ac @ ac / (a.shape[0] - 1))


def scaled_variance(A, a) -> float:
    """S2(A, a): quadratic form of the weight matrix A on the centered vector."""
    a = _as_pop_vector(a)
    A = _as_weight_matrix(A, a.shape[0])
    ac = a - a.mean()
    return float(ac @ (A @ ac) / (a.shape[0] - 1))


def scale(a) -> np.ndarray:
    """Center and normalize to unit *population* variance (divisor n).

    scale(a)_i = (a_i - abar) / sqrt(sum_j (a_j - abar)^2 / n).
    Raises on constant input, where the normalizer vanishes.
    """
    a = _as_pop_vector(a)
    ac = a - a.mean()
    denom = np.sqrt(ac @ ac / a.shape[0])
    if denom == 0.0:
        raise ValueError("cannot scale a constant vector")
    return ac / denom
