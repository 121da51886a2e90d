"""Synthetic potential-outcome tables for the factorial simulation.

A master table of raw material (an n-row covariate pool, slope vectors,
intercepts) is drawn once per seed from a heavy-tailed distribution; each
simulation cell then slices the first p columns, forms linear predictors,
and adds either adversarial leverage-aligned residuals or fresh
heavy-tailed noise:

    Y_i(z) = mu_z + scale(X_i' beta_z)_i + eps_i(z) / sqrt(gamma)

with beta_1 = beta[:p] + delta * d[:p], beta_0 = beta[:p] - delta * d[:p].
All sampling is inverse-CDF on uniforms from the 53-bit lattice
(k + 1/2) / 2^53, drawn from keyed counter-based streams, so every table
is reproducible from (seed, cell) alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .design import build_hat_structure, substream, HatStructure
from .estimators import ScienceTable
from .finitepop import scale

RESIDUAL_KINDS = ("worst_case", "t3", "cauchy")
COVARIATE_DISTS = ("t3", "cauchy")

# substream purpose tags (third element of the key tuple)
_PURPOSE_RESIDUAL = 1
_PURPOSE_TRANS1 = 2
_PURPOSE_TRANS0 = 3
_PURPOSE_ASSIGN = 4
_BASE_TAG = 101


class DegenerateResidualError(ValueError):
    """The adversarial residual construction collapsed to a constant."""


def _lattice_uniform(k: np.ndarray) -> np.ndarray:
    """(k + 1/2) / 2^53 for integers k in [0, 2^53), strictly inside (0, 1).

    Below 1/2 these are the lattice midpoints exactly.  From k = 2^52 on,
    k + 1/2 rounds to its even neighbour, so the values are lattice points,
    and k = 2^53 - 1 rounds to 1.0: the clamp to the largest double below
    1 moves that one value and keeps every other's bits.
    """
    u = (k.astype(np.float64) + 0.5) / float(1 << 53)
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def _open_uniform(rng: np.random.Generator, size) -> np.ndarray:
    return _lattice_uniform(rng.integers(0, 1 << 53, size=size))


#: Taylor coefficients in psi^2 of (psi - sin psi) / psi^3, to psi^21, and
#: of its derivative (1 - cos psi) / psi^2
_PSI_MINUS_SIN = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(10))
_ONE_MINUS_COS = tuple((2 * k + 3) * a for k, a in enumerate(_PSI_MINUS_SIN))
#: series reversions for the starting points, in x^2 and w^2:
#: psi - sin psi = x^3 / 6 has psi = x (1 + x^2/60 + ...), and
#: arctan tau + tau / (1 + tau^2) = 2w has tau = w (1 + 2 w^2/3 + ...)
_PSI_START = (1.0, 1 / 60, 1 / 1400, 1 / 25200, 43 / 17248000, 1213 / 7207200000)
_TAU_START = (1.0, 2 / 3, 11 / 15, 292 / 315, 3548 / 2835, 273766 / 155925)
#: min(u, 1 - u) at psi = pi/2, where the tail solve hands over to the centre's
_TAIL_M = (np.pi / 2 - 1) / (2 * np.pi)
_SQRT3 = math.sqrt(3.0)
#: entries per pass, so that the solve's temporaries stay in cache
_QUANTILE_BLOCK = 1 << 14


def _t3_quantile(u) -> np.ndarray:
    """Quantile of the t distribution with 3 degrees of freedom, u in (0, 1).

    With theta = arctan(t / sqrt 3) the t3 CDF is exactly
    1/2 + (theta + sin theta cos theta) / pi.  Let m = min(u, 1 - u).
    In the tails (m < _TAIL_M), psi = pi - 2|theta| <= pi/2 solves
    psi - sin psi = 2 pi m, summed from its Taylor series because the
    difference loses every digit as psi -> 0, and |t| = sqrt 3 cot(psi/2).
    In the centre, tau = |t| / sqrt 3 <= 1 solves
    arctan tau + tau / (1 + tau^2) = pi (1/2 - m), which stays well
    conditioned as u -> 1/2.  Two Newton steps in the tails and two Halley
    steps in the centre, from series starting points, reach the root to
    within 8e-16 relative of 40-digit references.  The result depends on u
    only through m and the sign of u - 1/2, so q(1 - u) = -q(u) wherever
    1 - u is exact.
    """
    u = np.asarray(u, dtype=np.float64)
    t = np.empty(u.shape)
    flat_u, flat_t = u.reshape(-1), t.reshape(-1)
    for lo in range(0, flat_u.size, _QUANTILE_BLOCK):
        v = flat_u[lo:lo + _QUANTILE_BLOCK]
        m = np.minimum(v, 1.0 - v)
        mag = np.empty_like(m)
        tail = m < _TAIL_M
        c = (2 * np.pi) * m[tail]
        x = np.cbrt(6.0 * c)
        psi = x * polyval(x * x, _PSI_START)
        for _ in range(2):
            s = psi * psi
            psi -= (psi * s * polyval(s, _PSI_MINUS_SIN) - c) / (s * polyval(s, _ONE_MINUS_COS))
        mag[tail] = _SQRT3 / np.tan(0.5 * psi)
        centre = ~tail
        c = np.pi * (0.5 - m[centre])
        w = 0.5 * c
        tau = w * polyval(w * w, _TAU_START)
        for _ in range(2):
            r = 1.0 + tau * tau
            g = np.arctan(tau) + tau / r - c
            tau -= 0.5 * g * r * r / (1.0 + g * tau * r)
        mag[centre] = _SQRT3 * tau
        np.copysign(mag, v - 0.5, out=flat_t[lo:lo + _QUANTILE_BLOCK])
    return t


#: inverse CDFs, applied elementwise to open uniforms
_QUANTILES = {
    "t3": _t3_quantile,
    "cauchy": lambda u: np.tan(np.pi * (u - 0.5)),
}


def sample_t3(rng: np.random.Generator, size) -> np.ndarray:
    """i.i.d. t distribution with 3 degrees of freedom, via inverse CDF."""
    return _QUANTILES["t3"](_open_uniform(rng, size))


def sample_cauchy(rng: np.random.Generator, size) -> np.ndarray:
    """i.i.d. standard Cauchy, via inverse CDF."""
    return _QUANTILES["cauchy"](_open_uniform(rng, size))


_SAMPLERS = {"t3": sample_t3, "cauchy": sample_cauchy}


def trans(a, rng: np.random.Generator) -> np.ndarray:
    """Rank-preserving heavy-tail transform.

    Replaces a_i by the k-th smallest of n fresh t3 draws, where k is the
    rank of a_i (ties broken by original position).  Keeps the ordering of
    the input while forcing t3 marginals.
    """
    a = np.asarray(a, dtype=float)
    b = np.sort(sample_t3(rng, a.shape[0]))
    ranks = np.empty(a.shape[0], dtype=int)
    ranks[np.argsort(a, kind="stable")] = np.arange(a.shape[0])
    return b[ranks]


@dataclass(frozen=True)
class BaseTables:
    """Seed-determined raw material shared by every cell of a run."""

    n: int
    dist: str
    seed: int
    cal_x: np.ndarray      # n x p_max covariate pool; cells take the first p columns
    beta: np.ndarray       # length n
    delta_vec: np.ndarray  # length n
    mu1: float
    mu0: float


def gen_base_tables(n: int, dist: str, seed: int, p: int | None = None) -> BaseTables:
    """Draw the master tables for one seed.

    Draw order is fixed (covariate pool row-major, then beta, then the
    slope perturbation, then the two intercepts) so that tables are
    byte-stable for a given (n, dist, seed).  `p`, when given, keeps only
    the first p columns of the pool, the most any cell of the run reads:
    the whole n x n uniform lattice is still drawn, so every later draw
    and every kept entry equals the full draw's, but only the kept
    columns are converted to uniforms and passed through the quantile.
    """
    if dist not in COVARIATE_DISTS:
        raise ValueError(f"covariate distribution must be one of {COVARIATE_DISTS}")
    if n < 4:
        raise ValueError("need at least 4 units")
    if p is None:
        p = n
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got n={n}, p={p}")
    rng = substream(seed, _BASE_TAG)
    cal_x = _QUANTILES[dist](_lattice_uniform(rng.integers(0, 1 << 53, size=(n, n))[:, :p]))
    draw = _SAMPLERS[dist]
    beta = draw(rng, n)
    delta_vec = draw(rng, n)
    mu1, mu0 = draw(rng, 2)
    return BaseTables(
        n=n, dist=dist, seed=int(seed), cal_x=cal_x, beta=beta,
        delta_vec=delta_vec, mu1=float(mu1), mu0=float(mu0),
    )


@dataclass(frozen=True)
class CellConfig:
    """One cell of the factorial design."""

    n: int
    r1: float
    alpha: float
    delta: float
    gamma: float
    residual: str
    covariate_dist: str = "t3"
    rank_transform: bool = False

    def __post_init__(self):
        if not 0.0 < self.r1 < 1.0:
            raise ValueError(f"r1 must lie in (0,1), got {self.r1}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.residual not in RESIDUAL_KINDS:
            raise ValueError(f"residual must be one of {RESIDUAL_KINDS}")
        if self.covariate_dist not in COVARIATE_DISTS:
            raise ValueError(f"covariate_dist must be one of {COVARIATE_DISTS}")
        if not 2 <= self.n1 <= self.n - 2:
            raise ValueError(f"r1={self.r1} leaves an arm with fewer than 2 units")
        p = self.p
        if not 1 <= p < self.n:
            raise ValueError(f"alpha={self.alpha} gives p={p} outside [1, n)")

    @property
    def p(self) -> int:
        return p_for_alpha(self.alpha, self.n)

    @property
    def n1(self) -> int:
        return int(round(self.r1 * self.n))


def p_for_alpha(alpha: float, n: int) -> int:
    """Covariate count for a dimension ratio: p = round(alpha * n)."""
    return int(round(float(alpha) * n))


def cell_key(cfg: CellConfig) -> int:
    """Deterministic 63-bit key identifying a cell (independent of grid order)."""
    canon = "|".join(
        repr(v) for v in (
            cfg.n, cfg.r1, cfg.alpha, cfg.delta, cfg.gamma,
            cfg.residual, cfg.covariate_dist, cfg.rank_transform,
        )
    )
    digest = hashlib.blake2b(canon.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def worst_case_residual(hat: HatStructure) -> tuple[np.ndarray, np.ndarray]:
    """Adversarial residual pair aligned with the leverage vector.

    eps(1) = scale((I - H) lev), eps(0) = -2 eps(1).  This correlates the
    residuals with the leverages, which maximizes the bias of undebiased
    regression adjustment.  Degenerates (and raises) when the leverage
    vector lies in the hat space, e.g. for exactly balanced designs; use
    t3 or cauchy residuals there.
    """
    g = hat.leverages - hat.h @ hat.leverages
    gc = g - g.mean()
    if np.sqrt(gc @ gc / hat.n) < 1e-12 * max(1.0, float(np.abs(g).max())):
        raise DegenerateResidualError(
            "leverage vector is (numerically) in the hat space, so the "
            "worst-case residual is constant; use t3 or cauchy residuals"
        )
    eps1 = scale(g)
    return eps1, -2.0 * eps1


def t_residual(n: int, dist: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two independent heavy-tailed residual vectors, each scaled to unit
    population variance."""
    if dist not in _SAMPLERS:
        raise ValueError(f"residual distribution must be one of {tuple(_SAMPLERS)}")
    draw = _SAMPLERS[dist]
    return scale(draw(rng, n)), scale(draw(rng, n))


def build_cell(base: BaseTables, cfg: CellConfig, hat: HatStructure | None = None) -> ScienceTable:
    """Materialize the potential-outcome table for one cell.

    `hat`, when given, must be the hat structure of base.cal_x[:, :cfg.p]
    (another cell's of the same p); it is built when omitted.
    """
    if cfg.n != base.n:
        raise ValueError("cell size does not match the base tables")
    if cfg.covariate_dist != base.dist:
        raise ValueError("cell covariate distribution does not match the base tables")
    p = cfg.p
    if p > base.cal_x.shape[1]:
        raise ValueError(f"cell needs p={p} covariates; the base tables hold "
                         f"{base.cal_x.shape[1]}")
    x = base.cal_x[:, :p]
    if hat is None:
        hat = build_hat_structure(x)
    key = cell_key(cfg)

    beta1 = base.beta[:p] + cfg.delta * base.delta_vec[:p]
    beta0 = base.beta[:p] - cfg.delta * base.delta_vec[:p]
    lin1 = x @ beta1
    lin0 = x @ beta0
    if cfg.rank_transform:
        lin1 = trans(lin1, substream(base.seed, key, _PURPOSE_TRANS1))
        lin0 = trans(lin0, substream(base.seed, key, _PURPOSE_TRANS0))
    lin1 = scale(lin1)
    lin0 = scale(lin0)

    if cfg.residual == "worst_case":
        eps1, eps0 = worst_case_residual(hat)
    else:
        rng = substream(base.seed, key, _PURPOSE_RESIDUAL)
        eps1, eps0 = t_residual(base.n, cfg.residual, rng)

    root_gamma = np.sqrt(cfg.gamma)
    y1 = base.mu1 + lin1 + eps1 / root_gamma
    y0 = base.mu0 + lin0 + eps0 / root_gamma
    return ScienceTable(y1=y1, y0=y0, x=x, hat=hat)

