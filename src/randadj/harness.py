"""Monte Carlo harness: factorial simulation, metrics, verification checks.

A cell is one configuration of the factorial design.  run_cell draws
assignments with replicate-keyed substreams, so results are reproducible
and independent of execution order; run_factorial distributes cells over
worker processes without changing a single bit of the output.

Metrics per estimator (tau_bar is the true effect of the cell's table):

    rel_rmse       RMSE(tau_hat) / (sigma_cre / sqrt(n))
    rel_bias       |mean(tau_hat) - tau_bar| / (sigma_hd / sqrt(n))
    coverage       fraction of nominal (1-level) intervals covering tau_bar
    rel_ci_length  mean ratio of CI length to the unadjusted CI length

Estimator failures (for instance, arm-specific OLS with p >= n_z) are
recorded as per-estimator NA with the reason; other estimators' metrics
are unaffected.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .design import Assignment, complete_randomization, enumerate_assignments, hat_forms, substream
from .dgp import BaseTables, CellConfig, _PURPOSE_ASSIGN, build_cell, cell_key
from .estimators import (
    ArmForms,
    ArmSingularError,
    ObservedData,
    ScienceTable,
    arm_forms,
    block_adj,
    block_debias,
    block_unadj,
    lin_fit,
)
from .inference import (
    LeverageOneError,
    OracleVariances,
    block_cb,
    block_neyman,
    hc3_variance,
    oracle_variances,
    variance_components,
)

#: canonical estimator order used everywhere (tables, CSV, JSON)
ESTIMATORS = ("unadj", "hd", "hd_undb", "lin", "lin_db")

#: which variance estimator backs each point estimator's interval
VARIANCE_PAIRING = {
    "unadj": "neyman",
    "hd": "cb",
    "hd_undb": "cb",
    "lin": "hc3",
    "lin_db": "hc3",
}


@dataclass
class EstimatorMetrics:
    rel_rmse: float | None = None
    rel_rmse_se: float | None = None
    rel_bias: float | None = None
    rel_bias_se: float | None = None
    coverage: float | None = None
    coverage_se: float | None = None
    rel_ci_length: float | None = None
    rel_ci_length_se: float | None = None
    point_na: str | None = None
    ci_na: str | None = None


@dataclass
class CellResult:
    cfg: CellConfig
    reps: int
    seed: int
    level: float
    tau_bar: float
    oracle: OracleVariances
    metrics: dict[str, EstimatorMetrics]
    clamped_count: int = 0

    @property
    def ratio_l(self) -> float:
        return self.oracle.sigma_hd_l2 / self.oracle.sigma_hd2

    @property
    def ratio_q(self) -> float:
        return self.oracle.sigma_hd_q2 / self.oracle.sigma_hd2

    @property
    def ratio_adj(self) -> float:
        return self.oracle.sigma_adj2 / self.oracle.sigma_hd2


#: entries of a block's R x n assignment matrix: the replicate loop takes
#: R = _BLOCK_ENTRIES // n assignments at a time, so that each of the
#: block's (R, 3, n) arrays stays near 1.5 MB
_BLOCK_ENTRIES = 1 << 16


def block_estimates(forms: ArmForms, hc3: bool = True) -> tuple[dict, dict]:
    """Every estimate of a block of assignments, each a vector over the
    block: the points of ESTIMATORS and the variances neyman, cb, hc3
    (unless hc3 is False) and cb_clamped as 0/1.  Returns them with the
    first NA reason in block order of each name that is NaN in some row.

    The H-based estimates run on the whole block; lin, lin_db and HC3 fit
    each row's arms.  Raises ArmSingularError when an arm has fewer than 2
    units.
    """
    adj = block_adj(forms)
    est = block_cb(forms)
    out = {"unadj": block_unadj(forms), "hd_undb": adj, "hd": adj + block_debias(forms),
           "neyman": block_neyman(forms), "cb": est.combined,
           "cb_clamped": est.clamped.astype(float)}
    lin_names = ("lin", "lin_db", "hc3") if hc3 else ("lin", "lin_db")
    out |= {name: np.full(len(forms.nz), np.nan) for name in lin_names}
    na: dict[str, str] = {}
    hat = forms.hat
    for r, (y, z) in enumerate(zip(forms.y, forms.z)):
        # the fits read the hat's centred covariates, so they stand in for x
        data = ObservedData(y=y, assignment=Assignment(z=z, n=hat.n, n1=int(forms.nz[r, 0])),
                            x=hat.xc, hat=hat)
        try:
            fit = lin_fit(data)
        except ArmSingularError as err:
            for name in lin_names:
                na.setdefault(name, str(err))
            continue
        out["lin"][r], out["lin_db"][r] = fit.tau, fit.tau_db
        if hc3:
            try:
                out["hc3"][r] = hc3_variance(data, fit)
            except LeverageOneError as err:
                na.setdefault("hc3", str(err))
    return out, na


def replicate_estimates(data: ObservedData) -> tuple[dict, dict, dict]:
    """Point estimates and paired variances for one realized assignment:
    block_estimates of this assignment as a block of one.

    Returns (points, variances, na_reasons); failed entries are absent
    from the first two dicts and explained in the third.
    """
    values, na = block_estimates(data.forms)
    defined = {name: float(v[0]) for name, v in values.items() if name not in na}
    return ({name: v for name, v in defined.items() if name in ESTIMATORS},
            {name: v for name, v in defined.items() if name not in ESTIMATORS}, na)


def _evaluate(table: ScienceTable, z_blocks, hc3: bool = True):
    """block_estimates over blocks of assignments of the table (each an
    R x n boolean array), as (values joined in block order, the first NA
    reason of each name, arm means R x 2)."""
    values, na, ybar = [], {}, []
    for z in z_blocks:
        forms = arm_forms(table.hat, np.where(z, table.y1, table.y0), z)
        block, block_na = block_estimates(forms, hc3)
        values.append(block)
        na = block_na | na
        ybar.append(forms.ybar)
    return ({name: np.concatenate([b[name] for b in values]) for name in values[0]},
            na, np.concatenate(ybar))


def _blocks(items, n: int):
    """The items in lists of at most max(1, _BLOCK_ENTRIES // n)."""
    items = iter(items)
    while block := list(itertools.islice(items, max(1, _BLOCK_ENTRIES // n))):
        yield block


def run_cell(
    table: ScienceTable,
    cfg: CellConfig,
    reps: int,
    seed: int,
    level: float = 0.05,
) -> CellResult:
    """Monte Carlo over `reps` assignments of one cell's table.

    Replicates run in blocks, each evaluated by block_estimates.
    """
    if reps < 2:
        raise ValueError("need at least 2 replicates")
    n, n1 = cfg.n, cfg.n1
    r1 = n1 / n
    key = cell_key(cfg)
    ov = oracle_variances(table, r1)
    tau_bar = table.tau_bar
    est, na, _ = _evaluate(table, (
        np.array([complete_randomization(n, n1, substream(seed, key, _PURPOSE_ASSIGN, rep)).z
                  for rep in reps_block]) for reps_block in _blocks(range(reps), n)))

    scale_rmse = math.sqrt(ov.sigma_cre2 / n)
    scale_bias = math.sqrt(ov.sigma_hd2 / n)
    metrics: dict[str, EstimatorMetrics] = {}
    for e in ESTIMATORS:
        m = EstimatorMetrics()
        p = est[e]
        if e in na or np.isnan(p).any():
            m.point_na = na.get(e, "point estimate undefined in some replicate")
        else:
            err = p - tau_bar
            sq = err**2
            mse = float(sq.mean())
            rmse = math.sqrt(mse)
            m.rel_rmse = rmse / scale_rmse
            se_mse = float(sq.std(ddof=1)) / math.sqrt(reps)
            m.rel_rmse_se = (se_mse / (2.0 * rmse) / scale_rmse) if rmse > 0 else 0.0
            m.rel_bias = abs(float(err.mean())) / scale_bias
            m.rel_bias_se = float(err.std(ddof=1)) / math.sqrt(reps) / scale_bias

        vname = VARIANCE_PAIRING[e]
        v = est[vname]
        if m.point_na is not None or vname in na or np.isnan(v).any():
            m.ci_na = m.point_na or na.get(vname, "variance undefined in some replicate")
        else:
            half = np.sqrt(v / n) * _z_value(level)
            cover = np.abs(p - tau_bar) <= half
            cov = float(cover.mean())
            m.coverage = cov
            m.coverage_se = math.sqrt(cov * (1.0 - cov) / reps)
            # the critical value cancels in the length ratio
            ratio = np.sqrt(v) / np.sqrt(est["neyman"])
            m.rel_ci_length = float(ratio.mean())
            m.rel_ci_length_se = float(ratio.std(ddof=1)) / math.sqrt(reps)
        metrics[e] = m

    return CellResult(
        cfg=cfg, reps=reps, seed=seed, level=level, tau_bar=tau_bar,
        oracle=ov, metrics=metrics, clamped_count=int(est["cb_clamped"].sum()),
    )


def _z_value(level: float) -> float:
    from scipy.special import ndtri

    return float(ndtri(1.0 - level / 2.0))


def _cells_task(args) -> list[CellResult]:
    base, cfgs, reps, seed, level = args
    hat = None  # the cells share p, so the first cell's hat serves them all
    results = []
    for cfg in cfgs:
        # a table too large for its moments fails the run instead of writing
        # inf or nan metrics
        with np.errstate(over="raise", invalid="raise"):
            try:
                table = build_cell(base, cfg, hat)
                hat = table.hat
                results.append(run_cell(table, cfg, reps, seed, level))
            except FloatingPointError as err:
                raise FloatingPointError(f"cell alpha={cfg.alpha}, delta={cfg.delta}, "
                                         f"gamma={cfg.gamma}: {err}") from err
    return results


def run_factorial(
    base: BaseTables,
    cells: list[CellConfig],
    reps: int,
    seed: int,
    level: float = 0.05,
    workers: int | None = None,
) -> list[CellResult]:
    """Run every cell; workers > 1 parallelizes over cells.

    A cell's hat structure depends only on its p, so cells run in p order
    and each task builds one hat for a run of cells with the same p: one
    task per p serially, up to `workers` tasks per p in a pool.  A task's
    hat is released before the next task builds its own.  Per-cell results
    depend only on (base, cfg, reps, seed, level), never on worker count or
    position in the grid, so output is byte-stable; they come back in grid
    order.
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be positive")
    serial = workers == 1 or len(cells) == 1
    pieces = 1 if serial else workers or os.cpu_count() or 1
    order = sorted(range(len(cells)), key=lambda i: cells[i].p)
    tasks = []
    for _, same_p in itertools.groupby(order, key=lambda i: cells[i].p):
        same_p = list(same_p)
        tasks += [same_p[j::pieces] for j in range(min(pieces, len(same_p)))]
    args = [(base, [cells[i] for i in task], reps, seed, level) for task in tasks]
    if serial:
        done = [_cells_task(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_cells_task, args, chunksize=1))
    by_index = dict(zip(itertools.chain(*tasks), itertools.chain(*done)))
    return [by_index[i] for i in range(len(cells))]


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------

@dataclass
class EnumerationReport:
    """Exact moments of the estimators over every possible assignment."""

    n_assignments: int
    mean: dict[str, float]
    variance: dict[str, float]  # population variance over the assignment set
    mean_ybar1: float
    mean_ybar0: float
    mean_cb_variance: float


def enumeration_check(table: ScienceTable, n1: int) -> EnumerationReport:
    """Average the estimators over the complete assignment set.

    Exact (no Monte Carlo); refuses designs with more than 10^6
    assignments via enumerate_assignments' guard, and arms of fewer than 2
    units.  The assignments run in blocks, as in run_cell.
    """
    n = table.hat.n
    if n1 < 2 or n - n1 < 2:
        raise ValueError(f"each arm needs at least 2 units, got n1={n1}, n0={n - n1}")
    est, _, ybar = _evaluate(table, (np.array([asg.z for asg in asgs]) for asgs in
                                     _blocks(enumerate_assignments(n, n1), n)), hc3=False)
    mean = {}
    variance = {}
    for e in ESTIMATORS:
        v = est[e]
        if not np.isnan(v).any():  # NaN marks an assignment where e failed
            mean[e] = float(v.mean())
            variance[e] = float(v.var(ddof=0))
    return EnumerationReport(
        n_assignments=len(ybar),
        mean=mean,
        variance=variance,
        mean_ybar1=float(ybar[:, 0].mean()),
        mean_ybar0=float(ybar[:, 1].mean()),
        mean_cb_variance=float(est["cb"].mean()),
    )


# ---------------------------------------------------------------------------
# result serialization (frozen schema)
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "n", "r1", "alpha", "p", "delta", "gamma", "residual", "covariate_dist",
    "rank_transform", "reps", "seed", "level", "estimator",
    "rel_rmse", "rel_rmse_se", "rel_bias", "rel_bias_se",
    "coverage", "coverage_se", "rel_ci_length", "rel_ci_length_se",
    "point_na", "ci_na",
    "tau_bar", "sigma_cre2", "sigma_adj2", "sigma_hd_l2", "sigma_hd_q2",
    "sigma_hd2", "r_squared", "ratio_l", "ratio_q", "ratio_adj",
    "clamped_count",
)


def _fmt(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _result_rows(res: CellResult):
    cfg, ov = res.cfg, res.oracle
    for e in ESTIMATORS:
        m = res.metrics[e]
        yield {
            "n": cfg.n, "r1": cfg.r1, "alpha": cfg.alpha, "p": cfg.p,
            "delta": cfg.delta, "gamma": cfg.gamma, "residual": cfg.residual,
            "covariate_dist": cfg.covariate_dist,
            "rank_transform": cfg.rank_transform,
            "reps": res.reps, "seed": res.seed, "level": res.level,
            "estimator": e,
            "rel_rmse": m.rel_rmse, "rel_rmse_se": m.rel_rmse_se,
            "rel_bias": m.rel_bias, "rel_bias_se": m.rel_bias_se,
            "coverage": m.coverage, "coverage_se": m.coverage_se,
            "rel_ci_length": m.rel_ci_length,
            "rel_ci_length_se": m.rel_ci_length_se,
            "point_na": m.point_na, "ci_na": m.ci_na,
            "tau_bar": res.tau_bar,
            "sigma_cre2": ov.sigma_cre2, "sigma_adj2": ov.sigma_adj2,
            "sigma_hd_l2": ov.sigma_hd_l2, "sigma_hd_q2": ov.sigma_hd_q2,
            "sigma_hd2": ov.sigma_hd2, "r_squared": ov.r_squared,
            "ratio_l": res.ratio_l, "ratio_q": res.ratio_q,
            "ratio_adj": res.ratio_adj,
            "clamped_count": res.clamped_count,
        }


def results_to_csv(results: list[CellResult], path) -> None:
    """Write one row per cell x estimator, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for res in results:
            for row in _result_rows(res):
                fh.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")


def results_to_json(results: list[CellResult], path) -> None:
    """JSON mirror of the CSV rows, grouped by cell."""
    import json

    payload = []
    for res in results:
        payload.append({
            "cell": {c: _json_safe(getattr(res.cfg, c)) for c in (
                "n", "r1", "alpha", "delta", "gamma", "residual",
                "covariate_dist", "rank_transform")},
            "p": res.cfg.p,
            "reps": res.reps,
            "seed": res.seed,
            "level": res.level,
            "tau_bar": res.tau_bar,
            "oracle": {k: _json_safe(getattr(res.oracle, k)) for k in (
                "sigma_cre2", "sigma_adj2", "sigma_hd_l2", "sigma_hd_q2",
                "sigma_hd2", "r_squared", "s_tau2")},
            "clamped_count": res.clamped_count,
            "estimators": {
                e: {k: _json_safe(v) for k, v in vars(res.metrics[e]).items()}
                for e in ESTIMATORS
            },
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_safe(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    return v


# ---------------------------------------------------------------------------
# verification check registry (used by the CLI's verify command and tests)
# ---------------------------------------------------------------------------

@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str = ""


def hat_invariant_checks(hat, atol: float = 1e-10) -> list[CheckOutcome]:
    """Named structural invariants of a hat-matrix bundle."""
    n = hat.n
    lev = hat.leverages
    out = []

    def add(name, err, bound=atol, extra=""):
        out.append(CheckOutcome(name, bool(err <= bound),
                                f"max abs error {err:.3e}{extra}"))

    add("hat-symmetric", float(np.abs(hat.h - hat.h.T).max()))
    add("hat-idempotent", float(np.abs(hat.h @ hat.h - hat.h).max()))
    add("hat-rowsum-zero", float(np.abs(hat.h.sum(axis=1)).max()))
    add("hat-trace-p", abs(float(np.trace(hat.h)) - hat.p))
    lev_ok = bool((lev >= -atol).all() and (lev <= 1 + atol).all())
    out.append(CheckOutcome("leverage-range", lev_ok,
                            f"min {lev.min():.6f}, max {lev.max():.6f}"))
    q_expect = hat.h * hat.h
    np.fill_diagonal(q_expect, lev - lev**2)
    add("q-definition", float(np.abs(hat.q - q_expect).max()))
    add("q-rowsum", float(np.abs(hat.q.sum(axis=1) - 2 * lev * (1 - lev)).max()))
    # B's forms come from H alone; at u = I they are B's entries, which are
    # compared with M'M for the map M = P - H + P diag{H} itself
    pmat = np.eye(n) - np.full((n, n), 1.0 / n)
    m = pmat - hat.h + pmat @ np.diag(lev)
    hollow_b, diag_b = hat_forms(hat, np.eye(n))[2]
    add("b-gram", float(np.abs(hollow_b + diag_b - m.T @ m).max()))
    b_diag_closed = 1 - 1 / n + (1 - 2 / n) * lev - (1 + 1 / n) * lev**2
    add("b-diagonal-closed-form", float(np.abs(diag_b - np.diag(b_diag_closed)).max()))
    return out


def _random_instance(rng, n: int, p: int) -> ScienceTable:
    from .design import build_hat_structure

    x = rng.standard_normal((n, p))
    hat = build_hat_structure(x)
    y1 = rng.standard_normal(n) + x @ rng.standard_normal(p) / math.sqrt(p)
    y0 = rng.standard_normal(n) + x @ rng.standard_normal(p) / math.sqrt(p)
    return ScienceTable(y1=y1, y0=y0, x=x, hat=hat)


def algebraic_identity_checks(seed: int = 0, instances: int = 10) -> list[CheckOutcome]:
    """Random-instance identities linking the variance representations."""
    from .finitepop import sample_variance, scaled_variance
    from .inference import residuals as residual_sets

    rng = substream(seed, 7001)
    worst = {
        "rewrite-linear-variance": 0.0,
        "component-partition": 0.0,
        "quadratic-expansion": 0.0,
        "residual-pythagoras": 0.0,
        "hd-quadratic-nonnegative": 0.0,
    }
    for _ in range(instances):
        n = int(rng.integers(20, 61))
        p = int(rng.integers(1, max(2, int(0.6 * n))))
        n1 = int(rng.integers(max(2, n // 4), n - max(2, n // 4) + 1))
        r1 = n1 / n
        r0 = 1 - r1
        table = _random_instance(rng, n, p)
        ov = oracle_variances(table, r1)

        # full B forms over the population-centred rows v, a + b, a and b
        a, b = table.y1, table.y0
        rows = np.vstack((a / r1 + b / r0, a + b, a, b))
        hollow_b, diag_b = hat_forms(table.hat, rows - rows.mean(axis=1, keepdims=True))[2]
        s2_b = (hollow_b + diag_b) / (n - 1)
        rhs = r1 * r0 * s2_b[0, 0]
        worst["rewrite-linear-variance"] = max(
            worst["rewrite-linear-variance"],
            abs(ov.sigma_hd_l2 - rhs) / max(1.0, abs(ov.sigma_hd_l2)))

        comps = variance_components(table, r1)
        worst["component-partition"] = max(
            worst["component-partition"],
            abs(sum(comps) - ov.sigma_hd2) / max(1.0, abs(ov.sigma_hd2)))

        lhs2 = s2_b[1, 1]
        rhs2 = s2_b[2, 2] + s2_b[3, 3] + 2 * s2_b[2, 3]
        worst["quadratic-expansion"] = max(
            worst["quadratic-expansion"], abs(lhs2 - rhs2) / max(1.0, abs(lhs2)))

        tau = table.y1 - table.y0
        res = residual_sets(table)
        rhs3 = scaled_variance(table.hat.h, tau) + sample_variance(res.tau_e)
        worst["residual-pythagoras"] = max(
            worst["residual-pythagoras"],
            abs(sample_variance(tau) - rhs3) / max(1.0, abs(sample_variance(tau))))

        worst["hd-quadratic-nonnegative"] = max(
            worst["hd-quadratic-nonnegative"], max(0.0, -ov.sigma_hd_q2))

    bounds = {"hd-quadratic-nonnegative": 1e-10}
    return [
        CheckOutcome(name, err <= bounds.get(name, 1e-8),
                     f"worst error {err:.3e}")
        for name, err in worst.items()
    ]


def enumeration_identity_checks(seed: int = 0, tables: int = 5) -> list[CheckOutcome]:
    """Exact unbiasedness and variance identities on enumerable designs."""
    rng = substream(seed, 7002)
    worst_mean = worst_var = worst_arm = 0.0
    for _ in range(tables):
        n, n1 = 8, 4
        p = int(rng.integers(1, 3))
        table = _random_instance(rng, n, p)
        rep = enumeration_check(table, n1)
        ov = oracle_variances(table, n1 / n)
        worst_mean = max(worst_mean, abs(rep.mean["unadj"] - table.tau_bar))
        worst_var = max(worst_var, abs(rep.variance["unadj"] - ov.sigma_cre2 / n))
        worst_arm = max(
            worst_arm,
            abs(rep.mean_ybar1 - float(table.y1.mean())),
            abs(rep.mean_ybar0 - float(table.y0.mean())),
        )
    return [
        CheckOutcome("enumeration-unadj-unbiased", worst_mean <= 1e-10,
                     f"max abs error {worst_mean:.3e}"),
        CheckOutcome("enumeration-unadj-variance", worst_var <= 1e-10,
                     f"max abs error {worst_var:.3e}"),
        CheckOutcome("enumeration-arm-means", worst_arm <= 1e-10,
                     f"max abs error {worst_arm:.3e}"),
    ]


def exact_checks(seed: int = 0) -> list[CheckOutcome]:
    """All identity checks that hold to numerical tolerance."""
    rng = substream(seed, 7003)
    table = _random_instance(rng, 60, 12)
    out = hat_invariant_checks(table.hat)
    out.extend(algebraic_identity_checks(seed))
    out.extend(enumeration_identity_checks(seed))
    return out


def statistical_checks(seed: int = 0) -> list[CheckOutcome]:
    """Smoke-scale Monte Carlo checks of bias, coverage, and calibration."""
    from .dgp import gen_base_tables

    cfg = CellConfig(n=200, r1=0.35, alpha=0.1, delta=0.25, gamma=3.0,
                     residual="t3")
    base = gen_base_tables(cfg.n, cfg.covariate_dist, seed, cfg.p)
    table = build_cell(base, cfg)
    res = run_cell(table, cfg, reps=400, seed=seed, level=0.05)
    m = res.metrics["hd"]
    return [
        CheckOutcome("mc-db-bias-small", m.rel_bias is not None and m.rel_bias < 0.5,
                     f"relative bias {m.rel_bias}"),
        CheckOutcome("mc-db-coverage", m.coverage is not None and m.coverage >= 0.90,
                     f"coverage {m.coverage}"),
        CheckOutcome("mc-unadj-rmse-calibrated",
                     res.metrics["unadj"].rel_rmse is not None
                     and abs(res.metrics["unadj"].rel_rmse - 1.0) < 0.2,
                     f"relative RMSE {res.metrics['unadj'].rel_rmse}"),
    ]
