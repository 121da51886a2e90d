"""Independent computations and output checks for the benchmark.

Nothing here imports randadj. Every expected value is either recomputed
with numpy from the inputs the benchmark generated, or is a property the
method must have. Each ``check_*`` function returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

ESTIMATORS = ("unadj", "hd", "hd_undb", "lin", "lin_db")

#: per-estimator metric fields of results.csv, in pairs (value, MC SE)
METRIC_FIELDS = (
    "rel_rmse", "rel_rmse_se", "rel_bias", "rel_bias_se",
    "coverage", "coverage_se", "rel_ci_length", "rel_ci_length_se",
)

#: the pooled unadj rel_rmse^2 must lie within this many MC SEs of 1
RMSE_SE_MULTIPLE = 6.0


# ---------------------------------------------------------------------------
# independent computations
# ---------------------------------------------------------------------------

def sample_variance(a) -> float:
    """Variance with divisor len(a) - 1."""
    return float(np.var(np.asarray(a, dtype=float), ddof=1))


def z_crit(level: float) -> float:
    """Two-sided normal critical value z_{1 - level/2}."""
    return NormalDist().inv_cdf(1.0 - level / 2.0)


def diff_in_means(y, z) -> float:
    y, z = np.asarray(y, float), np.asarray(z, bool)
    return float(y[z].mean() - y[~z].mean())


def neyman_variance(y, z) -> float:
    """S2(Y_treated)/r1 + S2(Y_control)/r0, on the per-n scale."""
    y, z = np.asarray(y, float), np.asarray(z, bool)
    r1 = z.mean()
    return sample_variance(y[z]) / r1 + sample_variance(y[~z]) / (1.0 - r1)


def sigma_cre2(y1, y0, r1: float) -> float:
    """Per-n variance of the difference in means under complete randomization."""
    y1, y0 = np.asarray(y1, float), np.asarray(y0, float)
    return (sample_variance(y1) / r1 + sample_variance(y0) / (1.0 - r1)
            - sample_variance(y1 - y0))


def pooled_leverages(x) -> np.ndarray:
    """diag of Xc (Xc'Xc)^-1 Xc', with X centered at its pooled mean."""
    xc = np.asarray(x, float) - np.mean(x, axis=0)
    return np.einsum("ij,ji->i", xc, np.linalg.solve(xc.T @ xc, xc.T))


def pooled_adjusted(y, z, x) -> tuple[float, float]:
    """(hd_undb, hd): regression adjustment with pooled-covariance slopes,
    then the same plus the leverage correction.

    beta_z = (n-1)/(n_z-1) (Xc'Xc)^-1 Xc_z'(Y_z - Ybar_z), and the correction
    is r1 r0 [sum_T lev_i (Y_i - Ybar_1)/(n1 r1^2) - sum_C lev_i (Y_i - Ybar_0)/(n0 r0^2)].
    """
    y, z = np.asarray(y, float), np.asarray(z, bool)
    xc = np.asarray(x, float) - np.mean(x, axis=0)
    n = y.shape[0]
    gram = xc.T @ xc
    lev = pooled_leverages(x)
    tau = corr = 0.0
    for mask, sign in ((z, 1.0), (~z, -1.0)):
        nz = int(mask.sum())
        rz = nz / n
        dev = y[mask] - y[mask].mean()
        beta = (n - 1) / (nz - 1) * np.linalg.solve(gram, xc[mask].T @ dev)
        tau += sign * (y[mask].mean() - xc[mask].mean(axis=0) @ beta)
        corr += sign * (lev[mask] @ dev) / nz / rz**2
    r1 = z.mean()
    return float(tau), float(tau + r1 * (1.0 - r1) * corr)


def lin_interacted(y, z, x) -> tuple[float, float]:
    """(lin, lin_db) from the fully interacted regression.

    lin is the Z coefficient of Y ~ 1 + Z + Xc + Z*Xc by least squares, with
    X centered at its pooled mean; lin_db adds
    (n0/n1^2) sum_T lev_i e_i - (n1/n0^2) sum_C lev_i e_i with the regression
    residuals e and the pooled leverages.
    """
    y, z = np.asarray(y, float), np.asarray(z, bool)
    xc = np.asarray(x, float) - np.mean(x, axis=0)
    zf = z.astype(float)
    design = np.column_stack([np.ones_like(zf), zf, xc, zf[:, None] * xc])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    lev = pooled_leverages(x)
    n1, n0 = int(z.sum()), int((~z).sum())
    corr = n0 / n1**2 * (lev[z] @ resid[z]) - n1 / n0**2 * (lev[~z] @ resid[~z])
    return float(coef[1]), float(coef[1] + corr)


def cell_metrics(points: dict, variances: dict, tau_bar: float, sigma_cre2_: float,
                 sigma_hd2: float, n: int, level: float) -> dict:
    """Per-estimator Monte Carlo metrics from per-replicate values.

    `points` maps each estimator to its replicate estimates and `variances`
    maps "neyman", "cb" and "hc3" to the paired variance estimates; NaN marks
    a replicate where the value is undefined. Returns estimator -> field ->
    value, with None for an undefined metric.
    """
    pairing = {"unadj": "neyman", "hd": "cb", "hd_undb": "cb",
               "lin": "hc3", "lin_db": "hc3"}
    reps = len(points["unadj"])
    root = math.sqrt(reps)
    scale_rmse = math.sqrt(sigma_cre2_ / n)
    scale_bias = math.sqrt(sigma_hd2 / n)
    out = {}
    for e in ESTIMATORS:
        m = dict.fromkeys(METRIC_FIELDS)
        p = np.asarray(points[e], float)
        if not np.isnan(p).any():
            err = p - tau_bar
            sq = err**2
            rmse = math.sqrt(float(sq.mean()))
            m["rel_rmse"] = rmse / scale_rmse
            m["rel_rmse_se"] = (float(sq.std(ddof=1)) / root / (2.0 * rmse) / scale_rmse
                                if rmse > 0 else 0.0)
            m["rel_bias"] = abs(float(err.mean())) / scale_bias
            m["rel_bias_se"] = float(err.std(ddof=1)) / root / scale_bias
            v = np.asarray(variances[pairing[e]], float)
            if not np.isnan(v).any():
                cover = np.abs(err) <= np.sqrt(v / n) * z_crit(level)
                cov = float(cover.mean())
                m["coverage"] = cov
                m["coverage_se"] = math.sqrt(cov * (1.0 - cov) / reps)
                ratio = np.sqrt(v) / np.sqrt(np.asarray(variances["neyman"], float))
                m["rel_ci_length"] = float(ratio.mean())
                m["rel_ci_length_se"] = float(ratio.std(ddof=1)) / root
        out[e] = m
    return out


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    """|a - b| <= rtol * max(|a|, |b|, scale)."""
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def parse_field(text: str) -> float | None:
    return None if text == "NA" else float(text)


def cell_id(row: dict) -> tuple:
    """(n, r1, alpha, delta, gamma, residual, covariate_dist, rank_transform)
    of a results.csv row, parsed."""
    return (int(row["n"]), float(row["r1"]), float(row["alpha"]), float(row["delta"]),
            float(row["gamma"]), row["residual"], row["covariate_dist"],
            row["rank_transform"] == "true")


def group_cells(rows: list[dict]) -> dict:
    """results.csv rows grouped by cell, in file order."""
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        cells.setdefault(cell_id(row), []).append(row)
    return cells


def compare_metrics(label: str, rows: list[dict], expected: dict, rtol: float) -> list[str]:
    """Compare a cell's results.csv rows with metrics computed apart."""
    fails = []
    for row in rows:
        e = row["estimator"]
        for field in METRIC_FIELDS:
            got, want = parse_field(row[field]), expected[e][field]
            if (got is None) != (want is None) or (
                    got is not None and not close(got, want, rtol, 1e-12)):
                fails.append(f"{label} {e}.{field}: results.csv {got} != recomputed {want}")
    return fails


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_simulate(rows: list[dict], cells: dict, level: float, rtol: float = 1e-9) -> list[str]:
    """Check one simulate call's results.csv rows.

    `cells` maps each expected cell id to a dict with the cell's potential
    outcomes "y1", "y0", its size "n", "n1", "p", and "z", the R x n matrix
    of replicate assignments. Checks:

    - the cells are exactly the expected grid, each with 5 estimator rows;
    - lin/lin_db are NA exactly where p >= min(n1, n0), and no other
      estimator is NA;
    - tau_bar and sigma_cre2 match a numpy recomputation from the table;
    - unadj's rel_ci_length is 1 and every coverage lies in [0, 1];
    - unadj's rel_rmse, rel_rmse_se, coverage and coverage_se match a numpy
      recomputation from the replicate assignments;
    - unadj's rel_rmse^2, pooled over the cells, lies within
      RMSE_SE_MULTIPLE MC SEs of 1 (Var = sigma_cre2/n holds exactly).
    """
    fails = []
    got = group_cells(rows)
    if set(got) != set(cells):
        return [f"cells differ: missing {sorted(set(cells) - set(got))}, "
                f"unexpected {sorted(set(got) - set(cells))}"]
    sq_sum = var_sum = 0.0
    for cid, crow in got.items():
        spec = cells[cid]
        label = "cell " + ",".join(map(str, cid))
        if [r["estimator"] for r in crow] != list(ESTIMATORS):
            fails.append(f"{label}: estimator rows {[r['estimator'] for r in crow]}")
            continue
        by = {r["estimator"]: r for r in crow}
        n, n1, p = spec["n"], spec["n1"], spec["p"]
        lin_na = p >= min(n1, n - n1)
        for e in ESTIMATORS:
            is_na = by[e]["point_na"] != "NA"
            if is_na != (lin_na and e in ("lin", "lin_db")):
                fails.append(f"{label}: {e} point NA is {is_na}, p={p}, n1={n1}, n={n}")
        r1 = n1 / n
        y1, y0 = spec["y1"], spec["y0"]
        tau_bar = float(np.mean(y1 - y0))
        s_cre = sigma_cre2(y1, y0, r1)
        for row in crow:
            for field, want in (("tau_bar", tau_bar), ("sigma_cre2", s_cre)):
                value = float(row[field])
                if not close(value, want, rtol, 1e-12):
                    fails.append(f"{label}: {row['estimator']} {field} {value} != recomputed {want}")
        unadj = by["unadj"]
        if parse_field(unadj["rel_ci_length"]) is None or abs(float(unadj["rel_ci_length"]) - 1.0) > 1e-12:
            fails.append(f"{label}: unadj rel_ci_length {unadj['rel_ci_length']} != 1")
        for e in ESTIMATORS:
            cov = parse_field(by[e]["coverage"])
            if cov is not None and not 0.0 <= cov <= 1.0:
                fails.append(f"{label}: {e} coverage {cov} outside [0, 1]")
        z = spec["z"]
        obs = np.where(z, y1, y0)
        n1s = z.sum(axis=1)
        means1 = (obs * z).sum(axis=1) / n1s
        means0 = (obs * ~z).sum(axis=1) / (n - n1s)
        points = means1 - means0
        neyman = np.array([neyman_variance(o, zz) for o, zz in zip(obs, z)])
        # only unadj's entry is used; the other estimators get unadj's values
        want = cell_metrics({e: points for e in ESTIMATORS},
                            {"neyman": neyman, "cb": neyman, "hc3": neyman},
                            tau_bar, s_cre, s_cre, n, level)["unadj"]
        for field in ("rel_rmse", "rel_rmse_se", "coverage", "coverage_se"):
            value = parse_field(unadj[field])
            if value is None or not close(value, want[field], rtol, 1e-12):
                fails.append(f"{label}: unadj {field} {value} != recomputed {want[field]}")
        rel = parse_field(unadj["rel_rmse"])
        se = parse_field(unadj["rel_rmse_se"])
        if rel is not None and se is not None:
            sq_sum += rel**2
            var_sum += (2.0 * rel * se) ** 2
    k = len(got)
    pooled = sq_sum / k
    pooled_se = math.sqrt(var_sum) / k
    if abs(pooled - 1.0) > RMSE_SE_MULTIPLE * pooled_se:
        fails.append(f"unadj rel_rmse^2 pooled over {k} cells is {pooled:.4f}, "
                     f"more than {RMSE_SE_MULTIPLE:g} MC SE ({pooled_se:.4f}) from 1")
    return fails


def check_analyze(report: dict, y, z, x, level: float, rtol: float = 1e-8) -> list[str]:
    """Check one `randadj analyze --out` report against numpy on its input.

    Compares unadj, hd_undb, hd, lin and lin_db with the computations above
    and unadj's variance with the Neyman formula; checks that every interval
    is point +/- z sqrt(var/n), that every variance is finite and >= 0, and
    that lin and lin_db are NA exactly where p >= min(n1, n0). The cb and
    HC3 variances are checked for range only.
    """
    y, z = np.asarray(y, float), np.asarray(z, bool)
    n, p = np.shape(x)
    n1 = int(z.sum())
    fails = []
    if report.get("n") != n or report.get("p") != p:
        fails.append(f"report n, p = {report.get('n')}, {report.get('p')}; input has {n}, {p}")
    rows = {r["estimator"]: r for r in report.get("estimates", [])}
    if list(rows) != list(ESTIMATORS):
        return fails + [f"report estimators {list(rows)}"]
    lin_na = p >= min(n1, n - n1)
    for e in ("lin", "lin_db"):
        if ("na" in rows[e]) != lin_na:
            fails.append(f"{e} NA is {'na' in rows[e]}, p={p}, n1={n1}, n={n}")
    want = {"unadj": diff_in_means(y, z)}
    want["hd_undb"], want["hd"] = pooled_adjusted(y, z, x)
    if not lin_na:
        want["lin"], want["lin_db"] = lin_interacted(y, z, x)
    neyman = neyman_variance(y, z)
    se_scale = math.sqrt(neyman / n)
    zc = z_crit(level)
    for e, row in rows.items():
        if "na" in row:
            if e not in ("lin", "lin_db"):
                fails.append(f"{e} is NA: {row['na']}")
            continue
        if e in want and not close(row["point"], want[e], rtol, se_scale):
            fails.append(f"{e} point {row['point']} != recomputed {want[e]}")
        var = row["variance"]
        if not (math.isfinite(var) and var >= 0.0):
            fails.append(f"{e} variance {var} is not finite and >= 0")
            continue
        half = zc * math.sqrt(var / n)
        for key, bound in (("ci_low", row["point"] - half), ("ci_high", row["point"] + half)):
            if not close(row[key], bound, 1e-12, half):
                fails.append(f"{e} {key} {row[key]} != point -/+ z sqrt(var/n) = {bound}")
    if not close(rows["unadj"]["variance"], neyman, rtol):
        fails.append(f"unadj variance {rows['unadj']['variance']} != Neyman {neyman}")
    return fails


def check_enumeration(report, y1, y0, n1: int, atol: float = 1e-10) -> list[str]:
    """Check an enumeration report against exact design identities.

    The assignment count is C(n, n1); unadj's mean over assignments is
    tau_bar and its variance is sigma_cre2/n; the arm means average to the
    population means. `report` has the fields of harness.EnumerationReport.
    """
    y1, y0 = np.asarray(y1, float), np.asarray(y0, float)
    n = y1.shape[0]
    fails = []
    count = math.comb(n, n1)
    if report.n_assignments != count:
        fails.append(f"n_assignments {report.n_assignments} != C({n},{n1}) = {count}")
    checks = (
        ("mean unadj", report.mean.get("unadj", math.nan), float(np.mean(y1 - y0))),
        ("variance unadj", report.variance.get("unadj", math.nan), sigma_cre2(y1, y0, n1 / n) / n),
        ("mean ybar1", report.mean_ybar1, float(y1.mean())),
        ("mean ybar0", report.mean_ybar0, float(y0.mean())),
    )
    for label, got, want in checks:
        if not abs(got - want) <= atol:
            fails.append(f"n={n}, n1={n1}: {label} {got} != {want}")
    return fails
