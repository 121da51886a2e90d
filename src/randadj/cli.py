"""Command line entry points.

Subcommands:

    simulate  run the factorial Monte Carlo described by a JSON config
    analyze   estimate effects and intervals from an observed-data CSV
    curves    tabulate the break-even R^2 curve over an alpha grid
    verify    run the internal verification checks

Exit codes: 0 success, 2 config or schema error, 3 numerical guard
failure, 4 verification failure.  Failures also emit a one-line JSON
object on stderr so callers can dispatch on the error kind.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import sys
import warnings

import numpy as np
import scipy

from . import BLAS, __version__
from .design import (
    Assignment,
    EnumerationTooLargeError,
    SingularCovariatesError,
    build_hat_structure,
)
from .dgp import (
    COVARIATE_DISTS,
    RESIDUAL_KINDS,
    CellConfig,
    DegenerateResidualError,
    gen_base_tables,
)
from .estimators import ArmSingularError, ObservedData
from .harness import (
    ESTIMATORS,
    VARIANCE_PAIRING,
    exact_checks,
    replicate_estimates,
    results_to_csv,
    results_to_json,
    run_factorial,
    statistical_checks,
)
from .inference import LeverageOneError, necessary_bound, rl2_curve, wald_ci

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

#: environment variable naming the default output directory
OUT_ENV = "RANDADJ_OUT"

_GUARD_ERRORS = (
    SingularCovariatesError,
    EnumerationTooLargeError,
    ArmSingularError,
    LeverageOneError,
    DegenerateResidualError,
    FloatingPointError,
)


class ConfigError(ValueError):
    """Bad configuration file, schema, or flag value."""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

#: keys allowed in a simulate config; excludes anything that cannot change
#: the numbers (output paths, worker counts are separate)
CONFIG_KEYS = (
    "n", "r1", "seed", "reps", "level", "alphas", "deltas", "gammas",
    "residuals", "covariate_dist", "rank_transform",
)


def default_config(full: bool = False) -> dict:
    """Desk-scale defaults; `full` switches to the large factorial."""
    return {
        "n": 1000 if full else 400,
        "r1": 0.35,
        "seed": 20250816,
        "reps": 10000 if full else 2000,
        "level": 0.05,
        "alphas": [0.02, 0.1, 0.2, 0.3, 0.4, 0.7] if full else [0.05, 0.2, 0.5],
        "deltas": [0.25, 0.75],
        "gammas": [0.5, 3.0],
        "residuals": ["worst_case", "t3"],
        "covariate_dist": "t3",
        "rank_transform": False,
    }


def load_config(path: str | None, full: bool, overrides: dict) -> dict:
    cfg = default_config(full)
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError as err:
            raise ConfigError(f"config file not found: {path}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(user) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(user)
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    _validate_config(cfg)
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _list_of(ok):
    return lambda v: isinstance(v, list) and all(ok(x) for x in v)


#: the JSON type each config key must have; values are checked, never coerced
_CONFIG_TYPES = {
    "n": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
    "reps": (_is_int, "an integer"),
    "r1": (_is_number, "a number"),
    "level": (_is_number, "a number"),
    "alphas": (_list_of(_is_number), "a list of numbers"),
    "deltas": (_list_of(_is_number), "a list of numbers"),
    "gammas": (_list_of(_is_number), "a list of numbers"),
    "residuals": (_list_of(lambda v: isinstance(v, str)), "a list of strings"),
    "covariate_dist": (lambda v: isinstance(v, str), "a string"),
    "rank_transform": (lambda v: isinstance(v, bool), "true or false"),
}


def _validate_config(cfg: dict) -> None:
    for key, (ok, what) in _CONFIG_TYPES.items():
        if not ok(cfg[key]):
            raise ConfigError(f"{key} must be {what}, got {cfg[key]!r}")
    try:
        for key in ("r1", "level"):
            cfg[key] = float(cfg[key])
        for key in ("alphas", "deltas", "gammas"):
            cfg[key] = [float(v) for v in cfg[key]]
    except OverflowError as err:
        raise ConfigError(f"malformed config value: {err}") from err
    for key in ("r1", "level", "alphas", "deltas", "gammas"):
        if not np.all(np.isfinite(cfg[key])):
            raise ConfigError(f"{key} must be finite, got {cfg[key]!r}")
    if cfg["n"] < 8:
        raise ConfigError("n must be at least 8")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']}")
    if not 0.0 < cfg["r1"] < 1.0:
        raise ConfigError("r1 must lie in (0, 1)")
    if cfg["reps"] < 2:
        raise ConfigError("reps must be at least 2")
    if not 0.0 < cfg["level"] < 1.0:
        raise ConfigError("level must lie in (0, 1)")
    if not cfg["alphas"] or not cfg["deltas"] or not cfg["gammas"] or not cfg["residuals"]:
        raise ConfigError("factor lists must be nonempty")
    for r in cfg["residuals"]:
        if r not in RESIDUAL_KINDS:
            raise ConfigError(f"unknown residual kind {r!r}")
    if cfg["covariate_dist"] not in COVARIATE_DISTS:
        raise ConfigError(f"unknown covariate distribution {cfg['covariate_dist']!r}")


def config_cells(cfg: dict) -> list[CellConfig]:
    """Expand a config into the cell grid, in canonical order."""
    cells = []
    try:
        for delta in cfg["deltas"]:
            for gamma in cfg["gammas"]:
                for alpha in cfg["alphas"]:
                    for residual in cfg["residuals"]:
                        cells.append(CellConfig(
                            n=cfg["n"], r1=cfg["r1"], alpha=alpha,
                            delta=delta, gamma=gamma, residual=residual,
                            covariate_dist=cfg["covariate_dist"],
                            rank_transform=cfg["rank_transform"],
                        ))
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return cells


def config_hash(cfg: dict) -> str:
    canon = json.dumps({k: cfg[k] for k in CONFIG_KEYS}, sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _resolve_out_dir(flag_value: str | None) -> str:
    return flag_value or os.environ.get(OUT_ENV) or "."


def cmd_simulate(args) -> int:
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    cfg = load_config(args.config, args.full, {
        "reps": args.reps, "seed": args.seed,
    })
    out_dir = _resolve_out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    cells = config_cells(cfg)
    base = gen_base_tables(cfg["n"], cfg["covariate_dist"], cfg["seed"],
                           max(cell.p for cell in cells))
    results = run_factorial(base, cells, cfg["reps"], cfg["seed"],
                            level=cfg["level"], workers=args.threads)
    csv_path = os.path.join(out_dir, "results.csv")
    results_to_csv(results, csv_path)
    results_to_json(results, os.path.join(out_dir, "results.json"))
    manifest = {
        "config": {k: cfg[k] for k in CONFIG_KEYS},
        "config_sha256": config_hash(cfg),
        "cells": len(cells),
        "versions": {
            "randadj": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "blas": BLAS,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cells)} cells x {len(ESTIMATORS)} estimators to {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _data_lines(fh, read: list[int]):
    """The lines of fh, refusing a blank one, which np.loadtxt would skip.
    read[0] counts the lines yielded: np.loadtxt pulls one at a time, so
    when it fails read[0] is the failing data row, counting every line."""
    for row, line in enumerate(fh, start=1):
        read[0] = row
        if line.isspace():
            raise ConfigError(f"blank line at data row {row}")
        yield line


def _read_observed_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        # a byte that is not UTF-8 becomes U+FFFD, which no header name or
        # number matches, so such a file exits 2 like any other bad cell
        fh = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError as err:
        raise ConfigError(f"input file not found: {path}") from err
    with fh:
        header = next(csv.reader(fh), None)
        if not header or len(header) < 3:
            raise ConfigError("input must have columns Y, Z, X_1..X_p")
        p = len(header) - 2
        expected = ["Y", "Z"] + [f"X_{j}" for j in range(1, p + 1)]
        if header != expected:
            raise ConfigError(
                f"bad header: expected {','.join(expected[:4])},... got {','.join(header[:4])},...")
        read = [0]
        try:
            with warnings.catch_warnings():
                # a header-only file warns here; the row count check below refuses it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                data = np.loadtxt(_data_lines(fh, read), delimiter=",", dtype=float, ndmin=2,
                                  comments=None, quotechar='"')
        except ConfigError:
            raise
        except ValueError as err:
            # numpy's own row number counts from 0 for a bad cell and from 1
            # for a short row, so it is dropped for read[0]
            detail = re.sub(r" at row \d+", "", str(err)).split(";")[0]
            raise ConfigError(f"malformed data at data row {read[0]}: {detail}") from err
    if data.shape[0] < 4 or data.shape[1] != p + 2:
        raise ConfigError("input needs at least 4 complete rows")
    if p >= data.shape[0]:
        raise ConfigError(f"need fewer covariates than rows: n = {data.shape[0]}, p = {p}")
    bad = ~np.isfinite(data)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise ConfigError(f"non-finite value in column {header[col]}, data row {row + 1}")
    y = data[:, 0]
    zcol = data[:, 1]
    if not np.all((zcol == 0.0) | (zcol == 1.0)):
        raise ConfigError("Z column must be 0/1")
    z = zcol.astype(bool)
    if z.sum() < 2 or (~z).sum() < 2:
        raise ConfigError("each arm needs at least 2 units")
    return y, z, data[:, 2:]


def cmd_analyze(args) -> int:
    level = args.level
    if not 0.0 < level < 1.0:
        raise ConfigError("--level must lie in (0, 1)")
    y, z, x = _read_observed_csv(args.input)
    n = y.shape[0]
    hat = build_hat_structure(x)
    asg = Assignment(z=z, n=n, n1=int(z.sum()))
    with np.errstate(over="raise", invalid="raise"):  # exit 3, not inf or nan estimates
        points, variances, na = replicate_estimates(ObservedData(y=y, assignment=asg, x=x, hat=hat))

    # a row carries `na` when its point is undefined, and `ci_na` when the
    # point is defined but its paired variance is not
    report = []
    for e in ESTIMATORS:
        vname = VARIANCE_PAIRING[e]
        if e not in points:
            report.append({"estimator": e, "na": na[e]})
        elif vname not in variances:
            report.append({"estimator": e, "point": points[e], "ci_na": na[vname]})
        else:
            lo, hi = wald_ci(points[e], variances[vname], n, level)
            report.append({"estimator": e, "point": points[e], "variance": variances[vname],
                           "ci_low": lo, "ci_high": hi, "level": level})

    for row in report:
        if "na" in row:
            print(f"{row['estimator']:>8}:  NA ({row['na']})")
        elif "ci_na" in row:
            print(f"{row['estimator']:>8}: {row['point']: .6g}  interval NA ({row['ci_na']})")
        else:
            print(f"{row['estimator']:>8}: {row['point']: .6g}  "
                  f"[{row['ci_low']: .6g}, {row['ci_high']: .6g}]")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "p": hat.p, "estimates": report}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"bad {what} list: {err}") from err
    if not values:
        raise ConfigError(f"{what} list is empty")
    return values


def cmd_curves(args) -> int:
    alphas = _parse_float_list(args.alphas, "alpha")
    gammas = _parse_float_list(args.gammas, "gamma")
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ConfigError("alpha values must lie in [0, 1]")
    if any(g < 0 for g in gammas):
        raise ConfigError("gamma values must be nonnegative")
    lines = ["alpha,gamma,rl2,necessary_r2"]
    for g in gammas:
        vals = rl2_curve(alphas, g)
        for a, v in zip(alphas, vals):
            lines.append(f"{a:.17g},{g:.17g},{v:.17g},{necessary_bound(a):.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.mode == "exact":
        outcomes = exact_checks(args.seed)
    else:
        outcomes = statistical_checks(args.seed)
    width = max(len(o.name) for o in outcomes)
    ok = True
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        print(f"{status}  {o.name:<{width}}  {o.detail}")
        ok = ok and o.passed
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'} "
          f"({sum(o.passed for o in outcomes)}/{len(outcomes)})")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randadj",
        description="Randomization-based inference with many covariates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the factorial Monte Carlo")
    sim.add_argument("--config", help="JSON config file (defaults are desk scale)")
    sim.add_argument("--reps", type=int, help="override replicate count")
    sim.add_argument("--seed", type=int, help="override master seed")
    sim.add_argument("--out", help=f"output directory (default ${OUT_ENV} or .)")
    sim.add_argument("--threads", type=int, default=1,
                     help="worker processes over cells (default 1)")
    sim.add_argument("--full", action="store_true",
                     help="paper-scale defaults (n=1000, 10000 replicates)")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="estimate from an observed-data CSV")
    ana.add_argument("--input", required=True, help="CSV with columns Y,Z,X_1..X_p")
    ana.add_argument("--level", type=float, default=0.05)
    ana.add_argument("--out", help="optional JSON report path")
    ana.set_defaults(func=cmd_analyze)

    cur = sub.add_parser("curves", help="break-even R^2 curve values")
    cur.add_argument("--alphas", required=True, help="comma-separated alpha grid")
    cur.add_argument("--gammas", required=True, help="comma-separated gamma values")
    cur.add_argument("--out", help="CSV output path (default stdout)")
    cur.set_defaults(func=cmd_curves)

    ver = sub.add_parser("verify", help="run internal verification checks")
    ver.add_argument("--mode", choices=("exact", "statistical"), default="exact")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    return parser


def _error_json(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse already printed a usage message
        code = err.code if isinstance(err.code, int) else EXIT_CONFIG
        return EXIT_CONFIG if code != 0 else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as err:
        _error_json("config", str(err))
        return EXIT_CONFIG
    except _GUARD_ERRORS as err:
        _error_json(type(err).__name__, str(err))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
