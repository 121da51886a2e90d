"""The benchmark's workloads: inputs, entry-point calls, checks and replays.

Each workload makes its inputs from the seed, calls the program through a
public entry point, and checks the outputs with `checks`. In the traced run
it also replays each call through the layers' public functions. The replay
mirrors the call sequence of `harness.run_cell`, `harness.enumeration_check`
and `cli.cmd_analyze` as they stand; its values must agree with the entry
point's outputs, so the spans describe the code path that was timed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from randadj import cli, design, dgp, estimators, harness, inference

import checks
from spans import clock

LEVEL = 0.05

#: replicates per cell in a simulate call
DESK_REPS = 20
FULL_REPS = 12

#: the 24-cell desk grid (n=400) and four n=1000 cells on both sides of
#: lin's n_z > p boundary (n1 = 350: p = 300 fits, p = 400 does not)
DESK_CONFIG = {
    "n": 400, "r1": 0.35, "level": LEVEL, "alphas": [0.05, 0.2, 0.5],
    "deltas": [0.25, 0.75], "gammas": [0.5, 3.0], "residuals": ["worst_case", "t3"],
    "covariate_dist": "t3", "rank_transform": False,
}
FULL_CONFIG = {
    "n": 1000, "r1": 0.35, "level": LEVEL, "alphas": [0.3, 0.4],
    "deltas": [0.25], "gammas": [3.0], "residuals": ["worst_case", "t3"],
    "covariate_dist": "t3", "rank_transform": False,
}

#: analyze datasets (n, p, n1): p/n of 0.1 to 0.5; lin is NA at p/n = 0.5.
#: A round makes an odd number of calls of different cost, so the median
#: call is the middle dataset's median rather than the mean of two extremes;
#: the middle one (n=2000, p=600) takes over a second, long enough to
#: average over this host's speed swings.
ANALYZE_SHAPES = ((1000, 100, 500), (2000, 600, 1000), (2000, 1000, 900))

#: enumeration tables (n, n1, p): 70 to 924 assignments each, an odd count
ENUM_SHAPES = ((8, 4, 1), (9, 4, 2), (10, 5, 2), (11, 5, 2), (12, 6, 3))


def _quiet(argv: list[str]) -> int:
    """cli.main with the program's own stdout discarded."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


def _write_observed_csv(path: str, y, z, x) -> None:
    header = ",".join(["Y", "Z"] + [f"X_{j}" for j in range(1, x.shape[1] + 1)])
    np.savetxt(path, np.column_stack([y, z.astype(float), x]), fmt="%.10g",
               delimiter=",", header=header, comments="")


def _read_observed_csv(path: str):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return data[:, 0], data[:, 1] == 1.0, data[:, 2:]


def _random_table(rng: np.random.Generator, n: int, p: int, heavy: bool):
    """Covariates, then potential outcomes linear in them plus noise."""
    x = rng.standard_t(3, (n, p)) if heavy else rng.standard_normal((n, p))
    noise = rng.standard_t(3, n) if heavy else rng.standard_normal(n)
    y0 = x @ rng.standard_normal(p) / math.sqrt(p) + noise
    y1 = y0 + 0.5 + x @ rng.standard_normal(p) / (2.0 * math.sqrt(p)) + 0.5 * rng.standard_normal(n)
    return x, y1, y0


def warmup(name: str, workdir: str) -> None:
    """One call of the workload's entry point on a small input.

    The input is small but as wide as the workload's, so that the first
    timed call does not pay for first-use costs at that size (BLAS thread
    start-up, memory growth): one n=400 desk cell with 4 replicates, or one
    n=300, p=30 dataset.
    """
    os.makedirs(workdir, exist_ok=True)
    if name in ("desk-mc", "full-mc"):
        path = os.path.join(workdir, "warmup.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(DESK_CONFIG, alphas=[0.2], deltas=[0.25], gammas=[3.0],
                           residuals=["t3"], reps=4, seed=1), fh)
        code = _quiet(["simulate", "--config", path, "--out", os.path.join(workdir, "warmup")])
    elif name == "analyze-wide":
        rng = np.random.default_rng(0)
        x, y1, y0 = _random_table(rng, 300, 30, heavy=True)
        z = np.arange(300) % 2 == 0
        path = os.path.join(workdir, "warmup.csv")
        _write_observed_csv(path, np.where(z, y1, y0), z, x)
        code = _quiet(["analyze", "--input", path])
    elif name == "enumerate-exact":
        x, y1, y0 = _random_table(np.random.default_rng(0), 6, 1, heavy=False)
        table = estimators.ScienceTable(y1=y1, y0=y0, x=x, hat=design.build_hat_structure(x))
        harness.enumeration_check(table, 3)
        code = 0
    else:
        raise ValueError(f"unknown workload {name!r}")
    if code != 0:
        raise RuntimeError(f"warm-up call for {name} exited with {code}")


# ---------------------------------------------------------------------------
# the replayed per-assignment sequence (harness.replicate_estimates)
# ---------------------------------------------------------------------------

def _adj_db(data):
    adj = estimators.tau_adj(data)
    return adj, adj + estimators.debias_correction(data)


def _lin(data):
    fit = estimators.lin_fit(data)
    return fit, estimators.tau_lin(data, fit), estimators.tau_lin_db(data, fit)


def replicate(tracer, data, parent) -> tuple[dict, dict]:
    """Point estimates and paired variances for one assignment, one span
    per layer call. Failed entries are absent from the returned dicts."""
    points = {"unadj": tracer.call("estimators.tau_unadj", parent, estimators.tau_unadj, data)}
    points["hd_undb"], points["hd"] = tracer.call("estimators.adj_db", parent, _adj_db, data)
    variances = {"neyman": tracer.call("inference.neyman_variance_unadj", parent,
                                       inference.neyman_variance_unadj, data)}
    est = tracer.call("inference.estimate_variance", parent, inference.estimate_variance, data)
    variances["cb"] = est.combined
    tracer.count("inference.cb_clamped.count", est.clamped)
    tracer.count("inference.cb_hd_prime.count", est.source == "hd_prime")
    try:
        fit, points["lin"], points["lin_db"] = tracer.call("estimators.lin", parent, _lin, data)
    except estimators.ArmSingularError:
        return points, variances
    try:
        variances["hc3"] = tracer.call("inference.hc3_variance", parent,
                                       inference.hc3_variance, data, fit)
    except (estimators.ArmSingularError, inference.LeverageOneError):
        tracer.count("inference.hc3_na.count")
    return points, variances


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Call:
    """One entry-point call: `run` is timed; `collect` turns its result into
    the output the checks read, untimed."""

    span: str
    ops: int
    run: Callable
    collect: Callable


class Simulate:
    """`randadj simulate` on a fixed grid; an operation is one replicate."""

    def __init__(self, seed: int, workdir: str, config: dict, reps: int, full: bool):
        self.seed, self.reps, self.config = seed, reps, dict(config, seed=seed, reps=reps)
        self.out = os.path.join(workdir, "simulate")
        cfg_path = os.path.join(workdir, "simulate.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh)
        self.argv = (["simulate", "--config", cfg_path, "--out", self.out]
                     + (["--full"] if full else []))
        c = self.config
        self.cells = [
            dgp.CellConfig(n=c["n"], r1=c["r1"], alpha=a, delta=d, gamma=g, residual=r,
                           covariate_dist=c["covariate_dist"], rank_transform=c["rank_transform"])
            for d in c["deltas"] for g in c["gammas"] for a in c["alphas"] for r in c["residuals"]
        ]
        self._specs = None

    def calls(self) -> list[Call]:
        return [Call("cli.simulate", len(self.cells) * self.reps,
                     lambda: _quiet(self.argv), self._collect)]

    def _collect(self, code):
        if code != 0:
            raise RuntimeError(f"simulate exited with {code}")
        with open(os.path.join(self.out, "results.csv"), encoding="utf-8") as fh:
            return fh.read()

    @staticmethod
    def _cell_id(cfg) -> tuple:
        return (cfg.n, cfg.r1, cfg.alpha, cfg.delta, cfg.gamma, cfg.residual,
                cfg.covariate_dist, cfg.rank_transform)

    def _draw(self, n, n1, key, rep):
        return design.complete_randomization(
            n, n1, design.substream(self.seed, key, dgp._PURPOSE_ASSIGN, rep))

    def specs(self) -> dict:
        """Each cell's table and replicate assignments, for the checks."""
        if self._specs is None:
            base = dgp.gen_base_tables(self.config["n"], self.config["covariate_dist"], self.seed)
            self._specs = {}
            for cfg in self.cells:
                table = dgp.build_cell(base, cfg)
                key = dgp.cell_key(cfg)
                z = np.array([self._draw(cfg.n, cfg.n1, key, rep).z for rep in range(self.reps)])
                self._specs[self._cell_id(cfg)] = {
                    "y1": table.y1, "y0": table.y0, "n": cfg.n, "n1": cfg.n1, "p": cfg.p, "z": z}
        return self._specs

    def check(self, outputs: list) -> list[str]:
        fails = []
        for text in {text for _, text in outputs}:
            fails += checks.check_simulate(list(csv.DictReader(text.splitlines())),
                                           self.specs(), LEVEL)
        return fails

    def _replay_cell(self, tracer, table, cfg, parent):
        n, n1, reps = cfg.n, cfg.n1, self.reps
        key = dgp.cell_key(cfg)
        ov = tracer.call("inference.oracle_variances", parent,
                         inference.oracle_variances, table, n1 / n)
        points = {e: np.full(reps, np.nan) for e in checks.ESTIMATORS}
        variances = {v: np.full(reps, np.nan) for v in ("neyman", "cb", "hc3")}
        for rep in range(reps):
            asg = tracer.call("design.complete_randomization", parent, self._draw, n, n1, key, rep)
            data = tracer.call("estimators.observe", parent, estimators.observe, table, asg)
            pts, var = replicate(tracer, data, parent)
            for e, v in pts.items():
                points[e][rep] = v
            for e, v in var.items():
                variances[e][rep] = v
        return checks.cell_metrics(points, variances, table.tau_bar, ov.sigma_cre2,
                                   ov.sigma_hd2, n, LEVEL)

    def replay(self, index: int, output: str, tracer, entry: int) -> list[str]:
        rows = checks.group_cells(list(csv.DictReader(output.splitlines())))
        c = self.config
        base = tracer.call("dgp.gen_base_tables", entry, dgp.gen_base_tables,
                           c["n"], c["covariate_dist"], self.seed)
        results, fails = [], []
        for cfg in self.cells:
            sid = tracer.open("dgp.build_cell", entry)
            table = dgp.build_cell(base, cfg)
            tracer.close(sid)
            tracer.call("design.build_hat_structure", sid, design.build_hat_structure, table.x)
            sid = tracer.open("harness.run_cell", entry)
            results.append(harness.run_cell(table, cfg, self.reps, self.seed, LEVEL))
            tracer.close(sid)
            want = tracer.replay(self._replay_cell, table, cfg, sid)
            cid = self._cell_id(cfg)
            if cid not in rows:
                fails.append(f"cell {cid} missing from results.csv")
                continue
            fails += checks.compare_metrics(f"replay of cell {cid}", rows[cid], want, 1e-9)
        sid = tracer.open("harness.results_write", entry)
        harness.results_to_csv(results, os.path.join(self.out, "replay.csv"))
        harness.results_to_json(results, os.path.join(self.out, "replay.json"))
        tracer.close(sid)
        return fails


class Analyze:
    """`randadj analyze` on generated CSV datasets; an operation is one dataset."""

    def __init__(self, seed: int, workdir: str):
        self.paths = []
        for k, (n, p, n1) in enumerate(ANALYZE_SHAPES):
            rng = np.random.default_rng([seed, k])
            x, y1, y0 = _random_table(rng, n, p, heavy=True)
            z = np.zeros(n, dtype=bool)
            z[rng.permutation(n)[:n1]] = True
            path = os.path.join(workdir, f"analyze-{k}.csv")
            _write_observed_csv(path, np.where(z, y1, y0), z, x)
            self.paths.append(path)
        self._inputs = {}

    def _report(self, k):
        return self.paths[k][:-4] + ".json"

    def calls(self) -> list[Call]:
        return [Call("cli.analyze", 1,
                     lambda k=k: _quiet(["analyze", "--input", self.paths[k],
                                         "--out", self._report(k)]),
                     lambda code, k=k: self._collect(code, k))
                for k in range(len(self.paths))]

    def _collect(self, code, k):
        if code != 0:
            raise RuntimeError(f"analyze exited with {code}")
        with open(self._report(k), encoding="utf-8") as fh:
            return json.load(fh)

    def inputs(self, k):
        if k not in self._inputs:
            self._inputs[k] = _read_observed_csv(self.paths[k])
        return self._inputs[k]

    def check(self, outputs: list) -> list[str]:
        fails = []
        distinct = {(k, json.dumps(report, sort_keys=True)) for k, report in outputs}
        for k, text in sorted(distinct):
            y, z, x = self.inputs(k)
            fails += [f"dataset {k}: {f}"
                      for f in checks.check_analyze(json.loads(text), y, z, x, LEVEL)]
        return fails

    @staticmethod
    def _replay_calls(tracer, y, z, x, parent):
        hat = tracer.call("design.build_hat_structure", parent, design.build_hat_structure, x)
        asg = design.Assignment(z=z, n=len(y), n1=int(z.sum()))
        data = estimators.ObservedData(y=y, assignment=asg, x=x, hat=hat)
        return replicate(tracer, data, parent)

    def replay(self, k: int, report: dict, tracer, entry: int) -> list[str]:
        points, variances = tracer.replay(self._replay_calls, *self.inputs(k), entry)
        pairing = {"unadj": "neyman", "hd": "cb", "hd_undb": "cb", "lin": "hc3", "lin_db": "hc3"}
        fails = []
        for row in report["estimates"]:
            e = row["estimator"]
            replayed = (points.get(e), variances.get(pairing[e]))
            if "na" in row:
                if None not in replayed:
                    fails.append(f"dataset {k}: {e} is NA but its replay is not")
                continue
            for got, want in zip((row["point"], row["variance"]), replayed):
                if want is None or not checks.close(got, want, 1e-9, 1e-12):
                    fails.append(f"dataset {k}: {e} report {got} != replay {want}")
        return fails


class Enumerate:
    """`harness.enumeration_check` over small random tables; an operation is
    one assignment evaluated."""

    def __init__(self, seed: int, workdir: str):
        self.tables = []
        for k, (n, n1, p) in enumerate(ENUM_SHAPES):
            x, y1, y0 = _random_table(np.random.default_rng([seed, k]), n, p, heavy=False)
            hat = design.build_hat_structure(x)
            self.tables.append((estimators.ScienceTable(y1=y1, y0=y0, x=x, hat=hat), n1))

    def calls(self) -> list[Call]:
        return [Call("harness.enumeration_check", math.comb(t.hat.n, n1),
                     lambda t=t, n1=n1: harness.enumeration_check(t, n1), lambda report: report)
                for t, n1 in self.tables]

    def check(self, outputs: list) -> list[str]:
        fails = []
        for k, report in outputs:
            table, n1 = self.tables[k]
            fails += checks.check_enumeration(report, table.y1, table.y0, n1)
        return fails

    @staticmethod
    def _replay_calls(tracer, table, n1, parent):
        values = {e: [] for e in checks.ESTIMATORS}
        ybar1, ybar0, cb = [], [], []
        assignments = design.enumerate_assignments(table.hat.n, n1)
        while True:
            start = clock()
            asg = next(assignments, None)
            end = clock()
            if asg is None:
                break
            tracer.add("design.enumerate_assignments", parent, start, end)
            data = tracer.call("estimators.observe", parent, estimators.observe, table, asg)
            points, variances = replicate(tracer, data, parent)
            for e in checks.ESTIMATORS:
                values[e].append(points.get(e, math.nan))
            ybar1.append(float(data.y[asg.z].mean()))
            ybar0.append(float(data.y[~asg.z].mean()))
            cb.append(variances["cb"])
        return values, ybar1, ybar0, cb

    def replay(self, k: int, report, tracer, entry: int) -> list[str]:
        table, n1 = self.tables[k]
        values, ybar1, ybar0, cb = tracer.replay(self._replay_calls, table, n1, entry)
        pairs = [("n_assignments", report.n_assignments, len(ybar1)),
                 ("mean_ybar1", report.mean_ybar1, float(np.mean(ybar1))),
                 ("mean_ybar0", report.mean_ybar0, float(np.mean(ybar0))),
                 ("mean_cb_variance", report.mean_cb_variance, float(np.mean(cb)))]
        for e, vals in values.items():
            vals = np.asarray(vals)
            if not np.isnan(vals).any():
                pairs += [(f"mean {e}", report.mean.get(e), float(vals.mean())),
                          (f"variance {e}", report.variance.get(e), float(vals.var()))]
            elif e in report.mean:
                pairs.append((f"mean {e}", report.mean[e], None))
        return [f"table {k}: {label} report {got} != replay {want}"
                for label, got, want in pairs
                if got is None or want is None or not checks.close(got, want, 1e-9, 1e-12)]


def make(name: str, seed: int, workdir: str):
    """The workload object for `name`, with its inputs made from `seed`."""
    if name == "desk-mc":
        return Simulate(seed, workdir, DESK_CONFIG, DESK_REPS, full=False)
    if name == "full-mc":
        return Simulate(seed, workdir, FULL_CONFIG, FULL_REPS, full=True)
    if name == "analyze-wide":
        return Analyze(seed, workdir)
    if name == "enumerate-exact":
        return Enumerate(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
