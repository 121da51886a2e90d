"""Tests of the benchmark's own checks.

Each independent computation is compared with a hand-worked instance, and
each output check must pass on the program's output and fail on a
corrupted copy of it. Run with `python3 -m pytest bench/tests`.
"""

import copy
import csv
import io
import json
import math
import os

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from randadj import design, estimators, harness

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# x = 0..3 (centered -1.5, -0.5, 0.5, 1.5; sum of squares 5), units 0 and 2 treated
HAND_X = np.array([[0.0], [1.0], [2.0], [3.0]])
HAND_Z = np.array([True, False, True, False])
HAND_Y = np.array([1.0, 2.0, 3.0, 6.0])

# x = 0..5 (centered sum of squares 17.5), even units treated; treated y lies
# off the line 1 + 2x at x = 2, control y = 3 - x exactly
LIN_X = np.arange(6.0)[:, None]
LIN_Z = np.array([True, False] * 3)
LIN_Y = np.array([1.0, 2.0, 6.0, 0.0, 9.0, -2.0])


def _observed(y, z, x):
    asg = design.Assignment(z=z, n=len(y), n1=int(z.sum()))
    return estimators.ObservedData(y=y, assignment=asg, x=x, hat=design.build_hat_structure(x))


def test_plain_moments_by_hand():
    y = np.arange(1.0, 7.0)
    z = np.array([True] * 3 + [False] * 3)
    assert checks.diff_in_means(y, z) == pytest.approx(-3.0)
    # S2 of each arm is 1, r1 = 1/2
    assert checks.neyman_variance(y, z) == pytest.approx(4.0)
    # S2(y1) = S2(y1 - y0) = 5/3, S2(y0) = 0
    assert checks.sigma_cre2([1.0, 2, 3, 4], [0.0, 0, 0, 0], 0.5) == pytest.approx(5.0 / 3.0)
    assert checks.z_crit(0.05) == pytest.approx(1.959963984540054)


def test_pooled_adjustment_by_hand():
    assert checks.pooled_leverages(HAND_X) == pytest.approx([0.45, 0.05, 0.05, 0.45])
    # beta1 = 3 * 2/5 = 1.2, beta0 = 3 * 4/5 = 2.4
    # hd_undb = (2 + 0.5 * 1.2) - (4 - 0.5 * 2.4) = -0.2
    # correction = 1/4 * (-0.4/(2/4) - 0.8/(2/4)) = -0.6
    hd_undb, hd = checks.pooled_adjusted(HAND_Y, HAND_Z, HAND_X)
    assert hd_undb == pytest.approx(-0.2)
    assert hd == pytest.approx(-0.8)
    data = _observed(HAND_Y, HAND_Z, HAND_X)
    assert estimators.tau_adj(data) == pytest.approx(hd_undb)
    assert estimators.tau_db(data) == pytest.approx(hd)


def test_lin_by_hand():
    # treated fit 16/3 + 2(x - 2), control fit 3 - x: at the pooled mean 2.5
    # they give 19/3 and 1/2. Treated residuals -1/3, 2/3, -1/3 at leverages
    # 6.25, 0.25, 2.25 (/17.5) sum to -8/52.5; correction (3/9) of that.
    lin, lin_db = checks.lin_interacted(LIN_Y, LIN_Z, LIN_X)
    assert lin == pytest.approx(35.0 / 6.0)
    assert lin_db == pytest.approx(35.0 / 6.0 - 8.0 / 52.5 / 3.0)
    data = _observed(LIN_Y, LIN_Z, LIN_X)
    assert estimators.tau_lin(data) == pytest.approx(lin)
    assert estimators.tau_lin_db(data) == pytest.approx(lin_db)


def test_cell_metrics_by_hand():
    # errors of +-1 around tau_bar = 0 with sigma_cre2/n = 1: rmse 1 with no
    # spread; z * sqrt(v/n) = 1.96 * 1 covers every replicate
    points = {e: np.array([1.0, -1.0, 1.0, -1.0]) for e in checks.ESTIMATORS}
    points["lin"] = np.array([1.0, np.nan, 1.0, 1.0])
    var = {"neyman": np.full(4, 4.0), "cb": np.full(4, 1.0), "hc3": np.full(4, 4.0)}
    m = checks.cell_metrics(points, var, 0.0, 4.0, 16.0, 4, 0.05)
    assert m["unadj"]["rel_rmse"] == pytest.approx(1.0)
    assert m["unadj"]["rel_rmse_se"] == 0.0
    assert m["unadj"]["rel_bias"] == 0.0
    assert m["unadj"]["rel_bias_se"] == pytest.approx(2.0 / math.sqrt(3.0) / 2.0 / 2.0)
    assert m["unadj"]["coverage"] == 1.0
    assert m["unadj"]["rel_ci_length"] == 1.0
    # cb half-width 1.96 * sqrt(1/4) = 0.98 < 1 covers nothing, at half the length
    assert m["hd"]["coverage"] == 0.0
    assert m["hd"]["rel_ci_length"] == pytest.approx(0.5)
    assert all(v is None for v in m["lin"].values())


# ---------------------------------------------------------------------------
# output checks against corrupted outputs
# ---------------------------------------------------------------------------

TINY_GRID = dict(workloads.DESK_CONFIG, n=40, alphas=[0.1, 0.6], deltas=[0.25],
                 gammas=[3.0], residuals=["worst_case", "t3"])


@pytest.fixture(scope="module")
def simulate_run(tmp_path_factory):
    sim = workloads.Simulate(3, str(tmp_path_factory.mktemp("sim")), TINY_GRID, 30, full=False)
    call = sim.calls()[0]
    return sim, call.collect(call.run())


def _corrupt(text, estimator, field, fn, first_only=True):
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        if row["estimator"] == estimator:
            row[field] = fn(row[field])
            if first_only:
                break
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def test_simulate_check_passes_on_program_output(simulate_run):
    sim, text = simulate_run
    assert sim.check([(0, text)]) == []


@pytest.mark.parametrize("estimator,field,fn,needle", [
    ("unadj", "rel_rmse", lambda v: repr(1.1 * float(v)), "rel_rmse"),
    ("unadj", "coverage", lambda v: repr(float(v) - 1.0 / 30), "coverage"),
    ("unadj", "tau_bar", lambda v: repr(float(v) + 1e-6), "tau_bar"),
    ("hd", "sigma_cre2", lambda v: repr(1.01 * float(v)), "sigma_cre2"),
    ("unadj", "rel_ci_length", lambda v: "1.001", "rel_ci_length"),
    ("hd", "coverage", lambda v: "1.2", "outside [0, 1]"),
    ("lin", "point_na", lambda v: "arm 1 regression is singular", "point NA"),
    ("estimator", "estimator", None, None),
])
def test_simulate_check_fails_on_corruption(simulate_run, estimator, field, fn, needle):
    sim, text = simulate_run
    if fn is None:  # drop the first cell's lin_db row
        lines = text.splitlines(keepends=True)
        bad = "".join(lines[:5] + lines[6:])
        needle = "estimator rows"
    else:
        bad = _corrupt(text, estimator, field, fn)
    fails = sim.check([(0, bad)])
    assert any(needle in f for f in fails), fails


def test_pooled_rmse_check_fails_on_inflated_rmse(simulate_run):
    sim, text = simulate_run
    bad = _corrupt(text, "unadj", "rel_rmse", lambda v: repr(3.0 * float(v)), first_only=False)
    bad = _corrupt(bad, "unadj", "rel_rmse_se", lambda v: repr(0.01), first_only=False)
    assert any("pooled" in f for f in sim.check([(0, bad)]))


def test_replay_comparison_fails_on_perturbed_metric(simulate_run):
    sim, text = simulate_run
    rows = checks.group_cells(list(csv.DictReader(io.StringIO(text))))
    cid, cell_rows = next(iter(rows.items()))
    want = {r["estimator"]: {f: checks.parse_field(r[f]) for f in checks.METRIC_FIELDS}
            for r in cell_rows}
    assert checks.compare_metrics("cell", cell_rows, want, 1e-9) == []
    want["hd"]["rel_bias"] *= 1 + 1e-8
    assert checks.compare_metrics("cell", cell_rows, want, 1e-9)


@pytest.fixture(scope="module")
def analyze_run(tmp_path_factory):
    rng = np.random.default_rng(5)
    x, y1, y0 = workloads._random_table(rng, 60, 6, heavy=True)
    z = np.zeros(60, dtype=bool)
    z[rng.permutation(60)[:25]] = True
    path = str(tmp_path_factory.mktemp("ana") / "d.csv")
    workloads._write_observed_csv(path, np.where(z, y1, y0), z, x)
    out = path[:-4] + ".json"
    assert workloads._quiet(["analyze", "--input", path, "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        report = json.load(fh)
    return report, workloads._read_observed_csv(path)


def _edit(report, estimator, fn):
    bad = copy.deepcopy(report)
    for row in bad["estimates"]:
        if row["estimator"] == estimator:
            fn(row)
    return bad


def test_analyze_check_passes_on_program_output(analyze_run):
    report, (y, z, x) = analyze_run
    assert checks.check_analyze(report, y, z, x, 0.05) == []


def _flip_debias(report):
    undb = next(r["point"] for r in report["estimates"] if r["estimator"] == "hd_undb")

    def flip(row):
        row["point"] = undb - (row["point"] - undb)
    return flip


@pytest.mark.parametrize("estimator,edit,needle", [
    ("hd", None, "hd point"),
    ("unadj", lambda r: r.update(point=r["point"] + 1e-6), "unadj point"),
    ("hd_undb", lambda r: r.update(point=r["point"] * 1.001), "hd_undb point"),
    ("lin", lambda r: r.update(point=r["point"] + 1e-5), "lin point"),
    ("lin_db", lambda r: r.update(point=r["point"] - 1e-5), "lin_db point"),
    ("unadj", lambda r: r.update(variance=r["variance"] * 1.01), "Neyman"),
    ("hd", lambda r: r.update(ci_high=r["ci_high"] + 1e-6), "ci_high"),
    ("lin", lambda r: r.update(variance=-1.0), "finite and >= 0"),
    ("lin", lambda r: (r.clear(), r.update(estimator="lin", na="singular")), "lin NA"),
])
def test_analyze_check_fails_on_corruption(analyze_run, estimator, edit, needle):
    report, (y, z, x) = analyze_run
    bad = _edit(report, estimator, edit or _flip_debias(report))
    fails = checks.check_analyze(bad, y, z, x, 0.05)
    assert any(needle in f for f in fails), fails


@pytest.fixture(scope="module")
def enumeration_run():
    x, y1, y0 = workloads._random_table(np.random.default_rng(2), 8, 2, heavy=False)
    table = estimators.ScienceTable(y1=y1, y0=y0, x=x, hat=design.build_hat_structure(x))
    return harness.enumeration_check(table, 3), y1, y0


def test_enumeration_check_by_hand():
    # n=4, n1=2, y1 = (0, 0, 4, 8), y0 = 0: the six treated pairs give
    # differences in means 0, 2, 4, 2, 4, 6, with mean 3 = tau_bar and
    # variance 22/6 = S2(y1)/4 = sigma_cre2/n
    y1, y0 = np.array([0.0, 0.0, 4.0, 8.0]), np.zeros(4)
    report = harness.EnumerationReport(
        n_assignments=6, mean={"unadj": 3.0}, variance={"unadj": 22.0 / 6.0},
        mean_ybar1=3.0, mean_ybar0=0.0, mean_cb_variance=0.0)
    assert checks.sigma_cre2(y1, y0, 0.5) / 4 == pytest.approx(22.0 / 6.0)
    assert checks.check_enumeration(report, y1, y0, 2) == []


@pytest.mark.parametrize("field,edit,needle", [
    ("mean", lambda r: r.mean.update(unadj=r.mean["unadj"] + 1e-8), "mean unadj"),
    ("variance", lambda r: r.variance.update(unadj=r.variance["unadj"] * 1.001), "variance unadj"),
    ("ybar", lambda r: setattr(r, "mean_ybar0", r.mean_ybar0 + 1e-8), "mean ybar0"),
    ("count", lambda r: setattr(r, "n_assignments", r.n_assignments - 1), "n_assignments"),
])
def test_enumeration_check_fails_on_corruption(enumeration_run, field, edit, needle):
    report, y1, y0 = enumeration_run
    assert checks.check_enumeration(report, y1, y0, 3) == []
    bad = copy.deepcopy(report)
    edit(bad)
    fails = checks.check_enumeration(bad, y1, y0, 3)
    assert any(needle in f for f in fails), fails


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        spans.per_layer_metrics()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        ("setup_s", "s"), ("ops_per_s", "op/s"), ("call_p50_s", "s"), ("peak_rss_mb", "MB")]
