import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import randadj
from randadj.cli import config_hash, default_config, load_config, main
from randadj.design import Assignment, build_hat_structure, substream
from randadj.estimators import ObservedData, lin_fit, tau_lin, tau_lin_db
from randadj.harness import CheckOutcome


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _write_observed(path, n=30, p=2, n1=12, seed=17):
    rng = substream(seed)
    x = rng.standard_normal((n, p))
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:n1]] = 1
    y = 1.0 + x @ rng.standard_normal(p) + 0.5 * z + 0.1 * rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["Y", "Z"] + [f"X_{j}" for j in range(1, p + 1)])
        for i in range(n):
            w.writerow([f"{y[i]:.17g}", z[i]] + [f"{v:.17g}" for v in x[i]])
    return y, z.astype(bool), x


def test_curves_values(capsys, tmp_path):
    code, out, _ = _run(capsys, ["curves", "--alphas", "0,0.1,1", "--gammas", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,gamma,rl2,necessary_r2"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    rl2 = [float(r[2]) for r in rows]
    assert rl2 == pytest.approx([0.0, 0.325, 1.0], abs=1e-12)
    nec = [float(r[3]) for r in rows]
    assert nec == pytest.approx([0.0, 0.21 / 1.2, 1.0], abs=1e-12)

    out_path = tmp_path / "curves.csv"
    code, _, _ = _run(capsys, ["curves", "--alphas", "0.1", "--gammas", "0,2",
                               "--out", str(out_path)])
    assert code == 0
    body = out_path.read_text().strip().splitlines()
    assert len(body) == 3  # header + one row per gamma
    gamma0 = body[1].split(",")
    assert float(gamma0[2]) == pytest.approx(0.21 / 1.2, abs=1e-12)


def test_curves_rejects_bad_grid(capsys):
    code, _, err = _run(capsys, ["curves", "--alphas", "1.5", "--gammas", "2"])
    assert code == 2
    assert json.loads(err)["error"] == "config"


TINY_CONFIG = {
    "n": 40, "reps": 30, "seed": 12, "alphas": [0.1],
    "deltas": [0.25], "gammas": [0.5], "residuals": ["t3"],
}


def _simulate_into(capsys, tmp_path, name, extra=()):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out_dir = tmp_path / name
    code, _, _ = _run(capsys, ["simulate", "--config", str(cfg_path),
                               "--out", str(out_dir), *extra])
    assert code == 0
    return out_dir


def test_simulate_outputs_and_reproducibility(capsys, tmp_path):
    d1 = _simulate_into(capsys, tmp_path, "run1")
    for name in ("results.csv", "results.json", "manifest.json"):
        assert (d1 / name).exists()
    d2 = _simulate_into(capsys, tmp_path, "run2")
    assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
    assert (d1 / "results.json").read_bytes() == (d2 / "results.json").read_bytes()

    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["cells"] == 1
    cfg = load_config(str(tmp_path / "cfg.json"), full=False, overrides={})
    assert manifest["config_sha256"] == config_hash(cfg)
    assert manifest["config"]["n"] == 40
    assert set(manifest["versions"]) == {"randadj", "numpy", "scipy", "python"}
    # the package import pins every loaded OpenBLAS (numpy and scipy wheels
    # each bundle one)
    assert manifest["blas"]
    for lib in manifest["blas"]:
        assert "openblas" in lib["path"].lower() and lib["config"].startswith("OpenBLAS")
        assert lib["threads"] == 1 and lib["pinned"] is True

    rows = (d1 / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 5  # header + one row per estimator


def test_simulate_thread_count_does_not_change_bytes(capsys, tmp_path):
    d1 = _simulate_into(capsys, tmp_path, "t1", ("--threads", "1"))
    d2 = _simulate_into(capsys, tmp_path, "t2", ("--threads", "2"))
    assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # n=1000 products reach OpenBLAS's threaded paths, which n=60 (criterion
    # 9) never does; run B also covers the pool workers
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 1000, "reps": 6, "seed": 7, "alphas": [0.1, 0.3], "deltas": [0.25],
        "gammas": [3.0], "residuals": ["t3", "worst_case"]}))
    src = os.path.dirname(os.path.dirname(randadj.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"blas{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "randadj.cli", "simulate", "--config", str(cfg_path),
             "--out", str(out_dir), "--threads", threads],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out_dir / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_simulate_out_env_fallback(capsys, tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("RANDADJ_OUT", str(env_dir))
    code, _, _ = _run(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 0
    assert (env_dir / "results.csv").exists()


def test_simulate_rejects_unknown_config_key(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 40, "typo_key": 1}))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 2
    msg = json.loads(err)
    assert msg["error"] == "config" and "typo_key" in msg["message"]


def test_simulate_rejects_malformed_json(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{not json")
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path)])
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_default_config_scales():
    desk = default_config(full=False)
    assert desk["n"] == 400 and desk["reps"] == 2000
    assert desk["alphas"] == [0.05, 0.2, 0.5]
    full = default_config(full=True)
    assert full["n"] == 1000 and full["reps"] == 10000
    assert full["alphas"] == [0.02, 0.1, 0.2, 0.3, 0.4, 0.7]
    for cfg in (desk, full):
        assert cfg["r1"] == 0.35
        assert cfg["deltas"] == [0.25, 0.75]
        assert cfg["gammas"] == [0.5, 3.0]
        assert set(cfg["residuals"]) == {"worst_case", "t3"}


def test_analyze_report_and_unadj_oracle(capsys, tmp_path):
    in_path = tmp_path / "obs.csv"
    y, z, _ = _write_observed(in_path)
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["analyze", "--input", str(in_path),
                                 "--out", str(out_path)])
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["n"] == 30 and report["p"] == 2
    rows = {r["estimator"]: r for r in report["estimates"]}
    assert set(rows) == {"unadj", "hd", "hd_undb", "lin", "lin_db"}
    unadj = rows["unadj"]
    assert unadj["point"] == pytest.approx(y[z].mean() - y[~z].mean(), abs=1e-12)
    for r in rows.values():
        assert r["ci_low"] < r["point"] < r["ci_high"]
        assert r["variance"] > 0
    assert "unadj" in out  # console table printed too


def test_analyze_lin_na_when_arm_too_small(capsys, tmp_path):
    in_path = tmp_path / "obs.csv"
    _write_observed(in_path, n=12, p=6, n1=5, seed=23)
    out_path = tmp_path / "report.json"
    code, _, _ = _run(capsys, ["analyze", "--input", str(in_path),
                               "--out", str(out_path)])
    assert code == 0
    rows = {r["estimator"]: r for r in json.loads(out_path.read_text())["estimates"]}
    assert "singular" in rows["lin"]["na"]
    assert "na" in rows["lin_db"]
    assert rows["hd"]["ci_low"] < rows["hd"]["ci_high"]


def test_analyze_rejects_bad_header(capsys, tmp_path):
    in_path = tmp_path / "obs.csv"
    in_path.write_text("Y,W,X_1\n1,0,2\n2,1,3\n3,0,4\n4,1,5\n")
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path)])
    assert code == 2
    assert "header" in json.loads(err)["message"]


def test_analyze_rejects_nonbinary_z(capsys, tmp_path):
    in_path = tmp_path / "obs.csv"
    in_path.write_text("Y,Z,X_1\n1,0,2\n2,2,3\n3,0,4\n4,1,5\n")
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path)])
    assert code == 2
    assert "0/1" in json.loads(err)["message"]


def test_analyze_guard_exit_on_collinear_covariates(capsys, tmp_path):
    in_path = tmp_path / "obs.csv"
    rng = substream(5)
    with open(in_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["Y", "Z", "X_1", "X_2"])
        for i in range(10):
            v = rng.standard_normal()
            w.writerow([f"{rng.standard_normal():.17g}", i % 2,
                        f"{v:.17g}", f"{v:.17g}"])
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path)])
    assert code == 3
    assert json.loads(err)["error"] == "SingularCovariatesError"


def test_verify_modes_pass(capsys):
    code, out, _ = _run(capsys, ["verify", "--mode", "exact"])
    assert code == 0
    assert "all checks passed" in out
    code, out, _ = _run(capsys, ["verify", "--mode", "statistical", "--seed", "0"])
    assert code == 0
    assert "all checks passed" in out


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import randadj.cli as cli_mod

    def broken(seed):
        return [CheckOutcome("planted-failure", False, "injected")]

    monkeypatch.setattr(cli_mod, "exact_checks", broken)
    code, out, _ = _run(capsys, ["verify", "--mode", "exact"])
    assert code == 4
    assert "FAIL" in out and "planted-failure" in out


def test_usage_errors_exit_2(capsys):
    assert _run(capsys, ["simulate", "--bogus-flag"])[0] == 2
    assert _run(capsys, [])[0] == 2
    assert _run(capsys, ["no-such-command"])[0] == 2


def test_console_script_runs():
    exe = shutil.which("randadj")
    cmd = [exe] if exe else [sys.executable, "-m", "randadj.cli"]
    proc = subprocess.run(cmd + ["curves", "--alphas", "0.1", "--gammas", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "alpha,gamma,rl2,necessary_r2"
    assert "0.325" in proc.stdout


@pytest.mark.parametrize("cell, column", [("nan", "X_1"), ("nan", "Y"), ("inf", "X_1"),
                                          ("-inf", "Y")])
def test_analyze_rejects_non_finite_cells(capsys, tmp_path, cell, column):
    rows = [["0.5", "1", "2"], ["1.5", "1", "1"], ["2", "1", "0.5"],
            ["1", "0", "1"], ["2", "0", "0"], ["0", "0", "3"]]
    rows[3][0 if column == "Y" else 2] = cell
    in_path = tmp_path / "obs.csv"
    in_path.write_text("Y,Z,X_1\n" + "".join(",".join(r) + "\n" for r in rows))
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path)])
    assert code == 2
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "config"
    assert f"column {column}" in msg["message"] and "row 4" in msg["message"]


#: six data rows, n1 = n0 = 3, for the CSV contract cases below
_ROWS = ["0.5,1,2", "1.5,1,1", "2,1,0.5", "1,0,1", "2,0,0", "0,0,3"]


def _csv_text(rows, newline="\n"):
    return newline.join(["Y,Z,X_1"] + rows) + newline


@pytest.mark.parametrize("text, words", [
    (_csv_text(_ROWS[:2] + ["abc,1,0.5"] + _ROWS[3:]), "data row 3"),
    (_csv_text(_ROWS[:2] + [",1,0.5"] + _ROWS[3:]), "data row 3"),
    (_csv_text(_ROWS[:2] + ["2,1"] + _ROWS[3:]), "data row 3"),
    (_csv_text(_ROWS[:2] + ["2,1,0.5,"] + _ROWS[3:]), "data row 3"),
    (_csv_text(_ROWS[:2] + [""] + _ROWS[2:]), "blank line at data row 3"),
    (_csv_text(_ROWS[:2] + ["  "] + _ROWS[2:]), "blank line at data row 3"),
    (_csv_text(_ROWS) + "\n", "blank line at data row 7"),
    ("Y,Z,X_1\n", ""),
    (_csv_text(_ROWS[:2] + ["2,1,0#5"] + _ROWS[3:]), "data row 3"),
    (_csv_text(["1_0,1,2"] + _ROWS[1:]), "data row 1"),
    # "\udcff" is written as the byte 0xff, which is not UTF-8
    (_csv_text(_ROWS).replace("X_1", "X_\udcff1"), ""),
    (_csv_text(_ROWS[:2] + ["2,1,0.\udcff5"] + _ROWS[3:]), "data row 3"),
], ids=["non-numeric", "empty-cell", "short-row", "trailing-comma", "blank-line",
        "whitespace-line", "blank-last-line", "header-only", "hash-in-cell", "underscore",
        "bad-utf8-header", "bad-utf8-cell"])
def test_analyze_rejects_malformed_rows(capsys, tmp_path, recwarn, text, words):
    in_path = tmp_path / "obs.csv"
    in_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path)])
    assert code == 2
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "config" and words in msg["message"]
    assert not recwarn.list


def test_analyze_reads_quoted_cells_and_crlf(capsys, tmp_path):
    quoted = [",".join(f'"{v}"' for v in row.split(",")) for row in _ROWS]
    reports = []
    for k, text in enumerate((_csv_text(_ROWS), _csv_text(quoted, "\r\n"))):
        in_path, out_path = tmp_path / f"obs{k}.csv", tmp_path / f"report{k}.json"
        in_path.write_bytes(text.encode())
        code, _, _ = _run(capsys, ["analyze", "--input", str(in_path), "--out", str(out_path)])
        assert code == 0
        reports.append(json.loads(out_path.read_text()))
    assert reports[0] == reports[1]
    assert reports[0]["n"] == 6 and reports[0]["p"] == 1


def test_analyze_failed_covariate_cholesky_exits_3(capsys, tmp_path, monkeypatch):
    """A Gram that passes the eigenvalue check but fails LAPACK's Cholesky
    (simulated: no such input is known) is a singular-covariates guard."""
    import randadj.design as design

    real = design.dpotrf
    monkeypatch.setattr(design, "dpotrf", lambda a, lower=0: (real(a, lower=lower)[0], 2))
    in_path = tmp_path / "obs.csv"
    _write_observed(in_path)
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path)])
    assert code == 3
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "SingularCovariatesError" and "2-th leading minor" in msg["message"]


@pytest.mark.parametrize("level", ["1.5", "0", "nan"])
def test_analyze_rejects_bad_level(capsys, tmp_path, level):
    in_path = tmp_path / "obs.csv"
    _write_observed(in_path)
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path), "--level", level])
    assert code == 2
    assert "level" in json.loads(err)["message"]


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_simulate_rejects_bad_thread_count(capsys, tmp_path, threads):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "out"), "--threads", threads])
    assert code == 2
    assert "threads" in json.loads(err)["message"]
    assert not (tmp_path / "out").exists()


def test_analyze_hc3_failure_keeps_lin_points(capsys, tmp_path):
    """HC3 only backs the interval: when it fails, lin/lin_db keep their points."""
    # the hand instance of test_hc3_leverage_one_error_names_unit: treated
    # pooled-centered covariates are (1, 0), so unit 0 has HC3 leverage 1
    x = np.array([[2.0], [1.0], [1.0], [0.0]])
    z = np.array([True, True, False, False])
    y = np.where(z, [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 2.0])
    in_path = tmp_path / "obs.csv"
    in_path.write_text("Y,Z,X_1\n" + "".join(
        f"{y[i]:.17g},{int(z[i])},{x[i, 0]:.17g}\n" for i in range(4)))
    out_path = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["analyze", "--input", str(in_path), "--out", str(out_path)])
    assert code == 0
    rows = {r["estimator"]: r for r in json.loads(out_path.read_text())["estimates"]}

    data = ObservedData(y=y, assignment=Assignment(z=z, n=4, n1=2), x=x,
                        hat=build_hat_structure(x))
    fit = lin_fit(data)
    want = {"lin": tau_lin(data, fit), "lin_db": tau_lin_db(data, fit)}
    for e, point in want.items():
        assert set(rows[e]) == {"estimator", "point", "ci_na"}
        assert rows[e]["point"] == pytest.approx(point, rel=1e-12, abs=1e-12)
        assert "unit 0" in rows[e]["ci_na"]
    for e in ("unadj", "hd", "hd_undb"):
        assert set(rows[e]) == {"estimator", "point", "variance", "ci_low", "ci_high", "level"}
    assert "interval NA" in out


def test_analyze_singular_arm_gram_gives_na_rows(capsys, tmp_path):
    """A singular arm Gram leaves lin/lin_db undefined: `na` rows, not `ci_na`."""
    # both treated units share X_1 = 1, so the treated arm-centered Gram is zero
    in_path = tmp_path / "obs.csv"
    in_path.write_text("Y,Z,X_1\n0.5,1,1\n1.5,1,1\n1,0,0\n2,0,2\n")
    out_path = tmp_path / "report.json"
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path), "--out", str(out_path)])
    assert code == 0 and err == ""
    rows = {r["estimator"]: r for r in json.loads(out_path.read_text())["estimates"]}
    for e in ("lin", "lin_db"):
        assert set(rows[e]) == {"estimator", "na"}
        assert rows[e]["na"].startswith("arm 1 regression is singular")
    for e in ("unadj", "hd", "hd_undb"):
        assert "ci_low" in rows[e]


@pytest.mark.parametrize("p", [4, 5])
def test_analyze_rejects_p_not_below_n(capsys, tmp_path, p):
    header = ",".join(["Y", "Z"] + [f"X_{j}" for j in range(1, p + 1)])
    rows = [f"{y},{z}," + ",".join(str(i * p + j) for j in range(p))
            for i, (y, z) in enumerate([(1.5, 1), (0.5, 1), (2.0, 0), (1.0, 0)])]
    in_path = tmp_path / "obs.csv"
    in_path.write_text("\n".join([header] + rows) + "\n")
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path)])
    assert code == 2
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "config"
    assert "n = 4" in msg["message"] and f"p = {p}" in msg["message"]


@pytest.mark.parametrize("where", ["flag", "config"])
def test_simulate_rejects_negative_seed(capsys, tmp_path, where):
    cfg_path = tmp_path / "cfg.json"
    cfg = dict(TINY_CONFIG, seed=-3) if where == "config" else TINY_CONFIG
    cfg_path.write_text(json.dumps(cfg))
    extra = ["--seed", "-1"] if where == "flag" else []
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "out"), *extra])
    assert code == 2
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "config" and "seed" in msg["message"]
    assert not (tmp_path / "out").exists()


def test_verify_rejects_negative_seed(capsys):
    code, out, err = _run(capsys, ["verify", "--seed", "-1"])
    assert code == 2
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "config" and "seed" in msg["message"]
    assert out == ""


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5),
    ("seed", True),
    ("n", 40.9),
    ("reps", 2.7),
    ("r1", "0.35"),
    ("level", False),
    ("alphas", 0.1),
    ("deltas", [0.25, "0.75"]),
    ("gammas", [True]),
    ("residuals", "t3"),
    ("covariate_dist", ["t3"]),
    ("rank_transform", "false"),
    ("rank_transform", 0),
])
def test_simulate_rejects_config_value_of_wrong_type(capsys, tmp_path, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, **{key: value})))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "config" and msg["message"].startswith(f"{key} must be")
    assert not (tmp_path / "out").exists()


def test_config_numbers_accept_json_integers(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, gammas=[2], deltas=[1])))
    cfg = load_config(str(cfg_path), False, {})
    assert cfg["gammas"] == [2.0] and isinstance(cfg["gammas"][0], float)
    assert cfg["deltas"] == [1.0] and isinstance(cfg["deltas"][0], float)


def test_simulate_rejects_integer_too_large_for_a_float(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, alphas=[10**400])))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "out")])
    assert code == 2
    msg = json.loads(err)
    assert msg["error"] == "config" and "too large" in msg["message"]


@pytest.mark.parametrize("key, value", [
    ("deltas", [float("nan")]),
    ("deltas", [float("inf")]),
    ("gammas", [float("nan")]),
    ("alphas", [0.1, float("-inf")]),
    ("r1", float("nan")),
    ("level", float("inf")),
])
def test_simulate_rejects_non_finite_config_numbers(capsys, tmp_path, key, value):
    # json writes these as NaN / Infinity, which Python's json reads back
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, **{key: value})))
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "config" and msg["message"].startswith(f"{key} must be finite")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("key, value", [
    ("deltas", [1e308]),
    ("deltas", [1e306]),
    ("gammas", [1e-320]),
    ("gammas", [1e-300]),
])
def test_simulate_overflowing_table_exits_3(capsys, tmp_path, key, value, threads):
    """A finite config whose table or moments overflow fails, and writes no
    inf or nan metrics."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(TINY_CONFIG, alphas=[0.1, 0.2], **{key: value})))
    out_dir = tmp_path / "out"
    code, _, err = _run(capsys, ["simulate", "--config", str(cfg_path),
                                 "--out", str(out_dir), "--threads", threads])
    assert code == 3
    assert len(err.splitlines()) == 1
    msg = json.loads(err)
    assert msg["error"] == "FloatingPointError" and "overflow" in msg["message"]
    assert not (out_dir / "results.csv").exists()


def test_analyze_outcomes_too_large_for_their_moments_exit_3(capsys, tmp_path):
    in_path = tmp_path / "obs.csv"
    y, z, x = _write_observed(in_path)
    with open(in_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["Y", "Z", "X_1", "X_2"])
        for i in range(len(y)):
            w.writerow([f"{1e160 * y[i]:.17g}", int(z[i])] + [f"{v:.17g}" for v in x[i]])
    out_path = tmp_path / "report.json"
    code, _, err = _run(capsys, ["analyze", "--input", str(in_path), "--out", str(out_path)])
    assert code == 3
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "FloatingPointError"
    assert not out_path.exists()
