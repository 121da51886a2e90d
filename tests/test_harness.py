import dataclasses
import json

import numpy as np
import pytest

from randadj.design import build_hat_structure, substream
from randadj.dgp import CellConfig, build_cell, gen_base_tables
from randadj.estimators import ScienceTable
from randadj.harness import (
    CSV_COLUMNS,
    ESTIMATORS,
    VARIANCE_PAIRING,
    _fmt,
    algebraic_identity_checks,
    enumeration_check,
    enumeration_identity_checks,
    exact_checks,
    hat_invariant_checks,
    results_to_csv,
    results_to_json,
    run_cell,
    run_factorial,
    statistical_checks,
)


def _tiny_cell(alpha=0.1, n=40, residual="t3", seed=314):
    cfg = CellConfig(n=n, r1=0.35, alpha=alpha, delta=0.25, gamma=0.5, residual=residual)
    base = gen_base_tables(n, "t3", seed)
    return build_cell(base, cfg), cfg


def test_run_cell_smoke_and_determinism():
    table, cfg = _tiny_cell()
    res1 = run_cell(table, cfg, reps=60, seed=99)
    res2 = run_cell(table, cfg, reps=60, seed=99)
    for e in ESTIMATORS:
        m = res1.metrics[e]
        assert m.point_na is None
        assert m.rel_rmse > 0
        assert 0.0 <= m.coverage <= 1.0
        assert m.rel_ci_length > 0
        # bitwise reproducibility of every metric
        assert vars(res2.metrics[e]) == vars(m)
    assert res1.tau_bar == res2.tau_bar


def test_run_cell_na_isolation_when_lin_infeasible():
    # p = 20 but the treated arm only has 14 units
    table, cfg = _tiny_cell(alpha=0.5)
    res = run_cell(table, cfg, reps=40, seed=5)
    for e in ("lin", "lin_db"):
        m = res.metrics[e]
        assert m.point_na is not None and "singular" in m.point_na
        assert m.rel_rmse is None and m.coverage is None
    for e in ("unadj", "hd", "hd_undb"):
        m = res.metrics[e]
        assert m.point_na is None and m.rel_rmse > 0
        assert m.coverage is not None


def test_variance_pairing_covers_all_estimators():
    assert set(VARIANCE_PAIRING) == set(ESTIMATORS)
    assert set(VARIANCE_PAIRING.values()) == {"neyman", "cb", "hc3"}


def test_run_factorial_order_and_worker_independence(tmp_path):
    n = 36
    base = gen_base_tables(n, "t3", 11)
    cells = [
        CellConfig(n=n, r1=0.35, alpha=a, delta=0.25, gamma=0.5, residual="t3")
        for a in (0.1, 0.2)
    ]
    serial = run_factorial(base, cells, reps=30, seed=7, workers=1)
    pooled = run_factorial(base, cells, reps=30, seed=7, workers=2)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    results_to_csv(serial, p1)
    results_to_csv(pooled, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert [r.cfg.alpha for r in serial] == [0.1, 0.2]


def test_run_factorial_builds_one_hat_per_p(monkeypatch):
    from randadj import dgp
    from randadj.cli import config_cells, default_config

    calls = []

    def counting(x):
        calls.append(x.shape[1])
        return build_hat_structure(x)

    cfg = default_config(full=False)
    cells = config_cells(cfg)
    base = gen_base_tables(cfg["n"], cfg["covariate_dist"], cfg["seed"])
    monkeypatch.setattr(dgp, "build_hat_structure", counting)
    results = run_factorial(base, cells, reps=2, seed=3, workers=1)
    assert len(cells) == 24 and calls == [20, 80, 200]
    assert [r.cfg for r in results] == cells
    # a shared hat gives the bits of a cell's own
    for k in (0, 13, 23):
        own = run_cell(build_cell(base, cells[k]), cells[k], reps=2, seed=3)
        assert all(vars(own.metrics[e]) == vars(results[k].metrics[e]) for e in ESTIMATORS)


@pytest.mark.parametrize("n1", [1, 5])
def test_enumeration_check_rejects_one_unit_arm(n1):
    rng = substream(93)
    x = rng.standard_normal((6, 1))
    table = ScienceTable(y1=rng.standard_normal(6), y0=rng.standard_normal(6), x=x,
                         hat=build_hat_structure(x))
    with pytest.raises(ValueError, match=f"n1={n1}, n0={6 - n1}"):
        enumeration_check(table, n1)


def test_enumeration_check_exact_moments():
    rng = substream(91)
    x = rng.standard_normal((8, 1))
    y0 = rng.standard_normal(8)
    y1 = y0 + 1.0 + 0.3 * rng.standard_normal(8)
    table = ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))
    rep = enumeration_check(table, 4)
    assert rep.n_assignments == 70
    assert rep.mean["unadj"] == pytest.approx(table.tau_bar, abs=1e-12)
    assert rep.mean_ybar1 == pytest.approx(float(y1.mean()), abs=1e-12)
    assert rep.mean_ybar0 == pytest.approx(float(y0.mean()), abs=1e-12)
    # every estimator is feasible here and lin is exactly unbiased at p=1
    assert set(rep.mean) == set(ESTIMATORS)
    assert np.isfinite(rep.mean_cb_variance)


def test_enumeration_check_marks_lin_infeasible():
    rng = substream(92)
    x = rng.standard_normal((8, 5))
    table = ScienceTable(
        y1=rng.standard_normal(8), y0=rng.standard_normal(8), x=x,
        hat=build_hat_structure(x),
    )
    rep = enumeration_check(table, 4)
    assert "lin" not in rep.mean and "lin_db" not in rep.mean
    assert "unadj" in rep.mean and "hd" in rep.mean


def test_csv_schema_and_formatting(tmp_path):
    table, cfg = _tiny_cell()
    res = run_cell(table, cfg, reps=20, seed=3)
    path = tmp_path / "out.csv"
    results_to_csv([res], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(CSV_COLUMNS) == 34
    assert len(lines) == 1 + len(ESTIMATORS)
    # byte-stable on rewrite
    again = tmp_path / "again.csv"
    results_to_csv([res], again)
    assert path.read_bytes() == again.read_bytes()


def test_fmt_scalar_conventions():
    assert _fmt(None) == "NA"
    assert _fmt(True) == "true"
    assert _fmt(False) == "false"
    assert _fmt(7) == "7"
    assert _fmt(0.1) == "0.10000000000000001"
    assert float(_fmt(1.0 / 3.0)) == 1.0 / 3.0


def test_results_json_round_trip(tmp_path):
    table, cfg = _tiny_cell(alpha=0.5)  # includes NA estimators
    res = run_cell(table, cfg, reps=20, seed=3)
    path = tmp_path / "out.json"
    results_to_json([res], path)
    payload = json.loads(path.read_text())
    assert len(payload) == 1
    rec = payload[0]
    assert rec["cell"]["alpha"] == 0.5
    assert set(rec["estimators"]) == set(ESTIMATORS)
    assert rec["estimators"]["lin"]["rel_rmse"] is None
    assert rec["estimators"]["hd"]["coverage"] is not None


def test_hat_invariant_checks_pass_and_catch_corruption():
    rng = substream(93)
    hat = build_hat_structure(rng.standard_normal((25, 3)))
    outcomes = hat_invariant_checks(hat)
    assert all(o.passed for o in outcomes)
    names = [o.name for o in outcomes]
    assert "q-definition" in names and "b-diagonal-closed-form" in names
    bad_q = hat.q.copy()
    bad_q[0, 0] += 1e-3
    corrupted = dataclasses.replace(hat, q=bad_q)
    bad_outcomes = {o.name: o.passed for o in hat_invariant_checks(corrupted)}
    assert bad_outcomes["q-definition"] is False
    assert bad_outcomes["hat-idempotent"] is True


def test_identity_check_registries_all_green():
    assert all(o.passed for o in exact_checks(seed=1))
    assert all(o.passed for o in algebraic_identity_checks(seed=2, instances=4))
    assert all(o.passed for o in enumeration_identity_checks(seed=3, tables=2))


def test_statistical_checks_green():
    outcomes = statistical_checks(seed=0)
    assert outcomes, "no statistical checks ran"
    for o in outcomes:
        assert o.passed, f"{o.name}: {o.detail}"
