"""Golden behaviour fixtures, field by field.

`golden/criterion9_results.csv` is the `results.csv` of criterion 9's
simulate config, and `golden/analyze_reports.json` holds the `analyze --out`
reports of two seeded datasets built below.  A change may move
floating-point bits but not behaviour: numeric fields must agree to
relative error 1e-12, while NA markers, text and integer fields must match
exactly.  Regenerate a fixture only for a change that is meant to alter
results, and say why in CHANGES.md.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from randadj.cli import main

GOLDEN = Path(__file__).parent / "golden" / "criterion9_results.csv"
ANALYZE_GOLDEN = Path(__file__).parent / "golden" / "analyze_reports.json"

#: the config of tests/test_acceptance.py::test_criterion_9_determinism
CONFIG = {"n": 60, "reps": 80, "seed": 20250816, "alphas": [0.1, 0.4],
          "deltas": [0.25], "gammas": [0.5], "residuals": ["t3", "worst_case"]}

INTEGER_COLUMNS = {"n", "p", "reps", "seed", "clamped_count"}
TEXT_COLUMNS = {"residual", "covariate_dist", "rank_transform", "estimator",
                "point_na", "ci_na"}
RTOL = 1e-12


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _mismatch(column, got, want):
    if column in INTEGER_COLUMNS or column in TEXT_COLUMNS or "NA" in (got, want):
        return got != want
    g, w = float(got), float(want)
    return not abs(g - w) <= RTOL * abs(w)


def test_criterion9_results_match_golden(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    got, want = _rows(out_dir / "results.csv"), _rows(GOLDEN)
    assert len(got) == len(want) == 20
    assert list(got[0]) == list(want[0])
    bad = [
        f"row {i} ({w['estimator']}) {c}: got {g[c]}, golden {w[c]}"
        for i, (g, w) in enumerate(zip(got, want))
        for c in w
        if _mismatch(c, g[c], w[c])
    ]
    assert not bad, "\n".join(bad)


#: analyze datasets as (n, p, n1, seed); the second has p >= n1, so lin is NA
ANALYZE_DATASETS = {"n60_p12": (60, 12, 24, 20250817), "lin_na": (40, 16, 14, 20250818)}


def _write_analyze_input(path, n, p, n1, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_t(3, size=(n, p))
    z = np.zeros(n, dtype=int)
    z[rng.permutation(n)[:n1]] = 1
    y = 1.0 + x @ rng.standard_normal(p) / np.sqrt(p) + 0.5 * z + rng.standard_t(3, size=n)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["Y", "Z"] + [f"X_{j}" for j in range(1, p + 1)])
        for i in range(n):
            w.writerow([f"{y[i]:.17g}", z[i]] + [f"{v:.17g}" for v in x[i]])


def _json_mismatches(got, want, where=""):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got}, "
                    f"golden {sorted(want)}"]
        return [m for k in want for m in _json_mismatches(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: got {got!r}, golden {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _json_mismatches(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        ok = isinstance(got, float) and abs(got - want) <= RTOL * abs(want)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{where}: got {got!r}, golden {want!r}"]


@pytest.mark.parametrize("name", sorted(ANALYZE_DATASETS))
def test_analyze_report_matches_golden(tmp_path, capsys, name):
    in_path, out_path = tmp_path / "obs.csv", tmp_path / "report.json"
    _write_analyze_input(in_path, *ANALYZE_DATASETS[name])
    assert main(["analyze", "--input", str(in_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    got = json.loads(out_path.read_text())
    want = json.loads(ANALYZE_GOLDEN.read_text())[name]
    bad = _json_mismatches(got, want, name)
    assert not bad, "\n".join(bad)
