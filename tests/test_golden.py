"""Golden behaviour fixture: criterion 9's simulate config, field by field.

`golden/criterion9_results.csv` is the `results.csv` of the config below.
A change may move floating-point bits but not behaviour: numeric fields
must agree to relative error 1e-12, while NA markers, text and integer
fields must match exactly.  Regenerate the fixture only for a change that
is meant to alter results, and say why in CHANGES.md.
"""

import csv
import json
from pathlib import Path

from randadj.cli import main

GOLDEN = Path(__file__).parent / "golden" / "criterion9_results.csv"

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
