"""The replicate-batched kernel against its one-assignment views.

harness.block_estimates evaluates unadj, hd_undb, hd, Neyman and cb for a
block of assignments from one product of all its rows with H (and one with
Q), and lin, lin_db and HC3 from each row's arm fits; the per-assignment
functions are its blocks of one.  These tests check that batching changes
nothing beyond rounding, and the lin rows nothing at all.
"""

import math

import numpy as np
import pytest

from randadj import harness
from randadj.design import (
    Assignment,
    build_hat_structure,
    complete_randomization,
    enumerate_assignments,
    substream,
)
from randadj.dgp import CellConfig, build_cell, gen_base_tables
from randadj.estimators import (
    ArmSingularError,
    ScienceTable,
    arm_forms,
    debias_correction,
    lin_fit,
    observe,
    tau_adj,
    tau_lin,
    tau_lin_db,
    tau_unadj,
)
from randadj.harness import (
    ESTIMATORS,
    block_estimates,
    enumeration_check,
    replicate_estimates,
    run_cell,
)
from randadj.inference import (
    LeverageOneError,
    block_cb,
    estimate_variance,
    hc3_variance,
    neyman_variance_unadj,
)
from test_inference import CLAMP_TREATED, CLAMP_X, CLAMP_Y0, CLAMP_Y1

REL = 1e-12

#: (n, n1, p) of the enumeration tables in bench/workloads.py
ENUM_SHAPES = ((8, 4, 1), (9, 4, 2), (10, 5, 2), (11, 5, 2), (12, 6, 3))


def _close(got, want, scale=1.0):
    return abs(got - want) <= REL * max(abs(want), scale)


def _table(rng, n, p):
    x = rng.standard_t(3, (n, p))
    y0 = x @ rng.standard_normal(p) / math.sqrt(p) + rng.standard_normal(n)
    y1 = y0 + 0.5 + 0.5 * rng.standard_normal(n)
    return ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))


def _block(table, assignments):
    """The assignments' ArmForms, and block_estimates' values and NA reasons."""
    z = np.array([asg.z for asg in assignments])
    forms = arm_forms(table.hat, np.where(z, table.y1, table.y0), z)
    return (forms, *block_estimates(forms))


# (n, p, n1): 2-unit arms on either side, lin NA (n_z <= p), p near n
@pytest.mark.parametrize("n, p, n1", [
    (8, 1, 2), (9, 2, 7), (30, 4, 12), (40, 20, 14), (60, 45, 30), (200, 30, 70),
])
def test_block_matches_assignment_views(n, p, n1):
    rng = substream(8101, n, p, n1)
    table = _table(rng, n, p)
    assignments = [complete_randomization(n, n1, rng) for _ in range(13)]
    forms, block, _ = _block(table, assignments)
    cb = block_cb(forms)
    scale = float(np.abs(np.concatenate((table.y1, table.y0))).max())
    for r, asg in enumerate(assignments):
        data = observe(table, asg)
        points, variances, na = replicate_estimates(data)
        for e in ("unadj", "hd_undb", "hd"):
            assert _close(block[e][r], points[e], scale), (e, r)
        for v in ("neyman", "cb", "cb_clamped"):
            assert _close(block[v][r], variances[v], scale**2), (v, r)
        assert ("lin" in na) == (min(n1, n - n1) <= p)
        assert _close(block["unadj"][r], tau_unadj(data), scale)
        assert _close(block["hd_undb"][r], tau_adj(data), scale)
        assert _close(block["hd"][r], tau_adj(data) + debias_correction(data), scale)
        assert _close(block["neyman"][r], neyman_variance_unadj(data), scale**2)
        est = estimate_variance(data)
        for field in ("i1", "i2", "i3_upper", "i3_upper_prime", "i4", "hd", "hd_prime", "combined"):
            assert _close(getattr(cb, field)[r], getattr(est, field), scale**2), (field, r)
        assert cb.source[r] == est.source and cb.clamped[r] == est.clamped
        try:
            fit = lin_fit(data)
        except ArmSingularError:
            assert all(np.isnan(block[v][r]) for v in ("lin", "lin_db", "hc3")), r
            continue
        assert block["lin"][r] == tau_lin(data, fit), r
        assert block["lin_db"][r] == tau_lin_db(data, fit), r
        try:
            assert block["hc3"][r] == hc3_variance(data, fit), r
        except LeverageOneError:
            assert np.isnan(block["hc3"][r]), r


def test_block_counts_clamped_replicates():
    # the instance of test_inference.py where both cb variants go negative
    x = np.array(CLAMP_X)[:, None]
    table = ScienceTable(y1=np.array(CLAMP_Y1), y0=np.array(CLAMP_Y0), x=x,
                         hat=build_hat_structure(x))
    assignments = list(enumerate_assignments(8, 4))
    _, block, _ = _block(table, assignments)
    clamped = [estimate_variance(observe(table, asg)).clamped for asg in assignments]
    assert block["cb_clamped"].tolist() == [float(c) for c in clamped]
    treated = [k for k, asg in enumerate(assignments)
               if np.flatnonzero(asg.z).tolist() == CLAMP_TREATED]
    assert block["cb_clamped"][treated[0]] == 1.0
    assert block["cb"][treated[0]] == 0.0


def test_block_lin_rows_on_hand_instance():
    """The 6 assignments of the hand instance of
    test_inference.py::test_hc3_leverage_one_error_names_unit (n1 = 2) mix
    two kinds of NA row: where lin is defined a leverage is 1, so HC3 alone
    is NA; with treated {0, 3} or {1, 2} an arm's Gram is singular."""
    x = np.array([[2.0], [1.0], [1.0], [0.0]])
    table = ScienceTable(y1=np.array([1.0, 2.0, 0.0, 0.0]), y0=np.array([0.0, 0.0, 1.0, 2.0]),
                         x=x, hat=build_hat_structure(x))
    assignments = list(enumerate_assignments(4, 2))
    treated = [tuple(np.flatnonzero(asg.z)) for asg in assignments]
    _, block, na = _block(table, assignments)
    singular = [t in ((0, 3), (1, 2)) for t in treated]
    assert np.isnan(block["lin"]).tolist() == singular
    assert np.isnan(block["lin_db"]).tolist() == singular
    assert np.isnan(block["hc3"]).all()
    for r, asg in enumerate(assignments):
        if not singular[r]:
            data = observe(table, asg)
            assert block["lin"][r] == tau_lin(data)
            assert block["lin_db"][r] == tau_lin_db(data)
    assert "unit 0 in arm 1" in na["hc3"]
    assert "arm 0 regression is singular" in na["lin"] and na["lin_db"] == na["lin"]
    assert set(na) == {"lin", "lin_db", "hc3"}


def test_one_unit_arm_views():
    # the difference in means is defined with one treated unit; tau_adj is not
    table = _table(substream(8102), 8, 1)
    z = np.zeros(8, dtype=bool)
    z[3] = True
    data = observe(table, Assignment(z=z, n=8, n1=1))
    assert tau_unadj(data) == pytest.approx(table.y1[3] - np.delete(table.y0, 3).mean(), rel=1e-14)
    with pytest.raises(ArmSingularError, match="arm 1"):
        tau_adj(data)


@pytest.mark.parametrize("alpha", [0.1, 0.5])
def test_run_cell_does_not_depend_on_block_size(monkeypatch, alpha):
    # n=40 with 11 replicates: blocks of 4, 4 and 3 against one block of 11;
    # lin is NA at alpha=0.5 (p = 20 > n1 = 14)
    cfg = CellConfig(n=40, r1=0.35, alpha=alpha, delta=0.25, gamma=0.5, residual="t3")
    table = build_cell(gen_base_tables(40, "t3", 8103), cfg)
    whole = run_cell(table, cfg, reps=11, seed=5)
    monkeypatch.setattr(harness, "_BLOCK_ENTRIES", 4 * 40)
    split = run_cell(table, cfg, reps=11, seed=5)
    assert split.clamped_count == whole.clamped_count
    for e in ESTIMATORS:
        got, want = vars(split.metrics[e]), vars(whole.metrics[e])
        for key, value in want.items():
            if isinstance(value, float):
                assert _close(got[key], value), (e, key)
            else:
                assert got[key] == value, (e, key)


def _loop_report(table, n1):
    """enumeration_check's moments from one replicate_estimates call per
    assignment."""
    draws = {e: [] for e in ESTIMATORS}
    ybar1, ybar0, cb = [], [], []
    for asg in enumerate_assignments(table.hat.n, n1):
        data = observe(table, asg)
        points, variances, _ = replicate_estimates(data)
        for e in ESTIMATORS:
            draws[e].append(points.get(e, np.nan))
        ybar1.append(data.y[asg.z].mean())
        ybar0.append(data.y[~asg.z].mean())
        cb.append(variances["cb"])
    return draws, ybar1, ybar0, cb


@pytest.mark.parametrize("n, n1, p", ENUM_SHAPES)
@pytest.mark.parametrize("rows", [None, 64])
def test_enumeration_check_matches_assignment_loop(monkeypatch, n, n1, p, rows):
    if rows is not None:  # several blocks, the last one short
        monkeypatch.setattr(harness, "_BLOCK_ENTRIES", rows * n)
    table = _table(substream(8104, n, n1, p), n, p)
    report = enumeration_check(table, n1)
    draws, ybar1, ybar0, cb = _loop_report(table, n1)
    assert report.n_assignments == math.comb(n, n1) == len(cb)
    assert _close(report.mean_ybar1, np.mean(ybar1))
    assert _close(report.mean_ybar0, np.mean(ybar0))
    assert _close(report.mean_cb_variance, np.mean(cb))
    for e in ESTIMATORS:
        vals = np.asarray(draws[e])
        if np.isnan(vals).any():
            assert e not in report.mean and e not in report.variance
        else:
            assert _close(report.mean[e], vals.mean()), e
            assert _close(report.variance[e], vals.var()), e
