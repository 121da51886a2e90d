"""The exact design-expectation oracle against exhaustive enumeration."""

import numpy as np
import pytest

from exact_moments import plugin_moment_means, plugin_statistics, variance_estimate_means
from randadj.design import build_hat_structure, enumerate_assignments, substream
from randadj.estimators import ScienceTable, arm_forms
from randadj.inference import block_cb


# unequal arms on both sides of n/2, so that the r_z normalisers and the
# control-arm terms differ from the treated ones
@pytest.mark.parametrize("n, n1", [(8, 3), (9, 4), (10, 6)])
def test_oracle_matches_enumeration(n, n1):
    rng = substream(2309, n, n1)
    x = rng.standard_t(3, size=(n, 3))
    y0 = x @ rng.standard_normal(3) + rng.standard_t(3, size=n)
    y1 = 2.0 + 0.5 * y0 + rng.standard_normal(n)
    table = ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))

    # every assignment as one block of the production kernel
    z = np.array([asg.z for asg in enumerate_assignments(n, n1)])
    forms = arm_forms(table.hat, np.where(z, y1, y0), z)
    draws = plugin_statistics(forms)
    est = block_cb(forms)
    draws["hd"], draws["hd_prime"] = est.hd, est.hd_prime
    exact = plugin_moment_means(table, n1)
    exact["hd"], exact["hd_prime"] = variance_estimate_means(table, n1)
    assert len(exact) == 17 and draws.keys() == exact.keys()

    for label, want in exact.items():
        mean = draws[label].mean()
        err = abs(want - mean) / abs(mean)
        assert err <= 1e-12, f"{label}: oracle {want!r}, enumeration {mean!r}"
