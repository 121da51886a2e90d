"""The exact design-expectation oracle against exhaustive enumeration."""

import numpy as np
import pytest

from exact_moments import dense_b, plugin_moment_means, variance_estimate_means
from randadj.design import build_hat_structure, enumerate_assignments, substream
from randadj.estimators import ScienceTable, observe
from randadj.inference import (
    estimate_variance,
    sample_cross_offdiag,
    sample_diag_quadratic,
    sample_offdiag_quadratic,
)


def _statistics(table, data) -> dict[str, float]:
    hat = table.hat
    out = {}
    for name, mat in (("H", hat.h), ("Q", hat.q), ("B", dense_b(hat))):
        hollow = mat - np.diag(np.diag(mat))
        for z in (1, 0):
            out[f"diag {name} arm {z}"] = sample_diag_quadratic(mat, data, z)
            out[f"hollow {name} arm {z}"] = sample_offdiag_quadratic(hollow, data, z)
        out[f"cross {name}"] = sample_cross_offdiag(hollow, data)
    est = estimate_variance(data)
    out["hd"] = est.hd
    out["hd_prime"] = est.hd_prime
    return out


# unequal arms on both sides of n/2, so that the r_z normalisers and the
# control-arm terms differ from the treated ones
@pytest.mark.parametrize("n, n1", [(8, 3), (9, 4), (10, 6)])
def test_oracle_matches_enumeration(n, n1):
    rng = substream(2309, n, n1)
    x = rng.standard_t(3, size=(n, 3))
    y0 = x @ rng.standard_normal(3) + rng.standard_t(3, size=n)
    y1 = 2.0 + 0.5 * y0 + rng.standard_normal(n)
    table = ScienceTable(y1=y1, y0=y0, x=x, hat=build_hat_structure(x))

    draws = [_statistics(table, observe(table, asg))
             for asg in enumerate_assignments(n, n1)]
    exact = plugin_moment_means(table, n1)
    exact["hd"], exact["hd_prime"] = variance_estimate_means(table, n1)
    assert len(exact) == 17

    for label, want in exact.items():
        values = np.array([d[label] for d in draws])
        err = abs(want - values.mean()) / abs(values.mean())
        assert err <= 1e-12, f"{label}: oracle {want!r}, enumeration {values.mean()!r}"
