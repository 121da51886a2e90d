from fractions import Fraction

import numpy as np
import pytest
from scipy.special import stdtrit

from randadj.design import build_hat_structure, substream
from randadj.dgp import (
    CellConfig,
    DegenerateResidualError,
    _open_uniform,
    _t3_quantile,
    build_cell,
    cell_key,
    gen_base_tables,
    p_for_alpha,
    sample_cauchy,
    sample_t3,
    t_residual,
    trans,
    worst_case_residual,
)
from randadj.finitepop import scale


def test_base_tables_deterministic():
    a = gen_base_tables(50, "t3", 123)
    b = gen_base_tables(50, "t3", 123)
    c = gen_base_tables(50, "t3", 124)
    np.testing.assert_array_equal(a.cal_x, b.cal_x)
    np.testing.assert_array_equal(a.beta, b.beta)
    np.testing.assert_array_equal(a.delta_vec, b.delta_vec)
    assert a.mu1 == b.mu1 and a.mu0 == b.mu0
    assert np.any(a.cal_x != c.cal_x)
    assert a.cal_x.shape == (50, 50)


@pytest.mark.parametrize("dist", ["t3", "cauchy"])
@pytest.mark.parametrize("n, p", [(8, 1), (40, 13), (50, 50), (120, 47)])
def test_base_tables_cut_to_p_equal_the_full_draw(dist, n, p):
    """Cutting the pool to p columns moves no later draw: every table is
    the full draw's, bit for bit."""
    full = gen_base_tables(n, dist, 31)
    cut = gen_base_tables(n, dist, 31, p)
    assert cut.cal_x.shape == (n, p) and cut.cal_x.flags.c_contiguous
    assert cut.cal_x.tobytes() == np.ascontiguousarray(full.cal_x[:, :p]).tobytes()
    for name in ("beta", "delta_vec"):
        assert getattr(cut, name).tobytes() == getattr(full, name).tobytes()
    assert (cut.mu1, cut.mu0) == (full.mu1, full.mu0)


@pytest.mark.parametrize("p", [0, 31])
def test_base_tables_reject_pool_width_outside_1_to_n(p):
    with pytest.raises(ValueError, match=f"p={p}"):
        gen_base_tables(30, "t3", 5, p)


def test_base_tables_distinct_draws():
    t = gen_base_tables(40, "t3", 9)
    # the five blocks come from one stream in a fixed order, no reuse
    assert abs(t.beta[0] - t.delta_vec[0]) > 1e-12
    assert abs(t.mu1 - t.mu0) > 1e-12


def test_sample_t3_quartile():
    rng = substream(81)
    draws = sample_t3(rng, 400_000)
    # t3 upper quartile is 0.76489; 4 quantile-SEs here is about 0.011
    assert np.quantile(draws, 0.75) == pytest.approx(0.7648923284043453, abs=0.012)
    assert np.quantile(draws, 0.25) == pytest.approx(-0.7648923284043453, abs=0.012)
    assert np.median(draws) == pytest.approx(0.0, abs=0.01)


#: (u, 40-digit t3 quantile at the double u): roots, in 80-digit mpmath, of
#: the exact CDF 1/2 + (theta + sin theta cos theta) / pi, theta = arctan(t / sqrt 3)
T3_REFERENCE = [
    (0.5 * 2.0**-53, "-270823.8069996585672379062735031126492295"),
    (1.5 * 2.0**-53, "-187778.7399424553394406886289954528821969"),
    (0.25, "-0.7648923284043452806575452223324014640295"),
    (0.75, "0.7648923284043452806575452223324014640295"),
    # either side of where the tail solve hands over to the centre's
    (0.09, "-1.741296568646955233434955918471721824398"),
    (0.9, "1.637744353696210322185524104524245983109"),
    (1 - 2.0**-53, "214952.9980625795287665203068697953721429"),
    # scipy's stdtrit is 2.2e-11 and 9.0e-12 off at these two
    (0.5 + 2.0**-20, "0.000002594660803180119611446457579230705847292"),
    (0.5 - 2.0**-19, "-0.00000518932160638352981394785160456616306125"),
]


def test_t3_quantile_matches_40_digit_roots():
    got = _t3_quantile(np.array([u for u, _ in T3_REFERENCE]))
    for q, (u, want) in zip(got, T3_REFERENCE):
        want = Fraction(want)
        assert abs(Fraction(float(q)) - want) <= Fraction(1e-15) * abs(want), u


def test_t3_quantile_on_lattice_draws():
    u = np.sort(_open_uniform(substream(90), 100_000))
    q = _t3_quantile(u)
    assert np.all(np.diff(u) > 0) and np.all(np.diff(q) > 0)
    # odd symmetry holds bit for bit wherever 1 - u is exact
    exact = 1.0 - (1.0 - u) == u
    assert exact.sum() > 40_000
    assert np.array_equal(_t3_quantile(1.0 - u[exact]), -q[exact])
    # stdtrit's own error near u = 1/2 sets this bound
    np.testing.assert_allclose(q, stdtrit(3, u), rtol=2e-11, atol=0)


class _LatticeEnds:
    """Generator stub that draws the lattice's first and last integer."""

    def integers(self, low, high, size):
        return np.array([0, 2**53 - 1])


def test_open_uniform_keeps_lattice_ends_inside_unit_interval():
    u = _open_uniform(_LatticeEnds(), 2)
    assert np.all((0.0 < u) & (u < 1.0))
    assert u[0] == 0.5 * 2.0**-53 and u[1] == 1.0 - 2.0**-53
    for sample in (sample_t3, sample_cauchy):
        assert np.all(np.isfinite(sample(_LatticeEnds(), 2)))


def test_sample_cauchy_iqr():
    rng = substream(82)
    draws = sample_cauchy(rng, 1_000_000)
    q1, q3 = np.quantile(draws, [0.25, 0.75])
    # standard Cauchy quartiles are exactly -1 and 1
    assert q3 - q1 == pytest.approx(2.0, abs=0.02)
    assert np.median(draws) == pytest.approx(0.0, abs=0.01)


def test_heavy_tail_samplers_are_finite():
    rng = substream(83)
    assert np.all(np.isfinite(sample_t3(rng, 100_000)))
    assert np.all(np.isfinite(sample_cauchy(rng, 100_000)))


def test_trans_preserves_ranks():
    rng = substream(84)
    a = rng.standard_normal(30)
    out = trans(a, substream(85))
    assert np.array_equal(np.argsort(np.argsort(a)), np.argsort(np.argsort(out)))


def test_trans_monotone_invariance():
    rng = substream(86)
    a = rng.standard_normal(25)
    first = trans(a, substream(87))
    second = trans(2.0 * a + 1.0, substream(87))
    np.testing.assert_array_equal(first, second)


def test_worst_case_residual_contract():
    rng = substream(88)
    x = rng.standard_normal((30, 3))
    hat = build_hat_structure(x)
    eps1, eps0 = worst_case_residual(hat)
    np.testing.assert_allclose(eps0, -2.0 * eps1, atol=1e-14)
    assert eps1.mean() == pytest.approx(0.0, abs=1e-12)
    # Scale normalization: mean square one with divisor n
    assert np.mean(eps1**2) == pytest.approx(1.0, rel=1e-12)


def test_worst_case_residual_degenerate_on_flat_leverages():
    # trigonometric design has exactly constant leverages, so the
    # leverage-projection direction collapses to a constant
    n = 16
    t = np.arange(n)
    x = np.column_stack([np.cos(2 * np.pi * t / n), np.sin(2 * np.pi * t / n)])
    hat = build_hat_structure(x)
    with pytest.raises(DegenerateResidualError):
        worst_case_residual(hat)


def test_t_residual_scaled_per_arm():
    eps1, eps0 = t_residual(40, "t3", substream(89))
    for eps in (eps1, eps0):
        assert eps.mean() == pytest.approx(0.0, abs=1e-12)
        assert np.mean(eps**2) == pytest.approx(1.0, rel=1e-12)
    assert np.any(eps1 != eps0)


def test_p_for_alpha_paper_grid():
    for alpha, want in ((0.02, 20), (0.1, 100), (0.2, 200), (0.3, 300), (0.4, 400), (0.7, 700)):
        assert p_for_alpha(alpha, 1000) == want
    assert p_for_alpha(0.05, 400) == 20
    assert p_for_alpha(0.5, 400) == 200


def test_cell_config_validation():
    good = dict(n=100, r1=0.35, alpha=0.2, delta=0.25, gamma=0.5, residual="t3")
    CellConfig(**good)
    for bad in (
        dict(good, r1=1.2),
        dict(good, alpha=0.0),
        dict(good, gamma=0.0),
        dict(good, delta=-0.1),
        dict(good, residual="poisson"),
        dict(good, covariate_dist="normal"),
        dict(good, alpha=0.004),  # p = 0
    ):
        with pytest.raises(ValueError):
            CellConfig(**bad)


def test_cell_key_stable_and_distinct():
    cfg = CellConfig(n=400, r1=0.35, alpha=0.2, delta=0.25, gamma=0.5, residual="t3")
    # frozen value: the key scheme is part of the reproducibility contract
    assert cell_key(cfg) == 4718125977091785822
    seen = set()
    for alpha in (0.05, 0.2, 0.5):
        for residual in ("worst_case", "t3"):
            for rank_transform in (False, True):
                key = cell_key(
                    CellConfig(
                        n=400, r1=0.35, alpha=alpha, delta=0.25, gamma=0.5,
                        residual=residual, rank_transform=rank_transform,
                    )
                )
                assert 0 <= key < 2**63
                seen.add(key)
    assert len(seen) == 12


def test_build_cell_reconstruction():
    """The outcome model is exactly mu_z + Scale(X beta_z) + eps_z / sqrt(gamma)."""
    n, seed = 60, 4242
    base = gen_base_tables(n, "t3", seed)
    cfg = CellConfig(n=n, r1=0.35, alpha=0.1, delta=0.75, gamma=3.0, residual="worst_case")
    table = build_cell(base, cfg)
    p = cfg.p
    assert p == 6
    np.testing.assert_array_equal(table.x, base.cal_x[:, :p])
    beta1 = base.beta[:p] + 0.75 * base.delta_vec[:p]
    beta0 = base.beta[:p] - 0.75 * base.delta_vec[:p]
    eps1, eps0 = worst_case_residual(table.hat)
    want1 = base.mu1 + scale(table.x @ beta1) + eps1 / np.sqrt(3.0)
    want0 = base.mu0 + scale(table.x @ beta0) + eps0 / np.sqrt(3.0)
    np.testing.assert_allclose(table.y1, want1, atol=1e-12)
    np.testing.assert_allclose(table.y0, want0, atol=1e-12)


def test_build_cell_deterministic_and_residual_keyed_to_cell():
    n = 50
    base = gen_base_tables(n, "t3", 77)
    cfg = CellConfig(n=n, r1=0.35, alpha=0.2, delta=0.25, gamma=0.5, residual="t3")
    t1 = build_cell(base, cfg)
    t2 = build_cell(base, cfg)
    np.testing.assert_array_equal(t1.y1, t2.y1)
    np.testing.assert_array_equal(t1.y0, t2.y0)
    # a different gamma keys a different residual stream, not just a rescale
    other = build_cell(base, CellConfig(n=n, r1=0.35, alpha=0.2, delta=0.25, gamma=3.0, residual="t3"))
    assert np.any(np.abs(other.y1 - t1.y1) > 1e-8)


def test_build_cell_rank_transform_path():
    n = 50
    base = gen_base_tables(n, "t3", 78)
    plain = build_cell(
        base, CellConfig(n=n, r1=0.35, alpha=0.2, delta=0.25, gamma=0.5, residual="t3")
    )
    ranked = build_cell(
        base,
        CellConfig(n=n, r1=0.35, alpha=0.2, delta=0.25, gamma=0.5, residual="t3",
                   rank_transform=True),
    )
    assert np.any(np.abs(plain.y1 - ranked.y1) > 1e-10)
    # same covariates either way; the transform only touches the signal
    np.testing.assert_array_equal(plain.x, ranked.x)


def test_build_cell_rejects_mismatched_base():
    base = gen_base_tables(30, "t3", 5)
    cfg = CellConfig(n=40, r1=0.35, alpha=0.2, delta=0.25, gamma=0.5, residual="t3")
    with pytest.raises(ValueError):
        build_cell(base, cfg)
    cfg2 = CellConfig(n=30, r1=0.35, alpha=0.2, delta=0.25, gamma=0.5,
                      residual="t3", covariate_dist="cauchy")
    with pytest.raises(ValueError):
        build_cell(base, cfg2)
    # alpha=0.2 needs p=6 columns, more than a pool cut to 5 holds
    cfg3 = CellConfig(n=30, r1=0.35, alpha=0.2, delta=0.25, gamma=0.5, residual="t3")
    with pytest.raises(ValueError, match="p=6"):
        build_cell(gen_base_tables(30, "t3", 5, 5), cfg3)
