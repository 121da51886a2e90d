"""Exact design expectations of the plug-in moment forms (a test oracle).

Potential outcomes and covariates are fixed; only the completely randomized
assignment of n1 of the n units is random.  Each plug-in statistic that
randadj.inference.block_cb combines (plugin_statistics reads them from the
same hat forms) is then a polynomial of degree at most 4 in the assignment
indicators, and its mean follows from the joint inclusion probabilities

    P(a named units treated, b other named units control)
        = n1^(a) n0^(b) / n^(a+b),

with x^(k) the falling factorial.  The arm means inside the statistics are
handled by conditioning on the arms of the one or two named units: the rest
of each arm is then a simple random sample of the remaining units, and the
first two moments of its outcome sum come from the same probabilities, with
the coincident indices of the double sum split off by inclusion-exclusion.
Every mean costs O(n^2) time and O(n) memory beyond the weight matrix.

The module imports nothing from randadj.inference, so it is an independent
reference for the statistics combined there.
"""

from __future__ import annotations

import math

import numpy as np

#: rows of a weight matrix handled at once by _hollow_sum
_BLOCK = 256


def inclusion(n1: int, n0: int, a: int, b: int = 0) -> float:
    """Probability that a given distinct units are all treated and b further
    given units are all control, when n1 of n1 + n0 units are treated."""
    def falling(x, k):
        return math.prod(x - t for t in range(k))
    return falling(n1, a) * falling(n0, b) / falling(n1 + n0, a + b)


def _centered_product(a, b, named_sum, rest_sum, rest_sq, k, m, m_other):
    """E[(a - ybar)(b - ybar)] for ybar the mean of an arm of m units that
    holds k named units, whose outcomes sum to named_sum, plus a simple
    random sample of m - k of the other units; those units' outcomes sum to
    rest_sum and their squares to rest_sq, and m_other of them are outside
    the arm.  a and b are outcomes of named units.
    """
    p1 = inclusion(m - k, m_other, 1)
    p2 = inclusion(m - k, m_other, 2)
    # E[R] and E[R^2] for R the sample's outcome sum; sum_{k != l} y_k y_l
    # is (sum y)^2 - sum y^2
    er = p1 * rest_sum
    er2 = p1 * rest_sq + p2 * (rest_sum**2 - rest_sq)
    mean = (named_sum + er) / m
    mean_sq = (named_sum**2 + 2.0 * named_sum * er + er2) / m**2
    return a * b - (a + b) * mean + mean_sq


def _hollow_sum(w, pair) -> float:
    """sum_{i != j} w_ij pair(i, j), evaluating pair on index grids one block
    of rows at a time so that no n x n temporary is formed."""
    n = w.shape[0]
    cols = np.arange(n)
    total = 0.0
    for start in range(0, n, _BLOCK):
        rows = cols[start:start + _BLOCK]
        blk = w[rows] * pair(rows[:, None], cols[None, :])
        blk[rows - start, rows] = 0.0
        total += float(blk.sum())
    return total


def _centered(y) -> np.ndarray:
    # every form centres outcomes at an arm mean, so shifting y changes
    # nothing; centring it first keeps the moment algebra well conditioned
    y = np.asarray(y, dtype=float)
    return y - y.mean()


def diag_quadratic_mean(d, y, m: int) -> float:
    """E[ m^-1 sum_{i in arm} d_i (y_i - ybar_arm)^2 ] for an arm of m units."""
    y = _centered(y)
    n = y.shape[0]
    g = _centered_product(y, y, y, -y, y @ y - y**2, 1, m, n - m)
    return inclusion(m, n - m, 1) * float(np.asarray(d, dtype=float) @ g) / m


def offdiag_quadratic_mean(w, y, m: int) -> float:
    """E[ (r n_z)^-1 sum_{i != j in arm} w_ij u_i u_j ] for an arm of n_z = m
    units, r = m / n and u = y - ybar_arm.  Diagonal entries of w never
    contribute."""
    y = _centered(y)
    n = y.shape[0]
    ss = y @ y

    def pair(i, j):
        a, b = y[i], y[j]
        return _centered_product(a, b, a + b, -(a + b), ss - a**2 - b**2,
                                 2, m, n - m)

    return inclusion(m, n - m, 2) * _hollow_sum(np.asarray(w, dtype=float), pair) / (m * m / n)


def cross_offdiag_mean(w, y1, y0, n1: int) -> float:
    """E[ (n r1 r0)^-1 sum_{i treated, j control} w_ij u1_i u0_j ] with
    u1 = y1 - ybar_treated and u0 = y0 - ybar_control."""
    y1 = _centered(y1)
    y0 = _centered(y0)
    n = y1.shape[0]
    n0 = n - n1
    s10 = y1 @ y0
    # given i treated and j control, each other unit is treated with
    # probability p1 and control with p0; p10 is for one treated and
    # another control, and no unit is in both arms
    p1 = inclusion(n1 - 1, n0 - 1, 1, 0)
    p0 = inclusion(n1 - 1, n0 - 1, 0, 1)
    p10 = inclusion(n1 - 1, n0 - 1, 1, 1)

    def pair(i, j):
        a, b = y1[i], y0[j]
        rest1 = -(y1[i] + y1[j])
        rest0 = -(y0[i] + y0[j])
        rest10 = s10 - y1[i] * y0[i] - y1[j] * y0[j]
        e1 = p1 * rest1
        e0 = p0 * rest0
        e10 = p10 * (rest1 * rest0 - rest10)
        mean1 = (a + e1) / n1
        mean0 = (b + e0) / n0
        mean10 = (a * b + a * e0 + b * e1 + e10) / (n1 * n0)
        return a * b - a * mean0 - b * mean1 + mean10

    return inclusion(n1, n0, 1, 1) * _hollow_sum(np.asarray(w, dtype=float), pair) / (n1 * n0 / n)


def dense_b(hat) -> np.ndarray:
    """The n x n matrix B = M'M of randadj.design, from its entrywise closed
    form B_ij = g_i g_j (delta_ij - 1/n) - (g_i + g_j - 1) H_ij with
    g = 1 + diag{H}.  The package never forms B; tests compare its forms
    with this dense reference."""
    g = 1.0 + hat.leverages
    return np.diag(g * g) - np.outer(g, g) / hat.n - (np.add.outer(g, g) - 1.0) * hat.h


def plugin_statistics(forms) -> dict[str, np.ndarray]:
    """The 15 plug-in statistics of a block of randadj.estimators.ArmForms,
    each a vector over its assignments, keyed as plugin_moment_means.

    They are the production hat forms (forms.forms) over the rows (u1, u0)
    with the normalisers of the means below: for arm z in row k, the
    diagonal [k, k] entry over n_z and the hollow one over r_z n_z; and the
    hollow [0, 1] entry, between the arms, over n r1 r0.
    """
    nz = forms.nz
    rz = nz / forms.hat.n
    out = {}
    for name, (hollow, diagonal) in zip("HQB", forms.forms):
        for k, z in enumerate((1, 0)):
            out[f"diag {name} arm {z}"] = diagonal[:, k, k] / nz[:, k]
            out[f"hollow {name} arm {z}"] = hollow[:, k, k] / (rz[:, k] * nz[:, k])
        out[f"cross {name}"] = hollow[:, 0, 1] / (forms.hat.n * rz[:, 0] * rz[:, 1])
    return out


def plugin_moment_means(table, n1: int) -> dict[str, float]:
    """Exact means of the 15 plug-in statistics of a science table.

    Per weight matrix M in (H, Q, B): the diagonal and hollow forms for each
    arm, and the cross-arm hollow form.  Keys read like "diag H arm 1",
    "hollow Q arm 0" and "cross B".
    """
    hat = table.hat
    y = {1: table.y1, 0: table.y0}
    size = {1: n1, 0: hat.n - n1}
    out = {}
    for name, mat in (("H", hat.h), ("Q", hat.q), ("B", dense_b(hat))):
        for z in (1, 0):
            out[f"diag {name} arm {z}"] = diag_quadratic_mean(np.diag(mat), y[z], size[z])
            out[f"hollow {name} arm {z}"] = offdiag_quadratic_mean(mat, y[z], size[z])
        out[f"cross {name}"] = cross_offdiag_mean(mat, table.y1, table.y0, n1)
    return out


def variance_estimate_means(table, n1: int) -> tuple[float, float]:
    """Exact means of the plug-in variance estimates (hd, hd_prime).

    Both estimates are fixed linear combinations of the 15 plug-in
    statistics (components i1, i2, i3 or its variant, and i4), so their
    means are the same combinations of the statistics' means.
    """
    m = plugin_moment_means(table, n1)
    r = {1: n1 / table.hat.n, 0: 1.0 - n1 / table.hat.n}
    rr = r[1] * r[0]
    i1 = sum(rr * (rr / r[z]**4 * m[f"diag Q arm {z}"] + m[f"diag B arm {z}"] / r[z]**2)
             for z in (1, 0))
    i2 = sum(rr * (rr / r[z]**4 * m[f"hollow Q arm {z}"] + m[f"hollow B arm {z}"] / r[z]**2)
             for z in (1, 0))
    i3_prime = sum(m[f"diag B arm {z}"] - m[f"diag Q arm {z}"] for z in (1, 0))
    i3 = i3_prime - m["hollow H arm 1"] - m["hollow H arm 0"] + 2.0 * m["cross H"]
    i4 = 2.0 * (m["cross B"] - m["cross Q"])
    return i1 + i2 + i3 + i4, i1 + i2 + i3_prime + i4
