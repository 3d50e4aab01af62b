"""Brute-force references for the localization oracle, in torus vectors.

The oracle writes every weight at cone (i, j) in that chart's basis
(w1, w2), the dual basis of the rays (v_i, v_j).  These helpers compute the
same weights the long way, as integer 2-vectors of the torus: the dual
basis found by search (`dual_basis`), cells, arms and legs counted cell by
cell, the bundle weight m with <m, v_i> = a_i and <m, v_j> = a_j, and the
evaluation t -> <t, at>.  A tangent weight that vanishes at the point
raises VanishingWeightError, found cell by cell, where the oracle tests the
point once in closed form (`_generic`); the tests hold the two against each
other.  A class weight is a numerator only, so one that is zero, at the
point or as the vector (0, 0), is multiplied like any other and makes its
fixed point's term 0.  A linearization is moved by a torus
character m through the equivalent divisor a_k + <m, v_k>
(`equivalent_divisor`).

`cell_weight_tables` and `fraction_chart_product` are the oracle's earlier
fast path, kept as references for the hook tables and the exact sums: chart
coordinates evaluated cell by cell from `hook_pairs`, and one Fraction per
partition.  `direct_trace_terms` is the direct walk over fixed points that
`trace_terms` replaced by reading the oracle's tables: every weight of
every cell of every fixed point multiplied out, one Fraction per point.
Its fixed points come from `hilb_fixed_points`, which recurses once per
chart and lives here, not in the library: the oracle's `trace_terms`
extends each point by its nonempty charts, and the two enumerations share
no code.
`nonempty_charts` writes one of its points as the trace lists it.
Every reference here takes its partitions from `partitions`, a recursive
generator, and `partition_list`, its cached tuples, not from the oracle's
`_cell_layout`, so the references share no partition code with the
oracle they check.
`fixed_point_series` composes the oracle's `_series_values` from its
chart scalars and cell layout, for the tests that want the integrals at
one given point.

`random_fan` generates smooth complete fans by toric blow-ups, and
`fan_delta` reads e - K.D + D^2 off a fan without the oracle's model.
`chart_closed_forms` is Carlsson-Okounkov's product on C^2, chart by chart,
which each chart's series in the oracle's tables must equal; the oracle's
summation does not use it.
"""

import random

from fractions import Fraction
from functools import lru_cache

from dtseries.localization import (
    Linearization,
    _cell_layout,
    _chart_scalars,
    _series_values,
)


class VanishingWeightError(ArithmeticError):
    """A tangent weight vanished at the point a reference evaluates at."""


def partitions(n, max_part=None):
    """Yield the partitions of n as weakly decreasing tuples of positive ints."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partition_list(n):
    """Cached tuple of all partitions of n, in `partitions` order."""
    return tuple(partitions(n))


def conjugate(parts):
    """Transpose of the Young diagram: column j holds one cell per part > j."""
    conj = [0] * (parts[0] if parts else 0)
    for p in parts:
        for j in range(p):
            conj[j] += 1
    return tuple(conj)


def hook_pairs(parts):
    """Tangent weights of the Hilbert scheme at the monomial ideal of a
    partition, in chart coordinates (the same in every chart): each cell
    contributes (-l, a+1) and (l+1, -a), cells taken row by row, with arm
    a = parts[i]-j-1 and leg l = conj[j]-i-1 of cell (i, j), conj the
    conjugate partition."""
    conj = conjugate(parts)
    out = []
    for i, p in enumerate(parts):
        for j in range(p):
            a = p - j - 1
            l = conj[j] - i - 1
            out.append((-l, a + 1))
            out.append((l + 1, -a))
    return out


def hilb_fixed_points(num_charts, n):
    """All fixed points of S^[n]: tuples of partitions, one per chart
    (num_charts >= 1), with total size n."""
    if num_charts == 1:
        for lam in partition_list(n):
            yield (lam,)
        return
    for k in range(n + 1):
        for lam in partition_list(k):
            for rest in hilb_fixed_points(num_charts - 1, n - k):
                yield (lam,) + rest


def fixed_point_series(model, lin, n_max, at):
    """The oracle's integrals over S^[n], n = 0..n_max, at the point `at`."""
    return _series_values(_chart_scalars(model, lin, at), _cell_layout(n_max))


def equivalent_divisor(model, lin, m):
    """The linearization of the same line bundle twisted by the torus
    character m: the divisor a_k + <m, v_k>, linearly equivalent to
    sum a_k D_k, so every weight w_F(L) moves by m."""
    divisor = tuple(a + m[0] * x + m[1] * y for a, (x, y) in zip(lin.divisor, model.rays))
    return Linearization(lin.name, divisor, lin.surface_class)


def nonempty_charts(point):
    """A fixed point given by one partition per chart, as `trace_terms`
    lists it: (chart, partition) for its nonempty charts only."""
    return tuple((c, tuple(lam)) for c, lam in enumerate(point) if lam)


def direct_trace_terms(model, lin, n, at):
    """Per-fixed-point contributions of S^[n], in `hilb_fixed_points` order,
    each as prod(class weights)/prod(tangent weights) over every cell of
    every chart's partition, evaluated weight by weight."""
    scalars = _chart_scalars(model, lin, at)
    rows = []
    for point in hilb_fixed_points(model.euler, n):
        num = den = 1
        for parts, (P, Q, si, sj) in zip(point, scalars):
            for (x, y) in hook_pairs(parts):
                den *= x * P + y * Q
                num *= (x + si) * P + (y + sj) * Q
        rows.append({"point": [list(p) for p in point], "term": Fraction(num, den)})
    return rows


def dual_basis(model):
    """Per cone (i, j), the torus basis (w1, w2) dual to the rays (v_i, v_j):
    <w1, v_i> = <w2, v_j> = 1 and <w1, v_j> = <w2, v_i> = 0.  Each vector is
    found by a search over the integer vectors whose entries are no larger
    than the rays' (a unimodular 2x2 matrix's inverse has its entries)."""
    out = []
    for i, j in model.cones:
        vi, vj = model.rays[i], model.rays[j]
        m = max(map(abs, vi + vj))
        box = [(x, y) for x in range(-m, m + 1) for y in range(-m, m + 1)]

        def pairings(w):
            return (w[0] * vi[0] + w[1] * vi[1], w[0] * vj[0] + w[1] * vj[1])

        out.append((next(w for w in box if pairings(w) == (1, 0)),
                    next(w for w in box if pairings(w) == (0, 1))))
    return tuple(out)


def cells(parts):
    """Cells (row, col) of the diagram, 0-indexed, row-major."""
    for i, p in enumerate(parts):
        for j in range(p):
            yield (i, j)


def _require_cell(parts, row, col):
    if not (0 <= row < len(parts)) or not (0 <= col < parts[row]):
        raise ValueError(f"cell ({row},{col}) outside diagram {parts!r}")


def arm(parts, row, col):
    """Number of cells strictly right of (row, col) in its row."""
    _require_cell(parts, row, col)
    return parts[row] - col - 1


def leg(parts, row, col):
    """Number of cells strictly below (row, col) in its column."""
    _require_cell(parts, row, col)
    return sum(1 for i in range(row + 1, len(parts)) if parts[i] > col)


def bundle_weights(model, lin):
    """Torus weight of the bundle O(sum a_k D_k) at each cone (i, j):
    a_i*w1 + a_j*w2 in that cone's chart."""
    return tuple(
        (lin.divisor[i] * w1[0] + lin.divisor[j] * w2[0],
         lin.divisor[i] * w1[1] + lin.divisor[j] * w2[1])
        for (i, j), (w1, w2) in zip(model.cones, dual_basis(model))
    )


def tangent_weights(parts, chart):
    """Tangent weights at the monomial ideal of a partition in one chart
    (w1, w2): each cell, row by row, contributes -l*w1 + (a+1)*w2 and
    (l+1)*w1 - a*w2, with arm a and leg l counted cell by cell."""
    (x1, y1), (x2, y2) = chart
    out = []
    for (i, j) in cells(parts):
        a, l = arm(parts, i, j), leg(parts, i, j)
        out.append((-l * x1 + (a + 1) * x2, -l * y1 + (a + 1) * y2))
        out.append(((l + 1) * x1 - a * x2, (l + 1) * y1 - a * y2))
    return out


def co_class_weights(point, model, lin):
    """Weights of the obstruction-type class at a fixed point (a tuple of
    partitions, one per chart): one weight w_F(L) + t per tangent weight t,
    so rank 2n in total, the zero vector included."""
    out = []
    charts = dual_basis(model)
    for c, (parts, wl) in enumerate(zip(point, bundle_weights(model, lin))):
        for t in tangent_weights(parts, charts[c]):
            out.append((t[0] + wl[0], t[1] + wl[1]))
    return out


def weight_tables(model, lin, n_max, at):
    """Per-partition products of tangent and class weights, indexed
    [chart][size][partition], each weight evaluated at `at` scaled by the
    product of its coordinates' denominators.  Sizes ascending, charts
    within a size, cells row by row; a tangent weight that vanishes raises
    VanishingWeightError, and a class weight that vanishes is multiplied."""
    x, y = Fraction(at[0]), Fraction(at[1])
    scale = x.denominator * y.denominator

    def value(w):
        v = (w[0] * x + w[1] * y) * scale
        assert v.denominator == 1
        return v.numerator

    bases = bundle_weights(model, lin)
    charts = dual_basis(model)
    co_tables = [[] for _ in charts]
    tan_tables = [[] for _ in charts]
    for k in range(n_max + 1):
        for c, chart in enumerate(charts):
            co_row, tan_row = [], []
            for parts in partition_list(k):
                tp = cp = 1
                for t in tangent_weights(parts, chart):
                    tv = value(t)
                    if tv == 0:
                        raise VanishingWeightError("tangent weight vanishes")
                    tp *= tv
                    cp *= value((t[0] + bases[c][0], t[1] + bases[c][1]))
                co_row.append(cp)
                tan_row.append(tp)
            co_tables[c].append(co_row)
            tan_tables[c].append(tan_row)
    return co_tables, tan_tables


def cell_weight_tables(scalars, n_max):
    """Per-partition products of tangent and class weights, indexed
    [chart][size][partition], in chart coordinates at the `_chart_scalars`
    of one point: every weight of every cell of every partition evaluated
    as x*P + y*Q.  Sizes ascending, charts within a size, partitions in
    order, cells row by row; a tangent weight that vanishes raises
    VanishingWeightError, and a class weight that vanishes is multiplied."""
    co_tables = [[] for _ in scalars]
    tan_tables = [[] for _ in scalars]
    for k in range(n_max + 1):
        hooks = [hook_pairs(parts) for parts in partition_list(k)]
        for c, (P, Q, si, sj) in enumerate(scalars):
            base_val = si * P + sj * Q
            co_row = []
            tan_row = []
            for pairs in hooks:
                tp = cp = 1
                for (x, y) in pairs:
                    v = x * P + y * Q
                    if v == 0:
                        raise VanishingWeightError(
                            f"tangent weight ({x},{y}) vanishes at the evaluation point"
                        )
                    tp *= v
                    cp *= v + base_val
                co_row.append(cp)
                tan_row.append(tp)
            co_tables[c].append(co_row)
            tan_tables[c].append(tan_row)
    return co_tables, tan_tables


def fraction_chart_product(co_tables, tan_tables, n_max):
    """Coefficients 0..n_max of prod_c Z_c(q), each Z_c[k] summed as one
    Fraction per partition."""
    total = [Fraction(1)] + [Fraction(0)] * n_max
    for co_rows, tan_rows in zip(co_tables, tan_tables):
        z = [sum(map(Fraction, co_rows[k], tan_rows[k])) for k in range(n_max + 1)]
        total = [sum(total[i] * z[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
    return total


def random_fan(rng, blowups=5):
    """The rays, in counter-clockwise order, of a smooth complete fan: P2 or
    the Hirzebruch surface F_a (a in 0..3), then 0..`blowups` toric
    blow-ups, each inserting v_i + v_(i+1) between two neighbouring rays."""
    a = rng.randint(-1, 3)
    rays = [(1, 0), (0, 1), (-1, -1)] if a < 0 else [(1, 0), (0, 1), (-1, a), (0, -1)]
    for _ in range(rng.randint(0, blowups)):
        i = rng.randrange(len(rays))
        (x1, y1), (x2, y2) = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (x1 + x2, y1 + y2))
    return tuple(rays)


def fan_delta(rays, divisor):
    """e - K.D + D.D for D = sum a_i D_i on the toric surface of a complete
    fan whose rays are listed in cyclic order: D_i.D_i = -b_i where
    v_(i-1) + v_(i+1) = b_i v_i, neighbours meet once, and K = -sum D_i."""
    r = len(rays)

    def dot(i, j):
        if i == j:
            s = (rays[i - 1][0] + rays[(i + 1) % r][0], rays[i - 1][1] + rays[(i + 1) % r][1])
            x, y = rays[i]
            b = s[0] // x if x else s[1] // y
            assert (b * x, b * y) == s
            return -b
        return 1 if (j - i) % r in (1, r - 1) else 0

    minus_KD = sum(divisor[j] * dot(i, j) for i in range(r) for j in range(r))
    DD = sum(divisor[i] * divisor[j] * dot(i, j) for i in range(r) for j in range(r))
    return r + minus_KD + DD


def euler_power(alpha, n_max):
    """Coefficients 0..n_max of prod_k (1-q^k)^alpha for a rational alpha,
    in Fractions: g = prod_k (1-q^k) multiplied out, then J. C. P. Miller's
    recurrence for g^alpha, n f_n = sum_(k=1..n) ((alpha+1) k - n) g_k f_(n-k)."""
    g = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for i in range(n_max, k - 1, -1):
            g[i] -= g[i - k]
    f = [Fraction(1)]
    for n in range(1, n_max + 1):
        f.append(sum(((alpha + 1) * k - n) * g[k] * f[n - k] for k in range(1, n + 1)) / n)
    return f


def chart_closed_forms(model, lin, n_max, at):
    """Per chart, coefficients 0..n_max of Carlsson-Okounkov's series on C^2,
    prod_k (1-q^k)^(-(m+P)(m+Q)/(PQ)), with P, Q, s_i, s_j the chart's
    `_chart_scalars` and m = s_i P + s_j Q the bundle's weight there."""
    out = []
    for P, Q, si, sj in _chart_scalars(model, lin, at):
        m = si * P + sj * Q
        out.append(euler_power(Fraction(-(m + P) * (m + Q), P * Q), n_max))
    return out
