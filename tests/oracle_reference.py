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
fixed point's term 0.  A linearization is moved by a torus character m
through the equivalent divisor a_k + <m, v_k> (`equivalent_divisor`).

`cell_weight_tables` and `fraction_chart_product` are the oracle's earlier
fast path, kept as references for the hook tables and the exact sums: chart
coordinates evaluated cell by cell from `hook_pairs`, and one Fraction per
partition.  `direct_trace_terms` is the direct walk over fixed points that
`trace_terms` replaced by reading the oracle's tables: every weight of
every cell of every fixed point multiplied out, one Fraction per point.
Its fixed points come from `hilb_fixed_points`, which recurses once per
chart, where the oracle's `trace_terms` extends each point by its nonempty
charts; `nonempty_charts` writes one point as the trace lists it.  Every
reference takes its partitions from `partitions`, a recursive generator,
and `partition_list`, its cached tuples, not from the oracle's
`_cell_layout`, so the references share no partition or fixed-point code
with the oracle they check.  `first_vanishing_weight` walks the tangent
weights in `weight_tables` order and stops at the first that vanishes at
the point, which is how the tests show that a pair of points is refused.

`random_fan` generates smooth complete fans by toric blow-ups, and
`fan_delta` reads e - K.D + D^2 off a fan without the oracle's model.
`chart_closed_forms` is Carlsson-Okounkov's product on C^2, chart by chart,
which each chart's series in the oracle's tables must equal; the oracle's
summation does not use it.  `oracle_corpus` is the seeded set of cases,
built once per session, over which each oracle property is asserted once.

Besides `co_series` and `trace_terms`, the tests import only these
internals of `dtseries.localization`, most of them here behind the helper
named: `_cell_layout`, `_chart_scalars`, `_draw_point` (`draw_pair`),
`_generic` (`oracle_generic`), `_series_values` (`fixed_point_series`)
and `_weight_tables` (`oracle_tables`).
"""

import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd

from dtseries.localization import (
    Linearization,
    ToricSurfaceModel,
    _cell_layout,
    _chart_scalars,
    _draw_point,
    _generic,
    _series_values,
    _weight_tables,
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
    than the rays' (a unimodular 2x2 matrix's inverse has its entries), once
    per fan."""
    return _dual_basis(model.rays, model.cones)


@lru_cache(maxsize=None)
def _dual_basis(rays, cones):
    out = []
    for i, j in cones:
        vi, vj = rays[i], rays[j]
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


def _scaled(at):
    """The point (x, y) times the product of its coordinates' denominators,
    as two integers."""
    x, y = Fraction(at[0]), Fraction(at[1])
    return x.numerator * y.denominator, y.numerator * x.denominator


def weight_tables(model, lin, n_max, at):
    """Per-partition products of tangent and class weights, indexed
    [chart][size][partition], each weight evaluated at `at` scaled by the
    product of its coordinates' denominators.  Sizes ascending, charts
    within a size, cells row by row; a tangent weight that vanishes raises
    VanishingWeightError, and a class weight that vanishes is multiplied."""
    X, Y = _scaled(at)

    def value(w):
        return w[0] * X + w[1] * Y

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


def first_vanishing_weight(model, lin, n_max, at):
    """The first tangent weight of S^[k], k <= n_max, that is 0 at `at`, as
    a torus vector, or None: in `weight_tables` order, walking only the
    charts where a weight of a hook with l + a + 1 <= n_max vanishes.
    `lin` is not read; tangent weights do not depend on the bundle."""
    X, Y = _scaled(at)
    live = []
    for w1, w2 in dual_basis(model):
        P, Q = w1[0] * X + w1[1] * Y, w2[0] * X + w2[1] * Y
        # the corner's weights are -l*w1 + (a+1)*w2 and (l+1)*w1 - a*w2
        if any(not (a + 1) * Q - l * P or not (l + 1) * P - a * Q
               for l in range(n_max) for a in range(n_max - l)):
            live.append((w1, w2))
    for k in range(1, n_max + 1):
        for chart in live:
            for parts in partition_list(k):
                for t in tangent_weights(parts, chart):
                    if not t[0] * X + t[1] * Y:
                        return t
    return None


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
            co_row, tan_row = [], []
            for pairs in hooks:
                tp = cp = 1
                for (x, y) in pairs:
                    v = x * P + y * Q
                    if v == 0:
                        raise VanishingWeightError(f"tangent weight ({x},{y}) vanishes")
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
    recurrence for g^alpha, n f_n = sum_(k=1..n) ((alpha+1) k - n) g_k f_(n-k),
    summed over the few k with g_k != 0."""
    g = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for i in range(n_max, k - 1, -1):
            g[i] -= g[i - k]
    terms = [k for k in range(1, n_max + 1) if g[k]]
    f = [Fraction(1)]
    for n in range(1, n_max + 1):
        f.append(sum(((alpha + 1) * k - n) * g[k] * f[n - k] for k in terms if k <= n) / n)
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


def oracle_tables(model, lin, n_max, at):
    """The oracle's hook tables at `at`: `_weight_tables` on the point's
    `_chart_scalars` and `_cell_layout(n_max)`, None at a counted chart."""
    return _weight_tables(_chart_scalars(model, lin, at), _cell_layout(n_max))


def oracle_generic(model, lin, n_max, at):
    """Whether the oracle's `_generic` accepts `at` at n_max."""
    return _generic(_chart_scalars(model, lin, at), n_max)


def reference_tables(model, lin, n_max, at):
    """`cell_weight_tables` at `at`, or None where a tangent weight vanishes."""
    try:
        return cell_weight_tables(_chart_scalars(model, lin, at), n_max)
    except VanishingWeightError:
        return None


OracleCase = namedtuple("OracleCase", "kind model lin n_max seed refused pair own tables")


CORPUS_KINDS = ("divisor", "character", "zero entries", "zero weight")

SMALL_POINTS = tuple((Fraction(x), Fraction(y)) for x in range(-4, 5) for y in range(-4, 5)
                     if x or y)


def draw_pair(rng):
    """The next pair of points `co_series` draws from `rng`: a short point,
    then a wide one (`_draw_point`)."""
    return (_draw_point(rng, 99, 1), _draw_point(rng, 9999, 60))


def _weight_zero_at_an_integer_point(rng, rays, divisor, n_max):
    """Set one cone's divisor entries to (Q/g, -P/g), g = gcd(P, Q), for
    an integer point with P = <w1, at>, Q = <w2, at>, P*Q < 0 there and no
    vanishing tangent weight; return it and its multiple by -7/3."""
    fan = ToricSurfaceModel("fan", rays, {})
    while True:
        c = rng.randrange(len(rays))
        (w1, w2) = dual_basis(fan)[c]
        x, y = rng.randint(-99, 99), rng.randint(-99, 99)
        P, Q = w1[0] * x + w1[1] * y, w2[0] * x + w2[1] * y
        at = (Fraction(x), Fraction(y))
        if P * Q < 0 and first_vanishing_weight(fan, None, n_max, at) is None:
            g = gcd(P, Q)
            divisor[c], divisor[(c + 1) % len(rays)] = Q // g, -P // g
            return at, (at[0] * Fraction(-7, 3), at[1] * Fraction(-7, 3))


@lru_cache(maxsize=None)
def oracle_corpus():
    """The seeded cases every oracle property is asserted over, built once.

    Each case is a `random_fan` fan of 3-10 rays with divisor entries in
    -3..3, n_max in 0..10 (12 for one case in 16), and a kind, in turn:
    "divisor" as drawn; "character", moved by a torus character in -6..6,
    which makes class weights the zero vector; "zero entries", one cone's
    set to (0, 0); "zero weight", one cone's nonzero entries making the
    bundle's weight vanish at an integer point, which with its multiple by
    -7/3 are the case's `own` points (`_weight_zero_at_an_integer_point`).
    Any other case's own point is a nonzero integer point in -4..4, where
    tangent weights often vanish.  `refused` are the pairs `draw_pair`
    draws from random.Random(seed) before `pair`, the first at which the
    per-cell walk meets no vanishing tangent weight, and `tables` maps each
    point of the case to its `reference_tables`."""
    rng = random.Random(41)
    cases = []
    for seed in range(160):
        kind = CORPUS_KINDS[seed % 4]
        rays = random_fan(rng, blowups=6)
        divisor = [rng.randint(-3, 3) for _ in rays]
        n_max = 12 if seed % 16 == 15 else rng.randint(0, 10)
        own = (_weight_zero_at_an_integer_point(rng, rays, divisor, n_max)
               if kind == "zero weight" else (rng.choice(SMALL_POINTS),))
        if kind == "zero entries":
            c = rng.randrange(len(rays))
            divisor[c] = divisor[(c + 1) % len(rays)] = 0
        model = ToricSurfaceModel("fan", rays, {"D": Linearization("D", tuple(divisor), ())})
        lin = model.bundles["D"]
        if kind == "character":
            lin = equivalent_divisor(model, lin, (rng.randint(-6, 6), rng.randint(-6, 6)))
        tables = {at: reference_tables(model, lin, n_max, at) for at in own}
        draws, refused = random.Random(seed), []
        while True:
            pair = draw_pair(draws)
            tables.update((at, reference_tables(model, lin, n_max, at)) for at in pair)
            if all(tables[at] is not None for at in pair):
                break
            refused.append(pair)
        cases.append(OracleCase(kind, model, lin, n_max, seed, tuple(refused), pair, own, tables))
    return tuple(cases)
