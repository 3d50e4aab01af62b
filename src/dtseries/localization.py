"""Equivariant residue oracle on Hilbert schemes of points of toric surfaces.

A smooth complete toric surface is given by its rays alone, listed once
around the origin: the cones are the consecutive pairs of rays, one per
fixed point, and a fixed point's chart is the dual basis (w1, w2) of its
cone's rays (v_i, v_j).  A ToricSurfaceModel checks its rays and bundles
when it is built, and reads e(S), K.D and D^2 of a divisor off the rays.
A torus weight t is written in chart coordinates (<t, v_i>, <t, v_j>): the
bundle O(sum_k a_k D_k) has the weight (a_i, a_j), and a cell with arm a
and leg l has the tangent weights (-l, a+1) and (l+1, -a) in every chart
(Carlsson-Okounkov, *Exts and vertex operators*, Duke 161, 2012).  At a
point `at` a weight (x, y) is x*P + y*Q, with P = <w1, at>, Q = <w2, at>.

Fixed points of the torus on S^[n] are tuples of partitions, one per
chart.  The obstruction-type class attached to a linearized line bundle is
the tangent twisted by the bundle, contributing one weight w_F(L) + t per
tangent weight t (rank 2n, like the tangent).  The integral is the sum over
fixed points of prod(class weights)/prod(tangent weights), evaluated at a
generic rational point of the Lie algebra.

Each term is a product of one factor per chart, so the sums for all n are
the coefficients of one product of per-chart series:

    sum_n q^n * integral over S^[n]  =  prod_c Z_c(q),
    Z_c(q) = sum_lambda q^|lambda| * co_c(lambda) / tan_c(lambda),

computed exactly, truncated at q^n_max, in one pass per evaluation point.
A cell's two weights depend only on its hook (leg l, arm a), so
`_weight_tables` gives each chart, in turn, one table over the hooks with
l + a + 1 <= n_max, holding the product of the two tangent weights and the
product of the two class weights of each, divided by their gcd, and then
that chart's partition products.  So a table holds each partition's ratio
co/tan with a common factor removed, not the raw products.  Where the
bundle's weight s_i*P + s_j*Q is zero at the point, whatever its entries,
each class weight is its tangent weight and every ratio is 1: that chart
gets no table, and its Z_c[k] is the number of partitions of k, read off
the cell layout.  `_generic` tests, in closed form, that no tangent weight
of those hooks vanishes at the point; `co_series` draws until both its
points pass.  Class weights are numerators only (Atiyah-Bott), so one
that is zero, at the point or as a vector, makes its hook's pair (0, 1),
and every fixed point through that hook adds 0.  A partition's products
are products of its cells' entries, built row on row from one cell layout
that `co_series` makes once per call (removing a partition's first row
changes no other cell's hook); the layout is the oracle's only
enumeration of partitions, each size in `_cell_layout` order.  Every
other Z_c[k] is one exact sum over a common denominator, and the product
over charts is a convolution of integers, so no Fraction is made per
partition.

Exactness of the arithmetic plus a degree count make every coefficient an
integer independent of the evaluation point and of the linearization;
integrality and independence of the point are rechecked at runtime, and
the tests cover the linearization through equivalent divisors
a_k + <m, v_k>.  The first point is short, integers up to 99, so its
tables hold smaller integers and sum faster; the second is drawn from
numerators up to 9999 over denominators up to 60.  Every weight is linear
in the point, so the values there depend on its ratio x : y alone, and a
wrong model's chance of agreeing at both points is set by the second
point's draw.
`trace_terms` lists the fixed points' terms one by one, read from the same
tables: one walk lists every n up to n_max, each point by its nonempty
charts only, so its cost grows with the points, not with the charts.  The
direct walk over every cell of every fixed point is kept in the tests as
the independent reference.
"""

import random
import time
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod
from operator import mul

from .geometry import ModelError, Record, _ints, _typed_fields


class OracleError(RuntimeError):
    """The oracle's sums are inconsistent."""


class IntegralityError(OracleError):
    """The fixed-point sum failed to be an integer; the model data is wrong."""


class Linearization(Record):
    """The equivariant line bundle O(sum_i a_i D_i): its divisor coefficients
    a_i per ray and its divisor class in the surface model's basis."""

    name: str
    divisor: tuple
    surface_class: tuple

    def __post_init__(self):
        _typed_fields(self)


class ToricSurfaceModel(Record):
    """A smooth complete toric surface given by its rays, with its
    equivariant line bundles.

    `rays` are the integer 2-vectors v_0, ..., v_(e-1), listed once around
    the origin either way round; cone k is (k, k+1 mod e), and its chart is
    the dual basis of its two rays.  `bundles` maps a key to the
    Linearization O(sum_k a_k D_k), whose weight at cone (i, j) has the
    chart coordinates (a_i, a_j).  Raises ModelError when a ray is not an
    integer pair, when det(v_k, v_(k+1)) is not +1 for every k or -1 for
    every k (a cone is not smooth, or the rays turn back), when the rays do
    not wind once around the origin, or when a bundle is no Linearization
    with one divisor coefficient per ray.
    """

    name: str
    rays: tuple
    bundles: dict

    def __post_init__(self):
        _typed_fields(self)
        name, rays = self.name, self.rays
        for v in rays:
            if not _ints(v, 2):
                raise ModelError(f"{name}: ray must be an integer pair, not {v}")
        dets = [_det(rays[i], rays[j]) for i, j in self.cones]
        if set(dets) not in ({1}, {-1}, set()):
            raise ModelError(f"{name}: det(v_k, v_(k+1)) = {dets}: not all 1 or all -1, so "
                             "a cone is not smooth or the rays turn back")
        # turning one way by less than pi a step, the rays enter and leave
        # the lower half-plane once per turn around the origin
        below = [y < 0 or (y == 0 and x < 0) for x, y in rays]
        winding = sum(below[k - 1] != below[k] for k in range(len(rays))) // 2
        if winding != 1:
            raise ModelError(f"{name}: the rays wind {winding} times around the origin, not once")
        for key, lin in self.bundles.items():
            if type(lin) is not Linearization:
                raise ModelError(f"{name}: bundle {key!r} must be a Linearization, not {lin!r}")
            if not _ints(lin.divisor, len(rays)):
                raise ModelError(f"{name}/{lin.name}: divisor {lin.divisor} must have "
                                 "one integer entry per ray")

    @property
    def euler(self):
        return len(self.rays)

    @property
    def cones(self):
        return tuple((k, (k + 1) % len(self.rays)) for k in range(len(self.rays)))

    def intersection_numbers(self, a):
        """(e(S), K.D, D^2) of D = sum_k a_k D_k.  With eps the common det(v_k, v_(k+1)),
        v_(k-1) + v_(k+1) = b_k v_k for b_k = eps * det(v_(k-1), v_(k+1)), so
        D.D_k = a_(k-1) + a_(k+1) - b_k a_k; and K = -sum_k D_k."""
        v, e = self.rays, len(self.rays)
        eps = _det(v[0], v[1])
        dots = [a[k - 1] + a[(k + 1) % e] - eps * _det(v[k - 1], v[(k + 1) % e]) * a[k]
                for k in range(e)]
        return e, -sum(dots), sum(map(mul, a, dots))


def _det(v, w):
    return v[0] * w[1] - v[1] * w[0]


def p1xp1():
    """P1 x P1 with the product torus action; charts ordered (0,0),(1,0),(1,1),(0,1),
    where (x, y) is the cone of rays 2x and 2y+1.  O(a,b) is the divisor a*D_2 + b*D_3."""
    return ToricSurfaceModel(
        "p1xp1",
        rays=((1, 0), (0, 1), (-1, 0), (0, -1)),
        bundles={"L": Linearization("O(1,1)", divisor=(0, 0, 1, 1), surface_class=(1, 1)),
                 "trivial": Linearization("O(0,0)", divisor=(0, 0, 0, 0), surface_class=(0, 0))},
    )


def p2():
    """P2 with the standard torus action; fixed points are the coordinate
    points.  O(d) is the divisor d*D_2."""
    return ToricSurfaceModel(
        "p2",
        rays=((1, 0), (0, 1), (-1, -1)),
        bundles={"L": Linearization("O(1)", divisor=(0, 0, 1), surface_class=(1,)),
                 "trivial": Linearization("O(0)", divisor=(0, 0, 0), surface_class=(0,))},
    )


def _cell_layout(n_max):
    """The partitions of sizes 1..n_max, each as (row, k, i): the hooks of
    the cells of its first row, left to right, and the place (size k, index
    i) of the partition that removing that row leaves.  A partition of k is
    a first row f, from k down to 1, on a partition of k - f whose first
    part is at most f, so each size lists, for each f, those of size k - f
    in their own order: descending lexicographic order, `_cell_layout`
    order.  This is the oracle's one enumeration of partitions.  Removing
    the first row changes no other cell's arm or leg, so a partition's
    weight products are those of its first row times those of the rest.
    The hook with leg l and arm a is the one integer l*(n_max+1) + a, its
    slot in the hook tables."""
    stride = n_max + 1
    # per size, the column heights of each partition, indexed like the
    # layout, as lists: short-lived tuples of many lengths would fill the
    # interpreter's per-length tuple free lists, and resident memory grows
    # with every call
    heights = [[[]]]
    layout = []
    for k in range(1, n_max + 1):
        size, size_heights = [], []
        for f in range(k, 0, -1):
            for i, rest in enumerate(heights[k - f]):
                # the rest's first part is its number of columns
                if len(rest) <= f:
                    # the first row's legs are the column heights of the rest
                    legs = rest + [0] * (f - len(rest))
                    size.append(([l * stride + f - 1 - j for j, l in enumerate(legs)], k - f, i))
                    size_heights.append([l + 1 for l in legs])
        layout.append(size)
        heights.append(size_heights)
    return layout


def _chart_scalars(model, lin, at):
    """Per chart, at cone (i, j): P = <w1, at> and Q = <w2, at> with the
    denominators of `at` cleared, and the linearization's chart coordinates
    s_i = a_i, s_j = a_j, its divisor entries.  For v_i = (a, b) and
    v_j = (c, d) the dual basis is w1 = det*(d, -c), w2 = det*(-b, a), as
    1/det = det.  A weight (x, y) evaluates to x*P + y*Q; its class weight
    is (x + s_i, y + s_j)."""
    x, y = Fraction(at[0]), Fraction(at[1])
    A, B = x.numerator * y.denominator, y.numerator * x.denominator
    out = []
    for i, j in model.cones:
        (a, b), (c, d) = model.rays[i], model.rays[j]
        det = a * d - b * c
        out.append((
            det * (d * A - c * B),
            det * (a * B - b * A),
            lin.divisor[i],
            lin.divisor[j],
        ))
    return out


def _generic(scalars, n_max):
    """Whether no tangent weight of a hook with l + a + 1 <= n_max vanishes
    at the point of these `_chart_scalars`.  In a chart, -l*P + (a+1)*Q or
    (l+1)*P - a*Q is 0 for such a hook exactly when P/Q, in lowest terms
    p/q (0/1 if P = 0, 1/0 if Q = 0), is not negative and p + q <= n_max:
    then the hooks (l, a) = (q, p - 1) and (q - 1, p), where they are
    hooks, have a weight that vanishes.  The origin is never generic."""
    return all(P * Q < 0 or abs(P) + abs(Q) > n_max * gcd(P, Q) for P, Q, _, _ in scalars)


def _weight_tables(scalars, layout):
    """Evaluate all per-partition weight products as exact integers.

    `scalars` are the `_chart_scalars` of one evaluation point, which must
    be generic (`_generic`): at any other point a tangent entry is 0 and
    the sums that read the tables raise ZeroDivisionError.  `layout` is
    `_cell_layout(n_max)`.  Returns co_tables, tan_tables
    indexed [chart][size][partition], for sizes 0..n_max, with None for
    both at a chart where the bundle's weight s_i*P + s_j*Q is 0 at the
    point: there each class weight is its tangent weight, every
    partition's ratio is 1, and the chart is counted, not tabulated
    (`chart_product`, `trace_terms`).  Denominators of the evaluation
    point cancel between the co and tangent products (both have rank 2n),
    so the tables hold the cleared integer values x*P + y*Q.

    Chart by chart, the product of the two tangent weights and the product
    of the two class weights of every hook (l, a) with l + a + 1 <= n_max,
    divided by their gcd signed like the tangent product, go to slot
    l*(n_max+1) + a of one hook table, and a partition's products are
    those of its cells' hooks.  So an entry pair is the partition's ratio
    co/tan with a common factor removed, not its raw weight products, and
    every tangent entry is positive.  A class weight that vanishes, at the
    point or as the zero vector, is multiplied like any other: the gcd
    step makes its hook's pair (0, 1), so every partition through that
    hook has the co entry 0.
    """
    n_max = len(layout)
    stride = n_max + 1
    co_tables, tan_tables = [], []
    for P, Q, si, sj in scalars:
        base_val = si * P + sj * Q
        if not base_val:
            co_tables.append(None)
            tan_tables.append(None)
            continue
        co_hooks, tan_hooks = [None] * (stride * stride), [None] * (stride * stride)
        for l in range(n_max):
            for a in range(n_max - l):
                # the tangent weights (-l, a+1) and (l+1, -a) at the point
                t1, t2 = (a + 1) * Q - l * P, (l + 1) * P - a * Q
                tp, cp = t1 * t2, (t1 + base_val) * (t2 + base_val)
                # the pair in lowest terms, its tangent side positive
                g = gcd(tp, cp) if tp > 0 else -gcd(tp, cp)
                tan_hooks[l * stride + a] = tp // g
                co_hooks[l * stride + a] = cp // g
        for hooks, tables in ((co_hooks, co_tables), (tan_hooks, tan_tables)):
            table = [[1]]
            for size in layout:
                table.append([prod(map(hooks.__getitem__, row)) * table[k][i]
                              for row, k, i in size])
            tables.append(table)
    return co_tables, tan_tables


def _exact_sum(nums, dens):
    """sum(nums[i] / dens[i]) in lowest terms, as (numerator, denominator).
    Terms merge pairwise, each merge putting two sums over the lcm of their
    denominators with one gcd, so the whole sum ends as one integer
    numerator over the lcm of all denominators, reduced by one more gcd."""
    terms = list(zip(nums, dens)) or [(0, 1)]
    while len(terms) > 1:
        merged = []
        for (n1, d1), (n2, d2) in zip(terms[::2], terms[1::2]):
            g = gcd(d1, d2)
            merged.append((n1 * (d2 // g) + n2 * (d1 // g), d1 * (d2 // g)))
        terms = merged + terms[2 * len(merged):]
    num, den = terms[0]
    g = gcd(num, den)
    return num // g, den // g


def chart_product(co_tables, tan_tables, counts):
    """Coefficients 0..n_max of prod_c Z_c(q), Z_c[k] = sum co/tan over the
    partitions of k in chart c: for each n, the sum of prod co/prod tan over
    all chart assignments of total size n, as exact Fractions.  `counts`
    holds the number of partitions of each size 0..n_max, and is Z_c over
    the denominator 1 at a chart whose tables are None (`_weight_tables`:
    every ratio there is 1).

    Each other Z_c[k] is one exact sum over a common denominator
    (`_exact_sum`); a chart's sizes are then put over the lcm of their
    denominators, so the product over charts is a convolution of integers
    over the product of those lcms, and only the n_max + 1 results become
    Fractions.
    """
    n_max = len(counts) - 1
    total, den = [1] + [0] * n_max, 1
    for co_rows, tan_rows in zip(co_tables, tan_tables):
        if co_rows is None:
            z, d = counts, 1
        else:
            sums = [_exact_sum(co_rows[k], tan_rows[k]) for k in range(n_max + 1)]
            d = lcm(*(q for _, q in sums))
            z = [p * (d // q) for p, q in sums]
        total = [sum(map(mul, total[:n + 1], z[n::-1])) for n in range(n_max + 1)]
        den *= d
    return [Fraction(t, den) for t in total]


def _series_values(scalars, layout):
    """Integrals over S^[n] for n = 0..n_max from one chart-factored pass,
    on prebuilt `_chart_scalars` and `_cell_layout(n_max)`, whose sizes
    give the partition counts of the charts `_weight_tables` leaves
    untabulated.  Each exact result must be an integer; the first that is
    not raises IntegralityError."""
    co_tables, tan_tables = _weight_tables(scalars, layout)
    values = []
    for n, v in enumerate(chart_product(co_tables, tan_tables, [1, *map(len, layout)])):
        if v.denominator != 1:
            raise IntegralityError(f"fixed-point sum {v} is not an integer (n={n})")
        values.append(v.numerator)
    return values


def trace_terms(model, lin, n_max, at):
    """Per-fixed-point contributions of S^[n] for n = 0..n_max, for
    debugging small n: a list indexed by n of rows {"point", "term"}.  A
    point is the tuple of its nonempty charts, each as (chart, partition),
    and its term is the product over them of the partition's class product
    over its tangent product, read from the tables `co_series` sums, built
    once at n_max, so `at` must be generic (`_generic`) at n_max.  A chart
    without tables, where the bundle's weight is 0 at the point, gives
    every partition the factor 1.  Each partition is rebuilt from the cell
    layout, its first row's length on the smaller partition the layout
    points to.

    Each point is listed, then extended by one more nonempty chart after
    its last one: from the last chart down, each chart's sizes ascending,
    each size's partitions in `_cell_layout` order.  So for each n the
    points come in lexicographic order of their per-chart (size, index)
    choices, chart 0's varying slowest, and the walk nests once per
    nonempty chart, at most n_max + 1 deep."""
    layout = _cell_layout(n_max)
    co_tables, tan_tables = _weight_tables(_chart_scalars(model, lin, at), layout)
    parts = [[()]]
    for size in layout:
        parts.append([(len(row), *parts[k][i]) for row, k, i in size])
    by_n = [[] for _ in range(n_max + 1)]

    def walk(charts, size, num, den, after):
        by_n[size].append({"point": charts, "term": Fraction(num, den)})
        if size == n_max:
            return
        for c in range(len(co_tables) - 1, after, -1):
            co_rows, tan_rows = co_tables[c], tan_tables[c]
            for k in range(1, n_max - size + 1):
                factors = repeat((1, 1)) if co_rows is None else zip(co_rows[k], tan_rows[k])
                for lam, (co, tan) in zip(parts[k], factors):
                    walk(charts + ((c, lam),), size + k, num * co, den * tan, c)

    walk((), 0, 1, 1, -1)
    return by_n


def _draw_point(rng, numer, denom):
    """A point (x, y), each coordinate a sign, a numerator 1..numer and a
    denominator 1..denom drawn in that order: `co_series` draws its first
    point as integers, (99, 1), and its second from the wide set
    (9999, 60)."""
    x = Fraction(rng.choice((-1, 1)) * rng.randint(1, numer), rng.randint(1, denom))
    y = Fraction(rng.choice((-1, 1)) * rng.randint(1, numer), rng.randint(1, denom))
    return (x, y)


class CoSeriesResult(Record):
    values: tuple
    n_max: int
    eval_points: tuple
    seed: int
    elapsed: float


def co_series(model, lin, n_max, seed=0):
    """Integrals for n = 0..n_max at two independent evaluation points.

    A pair is a short point, integers with |x|, |y| <= 99, whose values are
    the ones returned and traced and the cheaper to sum, and a point from
    the wide set, numerators up to 9999 over denominators up to 60
    (`_draw_point`).  Pairs are drawn until both points are generic
    (`_generic`); the others lie on finitely many lines through the origin,
    so few pairs are refused.  A class weight that vanishes is a zero
    factor, not a reason to redraw.  At each point, a chart where the
    bundle's weight is 0 is counted, not tabulated (`_weight_tables`).
    The sums are exact, so two generic points of a consistent model agree:
    the first disagreement comes from the model and raises OracleError;
    a wrong model is a non-constant function of the ratio x : y, and the
    chance that it takes the first point's value at the second is set by
    the second point's draw alone.
    """
    rng = random.Random(seed)
    t0 = time.perf_counter()
    layout = _cell_layout(n_max)
    while True:
        p, q = _draw_point(rng, 99, 1), _draw_point(rng, 9999, 60)
        at_p, at_q = _chart_scalars(model, lin, p), _chart_scalars(model, lin, q)
        if _generic(at_p, n_max) and _generic(at_q, n_max):
            break
    vals_p, vals_q = _series_values(at_p, layout), _series_values(at_q, layout)
    if vals_p != vals_q:
        raise OracleError("evaluation points disagree; model data is inconsistent")
    return CoSeriesResult(
        values=tuple(vals_p),
        n_max=n_max,
        eval_points=(p, q),
        seed=seed,
        elapsed=time.perf_counter() - t0,
    )
