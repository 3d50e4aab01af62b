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
A cell's two weights depend only on its hook (leg l, arm a), so each chart
gets one table over the hooks with l + a + 1 <= n_max, holding the product
of the two tangent weights and the product of the two class weights of
each; a weight that vanishes at the point is caught there.  Whether a
class weight is the zero vector depends on the shift alone, and
`_structural_zero` decides it in closed form.  A partition's products are
products of its cells' entries, built row on row from one cell layout that
`co_series` makes once per call (removing a partition's first row changes
no other cell's hook).  Each Z_c[k] is one exact sum over a common
denominator, and the product over charts is a convolution of integers, so
no Fraction is made per partition.

Exactness of the arithmetic plus a degree count make every coefficient an
integer independent of the evaluation point and of the chosen linearization
shift; integrality and both independences are rechecked at runtime.
`trace_terms` lists the fixed points' terms one by one, read from the same
tables; the direct walk over every cell of every fixed point is kept in the
tests as the independent reference.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .geometry import ModelError, Record, _ints, _typed_fields

# evaluation points (and shifts) co_series draws before giving up
MAX_ATTEMPTS = 8


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
    """Cached tuple of all partitions of n (used heavily by the localization sums)."""
    return tuple(partitions(n))


class ZeroWeightError(ArithmeticError):
    """A tangent or class weight vanished at the chosen evaluation point;
    callers draw another point."""


class OracleError(RuntimeError):
    """The oracle's sums are inconsistent, or no generic point was found."""


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
    """The partitions of sizes 1..n_max, each size in `partition_list`
    order, as (row, k, i): the hooks of the cells of the first row, left to
    right, and the place (size k, index i) of the partition that removing
    that row leaves.  Removing the first row changes no other cell's arm or
    leg, so a partition's weight products are those of its first row times
    those of the rest.  The hook with leg l and arm a is the one integer
    l*(n_max+1) + a, its slot in the hook tables."""
    stride = n_max + 1
    # column heights as lists: short-lived tuples of many lengths would
    # fill the interpreter's per-length tuple free lists, and resident
    # memory grows with every call
    place, heights = {(): (0, 0)}, {(): []}
    layout = []
    for k in range(1, n_max + 1):
        size = []
        for i, parts in enumerate(partition_list(k)):
            first, rest = parts[0], parts[1:]
            # the first row's legs are the column heights of the rest
            legs = heights[rest] + [0] * (first - len(heights[rest]))
            size.append(([l * stride + first - 1 - j for j, l in enumerate(legs)], *place[rest]))
            heights[parts] = [l + 1 for l in legs]
            place[parts] = (k, i)
        layout.append(size)
    return layout


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


def _chart_scalars(model, lin, at, shift):
    """Per chart, at cone (i, j): P = <w1, at> and Q = <w2, at> with the
    denominators of `at` cleared, and the linearization's chart coordinates
    s_i = a_i + <shift, v_i>, s_j = a_j + <shift, v_j>.  For v_i = (a, b)
    and v_j = (c, d) the dual basis is w1 = det*(d, -c), w2 = det*(-b, a),
    as 1/det = det.  A weight (x, y) evaluates to x*P + y*Q; its class
    weight is (x + s_i, y + s_j)."""
    x, y = Fraction(at[0]), Fraction(at[1])
    A, B = x.numerator * y.denominator, y.numerator * x.denominator
    out = []
    for i, j in model.cones:
        (a, b), (c, d) = model.rays[i], model.rays[j]
        det = a * d - b * c
        out.append((
            det * (d * A - c * B),
            det * (a * B - b * A),
            lin.divisor[i] + shift[0] * a + shift[1] * b,
            lin.divisor[j] + shift[0] * c + shift[1] * d,
        ))
    return out


def _structural_zero(scalars, n_max):
    """Whether a chart's class weight is the zero vector for some hook
    (l, a) with l + a + 1 <= n_max, whatever the point.  The class weights
    (s_i - l, s_j + a + 1) and (s_i + l + 1, s_j - a) vanish exactly when
    s_i = l >= 0 > -(a+1) = s_j or s_j = a >= 0 > -(l+1) = s_i, and then
    |s_i - s_j| = l + a + 1.  So a chart has one exactly when one of s_i,
    s_j is >= 0, the other < 0, and |s_i - s_j| <= n_max."""
    return any((si < 0) != (sj < 0) and abs(si - sj) <= n_max for _, _, si, sj in scalars)


def _hook_tables(scalars, n_max):
    """Per chart, the product of the two tangent weights and the product of
    the two class weights of every hook (l, a) with l + a + 1 <= n_max, as
    cleared integers at slot l*(n_max+1) + a.  A tangent or class weight
    that vanishes at the point raises ZeroWeightError; a class weight that
    is the zero vector (`_structural_zero`) is one of these."""
    stride = n_max + 1
    co_hooks = [[None] * (stride * stride) for _ in scalars]
    tan_hooks = [[None] * (stride * stride) for _ in scalars]
    for c, (P, Q, si, sj) in enumerate(scalars):
        base_val = si * P + sj * Q
        for l in range(n_max):
            for a in range(n_max - l):
                tp = cp = 1
                for (x, y) in ((-l, a + 1), (l + 1, -a)):
                    v = x * P + y * Q
                    if v == 0:
                        raise ZeroWeightError(
                            f"tangent weight ({x},{y}) vanishes at the evaluation point"
                        )
                    w = v + base_val
                    if w == 0:
                        raise ZeroWeightError(
                            f"class weight vanishes at the evaluation point (chart {c})"
                        )
                    tp *= v
                    cp *= w
                tan_hooks[c][l * stride + a] = tp
                co_hooks[c][l * stride + a] = cp
    return co_hooks, tan_hooks


def _partition_products(hooks, layout):
    """[size][partition] products of the hook table `hooks` over the cells of
    each partition of `layout`, the empty partition's product being 1."""
    table = [[1]]
    for size in layout:
        table.append([prod(map(hooks.__getitem__, row)) * table[k][i] for row, k, i in size])
    return table


def _weight_tables(scalars, layout):
    """Evaluate all per-partition weight products as exact integers.

    `scalars` are the `_chart_scalars` of one evaluation point and shift,
    and `layout` is `_cell_layout(n_max)`.  Returns co_tables, tan_tables
    indexed [chart][size][partition], for sizes 0..n_max.  Denominators of
    the evaluation point cancel between the co and tangent products (both
    have rank 2n), so the tables hold the cleared integer values x*P + y*Q.
    A partition's products are those of its cells' hook products, read
    from one table per chart (`_hook_tables`, which makes the zero checks).
    """
    co_hooks, tan_hooks = _hook_tables(scalars, len(layout))
    co_tables = [_partition_products(hooks, layout) for hooks in co_hooks]
    tan_tables = [_partition_products(hooks, layout) for hooks in tan_hooks]
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


def chart_product(co_tables, tan_tables, n_max):
    """Coefficients 0..n_max of prod_c Z_c(q), Z_c[k] = sum co/tan over the
    partitions of k in chart c: for each n, the sum of prod co/prod tan over
    all chart assignments of total size n, as exact Fractions.

    Each Z_c[k] is one exact sum over a common denominator (`_exact_sum`);
    a chart's sizes are then put over the lcm of their denominators, so the
    product over charts is a convolution of integers over the product of
    those lcms, and only the n_max + 1 results become Fractions.
    """
    total, den = [1] + [0] * n_max, 1
    for co_rows, tan_rows in zip(co_tables, tan_tables):
        sums = [_exact_sum(co_rows[k], tan_rows[k]) for k in range(n_max + 1)]
        d = lcm(*(q for _, q in sums))
        z = [p * (d // q) for p, q in sums]
        total = [sum(map(mul, total[:n + 1], z[n::-1])) for n in range(n_max + 1)]
        den *= d
    return [Fraction(t, den) for t in total]


def _series_values(scalars, layout):
    """`fixed_point_series` on prebuilt `_chart_scalars` and `_cell_layout`."""
    co_tables, tan_tables = _weight_tables(scalars, layout)
    values = []
    for n, v in enumerate(chart_product(co_tables, tan_tables, len(layout))):
        if v.denominator != 1:
            raise IntegralityError(f"fixed-point sum {v} is not an integer (n={n})")
        values.append(v.numerator)
    return values


def fixed_point_series(model, lin, n_max, at, shift=(0, 0)):
    """Integrals over S^[n] for n = 0..n_max at the rational point `at`, from
    one chart-factored pass.  Each exact result must be an integer; the
    first that is not raises IntegralityError."""
    return _series_values(_chart_scalars(model, lin, at, shift), _cell_layout(n_max))


def trace_terms(model, lin, n, at, shift=(0, 0)):
    """Per-fixed-point contributions, for debugging small n: each term is
    the product over charts of a partition's class product over its tangent
    product, read from the tables `co_series` sums."""
    co_tables, tan_tables = _weight_tables(_chart_scalars(model, lin, at, shift),
                                           _cell_layout(n))
    places = [{parts: i for i, parts in enumerate(partition_list(k))} for k in range(n + 1)]
    rows = []
    for point in hilb_fixed_points(model.euler, n):
        num = den = 1
        for co_rows, tan_rows, parts in zip(co_tables, tan_tables, point):
            k = sum(parts)
            i = places[k][parts]
            num *= co_rows[k][i]
            den *= tan_rows[k][i]
        rows.append({"point": [list(p) for p in point], "term": Fraction(num, den)})
    return rows


def _draw_point(rng):
    x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9999), rng.randint(1, 60))
    y = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9999), rng.randint(1, 60))
    return (x, y)


class CoSeriesResult(Record):
    values: tuple
    n_max: int
    eval_points: tuple
    shift: tuple
    seed: int
    elapsed: float


def co_series(model, lin, n_max, seed=0):
    """Integrals for n = 0..n_max at two independent evaluation points.

    A shift that makes some class weight the zero vector
    (`_structural_zero`) is redrawn, and a weight that vanishes at a drawn
    point draws fresh points, at most MAX_ATTEMPTS draws in all.  The
    sums are exact, so two valid points of a consistent model agree: the
    first disagreement comes from the model and raises OracleError.
    """
    rng = random.Random(seed)
    shift = (0, 0)
    t0 = time.perf_counter()
    layout = _cell_layout(n_max)
    for _ in range(MAX_ATTEMPTS):
        p, q = _draw_point(rng), _draw_point(rng)
        scalars = _chart_scalars(model, lin, p, shift)
        if _structural_zero(scalars, n_max):
            shift = (rng.randint(-40, 40), rng.randint(-40, 40))
            continue
        try:
            vals_p = _series_values(scalars, layout)
            vals_q = _series_values(_chart_scalars(model, lin, q, shift), layout)
        except ZeroWeightError:
            continue
        if vals_p != vals_q:
            raise OracleError("evaluation points disagree; model data is inconsistent")
        return CoSeriesResult(
            values=tuple(vals_p),
            n_max=n_max,
            eval_points=(p, q),
            shift=shift,
            seed=seed,
            elapsed=time.perf_counter() - t0,
        )
    raise OracleError("no generic evaluation data found after re-randomizing")
