"""Equivariant residue oracle on Hilbert schemes of points of toric surfaces.

A toric surface is given by its smooth fan alone: `toric_surface` derives
each fixed point's chart (the dual basis of its cone's two rays) and each
line bundle's fiber weights (from its divisor coefficients per ray), so the
models are consistent by construction.

Fixed points of the torus on S^[n] are tuples of partitions, one per fixed
point (chart) of S; tangent weights come from arm/leg statistics of the
diagrams, and the obstruction-type class attached to a linearized line
bundle is the tangent twisted by the bundle, contributing one weight
w_F(L) + t per tangent weight t (rank 2n, like the tangent).  The integral
is the sum over fixed points of prod(class weights)/prod(tangent weights),
evaluated at a generic rational point of the Lie algebra.

Each term is a product of one factor per chart, so the sums for all n are
the coefficients of one product of per-chart series:

    sum_n q^n * integral over S^[n]  =  prod_c Z_c(q),
    Z_c(q) = sum_lambda q^|lambda| * co_c(lambda) / tan_c(lambda),

computed exactly, truncated at q^n_max, in one pass per evaluation point.
Exactness of the arithmetic plus a degree count make every coefficient an
integer independent of the evaluation point and of the chosen linearization
shift; integrality and both independences are rechecked at runtime.
`trace_terms` keeps the direct walk over fixed points as a cross-check.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .partitions import conjugate, partition_list


class ZeroWeightError(ArithmeticError):
    """A weight vanished: structurally (zero vector) or at the chosen
    evaluation point.  Callers re-randomize; structural zeros additionally
    need a different linearization shift."""

    def __init__(self, msg, structural=False):
        super().__init__(msg)
        self.structural = structural


class IntegralityError(ArithmeticError):
    """The fixed-point sum failed to be an integer; the model data is wrong."""


class OracleError(RuntimeError):
    """Could not obtain a stable answer after re-randomizing."""


@dataclass(frozen=True)
class Chart:
    """Torus weights of the two coordinate directions at a surface fixed point."""

    w1: tuple
    w2: tuple


@dataclass(frozen=True)
class Linearization:
    """The equivariant line bundle O(sum_i a_i D_i): its divisor coefficients
    a_i per ray, its fiber weight at each fixed point, and its divisor class
    in the surface model's basis."""

    name: str
    divisor: tuple
    weights: tuple
    surface_class: tuple


@dataclass(frozen=True)
class ToricSurfaceModel:
    """A smooth toric surface given by its fan, with the charts and bundle
    weights that `toric_surface` derives from it."""

    name: str
    rays: tuple
    cones: tuple
    charts: tuple
    bundles: dict

    @property
    def euler(self):
        return len(self.charts)


def _int_vector(v, length, what):
    v = tuple(v)
    if len(v) != length or not all(type(x) is int for x in v):
        raise ValueError(f"{what} must be {length} integers, got {list(v)}")
    return v


def toric_surface(name, rays, cones, bundles):
    """Build a toric surface model from a smooth fan.

    `rays` are primitive integer 2-vectors v_i; each cone (i, j) is an ordered
    pair of ray indices, one per fixed point, and its chart is the dual basis
    of (v_i, v_j).  `bundles` maps a key to (label, surface_class, divisor):
    the bundle O(sum_i a_i D_i) has weight m at cone (i, j) with
    <m, v_i> = a_i and <m, v_j> = a_j.  Raises ValueError when a cone index
    is out of range, when det(v_i, v_j) is not +-1 (a repeated index gives
    0), or when a divisor does not have one coefficient per ray.
    """
    rays = tuple(_int_vector(v, 2, f"{name}: ray") for v in rays)
    cones = tuple(_int_vector(c, 2, f"{name}: cone") for c in cones)
    charts = []
    for i, j in cones:
        if not (0 <= i < len(rays) and 0 <= j < len(rays)):
            raise ValueError(f"{name}: cone {[i, j]} has a ray index outside 0..{len(rays) - 1}")
        (a, b), (c, d) = rays[i], rays[j]
        det = a * d - b * c
        if det not in (1, -1):  # also catches a repeated index (det 0)
            raise ValueError(f"{name}: cone {[i, j]} is not smooth (det {det})")
        # inverse of [[a, b], [c, d]] transposed; 1/det = det
        charts.append(Chart((d * det, -c * det), (-b * det, a * det)))
    lins = {}
    for key, (label, surface_class, divisor) in bundles.items():
        divisor = _int_vector(divisor, len(rays), f"{name}/{label}: divisor")
        weights = tuple(
            (divisor[i] * ch.w1[0] + divisor[j] * ch.w2[0],
             divisor[i] * ch.w1[1] + divisor[j] * ch.w2[1])
            for (i, j), ch in zip(cones, charts)
        )
        lins[key] = Linearization(label, divisor, weights, tuple(surface_class))
    return ToricSurfaceModel(name, rays, cones, tuple(charts), lins)


def p1xp1():
    """P1 x P1 with the product torus action; charts ordered (0,0),(0,1),(1,0),(1,1).
    O(a,b) is the divisor a*D_2 + b*D_3."""
    return toric_surface(
        "p1xp1",
        rays=((1, 0), (0, 1), (-1, 0), (0, -1)),
        cones=((0, 1), (0, 3), (2, 1), (2, 3)),
        bundles={"L": ("O(1,1)", (1, 1), (0, 0, 1, 1)),
                 "trivial": ("O(0,0)", (0, 0), (0, 0, 0, 0))},
    )


def p2():
    """P2 with the standard torus action; fixed points are the coordinate
    points.  O(d) is the divisor d*D_2."""
    return toric_surface(
        "p2",
        rays=((1, 0), (0, 1), (-1, -1)),
        cones=((0, 1), (2, 1), (2, 0)),
        bundles={"L": ("O(1)", (1,), (0, 0, 1)), "trivial": ("O(0)", (0,), (0, 0, 0))},
    )


def tangent_weights(parts, chart):
    """Tangent weights of the Hilbert scheme at the monomial ideal of a
    partition, in one chart: each cell contributes the arm/leg pair
    -l*w1 + (a+1)*w2 and (l+1)*w1 - a*w2, cells taken row by row.  Arm and
    leg of cell (i, j) are parts[i]-j-1 and conj[j]-i-1, with conj the
    conjugate partition."""
    (x1, y1), (x2, y2) = chart.w1, chart.w2
    conj = conjugate(parts)
    out = []
    for i, p in enumerate(parts):
        for j in range(p):
            a = p - j - 1
            l = conj[j] - i - 1
            out.append((-l * x1 + (a + 1) * x2, -l * y1 + (a + 1) * y2))
            out.append(((l + 1) * x1 - a * x2, (l + 1) * y1 - a * y2))
    return out


@dataclass(frozen=True)
class HilbFixedPoint:
    """A torus-fixed subscheme: one partition per surface fixed point."""

    parts: tuple

    @property
    def total(self):
        return sum(sum(p) for p in self.parts)


def hilb_fixed_points(num_charts, n):
    """All fixed points of S^[n]: tuples of partitions with total size n."""

    def compose(c, remaining):
        if c == num_charts - 1:
            for lam in partition_list(remaining):
                yield (lam,)
            return
        for k in range(remaining + 1):
            for lam in partition_list(k):
                for rest in compose(c + 1, remaining - k):
                    yield (lam,) + rest

    for parts in compose(0, n):
        yield HilbFixedPoint(parts=parts)


def co_class_weights(point, model, lin, shift=(0, 0)):
    """Weights of the obstruction-type class at a fixed point: one weight
    w_F(L) + t per tangent weight t, so rank 2n in total.  A zero vector is
    a structural failure (the common shift must be changed), reported as
    such."""
    out = []
    for c, parts in enumerate(point.parts):
        wl = lin.weights[c]
        base = (wl[0] + shift[0], wl[1] + shift[1])
        for t in tangent_weights(parts, model.charts[c]):
            w = (t[0] + base[0], t[1] + base[1])
            if w == (0, 0):
                raise ZeroWeightError(
                    f"structurally zero weight at chart {c}, partition {parts}",
                    structural=True,
                )
            out.append(w)
    return out


def _eval_scalars(at):
    x, y = Fraction(at[0]), Fraction(at[1])
    return x.numerator * y.denominator, y.numerator * x.denominator


def _weight_tables(model, lin, n_max, at, shift):
    """Evaluate all per-partition weight products as exact integers.

    Returns co_tables, tan_tables indexed [chart][size][partition], for
    sizes 0..n_max.  Denominators of the evaluation point cancel between
    the co and tangent products (both have rank 2n), so the tables hold the
    cleared integer values a*A + b*B.  Sizes are visited in increasing
    order, charts within a size, so the first zero weight reported is the
    one of smallest size.
    """
    A, B = _eval_scalars(at)
    bases = [(wl[0] + shift[0], wl[1] + shift[1]) for wl in lin.weights]
    co_tables = [[] for _ in model.charts]
    tan_tables = [[] for _ in model.charts]
    for k in range(n_max + 1):
        for c, chart in enumerate(model.charts):
            base = bases[c]
            base_val = base[0] * A + base[1] * B
            co_row = []
            tan_row = []
            for parts in partition_list(k):
                tp = 1
                cp = 1
                for (a, b) in tangent_weights(parts, chart):
                    v = a * A + b * B
                    if v == 0:
                        raise ZeroWeightError(
                            f"tangent weight ({a},{b}) vanishes at the evaluation point"
                        )
                    tp *= v
                    if (a + base[0], b + base[1]) == (0, 0):
                        raise ZeroWeightError(
                            f"structurally zero weight at chart {c}", structural=True
                        )
                    w = v + base_val
                    if w == 0:
                        raise ZeroWeightError(
                            f"class weight vanishes at the evaluation point (chart {c})"
                        )
                    cp *= w
                co_row.append(cp)
                tan_row.append(tp)
            co_tables[c].append(co_row)
            tan_tables[c].append(tan_row)
    return co_tables, tan_tables


def chart_product(co_tables, tan_tables, n_max):
    """Coefficients 0..n_max of prod_c Z_c(q), Z_c[k] = sum co/tan over the
    partitions of k in chart c: for each n, the sum of prod co/prod tan over
    all chart assignments of total size n, as exact Fractions."""
    total = [Fraction(1)] + [Fraction(0)] * n_max
    for co_rows, tan_rows in zip(co_tables, tan_tables):
        z = [sum(map(Fraction, co_rows[k], tan_rows[k])) for k in range(n_max + 1)]
        total = [sum(total[i] * z[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
    return total


def fixed_point_series(model, lin, n_max, at, shift=(0, 0)):
    """Integrals over S^[n] for n = 0..n_max at the rational point `at`, from
    one chart-factored pass.  Each exact result must be an integer; the
    first that is not raises IntegralityError."""
    co_tables, tan_tables = _weight_tables(model, lin, n_max, at, shift)
    values = []
    for n, v in enumerate(chart_product(co_tables, tan_tables, n_max)):
        if v.denominator != 1:
            raise IntegralityError(
                f"fixed-point sum {v} is not an integer (n={n}, at={at})"
            )
        values.append(v.numerator)
    return values


def trace_terms(model, lin, n, at, shift=(0, 0)):
    """Per-fixed-point contributions, for debugging small n."""
    A, B = _eval_scalars(at)
    rows = []
    for fp in hilb_fixed_points(model.euler, n):
        num = 1
        den = 1
        for c, parts in enumerate(fp.parts):
            wl = lin.weights[c]
            base = (wl[0] + shift[0], wl[1] + shift[1])
            for (a, b) in tangent_weights(parts, model.charts[c]):
                den *= a * A + b * B
                num *= (a + base[0]) * A + (b + base[1]) * B
        term = Fraction(num, den)
        rows.append({"point": [list(p) for p in fp.parts], "term": term})
    return rows


def _draw_point(rng):
    x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9999), rng.randint(1, 60))
    y = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9999), rng.randint(1, 60))
    return (x, y)


@dataclass(frozen=True)
class CoSeriesResult:
    values: tuple
    n_max: int
    eval_points: tuple
    shift: tuple
    seed: int
    elapsed: float


def co_series(model, lin, n_max, seed=0, max_attempts=8):
    """Integrals for n = 0..n_max at two independent evaluation points.

    Zero weights trigger fresh points (and, for structural zeros, a fresh
    common shift of the linearization); the two evaluations must agree
    exactly, and persistent disagreement is an error, not a retry loop.
    """
    rng = random.Random(seed)
    shift = (0, 0)
    disagreements = 0
    t0 = time.perf_counter()
    for _ in range(max_attempts):
        p, q = _draw_point(rng), _draw_point(rng)
        try:
            vals_p = fixed_point_series(model, lin, n_max, p, shift)
            vals_q = fixed_point_series(model, lin, n_max, q, shift)
        except ZeroWeightError as exc:
            if exc.structural:
                shift = (rng.randint(-40, 40), rng.randint(-40, 40))
            continue
        if vals_p == vals_q:
            return CoSeriesResult(
                values=tuple(vals_p),
                n_max=n_max,
                eval_points=(p, q),
                shift=shift,
                seed=seed,
                elapsed=time.perf_counter() - t0,
            )
        disagreements += 1
        if disagreements >= 2:
            break
    if disagreements:
        raise OracleError("evaluation points persistently disagree; model data is inconsistent")
    raise OracleError("no generic evaluation data found after re-randomizing")
