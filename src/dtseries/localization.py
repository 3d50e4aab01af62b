"""Equivariant residue oracle on Hilbert schemes of points of toric surfaces.

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
from dataclasses import dataclass, field
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
class Edge:
    """Invariant curve joining fixed points a and b, with the tangent
    direction at a; used only for linearization consistency checks."""

    a: int
    b: int
    tangent_a: tuple


@dataclass(frozen=True)
class Linearization:
    """An equivariant line bundle: fiber weight at each fixed point, the
    degree on each invariant curve, and its divisor class on the surface."""

    name: str
    weights: tuple
    edge_degrees: tuple
    surface_class: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(tuple(w) for w in self.weights))
        object.__setattr__(self, "edge_degrees", tuple(self.edge_degrees))
        object.__setattr__(self, "surface_class", tuple(self.surface_class))


@dataclass
class ToricSurfaceModel:
    name: str
    charts: tuple
    edges: tuple
    bundles: dict = field(default_factory=dict)

    def __post_init__(self):
        self.charts = tuple(
            c if isinstance(c, Chart) else Chart(tuple(c[0]), tuple(c[1])) for c in self.charts
        )
        self.edges = tuple(
            e if isinstance(e, Edge) else Edge(e[0], e[1], tuple(e[2])) for e in self.edges
        )

    @property
    def euler(self):
        return len(self.charts)

    def validate(self):
        for c in self.charts:
            det = c.w1[0] * c.w2[1] - c.w1[1] * c.w2[0]
            if det not in (1, -1):
                raise ValueError(f"{self.name}: chart basis {c} is not unimodular")
        for e in self.edges:
            if not (0 <= e.a < self.euler and 0 <= e.b < self.euler):
                raise ValueError(f"{self.name}: edge endpoints out of range")
        for lin in self.bundles.values():
            if len(lin.weights) != self.euler:
                raise ValueError(f"{self.name}/{lin.name}: one weight per chart required")
            if len(lin.edge_degrees) != len(self.edges):
                raise ValueError(f"{self.name}/{lin.name}: one degree per edge required")
            for e, deg in zip(self.edges, lin.edge_degrees):
                wa, wb = lin.weights[e.a], lin.weights[e.b]
                if (wa[0] - wb[0], wa[1] - wb[1]) != (deg * e.tangent_a[0], deg * e.tangent_a[1]):
                    raise ValueError(
                        f"{self.name}/{lin.name}: weights inconsistent on edge {e.a}-{e.b}"
                    )
        return self


def p1xp1():
    """P1 x P1 with the product torus action; charts ordered (0,0),(0,1),(1,0),(1,1)."""
    charts = []
    for i in (0, 1):
        for j in (0, 1):
            charts.append(Chart(((-1) ** i, 0), (0, (-1) ** j)))
    edges = (Edge(0, 2, (1, 0)), Edge(1, 3, (1, 0)), Edge(0, 1, (0, 1)), Edge(2, 3, (0, 1)))
    model = ToricSurfaceModel(name="p1xp1", charts=tuple(charts), edges=edges)
    model.bundles["L"] = line_bundle_p1xp1(1, 1)
    model.bundles["trivial"] = line_bundle_p1xp1(0, 0)
    return model.validate()


def line_bundle_p1xp1(a, b):
    """O(a,b) with its natural linearization (dual tautological weights)."""
    weights = []
    for i in (0, 1):
        for j in (0, 1):
            weights.append((-i * a, -j * b))
    return Linearization(
        name=f"O({a},{b})",
        weights=tuple(weights),
        edge_degrees=(a, a, b, b),
        surface_class=(a, b),
    )


def p2():
    """P2 with the standard torus action; fixed points are the coordinate points."""
    charts = (Chart((1, 0), (0, 1)), Chart((-1, 0), (-1, 1)), Chart((0, -1), (1, -1)))
    edges = (Edge(0, 1, (1, 0)), Edge(0, 2, (0, 1)), Edge(1, 2, (-1, 1)))
    model = ToricSurfaceModel(name="p2", charts=charts, edges=edges)
    model.bundles["L"] = line_bundle_p2(1)
    model.bundles["trivial"] = line_bundle_p2(0)
    return model.validate()


def line_bundle_p2(d):
    return Linearization(
        name=f"O({d})",
        weights=((0, 0), (-d, 0), (0, -d)),
        edge_degrees=(d, d, d),
        surface_class=(d,),
    )


BUILTIN_TORIC = {"p1xp1": p1xp1, "p2": p2}


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


def integrate(model, lin, n, at, shift=(0, 0)):
    """Fixed-point sum of prod(class weights)/prod(tangent weights) on S^[n],
    evaluated at the rational point `at`; the exact result must be an integer."""
    return fixed_point_series(model, lin, n, at, shift)[n]


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
