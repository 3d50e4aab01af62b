"""Tests for the equivariant residue oracle on Hilbert schemes of points."""

import random
from fractions import Fraction

import pytest

from dtseries.localization import (
    Chart,
    Edge,
    IntegralityError,
    Linearization,
    OracleError,
    ToricSurfaceModel,
    ZeroWeightError,
    chart_product,
    co_class_weights,
    co_series,
    fixed_point_series,
    hilb_fixed_points,
    integrate,
    line_bundle_p1xp1,
    line_bundle_p2,
    p1xp1,
    p2,
    tangent_weights,
    trace_terms,
)
from dtseries.partitions import arm, cells, leg, partition_list
from dtseries.qseries import euler_product

AT = (Fraction(7, 3), Fraction(-5, 11))


# ---------------------------------------------------------------------------
# models


def test_builtin_models_validate():
    assert p1xp1().validate().euler == 4
    assert p2().validate().euler == 3


def test_validate_rejects_non_unimodular_chart():
    bad = ToricSurfaceModel(name="bad", charts=(((2, 0), (0, 1)),), edges=())
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_edge_out_of_range():
    bad = ToricSurfaceModel(
        name="bad", charts=(((1, 0), (0, 1)),), edges=(Edge(0, 3, (1, 0)),)
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_validate_rejects_inconsistent_bundle_weights():
    model = p1xp1()
    # break one fiber weight of O(1,1); the edge rule must catch it
    lin = model.bundles["L"]
    weights = list(lin.weights)
    weights[0] = (5, 5)
    model.bundles["broken"] = Linearization(
        name="broken",
        weights=tuple(weights),
        edge_degrees=lin.edge_degrees,
        surface_class=lin.surface_class,
    )
    with pytest.raises(ValueError):
        model.validate()


def test_validate_rejects_wrong_weight_count():
    model = p2()
    model.bundles["short"] = Linearization(
        name="short", weights=((0, 0),), edge_degrees=(0, 0, 0), surface_class=(0,)
    )
    with pytest.raises(ValueError):
        model.validate()


def test_line_bundle_weight_tables():
    lin = line_bundle_p1xp1(2, 3)
    assert lin.weights == ((0, 0), (0, -3), (-2, 0), (-2, -3))
    assert lin.surface_class == (2, 3)
    lin = line_bundle_p2(2)
    assert lin.weights == ((0, 0), (-2, 0), (0, -2))


# ---------------------------------------------------------------------------
# tangent weights


def test_tangent_weights_single_box():
    chart = Chart((1, 0), (0, 1))
    ws = tangent_weights((1,), chart)
    assert sorted(ws) == [(0, 1), (1, 0)]


def test_tangent_weights_rank_is_two_n():
    for n in range(7):
        for parts in partition_list(n):
            for chart in p1xp1().charts + p2().charts:
                ws = tangent_weights(parts, chart)
                assert len(ws) == 2 * n
                assert (0, 0) not in ws


def test_tangent_weights_match_arm_leg_formula():
    # the conjugate-partition shortcut against partitions.arm/leg, cell by cell
    for model in (p1xp1(), p2()):
        for chart in model.charts:
            (x1, y1), (x2, y2) = chart.w1, chart.w2
            for n in range(9):
                for parts in partition_list(n):
                    expected = []
                    for (i, j) in cells(parts):
                        a, l = arm(parts, i, j), leg(parts, i, j)
                        expected.append((-l * x1 + (a + 1) * x2, -l * y1 + (a + 1) * y2))
                        expected.append(((l + 1) * x1 - a * x2, (l + 1) * y1 - a * y2))
                    assert tangent_weights(parts, chart) == expected


def test_tangent_weights_conjugate_symmetry():
    # transposing the diagram and swapping the two coordinate directions
    # permutes arm and leg, so the weight multiset is unchanged
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 7)
        parts = rng.choice(partition_list(n))
        conj = []
        for j in range(parts[0]):
            conj.append(sum(1 for p in parts if p > j))
        w1 = (rng.randint(-3, 3), rng.randint(-3, 3))
        w2 = (rng.randint(-3, 3), rng.randint(-3, 3))
        a = tangent_weights(parts, Chart(w1, w2))
        b = tangent_weights(tuple(conj), Chart(w2, w1))
        assert sorted(a) == sorted(b)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_census_matches_euler_product():
    # the count of partition tuples of total size n is the q^n coefficient
    # of prod (1-q^k)^(-#charts)
    for model, e in ((p1xp1(), -4), (p2(), -3)):
        series = euler_product(e, 7)
        for n in range(7):
            count = sum(1 for _ in hilb_fixed_points(model.euler, n))
            assert count == series.coefficient(n)


def test_fixed_points_have_total_n():
    for fp in hilb_fixed_points(3, 4):
        assert fp.total == 4
        assert len(fp.parts) == 3


def test_co_class_weights_rank_two_n():
    # one weight per tangent weight: the class has rank 2n, matching the
    # tangent space, which is what makes the denominators cancel
    model = p1xp1()
    lin = model.bundles["L"]
    for fp in hilb_fixed_points(4, 3):
        ws = co_class_weights(fp, model, lin)
        assert len(ws) == 6


def test_co_class_weights_structural_zero():
    from dtseries.localization import HilbFixedPoint

    model = p1xp1()
    fp = HilbFixedPoint(parts=((1,), (), (), ()))
    # box weight (0,1) in chart 0 plus shift (0,-1) on the trivial bundle
    with pytest.raises(ZeroWeightError) as err:
        co_class_weights(fp, model, model.bundles["trivial"], shift=(0, -1))
    assert err.value.structural


# ---------------------------------------------------------------------------
# integrals


def test_integrate_p1xp1_degree_11():
    model = p1xp1()
    lin = model.bundles["L"]
    assert [integrate(model, lin, n, AT) for n in range(4)] == [1, 10, 65, 330]


def test_integrate_p1xp1_trivial_counts_fixed_points():
    # with the trivial bundle the class weights equal the tangent weights,
    # so every term is 1 and the integral is the fixed point count
    model = p1xp1()
    lin = model.bundles["trivial"]
    assert [integrate(model, lin, n, AT) for n in range(5)] == [1, 4, 14, 40, 105]


def test_integrate_p2():
    model = p2()
    assert [integrate(model, model.bundles["L"], n, AT) for n in range(4)] == [1, 7, 35, 140]
    assert [integrate(model, model.bundles["trivial"], n, AT) for n in range(4)] == [1, 3, 9, 22]


def test_integrate_returns_int():
    val = integrate(p2(), p2().bundles["L"], 2, AT)
    assert type(val) is int and val == 35


def test_integrate_eval_point_invariance():
    model = p1xp1()
    lin = model.bundles["L"]
    points = [(Fraction(3), Fraction(5)), (Fraction(-9, 7), Fraction(22, 3)), AT]
    vals = {integrate(model, lin, 3, p) for p in points}
    assert vals == {330}


def test_integrate_shift_invariance():
    # shifts far larger than any arm/leg weight cannot collide with a box
    model = p2()
    lin = model.bundles["L"]
    vals = {integrate(model, lin, 3, AT, shift=s) for s in ((0, 0), (101, 103), (-57, 89))}
    assert vals == {140}


def test_integrate_higher_degree_bundles():
    # O(2) on the plane and O(2,1) on the quadric at a couple of degrees;
    # values pinned by eval-point invariance plus the n=1 closed form
    # (integral at n=1 equals e(S) - K.D + D^2 for the bundle class D)
    model = p2()
    model.bundles["two"] = line_bundle_p2(2)
    model.validate()
    assert integrate(model, model.bundles["two"], 1, AT) == 3 + 6 + 4
    q = p1xp1()
    q.bundles["21"] = line_bundle_p1xp1(2, 1)
    q.validate()
    assert integrate(q, q.bundles["21"], 1, AT) == 4 + 6 + 4


def test_integrate_zero_weight_at_eval_point():
    # partition (1,1) has tangent weight (-1,1), which vanishes on the diagonal
    with pytest.raises(ZeroWeightError) as err:
        integrate(p1xp1(), p1xp1().bundles["L"], 2, (Fraction(1), Fraction(1)))
    assert not err.value.structural


def test_integrate_structural_zero_weight():
    with pytest.raises(ZeroWeightError) as err:
        integrate(p1xp1(), p1xp1().bundles["trivial"], 1, AT, shift=(0, -1))
    assert err.value.structural


def test_integrate_class_weight_vanishes_at_point():
    # shift (1,0) turns the box weight (0,1) into (1,1), which dies at (-1,1)
    with pytest.raises(ZeroWeightError) as err:
        integrate(
            p1xp1(), p1xp1().bundles["trivial"], 1, (Fraction(-1), Fraction(1)), shift=(1, 0)
        )
    assert not err.value.structural


def test_integrality_error_on_fake_geometry():
    # a single affine chart is not compact; the fixed-point sum is a generic
    # rational function and the integrality check must fire
    model = ToricSurfaceModel(name="a2", charts=(((1, 0), (0, 1)),), edges=())
    lin = Linearization(name="w", weights=((-2, 1),), edge_degrees=(), surface_class=(0,))
    with pytest.raises(IntegralityError):
        integrate(model, lin, 1, (Fraction(5, 3), Fraction(7, 2)))


# ---------------------------------------------------------------------------
# trace terms


def test_trace_terms_sum_to_integral():
    model = p1xp1()
    lin = model.bundles["L"]
    rows = trace_terms(model, lin, 2, AT)
    assert len(rows) == 14
    assert sum(r["term"] for r in rows) == 65


@pytest.mark.parametrize("shift", [(0, 0), (101, 103)])
@pytest.mark.parametrize("bundle", ["L", "trivial"])
@pytest.mark.parametrize("make", [p1xp1, p2])
def test_integrate_equals_fixed_point_walk(make, bundle, shift):
    # the chart-factored pass against the direct sum over partition tuples
    model = make()
    lin = model.bundles[bundle]
    for n in range(6):
        assert integrate(model, lin, n, AT, shift) == sum(
            r["term"] for r in trace_terms(model, lin, n, AT, shift)
        )


def test_fixed_point_series_entries_are_integrals():
    model = p2()
    lin = model.bundles["L"]
    series = fixed_point_series(model, lin, 5, AT)
    assert series == [integrate(model, lin, n, AT) for n in range(6)]
    assert all(type(v) is int for v in series)


def test_trace_terms_trivial_bundle_all_ones():
    rows = trace_terms(p2(), p2().bundles["trivial"], 2, AT)
    assert [r["term"] for r in rows] == [1] * 9


# ---------------------------------------------------------------------------
# series driver


def test_co_series_values_and_metadata():
    model = p1xp1()
    res = co_series(model, model.bundles["L"], 5, seed=0)
    assert res.values == (1, 10, 65, 330, 1430, 5512)
    assert res.n_max == 5
    assert len(res.eval_points) == 2
    assert res.eval_points[0] != res.eval_points[1]
    assert res.shift == (0, 0)
    assert res.seed == 0
    assert res.elapsed >= 0


def test_co_series_deterministic_per_seed():
    model = p2()
    a = co_series(model, model.bundles["L"], 3, seed=5)
    b = co_series(model, model.bundles["L"], 3, seed=5)
    assert a.values == b.values == (1, 7, 35, 140)
    assert a.eval_points == b.eval_points


def test_co_series_seed_changes_points_not_values():
    model = p2()
    a = co_series(model, model.bundles["trivial"], 3, seed=1)
    b = co_series(model, model.bundles["trivial"], 3, seed=2)
    assert a.values == b.values == (1, 3, 9, 22)
    assert a.eval_points != b.eval_points


def test_co_series_no_attempts_raises():
    model = p2()
    with pytest.raises(OracleError):
        co_series(model, model.bundles["L"], 1, max_attempts=0)


# ---------------------------------------------------------------------------
# chart product


def _oracle_sum(co_tables, tan_tables, n):
    """Direct Fraction-arithmetic evaluation of the composition sum."""
    num_charts = len(co_tables)

    def walk(chart, remaining):
        if chart == num_charts - 1:
            row_c = co_tables[chart][remaining]
            row_t = tan_tables[chart][remaining]
            return sum(Fraction(a, b) for a, b in zip(row_c, row_t))
        total = Fraction(0)
        for k in range(remaining + 1):
            row_c = co_tables[chart][k]
            row_t = tan_tables[chart][k]
            inner = walk(chart + 1, remaining - k)
            total += sum(Fraction(a, b) for a, b in zip(row_c, row_t)) * inner
        return total

    return walk(0, n)


def test_chart_product_matches_direct_sum():
    # one call gives every n <= n_max; each must equal the composition sum
    rng = random.Random(77)
    for _ in range(15):
        num_charts = rng.randint(1, 3)
        n_max = rng.randint(0, 4)
        co_tables = []
        tan_tables = []
        for _c in range(num_charts):
            co_rows = []
            tan_rows = []
            for k in range(n_max + 1):
                width = len(partition_list(k))
                co_rows.append([rng.randint(-50, 50) for _ in range(width)])
                tan_rows.append(
                    [rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(width)]
                )
            co_tables.append(co_rows)
            tan_tables.append(tan_rows)
        got = chart_product(co_tables, tan_tables, n_max)
        assert got == [_oracle_sum(co_tables, tan_tables, n) for n in range(n_max + 1)]


def test_chart_product_single_cell():
    assert chart_product([[[4]]], [[[8]]], 0) == [Fraction(1, 2)]
