"""Tests for the equivariant residue oracle on Hilbert schemes of points."""

import random
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from dtseries.localization import (
    IntegralityError,
    Linearization,
    ToricSurfaceModel,
    _cell_layout,
    _chart_scalars,
    _draw_point,
    _generic,
    _weight_tables,
    chart_product,
    co_series,
    p1xp1,
    p2,
    trace_terms,
)
from dtseries import localization
from dtseries.geometry import ModelError
from dtseries.qseries import euler_product
from oracle_reference import (
    VanishingWeightError,
    bundle_weights,
    cell_weight_tables,
    chart_closed_forms,
    co_class_weights,
    conjugate,
    direct_trace_terms,
    dual_basis,
    equivalent_divisor,
    euler_power,
    fan_delta,
    fixed_point_series,
    fraction_chart_product,
    hilb_fixed_points,
    hook_pairs,
    nonempty_charts,
    partition_list,
    random_fan,
    tangent_weights,
    weight_tables,
)

AT = (Fraction(7, 3), Fraction(-5, 11))


# ---------------------------------------------------------------------------
# models


# the cones of the builtin models when they were typed by hand
HAND_TYPED_CONES = {"p1xp1": ((0, 1), (0, 3), (2, 1), (2, 3)),
                    "p2": ((0, 1), (2, 1), (2, 0))}


def test_builtin_models_validate():
    # the consecutive pairs of rays are the hand-typed cones, up to order
    # within and among the cones; the reference's dual bases, and the
    # oracle's P = <w1, at>, Q = <w2, at> against them
    for model in (p1xp1(), p2()):
        assert len(model.cones) == len(HAND_TYPED_CONES[model.name])
        assert {frozenset(c) for c in model.cones} == {
            frozenset(c) for c in HAND_TYPED_CONES[model.name]
        }
    assert p1xp1().cones == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert dual_basis(p1xp1()) == (
        ((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0)),
    )
    assert dual_basis(p2()) == (
        ((1, 0), (0, 1)), ((-1, 1), (-1, 0)), ((0, -1), (1, -1)),
    )
    for model in (p1xp1(), p2()):
        scalars = _chart_scalars(model, model.bundles["trivial"], (3, 5))
        assert [(P, Q) for P, Q, _, _ in scalars] == [
            (3 * w1[0] + 5 * w1[1], 3 * w2[0] + 5 * w2[1]) for w1, w2 in dual_basis(model)
        ]
    assert p1xp1().euler == 4
    assert p2().euler == 3


def test_validate_rejects_non_unimodular_chart():
    with pytest.raises(ValueError, match=r"= \[2, 1, 2\]: .* not smooth"):
        ToricSurfaceModel("bad", rays=((2, 0), (0, 1), (-1, -1)), bundles={})
    # a repeated ray makes the cone (1, 2) of one ray
    with pytest.raises(ModelError, match=r"= \[1, 0, 1, 1\]: .* not smooth"):
        ToricSurfaceModel("bad", rays=((1, 0), (0, 1), (0, 1), (-1, -1)), bundles={})


def test_validate_rejects_incomplete_fan():
    # the rays of a complete fan go once around the origin, turning one way:
    # P2's rays twice over, no ray, one ray, one affine chart (its two rays
    # turn one way and back), and P1xP1's rays out of cyclic order (two
    # opposite rays meet)
    for rays, message in ((P2_FAN * 2, "wind 2 times"),
                          ((), "wind 0 times"),
                          (((1, 0),), r"= \[0\]"),
                          (((1, 0), (0, 1)), r"= \[1, -1\]"),
                          (((1, 0), (-1, 0), (0, 1), (0, -1)), r"= \[0, -1, 0, 1\]")):
        with pytest.raises(ModelError, match=message):
            ToricSurfaceModel("fan", rays, {})


def test_validate_rejects_mixed_orientation():
    # det(v_k, v_(k+1)) = +1 at (0, 1) and (1, 2), -1 at (2, 3) and (3, 0):
    # every cone is smooth, but the rays turn back
    with pytest.raises(ModelError, match=r"= \[1, 1, -1, -1\]: .* turn back"):
        ToricSurfaceModel("fan", ((1, 0), (0, 1), (-1, 0), (-1, 1)), {})
    # either way round is one surface: P2 and P1xP1 listed clockwise
    for model in (p2(), p1xp1()):
        rays = model.rays[::-1]
        bundles = {key: Linearization(lin.name, lin.divisor[::-1], lin.surface_class)
                   for key, lin in model.bundles.items()}
        clockwise = ToricSurfaceModel(model.name, rays, bundles)
        assert {frozenset(c) for c in clockwise.cones} == {
            frozenset((len(rays) - 1 - i, len(rays) - 1 - j)) for i, j in model.cones
        }
        for key, lin in model.bundles.items():
            assert (clockwise.intersection_numbers(bundles[key].divisor)
                    == model.intersection_numbers(lin.divisor))
            want = co_series(model, lin, 6, seed=0).values
            assert co_series(clockwise, bundles[key], 6, seed=0).values == want


def test_validate_rejects_wrong_weight_count():
    # a divisor needs one coefficient per ray
    model = p2()
    with pytest.raises(ValueError):
        ToricSurfaceModel("p2", model.rays, {"short": Linearization("short", (0, 0), (0,))})


def test_validate_rejects_untyped_fan_and_bundles():
    # the model checks its own fields: a bundle is a Linearization, not the
    # (label, class, divisor) triple, and True is no ray coordinate
    model = p2()
    with pytest.raises(ValueError, match="must be a Linearization"):
        ToricSurfaceModel("p2", model.rays, {"L": ("O(1)", (1,), (0, 0, 1))})
    with pytest.raises(ValueError, match="ToricSurfaceModel.rays"):
        ToricSurfaceModel("p2", ((1, 0), (0, 1), (-1, [True])), {})
    with pytest.raises(ValueError, match="ray must be an integer pair"):
        ToricSurfaceModel("p2", ((1, 0), (0, 1), (-1, -1, 0)), {})
    with pytest.raises(ValueError, match="Linearization.name"):
        Linearization(None, (0, 0, 1), (1,))


def test_line_bundle_weight_tables():
    # literal torus weights from the reference: the independent anchor for
    # the signs of the chart coordinates (a_i, a_j)
    model = ToricSurfaceModel("p1xp1", p1xp1().rays,
                              {"b": Linearization("O(2,3)", (0, 0, 2, 3), (2, 3))})
    lin = model.bundles["b"]
    assert bundle_weights(model, lin) == ((0, 0), (-2, 0), (-2, -3), (0, -3))
    assert lin.surface_class == (2, 3)
    assert lin.divisor == (0, 0, 2, 3)
    # one cell at the second fixed point: tangent weights w2, w1 of its chart
    assert tangent_weights((1,), dual_basis(model)[1]) == [(-1, 0), (0, 1)]
    assert co_class_weights(((), (1,), (), ()), model, lin) == [(-3, 0), (-2, 1)]
    model = ToricSurfaceModel("p2", p2().rays, {"b": Linearization("O(2)", (0, 0, 2), (2,))})
    lin = model.bundles["b"]
    assert bundle_weights(model, lin) == ((0, 0), (-2, 0), (0, -2))
    assert tangent_weights((1,), dual_basis(model)[1]) == [(-1, 0), (-1, 1)]
    assert co_class_weights(((), (1,), ()), model, lin) == [(-3, 0), (-3, 1)]


# ---------------------------------------------------------------------------
# tangent weights


def test_tangent_weights_single_box():
    assert hook_pairs((1,)) == [(0, 1), (1, 0)]
    assert hook_pairs(()) == []


def test_tangent_weights_rank_is_two_n():
    for n in range(7):
        for parts in partition_list(n):
            ws = hook_pairs(parts)
            assert len(ws) == 2 * n
            assert (0, 0) not in ws


def test_tangent_weights_match_arm_leg_formula():
    # hook pairs (x, y) in each chart's basis against the reference's
    # torus vectors, built cell by cell from arm and leg
    for model in (p1xp1(), p2()):
        for chart in dual_basis(model):
            (x1, y1), (x2, y2) = chart
            for n in range(9):
                for parts in partition_list(n):
                    assert [(x * x1 + y * x2, x * y1 + y * y2)
                            for x, y in hook_pairs(parts)] == tangent_weights(parts, chart)


def test_tangent_weights_conjugate_symmetry():
    # transposing the diagram swaps arm and leg, which swaps the two chart
    # coordinates, so the weight multiset is unchanged up to that swap
    for n in range(9):
        for parts in partition_list(n):
            swapped = sorted((y, x) for x, y in hook_pairs(conjugate(parts)))
            assert sorted(hook_pairs(parts)) == swapped


def _counted_as_ones(tables, n_max):
    # the oracle's tables, each chart it counts instead of tabulating
    # (None) written out as the ratio 1 at every partition, shaped by the
    # reference's partition_list
    ones = [[1] * len(partition_list(k)) for k in range(n_max + 1)]
    return tuple([ones if rows is None else rows for rows in side] for side in tables)


def hook_weight_tables(model, lin, n_max, at):
    """The oracle's tables, from the hook tables over one cell layout, with
    its counted charts written out as tables of ones."""
    return _counted_as_ones(_weight_tables(_chart_scalars(model, lin, at), _cell_layout(n_max)),
                            n_max)


def _outcome(tables, *args):
    # the reference's tables, or "zero" where a tangent weight vanished at
    # the point, cell by cell
    try:
        return tables(*args)
    except VanishingWeightError:
        return "zero"


def _oracle_outcome(model, lin, n_max, at):
    # the oracle's tables, or "zero" where `_generic` refuses the point
    scalars = _chart_scalars(model, lin, at)
    if not _generic(scalars, n_max):
        return "zero"
    return _counted_as_ones(_weight_tables(scalars, _cell_layout(n_max)), n_max)


def _same_outcome(got, want):
    return got == want if isinstance(want, str) else _same_ratios(got, want)


def _kind(outcome):
    # "zero", "vanishing" where some class product is 0, or "tables"
    if isinstance(outcome, str):
        return outcome
    return "vanishing" if any(0 in row for rows in outcome[0] for row in rows) else "tables"


def _same_ratios(got, want):
    # the oracle's tables against the reference's raw products, entry by
    # entry, with the same shapes: a positive tangent entry and one integer
    # f with co_ref == f * co and tan_ref == f * tan (f's sign is tan_ref's)
    if isinstance(got, str):
        return False
    tables = (*got, *want)
    shapes = [[[len(row) for row in rows] for rows in t] for t in tables]
    if any(s != shapes[0] for s in shapes):
        return False
    flat = [[v for rows in t for row in rows for v in row] for t in tables]
    for co, tan, co_ref, tan_ref in zip(*flat):
        f, r = divmod(tan_ref, tan)
        if tan < 1 or r or co_ref != f * co:
            return False
    return True


def _fan_models(*fans):
    # each fan with the zero divisor and the divisor (0, 1, 2, ...)
    for rays in fans:
        yield ToricSurfaceModel("fan", rays, {
            "0": Linearization("0", (0,) * len(rays), ()),
            "D": Linearization("D", tuple(range(len(rays))), ()),
        })


def test_chart_coordinates_match_torus_reference():
    # every chart of P2, P1xP1, F1 and F2, partitions up to n = 6: the
    # oracle's tables equal the reference's torus-vector evaluation up to
    # one common factor per entry, or `_generic` refuses the point exactly
    # where the reference meets a vanishing tangent weight, at random points and equivalent divisors a_k + <m, v_k> small
    # enough to make class weights vanish too
    rng = random.Random(6)
    seen = set()
    for model in _fan_models(P2_FAN, P1XP1_FAN, F1_FAN, F2_FAN):
        for lin in model.bundles.values():
            for _ in range(12):
                at = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                moved = equivalent_divisor(model, lin, (rng.randint(-2, 2), rng.randint(-2, 2)))
                want = _outcome(weight_tables, model, moved, 6, at)
                assert _same_outcome(_oracle_outcome(model, moved, 6, at), want)
                seen.add(_kind(want))
            at = (Fraction(7919, 13), Fraction(-104729, 17))
            assert _same_ratios(hook_weight_tables(model, lin, 6, at),
                                weight_tables(model, lin, 6, at))
    assert seen == {"tables", "vanishing", "zero"}


def test_each_chart_is_carlsson_okounkov_on_the_plane():
    # chart by chart, the series sum_k q^k sum co/tan of the oracle's tables
    # is prod (1-q^k)^(-(m+P)(m+Q)/(PQ)) at the chart's scalars, on P1xP1
    # and P2 with both bundles, on a 6-ray fan at an equivalent divisor, and
    # on P1xP1's trivial bundle moved so that a class weight is the zero
    # vector
    hexagon = ToricSurfaceModel(
        "hexagon", ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
        {"D": Linearization("D", (1, -2, 0, 3, 1, 2), ())})
    cases = [(model, lin) for model in (p1xp1(), p2()) for lin in model.bundles.values()]
    cases.append((hexagon, equivalent_divisor(hexagon, hexagon.bundles["D"], (7, -11))))
    cases.append((p1xp1(), equivalent_divisor(p1xp1(), p1xp1().bundles["trivial"], (0, -1))))
    for model, lin in cases:
        co_tables, tan_tables = hook_weight_tables(model, lin, 8, AT)
        got = [[sum(map(Fraction, co_rows[k], tan_rows[k])) for k in range(9)]
               for co_rows, tan_rows in zip(co_tables, tan_tables)]
        assert got == chart_closed_forms(model, lin, 8, AT), model.name


def test_hook_tables_match_cell_by_cell_reference():
    # the hook tables against the per-cell walk they replace, for n <= 7 on
    # every chart of P2, P1xP1, F1 and F2: tables equal up to one common
    # factor per entry, or `_generic` refuses the point exactly where the
    # reference meets a vanishing tangent weight, at points and equivalent
    # divisors small enough to make class weights vanish too
    rng = random.Random(11)
    seen = set()
    for model in _fan_models(P2_FAN, P1XP1_FAN, F1_FAN, F2_FAN):
        for lin in model.bundles.values():
            for _ in range(40):
                n_max = rng.randint(0, 7)
                # small spans and characters hit zeros, wide spans reach n_max
                span = rng.choice((5, 200))
                at = (Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                      Fraction(rng.randint(-span, span), rng.randint(1, 3)))
                m = (rng.randint(-3, 3), rng.randint(-3, 3)) if rng.random() < 0.5 else (0, 0)
                moved = equivalent_divisor(model, lin, m)
                want = _outcome(cell_weight_tables, _chart_scalars(model, moved, at), n_max)
                assert _same_outcome(_oracle_outcome(model, moved, n_max, at), want)
                seen.add(_kind(want))
    assert seen == {"tables", "vanishing", "zero"}


def test_zero_weight_charts_cancel_to_one():
    # where the bundle's weight is zero each class weight is its tangent
    # weight, so every partition's ratio cancels to 1: the reference's
    # class and tangent products are equal entry by entry there and only
    # there, and the oracle builds no table for those charts and a table
    # not all 1 for the others; on every chart of the trivial bundle on P2
    # and P1xP1, n <= 8, and on chart 0 of their L, whose other charts have
    # nonzero weight
    for model in (p2(), p1xp1()):
        for key, zero in (("trivial", [True] * model.euler),
                          ("L", [True] + [False] * (model.euler - 1))):
            lin = model.bundles[key]
            scalars = _chart_scalars(model, lin, AT)
            assert [(si, sj) == (0, 0) for _, _, si, sj in scalars] == zero
            ref_co, ref_tan = weight_tables(model, lin, 8, AT)
            co_tables, tan_tables = _weight_tables(scalars, _cell_layout(8))
            for c, (co_rows, tan_rows) in enumerate(zip(co_tables, tan_tables)):
                assert (ref_co[c] == ref_tan[c]) == zero[c], (model.name, key, c)
                if zero[c]:
                    assert co_rows is None and tan_rows is None
                    continue
                assert [len(row) for row in co_rows] == [len(partition_list(k)) for k in range(9)]
                assert not all(v == 1 for rows in (co_rows, tan_rows) for row in rows
                               for v in row), (model.name, key, c)


def test_one_cell_entries_are_coprime():
    # a one-cell partition's entry is its hook's pair, stored divided by
    # their gcd: coprime on every chart of P2, P1xP1 and a generated fan
    fans = _fan_models(random_fan(random.Random(30), blowups=4))
    cases = [(m, lin) for m in (p2(), p1xp1()) for lin in m.bundles.values()]
    cases += [(m, lin) for m in fans for lin in m.bundles.values()]
    for model, lin in cases:
        co_tables, tan_tables = hook_weight_tables(model, lin, 6, AT)
        for co_rows, tan_rows in zip(co_tables, tan_tables):
            (co,), (tan,) = co_rows[1], tan_rows[1]
            assert gcd(co, tan) == 1, (model.name, lin.name)


# ---------------------------------------------------------------------------
# fixed points


def test_fixed_point_census_matches_euler_product():
    # the count of partition tuples of total size n is the q^n coefficient
    # of prod (1-q^k)^(-#charts)
    for model, e in ((p1xp1(), -4), (p2(), -3)):
        series = euler_product(e, 7)
        for n in range(7):
            count = sum(1 for _ in hilb_fixed_points(model.euler, n))
            assert count == series.coeffs[n]


def test_fixed_points_have_total_n():
    points = list(hilb_fixed_points(3, 4))
    assert len(points) == len(set(points)) == 51
    for fp in points:
        assert sum(map(sum, fp)) == 4
        assert len(fp) == 3


def test_co_class_weights_rank_two_n():
    # one weight per tangent weight: the class has rank 2n, matching the
    # tangent space, which is what makes the denominators cancel
    model = p1xp1()
    lin = model.bundles["L"]
    for fp in hilb_fixed_points(4, 3):
        ws = co_class_weights(fp, model, lin)
        assert len(ws) == 6


def test_co_class_weights_structural_zero():
    # the trivial bundle moved by the character (0, -1) is the divisor
    # (0, -1, 0, 1): its class weight at the box of chart 0 is the box
    # weight (0, 1) plus (0, -1), the zero vector, which the reference lists
    # like any other weight; at every point the oracle's hook table holds
    # the pair (0, 1) for that box
    model = p1xp1()
    lin = equivalent_divisor(model, model.bundles["trivial"], (0, -1))
    assert lin.divisor == (0, -1, 0, 1)
    assert (0, 0) in co_class_weights(((1,), (), (), ()), model, lin)
    for at in (AT, (Fraction(3), Fraction(5))):
        co_tables, tan_tables = hook_weight_tables(model, lin, 1, at)
        assert (co_tables[0][1], tan_tables[0][1]) == ([0], [1])


# ---------------------------------------------------------------------------
# integrals


def test_integrate_p1xp1_degree_11():
    model = p1xp1()
    lin = model.bundles["L"]
    assert fixed_point_series(model, lin, 3, AT) == [1, 10, 65, 330]


def test_integrate_p1xp1_trivial_counts_fixed_points():
    # with the trivial bundle the class weights equal the tangent weights,
    # so every term is 1 and the integral is the fixed point count
    model = p1xp1()
    lin = model.bundles["trivial"]
    assert fixed_point_series(model, lin, 4, AT) == [1, 4, 14, 40, 105]


def test_integrate_p2():
    model = p2()
    assert fixed_point_series(model, model.bundles["L"], 3, AT) == [1, 7, 35, 140]
    assert fixed_point_series(model, model.bundles["trivial"], 3, AT) == [1, 3, 9, 22]


def test_integrate_returns_int():
    val = fixed_point_series(p2(), p2().bundles["L"], 2, AT)[2]
    assert type(val) is int and val == 35


def test_integrate_eval_point_invariance():
    model = p1xp1()
    lin = model.bundles["L"]
    points = [(Fraction(3), Fraction(5)), (Fraction(-9, 7), Fraction(22, 3)), AT]
    vals = {fixed_point_series(model, lin, 3, p)[3] for p in points}
    assert vals == {330}


def test_integrate_shift_invariance():
    # the equivalent divisors a_k + <m, v_k> linearize one line bundle in
    # other ways: characters far larger than any arm/leg weight, and (0, -1),
    # which makes a class weight the zero vector in chart 0
    model = p2()
    lin = model.bundles["L"]
    shifts = ((0, 0), (101, 103), (-57, 89), (0, -1))
    vals = {fixed_point_series(model, equivalent_divisor(model, lin, m), 3, AT)[3]
            for m in shifts}
    assert vals == {140}


P2_FAN = ((1, 0), (0, 1), (-1, -1))
P1XP1_FAN = ((1, 0), (0, 1), (-1, 0), (0, -1))
F1_FAN = ((1, 0), (0, 1), (-1, 1), (0, -1))
F2_FAN = ((1, 0), (0, 1), (-1, 2), (0, -1))


@pytest.mark.parametrize(
    "fan, divisor, delta",
    [
        pytest.param(P2_FAN, (0, 0, 2), 13, id="p2-O2"),
        pytest.param(P1XP1_FAN, (0, 0, 2, 1), 14, id="p1xp1-O21"),
        pytest.param(F1_FAN, (0, 0, 1, 0), 6, id="f1-D2"),
        pytest.param(F1_FAN, (0, 0, 0, 1), 8, id="f1-D3"),
        pytest.param(F1_FAN, (0, 0, 1, 1), 12, id="f1-D2+D3"),
        pytest.param(F1_FAN, (0, 0, 0, 0), 4, id="f1-0"),
        pytest.param(F2_FAN, (0, 0, 1, 0), 6, id="f2-D2"),
        pytest.param(F2_FAN, (0, 0, 0, 1), 10, id="f2-D3"),
    ],
)
def test_integrate_higher_degree_bundles(fan, divisor, delta):
    # across the Hirzebruch family and beyond degree 1, the oracle's series is
    # prod (1-q^k)^(-delta) with delta = e(S) - K.D + D^2 read off the fan,
    # by the reference and by the model
    assert fan_delta(fan, divisor) == delta
    model = ToricSurfaceModel("fan", fan, {"D": Linearization("D", divisor, divisor)})
    e, KD, DD = model.intersection_numbers(divisor)
    assert e - KD + DD == delta
    res = co_series(model, model.bundles["D"], 5, seed=0)
    assert list(res.values) == [int(c) for c in euler_product(-delta, 6).coeffs]


def test_co_series_on_generated_fans():
    # the same on 60 smooth fans of 3-9 rays, P2 or F_a blown up torically,
    # each with a random divisor: Carlsson-Okounkov holds on every smooth
    # projective toric surface and every divisor
    rng = random.Random(2012)
    sizes = set()
    for _ in range(60):
        rays = random_fan(rng)
        divisor = tuple(rng.randint(-3, 3) for _ in rays)
        model = ToricSurfaceModel("fan", rays, {"D": Linearization("D", divisor, ())})
        e, KD, DD = model.intersection_numbers(divisor)
        delta = fan_delta(rays, divisor)
        assert e - KD + DD == delta
        res = co_series(model, model.bundles["D"], 8, seed=0)
        assert list(res.values) == [int(c) for c in euler_product(-delta, 9).coeffs]
        sizes.add(len(rays))
    assert sizes == set(range(3, 10))


def _has_zero_class_vector(model, lin, n_max):
    # whether some cell of a partition of size <= n_max has, in some chart,
    # a class weight that is the zero vector: each hook (l, a) with
    # l + a + 1 <= n_max is the corner of the partition (a+1, 1^l), whose
    # torus vectors the reference builds
    hooks = [(a + 1,) + (1,) * l for l in range(n_max) for a in range(n_max - l)]
    return any((t[0] + b[0], t[1] + b[1]) == (0, 0)
               for chart, b in zip(dual_basis(model), bundle_weights(model, lin))
               for parts in hooks for t in tangent_weights(parts, chart))


def test_co_series_multiplies_zero_class_weights_on_generated_fans(monkeypatch):
    # 300 seeded fans of 3-10 rays, divisor entries in -3..3, n_max up to 10,
    # most with a class weight that is the zero vector at the bundle's own
    # divisor: the values are prod (1-q^k)^(-delta) by the reference's own
    # recurrence, the trace's terms for n <= 3 are the direct walk's, and
    # co_series draws one pair of points, one more per pair `_generic`
    # rejects
    draw, generic = localization._draw_point, localization._generic
    draws, verdicts = [], []

    def counted_draw(rng, numer, denom):
        draws.append(1)
        return draw(rng, numer, denom)

    def counted_generic(scalars, n_max):
        verdicts.append(generic(scalars, n_max))
        return verdicts[-1]

    monkeypatch.setattr(localization, "_draw_point", counted_draw)
    monkeypatch.setattr(localization, "_generic", counted_generic)
    rng = random.Random(2024)
    with_zero = 0
    for seed in range(300):
        rays = random_fan(rng, blowups=6)
        divisor = tuple(rng.randint(-3, 3) for _ in rays)
        n_max = rng.randint(0, 10)
        model = ToricSurfaceModel("fan", rays, {"D": Linearization("D", divisor, ())})
        lin = model.bundles["D"]
        with_zero += _has_zero_class_vector(model, lin, n_max)
        draws.clear()
        verdicts.clear()
        res = co_series(model, lin, n_max, seed=seed)
        assert len(draws) == 2 * (1 + verdicts.count(False))
        assert list(res.values) == euler_power(-fan_delta(rays, divisor), n_max)
        depth = min(n_max, 3)
        assert trace_terms(model, lin, depth, res.eval_points[0]) == [
            [{"point": nonempty_charts(r["point"]), "term": r["term"]}
             for r in direct_trace_terms(model, lin, n, res.eval_points[0])]
            for n in range(depth + 1)
        ]
    assert with_zero == 226


def test_structural_zero_matches_torus_reference():
    # on generated fans with divisor entries in -3..3 moved by characters in
    # -6..6, at a point where no weight that is not the zero vector
    # vanishes: a partition's class entry in the oracle's table is 0
    # exactly when co_class_weights lists the zero vector at the fixed
    # point of S^[k], k <= n_max, with that partition as its one nonempty
    # chart
    rng = random.Random(2024)
    at = (Fraction(7919, 13), Fraction(-104729, 17))
    seen = set()
    for _ in range(60):
        rays = random_fan(rng)
        model = ToricSurfaceModel("fan", rays, {"D": Linearization(
            "D", tuple(rng.randint(-3, 3) for _ in rays), ())})
        lin = equivalent_divisor(model, model.bundles["D"], (rng.randint(-6, 6), rng.randint(-6, 6)))
        n_max = rng.randint(0, 6)
        co_tables, _ = hook_weight_tables(model, lin, n_max, at)
        for c in range(len(rays)):
            for k in range(1, n_max + 1):
                for parts, co in zip(partition_list(k), co_tables[c][k]):
                    point = ((),) * c + (parts,) + ((),) * (len(rays) - c - 1)
                    want = (0, 0) in co_class_weights(point, model, lin)
                    assert (co == 0) == want
                    seen.add(want)
    assert seen == {True, False}


def test_integrate_zero_weight_at_eval_point():
    # partition (1,1) has tangent weight (-1,1), which vanishes on the
    # diagonal: `_generic` refuses the point from n = 2 on, the reference's
    # torus vectors meet the zero there, and the oracle's sums, whose
    # precondition the point breaks, divide by it; a tangent weight is the
    # one kind whose zero makes a point unusable
    model, at = p1xp1(), (Fraction(1), Fraction(1))
    lin = model.bundles["L"]
    assert _generic(_chart_scalars(model, lin, at), 1)
    assert weight_tables(model, lin, 1, at)
    assert not _generic(_chart_scalars(model, lin, at), 2)
    with pytest.raises(VanishingWeightError, match="tangent weight"):
        weight_tables(model, lin, 2, at)
    with pytest.raises(ZeroDivisionError):
        fixed_point_series(model, lin, 2, at)
    with pytest.raises(ZeroDivisionError):
        trace_terms(model, lin, 2, at)


def test_generic_matches_cell_by_cell_reference():
    # the closed form against the reference's cell-by-cell walk on 3,000
    # generated fans, n_max 1..10, every other point a small integer point,
    # where tangent weights often vanish, and the rest drawn as co_series
    # draws its second point: `_generic` refuses a point exactly where the
    # walk meets a vanishing tangent weight
    rng = random.Random(3)
    refused = 0
    for case in range(3000):
        rays = random_fan(rng)
        n_max = rng.randint(1, 10)
        model = ToricSurfaceModel("fan", rays, {"0": Linearization("0", (0,) * len(rays), ())})
        at = ((Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))) if case % 2
              else _draw_point(rng, 9999, 60))
        scalars = _chart_scalars(model, model.bundles["0"], at)
        zero = _outcome(cell_weight_tables, scalars, n_max) == "zero"
        assert _generic(scalars, n_max) != zero, (rays, at, n_max)
        refused += zero
    assert refused == 1284


def test_integrate_structural_zero_weight():
    # the trivial bundle moved by (0, -1) has a class weight that is the
    # zero vector, so it vanishes at every point: a zero numerator, and the
    # integrals are the trivial bundle's fixed-point counts at every point
    model = p1xp1()
    lin = equivalent_divisor(model, model.bundles["trivial"], (0, -1))
    for at in (AT, (Fraction(3), Fraction(5))):
        assert fixed_point_series(model, lin, 4, at) == [1, 4, 14, 40, 105]


def test_integrate_class_weight_vanishes_at_point():
    # the trivial bundle moved by (1, 1) turns the box weight (0,1) of
    # chart 0 into (1,2), which dies at (2,-1) and nowhere off the line
    # x + 2y = 0: there the box's class entry is 0, and the integrals are
    # the same as at a point where nothing vanishes
    model = p1xp1()
    lin, at = equivalent_divisor(model, model.bundles["trivial"], (1, 1)), (Fraction(2), Fraction(-1))
    co_tables, _ = hook_weight_tables(model, lin, 1, at)
    assert co_tables[0][1] == [0]
    assert fixed_point_series(model, lin, 1, at) == fixed_point_series(model, lin, 1, AT) == [1, 4]


def test_integrality_error_on_fake_geometry():
    # two rays give two copies of one affine chart, which is not compact;
    # the fixed-point sum is a generic rational function and the integrality
    # check must fire.  Its model is refused when built
    # (test_validate_rejects_incomplete_fan), so its fields are set directly
    model = object.__new__(ToricSurfaceModel)
    for key, value in (("name", "a2"), ("rays", ((1, 0), (0, 1))),
                       ("bundles", {"w": Linearization("w", (-2, 1), (0,))})):
        object.__setattr__(model, key, value)
    assert model.cones == ((0, 1), (1, 0))
    assert bundle_weights(model, model.bundles["w"]) == ((-2, 1), (-2, 1))
    with pytest.raises(IntegralityError):
        fixed_point_series(model, model.bundles["w"], 1, (Fraction(5, 3), Fraction(7, 2)))


# ---------------------------------------------------------------------------
# trace terms


def test_trace_terms_sum_to_integral():
    model = p1xp1()
    lin = model.bundles["L"]
    by_n = trace_terms(model, lin, 2, AT)
    assert [len(rows) for rows in by_n] == [1, 4, 14]
    assert [sum(r["term"] for r in rows) for rows in by_n] == [1, 10, 65]


@pytest.mark.parametrize("shift", [(0, 0), (101, 103), (0, -1)])
@pytest.mark.parametrize("bundle", ["L", "trivial"])
@pytest.mark.parametrize("make", [p1xp1, p2])
def test_integrate_equals_fixed_point_walk(make, bundle, shift):
    # the chart-factored pass against the direct sum over partition tuples,
    # at the bundle's divisor moved by the character `shift`
    model = make()
    lin = equivalent_divisor(model, model.bundles[bundle], shift)
    assert fixed_point_series(model, lin, 5, AT) == [
        sum(r["term"] for r in direct_trace_terms(model, lin, n, AT)) for n in range(6)
    ]


@pytest.mark.parametrize("shift", [(0, 0), (101, 103), (0, -1)])
def test_trace_terms_match_direct_walk(shift):
    # the terms read from the oracle's tables against the reference walk
    # over every cell of every fixed point, its empty charts dropped: the
    # same points in the same order with the same Fractions, for every n
    # of one call, on P2, P1xP1, F1 and F2 and every bundle, its divisor
    # moved by the character `shift`
    models = [p2(), p1xp1(), *_fan_models(F1_FAN, F2_FAN)]
    count = 0
    for model in models:
        for lin in model.bundles.values():
            lin = equivalent_divisor(model, lin, shift)
            by_n = trace_terms(model, lin, 4, AT)
            assert by_n == [
                [{"point": nonempty_charts(r["point"]), "term": r["term"]}
                 for r in direct_trace_terms(model, lin, n, AT)]
                for n in range(5)
            ]
            assert all(type(r["term"]) is Fraction for rows in by_n for r in rows)
            count += sum(map(len, by_n))
    # two bundles each; fixed points of S^[0..4]: 86 on P2, 164 on the others
    assert count == 2 * (86 + 3 * 164)


def test_trace_terms_order_is_lexicographic_in_chart_choices():
    # chart 0 varies slowest, each chart's sizes ascend, and each size's
    # partitions come in the reference's partition_list order: the
    # per-chart (size, index) choices of total n, sorted, an order that
    # shares no code with the library's walk or the reference's recursion
    for model in (p2(), p1xp1(), *_fan_models(F1_FAN)):
        for lin in model.bundles.values():
            by_n = trace_terms(model, lin, 3, AT)
            for n, rows in enumerate(by_n):
                choices = [(k, i) for k in range(n + 1) for i in range(len(partition_list(k)))]
                want = sorted(point for point in product(choices, repeat=model.euler)
                              if sum(k for k, _ in point) == n)
                assert [r["point"] for r in rows] == [
                    tuple((c, partition_list(k)[i]) for c, (k, i) in enumerate(point) if k)
                    for point in want
                ]


def test_fixed_point_series_entries_are_integrals():
    model = p2()
    lin = model.bundles["L"]
    series = fixed_point_series(model, lin, 5, AT)
    assert series == [fixed_point_series(model, lin, n, AT)[n] for n in range(6)]
    assert all(type(v) is int for v in series)


def test_trace_terms_trivial_bundle_all_ones():
    by_n = trace_terms(p2(), p2().bundles["trivial"], 2, AT)
    assert [[r["term"] for r in rows] for rows in by_n] == [[1], [1] * 3, [1] * 9]


# ---------------------------------------------------------------------------
# series driver


def test_co_series_values_and_metadata():
    model = p1xp1()
    res = co_series(model, model.bundles["L"], 5, seed=0)
    assert res.values == (1, 10, 65, 330, 1430, 5512)
    assert res.n_max == 5
    assert len(res.eval_points) == 2
    assert res.eval_points[0] != res.eval_points[1]
    assert res.seed == 0
    assert set(res.asdict()) == {"values", "n_max", "eval_points", "seed", "elapsed"}
    assert res.elapsed >= 0
    # a divisor with a negative entry, outside the model's bundles: a class
    # weight is the zero vector, and the values are prod (1-q^k)^(-2)
    res = co_series(model, Linearization("n", (0, 0, -1, 0), (0, 0)), 6)
    assert res.values == (1, 2, 5, 10, 20, 36, 65)


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


def test_co_series_matches_reference_tables(monkeypatch):
    # 240 seeded calls, a bundle whose divisor makes a class weight the zero
    # vector among them, and 80 on 40 generated fans with divisor entries
    # in -3..3: the same values and evaluation points as co_series driven
    # by the per-cell tables and per-partition Fractions
    negative = ToricSurfaceModel("p1xp1", P1XP1_FAN,
                                 {"n": Linearization("n", (0, 0, -1, 0), (0, 0))})
    f1 = ToricSurfaceModel("f1", F1_FAN, {"D": Linearization("D", (0, 0, 1, 1), ())})
    jobs = [(m, m.bundles[b]) for m in (p1xp1(), p2()) for b in ("L", "trivial")]
    jobs += [(negative, negative.bundles["n"]), (f1, f1.bundles["D"])]
    calls = [(jobs[seed % len(jobs)], seed) for seed in range(240)]
    rng = random.Random(28)
    for seed in range(240, 320, 2):
        rays = random_fan(rng)
        model = ToricSurfaceModel("fan", rays, {"D": Linearization(
            "D", tuple(rng.randint(-3, 3) for _ in rays), ())})
        calls += [((model, model.bundles["D"]), seed), ((model, model.bundles["D"]), seed + 1)]
    got = [co_series(m, lin, 5, seed=seed) for (m, lin), seed in calls]

    def reference_tables(scalars, layout):
        return cell_weight_tables(scalars, len(layout))

    def reference_product(co_tables, tan_tables, counts):
        return fraction_chart_product(co_tables, tan_tables, len(counts) - 1)

    # zero class products among the seeded calls and among the fans' calls
    zeros = [any(0 in row for rows in hook_weight_tables(m, lin, 5, r.eval_points[0])[0]
                 for row in rows)
             for ((m, lin), _), r in zip(calls, got)]
    assert any(zeros[:240]) and any(zeros[240:])
    monkeypatch.setattr(localization, "_weight_tables", reference_tables)
    monkeypatch.setattr(localization, "chart_product", reference_product)
    want = [co_series(m, lin, 5, seed=seed) for (m, lin), seed in calls]
    assert [(r.values, r.eval_points) for r in got] == [(r.values, r.eval_points) for r in want]


def _reference_generic_pair(rng, model, lin, n_max):
    # pairs drawn as co_series draws them, until the reference's per-cell
    # walk meets no vanishing tangent weight at either point; the pair, the
    # reference's tables at each point, and the number of pairs refused
    refused = 0
    while True:
        pair = (_draw_point(rng, 99, 1), _draw_point(rng, 9999, 60))
        tables = [_outcome(cell_weight_tables, _chart_scalars(model, lin, at), n_max)
                  for at in pair]
        if "zero" not in tables:
            return pair, tables, refused
        refused += 1


def test_zero_weight_charts_are_counted_not_tabulated():
    # 150 seeded fans, divisor entries in -3..3 with the two at one random
    # cone set to 0, n_max <= 10, at the first pair of points the per-cell
    # reference accepts: at every chart where the bundle's weight, a torus
    # vector of the reference, vanishes at the point, the reference's class
    # and tangent products are equal entry by entry, and `_weight_tables`
    # builds no table there and one at every other chart; co_series is
    # prod (1-q^k)^(-delta) on every fan
    rng = random.Random(38)
    zero_charts = 0
    for case in range(150):
        rays = random_fan(rng)
        divisor = [rng.randint(-3, 3) for _ in rays]
        k = rng.randrange(len(rays))
        divisor[k] = divisor[(k + 1) % len(rays)] = 0
        lin = Linearization("D", tuple(divisor), ())
        model = ToricSurfaceModel("fan", rays, {"D": lin})
        n_max = rng.randint(0, 10)
        pair, reference, _ = _reference_generic_pair(rng, model, lin, n_max)
        layout = _cell_layout(n_max)
        for (x, y), (ref_co, ref_tan) in zip(pair, reference):
            co_tables, tan_tables = _weight_tables(_chart_scalars(model, lin, (x, y)), layout)
            for c, (bx, by) in enumerate(bundle_weights(model, lin)):
                zero = bx * x + by * y == 0
                assert (co_tables[c] is None) == (tan_tables[c] is None) == zero
                if zero:
                    assert ref_co[c] == ref_tan[c]
                zero_charts += zero
        res = co_series(model, lin, n_max, seed=case)
        assert list(res.values) == euler_power(-fan_delta(rays, divisor), n_max)
    assert zero_charts > 300


def test_co_series_sums_nothing_where_every_weight_is_zero(monkeypatch):
    # P2's trivial bundle has the weight (0, 0) at all three charts: one
    # co_series call at n = 12 builds no partition table and runs no exact
    # sum at either point (a table per chart and point would take 26), and
    # its values are prod (1-q^k)^(-3)
    weight_tables, exact_sum = localization._weight_tables, localization._exact_sum
    tables, sums, products = [], [], []

    def recorded_tables(scalars, layout):
        tables.append(weight_tables(scalars, layout))
        return tables[-1]

    def counted_sum(nums, dens):
        sums.append(1)
        return exact_sum(nums, dens)

    def counted_prod(factors):
        # the oracle's one use of prod: a first row's hook entries
        products.append(1)
        return prod(factors)

    monkeypatch.setattr(localization, "_weight_tables", recorded_tables)
    monkeypatch.setattr(localization, "_exact_sum", counted_sum)
    monkeypatch.setattr(localization, "prod", counted_prod)
    model = p2()
    lin = model.bundles["trivial"]
    res = co_series(model, lin, 12, seed=0)
    assert res.values == (1, 3, 9, 22, 51, 108, 221, 429, 810, 1479, 2640, 4599, 7868)
    assert list(res.values) == euler_power(-fan_delta(model.rays, lin.divisor), 12)
    assert tables == [([None] * 3, [None] * 3)] * 2
    assert sums == products == []


def test_weight_zero_at_the_point_is_counted_whatever_the_entries(monkeypatch):
    # 40 seeded fans, each with one cone whose divisor entries (s_i, s_j)
    # are not (0, 0) but make the bundle's weight s_i*P + s_j*Q vanish at an
    # integer point where P*Q < 0, so that chart is generic there: the
    # oracle counts that chart, whose class and tangent products the
    # per-cell reference finds equal, and its values and trace at the
    # point, and co_series evaluated there and at another point of its
    # line, equal the per-cell reference's
    rng = random.Random(39)
    cases = 0
    while cases < 40:
        rays = random_fan(rng)
        c = rng.randrange(len(rays))
        i, j = c, (c + 1) % len(rays)
        (w1, w2) = dual_basis(ToricSurfaceModel("fan", rays, {}))[c]
        x, y = rng.randint(-99, 99), rng.randint(-99, 99)
        P, Q = w1[0] * x + w1[1] * y, w2[0] * x + w2[1] * y
        if P * Q >= 0:
            continue
        divisor = [rng.randint(-3, 3) for _ in rays]
        divisor[i], divisor[j] = Q // gcd(P, Q), -P // gcd(P, Q)
        lin = Linearization("D", tuple(divisor), ())
        model = ToricSurfaceModel("fan", rays, {"D": lin})
        n_max = rng.randint(1, 6)
        at = (Fraction(x), Fraction(y))
        bx, by = bundle_weights(model, lin)[c]
        assert (bx, by) != (0, 0) and bx * x + by * y == 0
        scalars = _chart_scalars(model, lin, at)
        reference = _outcome(cell_weight_tables, scalars, n_max)
        if reference == "zero":
            # a tangent weight of another chart vanishes at the point
            continue
        ref_co, ref_tan = reference
        co_tables, tan_tables = _weight_tables(scalars, _cell_layout(n_max))
        assert co_tables[c] is None and tan_tables[c] is None
        assert ref_co[c] == ref_tan[c]
        want = fraction_chart_product(ref_co, ref_tan, n_max)
        assert fixed_point_series(model, lin, n_max, at) == want
        assert want == euler_power(-fan_delta(rays, divisor), n_max)
        depth = min(n_max, 3)
        assert trace_terms(model, lin, depth, at) == [
            [{"point": nonempty_charts(r["point"]), "term": r["term"]}
             for r in direct_trace_terms(model, lin, n, at)]
            for n in range(depth + 1)
        ]
        pair = (at, (at[0] * Fraction(-7, 3), at[1] * Fraction(-7, 3)))
        points = iter(pair)
        monkeypatch.setattr(localization, "_draw_point", lambda rng, *bounds: next(points))
        res = co_series(model, lin, n_max)
        assert res.eval_points == pair and list(res.values) == want
        cases += 1


def test_co_series_draws_a_short_first_point():
    # 200 seeds on P2 and P1 x P1 with both bundles, F1 and seeded fans,
    # n_max 0..12: the first point is a pair of integers in -99..99 and the
    # second has numerators up to 9999 over denominators up to 60; the pair
    # is the first one drawn at which the reference's per-cell walk meets no
    # vanishing tangent weight, and the values are prod (1-q^k)^(-delta)
    f1 = ToricSurfaceModel("f1", F1_FAN, {"D": Linearization("D", (0, 0, 1, 1), ())})
    jobs = [(m, m.bundles[b]) for m in (p2(), p1xp1()) for b in ("L", "trivial")]
    jobs.append((f1, f1.bundles["D"]))
    fans = random.Random(9)
    refused = wide = 0
    for seed in range(200):
        if seed % 6 < 5:
            model, lin = jobs[seed % 6]
        else:
            rays = random_fan(fans)
            model = ToricSurfaceModel("fan", rays, {"D": Linearization(
                "D", tuple(fans.randint(-3, 3) for _ in rays), ())})
            lin = model.bundles["D"]
        n_max = seed % 13
        res = co_series(model, lin, n_max, seed=seed)
        (x, y), (u, v) = res.eval_points
        assert all(t.denominator == 1 and 1 <= abs(t) <= 99 for t in (x, y))
        assert all(t.denominator <= 60 and 1 <= abs(t.numerator) <= 9999 for t in (u, v))
        pair, _, count = _reference_generic_pair(random.Random(seed), model, lin, n_max)
        assert res.eval_points == pair
        assert list(res.values) == euler_power(-fan_delta(model.rays, lin.divisor), n_max)
        refused += count
        wide += u.denominator > 1 or abs(u) > 99
    assert refused > 0 and wide > 190


@pytest.mark.parametrize("A", [((1, 1), (0, 1)), ((2, 1), (1, 1)), ((0, -1), (1, 0)),
                               ((1, 0), (2, -1))])  # the last is a reflection
def test_co_series_independent_of_torus_basis(A):
    # rays A v for A in GL(2, Z) give the same toric surface with the same
    # cones and bundles (a reflection lists them clockwise): the values
    # agree, at other seeds and so at other evaluation points
    for model in (p2(), p1xp1()):
        rays = tuple((A[0][0] * x + A[0][1] * y, A[1][0] * x + A[1][1] * y) for x, y in model.rays)
        moved = ToricSurfaceModel(model.name, rays, model.bundles)
        assert moved.rays != model.rays
        for key in ("L", "trivial"):
            want = co_series(model, model.bundles[key], 8, seed=0).values
            for seed in (1, 2):
                assert co_series(moved, moved.bundles[key], 8, seed=seed).values == want


@pytest.mark.parametrize("make, n_max, seed", [
    *((make, 12, seed) for make in (p2, p1xp1) for seed in (22, 23, 69)),
    (p2, 12, 94),
    (p1xp1, 12, 12),
    *((make, 4, seed) for make in (p2, p1xp1) for seed in (13646, 15193)),
])
def test_co_series_redraws_a_rejected_pair(make, n_max, seed):
    # at these seeds a tangent weight vanishes, by the reference's torus
    # vectors, at a point of the first pair drawn: co_series evaluates at
    # the second pair, the third and fourth draws, and its values are
    # prod (1-q^k)^(-delta) there as anywhere
    model = make()
    lin = model.bundles["L"]
    rng = random.Random(seed)
    first = [_draw_point(rng, 99, 1), _draw_point(rng, 9999, 60)]
    assert "zero" in [_outcome(weight_tables, model, lin, n_max, at) for at in first]
    res = co_series(model, lin, n_max, seed=seed)
    assert res.eval_points == (_draw_point(rng, 99, 1), _draw_point(rng, 9999, 60))
    assert list(res.values) == euler_power(-fan_delta(model.rays, lin.divisor), n_max)


# ---------------------------------------------------------------------------
# chart product


def _oracle_sum(co_tables, tan_tables, n):
    """Direct Fraction-arithmetic evaluation of the composition sum; a
    chart without tables has the ratio 1 at each of the reference's
    partitions."""
    num_charts = len(co_tables)

    def row_sum(chart, k):
        if co_tables[chart] is None:
            return sum(Fraction(1) for _ in partition_list(k))
        return sum(Fraction(a, b) for a, b in zip(co_tables[chart][k], tan_tables[chart][k]))

    def walk(chart, remaining):
        if chart == num_charts - 1:
            return row_sum(chart, remaining)
        total = Fraction(0)
        for k in range(remaining + 1):
            total += row_sum(chart, k) * walk(chart + 1, remaining - k)
        return total

    return walk(0, n)


def _counts(n_max):
    return [len(partition_list(k)) for k in range(n_max + 1)]


def test_chart_product_matches_direct_sum():
    # one call gives every n <= n_max; each must equal the composition sum,
    # with about one chart in three counted (no tables) among them
    rng = random.Random(77)
    counted = 0
    for _ in range(15):
        num_charts = rng.randint(1, 3)
        n_max = rng.randint(0, 4)
        co_tables = []
        tan_tables = []
        for _c in range(num_charts):
            if rng.random() < 1 / 3:
                co_tables.append(None)
                tan_tables.append(None)
                counted += 1
                continue
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
        got = chart_product(co_tables, tan_tables, _counts(n_max))
        assert got == [_oracle_sum(co_tables, tan_tables, n) for n in range(n_max + 1)]
    assert counted > 0


def test_chart_product_matches_fraction_reference():
    # the exact sums over common denominators against one Fraction per
    # partition, on random tables whose tangent products take both signs
    rng = random.Random(12)
    signs = set()
    for _ in range(40):
        num_charts = rng.randint(1, 4)
        n_max = rng.randint(0, 6)
        widths = [len(partition_list(k)) for k in range(n_max + 1)]
        co_tables = [[[rng.randint(-10**6, 10**6) for _ in range(w)] for w in widths]
                     for _c in range(num_charts)]
        tan_tables = [[[rng.choice((-1, 1)) * rng.randint(1, 10**4) for _ in range(w)]
                       for w in widths] for _c in range(num_charts)]
        signs.update(t > 0 for rows in tan_tables for row in rows for t in row)
        assert chart_product(co_tables, tan_tables, _counts(n_max)) == fraction_chart_product(
            co_tables, tan_tables, n_max)
    assert signs == {True, False}


def test_chart_product_single_cell():
    assert chart_product([[[4]]], [[[8]]], [1]) == [Fraction(1, 2)]
