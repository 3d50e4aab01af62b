"""Tests for the equivariant residue oracle on Hilbert schemes of points."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, prod

import pytest

from dtseries.localization import (
    IntegralityError,
    Linearization,
    ToricSurfaceModel,
    _chart_scalars,
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
    draw_pair,
    dual_basis,
    equivalent_divisor,
    euler_power,
    fan_delta,
    first_vanishing_weight,
    fixed_point_series,
    fraction_chart_product,
    hilb_fixed_points,
    hook_pairs,
    nonempty_charts,
    oracle_corpus,
    oracle_generic,
    oracle_tables,
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
    """The oracle's tables, its counted charts written out as tables of ones."""
    return _counted_as_ones(oracle_tables(model, lin, n_max, at), n_max)


def _outcome(tables, *args):
    # the reference's tables, or "zero" where a tangent weight vanished at
    # the point, cell by cell
    try:
        return tables(*args)
    except VanishingWeightError:
        return "zero"


def _oracle_outcome(model, lin, n_max, at):
    # the oracle's tables, or "zero" where `_generic` refuses the point
    if not oracle_generic(model, lin, n_max, at):
        return "zero"
    return hook_weight_tables(model, lin, n_max, at)


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
            co_tables, tan_tables = oracle_tables(model, lin, 8, AT)
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


def test_zero_class_vector_makes_the_hook_pair_0_1():
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


def test_p1xp1_integrals_of_o11():
    model = p1xp1()
    lin = model.bundles["L"]
    assert fixed_point_series(model, lin, 3, AT) == [1, 10, 65, 330]


def test_p1xp1_trivial_bundle_counts_fixed_points():
    # with the trivial bundle the class weights equal the tangent weights,
    # so every term is 1 and the integral is the fixed point count
    model = p1xp1()
    lin = model.bundles["trivial"]
    assert fixed_point_series(model, lin, 4, AT) == [1, 4, 14, 40, 105]


def test_p2_integrals():
    model = p2()
    assert fixed_point_series(model, model.bundles["L"], 3, AT) == [1, 7, 35, 140]
    assert fixed_point_series(model, model.bundles["trivial"], 3, AT) == [1, 3, 9, 22]


def test_integrals_are_ints():
    val = fixed_point_series(p2(), p2().bundles["L"], 2, AT)[2]
    assert type(val) is int and val == 35


def test_integrals_independent_of_the_point():
    model = p1xp1()
    lin = model.bundles["L"]
    points = [(Fraction(3), Fraction(5)), (Fraction(-9, 7), Fraction(22, 3)), AT]
    vals = {fixed_point_series(model, lin, 3, p)[3] for p in points}
    assert vals == {330}


def test_integrals_independent_of_the_character():
    # the equivalent divisors a_k + <m, v_k> linearize one line bundle in
    # other ways: characters far larger than any arm/leg weight, and (0, -1),
    # which makes a class weight the zero vector in chart 0
    model = p2()
    lin = model.bundles["L"]
    characters = ((0, 0), (101, 103), (-57, 89), (0, -1))
    vals = {fixed_point_series(model, equivalent_divisor(model, lin, m), 3, AT)[3]
            for m in characters}
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
def test_higher_degree_bundles_give_the_euler_product(fan, divisor, delta):
    # across the Hirzebruch family and beyond degree 1, the oracle's series is
    # prod (1-q^k)^(-delta) with delta = e(S) - K.D + D^2 read off the fan,
    # by the reference and by the model
    assert fan_delta(fan, divisor) == delta
    model = ToricSurfaceModel("fan", fan, {"D": Linearization("D", divisor, divisor)})
    e, KD, DD = model.intersection_numbers(divisor)
    assert e - KD + DD == delta
    res = co_series(model, model.bundles["D"], 5, seed=0)
    assert list(res.values) == [int(c) for c in euler_product(-delta, 6).coeffs]


def test_vanishing_tangent_weight_refuses_the_point():
    # partition (1,1) has tangent weight (-1,1), which vanishes on the
    # diagonal: `_generic` refuses the point from n = 2 on, the reference's
    # torus vectors meet the zero there, and the oracle's sums, whose
    # precondition the point breaks, divide by it; a tangent weight is the
    # one kind whose zero makes a point unusable
    model, at = p1xp1(), (Fraction(1), Fraction(1))
    lin = model.bundles["L"]
    assert oracle_generic(model, lin, 1, at)
    assert weight_tables(model, lin, 1, at)
    assert not oracle_generic(model, lin, 2, at)
    with pytest.raises(VanishingWeightError, match="tangent weight"):
        weight_tables(model, lin, 2, at)
    with pytest.raises(ZeroDivisionError):
        fixed_point_series(model, lin, 2, at)
    with pytest.raises(ZeroDivisionError):
        trace_terms(model, lin, 2, at)


def test_zero_class_vector_gives_the_trivial_counts():
    # the trivial bundle moved by (0, -1) has a class weight that is the
    # zero vector, so it vanishes at every point: a zero numerator, and the
    # integrals are the trivial bundle's fixed-point counts at every point
    model = p1xp1()
    lin = equivalent_divisor(model, model.bundles["trivial"], (0, -1))
    for at in (AT, (Fraction(3), Fraction(5))):
        assert fixed_point_series(model, lin, 4, at) == [1, 4, 14, 40, 105]


def test_class_weight_vanishing_at_the_point_adds_zero():
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


@pytest.mark.parametrize("m", [(0, 0), (101, 103), (0, -1)])
@pytest.mark.parametrize("bundle", ["L", "trivial"])
@pytest.mark.parametrize("make", [p1xp1, p2])
def test_integrals_equal_the_direct_walk(make, bundle, m):
    # the chart-factored pass against the direct sum over partition tuples,
    # at the bundle's equivalent divisor a_k + <m, v_k>
    model = make()
    lin = equivalent_divisor(model, model.bundles[bundle], m)
    assert fixed_point_series(model, lin, 5, AT) == [
        sum(r["term"] for r in direct_trace_terms(model, lin, n, AT)) for n in range(6)
    ]


@pytest.mark.parametrize("m", [(0, 0), (101, 103), (0, -1)])
def test_trace_terms_match_direct_walk(m):
    # the terms read from the oracle's tables against the reference walk
    # over every cell of every fixed point, its empty charts dropped: the
    # same points in the same order with the same Fractions, for every n
    # of one call, on P2, P1xP1, F1 and F2 and every bundle, at its
    # equivalent divisor a_k + <m, v_k>
    models = [p2(), p1xp1(), *_fan_models(F1_FAN, F2_FAN)]
    count = 0
    for model in models:
        for lin in model.bundles.values():
            lin = equivalent_divisor(model, lin, m)
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
    assert any(first_vanishing_weight(model, lin, n_max, at) is not None
               for at in draw_pair(rng))
    res = co_series(model, lin, n_max, seed=seed)
    assert res.eval_points == draw_pair(rng)
    assert list(res.values) == euler_power(-fan_delta(model.rays, lin.divisor), n_max)


# ---------------------------------------------------------------------------
# the seeded corpus (`oracle_corpus`)


@lru_cache(maxsize=None)
def corpus_results():
    return tuple(co_series(c.model, c.lin, c.n_max, seed=c.seed) for c in oracle_corpus())


def walked_points(case):
    # the accepted short point, and a "zero weight" case's integer point
    return (case.pair[0], case.own[0]) if case.kind == "zero weight" else case.pair[:1]


def test_co_series_on_generated_fans():
    # co_series's values are prod (1-q^k)^(-delta), delta = e - K.D + D^2
    # read off the fan and off the model
    for case, res in zip(oracle_corpus(), corpus_results()):
        delta = fan_delta(case.model.rays, case.lin.divisor)
        e, KD, DD = case.model.intersection_numbers(case.lin.divisor)
        assert e - KD + DD == delta
        assert list(res.values) == euler_power(-delta, case.n_max), case.seed


def test_co_series_multiplies_zero_class_weights_on_generated_fans():
    # at each own point where no tangent weight vanishes, the integrals are
    # prod (1-q^k)^(-delta), zero-vector class weights among them
    for case in oracle_corpus():
        want = euler_power(-fan_delta(case.model.rays, case.lin.divisor), case.n_max)
        for at in case.own:
            if case.tables[at] is not None:
                assert fixed_point_series(case.model, case.lin, case.n_max, at) == want, case.seed


def test_co_series_draws_a_short_first_point():
    # co_series draws integers in -99..99 first, then numerators up to 9999
    # over denominators up to 60, almost always outside the first's range
    wide = 0
    for res in corpus_results():
        (x, y), (u, v) = res.eval_points
        assert all(t.denominator == 1 and 1 <= abs(t) <= 99 for t in (x, y))
        assert all(t.denominator <= 60 and 1 <= abs(t.numerator) <= 9999 for t in (u, v))
        wide += u.denominator > 1 or abs(u) > 99
    assert wide == 158


def test_co_series_matches_reference_tables():
    # co_series evaluates at the first pair drawn at which the per-cell
    # walk meets no vanishing tangent weight
    for case, res in zip(oracle_corpus(), corpus_results()):
        assert res.eval_points == case.pair, case.seed


def test_corpus_generic_is_the_per_cell_walk():
    # at every point, refused pairs included, `_generic` accepts exactly
    # where the per-cell tables, and the walk to the first, meet no zero
    for case in oracle_corpus():
        for at, tables in case.tables.items():
            vanishing = first_vanishing_weight(case.model, case.lin, case.n_max, at)
            assert (oracle_generic(case.model, case.lin, case.n_max, at)
                    == (tables is not None) == (vanishing is None)), (case.seed, at)


def test_zero_weight_charts_are_counted_not_tabulated():
    # wherever no tangent weight vanishes, a chart has no hook table
    # exactly where the bundle's weight (a torus vector) vanishes, and every
    # other table is the per-cell one up to one common factor per entry
    for case in oracle_corpus():
        for (x, y), reference in case.tables.items():
            if reference is None:
                continue
            co_tables, tan_tables = oracle_tables(case.model, case.lin, case.n_max, (x, y))
            zeros = [bx * x + by * y == 0 for bx, by in bundle_weights(case.model, case.lin)]
            assert [t is None for t in co_tables] == [t is None for t in tan_tables] == zeros
            assert _same_ratios(_counted_as_ones((co_tables, tan_tables), case.n_max), reference)


def test_weight_zero_at_the_point_is_counted_whatever_the_entries():
    # where the bundle's weight vanishes at the point, its entries (0, 0)
    # or not, the per-cell class and tangent products are equal
    for case in oracle_corpus():
        for (x, y), reference in case.tables.items():
            for c, (bx, by) in enumerate(bundle_weights(case.model, case.lin)):
                if reference is not None and bx * x + by * y == 0:
                    assert reference[0][c] == reference[1][c], (case.seed, c)


def test_corpus_class_entries_vanish_at_zero_class_vectors():
    # at the wide point, a partition of size k <= 6 has the class entry 0
    # exactly when co_class_weights lists the zero vector among its chart's
    # weights, the partition put in every chart
    for case in oracle_corpus():
        co_tables, _ = oracle_tables(case.model, case.lin, case.n_max, case.pair[1])
        for k in range(1, min(case.n_max, 6) + 1):
            for i, parts in enumerate(partition_list(k)):
                weights = co_class_weights((parts,) * case.model.euler, case.model, case.lin)
                for c, co_rows in enumerate(co_tables):
                    zero_vector = (0, 0) in weights[2 * k * c:2 * k * (c + 1)]
                    assert (co_rows is not None and co_rows[k][i] == 0) == zero_vector


def test_corpus_charts_are_carlsson_okounkov_on_the_plane():
    # chart by chart, the series sum_k q^k sum co/tan of the oracle's
    # tables, a counted chart's being the partition counts, is
    # prod (1-q^k)^(-(m+P)(m+Q)/(PQ)) (n_max > 0, where P*Q != 0)
    for case in oracle_corpus():
        for at in walked_points(case) if case.n_max else ():
            co_tables, tan_tables = oracle_tables(case.model, case.lin, case.n_max, at)
            got = [_counts(case.n_max) if co_rows is None else
                   [sum(map(Fraction, co_rows[k], tan_rows[k])) for k in range(case.n_max + 1)]
                   for co_rows, tan_rows in zip(co_tables, tan_tables)]
            assert got == chart_closed_forms(case.model, case.lin, case.n_max, at), case.seed


def test_corpus_trace_terms_are_the_direct_walk():
    # the trace's terms for n <= min(n_max, 3) are the direct walk's, its
    # empty charts dropped
    for case in oracle_corpus():
        depth = min(case.n_max, 3)
        for at in walked_points(case):
            assert trace_terms(case.model, case.lin, depth, at) == [
                [{"point": nonempty_charts(r["point"]), "term": r["term"]}
                 for r in direct_trace_terms(case.model, case.lin, n, at)]
                for n in range(depth + 1)
            ], case.seed


def _has_zero_class_vector(model, lin, n_max):
    # whether a class weight of some chart's hook with l + a + 1 <= n_max,
    # the corner of the partition (a+1, 1^l), is the zero vector
    hooks = [(a + 1,) + (1,) * l for l in range(n_max) for a in range(n_max - l)]
    return any((t[0] + b[0], t[1] + b[1]) == (0, 0)
               for chart, b in zip(dual_basis(model), bundle_weights(model, lin))
               for parts in hooks for t in tangent_weights(parts, chart))


def test_corpus_coverage():
    # what the corpus holds, so that a generator that thins it fails here
    cases = oracle_corpus()
    counted = Counter()
    for case in cases:
        for (x, y), tables in case.tables.items():
            if tables is not None:
                counted.update("zero entries" if (bx, by) == (0, 0) else "nonzero entries"
                               for bx, by in bundle_weights(case.model, case.lin)
                               if bx * x + by * y == 0)
    assert sum(bool(case.refused) for case in cases) == 6
    assert sum(tables is None for case in cases for tables in case.tables.values()) == 100
    assert sum(_has_zero_class_vector(case.model, case.lin, case.n_max) for case in cases) == 106
    assert counted == {"zero entries": 154, "nonzero entries": 88}
    assert sum(case.n_max == 0 for case in cases) == 13
    assert Counter(case.model.euler for case in cases) == {
        3: 10, 4: 19, 5: 31, 6: 21, 7: 27, 8: 19, 9: 18, 10: 15}
    # points with P/Q = p/q >= 0 in lowest terms, p + q = n_max, at a chart
    assert sum(any(P * Q >= 0 and abs(P) + abs(Q) == case.n_max * gcd(P, Q)
                   for P, Q, _, _ in _chart_scalars(case.model, case.lin, at))
               for case in cases for at in case.tables) == 18


# ---------------------------------------------------------------------------
# chart product


def _oracle_sum(co_tables, tan_tables, n):
    """Direct Fraction-arithmetic evaluation of the composition sum; a
    chart without tables has the ratio 1 at each of the reference's
    partitions."""
    def row_sum(chart, k):
        if co_tables[chart] is None:
            return sum(Fraction(1) for _ in partition_list(k))
        return sum(Fraction(a, b) for a, b in zip(co_tables[chart][k], tan_tables[chart][k]))

    def walk(chart, remaining):
        if chart == len(co_tables) - 1:
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
        co_tables, tan_tables = [], []
        for _c in range(num_charts):
            if rng.random() < 1 / 3:
                co_tables.append(None)
                tan_tables.append(None)
                counted += 1
                continue
            co_rows, tan_rows = [], []
            for k in range(n_max + 1):
                width = len(partition_list(k))
                co_rows.append([rng.randint(-50, 50) for _ in range(width)])
                tan_rows.append([rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(width)])
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
