"""Tests for the equivariant residue oracle on Hilbert schemes of points."""

import random
from fractions import Fraction

import pytest

from dtseries.localization import (
    IntegralityError,
    Linearization,
    OracleError,
    ToricSurfaceModel,
    ZeroWeightError,
    _cell_layout,
    _chart_scalars,
    _structural_zero,
    _weight_tables,
    chart_product,
    co_series,
    fixed_point_series,
    hilb_fixed_points,
    p1xp1,
    p2,
    partition_list,
    trace_terms,
)
from dtseries import localization
from dtseries.geometry import ModelError
from dtseries.qseries import euler_product
from oracle_reference import (
    StructuralZero,
    bundle_weights,
    cell_weight_tables,
    chart_closed_forms,
    co_class_weights,
    conjugate,
    direct_trace_terms,
    dual_basis,
    fan_delta,
    fraction_chart_product,
    hook_pairs,
    random_fan,
    structural_zero,
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
        scalars = _chart_scalars(model, model.bundles["trivial"], (3, 5), (0, 0))
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


def hook_weight_tables(model, lin, n_max, at, shift=(0, 0)):
    """The oracle's tables, from the hook tables over one cell layout."""
    return _weight_tables(_chart_scalars(model, lin, at, shift), _cell_layout(n_max))


def _outcome(tables, *args):
    # the tables, or which zero weight the references met first; the
    # oracle meets a structural zero as a class weight vanishing at the point
    try:
        return tables(*args)
    except StructuralZero:
        return "structural"
    except ZeroWeightError:
        return "zero"


def _same_outcome(got, want):
    return got == ("zero" if want == "structural" else want)


def _fan_models(*fans):
    # each fan with the zero divisor and the divisor (0, 1, 2, ...)
    for rays in fans:
        yield ToricSurfaceModel("fan", rays, {
            "0": Linearization("0", (0,) * len(rays), ()),
            "D": Linearization("D", tuple(range(len(rays))), ()),
        })


def test_chart_coordinates_match_torus_reference():
    # every chart of P2, P1xP1, F1 and F2, partitions up to n = 6: the
    # oracle's tables equal the reference's torus-vector evaluation, or both
    # meet a zero weight, at random points and shifts small enough to hit
    # zeros of both kinds
    rng = random.Random(6)
    seen = set()
    for model in _fan_models(P2_FAN, P1XP1_FAN, F1_FAN, F2_FAN):
        for lin in model.bundles.values():
            for _ in range(12):
                at = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                shift = (rng.randint(-2, 2), rng.randint(-2, 2))
                want = _outcome(weight_tables, model, lin, 6, at, shift)
                assert _same_outcome(_outcome(hook_weight_tables, model, lin, 6, at, shift), want)
                seen.add(want if isinstance(want, str) else "tables")
            at = (Fraction(7919, 13), Fraction(-104729, 17))
            assert hook_weight_tables(model, lin, 6, at) == weight_tables(model, lin, 6, at)
    assert seen == {"tables", "structural", "zero"}


def test_each_chart_is_carlsson_okounkov_on_the_plane():
    # chart by chart, the series sum_k q^k sum co/tan of the oracle's tables
    # is prod (1-q^k)^(-(m+P)(m+Q)/(PQ)) at the chart's scalars, on P1xP1
    # and P2 with both bundles and on a 6-ray fan at a shift
    hexagon = ToricSurfaceModel(
        "hexagon", ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
        {"D": Linearization("D", (1, -2, 0, 3, 1, 2), ())})
    cases = [(model, lin, (0, 0)) for model in (p1xp1(), p2()) for lin in model.bundles.values()]
    cases.append((hexagon, hexagon.bundles["D"], (7, -11)))
    for model, lin, shift in cases:
        co_tables, tan_tables = hook_weight_tables(model, lin, 8, AT, shift)
        got = [[sum(map(Fraction, co_rows[k], tan_rows[k])) for k in range(9)]
               for co_rows, tan_rows in zip(co_tables, tan_tables)]
        assert got == chart_closed_forms(model, lin, 8, AT, shift), model.name


def test_hook_tables_match_cell_by_cell_reference():
    # the hook tables against the per-cell walk they replace, for n <= 7 on
    # every chart of P2, P1xP1, F1 and F2: equal tables, or a zero weight on
    # both sides, at points and shifts small enough to hit both kinds
    rng = random.Random(11)
    seen = set()
    for model in _fan_models(P2_FAN, P1XP1_FAN, F1_FAN, F2_FAN):
        for lin in model.bundles.values():
            for _ in range(40):
                n_max = rng.randint(0, 7)
                # small spans and shifts hit zeros, wide spans reach n_max
                span = rng.choice((5, 200))
                at = (Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                      Fraction(rng.randint(-span, span), rng.randint(1, 3)))
                shift = (rng.randint(-3, 3), rng.randint(-3, 3)) if rng.random() < 0.5 else (0, 0)
                scalars = _chart_scalars(model, lin, at, shift)
                want = _outcome(cell_weight_tables, scalars, n_max)
                assert _same_outcome(_outcome(hook_weight_tables, model, lin, n_max, at, shift),
                                     want)
                seen.add(want if isinstance(want, str) else "tables")
    assert seen == {"tables", "structural", "zero"}


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
    model = p1xp1()
    fp = ((1,), (), (), ())
    # box weight (0,1) in chart 0 plus shift (0,-1) on the trivial bundle,
    # which the closed form sees in the shift alone
    with pytest.raises(StructuralZero):
        co_class_weights(fp, model, model.bundles["trivial"], shift=(0, -1))
    assert _structural_zero(_chart_scalars(model, model.bundles["trivial"], AT, (0, -1)), 1)


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
    # shifts far larger than any arm/leg weight cannot collide with a box
    model = p2()
    lin = model.bundles["L"]
    shifts = ((0, 0), (101, 103), (-57, 89))
    vals = {fixed_point_series(model, lin, 3, AT, shift=s)[3] for s in shifts}
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


def test_structural_zero_matches_torus_reference():
    # the closed form against the torus vectors, on generated fans with
    # divisor entries in -3..3 and shifts in -6..6: a class weight is the
    # zero vector exactly when co_class_weights finds one at a fixed point
    # of S^[k], k <= n_max, with one nonempty chart
    rng = random.Random(2024)
    seen = set()
    for _ in range(60):
        rays = random_fan(rng)
        model = ToricSurfaceModel("fan", rays, {"D": Linearization(
            "D", tuple(rng.randint(-3, 3) for _ in rays), ())})
        lin = model.bundles["D"]
        shift, n_max = (rng.randint(-6, 6), rng.randint(-6, 6)), rng.randint(0, 6)

        def zero_vector(point):
            try:
                co_class_weights(point, model, lin, shift)
            except StructuralZero:
                return True
            return False

        want = any(zero_vector(((),) * c + (parts,) + ((),) * (len(rays) - c - 1))
                   for c in range(len(rays))
                   for k in range(1, n_max + 1) for parts in partition_list(k))
        assert _structural_zero(_chart_scalars(model, lin, AT, shift), n_max) == want
        seen.add(want)
    assert seen == {True, False}


def test_integrate_zero_weight_at_eval_point():
    # partition (1,1) has tangent weight (-1,1), which vanishes on the
    # diagonal; the shift is fine, so only the point is to blame
    model, at = p1xp1(), (Fraction(1), Fraction(1))
    with pytest.raises(ZeroWeightError, match="tangent weight"):
        fixed_point_series(model, model.bundles["L"], 2, at)
    assert not _structural_zero(_chart_scalars(model, model.bundles["L"], at, (0, 0)), 2)


def test_integrate_structural_zero_weight():
    # the shift makes a class weight the zero vector: it vanishes at every
    # point, and the closed form says so from the shift alone
    model = p1xp1()
    lin = model.bundles["trivial"]
    for at in (AT, (Fraction(3), Fraction(5))):
        with pytest.raises(ZeroWeightError, match="class weight"):
            fixed_point_series(model, lin, 1, at, shift=(0, -1))
        assert _structural_zero(_chart_scalars(model, lin, at, (0, -1)), 1)


def test_integrate_class_weight_vanishes_at_point():
    # shift (1,1) turns the box weight (0,1) into (1,2), which dies at (2,-1)
    # and nowhere off the line x + 2y = 0; no class weight is the zero
    # vector (shift (1,0) would make one in chart 1)
    model = p1xp1()
    lin, at = model.bundles["trivial"], (Fraction(2), Fraction(-1))
    with pytest.raises(ZeroWeightError, match="class weight"):
        fixed_point_series(model, lin, 1, at, shift=(1, 1))
    assert not _structural_zero(_chart_scalars(model, lin, at, (1, 1)), 1)
    assert _structural_zero(_chart_scalars(model, lin, at, (1, 0)), 1)
    assert fixed_point_series(model, lin, 1, AT, shift=(1, 1)) == [1, 4]


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
    assert fixed_point_series(model, lin, 5, AT, shift) == [
        sum(r["term"] for r in direct_trace_terms(model, lin, n, AT, shift)) for n in range(6)
    ]


@pytest.mark.parametrize("shift", [(0, 0), (101, 103)])
def test_trace_terms_match_direct_walk(shift):
    # the terms read from the oracle's tables against the reference walk
    # over every cell of every fixed point: the same points in the same
    # order with the same Fractions, on P2, P1xP1, F1 and F2 and every bundle
    models = [p2(), p1xp1(), *_fan_models(F1_FAN, F2_FAN)]
    count = 0
    for model in models:
        for lin in model.bundles.values():
            for n in range(5):
                got = trace_terms(model, lin, n, AT, shift)
                assert got == direct_trace_terms(model, lin, n, AT, shift)
                assert all(type(r["term"]) is Fraction for r in got)
                count += len(got)
    # two bundles each; fixed points of S^[0..4]: 86 on P2, 164 on the others
    assert count == 2 * (86 + 3 * 164)


def test_fixed_point_series_entries_are_integrals():
    model = p2()
    lin = model.bundles["L"]
    series = fixed_point_series(model, lin, 5, AT)
    assert series == [fixed_point_series(model, lin, n, AT)[n] for n in range(6)]
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


def test_co_series_matches_reference_tables(monkeypatch):
    # 240 seeded calls, a bundle whose divisor forces a structural zero at
    # shift (0, 0) among them, and 80 on 40 generated fans with divisor
    # entries in -3..3: the same values, evaluation points and shift as
    # co_series driven by the per-cell structural check, the per-cell
    # tables and per-partition Fractions
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

    monkeypatch.setattr(localization, "_structural_zero", structural_zero)
    monkeypatch.setattr(localization, "_weight_tables", reference_tables)
    monkeypatch.setattr(localization, "chart_product", fraction_chart_product)
    want = [co_series(m, lin, 5, seed=seed) for (m, lin), seed in calls]
    assert [(r.values, r.eval_points, r.shift) for r in got] == [
        (r.values, r.eval_points, r.shift) for r in want
    ]
    assert any(r.shift != (0, 0) for r in got[:240])
    assert any(r.shift != (0, 0) for r in got[240:])


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


def test_co_series_no_attempts_raises(monkeypatch):
    monkeypatch.setattr(localization, "MAX_ATTEMPTS", 0)
    model = p2()
    with pytest.raises(OracleError):
        co_series(model, model.bundles["L"], 1)


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
        assert chart_product(co_tables, tan_tables, n_max) == fraction_chart_product(
            co_tables, tan_tables, n_max)
    assert signs == {True, False}


def test_chart_product_single_cell():
    assert chart_product([[[4]]], [[[8]]], 0) == [Fraction(1, 2)]
