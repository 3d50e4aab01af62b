import random
from fractions import Fraction

import pytest

from classenum_reference import symmetric_signature
from dtseries.classenum import enumerate_contributions
from dtseries.fixtures import BUILTIN, FixtureError, GeometryFixture, fixture_to_dict, get_fixture
from dtseries.geometry import (
    ChernVector,
    ModelError,
    Record,
    SurfaceModel,
    ThreefoldModel,
    check_consistency,
    curve_class,
    delta_invariant,
    hilbert_coeffs,
    pair_h4_h2,
    run_all_checks,
    stability_forbidden_m,
    triple_product,
    virtual_dimension,
)
from dtseries.qseries import QSeries
from oracle_reference import fixed_point_series


def test_triple_product_is_symmetric_and_trilinear():
    rng = random.Random(2)
    X = get_fixture("blowup_p3_line").threefold
    for _ in range(30):
        a = tuple(rng.randint(-4, 4) for _ in range(2))
        b = tuple(rng.randint(-4, 4) for _ in range(2))
        c = tuple(rng.randint(-4, 4) for _ in range(2))
        t = triple_product(X, a, b, c)
        assert t == triple_product(X, b, a, c) == triple_product(X, c, b, a)
        d = tuple(rng.randint(-4, 4) for _ in range(2))
        s = rng.randint(-3, 3)
        lhs = triple_product(X, tuple(x + s * y for x, y in zip(a, d)), b, c)
        assert lhs == t + s * triple_product(X, d, b, c)


# the triple-intersection tensors D_a.D_b.D_c the builtin threefolds once
# stored beside their curve classes, typed by hand
HAND_TYPED_TRIPLE = {
    "quadric_p4_d1": (((1,),),),
    "quadric_p4_d2": (((2,),),),
    "cubic_p4_d3": (((3,),),),
    "quartic_p4_d4": (((4,),),),
    "blowup_p3_point": (((1, 0), (0, 0)), ((0, 0), (0, -1))),
    "blowup_p3_line": (((1, 0), (0, -1)), ((0, -1), (-1, 2))),
}


def test_triple_product_matches_hand_typed_tensors():
    # the blow-ups at every polarization kL - E up to k = 4 (L - E polarizes
    # neither)
    ks = {"blowup_p3_point": (2, 3, 4), "blowup_p3_line": (2, 3, 4)}
    for name, triple in HAND_TYPED_TRIPLE.items():
        for k in ks.get(name, (None,)):
            X = get_fixture(name, k=k).threefold
            r = len(triple)
            e = [tuple(int(i == a) for i in range(r)) for a in range(r)]
            got = tuple(tuple(tuple(triple_product(X, e[a], e[b], e[c]) for c in range(r))
                              for b in range(r)) for a in range(r))
            assert got == triple, (name, k)


def _checks(fx, gamma=None):
    """run_all_checks on a fixture's own candidates, zero character by default."""
    gamma = gamma or (0,) * fx.threefold.h4_rank
    return run_all_checks(fx.threefold, ChernVector(gamma), fx.candidates,
                          irreducible=fx.irreducible)


def test_hypersurface_positivity_values():
    # -K.L^2 = (5-d)*d and -K.L.O(1) = (5-d)*d by direct contraction
    for d, name in ((1, "quadric_p4_d1"), (2, "quadric_p4_d2"), (3, "cubic_p4_d3")):
        rep = _checks(get_fixture(name))
        assert rep.ineq_KL2_gt_L3.lhs == (5 - d) * d
        assert rep.ineq_KL2_gt_L3.rhs == d
        assert rep.ineq_KLO1_pos.lhs == (5 - d) * d
        assert rep.passed
    rep = _checks(get_fixture("quartic_p4_d4"))
    assert not rep.ineq_KL2_gt_L3.holds  # 4 > 4 is false
    assert rep.ineq_KL2_gt_L3.lhs == 4 and rep.ineq_KL2_gt_L3.rhs == 4
    assert rep.ineq_KLO1_pos.holds
    assert rep.failures == ["-K.L^2 > L^3"]


def test_virtual_dimension_matches_stored_linear_system():
    for name in ("quadric_p4_d1", "quadric_p4_d2", "cubic_p4_d3",
                 "blowup_p3_point", "blowup_p3_line"):
        fx = get_fixture(name)
        assert virtual_dimension(fx.threefold) == fx.threefold.dim_linear_system
    # the quartic deliberately violates the hypotheses and the two differ
    fx = get_fixture("quartic_p4_d4")
    assert virtual_dimension(fx.threefold) == 3
    assert fx.threefold.dim_linear_system == 4


def test_virtual_dimension_rejects_odd():
    X = get_fixture("quadric_p4_d1").threefold
    bad = X.__class__(**{**X.__dict__, "canonical": (-3,)})  # -K.L^2 = 3
    with pytest.raises(ModelError):
        virtual_dimension(bad)


def test_delta_invariant_frozen_values():
    want = {
        "quadric_p4_d1": 7,
        "quadric_p4_d2": 10,
        "cubic_p4_d3": 15,
        "quartic_p4_d4": 28,
        "blowup_p3_point": 7,
        "blowup_p3_line": 8,
    }
    for name, value in want.items():
        fx = get_fixture(name)
        assert delta_invariant(fx.surface) == value


def test_delta_equals_localization_degree_one():
    """Independent cross-check: the n=1 localization integral computes
    e(S) - K_S.L + L^2 directly from the toric weights."""
    for name in ("quadric_p4_d1", "quadric_p4_d2", "blowup_p3_point"):
        fx = get_fixture(name)
        lin = fx.toric.bundles[fx.toric_L]
        at = (Fraction(13, 5), Fraction(-7, 11))
        assert fixed_point_series(fx.toric, lin, 1, at)[1] == delta_invariant(fx.surface)


def test_hilbert_coeffs_quadric():
    fx = get_fixture("quadric_p4_d2")
    a2, a1 = hilbert_coeffs(fx.threefold, ChernVector(fx.gamma_names["ell"]))
    assert a2 == 1  # L.O(1)^2 / 2 = d/2
    assert a1 == Fraction(-1) + Fraction(3 * 2, 2)  # gamma.O(1) - L.K.O(1)/2


def test_hilbert_coeffs_point_blowup_closed_form():
    # a2 = k^2/2 and a1 = rk/2 + s + 2k
    for k in (2, 3, 5, 6):
        fx = get_fixture("blowup_p3_point", k=k)
        for r, s in ((0, -1), (2, 0), (-1, 3), (3, -2)):
            gamma = fx.character(f"r={r},s={s}")
            a2, a1 = hilbert_coeffs(fx.threefold, ChernVector(gamma))
            assert a2 == Fraction(k * k, 2)
            assert a1 == Fraction(r * k, 2) + s + 2 * k


def test_stability_point_blowup_closed_form():
    # forbidden twist m* = -(rk + 2s + 4k) / (2k^2); integer iff the check fails
    for k in (2, 3, 4):
        fx = get_fixture("blowup_p3_point", k=k)
        for r, s in ((0, -1), (1, 1), (2, -3)):
            gamma = fx.character(f"r={r},s={s}")
            a2, a1 = hilbert_coeffs(fx.threefold, ChernVector(gamma))
            m = stability_forbidden_m(fx.threefold, a2, a1, (0, 1))
            assert m == Fraction(-(r * k + 2 * s + 4 * k), 2 * k * k)


def test_stability_gap_known_verdicts():
    # k=2, r=-3, s=-1: m* = 0 is an integer, the gap fails
    fx = get_fixture("blowup_p3_point", k=2)
    gamma = fx.character("r=-3,s=-1")
    rep = _checks(fx, gamma)
    assert rep.stability_gap[0].forbidden_m == 0
    assert not rep.passed
    assert rep.failures == ["stability gap at (0, 1)"]
    # default k=3 passes for the zero character
    rep = _checks(get_fixture("blowup_p3_point"))
    assert rep.passed
    # line blow-up, k=3: m* = (2k+1)/(k-1) = 7/2, not an integer
    rep = _checks(get_fixture("blowup_p3_line"))
    assert rep.stability_gap[0].forbidden_m == Fraction(7, 2)
    assert rep.passed


def test_stability_gap_rejects_degenerate_candidates():
    # L1 = 0 or L1 = L is no decomposition: the fixture refuses it on load
    fx = get_fixture("blowup_p3_point")
    for candidate, reason in (((0, 0), "is zero"), (fx.threefold.L, "equals L")):
        with pytest.raises(FixtureError, match=reason):
            fx.replace(candidates=(candidate,))


def test_vacuous_stability_passes():
    fx = get_fixture("quadric_p4_d2")
    rep = run_all_checks(fx.threefold, ChernVector((0,)), (), irreducible=True)
    assert rep.passed
    assert rep.stability_gap == ()


def test_consistency_all_fixtures():
    for name in BUILTIN:
        fx = get_fixture(name)
        assert check_consistency(fx.threefold, fx.surface)
        X = fx.threefold
        assert fx.surface.push(fx.surface.L_S) == curve_class(X, X.L, X.L)


def test_consistency_detects_broken_adjunction():
    fx = get_fixture("quadric_p4_d2")
    S = fx.surface
    broken = SurfaceModel(
        name=S.name, gram=S.gram, K_S=(-2, -4), L_S=S.L_S,
        O1_S=S.O1_S, euler=S.euler, pushforward=S.pushforward,
    )
    with pytest.raises(ModelError):
        check_consistency(fx.threefold, broken)


def _broken_identities(X, S):
    """Which of the five identities tying S to X fail, restated from the
    dense arrays: push L_S = L^2, and at each e_i the projection formula
    for K_S, L_S and O1_S and Wu's formula."""
    r, h = X.h2_rank, X.h4_rank
    LL = [sum(X.L[a] * X.L[b] * X.quad[a][b][k] for a in range(r) for b in range(r))
          for k in range(h)]
    broken = set() if list(S.push(S.L_S)) == LL else {"push"}
    KplusL = [k + l for k, l in zip(X.canonical, X.L)]
    for i in range(S.h2_rank):
        e = [int(j == i) for j in range(S.h2_rank)]
        pushed = [sum(X.h4_h2_pairing[k][a] * P[i] for k, P in enumerate(S.pushforward))
                  for a in range(r)]
        for name, on_S, D in (("K_S", S.K_S, KplusL), ("L_S", S.L_S, X.L),
                              ("O1_S", S.O1_S, X.polarization)):
            if S.dot(on_S, e) != sum(x * y for x, y in zip(pushed, D)):
                broken.add(name)
        if (S.dot(e, e) - S.dot(S.K_S, e)) % 2:
            broken.add("Wu")
    return broken


@pytest.mark.parametrize("name, edits, broken, message", [
    ("quadric_p4_d2", {"surface": {"K_S": [-4, -2]}}, "K_S",
     r"projection formula fails at e_1: K_S\.e_1 = -4 but \(K_X\+L\)\.push e_1 = -2"),
    ("quadric_p4_d2", {"surface": {"O1_S": [2, 1]}}, "O1_S",
     r"projection formula fails at e_1: O1_S\.e_1 = 2 but \(H\)\.push e_1 = 1"),
    ("quadric_p4_d2", {"threefold": {"quad": [[[3]]]}}, "push",
     r"pushforward of L_S is not the class of L\^2"),
    # a single entry of L_S moves push L_S, so L_S = (2, 0) keeps it at 2
    ("quadric_p4_d2", {"surface": {"L_S": [2, 0]}}, "L_S",
     r"projection formula fails at e_0: L_S\.e_0 = 0 but \(L\)\.push e_0 = 1"),
    # a single change of K_S moves K_S.e_0, so K_X moves with it
    ("blowup_p3_point", {"surface": {"K_S": [-2]}, "threefold": {"canonical": [-3, 1]}}, "Wu",
     r"Wu's formula fails at e_0: e_0\.e_0 = 1 and K_S\.e_0 = -2 differ mod 2"),
])
def test_consistency_names_each_broken_identity(name, edits, broken, message):
    """Each of the five identities fires alone, on a builtin with one field
    (for Wu's formula, one field of each model) changed, and the error
    names it and the basis class it fails at."""
    fx = get_fixture(name)
    assert _broken_identities(fx.threefold, fx.surface) == set()
    d = fixture_to_dict(fx)
    X = ThreefoldModel(**{**d["threefold"], **edits.get("threefold", {})})
    S = SurfaceModel(**{**d["surface"], **edits.get("surface", {})})
    assert _broken_identities(X, S) == {broken}
    with pytest.raises(ModelError, match=message):
        check_consistency(X, S)


def test_surface_model_hodge_check_matches_signature():
    """A surface model is accepted exactly when its form has signature
    (1, s-1, 0) and O1_S^2 > 0, as the reference congruence elimination in
    Fractions finds, on random forms of rank at most 5."""
    rng = random.Random(17)
    accepted = 0
    for _ in range(4000):
        s = rng.randint(1, 5)
        G = [[0] * s for _ in range(s)]
        for i in range(s):
            for j in range(i, s):
                G[i][j] = G[j][i] = rng.randint(-3, 3)
        h = tuple(rng.randint(-2, 2) for _ in range(s))
        hh = sum(G[i][j] * h[i] * h[j] for i in range(s) for j in range(s))
        want = symmetric_signature(G) == (1, s - 1, 0) and hh > 0
        try:
            SurfaceModel(name="random", gram=tuple(map(tuple, G)), K_S=h, L_S=h,
                         O1_S=h, euler=0, pushforward=())
        except ModelError as exc:
            assert not want and "signature" in str(exc)
        else:
            assert want
            accepted += 1
    assert accepted > 400


def test_model_validators_reject_bad_data():
    fx = get_fixture("quadric_p4_d2")
    S = fx.surface
    with pytest.raises(ModelError, match="not symmetric"):
        SurfaceModel(
            name="bad", gram=((0, 1), (2, 0)), K_S=S.K_S, L_S=S.L_S,
            O1_S=S.O1_S, euler=4, pushforward=S.pushforward,
        )
    with pytest.raises(ModelError, match="signature"):
        SurfaceModel(
            name="bad", gram=((-1, 0), (0, -1)), K_S=S.K_S, L_S=S.L_S,
            O1_S=S.O1_S, euler=4, pushforward=S.pushforward,
        )
    # the right signature, but O1_S^2 = 0 or < 0: not a polarization
    for h in ((1, 0), (1, -1)):
        with pytest.raises(ModelError, match="signature"):
            SurfaceModel(
                name="bad", gram=S.gram, K_S=S.K_S, L_S=S.L_S,
                O1_S=h, euler=4, pushforward=S.pushforward,
            )
    # rank 0: no form has signature (1, -1)
    with pytest.raises(ModelError, match="signature"):
        SurfaceModel(name="bad", gram=(), K_S=(), L_S=(), O1_S=(), euler=1, pushforward=())
    # D_a.D_b as a curve class: symmetric in (a, b), and its pairing with D_c
    # symmetric in (b, c)
    X = get_fixture("blowup_p3_line").threefold
    with pytest.raises(ModelError, match=r"quad not symmetric at \(0, 1\)"):
        X.__class__(**{**X.__dict__, "quad": (((1, 0), (1, 1)), ((0, 1), (-1, -2)))})
    with pytest.raises(ModelError, match=r"triple product not symmetric at \(0, 1, 0\)"):
        X.__class__(**{**X.__dict__, "quad": (((1, 0), (1, 1)), ((1, 1), (-1, -2)))})
    with pytest.raises(ModelError, match="quad must be 2x2 of curve classes of length 2"):
        X.__class__(**{**X.__dict__, "quad": (((1, 0), (0, 1)), ((0, 1),))})


def test_model_fields_are_coerced_by_type():
    S = get_fixture("quadric_p4_d2").surface
    fields = {**S.__dict__, "gram": [[0, 1], [1, 0]], "K_S": [-2, -2]}
    assert SurfaceModel(**fields) == S  # lists become tuples
    for key, bad in (("gram", [[0, True], [1, 0]]), ("K_S", (-2, -2.0)), ("K_S", -2),
                     ("euler", True), ("torsion_note", None), ("name", 1)):
        with pytest.raises(ModelError, match=f"SurfaceModel.{key}"):
            SurfaceModel(**{**fields, key: bad})
    X = get_fixture("quadric_p4_d2").threefold
    assert X.__class__(**{**X.__dict__, "dim_linear_system": None}).dim_linear_system is None
    with pytest.raises(ModelError, match="ThreefoldModel.vanishing_asserted"):
        X.__class__(**{**X.__dict__, "vanishing_asserted": 1})


def test_records_are_frozen_values():
    class Pair(Record):
        x: int
        y: int = 0

    class Other(Record):
        x: int
        y: int = 0

    class One(Record):
        x: tuple

    assert Pair(1) == Pair(x=1, y=0) and hash(Pair(1)) == hash(Pair(1, 0))
    assert Pair(1, 2) != Other(1, 2) and Pair(1, 2) != (1, 2)
    assert One((1,)) == One(x=(1,)) != One((2,)) and hash(One((1,))) == hash(One((1,)))
    assert repr(One((1,))) == f"{One.__qualname__}(x=(1,))" and One((1,)).asdict() == {"x": (1,)}
    p = Pair(1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        p.x = 3
    with pytest.raises(AttributeError, match="cannot delete field 'y'"):
        del p.y
    assert ChernVector((1,)) == ChernVector(gamma=(1,), xi=0)
    for args, kwargs, named in (((), {}, "'x'"), ((1,), {"z": 2}, "'z'"), ((1,), {"x": 2}, "'x'")):
        with pytest.raises(TypeError, match=named):
            Pair(*args, **kwargs)
    S = get_fixture("quadric_p4_d2").surface
    with pytest.raises(ModelError, match="gram not symmetric"):
        S.replace(gram=((0, 1), (2, 0)))
    fx = get_fixture("quadric_p4_d2")
    a, b = (GeometryFixture(fx.name, fx.threefold, fx.surface) for _ in range(2))
    assert a.gamma_names == b.gamma_names == {} and a.gamma_names is not b.gamma_names
    assert repr(fx.threefold).startswith("ThreefoldModel(name='quadric_p4_d2', canonical=(-3,), ")
    assert fx.asdict()["threefold"] == fx.threefold.asdict()


def test_pairing_contraction():
    X = get_fixture("blowup_p3_point").threefold
    # f-tilde pairs to 1 with L, the exceptional curve to -1 with E
    assert pair_h4_h2(X, (1, 0), (1, 0)) == 1
    assert pair_h4_h2(X, (0, 1), (0, 1)) == -1
    assert pair_h4_h2(X, (Fraction(1, 2), 0), (2, 0)) == 1


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda fx: enumerate_contributions(
        fx.surface, fx.threefold, fx.gamma_names["ell"], 1, -1), ValueError, "nonnegative",
        id="negative-window"),
    pytest.param(lambda fx: curve_class(fx.threefold, (1, 0), (1,)), ModelError, "wrong length",
                 id="curve-class-length"),
    pytest.param(lambda fx: pair_h4_h2(fx.threefold, (1, 0), (1,)), ModelError, "wrong length",
                 id="pairing-length"),
    pytest.param(lambda fx: QSeries(0, (1,)) * 3, TypeError, "unsupported operand",
                 id="series-times-int"),
])
def test_library_input_checks(call, error, match):
    # the library's own refusals, which the CLI never reaches (its bounds
    # refuse a negative window first): a negative scan window, divisor or
    # curve vectors of the wrong length, a q-series times a number
    with pytest.raises(error, match=match):
        call(get_fixture("quadric_p4_d2"))
