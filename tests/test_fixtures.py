"""Tests for the built-in geometries and fixture serialization."""

import hashlib
import json
import os
import stat
from fractions import Fraction

import pytest

from dtseries import fixtures
from dtseries.fixtures import (
    BUILTIN,
    FixtureError,
    blowup_p3_line,
    blowup_p3_point,
    fixture_from_dict,
    fixture_to_dict,
    get_fixture,
    load_fixture,
    save_fixture,
    write_json,
)
from dtseries.geometry import ModelError, delta_invariant, virtual_dimension
from dtseries.localization import Linearization, ToricSurfaceModel, co_series
from dtseries.qseries import euler_product

ALL_NAMES = [
    "quadric_p4_d1",
    "quadric_p4_d2",
    "cubic_p4_d3",
    "quartic_p4_d4",
    "blowup_p3_point",
    "blowup_p3_line",
]


def test_builtin_names():
    assert sorted(BUILTIN) == sorted(ALL_NAMES)


def test_all_builtins_validate():
    # building a fixture checks it: rebuilding a builtin from its own
    # fields passes every check again and gives the same fixture
    for name in ALL_NAMES:
        fx = get_fixture(name)
        assert fx.replace() == fx


def test_delta_invariants():
    expected = {
        "quadric_p4_d1": 7,
        "quadric_p4_d2": 10,
        "cubic_p4_d3": 15,
        "quartic_p4_d4": 28,
        "blowup_p3_point": 7,
        "blowup_p3_line": 8,
    }
    for name, want in expected.items():
        assert delta_invariant(get_fixture(name).surface) == want


def test_hypersurface_virtual_dimensions():
    # -K.L^2/2 + 1 = (5-d)/2 * d + 1 on a degree-d hypersurface in P4
    for name, d in (
        ("quadric_p4_d1", 1),
        ("quadric_p4_d2", 2),
        ("cubic_p4_d3", 3),
    ):
        assert virtual_dimension(get_fixture(name).threefold) == (5 - d) * d // 2 + 1


def _typed_by_hand(name, k):
    """(threefold, surface, candidates, irreducible) of a builtin as its
    builder once typed them, every number literal: the hypersurfaces'
    surfaces are now derived from (d, gram, h) and the blow-ups share one
    threefold builder, so this checks the derivation independently."""
    hypersurface = {"vanishing_asserted": True, "polarization": (1,), "L": (1,),
                    "h4_h2_pairing": ((1,),)}
    blowup = {"name": f"{name}(k={k})", "canonical": (-4, 1), "polarization": (k, -1),
              "L": (1, 0), "h4_h2_pairing": ((1, 0), (0, -1)), "vanishing_asserted": True,
              "dim_linear_system": 3}
    data = {
        "quadric_p4_d1": (
            {**hypersurface, "name": "quadric_p4_d1", "canonical": (-4,), "quad": (((1,),),),
             "dim_linear_system": 3},
            {"name": "plane", "gram": ((1,),), "K_S": (-3,), "L_S": (1,), "O1_S": (1,),
             "euler": 3, "pushforward": ((1,),), "torsion_note": ""},
            (), True),
        "quadric_p4_d2": (
            {**hypersurface, "name": "quadric_p4_d2", "canonical": (-3,), "quad": (((2,),),),
             "dim_linear_system": 4},
            {"name": "quadric surface", "gram": ((0, 1), (1, 0)), "K_S": (-2, -2),
             "L_S": (1, 1), "O1_S": (1, 1), "euler": 4, "pushforward": ((1, 1),),
             "torsion_note": ""},
            (), True),
        "cubic_p4_d3": (
            {**hypersurface, "name": "cubic_p4_d3", "canonical": (-2,), "quad": (((3,),),),
             "dim_linear_system": 4},
            {"name": "cubic surface",
             "gram": ((1, 0, 0, 0, 0, 0, 0),
                      (0, -1, 0, 0, 0, 0, 0),
                      (0, 0, -1, 0, 0, 0, 0),
                      (0, 0, 0, -1, 0, 0, 0),
                      (0, 0, 0, 0, -1, 0, 0),
                      (0, 0, 0, 0, 0, -1, 0),
                      (0, 0, 0, 0, 0, 0, -1)),
             "K_S": (-3, 1, 1, 1, 1, 1, 1), "L_S": (3, -1, -1, -1, -1, -1, -1),
             "O1_S": (3, -1, -1, -1, -1, -1, -1), "euler": 9,
             "pushforward": ((3, 1, 1, 1, 1, 1, 1),), "torsion_note": ""},
            (), True),
        "quartic_p4_d4": (
            {**hypersurface, "name": "quartic_p4_d4", "canonical": (-1,), "quad": (((4,),),),
             "dim_linear_system": 4},
            {"name": "quartic surface", "gram": ((4,),), "K_S": (0,), "L_S": (1,),
             "O1_S": (1,), "euler": 24, "pushforward": ((4,),),
             "torsion_note": "rank-1 slice of the K3 lattice; enough for every check here"},
            (), True),
        "blowup_p3_point": (
            {**blowup, "quad": (((1, 0), (0, 0)), ((0, 0), (0, 1)))},
            {"name": "plane (missing the center)", "gram": ((1,),), "K_S": (-3,),
             "L_S": (1,), "O1_S": (k,), "euler": 3, "pushforward": ((1,), (0,)),
             "torsion_note": ""},
            ((0, 1),), False),
        "blowup_p3_line": (
            {**blowup, "quad": (((1, 0), (0, 1)), ((0, 1), (-1, -2)))},
            {"name": "plane blown up at a point", "gram": ((1, 0), (0, -1)), "K_S": (-3, 1),
             "L_S": (1, 0), "O1_S": (k, -1), "euler": 4, "pushforward": ((1, 0), (0, 1)),
             "torsion_note": ""},
            ((0, 1),), False),
    }
    return data[name]


BUILTIN_VARIANTS = [(name, None) for name in ALL_NAMES[:4]] + [
    ("blowup_p3_point", k) for k in range(2, 7)] + [("blowup_p3_line", k) for k in range(2, 7)]


@pytest.mark.parametrize("name, k", BUILTIN_VARIANTS)
def test_builtins_equal_the_hand_typed_data(name, k):
    fx = get_fixture(name, k)
    threefold, surface, candidates, irreducible = _typed_by_hand(name, k)
    for model, typed in ((fx.threefold, threefold), (fx.surface, surface)):
        fields = model.asdict()
        assert fields.keys() == typed.keys()
        for key, value in typed.items():
            assert fields[key] == value, key
    assert (fx.candidates, fx.irreducible) == (candidates, irreducible)


# sha256 prefixes of each builtin's saved file, fixture_to_dict as sorted,
# indented JSON (k = 3 is each blow-up's default), from before the builders
# derived their data and the models were records: neither changes a byte
SAVED_DIGESTS = [
    ("quadric_p4_d1", None, "515543695376d741"),
    ("quadric_p4_d2", None, "ad64759788abf263"),
    ("cubic_p4_d3", None, "1bceef5818ffbd12"),
    ("quartic_p4_d4", None, "c45deb9b6c905933"),
    ("blowup_p3_point", 2, "c1ba23d1649734f1"),
    ("blowup_p3_point", 3, "d074e079a093610d"),
    ("blowup_p3_point", 4, "f31124b4128c452c"),
    ("blowup_p3_point", 5, "ffc5ff9de567c08c"),
    ("blowup_p3_point", 6, "93cef8413d577abc"),
    ("blowup_p3_line", 2, "b3cd29a4f86e030a"),
    ("blowup_p3_line", 3, "1cc3af8792c4a42a"),
    ("blowup_p3_line", 4, "9b9bda734cb2ac9e"),
    ("blowup_p3_line", 5, "e8279151d2ea9638"),
    ("blowup_p3_line", 6, "c84117a40980d98e"),
]


@pytest.mark.parametrize("name, k, digest", SAVED_DIGESTS)
def test_saved_builtin_files_are_unchanged(tmp_path, name, k, digest):
    path = tmp_path / "fx.json"
    save_fixture(get_fixture(name, k), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


def test_toric_attachments():
    fx = get_fixture("quadric_p4_d2")
    assert fx.toric is not None and fx.toric.name == "p1xp1"
    assert fx.toric_L == "L"
    fx = get_fixture("quadric_p4_d1")
    assert fx.toric is not None and fx.toric.name == "p2"
    assert fx.toric_L == "L"
    assert get_fixture("cubic_p4_d3").toric is None
    assert get_fixture("cubic_p4_d3").toric_L is None
    assert get_fixture("quartic_p4_d4").toric is None


def test_named_gammas_quadric():
    fx = get_fixture("quadric_p4_d2")
    assert fx.gamma_names["ell"] == (Fraction(-1),)
    assert fx.gamma_names["2ell"] == (Fraction(0),)


def test_blowup_k_parameter():
    fx = get_fixture("blowup_p3_point", k=5)
    assert fx.surface.O1_S == (5,)
    assert fx.threefold.polarization == (5, -1)
    fx = get_fixture("blowup_p3_line", k=4)
    assert fx.surface.O1_S == (4, -1)
    # defaults
    assert get_fixture("blowup_p3_point").surface.O1_S == (3,)
    assert get_fixture("blowup_p3_line").surface.O1_S == (3, -1)


def test_k_rejected_for_non_blowups():
    with pytest.raises(FixtureError):
        get_fixture("quadric_p4_d2", k=3)


def test_blowup_point_k_must_be_positive():
    # (kL - E).f = k - 1 on the strict transform f = C0 - C1 of a line
    # through the point, so k = 1 is no polarization
    for k in (0, 1):
        with pytest.raises(FixtureError, match="at least 2"):
            blowup_p3_point(k)
    assert blowup_p3_point(2).surface.O1_S == (2,)


def test_blowup_line_k_must_polarize():
    with pytest.raises(FixtureError, match="at least 2"):
        blowup_p3_line(1)
    assert blowup_p3_line(2).surface.O1_S == (2, -1)


@pytest.mark.parametrize("k", [3.7, 3.0, True, "3"])
def test_blowup_k_must_be_an_int(k):
    # the polarization kL - E is integral data: k is not truncated to one
    for name in ("blowup_p3_point", "blowup_p3_line"):
        with pytest.raises(FixtureError, match="k must be"):
            get_fixture(name, k)


def test_gamma_from_params_point():
    fx = get_fixture("blowup_p3_point")
    assert fx.character("r=3,s=-2") == (Fraction(3, 2), Fraction(-2))
    with pytest.raises(FixtureError):
        fx.character("r=1")
    with pytest.raises(FixtureError):
        fx.character("r=1,s=0,t=9")


def test_gamma_from_params_line():
    fx = get_fixture("blowup_p3_line")
    g = fx.character("r=0,s1=-1,s2=0")
    assert g == (Fraction(-1), Fraction(-1))
    assert fx.character("r=1/2,s1=0,s2=0") == (Fraction(1, 4), Fraction(0))
    with pytest.raises(FixtureError, match=r"missing parameters \['s2'\]"):
        fx.character("r=1,s1=0")


def test_gamma_from_params_rejected_without_parameters():
    with pytest.raises(FixtureError):
        get_fixture("quadric_p4_d2").character("r=1")


def test_round_trip_through_dict():
    for name in ALL_NAMES:
        fx = get_fixture(name)
        back = fixture_from_dict(fixture_to_dict(fx))
        assert back.name == fx.name
        assert back.threefold == fx.threefold
        assert back.surface == fx.surface
        assert back.candidates == fx.candidates
        assert back.irreducible == fx.irreducible
        assert back.gamma_names == fx.gamma_names
        assert back.gamma_params == fx.gamma_params
        if fx.gamma_params:
            spec = ",".join(f"{p}={Fraction(2 * i - 3, i + 2)}"
                            for i, p in enumerate(fx.gamma_params))
            assert back.character(spec) == fx.character(spec)
        assert (back.toric is None) == (fx.toric is None)
        if fx.toric is not None:
            T, B = fx.toric, back.toric
            assert (B.name, B.rays, B.cones) == (T.name, T.rays, T.cones)
            assert B.bundles == T.bundles
            assert back.toric_L == fx.toric_L


VARIANTS = [(name, None) for name in ALL_NAMES] + [
    (name, k) for name in ("blowup_p3_point", "blowup_p3_line") for k in (2, 5)
]


@pytest.mark.parametrize("name, k", VARIANTS)
def test_round_trip_is_identity(tmp_path, name, k):
    # a field dropped or renamed in either direction changes the dict or the file
    d = fixture_to_dict(get_fixture(name, k))
    assert fixture_to_dict(fixture_from_dict(d)) == d
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_fixture(get_fixture(name, k), first)
    save_fixture(load_fixture(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_round_trip_through_file(tmp_path):
    path = tmp_path / "fx.json"
    # the toric block on disk, as the README documents it
    save_fixture(get_fixture("quadric_p4_d1"), path)
    assert json.loads(path.read_text())["toric"] == {
        "name": "p2",
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "bundles": {
            "L": {"name": "O(1)", "surface_class": [1], "divisor": [0, 0, 1]},
            "trivial": {"name": "O(0)", "surface_class": [0], "divisor": [0, 0, 0]},
        },
    }
    fx = get_fixture("quadric_p4_d2")
    save_fixture(fx, path)
    data = json.loads(path.read_text())
    assert data["name"] == "quadric_p4_d2"
    assert data["gamma_names"]["ell"] == ["-1"]
    back = load_fixture(path)
    assert back.surface == fx.surface
    assert back.gamma_names == fx.gamma_names
    # and get_fixture falls through to the loader for paths
    again = get_fixture(str(path))
    assert again.threefold == fx.threefold


def test_write_json_that_cannot_serialise_leaves_the_file_unchanged(tmp_path):
    path = tmp_path / "fx.json"
    save_fixture(get_fixture("quadric_p4_d2"), path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json({"a": 1, "b": object()}, path)
    assert path.read_bytes() == before


def test_write_json_never_truncates_on_open(tmp_path, monkeypatch):
    # truncating on open frees the old file's blocks, which is slow where
    # the file system discards them; the writer cuts the file at its end
    path = tmp_path / "fx.json"
    save_fixture(get_fixture("quadric_p4_d2"), path)
    real_open, flags = os.open, []

    def recording_open(file, flag, *args):
        flags.append(flag)
        return real_open(file, flag, *args)

    monkeypatch.setattr(fixtures.os, "open", recording_open)
    save_fixture(get_fixture("quadric_p4_d1"), path)
    monkeypatch.undo()
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert load_fixture(path) == get_fixture("quadric_p4_d1")


def test_write_json_creates_a_file_as_open_does(tmp_path):
    old = os.umask(0o002)
    try:
        with open(tmp_path / "open.json", "w", encoding="utf-8"):
            pass
        write_json([], tmp_path / "new.json")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("open.json", "new.json")]
    assert modes == [0o664, 0o664]


def test_load_missing_file():
    with pytest.raises(FixtureError):
        load_fixture("/nonexistent/fixture.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    with pytest.raises(FixtureError):
        load_fixture(path)


def test_load_malformed_dict(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(FixtureError):
        load_fixture(path)
    # valid JSON that is no object
    for data, kind in (("abc", "str"), (5, "int"), (None, "NoneType"), ([1, 2], "list")):
        path.write_text(json.dumps(data))
        with pytest.raises(FixtureError, match=f"must be a JSON object, not {kind}$"):
            load_fixture(path)
    # an int or a list where a list of lists or an object belongs: the
    # message names the field, and the CLI exits 4 (both are ValueErrors)
    for keys, value, message in (
        (("threefold", "quad"), [2], "quad must be 1x1 of curve classes of length 1"),
        # the ranks and the triple products are derived, not stored
        (("threefold", "triple"), [[[2]]], "unexpected keyword argument 'triple'"),
        (("threefold", "h2_rank"), 1, "unexpected keyword argument 'h2_rank'"),
        (("surface", "h2_rank"), 2, "unexpected keyword argument 'h2_rank'"),
        (("surface", "gram"), [0, 1], "gram must be 2x2"),
        (("threefold",), [1], "threefold must be a JSON object, not list"),
        (("surface",), 4, "surface must be a JSON object, not int"),
        (("toric", "bundles"), [], "toric bundles must be a JSON object, not list"),
        # the cones and the bundle of L are derived, not stored
        (("toric", "cones"), [[0, 1], [1, 2], [2, 3], [3, 0]],
         "unexpected keyword argument 'cones'"),
        (("toric", "L_bundle"), "L", "unexpected keyword argument 'L_bundle'"),
        (("toric", "bundles", "L"), [1], "toric bundle 'L' must be a JSON object, not list"),
        (("gamma_names",), [["-1"]], "gamma_names must be a JSON object, not list"),
    ):
        d = json.loads(json.dumps(fixture_to_dict(get_fixture("quadric_p4_d2"))))
        *inner, last = keys
        target = d
        for key in inner:
            target = target[key]
        target[last] = value
        path.write_text(json.dumps(d))
        with pytest.raises((FixtureError, ModelError), match=message):
            load_fixture(path)


def test_inconsistent_fixture_rejected():
    d = fixture_to_dict(get_fixture("quadric_p4_d1"))
    d["surface"]["pushforward"] = [[2]]
    with pytest.raises(ModelError):
        fixture_from_dict(d)


def test_candidate_length_checked():
    d = fixture_to_dict(get_fixture("blowup_p3_point"))
    d["candidates"] = [[0, 1, 2]]
    with pytest.raises(FixtureError):
        fixture_from_dict(d)


def test_k_rejected_for_paths(tmp_path):
    path = tmp_path / "fx.json"
    save_fixture(get_fixture("quadric_p4_d1"), path)
    with pytest.raises(FixtureError):
        get_fixture(str(path), k=2)


@pytest.mark.parametrize(
    "name, rays, divisor, delta",
    [
        # P2 blown up torically six times, with L = -K
        pytest.param("cubic_p4_d3", ((1, 0), (2, 1), (1, 1), (0, 1), (-1, 1), (-1, 0),
                                     (-1, -1), (-1, -2), (0, -1)), (1,) * 9, 15, id="cubic"),
        # F1, P2 blown up at a point, with the class of a line
        pytest.param("blowup_p3_line", ((1, 0), (0, 1), (-1, 1), (0, -1)), (0, 0, 0, 1), 8,
                     id="line-blowup"),
    ],
)
def test_toric_stand_in_passes_the_fan_check(name, rays, divisor, delta):
    # a toric surface with the same e, K.L and L^2 as S stands in for it in
    # the oracle: the fixture accepts the fan, and the Carlsson-Okounkov
    # series is the Euler product of delta(S, L_S)
    fx = get_fixture(name)
    lin = Linearization("L", divisor, fx.surface.L_S)
    fy = fx.replace(toric=ToricSurfaceModel(name, rays, {"L": lin}))
    assert fy.toric_L == "L"
    assert delta_invariant(fx.surface, fx.surface.L_S) == delta
    assert list(co_series(fy.toric, lin, 6).values) == [
        int(c) for c in euler_product(-delta, 7).coeffs
    ]
    # L + D_0 on the same fan is another class: the fixture refuses it
    other = Linearization("L", (divisor[0] + 1, *divisor[1:]), fx.surface.L_S)
    with pytest.raises(FixtureError, match="on the fan, but"):
        fx.replace(toric=ToricSurfaceModel(name, rays, {"L": other}))
