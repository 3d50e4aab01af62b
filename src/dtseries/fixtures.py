"""Built-in geometries and fixture (de)serialization.

Each fixture bundles a threefold model, a surface model for a member of
|L|, candidate decompositions of L for the stability check, optional named
character vectors or a linear map from named parameters to character
vectors, and (when the surface is toric) the equivariant model that feeds
the localization oracle.  Fixtures round-trip through JSON.  A toric model
is stored as its fan, `{name, rays, cones, bundles: {key: {name,
surface_class, divisor}}, L_bundle}`, and loaded through
`localization.toric_surface`, the builder of the builtin models; a
parameterized character is stored as `gamma_params: {name: vector}`, with
gamma = sum of value * vector.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import SurfaceModel, ThreefoldModel, check_consistency
from .localization import ToricSurfaceModel, p1xp1, p2, toric_surface


class FixtureError(ValueError):
    """Fixture data failed validation or could not be parsed."""


@dataclass
class GeometryFixture:
    name: str
    threefold: ThreefoldModel
    surface: SurfaceModel
    candidates: tuple = ()
    irreducible: bool = False
    gamma_names: dict = field(default_factory=dict)
    gamma_params: dict = field(default_factory=dict)
    toric: ToricSurfaceModel | None = None
    toric_L: str = "L"
    notes: str = ""

    def validate(self):
        self.threefold.validate()
        self.surface.validate()
        check_consistency(self.threefold, self.surface)
        for c in self.candidates:
            if len(c) != self.threefold.h2_rank:
                raise FixtureError(f"{self.name}: candidate {c} has wrong length")
        for name, g in self.gamma_names.items():
            if len(g) != self.threefold.h4_rank:
                raise FixtureError(f"{self.name}: named gamma {name!r} has wrong length")
        for name, g in self.gamma_params.items():
            if len(g) != self.threefold.h4_rank:
                raise FixtureError(f"{self.name}: gamma parameter {name!r} has wrong length")
        if self.toric is not None:
            if self.toric_L not in self.toric.bundles:
                raise FixtureError(f"{self.name}: toric model has no bundle {self.toric_L!r}")
            for lin in self.toric.bundles.values():
                if len(lin.surface_class) != self.surface.h2_rank:
                    raise FixtureError(
                        f"{self.name}: bundle {lin.name} class not in the surface basis"
                    )
            # a complete fan of a smooth toric surface: each ray bounds exactly
            # two cones, and there is one cone (fixed point) per unit of e(S)
            cones = self.toric.cones
            for k in range(len(self.toric.rays)):
                count = sum(k in cone for cone in cones)
                if count != 2:
                    raise FixtureError(
                        f"{self.name}: incomplete fan: ray {k} lies in {count} cone(s), not 2"
                    )
            if len(cones) != self.surface.euler:
                raise FixtureError(
                    f"{self.name}: incomplete fan: {len(cones)} cones, "
                    f"but e(S) = {self.surface.euler}"
                )
        return self

    def gamma_from_params(self, values):
        """The character sum of value * gamma_params[name] over the given
        {name: value} parameters; every parameter must be given."""
        if not self.gamma_params:
            raise FixtureError(f"{self.name}: fixture takes no character parameters")
        missing = [p for p in self.gamma_params if p not in values]
        if missing:
            raise FixtureError(f"{self.name}: missing parameters {missing}")
        extra = [p for p in values if p not in self.gamma_params]
        if extra:
            raise FixtureError(f"{self.name}: unknown parameters {extra}")
        gamma = [Fraction(0)] * self.threefold.h4_rank
        for name, vec in self.gamma_params.items():
            value = Fraction(values[name])
            gamma = [g + value * x for g, x in zip(gamma, vec)]
        return tuple(gamma)


def _hypersurface(name, d, surface, dim_l, toric=None, gamma_names=None, notes=""):
    X = ThreefoldModel(
        name=name,
        h2_rank=1,
        triple=(((d,),),),
        canonical=(d - 5,),
        polarization=(1,),
        L=(1,),
        h4_rank=1,
        quad=(((d,),),),
        h4_h2_pairing=((1,),),
        vanishing_asserted=True,
        dim_linear_system=dim_l,
    )
    fx = GeometryFixture(
        name=name,
        threefold=X,
        surface=surface,
        candidates=(),
        irreducible=True,
        gamma_names=gamma_names or {},
        toric=toric,
        notes=notes,
    )
    return fx.validate()


def quadric_p4_d1():
    """Degree-1 hypersurface in P4 (a P3); S is a plane."""
    surface = SurfaceModel(
        name="plane",
        h2_rank=1,
        gram=((1,),),
        K_S=(-3,),
        L_S=(1,),
        O1_S=(1,),
        euler=3,
        pushforward=((1,),),
    )
    return _hypersurface(
        "quadric_p4_d1", 1, surface, dim_l=3, toric=p2(),
        notes="Hyperplane in P4 with its plane section; the plane carries the "
        "standard torus action for the localization cross-check.",
    )


def quadric_p4_d2():
    """Smooth quadric threefold; S is P1 x P1."""
    surface = SurfaceModel(
        name="quadric surface",
        h2_rank=2,
        gram=((0, 1), (1, 0)),
        K_S=(-2, -2),
        L_S=(1, 1),
        O1_S=(1, 1),
        euler=4,
        pushforward=((1, 1),),
    )
    return _hypersurface(
        "quadric_p4_d2", 2, surface, dim_l=4, toric=p1xp1(),
        gamma_names={"ell": (Fraction(-1),), "2ell": (Fraction(0),)},
        notes="Named characters are normalized representatives modulo twisting "
        "by L: 'ell' stores ell - L^2 and '2ell' stores 2ell - L^2, which "
        "centers the solution lattice of the degree constraint.",
    )


def cubic_p4_d3():
    """Smooth cubic threefold; S is a cubic surface (P2 blown up in 6 points)."""
    gram = tuple(
        tuple((1 if i == j == 0 else (-1 if i == j else 0)) for j in range(7)) for i in range(7)
    )
    surface = SurfaceModel(
        name="cubic surface",
        h2_rank=7,
        gram=gram,
        K_S=(-3, 1, 1, 1, 1, 1, 1),
        L_S=(3, -1, -1, -1, -1, -1, -1),
        O1_S=(3, -1, -1, -1, -1, -1, -1),
        euler=9,
        pushforward=((3, 1, 1, 1, 1, 1, 1),),
    )
    return _hypersurface("cubic_p4_d3", 3, surface, dim_l=4)


def quartic_p4_d4():
    """Smooth quartic threefold; S is a quartic (K3) surface, rank-1 slice.

    The first positivity inequality fails here by design of the geometry,
    not of the model: -K.L^2 = 4 = L^3.
    """
    surface = SurfaceModel(
        name="quartic surface",
        h2_rank=1,
        gram=((4,),),
        K_S=(0,),
        L_S=(1,),
        O1_S=(1,),
        euler=24,
        pushforward=((4,),),
        torsion_note="rank-1 slice of the K3 lattice; enough for every check here",
    )
    return _hypersurface("quartic_p4_d4", 4, surface, dim_l=4)


def blowup_p3_point(k=3):
    """P3 blown up at a point, polarized by kL - E; S is a plane missing the point.

    Intersection conventions follow the usual blow-up bookkeeping with
    E^3 = -1 and K_X = -4L + E in the (L, E) basis; the model is consistent
    as stated and every downstream check works directly with these numbers.
    """
    k = int(k)
    if k < 1:
        raise FixtureError("k must be a positive integer")
    X = ThreefoldModel(
        name=f"blowup_p3_point(k={k})",
        h2_rank=2,
        triple=(
            ((1, 0), (0, 0)),
            ((0, 0), (0, -1)),
        ),
        canonical=(-4, 1),
        polarization=(k, -1),
        L=(1, 0),
        h4_rank=2,
        quad=(((1, 0), (0, 0)), ((0, 0), (0, 1))),
        h4_h2_pairing=((1, 0), (0, -1)),
        vanishing_asserted=True,
        dim_linear_system=3,
    )
    surface = SurfaceModel(
        name="plane (missing the center)",
        h2_rank=1,
        gram=((1,),),
        K_S=(-3,),
        L_S=(1,),
        O1_S=(k,),
        euler=3,
        pushforward=((1,), (0,)),
    )
    fx = GeometryFixture(
        name="blowup_p3_point",
        threefold=X,
        surface=surface,
        candidates=((0, 1),),
        irreducible=False,
        gamma_params={"r": (Fraction(1, 2), Fraction(0)), "s": (Fraction(0), Fraction(1))},
        toric=p2(),
        notes="Characters are specified by r, s with gamma = (r/2) * [line] + s * e_E.",
    )
    return fx.validate()


def blowup_p3_line(k=3):
    """P3 blown up along a line, polarized by kL - E; S is a plane's strict
    transform (P2 blown up at one point)."""
    k = int(k)
    if k < 2:
        raise FixtureError("k must be at least 2 for kL - E to polarize")
    X = ThreefoldModel(
        name=f"blowup_p3_line(k={k})",
        h2_rank=2,
        triple=(
            ((1, 0), (0, -1)),
            ((0, -1), (-1, 2)),
        ),
        canonical=(-4, 1),
        polarization=(k, -1),
        L=(1, 0),
        h4_rank=2,
        quad=(((1, 0), (0, 1)), ((0, 1), (-1, -2))),
        h4_h2_pairing=((1, 0), (0, -1)),
        vanishing_asserted=True,
        dim_linear_system=3,
    )
    surface = SurfaceModel(
        name="plane blown up at a point",
        h2_rank=2,
        gram=((1, 0), (0, -1)),
        K_S=(-3, 1),
        L_S=(1, 0),
        O1_S=(k, -1),
        euler=4,
        pushforward=((1, 0), (0, 1)),
    )
    fx = GeometryFixture(
        name="blowup_p3_line",
        threefold=X,
        surface=surface,
        candidates=((0, 1),),
        irreducible=False,
        gamma_params={
            "r": (Fraction(1, 2), Fraction(0)),
            "s1": (Fraction(1), Fraction(1)),
            "s2": (Fraction(0), Fraction(1)),
        },
        notes="Characters are specified by r, s1, s2 with gamma = (r/2) * [line] "
        "+ s1 * [minimal section of E] + s2 * [fiber of E]; in the curve basis "
        "([line], [fiber]) this is (r/2 + s1, s1 + s2).",
    )
    return fx.validate()


BUILTIN = {
    "quadric_p4_d1": quadric_p4_d1,
    "quadric_p4_d2": quadric_p4_d2,
    "cubic_p4_d3": cubic_p4_d3,
    "quartic_p4_d4": quartic_p4_d4,
    "blowup_p3_point": blowup_p3_point,
    "blowup_p3_line": blowup_p3_line,
}

_PARAMETERIZED = ("blowup_p3_point", "blowup_p3_line")


def get_fixture(name_or_path, k=None):
    """Resolve a builtin fixture name (with optional polarization parameter k
    for the blow-ups) or load a fixture file."""
    if name_or_path in BUILTIN:
        if k is not None:
            if name_or_path not in _PARAMETERIZED:
                raise FixtureError(f"fixture {name_or_path} does not take k")
            return BUILTIN[name_or_path](k)
        return BUILTIN[name_or_path]()
    if k is not None:
        raise FixtureError("k applies only to the builtin blow-up fixtures")
    return load_fixture(name_or_path)


def _frac(x):
    return Fraction(x)


def _frac_out(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fixture_to_dict(fx):
    X, S = fx.threefold, fx.surface
    d = {
        "name": fx.name,
        "threefold": {
            "name": X.name,
            "h2_rank": X.h2_rank,
            "triple": [[list(r) for r in p] for p in X.triple],
            "canonical": list(X.canonical),
            "polarization": list(X.polarization),
            "L": list(X.L),
            "h4_rank": X.h4_rank,
            "quad": [[list(v) for v in row] for row in X.quad],
            "h4_h2_pairing": [list(r) for r in X.h4_h2_pairing],
            "vanishing_asserted": X.vanishing_asserted,
            "dim_linear_system": X.dim_linear_system,
        },
        "surface": {
            "name": S.name,
            "h2_rank": S.h2_rank,
            "gram": [list(r) for r in S.gram],
            "K_S": list(S.K_S),
            "L_S": list(S.L_S),
            "O1_S": list(S.O1_S),
            "euler": S.euler,
            "pushforward": [list(r) for r in S.pushforward],
            "torsion_note": S.torsion_note,
        },
        "candidates": [list(c) for c in fx.candidates],
        "irreducible": fx.irreducible,
        "gamma_names": {k: [_frac_out(g) for g in v] for k, v in fx.gamma_names.items()},
        "gamma_params": {k: [_frac_out(g) for g in v] for k, v in fx.gamma_params.items()},
        "notes": fx.notes,
    }
    if fx.toric is not None:
        T = fx.toric
        d["toric"] = {
            "name": T.name,
            "rays": [list(v) for v in T.rays],
            "cones": [list(c) for c in T.cones],
            "bundles": {
                key: {
                    "name": lin.name,
                    "surface_class": list(lin.surface_class),
                    "divisor": list(lin.divisor),
                }
                for key, lin in T.bundles.items()
            },
            "L_bundle": fx.toric_L,
        }
    else:
        d["toric"] = None
    return d


def fixture_from_dict(d):
    try:
        tx = d["threefold"]
        X = ThreefoldModel(
            name=tx["name"],
            h2_rank=tx["h2_rank"],
            triple=tx["triple"],
            canonical=tx["canonical"],
            polarization=tx["polarization"],
            L=tx["L"],
            h4_rank=tx["h4_rank"],
            quad=tx["quad"],
            h4_h2_pairing=tx["h4_h2_pairing"],
            vanishing_asserted=tx["vanishing_asserted"],
            dim_linear_system=tx.get("dim_linear_system"),
        )
        sx = d["surface"]
        S = SurfaceModel(
            name=sx["name"],
            h2_rank=sx["h2_rank"],
            gram=sx["gram"],
            K_S=sx["K_S"],
            L_S=sx["L_S"],
            O1_S=sx["O1_S"],
            euler=sx["euler"],
            pushforward=sx["pushforward"],
            torsion_note=sx.get("torsion_note", ""),
        )
        toric = None
        toric_l = "L"
        if d.get("toric"):
            t = d["toric"]
            toric = toric_surface(
                t["name"],
                t["rays"],
                t["cones"],
                {
                    key: (b["name"], b["surface_class"], b["divisor"])
                    for key, b in t["bundles"].items()
                },
            )
            toric_l = t.get("L_bundle", "L")
        fx = GeometryFixture(
            name=d["name"],
            threefold=X,
            surface=S,
            candidates=tuple(tuple(c) for c in d.get("candidates", [])),
            irreducible=bool(d.get("irreducible", False)),
            gamma_names={
                k: tuple(_frac(g) for g in v) for k, v in d.get("gamma_names", {}).items()
            },
            gamma_params={
                k: tuple(_frac(g) for g in v) for k, v in d.get("gamma_params", {}).items()
            },
            toric=toric,
            toric_L=toric_l,
            notes=d.get("notes", ""),
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise FixtureError(f"malformed fixture data: {exc}") from exc
    return fx.validate()


def load_fixture(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture is not valid JSON: {exc}") from exc
    return fixture_from_dict(data)


def save_fixture(fx, path):
    with open(path, "w") as fh:
        json.dump(fixture_to_dict(fx), fh, indent=2, sort_keys=True)
        fh.write("\n")
