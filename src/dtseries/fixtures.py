"""Built-in geometries and fixture (de)serialization.

Each fixture bundles a threefold model, a surface model for a member of
|L|, candidate decompositions of L for the stability check, optional named
character vectors or a linear map from named parameters to character
vectors, and (when the surface is toric) the equivariant model that feeds
the localization oracle.  Fixtures round-trip through JSON.

A fixture file is the fixture's `asdict()`.  The `threefold`,
`surface` and `toric` blocks are the fields of ThreefoldModel, SurfaceModel
and ToricSurfaceModel (each toric bundle those of Linearization), and every
model, builtin or loaded, is built by the same constructor, which checks
it: intersection data must be JSON integers and flags JSON booleans.  The
toric block is `{name, rays, bundles: {key: {name, surface_class,
divisor}}}`.  Ranks, triple products, cones and the bundle of L (the one
whose class is L_S) are derived, so a `triple`, `h2_rank`, `h4_rank`,
`cones` or `L_bundle` key is unknown.  Each bundle's (e, K.D, D^2) on the
fan must be S's.  Only `"toric": null` means the surface is not toric.
Characters (`gamma_names`, and `gamma_params: {name:
vector}` with gamma = sum of value * vector) are strings such as "-1/2" or
integers; a decimal exponent beyond the integer-string limit is refused.
A missing, unknown or wrong-typed value, or a file that is not a JSON
object, raises FixtureError or ModelError.

S must be a member of |L| in X, which check_consistency confirms as each
fixture is built: push L_S = L^2 and, at each basis class e_i of Pic(S),
K_S.e_i = (K_X+L).push e_i, L_S.e_i = L.push e_i, O1_S.e_i = H.push e_i
(the projection formula) and e_i.e_i = K_S.e_i mod 2 (Wu's formula).  A
loaded fixture's class lattice is therefore negative definite, and the
classes of one character have squares of one parity.
"""

import json
from collections import Counter
from fractions import Fraction
from operator import mul

from .geometry import (Record, SurfaceModel, ThreefoldModel, _ints, _typed_fields,
                       check_consistency)
from .intlinalg import mat_vec
from .localization import Linearization, ToricSurfaceModel, p1xp1, p2
from .qseries import frac_str, parse_frac


class FixtureError(ValueError):
    """Fixture data failed validation or could not be parsed."""


class GeometryFixture(Record):
    name: str
    threefold: ThreefoldModel
    surface: SurfaceModel
    candidates: tuple = ()
    irreducible: bool = False
    gamma_names: dict = {}
    gamma_params: dict = {}
    toric: ToricSurfaceModel | None = None
    notes: str = ""

    def __post_init__(self):
        _typed_fields(self)
        check_consistency(self.threefold, self.surface)
        for c in self.candidates:
            if not _ints(c, self.threefold.h2_rank):
                raise FixtureError(f"{self.name}: candidate {c} must have length "
                                   f"{self.threefold.h2_rank} and integer entries")
            if not any(c):
                raise FixtureError(f"{self.name}: candidate decomposition class is zero")
            if c == self.threefold.L:
                raise FixtureError(f"{self.name}: candidate decomposition class equals L")
        for key in ("gamma_names", "gamma_params"):
            for name, g in getattr(self, key).items():
                if len(g) != self.threefold.h4_rank:
                    raise FixtureError(f"{self.name}: {key}[{name!r}] has wrong length")
        if self.toric is not None:
            S = self.surface
            for key, lin in self.toric.bundles.items():
                c = lin.surface_class
                if not _ints(c, S.h2_rank):
                    raise FixtureError(
                        f"{self.name}: bundle {lin.name} class not in the surface basis"
                    )
                # the fan must be S: the CO series reads only e, K.D and D^2
                fan = self.toric.intersection_numbers(lin.divisor)
                surface = (S.euler, S.dot(S.K_S, c), S.dot(c, c))
                if fan != surface:
                    raise FixtureError(f"{self.name}: bundle {key!r} has (e, K.D, D^2) = "
                                       f"{fan} on the fan, but {surface} on the surface")
            count = sum(lin.surface_class == S.L_S for lin in self.toric.bundles.values())
            if count != 1:
                raise FixtureError(f"{self.name}: {count} toric bundles have the class L_S, "
                                   "not exactly one")

    @property
    def toric_L(self):
        """The key of the toric bundle whose class is L_S (None if S is not toric)."""
        bundles = self.toric.bundles if self.toric else {}
        return next((k for k, lin in bundles.items() if lin.surface_class == self.surface.L_S),
                    None)

    def character(self, spec):
        """The character a --gamma string names, as a tuple of Fractions:
        None is zero, a key of gamma_names is its vector, a comma-separated
        rational vector of length h4_rank is itself, and name=value pairs,
        each parameter of gamma_params exactly once, give the sum of value *
        gamma_params[name].  Any other spec, or an entry too long to print,
        raises FixtureError."""
        h = self.threefold.h4_rank
        if spec is None:
            return (Fraction(0),) * h
        try:
            if spec in self.gamma_names:
                gamma = self.gamma_names[spec]
            elif "=" in spec:
                items = [item.split("=", 1) for item in spec.split(",")]
                bare = next((item[0] for item in items if len(item) == 1), None)
                if bare is not None:
                    raise ValueError(f"{bare!r} is not name=value")
                values = dict(items)
                if len(values) < len(items):
                    counts = Counter(name for name, _ in items)
                    repeated = next(name for name in counts if counts[name] > 1)
                    raise ValueError(f"parameter {repeated!r} given more than once")
                if not self.gamma_params:
                    raise ValueError(f"{self.name}: fixture takes no character parameters")
                missing = [p for p in self.gamma_params if p not in values]
                if missing:
                    raise ValueError(f"{self.name}: missing parameters {missing}")
                extra = [p for p in values if p not in self.gamma_params]
                if extra:
                    raise ValueError(f"{self.name}: unknown parameters {extra}")
                weights = [parse_frac(values[p]) for p in self.gamma_params]
                gamma = tuple(sum(map(mul, weights, col))
                              for col in zip(*self.gamma_params.values()))
            else:
                gamma = tuple(map(parse_frac, spec.split(",")))
                if len(gamma) != h:
                    raise ValueError(f"a vector of length {len(gamma)}, expected {h}")
            for g in gamma:
                frac_str(g)
        except (ValueError, ZeroDivisionError) as exc:
            raise FixtureError(f"bad character {spec!r}: {exc}") from exc
        return gamma


def _hypersurface(name, d, surface_name, gram, h, dim_l, toric=None, gamma_names=None,
                  notes="", torsion_note=""):
    """A smooth degree-d threefold X in P4 with L = O(1), and its hyperplane
    section S, a degree-d surface in P3 whose Picard lattice has Gram matrix
    gram and hyperplane class h.  The rest of S follows from d: L and O(1)
    both restrict to h, adjunction gives K_S = (K_X + L)|_S = (d - 4)h from
    K_X = (d - 5)H, a curve's class in X is its degree h.beta, and
    e(S) = d^3 - 4d^2 + 6d."""
    X = ThreefoldModel(
        name=name,
        canonical=(d - 5,),
        polarization=(1,),
        L=(1,),
        quad=(((d,),),),
        h4_h2_pairing=((1,),),
        vanishing_asserted=True,
        dim_linear_system=dim_l,
    )
    surface = SurfaceModel(
        name=surface_name,
        gram=gram,
        K_S=tuple((d - 4) * x for x in h),
        L_S=h,
        O1_S=h,
        euler=d**3 - 4 * d**2 + 6 * d,
        pushforward=(mat_vec(gram, h),),
        torsion_note=torsion_note,
    )
    return GeometryFixture(
        name=name,
        threefold=X,
        surface=surface,
        candidates=(),
        irreducible=True,
        gamma_names=gamma_names or {},
        toric=toric,
        notes=notes,
    )


def quadric_p4_d1():
    """Degree-1 hypersurface in P4 (a P3); S is a plane."""
    return _hypersurface(
        "quadric_p4_d1", 1, "plane", ((1,),), (1,), dim_l=3, toric=p2(),
        notes="Hyperplane in P4 with its plane section; the plane carries the "
        "standard torus action for the localization cross-check.",
    )


def quadric_p4_d2():
    """Smooth quadric threefold; S is P1 x P1."""
    return _hypersurface(
        "quadric_p4_d2", 2, "quadric surface", ((0, 1), (1, 0)), (1, 1), dim_l=4,
        toric=p1xp1(),
        gamma_names={"ell": (Fraction(-1),), "2ell": (Fraction(0),)},
        notes="Named characters are normalized representatives modulo twisting "
        "by L: 'ell' stores ell - L^2 and '2ell' stores 2ell - L^2, which "
        "centers the solution lattice of the degree constraint.",
    )


def cubic_p4_d3():
    """Smooth cubic threefold; S is a cubic surface (P2 blown up in 6 points),
    with the hyperplane class 3H - E1 - ... - E6."""
    gram = tuple(
        tuple((1 if i == j == 0 else (-1 if i == j else 0)) for j in range(7)) for i in range(7)
    )
    return _hypersurface("cubic_p4_d3", 3, "cubic surface", gram, (3,) + (-1,) * 6, dim_l=4)


def quartic_p4_d4():
    """Smooth quartic threefold; S is a quartic (K3) surface, rank-1 slice.

    The first positivity inequality fails here by design of the geometry,
    not of the model: -K.L^2 = 4 = L^3.
    """
    return _hypersurface(
        "quartic_p4_d4", 4, "quartic surface", ((4,),), (1,), dim_l=4,
        torsion_note="rank-1 slice of the K3 lattice; enough for every check here",
    )


def _require_polarization(k):
    """kL - E is ample on either blow-up exactly when the integer k is >= 2: it
    pairs to 1 with a line in E and to k - 1 with a line through the centre."""
    if type(k) is not int or k < 2:
        raise FixtureError("k must be an integer of at least 2 for kL - E to polarize")


def _blowup(name, k, quad, surface, gamma_params, notes, toric=None):
    """P3 blown up along a centre, in the divisor basis (L, E): K_X = -4L + E,
    polarized by kL - E, dim |L| = 3, and the curve basis paired with (L, E)
    by ((1, 0), (0, -1)).  E is the one candidate decomposition class."""
    X = ThreefoldModel(
        name=f"{name}(k={k})",
        canonical=(-4, 1),
        polarization=(k, -1),
        L=(1, 0),
        quad=quad,
        h4_h2_pairing=((1, 0), (0, -1)),
        vanishing_asserted=True,
        dim_linear_system=3,
    )
    return GeometryFixture(
        name=name,
        threefold=X,
        surface=surface,
        candidates=((0, 1),),
        irreducible=False,
        gamma_params=gamma_params,
        toric=toric,
        notes=notes,
    )


def blowup_p3_point(k=3):
    """P3 blown up at a point, polarized by kL - E; S is a plane missing the point.

    Intersection conventions follow the usual blow-up bookkeeping with
    E^3 = -1 and K_X = -4L + E in the (L, E) basis; the model is consistent
    as stated and every downstream check works directly with these numbers.
    """
    _require_polarization(k)
    surface = SurfaceModel(
        name="plane (missing the center)",
        gram=((1,),),
        K_S=(-3,),
        L_S=(1,),
        O1_S=(k,),
        euler=3,
        pushforward=((1,), (0,)),
    )
    return _blowup(
        "blowup_p3_point", k, (((1, 0), (0, 0)), ((0, 0), (0, 1))), surface,
        {"r": (Fraction(1, 2), Fraction(0)), "s": (Fraction(0), Fraction(1))},
        "Characters are specified by r, s with gamma = (r/2) * [line] + s * e_E.",
        toric=p2(),
    )


def blowup_p3_line(k=3):
    """P3 blown up along a line, polarized by kL - E; S is a plane's strict
    transform (P2 blown up at one point)."""
    _require_polarization(k)
    surface = SurfaceModel(
        name="plane blown up at a point",
        gram=((1, 0), (0, -1)),
        K_S=(-3, 1),
        L_S=(1, 0),
        O1_S=(k, -1),
        euler=4,
        pushforward=((1, 0), (0, 1)),
    )
    return _blowup(
        "blowup_p3_line", k, (((1, 0), (0, 1)), ((0, 1), (-1, -2))), surface,
        {
            "r": (Fraction(1, 2), Fraction(0)),
            "s1": (Fraction(1), Fraction(1)),
            "s2": (Fraction(0), Fraction(1)),
        },
        "Characters are specified by r, s1, s2 with gamma = (r/2) * [line] "
        "+ s1 * [minimal section of E] + s2 * [fiber of E]; in the curve basis "
        "([line], [fiber]) this is (r/2 + s1, s1 + s2).",
    )


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


def _object(value, where):
    """value, when it is a JSON object; a TypeError naming where otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"{where} must be a JSON object, not {type(value).__name__}")
    return value


def _characters(table, key):
    """A {name: vector} table of characters read from JSON, whose entries
    are fraction strings such as "-1/2" or integers."""
    out = {}
    for name, vec in _object(table, key).items():
        if not isinstance(vec, (list, tuple)) or any(type(g) not in (str, int) for g in vec):
            raise FixtureError(
                f"{key}[{name!r}] must be a list of strings or integers, not {vec!r}"
            )
        try:
            out[name] = tuple(map(parse_frac, vec))
        except (ValueError, ZeroDivisionError) as exc:
            raise FixtureError(f"{key}[{name!r}]: {exc}") from exc
    return out


def fixture_to_dict(fx):
    """The fixture's fields as JSON data, characters as fraction strings."""
    d = fx.asdict()
    for key in ("gamma_names", "gamma_params"):
        d[key] = {name: [frac_str(g) for g in vec] for name, vec in d[key].items()}
    return d


def fixture_from_dict(d):
    if not isinstance(d, dict):
        raise FixtureError(f"fixture must be a JSON object, not {type(d).__name__}")
    try:
        kwargs = dict(d)
        kwargs["threefold"] = ThreefoldModel(**_object(kwargs["threefold"], "threefold"))
        kwargs["surface"] = SurfaceModel(**_object(kwargs["surface"], "surface"))
        for key in ("gamma_names", "gamma_params"):
            if key in kwargs:
                kwargs[key] = _characters(kwargs[key], key)
        # only null means "not toric"; any other value must be a toric block
        t = kwargs.pop("toric", None)
        if t is not None:
            block = {**_object(t, "toric")}
            block["bundles"] = {
                key: Linearization(**_object(entry, f"toric bundle {key!r}"))
                for key, entry in _object(block["bundles"], "toric bundles").items()
            }
            kwargs["toric"] = ToricSurfaceModel(**block)
        # a key that names no field of its model is unknown: TypeError
        return GeometryFixture(**kwargs)
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise FixtureError(f"malformed fixture data: {exc}") from exc


def load_fixture(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FixtureError("fixture nests JSON arrays or objects too deeply to read") from exc
    return fixture_from_dict(data)


def write_json(obj, path):
    """Write obj to the file path as UTF-8 JSON: indent 2, sorted keys and a
    final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_fixture(fx, path):
    write_json(fixture_to_dict(fx), path)
