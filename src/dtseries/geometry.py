"""Intersection arithmetic for a polarized threefold carrying a surface class.

A ThreefoldModel is pure linear-algebra data on a basis of divisor classes
and a basis of curve classes (degree-4 cohomology): the curve class of each
product D_a.D_b, the pairing of curve classes with divisors, the canonical
class, a polarization and the distinguished surface class L.  Every number
is stored once: a triple product is the curve class a.b paired with c, and
the ranks are vector lengths.  A SurfaceModel carries the intersection form
of a member S of |L| together with the pushforward of its curve classes
into the threefold.  All checks below are exact integer or rational
identities; nothing is approximated.

run_all_checks is the one entry point to the hypotheses of the product
formula: it evaluates the two positivity inequalities, the asserted
cohomology vanishing and the stability gap at every candidate decomposition
of L, and returns one complete AssumptionReport.
"""

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import get_args

from .intlinalg import integer_completion


class ModelError(ValueError):
    """Model data violates a structural invariant."""


def _int_tuple(x, where, depth=3):
    """A list of ints, or of such lists, as nested tuples at most depth
    lists deep (the deepest field, quad, has three).  Entries must be
    exactly int: True and 1.0 are refused."""
    if not isinstance(x, (list, tuple)):
        raise ModelError(f"{where} must hold integers in nested lists, not {x!r}")
    if not depth:
        raise ModelError(f"{where} nests lists more than three deep")
    return tuple(y if type(y) is int else _int_tuple(y, where, depth - 1) for y in x)


def _ints(v, n, *inner):
    """Whether v is a tuple of n ints or, with inner dimensions, a tuple of
    n such tuples: _ints(G, s, s) is an s x s integer matrix."""
    if type(v) is not tuple or len(v) != n:
        return False
    return all(_ints(x, *inner) for x in v) if inner else {*map(type, v)} <= {int}


@lru_cache(maxsize=None)
def _schema(cls):
    """(name, allowed types) of each field of a model class."""
    return tuple((f.name, get_args(f.type) or (f.type,)) for f in fields(cls))


def _typed_fields(obj):
    """Coerce each dataclass field by its declared type: a `tuple` becomes
    nested tuples of ints, anything else must be exactly one of its types
    (True is no int, 1 no bool).  The fields are the fixture JSON's schema."""
    for name, allowed in _schema(type(obj)):
        value, where = getattr(obj, name), f"{type(obj).__name__}.{name}"
        if allowed == (tuple,):
            object.__setattr__(obj, name, _int_tuple(value, where))
        elif type(value) not in allowed:
            names = " or ".join(t.__name__ for t in allowed)
            raise ModelError(f"{where} must be {names}, not {value!r}")


@dataclass(frozen=True)
class ChernVector:
    """Character data (0, L, gamma, xi) of a sheaf supported on |L|.

    gamma is a rational vector in the curve-class basis (half-integral
    entries occur naturally), xi the degree-6 component as a rational.
    """

    gamma: tuple
    xi: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "gamma", tuple(Fraction(g) for g in self.gamma))
        object.__setattr__(self, "xi", Fraction(self.xi))


@dataclass(frozen=True)
class ThreefoldModel:
    """Divisor classes D_a and curve classes C_i of a threefold, each triple
    product read as the curve class D_a.D_b paired with D_c.  The ranks are
    the lengths of L and of the pairing."""

    name: str
    canonical: tuple  # K_X in the divisor basis
    polarization: tuple  # O(1) in the divisor basis
    L: tuple  # the surface class
    quad: tuple  # quad[a][b] = curve-class coordinates of D_a . D_b
    h4_h2_pairing: tuple  # pairing[i][a] = C_i . D_a
    vanishing_asserted: bool
    dim_linear_system: int | None = None

    @property
    def h2_rank(self):
        return len(self.L)

    @property
    def h4_rank(self):
        return len(self.h4_h2_pairing)

    def __post_init__(self):
        _typed_fields(self)
        r, h = self.h2_rank, self.h4_rank
        for v in (self.canonical, self.polarization, self.L):
            if not _ints(v, r):
                raise ModelError(
                    f"{self.name}: divisor vectors must have length {r} and integer entries"
                )
        if not _ints(self.h4_h2_pairing, h, r):
            raise ModelError(f"{self.name}: pairing must be {h}x{r}")
        if not _ints(self.quad, r, r, h):
            raise ModelError(f"{self.name}: quad must be {r}x{r} of curve classes of length {h}")
        # quad symmetric in (a, b) and (D_a.D_b).D_c symmetric in (b, c)
        # make D_a.D_b.D_c symmetric under every permutation
        cols = [[row[c] for row in self.h4_h2_pairing] for c in range(r)]
        for a in range(r):
            for b in range(r):
                if self.quad[a][b] != self.quad[b][a]:
                    raise ModelError(f"{self.name}: quad not symmetric at {(a, b)}")
                for c in range(b):
                    if (sum(map(mul, self.quad[a][b], cols[c]))
                            != sum(map(mul, self.quad[a][c], cols[b]))):
                        raise ModelError(
                            f"{self.name}: triple product not symmetric at {(a, b, c)}"
                        )


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    gram: tuple  # s x s intersection form, signature (1, s-1); s is the rank
    K_S: tuple
    L_S: tuple  # restriction of L to S
    O1_S: tuple  # restriction of the polarization to S
    euler: int
    pushforward: tuple  # h4_rank x s matrix into the threefold curve basis
    torsion_note: str = ""

    @property
    def h2_rank(self):
        return len(self.gram)

    def __post_init__(self):
        _typed_fields(self)
        s = self.h2_rank
        if not _ints(self.gram, s, s):
            raise ModelError(f"{self.name}: gram must be {s}x{s}")
        for i in range(s):
            for j in range(s):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ModelError(f"{self.name}: gram not symmetric")
        for v in (self.K_S, self.L_S, self.O1_S):
            if not _ints(v, s):
                raise ModelError(f"{self.name}: surface divisor vectors must have length {s} "
                                 "and integer entries")
        if not all(_ints(row, s) for row in self.pushforward):
            raise ModelError(f"{self.name}: pushforward rows must have length {s} "
                             "and integer entries")
        # Hodge index: signature (1, s-1, 0) with h = O1_S means h^2 > 0 and
        # a negative definite form on h^perp.  N = w w^T - h^2 G, w = G h,
        # vanishes on h and is -h^2 G on h^perp, so that holds exactly when
        # N is positive definite on a hyperplane x_j = 0 with h_j != 0: with
        # x_j moved last, N's leading block.  Rank 0 has no such signature.
        h = self.O1_S
        w = [sum(map(mul, row, h)) for row in self.gram]
        hh = sum(map(mul, w, h))
        if hh > 0:
            j = next(i for i in range(s) if h[i])
            order = sorted(range(s), key=lambda i: i == j)
            try:
                integer_completion([[w[a] * w[b] - hh * self.gram[a][b] for b in order]
                                    for a in order])
            except ValueError:
                hh = 0
        if hh <= 0:
            raise ModelError(f"{self.name}: intersection form must have signature "
                             f"(1, {s - 1}, 0) with O1_S^2 > 0")

    def dot(self, u, v):
        """Intersection number u . v on the surface."""
        return sum(g * u[i] * v[j] for i, row in enumerate(self.gram) for j, g in enumerate(row))

    def push(self, beta):
        """Pushforward of a surface curve class into the threefold curve basis."""
        return tuple(sum(row[j] * beta[j] for j in range(self.h2_rank)) for row in self.pushforward)


@dataclass(frozen=True)
class InequalityCheck:
    label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self):
        return self.lhs > self.rhs


@dataclass(frozen=True)
class StabilityEntry:
    candidate: tuple
    forbidden_m: Fraction

    @property
    def is_integer(self):
        return self.forbidden_m.denominator == 1

    @property
    def gap_holds(self):
        return not self.is_integer


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the numeric hypotheses behind the product formula."""

    ineq_KL2_gt_L3: InequalityCheck
    ineq_KLO1_pos: InequalityCheck
    vanishing_asserted: bool
    irreducible: bool
    stability_gap: tuple  # one StabilityEntry per candidate decomposition

    @property
    def inequalities(self):
        """The two positivity checks, in report order."""
        return self.ineq_KL2_gt_L3, self.ineq_KLO1_pos

    @property
    def passed(self):
        return not self.failures

    @property
    def failures(self):
        out = [iq.label for iq in self.inequalities if not iq.holds]
        if not self.vanishing_asserted:
            out.append("cohomology vanishing")
        out.extend(
            f"stability gap at {e.candidate}" for e in self.stability_gap if not e.gap_holds
        )
        return out


def curve_class(X, a, b):
    """Curve-class coordinates of the product a.b of two divisor vectors
    (entries may be rational)."""
    r = X.h2_rank
    if not (len(a) == len(b) == r):
        raise ModelError("divisor vector of wrong length")
    out = [0] * X.h4_rank
    for i in range(r):
        if a[i]:
            for j in range(r):
                if b[j]:
                    for k, x in enumerate(X.quad[i][j]):
                        out[k] += a[i] * b[j] * x
    return tuple(out)


def pair_h4_h2(X, u, v):
    """Pair a curve-class vector u against a divisor vector v."""
    if len(u) != X.h4_rank or len(v) != X.h2_rank:
        raise ModelError("vector of wrong length")
    return sum(
        u[i] * X.h4_h2_pairing[i][a] * v[a] for i in range(X.h4_rank) for a in range(X.h2_rank)
    )


def triple_product(X, a, b, c):
    """Cup product a.b.c of three divisor vectors: the curve class a.b
    paired with c."""
    return pair_h4_h2(X, curve_class(X, a, b), c)


def minus(v):
    return tuple(-x for x in v)


def sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def hilbert_coeffs(X, ch):
    """Leading and subleading Hilbert polynomial coefficients (a2, a1) of a
    sheaf with character (0, L, gamma, xi)."""
    a2 = Fraction(triple_product(X, X.L, X.polarization, X.polarization), 2)
    a1 = Fraction(pair_h4_h2(X, ch.gamma, X.polarization)) - Fraction(
        triple_product(X, X.L, X.canonical, X.polarization), 2
    )
    return a2, a1


def stability_forbidden_m(X, a2, a1, L1):
    """The unique twist m at which a destabilizing sub with support L1 could
    have matching reduced Hilbert polynomial; stability is unobstructed
    whenever this is not an integer."""
    num = Fraction(a1, 1) / a2 * triple_product(X, L1, X.polarization, X.polarization)
    num -= triple_product(X, sub(L1, X.canonical), L1, X.polarization)
    return num / 2


def run_all_checks(X, ch, candidates, irreducible=False):
    """The two positivity inequalities, the asserted cohomology vanishing and
    the forbidden-twist criterion at each candidate L1 of a decomposition
    L = L1 + L2, in one report.

    The candidates are nonzero classes other than L, as a GeometryFixture
    ensures when it is built.  An empty candidate list passes the
    stability gap vacuously (in particular when the class of L is
    irreducible and no decomposition exists).
    """
    mK = minus(X.canonical)
    lhs1 = triple_product(X, mK, X.L, X.L)
    rhs1 = triple_product(X, X.L, X.L, X.L)
    val2 = triple_product(X, mK, X.L, X.polarization)
    a2, a1 = hilbert_coeffs(X, ch)
    return AssumptionReport(
        ineq_KL2_gt_L3=InequalityCheck("-K.L^2 > L^3", Fraction(lhs1), Fraction(rhs1)),
        ineq_KLO1_pos=InequalityCheck("-K.L.O(1) > 0", Fraction(val2), Fraction(0)),
        vanishing_asserted=X.vanishing_asserted,
        irreducible=irreducible,
        stability_gap=tuple(StabilityEntry(tuple(L1), stability_forbidden_m(X, a2, a1, L1))
                            for L1 in candidates),
    )


def virtual_dimension(X):
    """Expected dimension -K.L^2/2 + 1 of the space of supports; under the
    standard hypotheses it equals dim |L|."""
    t = triple_product(X, minus(X.canonical), X.L, X.L)
    if t % 2 != 0:
        raise ModelError(f"{X.name}: -K.L^2 = {t} is odd, virtual dimension is not an integer")
    return t // 2 + 1


def delta_invariant(S, divisor=None):
    """e(S) - K_S.D + D.D for a divisor class D on S (default D = L_S):
    the Euler-product exponent of the series."""
    D = S.L_S if divisor is None else tuple(divisor)
    return S.euler - S.dot(S.K_S, D) + S.dot(D, D)


def check_consistency(X, S):
    """Cross-checks tying a surface model to its ambient threefold: push L_S
    is the class of L^2 and, at each basis class e_i of Pic(S), the
    projection formula D|_S.e_i = D.push e_i holds for K_S = (K_X+L)|_S,
    L_S = L|_S and O1_S = H|_S, and so does Wu's formula e_i.e_i = K_S.e_i
    mod 2.  Together they give L_S^2 = L^3 and K_S.L_S = (K_X+L).L^2.
    The pushforward has one row per curve class of X."""
    if len(S.pushforward) != X.h4_rank:
        raise ModelError(f"{S.name}: pushforward row count {len(S.pushforward)} differs from "
                         f"the number of curve classes of {X.name}, {X.h4_rank}")
    if S.push(S.L_S) != curve_class(X, X.L, X.L):
        raise ModelError(f"{S.name}: pushforward of L_S is not the class of L^2")
    KplusL = tuple(k + l for k, l in zip(X.canonical, X.L))
    restrictions = (("K_S", S.K_S, "K_X+L", KplusL), ("L_S", S.L_S, "L", X.L),
                    ("O1_S", S.O1_S, "H", X.polarization))
    for i, row in enumerate(S.gram):
        pushed = tuple(p[i] for p in S.pushforward)
        for name, on_S, ambient, D in restrictions:
            a, b = sum(map(mul, row, on_S)), pair_h4_h2(X, pushed, D)
            if a != b:
                raise ModelError(f"{S.name}: projection formula fails at e_{i}: "
                                 f"{name}.e_{i} = {a} but ({ambient}).push e_{i} = {b}")
        k = sum(map(mul, row, S.K_S))
        if (row[i] - k) % 2:
            raise ModelError(f"{S.name}: Wu's formula fails at e_{i}: e_{i}.e_{i} = {row[i]} "
                             f"and K_S.e_{i} = {k} differ mod 2")
    return True
