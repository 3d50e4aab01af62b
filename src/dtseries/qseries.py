"""Truncated q-series with exact rational coefficients and fractional offsets.

A series here is q^offset * (c_0 + c_1 q + ... + c_{order-1} q^{order-1} + O(q^order))
with offset a Fraction and every c_i a Fraction.  All arithmetic tracks the
truncation order honestly: products shrink the window to what both factors
support, sums align offsets (which must differ by an integer) and keep the
window both summands cover.  Nothing here ever extends validity silently.
"""

from dataclasses import dataclass
from fractions import Fraction

from .geometry import delta_invariant

CONVENTION_MINUS = "theorem_minus_delta"
CONVENTION_PLUS = "example_plus_delta"
CONVENTIONS = (CONVENTION_MINUS, CONVENTION_PLUS)


class SectorError(ValueError):
    """Offsets incompatible: they differ by a non-integer."""


def frac_str(x):
    """Compact fraction rendering: '3', '-1/2'."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s):
    return Fraction(s)


class QSeries:
    """Exact truncated q-series.  Immutable; operators return new objects."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset, coeffs):
        object.__setattr__(self, "offset", Fraction(offset))
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @property
    def order(self):
        """Number of known coefficients; q^(offset+order) is the error term."""
        return len(self.coeffs)

    def coefficient(self, exponent):
        """Exact coefficient of q^exponent; 0 outside the support lattice,
        ValueError beyond the truncation window."""
        j = Fraction(exponent) - self.offset
        if j.denominator != 1:
            return Fraction(0)
        j = j.numerator
        if j < 0:
            return Fraction(0)
        if j >= self.order:
            raise ValueError(f"coefficient of q^{exponent} beyond truncation order")
        return self.coeffs[j]

    def shift(self, r):
        """Multiply by q^r."""
        return QSeries(self.offset + Fraction(r), self.coeffs)

    def truncate(self, order):
        if order > self.order:
            raise ValueError("cannot extend truncation order")
        return QSeries(self.offset, self.coeffs[:order])

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    def __neg__(self):
        return QSeries(self.offset, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        gap = other.offset - self.offset
        if gap.denominator != 1:
            raise SectorError(
                f"offsets {frac_str(self.offset)} and {frac_str(other.offset)} "
                "differ by a non-integer"
            )
        offset = min(self.offset, other.offset)
        valid = min(self.offset + self.order, other.offset + other.order) - offset
        order = valid.numerator if valid > 0 else 0
        coeffs = [Fraction(0)] * order
        for src in (self, other):
            base = (src.offset - offset).numerator
            for i, c in enumerate(src.coeffs):
                if 0 <= base + i < order:
                    coeffs[base + i] += c
        return QSeries(offset, coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries(self.offset, tuple(c * other for c in self.coeffs))
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        coeffs = [Fraction(0)] * order
        for i, a in enumerate(self.coeffs[:order]):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs[: order - i]):
                coeffs[i + j] += a * b
        return QSeries(self.offset + other.offset, coeffs)

    __rmul__ = __mul__

    def pretty(self, var="q"):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.offset + i
            if e == 0:
                terms.append(frac_str(c))
            else:
                es = frac_str(e) if e.denominator == 1 and e >= 0 else f"({frac_str(e)})"
                cs = "" if c == 1 else ("-" if c == -1 else frac_str(c) + "*")
                terms.append(f"{cs}{var}^{es}")
        body = " + ".join(terms) if terms else "0"
        tail = self.offset + self.order
        es = frac_str(tail) if tail.denominator == 1 and tail >= 0 else f"({frac_str(tail)})"
        return f"{body} + O({var}^{es})"

    def __repr__(self):
        return f"QSeries(offset={frac_str(self.offset)}, coeffs={self.coeffs!r})"

    def to_json_dict(self):
        return {
            "offset": frac_str(self.offset),
            "coeffs": [frac_str(c) for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, d):
        return cls(parse_frac(d["offset"]), [parse_frac(c) for c in d["coeffs"]])


def _pentagonal_terms(order):
    """(k, sign) for every nonzero term of prod_{k>=1} (1 - q^k) below q^order.

    Euler's pentagonal theorem: the product is sum_j (-1)^j q^(j(3j-1)/2)
    over all integers j, so the terms are +-1 at the generalized pentagonal
    numbers j(3j-1)/2 and j(3j+1)/2, listed here in increasing order.
    """
    terms = []
    j = 1
    while j * (3 * j - 1) // 2 < order:
        sign = -1 if j % 2 else 1
        for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if k < order:
                terms.append((k, sign))
        j += 1
    return terms


def euler_product(e, order):
    """prod_{k>=1} (1 - q^k)^e truncated to the given order (integer e, any sign).

    f = prod (1 - q^k) comes from Euler's pentagonal theorem, and g = f^e
    from J.C.P. Miller's power recurrence (f_0 = 1)

        n * g_n = sum_{k=1}^{n} ((e + 1) k - n) * f_k * g_{n-k},

    one exact integer pass for either sign of e.  f has O(sqrt(order))
    nonzero terms, so the pass costs O(order^1.5) small-int x bigint steps.
    The division by n is exact; a nonzero remainder raises ArithmeticError.
    """
    if order < 1:
        raise ValueError("order must be positive")
    terms = _pentagonal_terms(order)
    e1 = e + 1
    coeffs = [1] + [0] * (order - 1)
    for n in range(1, order):
        s = 0
        for k, sign in terms:
            if k > n:
                break
            if sign > 0:
                s += (e1 * k - n) * coeffs[n - k]
            else:
                s -= (e1 * k - n) * coeffs[n - k]
        c, r = divmod(s, n)
        if r:
            raise ArithmeticError(f"Miller recurrence: {s} is not divisible by {n}")
        coeffs[n] = c
    return QSeries(0, coeffs)


def eta_power(e, order):
    """eta(q)^e = q^(e/24) * prod (1-q^k)^e, with the fractional offset kept exact."""
    return euler_product(e, order).shift(Fraction(e, 24))


def theta_block(exponents, order):
    """sum_x q^(e_x) for a finite multiset of rational exponents.

    Exponents must all lie in one coset r + Z (else the sum is not a single
    QSeries and a SectorError is raised).  An empty multiset gives the zero
    series based at 0.
    """
    exps = sorted(Fraction(x) for x in exponents)
    if not exps:
        return QSeries(0, [Fraction(0)] * order)
    base = exps[0]
    coeffs = [Fraction(0)] * order
    for x in exps:
        j = x - base
        if j.denominator != 1:
            raise SectorError("theta exponents lie in different cosets of Z")
        if j.numerator < order:
            coeffs[j.numerator] += 1
    return QSeries(base, coeffs)


@dataclass(frozen=True)
class BetaBlock:
    """One curve-class block of the generating series."""

    beta: tuple
    beta_sq: int
    prefactor_exponent: Fraction  # beta^2/2 + delta/24
    n_series: QSeries  # the beta-independent Euler-product factor, based at 0

    @property
    def series(self):
        return self.n_series.shift(self.prefactor_exponent)


@dataclass(frozen=True)
class DTSeriesResult:
    delta: int
    convention: str
    blocks: tuple
    total: QSeries


def dt_series(surface, table, order, convention=CONVENTION_MINUS):
    """Assemble the generating series from a contribution table.

    Every class beta contributes q^(beta^2/2 + delta/24) * prod(1-q^k)^(-delta)
    (sign of the exponent set by `convention`); the total is the sum over
    the table's classes, truncated to the window both tools support.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    delta = delta_invariant(surface)
    sign = -1 if convention == CONVENTION_MINUS else 1
    n_series = euler_product(sign * delta, order)
    off = Fraction(delta, 24)
    blocks = []
    seen = set()
    for row in table.rows:
        if row.beta in seen:
            continue
        seen.add(row.beta)
        blocks.append(
            BetaBlock(
                beta=row.beta,
                beta_sq=row.beta_sq,
                prefactor_exponent=Fraction(row.beta_sq, 2) + off,
                n_series=n_series,
            )
        )
    blocks.sort(key=lambda b: (b.prefactor_exponent, b.beta))
    if blocks:
        total = blocks[0].series
        for b in blocks[1:]:
            total = total + b.series
    else:
        total = QSeries(off, [Fraction(0)] * order)
    return DTSeriesResult(delta=delta, convention=convention, blocks=tuple(blocks), total=total)
