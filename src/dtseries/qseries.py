"""Truncated q-series with exact integer coefficients on one rational offset.

A series here is q^offset * (c_0 + c_1 q + ... + c_{order-1} q^{order-1} + O(q^order))
with offset a Fraction and every c_i an int: Euler products and class counts
are integral, and only the offset is fractional.  A product keeps the window
both factors support; nothing here ever extends validity silently.  The
generating series is one theta block times one Euler product, moved to the
blocks' common prefactor q^(delta/24).
"""

import operator
import re
import sys
from fractions import Fraction

from .geometry import Record, delta_invariant

CONVENTION_MINUS = "theorem_minus_delta"
CONVENTION_PLUS = "example_plus_delta"
CONVENTIONS = (CONVENTION_MINUS, CONVENTION_PLUS)


class SectorError(ValueError):
    """Exponents incompatible: they differ by a non-integer."""


def frac_str(x):
    """Compact fraction rendering: '3', '-1/2'."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)\s*\Z")


def parse_frac(x):
    """A Fraction from an int, a Fraction or a string such as '-1/2' or
    '2.5e-3'.  A decimal exponent beyond the int-to-str digit limit is
    refused before Fraction builds 10**e (seconds at e = 10**7), since
    such an entry is too long to print."""
    if isinstance(x, str):
        m = _EXPONENT.search(x)
        limit = sys.get_int_max_str_digits()
        if m and limit and abs(int(m.group(1))) > limit:
            raise ValueError(f"decimal exponent {m.group(1)} exceeds {limit}")
    return Fraction(x)


class QSeries(Record):
    """Exact truncated q-series.  Immutable; operators return new objects.

    Coefficients are coerced with operator.index, so a non-integral one
    (a Fraction or a float) raises TypeError instead of being truncated.
    """

    offset: Fraction
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "offset", Fraction(self.offset))
        object.__setattr__(self, "coeffs", tuple(map(operator.index, self.coeffs)))

    @property
    def order(self):
        """Number of known coefficients; q^(offset+order) is the error term."""
        return len(self.coeffs)

    def shift(self, r):
        """Multiply by q^r."""
        return QSeries(self.offset + Fraction(r), self.coeffs)

    def __mul__(self, other):
        """Product, truncated to the shorter window; zero coefficients of the
        left factor are skipped, so put a sparse series (a theta block) first."""
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.order, other.order)
        coeffs = [0] * order
        b = other.coeffs
        for i, a in enumerate(self.coeffs[:order]):
            if a:
                for j in range(order - i):
                    coeffs[i + j] += a * b[j]
        return QSeries(self.offset + other.offset, coeffs)

    def pretty(self, var="q"):
        # term i sits at q^((p + i*d)/d) for offset p/d, already in lowest
        # terms since gcd(p + i*d, d) = gcd(p, d) = 1; an exponent is bare
        # only when it is a nonnegative integer
        p, d = self.offset.numerator, self.offset.denominator
        den = "" if d == 1 else f"/{d}"

        def power(num):
            return f"{var}^{num}" if d == 1 and num >= 0 else f"{var}^({num}{den})"

        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            num = p + i * d
            if num == 0:
                terms.append(str(c))
            else:
                cs = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                terms.append(f"{cs}{power(num)}")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O({power(p + self.order * d)})"

    def __repr__(self):
        return f"QSeries(offset={frac_str(self.offset)}, coeffs={self.coeffs!r})"

    def to_json_dict(self):
        return {
            "offset": frac_str(self.offset),
            "coeffs": [str(c) for c in self.coeffs],
        }


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

    one exact integer pass for either sign of e.  f_k is +-1 at the
    generalized pentagonal numbers and 0 elsewhere, so the pentagonal terms
    are split into a + run and a - run of (k, (e + 1) k) pairs, each grown
    by one pair as n reaches its next k; every n then sums its + prefix in
    one loop and its - prefix in another, with no test or sign branch per
    term.  f has O(sqrt(order)) nonzero terms, so the pass costs
    O(order^1.5) small-int x bigint steps: 95,382 at order 2000, where
    each run holds 36 terms.

    The division by n is exact; a nonzero remainder raises ArithmeticError.
    That catches a recurrence weight off by a constant, but not a slip that
    computes another integer power: a flipped - run gives a power of
    1 + q + q^2 + q^5 + q^7 + ... (every pentagonal sign +), and e k for
    (e + 1) k gives f^(e-1).  The expansions in the tests are the check
    there.
    """
    if order < 1:
        raise ValueError("order must be positive")
    terms = _pentagonal_terms(order)
    coeffs = [1] + [0] * (order - 1)
    add, sub = [], []  # (k, (e + 1) k) for the + and - terms with k <= n
    ends = [k for k, _ in terms[1:]] + [order]
    for (k, sign), end in zip(terms, ends):
        (add if sign > 0 else sub).append((k, (e + 1) * k))
        for n in range(k, end):
            s = 0
            for j, w in add:
                s += (w - n) * coeffs[n - j]
            for j, w in sub:
                s -= (w - n) * coeffs[n - j]
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
    base = exps[0] if exps else Fraction(0)
    coeffs = [0] * order
    for x in exps:
        j = x - base
        if j.denominator != 1:
            raise SectorError("theta exponents lie in different cosets of Z")
        if j.numerator < order:
            coeffs[j.numerator] += 1
    return QSeries(base, coeffs)


class BetaBlock(Record):
    """One curve-class block of the generating series:
    q^prefactor_exponent * n_series."""

    beta: tuple
    beta_sq: int
    prefactor_exponent: Fraction  # beta^2/2 + delta/24
    n_series: QSeries  # the beta-independent Euler-product factor, based at 0


class DTSeriesResult(Record):
    delta: int
    convention: str
    blocks: tuple
    total: QSeries


def dt_series(surface, table, order, convention=CONVENTION_MINUS):
    """Assemble the generating series from a contribution table.

    Every class beta contributes q^(beta^2/2 + delta/24) * prod(1-q^k)^(-delta)
    (sign of the exponent set by `convention`).  The Euler factor does not
    depend on beta, so the total over the table's classes is one product:
    theta_block(beta^2/2 per class) * prod(1-q^k)^(-delta), times q^(delta/24).
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    delta = delta_invariant(surface)
    sign = -1 if convention == CONVENTION_MINUS else 1
    n_series = euler_product(sign * delta, order)
    off = Fraction(delta, 24)
    squares = {}
    for row in table.rows:
        squares.setdefault(row.beta, row.beta_sq)
    blocks = sorted(
        (BetaBlock(beta, sq, Fraction(sq, 2) + off, n_series) for beta, sq in squares.items()),
        key=lambda b: (b.prefactor_exponent, b.beta),
    )
    theta = theta_block([Fraction(sq, 2) for sq in squares.values()], order)
    total = (theta * n_series).shift(off)
    return DTSeriesResult(delta=delta, convention=convention, blocks=tuple(blocks), total=total)
