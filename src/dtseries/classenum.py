"""Enumeration of surface curve classes compatible with a fixed character.

The divisor-level character pins the pushforward of a contributing class
beta to gamma + L^2/2; the solutions form an affine lattice inside the
surface curve lattice.  On the orthogonal complement of an ample class the
intersection form is negative definite (index theorem), so each square
beta^2 is attained by finitely many classes: one integer completion of the
form and a completed-square descent on the row echelon basis of the
lattice enumerate them exactly, in increasing order.  Only the box of
enumerate_contributions centres the origin (beta_constraint_lattice).
"""

import math
from fractions import Fraction
from operator import mul

from .geometry import Record, delta_invariant, pair_h4_h2, triple_product
from .intlinalg import (
    integer_completion,
    mat_vec,
    row_echelon,
    solve_completed_square,
    solve_integer_system,
)


class IndefiniteKernelError(ValueError):
    """Residual form on the constraint lattice is not negative definite."""


class AffineLattice(Record):
    """origin + Z-span(basis) inside Z^s."""

    origin: tuple
    basis: tuple

    @property
    def rank(self):
        return len(self.basis)

    def element(self, coords):
        v = list(self.origin)
        for c, b in zip(coords, self.basis):
            for i in range(len(v)):
                v[i] += c * b[i]
        return tuple(v)


def _round_half_to_zero(x):
    f = Fraction(x)
    n, d = f.numerator, f.denominator
    q, r = divmod(abs(n), d)
    if 2 * r > d:
        q += 1
    return q if n >= 0 else -q


def _kernel(S, gamma, L2):
    """(origin, basis) of the classes with pushforward gamma + L2/2, from
    solve_integer_system, or None when the target is non-integral or
    outside the image."""
    target = [Fraction(g) + Fraction(l, 2) for g, l in zip(gamma, L2)]
    if any(t.denominator != 1 for t in target):
        return None
    return solve_integer_system([list(row) for row in S.pushforward], target)


def _completion(S, gamma, origin, basis):
    """(M, rows, pivots, tail) for the classes origin + Z-span(basis).

    M = [[-A, -g], [-g^T, -o.o]] from one G.B product, A the kernel Gram
    and g = B^T G o, so -beta(x)^2 = (x, 1)^T M (x, 1); (rows, pivots,
    tail) is its integer_completion.  A kernel form that is not negative
    definite raises IndefiniteKernelError.
    """
    # one G.B product gives A and, G being symmetric, B^T G origin
    GB = [mat_vec(S.gram, b) for b in basis]
    g = [-sum(map(mul, gb, origin)) for gb in GB]
    M = [[-sum(map(mul, b, gb)) for gb in GB] + [gi] for b, gi in zip(basis, g)]
    M.append(g + [-S.dot(origin, origin)])
    try:
        return (M, *integer_completion(M))
    except ValueError as exc:
        raise IndefiniteKernelError(
            f"{S.name}: the intersection form on the constraint lattice of gamma = "
            f"({', '.join(map(str, gamma))}) is not negative definite") from exc


def beta_constraint_lattice(S, gamma, L2):
    """Affine lattice of classes with pushforward gamma + L2/2, or None when
    the target is non-integral or outside the image.

    The basis is solve_integer_system's; the origin is translated by it to
    the lattice point nearest the real maximum of beta^2 (rounding half to
    zero), which makes window-based enumeration symmetric and the output
    independent of internal row-reduction choices.  A kernel form that is
    not negative definite raises IndefiniteKernelError.
    """
    found = _kernel(S, gamma, L2)
    if found is None:
        return None
    origin, basis = found
    _, rows, pivots, _ = _completion(S, gamma, origin, basis)
    # beta^2 peaks where every square vanishes: back-substitution
    peak = [0] * len(basis)
    for k in reversed(range(len(basis))):
        row = rows[k]
        peak[k] = Fraction(-row[-1] - sum(map(mul, row[1:-1], peak[k + 1:])), pivots[k])
    for c, b in zip(peak, basis):
        r = _round_half_to_zero(c)
        origin = [o + r * e for o, e in zip(origin, b)]
    return AffineLattice(origin=tuple(origin), basis=tuple(tuple(b) for b in basis))


def enumerate_beta(S, gamma, beta_sq):
    """All classes beta in the constraint lattice with beta.beta == beta_sq,
    in increasing order, with no sort: the descent runs on the row echelon
    basis of the lattice, last pivot first (see solve_completed_square).

    The quadratic form on the lattice directions must be negative definite
    (guaranteed on the orthogonal complement of an ample class); otherwise
    IndefiniteKernelError is raised rather than returning a wrong finite list.
    """
    found = _kernel(S, gamma, S.push(S.L_S))
    if found is None:
        return []
    origin, basis = found
    basis = row_echelon(basis)[::-1]
    M, rows, pivots, tail = _completion(S, gamma, origin, basis)
    m = len(basis)
    # beta(x)^2 = x.A.x + 2 b.x + c = sum_i A_ii x_i + c (mod 2): when every
    # A_ii = -M_ii is even, every class has the parity of c = -M_mm
    if (beta_sq + M[m][m]) % 2 and all(M[i][i] % 2 == 0 for i in range(m)):
        return []
    # -beta^2 = sum of the completed squares + tail / p_{m-1}
    value = -beta_sq - Fraction(tail, pivots[-1] if pivots else 1)
    return solve_completed_square(rows, pivots, value, origin, basis)


class BetaData(Record):
    beta: tuple
    beta_sq: int
    n: int
    xi: Fraction
    q_exponent: Fraction


class ContributionTable(Record):
    gamma: tuple
    window: int
    max_power: Fraction
    delta: int
    rows: tuple


def enumerate_contributions(S, X, gamma, max_power, window):
    """Contribution rows (beta, beta_sq, n, xi, exponent) with exponent
    beta^2/2 + delta/24 + n at most max_power, scanning lattice coordinates
    in the box [-window, window]^rank.  Rows are bounded and ordered on the
    integer beta^2 + 2n."""
    if window < 0:
        raise ValueError("window must be nonnegative")
    gamma = tuple(Fraction(g) for g in gamma)
    delta = delta_invariant(S)
    max_power = Fraction(max_power)
    L2 = S.push(S.L_S)
    lattice = beta_constraint_lattice(S, gamma, L2)
    rows = []
    if lattice is not None:
        # xi = beta^2/2 + gamma.L/2 + 2L^3/3 - n, which the tests compare
        # against a reference, and the exponent beta^2/2 + delta/24 + n
        # depend on (beta^2, n) only: each pair builds them once, each as one
        # Fraction (2 xi = beta^2 - 2n + a/b, 24 exponent = 12(beta^2 + 2n)
        # + delta), and the classes of that square share them
        gL = pair_h4_h2(X, gamma, X.L)
        L3 = triple_product(X, X.L, X.L, X.L)
        xi2 = Fraction(gL) + Fraction(4 * L3, 3)
        a, b = xi2.numerator, xi2.denominator
        # beta^2/2 + delta/24 + n <= max_power  <=>  beta^2 + 2n <= top,
        # because beta^2 + 2n is an integer
        top = math.floor(2 * max_power - Fraction(delta, 12))
        classes = {}
        for coords in _box(lattice.rank, window):
            beta = lattice.element(coords)
            classes.setdefault(S.dot(beta, beta), []).append(beta)
        for bsq, betas in classes.items():
            for n in range((top - bsq) // 2 + 1):
                xi = Fraction((bsq - 2 * n) * b + a, 2 * b)
                q_exponent = Fraction(12 * (bsq + 2 * n) + delta, 24)
                rows += [BetaData(beta, bsq, n, xi, q_exponent) for beta in betas]
    # the exponent (beta^2 + 2n)/2 + delta/24 is strictly increasing in the
    # integer beta^2 + 2n, so this is the order (q_exponent, beta)
    rows.sort(key=lambda r: (r.beta_sq + 2 * r.n, r.beta))
    return ContributionTable(
        gamma=gamma, window=window, max_power=max_power, delta=delta, rows=tuple(rows)
    )


def _box(rank, radius):
    if rank == 0:
        yield ()
        return
    for first in range(-radius, radius + 1):
        for rest in _box(rank - 1, radius):
            yield (first,) + rest
