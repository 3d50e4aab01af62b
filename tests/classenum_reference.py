"""Brute-force references for classenum, in Fractions.

`enumerate_contributions` bounds, sorts and keys its rows on the integers
beta^2 and n.  Its reference here is the box scan the long way: every
(beta, n) row is compared against max_power, built and sorted with Fraction
arithmetic.

`enumerate_beta` does one set-up per call and builds classes along its
descent.  Its reference here is the per-level path the long way: the origin
and the centre each from their own Gram product and Fraction solve, a descent
over lattice coordinates, and one `AffineLattice.element` per class.

The `Fraction` linear algebra the library replaced by one integer
completion lives here too, as references for `intlinalg.integer_completion`
and the surface model's Hodge-index check: the rational solve, the
completed square and the signature by congruence elimination.

`xi_from_n` and its inverse `n_from_xi` are the degree-6 bookkeeping of a
row, each with its own inline formula, so that the rows' xi are checked
against an independent computation.
"""

from fractions import Fraction
from math import isqrt, lcm

from dtseries.classenum import (
    AffineLattice,
    BetaData,
    ContributionTable,
    IndefiniteKernelError,
    _box,
    _round_half_to_zero,
)
from dtseries.geometry import delta_invariant, pair_h4_h2, triple_product
from dtseries.intlinalg import solve_integer_system


def solve_rational(A, b):
    """Solve the square nonsingular system A x = b over Q."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def symmetric_signature(G):
    """Signature (n_plus, n_minus, n_zero) of a rational symmetric matrix.

    Congruence elimination with the usual fix when only off-diagonal
    entries are nonzero (add a row to make a nonzero diagonal pivot).
    """
    n = len(G)
    M = [[Fraction(G[i][j]) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][i] != 0), None)
        if piv is None:
            off = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if M[i][j] != 0:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                zero += n - k
                break
            i, j = off
            for r in range(n):
                M[i][r] += M[j][r]
            for r in range(n):
                M[r][i] += M[r][j]
            piv = i
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            for r in range(n):
                M[r][k], M[r][piv] = M[r][piv], M[r][k]
        p = M[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if M[i][k] != 0:
                f = M[i][k] / p
                for j in range(k, n):
                    M[i][j] -= f * M[k][j]
                for j in range(k, n):
                    M[j][i] = M[i][j]
    return pos, neg, zero


def quadratic_completion(Q):
    """Write a positive definite rational form as sum of completed squares.

    Returns (d, u) with Q(x) = sum_i d_i * (x_i + sum_{j>i} u[i][j] x_j)^2.
    Raises ValueError if Q is not positive definite.
    """
    n = len(Q)
    A = [[Fraction(Q[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        d[k] = A[k][k]
        if d[k] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(k + 1, n):
            u[k][j] = A[k][j] / d[k]
        for i in range(k + 1, n):
            for j in range(i, n):
                A[i][j] -= A[k][i] * A[k][j] / d[k]
                A[j][i] = A[i][j]
    return d, u


class NoSheafError(ValueError):
    """Requested degree-6 data admits no sheaf (non-integral or negative length)."""


def n_from_xi(S, X, gamma, beta, xi):
    """Box count n = beta^2/2 + gamma.L/2 + 2L^3/3 - xi; must be a
    nonnegative integer for a sheaf to exist."""
    bsq = S.dot(beta, beta)
    gL = pair_h4_h2(X, gamma, X.L)
    L3 = triple_product(X, X.L, X.L, X.L)
    n = Fraction(bsq, 2) + Fraction(gL) / 2 + Fraction(2 * L3, 3) - Fraction(xi)
    if n.denominator != 1:
        raise NoSheafError(f"n = {n} is not an integer")
    if n < 0:
        raise NoSheafError(f"n = {n} is negative")
    return n.numerator


def xi_from_n(S, X, gamma, beta, n):
    """Inverse of n_from_xi."""
    if n < 0:
        raise NoSheafError("n must be nonnegative")
    bsq = S.dot(beta, beta)
    gL = pair_h4_h2(X, gamma, X.L)
    L3 = triple_product(X, X.L, X.L, X.L)
    return Fraction(bsq, 2) + Fraction(gL) / 2 + Fraction(2 * L3, 3) - n


def enumerate_contributions(S, X, gamma, max_power, window):
    """Contribution rows (beta, beta_sq, n, xi, exponent) with exponent
    beta^2/2 + delta/24 + n at most max_power, scanning lattice coordinates
    in the box [-window, window]^rank."""
    if window < 0:
        raise ValueError("window must be nonnegative")
    gamma = tuple(Fraction(g) for g in gamma)
    delta = delta_invariant(S)
    max_power = Fraction(max_power)
    L2 = S.push(S.L_S)
    lattice = beta_constraint_lattice_reference(S, gamma, L2)
    rows = []
    if lattice is not None:
        # xi = beta^2/2 + gamma.L/2 + 2L^3/3 - n as in xi_from_n, which the
        # tests compare against; only beta^2/2 - n varies from row to row
        gL = pair_h4_h2(X, gamma, X.L)
        L3 = triple_product(X, X.L, X.L, X.L)
        xi_const = Fraction(gL) / 2 + Fraction(2 * L3, 3)
        off = Fraction(delta, 24)
        for coords in _box(lattice.rank, window):
            beta = lattice.element(coords)
            bsq = S.dot(beta, beta)
            half_bsq = Fraction(bsq, 2)
            base = half_bsq + off
            xi0 = half_bsq + xi_const
            n = 0
            while base + n <= max_power:
                rows.append(
                    BetaData(beta=beta, beta_sq=bsq, n=n, xi=xi0 - n, q_exponent=base + n)
                )
                n += 1
    rows.sort(key=lambda r: (r.q_exponent, r.beta))
    return ContributionTable(
        gamma=gamma, window=window, max_power=max_power, delta=delta, rows=tuple(rows)
    )


def _reduce_origin(S, origin, basis):
    """Translate the particular solution by the kernel so it (nearly)
    minimizes -beta^2, with its own Gram product and Fraction solve."""
    m = len(basis)
    if m == 0:
        return tuple(origin)
    G = S.gram
    s = S.h2_rank
    A = [[-sum(G[i][j] * basis[a][i] * basis[b][j] for i in range(s) for j in range(s))
          for b in range(m)] for a in range(m)]
    rhs = [sum(G[i][j] * basis[a][i] * origin[j] for i in range(s) for j in range(s))
           for a in range(m)]
    try:
        x = solve_rational(A, rhs)
    except ValueError:
        return tuple(origin)
    shift = [_round_half_to_zero(c) for c in x]
    v = list(origin)
    for c, b in zip(shift, basis):
        for i in range(s):
            v[i] += c * b[i]
    return tuple(v)


def beta_constraint_lattice_reference(S, gamma, L2):
    """Affine lattice of classes with pushforward gamma + L2/2, or None when
    the target is non-integral or outside the image."""
    target = [Fraction(g) + Fraction(l, 2) for g, l in zip(gamma, L2)]
    if any(t.denominator != 1 for t in target):
        return None
    sol = solve_integer_system([list(row) for row in S.pushforward], target)
    if sol is None:
        return None
    x0, basis = sol
    x0 = _reduce_origin(S, x0, basis)
    return AffineLattice(origin=tuple(x0), basis=tuple(tuple(b) for b in basis))


def _kernel_form(S, lattice):
    """(A, b, c) with beta(x)^2 = x^T A x + 2 b.x + c on the lattice, from a
    second Gram product."""
    m = lattice.rank
    s = S.h2_rank
    G = S.gram
    bas = lattice.basis
    o = lattice.origin
    A = [[sum(G[i][j] * bas[a][i] * bas[b][j] for i in range(s) for j in range(s))
          for b in range(m)] for a in range(m)]
    b = [sum(G[i][j] * bas[a][i] * o[j] for i in range(s) for j in range(s)) for a in range(m)]
    c = S.dot(o, o)
    return A, b, c


def solve_completed_square(d, u, offsets, value):
    """Integer coordinates x of sum_i d_i (x_i + t_i(x))^2 == value, with
    t_i(x) = offsets[i] + sum_{j>i} u[i][j] x_j: the integer Fincke-Pohst
    descent on coordinates, x_{n-1} slowest and x_0 fastest."""
    n = len(d)
    value = Fraction(value)
    if value < 0:
        return []
    if n == 0:
        return [()] if value == 0 else []
    dens, rows = [], []
    for i in range(n):
        row = [Fraction(offsets[i])] + [Fraction(u[i][j]) for j in range(i + 1, n)]
        den = lcm(*(f.denominator for f in row))
        dens.append(den)
        rows.append([f.numerator * (den // f.denominator) for f in row])
    weights = [Fraction(d[i]) / (dens[i] * dens[i]) for i in range(n)]
    W = lcm(value.denominator, *(f.denominator for f in weights))
    c = [f.numerator * (W // f.denominator) for f in weights]
    out = []
    x = [0] * n

    def descend(i, R):
        row = rows[i]
        T = row[0]
        for k in range(i + 1, n):
            T += row[k - i] * x[k]
        den, ci = dens[i], c[i]
        if i == 0:
            q, rem = divmod(R, ci)
            r = isqrt(q)
            if rem or r * r != q:
                return
            for s in (-r, r) if r else (0,):
                x0, miss = divmod(s - T, den)
                if not miss:
                    x[0] = x0
                    out.append(tuple(x))
            return
        m = isqrt(R // ci)
        for xi in range(-((m + T) // den), (m - T) // den + 1):
            x[i] = xi
            s = den * xi + T
            descend(i - 1, R - ci * s * s)

    descend(n - 1, value.numerator * (W // value.denominator))
    return out


def enumerate_beta_reference(S, gamma, beta_sq):
    """All classes with pushforward gamma + L^2/2 and square beta_sq, the
    long way: a Fraction origin solve, a second Gram product and centre
    solve, a coordinate descent and one AffineLattice.element per class."""
    L2 = S.push(S.L_S)
    lattice = beta_constraint_lattice_reference(S, gamma, L2)
    if lattice is None:
        return []
    if lattice.rank == 0:
        beta = lattice.origin
        return [beta] if S.dot(beta, beta) == beta_sq else []
    A, b, c = _kernel_form(S, lattice)
    negA = [[-x for x in row] for row in A]
    try:
        d, u = quadratic_completion(negA)
    except ValueError as exc:
        raise IndefiniteKernelError(str(exc)) from exc
    m = lattice.rank
    center = solve_rational(negA, b)
    const = c + sum(b[i] * center[i] for i in range(m))
    value = Fraction(const) - beta_sq
    offs = [
        Fraction(-center[i]) - sum(u[i][j] * center[j] for j in range(i + 1, m))
        for i in range(m)
    ]
    sols = solve_completed_square(d, u, offs, value)
    out = [lattice.element(x) for x in sols]
    out.sort()
    return out
