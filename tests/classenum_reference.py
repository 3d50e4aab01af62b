"""Brute-force reference for the contribution rows, in Fractions.

`enumerate_contributions` bounds, sorts and keys its rows on the integers
beta^2 and n.  This is the box scan the long way: every (beta, n) row is
compared against max_power, built and sorted with Fraction arithmetic.
"""

from fractions import Fraction

from dtseries.classenum import BetaData, ContributionTable, _box, beta_constraint_lattice
from dtseries.geometry import delta_invariant, pair_h4_h2, triple_product


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
    lattice = beta_constraint_lattice(S, gamma, L2)
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
