import random
from fractions import Fraction
from math import gcd

import pytest

from dtseries.classenum import enumerate_contributions
from dtseries.fixtures import get_fixture
from dtseries.geometry import delta_invariant
from dtseries.qseries import (
    CONVENTION_MINUS,
    CONVENTION_PLUS,
    QSeries,
    SectorError,
    dt_series,
    eta_power,
    euler_product,
    frac_str,
    theta_block,
)
from oracle_reference import partition_list


def tuple_count(m, n):
    """Number of m-tuples of partitions of total size n, by direct recursion.

    Independent of the Euler-product code path: only the raw enumerator is
    used, so this doubles as the oracle for negative exponents.
    """
    if m == 1:
        return len(partition_list(n))
    return sum(len(partition_list(k)) * tuple_count(m - 1, n - k) for k in range(n + 1))


def dense_euler(e, order):
    """prod_{1<=k<order} (1 - q^k)^e expanded factor by factor, mod q^order.

    Independent of euler_product: each factor (1 - q^k) multiplies in
    directly, and for e < 0 each 1/(1 - q^k) = sum_m q^(km) multiplies in as
    a geometric series.
    """
    a = [1] + [0] * (order - 1)
    for k in range(1, order):
        for _ in range(abs(e)):
            if e > 0:
                for i in range(order - 1, k - 1, -1):
                    a[i] -= a[i - k]
            else:
                for i in range(k, order):
                    a[i] += a[i - k]
    return a


def test_euler_product_matches_dense_expansion():
    for e in range(-30, 31):
        want = dense_euler(e, 120)
        for order in range(1, 121):
            assert list(euler_product(e, order).coeffs) == want[:order], (e, order)
    for e in (-28, 28):
        assert list(euler_product(e, 600).coeffs) == dense_euler(e, 600)


def test_euler_product_edge_cases():
    assert euler_product(0, 1).coeffs == (1,)
    assert euler_product(0, 7).coeffs == (1, 0, 0, 0, 0, 0, 0)
    for e in (-5, -1, 1, 5):
        assert euler_product(e, 1).coeffs == (1,)
        assert euler_product(e, 1).offset == 0
    for order in (0, -1):
        with pytest.raises(ValueError):
            euler_product(3, order)


def test_euler_product_refuses_a_non_integral_exponent():
    # the Miller recurrence's divisibility check: at n = 1 the sum is -e,
    # which leaves a remainder for any non-integral e
    for e, s in ((Fraction(1, 2), "-1/2"), (Fraction(-1, 3), "1/3")):
        with pytest.raises(ArithmeticError, match=f"^Miller recurrence: {s} is not divisible by 1$"):
            euler_product(e, 3)


def test_ramanujan_tau_closed_forms():
    # Delta = q * prod (1 - q^k)^24 = sum tau(n) q^n
    coeffs = euler_product(24, 600).coeffs
    tau = [None] + [int(c) for c in coeffs]  # tau[n] = coeffs[n - 1]
    assert tau[1:12] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                         -113643, -115920, 534612]
    for m in range(2, 600):
        for n in range(m + 1, 600 // m + 1):
            if m * n < 600 and gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)


def test_partition_numbers_at_large_order():
    coeffs = euler_product(-1, 1001).coeffs
    assert coeffs[200] == 3972999029388
    assert coeffs[1000] == 24061467864032622473692149727991


def test_euler_minus_one_is_partition_count():
    coeffs = euler_product(-1, 31).coeffs
    for n in range(31):
        assert coeffs[n] == len(partition_list(n))


def test_euler_plus_one_pentagonal_prefix():
    # 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    want = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    assert [int(c) for c in euler_product(1, 16).coeffs] == want


def test_euler_plus_one_is_pentagonal_series_at_order_2000():
    # sum_j (-1)^j q^(j(3j-1)/2) over all integers j; at order 2000 this
    # crosses every one of the 72 pentagonal boundaries below q^2000
    want = [0] * 2000
    want[0] = 1
    for j in range(1, 40):
        for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
            if k < 2000:
                want[k] = (-1) ** j
    assert list(euler_product(1, 2000).coeffs) == want


def test_euler_cube_is_jacobi_series_at_order_2000():
    # Jacobi: prod (1 - q^k)^3 = sum_{j>=0} (-1)^j (2j + 1) q^(j(j+1)/2)
    want = [0] * 2000
    for j in range(70):
        if j * (j + 1) // 2 < 2000:
            want[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
    assert list(euler_product(3, 2000).coeffs) == want


def test_series_workload_inverse_pair_at_full_order():
    # the quadric's delta at the order the series benchmark multiplies
    delta = delta_invariant(get_fixture("quadric_p4_d2").surface)
    assert delta == 10
    prod = euler_product(delta, 2000) * euler_product(-delta, 2000)
    assert prod == QSeries(0, [1] + [0] * 1999)


def test_euler_negative_exponents_count_tuples():
    for e in (2, 3, 4):
        coeffs = euler_product(-e, 7).coeffs
        for n in range(7):
            assert coeffs[n] == tuple_count(e, n)


def test_euler_inverse_pairs():
    one = [Fraction(1)] + [Fraction(0)] * 29
    for e in range(-12, 13):
        prod = euler_product(e, 30) * euler_product(-e, 30)
        assert prod.offset == 0
        assert list(prod.coeffs) == one


def test_eta_power_offset():
    s = eta_power(-10, 5)
    assert s.offset == Fraction(-10, 24)
    assert s.coeffs[:3] == (1, 10, 65)
    assert eta_power(24, 3).offset == 1


def test_qseries_ring_axioms_random():
    rng = random.Random(17)

    def rand_series():
        off = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        order = rng.randint(1, 6)
        return QSeries(off, [rng.randint(-5, 5) for _ in range(order)])

    one = QSeries(0, [1, 0, 0, 0, 0, 0])  # as long as the longest rand_series
    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        # commutativity, associativity and the unit, on the common window
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * one == a
        # shifts commute with products
        r = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        assert a.shift(r) * b == (a * b).shift(r)


def test_coefficients_must_be_integers():
    # an integral Fraction or float is refused too, not truncated
    for bad in (Fraction(1, 2), 0.5, Fraction(2), 2.0):
        with pytest.raises(TypeError):
            QSeries(0, [bad])


def test_qseries_is_a_frozen_value():
    # equal series compare and hash equal, whatever types built them, and
    # no field can be assigned
    a, b = QSeries(Fraction(-1, 2), [1, 0, 3]), QSeries("-1/2", (1, 0, 3))
    assert a == b and hash(a) == hash(b)
    assert a != QSeries(Fraction(1, 2), [1, 0, 3]) and a != QSeries(Fraction(-1, 2), [1, 0])
    for field in ("offset", "coeffs", "order"):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
    assert (a.offset, a.coeffs) == (Fraction(-1, 2), (1, 0, 3))


def test_qseries_repr():
    assert repr(QSeries(Fraction(-1, 2), [1, 0, -3])) == (
        "QSeries(offset=Fraction(-1, 2), coeffs=(1, 0, -3))")


def test_mul_truncation_is_min_order():
    a = QSeries(0, [1, 1, 1, 1, 1])
    b = QSeries(0, [1, -1])
    assert (a * b).order == 2
    assert (a * b).coeffs == (1, 0)


def test_scalar_and_shift():
    a = QSeries(Fraction(1, 3), [1, 2])
    assert a.shift(Fraction(2, 3)).offset == 1
    assert a.shift(-1).coeffs == a.coeffs


def test_theta_block():
    t = theta_block([0, -1, -1, -4], 6)
    assert t.offset == -4
    # exponent -4 at index 0, the pair at -1 -> index 3, 0 -> index 4
    assert t.coeffs == (1, 0, 0, 2, 1, 0)
    z = theta_block([], 4)
    assert z.coeffs == (0, 0, 0, 0)
    with pytest.raises(SectorError):
        theta_block([0, Fraction(1, 2)], 4)


def test_json_round_trip():
    a = QSeries(Fraction(-7, 12), [1, -3, 0])
    assert a.to_json_dict() == {"offset": "-7/12", "coeffs": ["1", "-3", "0"]}
    assert frac_str(Fraction(-3, 2)) == "-3/2" and frac_str(Fraction(4, 2)) == "2"


def pretty_reference(series):
    """QSeries.pretty with one Fraction exponent per term: the reference for
    its rendering from integer numerators over the offset's denominator."""
    def exp_str(e):
        return frac_str(e) if e.denominator == 1 and e >= 0 else f"({frac_str(e)})"

    terms = []
    for i, c in enumerate(series.coeffs):
        if c == 0:
            continue
        e = series.offset + i
        if e == 0:
            terms.append(str(c))
        else:
            cs = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            terms.append(f"{cs}q^{exp_str(e)}")
    body = " + ".join(terms) if terms else "0"
    return f"{body} + O(q^{exp_str(series.offset + series.order)})"


def test_pretty_matches_fraction_rendering():
    assert (QSeries(Fraction(-7, 12), [1, -3, 0, 1]).pretty()
            == "q^(-7/12) + -3*q^(5/12) + q^(29/12) + O(q^(41/12))")
    assert QSeries(-2, [0, -1, 5, 1]).pretty() == "-q^(-1) + 5 + q^1 + O(q^2)"
    coeffs = [0, 1, -1, 0, 7, -12, 10**40, -(10**40), 1, 0]
    for d in (1, 2, 3, 8, 12, 24):
        # offsets from -3 to 3 cross zero; at d = 1 one term lands on q^0
        for p in range(-3 * d, 3 * d + 1):
            if gcd(p, d) != 1:
                continue
            for cs in (coeffs, coeffs[:1], [], [1], [-1] * 7):
                s = QSeries(Fraction(p, d), cs)
                assert s.pretty() == pretty_reference(s), s


def test_dt_series_blocks_share_one_euler_factor():
    fx = get_fixture("quadric_p4_d2")
    table = enumerate_contributions(
        fx.surface, fx.threefold, fx.gamma_names["ell"], Fraction(6), 2
    )
    res = dt_series(fx.surface, table, 6, CONVENTION_MINUS)
    assert res.delta == 10
    assert len(res.blocks) == 5  # k in -2..2
    assert res.euler_factor == euler_product(-10, 6)
    for b in res.blocks:
        assert b.n_series is res.euler_factor  # the n-sum is beta-independent
        assert b.prefactor_exponent == Fraction(b.beta_sq, 2) + Fraction(10, 24)


def test_dt_series_plus_convention_flips_sign_of_exponent():
    fx = get_fixture("quadric_p4_d2")
    table = enumerate_contributions(
        fx.surface, fx.threefold, fx.gamma_names["ell"], Fraction(4), 0
    )
    minus = dt_series(fx.surface, table, 4, CONVENTION_MINUS)
    plus = dt_series(fx.surface, table, 4, CONVENTION_PLUS)
    assert minus.euler_factor.coeffs[1] == 10
    assert plus.euler_factor.coeffs[1] == -10
    with pytest.raises(ValueError):
        dt_series(fx.surface, table, 4, "bogus")


def brute_total(surface, table, order, convention):
    """The generating series summed class by class into a dict of plain
    ints, with no QSeries arithmetic: each distinct class adds the Euler
    coefficient of q^k at the exponent beta^2/2 + delta/24 + k.  The Euler
    coefficients come from the factor-by-factor expansion.  Returns
    (offset, coeffs) over the order exponents from the lowest block up."""
    delta = delta_invariant(surface)
    euler = dense_euler(-delta if convention == CONVENTION_MINUS else delta, order)
    squares = {r.beta: r.beta_sq for r in table.rows}
    base = Fraction(min(squares.values(), default=0), 2) + Fraction(delta, 24)
    sums = {}
    for sq in squares.values():
        start = Fraction(sq, 2) + Fraction(delta, 24)
        for k, c in enumerate(euler):
            sums[start + k] = sums.get(start + k, 0) + c
    return base, [sums.get(base + i, 0) for i in range(order)]


def _total_cases():
    quadric = get_fixture("quadric_p4_d2")
    for name in ("ell", "2ell"):
        for window in range(4):
            for order in (1, 4, 30):
                yield quadric, quadric.gamma_names[name], order, window
    yield get_fixture("cubic_p4_d3"), (Fraction(1, 2),), 2, 1
    blowup = get_fixture("blowup_p3_point")
    yield blowup, blowup.character("r=1,s=0"), 8, 2
    yield quadric, (Fraction(1, 3),), 8, 2  # no class solves the degree constraint


@pytest.mark.parametrize("convention", [CONVENTION_MINUS, CONVENTION_PLUS])
def test_dt_series_total_matches_class_by_class_sum(convention):
    sizes = set()
    for fx, gamma, order, window in _total_cases():
        table = enumerate_contributions(fx.surface, fx.threefold, gamma, Fraction(order), window)
        total = dt_series(fx.surface, table, order, convention).total
        offset, coeffs = brute_total(fx.surface, table, order, convention)
        assert (total.offset, list(total.coeffs)) == (offset, coeffs), (fx.name, gamma, window)
        sizes.add(len({r.beta for r in table.rows}))
    assert 0 in sizes and max(sizes) > 2  # the empty table and multi-class sums both ran
