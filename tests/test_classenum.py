import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt, prod
from operator import mul

import pytest

import classenum_reference
from classenum_reference import NoSheafError, n_from_xi, solve_rational, xi_from_n
from dtseries.classenum import (
    IndefiniteKernelError,
    beta_constraint_lattice,
    enumerate_beta,
    enumerate_contributions,
)
from dtseries.fixtures import BUILTIN, get_fixture, save_fixture
from dtseries.geometry import (
    ChernVector,
    SurfaceModel,
    curve_class,
    delta_invariant,
    pair_h4_h2,
    run_all_checks,
)


def brute_force_betas(S, gamma, beta_sq, radius):
    """Box scan oracle: every class in [-radius, radius]^s with the right
    pushforward and square."""
    target = [Fraction(g) + Fraction(l, 2) for g, l in zip(gamma, S.push(S.L_S))]
    out = []

    def scan(prefix):
        if len(prefix) == S.h2_rank:
            beta = tuple(prefix)
            if [Fraction(x) for x in S.push(beta)] == target and S.dot(beta, beta) == beta_sq:
                out.append(beta)
            return
        for v in range(-radius, radius + 1):
            scan(prefix + [v])

    scan([])
    return sorted(out)


def test_quadric_lattice_centers():
    fx = get_fixture("quadric_p4_d2")
    S = fx.surface
    L2 = S.push(S.L_S)
    lat = beta_constraint_lattice(S, fx.gamma_names["ell"], L2)
    assert lat.origin == (0, 0)
    assert [abs(b) for b in lat.basis[0]] == [1, 1]
    lat = beta_constraint_lattice(S, fx.gamma_names["2ell"], L2)
    assert lat.origin in ((1, 0), (0, 1))
    # non-integral target: no lattice at all
    assert beta_constraint_lattice(S, (Fraction(1, 2),), L2) is None


def test_enumerate_beta_matches_box_scan():
    fx = get_fixture("quadric_p4_d2")
    S = fx.surface
    for gamma in (fx.gamma_names["ell"], fx.gamma_names["2ell"], (2,), (-3,)):
        for beta_sq in (0, -2, -4, -8, -12, -1, -5):
            got = enumerate_beta(S, gamma, beta_sq)
            assert sorted(got) == brute_force_betas(S, gamma, beta_sq, 6)
    # odd squares cannot occur on this even lattice
    assert enumerate_beta(S, fx.gamma_names["ell"], -1) == []


def test_enumerate_beta_rank_zero_lattice():
    fx = get_fixture("blowup_p3_point")
    S = fx.surface
    # r must be odd for gamma + L^2/2 to be integral; r=3 pins beta = (2)
    gamma = fx.character("r=3,s=0")
    assert enumerate_beta(S, gamma, 4) == [(2,)]
    assert enumerate_beta(S, gamma, 5) == []
    # even r: the degree constraint has no integral solution at all
    assert enumerate_beta(S, fx.character("r=2,s=0"), 4) == []
    # incompatible exceptional-curve coordinate: the system is inconsistent
    assert enumerate_beta(S, (Fraction(3, 2), Fraction(1)), 4) == []


def test_enumerate_beta_cubic_rank_six_kernel():
    fx = get_fixture("cubic_p4_d3")
    S = fx.surface
    gamma = tuple(Fraction(-3, 2) for _ in range(1))  # target = 0: kernel vectors only
    got = enumerate_beta(S, gamma, -2)
    # roots of the degree-0 part: beta with beta.L = 0, beta^2 = -2; the E6
    # root system has 72 of them
    assert len(got) == 72
    for beta in got:
        assert S.push(beta) == (0,)
        assert S.dot(beta, beta) == -2
    assert enumerate_beta(S, gamma, 0) == [(0,) * 7]


def test_enumerate_beta_cubic_matches_ellipsoid_scan():
    """On the rank-6 cubic lattice, every level down to -4 equals a scan of
    the lattice coordinates in the exact bounding box of the ellipsoid
    {beta^2 >= -4}.  With beta(x)^2 = x.A.x + 2 b.x + c and Q = -A positive
    definite, that set is (x - x*).Q.(x - x*) <= R with Q x* = b and
    R = c + b.x* + 4, whose extent along axis i is sqrt(R (Q^-1)_ii)."""
    fx = get_fixture("cubic_p4_d3")
    S = fx.surface
    gamma = (Fraction(1, 2),)
    levels = range(1, -5, -1)
    lat = beta_constraint_lattice(S, gamma, S.push(S.L_S))
    B, o = lat.basis, lat.origin
    m = lat.rank
    A = [[S.dot(B[a], B[b]) for b in range(m)] for a in range(m)]
    b = [S.dot(B[a], o) for a in range(m)]
    c = S.dot(o, o)
    Q = [[-x for x in row] for row in A]
    center = solve_rational(Q, b)
    R = c + sum(bi * xi for bi, xi in zip(b, center)) - levels[-1]
    ranges = []
    for i in range(m):
        reach2 = R * solve_rational(Q, [int(j == i) for j in range(m)])[i]
        k = isqrt(ceil(reach2)) + 1
        xs = [x for x in range(floor(center[i]) - k, ceil(center[i]) + k + 1)
              if (x - center[i]) ** 2 <= reach2]
        ranges.append(range(xs[0], xs[-1] + 1))
    assert prod(map(len, ranges)) <= 60000
    found = {lvl: [] for lvl in levels}
    for x in product(*ranges):
        sq = c + sum((2 * b[a] + sum(A[a][j] * x[j] for j in range(m))) * x[a] for a in range(m))
        if sq in found:
            found[sq].append(lat.element(x))
    target = tuple(Fraction(g) + Fraction(l, 2) for g, l in zip(gamma, S.push(S.L_S)))
    for lvl in levels:
        got = enumerate_beta(S, gamma, lvl)
        assert got == sorted(set(got))
        assert got == sorted(found[lvl])
        assert all(S.push(beta) == target and S.dot(beta, beta) == lvl for beta in got)
    assert all(found[lvl] for lvl in levels if lvl % 2 == 0)


def _reference_cases():
    """(fixture, character) pairs for the reference comparison: every builtin
    with each named character, each unit parameter, the zero, all-1/2 and
    zero-target characters, the blow-ups also at k = 2 and 5 with a few
    parameter points, and the cubic at +-1/2 and +-3/2."""
    cases = []
    for name in sorted(BUILTIN):
        ks = (None, 2, 5) if name.startswith("blowup") else (None,)
        for k in ks:
            fx = get_fixture(name, k)
            S, X = fx.surface, fx.threefold
            gammas = [*fx.gamma_names.values(), *fx.gamma_params.values(),
                      (0,) * X.h4_rank, (Fraction(1, 2),) * X.h4_rank,
                      tuple(Fraction(-l, 2) for l in S.push(S.L_S))]
            if fx.gamma_params:
                params = sorted(fx.gamma_params)
                zeros = "".join(f",{p}=0" for p in params if p not in ("r", params[-1]))
                gammas += [fx.character(f"r={r},{params[-1]}={s}{zeros}")
                           for r in (1, 3, -1) for s in (0, 1)]
            cases += [(fx, gamma) for gamma in gammas]
    cubic = get_fixture("cubic_p4_d3")
    cases += [(cubic, (Fraction(g, 2),)) for g in (1, 3, -1, -3)]
    return cases


def test_enumerate_beta_matches_reference():
    """One set-up per call and classes built along the descent give the
    same lists, in the same order, as the per-level reference path, and the
    same constraint lattice."""
    nonempty = set()
    for fx, gamma in _reference_cases():
        S = fx.surface
        L2 = S.push(S.L_S)
        assert beta_constraint_lattice(S, gamma, L2) == (
            classenum_reference.beta_constraint_lattice_reference(S, gamma, L2))
        for beta_sq in range(2, -15, -1):
            got = enumerate_beta(S, gamma, beta_sq)
            assert got == classenum_reference.enumerate_beta_reference(S, gamma, beta_sq)
            if got:
                nonempty.add(fx.name)
    assert nonempty == set(BUILTIN)


@pytest.mark.parametrize("gram", [
    ((1, 0, 0), (0, -1, 0), (0, 0, -1)),  # kernel form diag(-1, -1): odd
    ((1, 0, 0), (0, -2, 1), (0, 1, -3)),  # even A_00, odd A_11
    ((1, 0, 0), (0, -3, 1), (0, 1, -2)),  # odd A_00, even A_11
])
def test_enumerate_beta_keeps_both_parities_on_odd_kernels(gram):
    """The parity prune applies only when every diagonal entry of the kernel
    form is even; on these kernels both parities of beta^2 occur."""
    S = SurfaceModel(name="odd kernel", gram=gram, K_S=(-3, 1, 1), L_S=(2, 0, 0),
                     O1_S=(1, 0, 0), euler=5, pushforward=((1, 0, 0),))
    lat = beta_constraint_lattice(S, (0,), S.push(S.L_S))
    assert lat.rank == 2 and any(S.dot(b, b) % 2 for b in lat.basis)
    found = set()
    for beta_sq in range(1, -11, -1):
        got = enumerate_beta(S, (0,), beta_sq)
        # every class has |beta_i| <= 3 once beta^2 >= -10 on these forms
        assert got == brute_force_betas(S, (0,), beta_sq, 4)
        if got:
            found.add(beta_sq % 2)
    assert found == {0, 1}


def test_indefinite_kernel_raises():
    """quadric_p4_d2 with pushforward (3, -1) has the kernel class (1, 3) of
    square +6: the lattice itself is refused, not just its enumeration."""
    S = get_fixture("quadric_p4_d2").surface
    S = dataclasses.replace(S, pushforward=((3, -1),))
    for gamma in ((-1,), (0,), (2,)):
        with pytest.raises(IndefiniteKernelError, match="constraint lattice"):
            beta_constraint_lattice(S, gamma, S.push(S.L_S))
        for beta_sq in (6, 0, -2):
            with pytest.raises(IndefiniteKernelError, match="not negative definite"):
                enumerate_beta(S, gamma, beta_sq)
    # a semidefinite kernel: pushforward (1, 0) leaves (0, 1), of square 0
    S = dataclasses.replace(S, pushforward=((1, 0),))
    with pytest.raises(IndefiniteKernelError):
        enumerate_beta(S, (Fraction(1, 2),), 0)


def _unimodular(rng, n, steps):
    """(U, U^-1) for a random U in GL(n, Z): a product of column shears
    col_j += c col_i, each undone by the row shear row_i -= c row_j."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [row[:] for row in U]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in U:
            row[j] += c * row[i]
        V[i] = [a - c * b for a, b in zip(V[i], V[j])]
    return U, V


def test_enumerate_beta_independent_of_surface_basis():
    """cubic_p4_d3's surface rewritten in a random basis U of Pic(S) (gram
    U^T G U, pushforward P U, divisor classes U^-1 v) is accepted, and the
    classes of each level beta^2 = 1 ... -8 are the old ones mapped by U^-1;
    delta and the checks do not move.  The kernel forms are then far from
    diagonal."""
    rng = random.Random(41)
    fx = get_fixture("cubic_p4_d3")
    S = fx.surface
    n = S.h2_rank
    G = S.gram
    for _ in range(3):
        U, V = _unimodular(rng, n, 12)

        def inv(v):
            return tuple(sum(map(mul, row, v)) for row in V)

        T = dataclasses.replace(
            S,
            gram=tuple(tuple(sum(U[a][i] * G[a][b] * U[b][j] for a in range(n) for b in range(n))
                             for j in range(n)) for i in range(n)),
            pushforward=tuple(tuple(sum(row[a] * U[a][j] for a in range(n)) for j in range(n))
                              for row in S.pushforward),
            K_S=inv(S.K_S), L_S=inv(S.L_S), O1_S=inv(S.O1_S),
        )
        assert any(T.gram[i][j] for i in range(n) for j in range(n) if i != j)
        fy = dataclasses.replace(fx, surface=T)  # consistency with the threefold holds
        assert delta_invariant(T) == delta_invariant(S)
        for gamma in ((0,), (Fraction(1, 2),), (Fraction(-1, 2),), (Fraction(3, 2),)):
            assert run_all_checks(fy.threefold, ChernVector(gamma), fy.candidates) == (
                run_all_checks(fx.threefold, ChernVector(gamma), fx.candidates))
        total = 0
        for gamma in ((Fraction(1, 2),), (Fraction(-1, 2),), (Fraction(3, 2),)):
            for beta_sq in range(1, -9, -1):
                got = enumerate_beta(T, gamma, beta_sq)
                assert got == sorted(inv(beta) for beta in enumerate_beta(S, gamma, beta_sq))
                total += len(got)
        assert total > 1000


def test_loaded_fixtures_have_classes_of_one_parity(tmp_path):
    """What the load-time projection and Wu checks buy: on every builtin,
    and on three random bases of Pic(S) for the cubic and the line blow-up
    read back from JSON, enumerate_beta never raises over a grid of
    characters and levels beta^2 = 1 ... -8, and each class found has
    beta^2 = K_S.beta = (K_X+L).(gamma + L^2/2) mod 2, read off X alone."""
    from test_cli import _in_basis

    fixtures = [get_fixture(name) for name in BUILTIN]
    for name in ("cubic_p4_d3", "blowup_p3_line"):
        fx = get_fixture(name)
        for seed in range(3):
            U, _ = _unimodular(random.Random(seed), fx.surface.h2_rank, 12)
            path = tmp_path / f"{name}_{seed}.json"
            save_fixture(_in_basis(fx, U)[0], path)
            fixtures.append(get_fixture(str(path)))
    steps = [Fraction(k, 2) for k in range(-2, 3)]
    parities, found = set(), 0
    for fx in fixtures:
        X, S = fx.threefold, fx.surface
        KplusL = tuple(k + l for k, l in zip(X.canonical, X.L))
        for gamma in product(steps, repeat=X.h4_rank):
            target = [g + Fraction(l, 2) for g, l in zip(gamma, curve_class(X, X.L, X.L))]
            parity = pair_h4_h2(X, target, KplusL) % 2
            for beta_sq in range(1, -9, -1):
                got = enumerate_beta(S, gamma, beta_sq)
                assert all(S.dot(b, b) % 2 == parity for b in got), (fx.name, gamma, beta_sq)
                if got:
                    parities.add(parity)
                    found += len(got)
    assert parities == {0, 1} and found > 10000


def _chi3(m):
    """The character chi_-3: 0, 1, -1 for m = 0, 1, 2 mod 3."""
    return (0, 1, -1)[m % 3]


def _sigma(m):
    """sum over d | m of chi_-3(m/d) * d^2."""
    return sum(_chi3(m // d) * d * d for d in range(1, m + 1) if m % d == 0)


def _sigma_dual(m):
    """sum over d | m of chi_-3(d) * d^2."""
    return sum(_chi3(d) * d * d for d in range(1, m + 1) if m % d == 0)


def test_enumerate_beta_cubic_matches_e6_theta():
    """Classes of degree beta.H = d on the cubic are a coset of the negated
    E6 root lattice, so the counts per beta^2 are theta coefficients of E6
    (d = 3) or of an E6* coset (d = 1, 2): weight-3 Eisenstein series on
    Gamma_0(3) with character chi_-3 (Conway & Sloane, SPLAG, ch. 4 sec. 8)."""
    S = get_fixture("cubic_p4_d3").surface

    def counts(gamma, levels):
        return [len(enumerate_beta(S, (gamma,), b)) for b in levels]

    # d = 3 at n = (3 - beta^2)/2: 1, 72, 270, 720, ...
    levels = range(3, 3 - 2 * 13, -2)
    ns = [(3 - b) // 2 for b in levels]
    assert counts(Fraction(3, 2), levels) == [
        1 if n == 0 else 81 * _sigma(n) - 9 * _sigma_dual(n) for n in ns
    ]
    # d = 1 from the 27 lines at beta^2 = -1
    levels = range(-1, -1 - 2 * 13, -2)
    assert counts(Fraction(-1, 2), levels) == [9 * _sigma((1 - 3 * b) // 2) for b in levels]
    # d = 2 from the 27 conic classes at beta^2 = 0
    levels = range(0, -2 * 15, -2)
    assert counts(Fraction(1, 2), levels) == [9 * _sigma((4 - 3 * b) // 2) for b in levels]
    # nothing above the top level or at the other parity
    assert counts(Fraction(3, 2), (5, 4, 2, 0)) == [0] * 4
    assert counts(Fraction(-1, 2), (1, 0, -2)) == [0] * 3
    assert counts(Fraction(1, 2), (2, 1, -1, -3)) == [0] * 4


def test_enumerate_beta_quadric_matches_theta3():
    # Jacobi's theta_3 = sum_k q^(k^2) for ell (beta^2 = -2k^2) and
    # 2 sum_(k>=0) q^(k(k+1)) for 2ell (beta^2 = -2k(k+1)), down to -50
    fx = get_fixture("quadric_p4_d2")
    S = fx.surface
    for name, want in (
        ("ell", {-2 * k * k: 1 if k == 0 else 2 for k in range(6)}),
        ("2ell", {-2 * k * (k + 1): 2 for k in range(5)}),
    ):
        got = {b: len(enumerate_beta(S, fx.gamma_names[name], b)) for b in range(2, -51, -1)}
        assert {b: c for b, c in got.items() if c} == want


def test_n_xi_round_trip():
    rng = random.Random(31)
    for name in BUILTIN:
        fx = get_fixture(name)
        S, X = fx.surface, fx.threefold
        for _ in range(10):
            gamma = tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(X.h4_rank))
            beta = tuple(rng.randint(-3, 3) for _ in range(S.h2_rank))
            n = rng.randint(0, 7)
            xi = xi_from_n(S, X, gamma, beta, n)
            assert n_from_xi(S, X, gamma, beta, xi) == n


def test_n_from_xi_rejects_bad_values():
    fx = get_fixture("quadric_p4_d2")
    S, X = fx.surface, fx.threefold
    gamma = fx.gamma_names["ell"]
    beta = (0, 0)
    xi0 = xi_from_n(S, X, gamma, beta, 0)
    with pytest.raises(NoSheafError):
        n_from_xi(S, X, gamma, beta, xi0 + 1)  # would need n = -1
    with pytest.raises(NoSheafError):
        n_from_xi(S, X, gamma, beta, xi0 + Fraction(1, 3))
    with pytest.raises(NoSheafError):
        xi_from_n(S, X, gamma, beta, -2)


def test_contribution_exponents_quadric():
    fx = get_fixture("quadric_p4_d2")
    S, X = fx.surface, fx.threefold
    table = enumerate_contributions(S, X, fx.gamma_names["ell"], Fraction(2), 3)
    # classes are k*(e1 - e2) for |k| <= 3, exponents -k^2 + 10/24 + n
    betas = {r.beta for r in table.rows}
    assert betas == {(k, -k) for k in range(-3, 4)} | {(-k, k) for k in range(-3, 4)}
    for r in table.rows:
        k = abs(r.beta[0])
        assert r.beta_sq == -2 * k * k
        assert r.q_exponent == Fraction(-2 * k * k, 2) + Fraction(10, 24) + r.n
    exps = sorted({r.q_exponent - Fraction(10, 24) - r.n for r in table.rows}, reverse=True)
    assert exps == [0, -1, -4, -9]

    table = enumerate_contributions(S, X, fx.gamma_names["2ell"], Fraction(2), 3)
    betas = {r.beta for r in table.rows}
    assert betas == {(1 + k, -k) for k in range(-3, 4)}
    for r in table.rows:
        k = r.beta[0] - 1  # beta = e1 + k(e1 - e2)
        assert Fraction(r.beta_sq, 2) == -k * k - k


def test_contribution_rows_sorted_and_capped():
    fx = get_fixture("quadric_p4_d2")
    table = enumerate_contributions(
        fx.surface, fx.threefold, fx.gamma_names["ell"], Fraction(3), 2
    )
    exps = [r.q_exponent for r in table.rows]
    assert exps == sorted(exps)
    assert all(e <= 3 for e in exps)
    assert all(r.n >= 0 for r in table.rows)
    # xi is consistent with n on every row, for every builtin fixture with
    # the zero character, each named one, and the one whose target is zero
    cases = [
        ("quadric_p4_d2", fx.gamma_names["ell"], Fraction(3), 2),
        ("cubic_p4_d3", (Fraction(1, 2),), Fraction(2), 1),
    ]
    for name in BUILTIN:
        fx = get_fixture(name)
        S, X = fx.surface, fx.threefold
        gammas = [(0,) * X.h4_rank, *fx.gamma_names.values(),
                  tuple(Fraction(-l, 2) for l in S.push(S.L_S))]
        cases += [(name, gamma, Fraction(3), 1) for gamma in gammas]
    nonempty = set()
    for name, gamma, max_power, window in cases:
        fx = get_fixture(name)
        table = enumerate_contributions(fx.surface, fx.threefold, gamma, max_power, window)
        for r in table.rows:
            assert xi_from_n(fx.surface, fx.threefold, table.gamma, r.beta, r.n) == r.xi
        if table.rows:
            nonempty.add(name)
    assert nonempty == set(BUILTIN)


def test_contributions_empty_when_target_nonintegral():
    fx = get_fixture("quadric_p4_d1")
    table = enumerate_contributions(fx.surface, fx.threefold, (0,), Fraction(4), 2)
    assert table.rows == ()
    # half-integral character hits the lattice
    table = enumerate_contributions(fx.surface, fx.threefold, (Fraction(-1, 2),), Fraction(4), 2)
    assert [r.beta for r in table.rows][:1] == [(0,)]


def test_window_zero_keeps_origin_only():
    fx = get_fixture("quadric_p4_d2")
    table = enumerate_contributions(
        fx.surface, fx.threefold, fx.gamma_names["ell"], Fraction(1), 0
    )
    assert {r.beta for r in table.rows} == {(0, 0)}


def _same_as_fraction_box_scan(S, X, gamma, max_power, window):
    """The table, checked row for row and in order against the Fraction box
    scan of classenum_reference, with xi and the exponent as Fractions."""
    table = enumerate_contributions(S, X, gamma, max_power, window)
    assert table == classenum_reference.enumerate_contributions(S, X, gamma, max_power, window)
    for r in table.rows:
        assert type(r.xi) is Fraction and type(r.q_exponent) is Fraction
    return table


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_contributions_match_fraction_box_scan(name):
    # each named character, the zero one, the all-1/2 one and the one whose
    # target is zero, with bounds below, at and between the exponents;
    # windows 0-1 on rank > 4
    fx = get_fixture(name)
    S, X = fx.surface, fx.threefold
    gammas = [*fx.gamma_names.values(), (0,) * X.h4_rank, (Fraction(1, 2),) * X.h4_rank,
              tuple(Fraction(-l, 2) for l in S.push(S.L_S))]
    nonempty = 0
    for gamma in gammas:
        lattice = beta_constraint_lattice(S, gamma, S.push(S.L_S))
        windows = range(2 if lattice is not None and lattice.rank > 4 else 3)
        for max_power in (-1, 0, 1, Fraction(7, 2), 8):
            for window in windows:
                table = _same_as_fraction_box_scan(S, X, gamma, max_power, window)
                nonempty += bool(table.rows)
    assert nonempty


@pytest.mark.parametrize(
    "name, gamma, order, rows",
    [("cubic_p4_d3", (Fraction(1, 2),), 2, 6561), ("quadric_p4_d2", "ell", 1500, 4502)],
)
def test_contributions_match_fraction_box_scan_at_benchmark_size(name, gamma, order, rows):
    fx = get_fixture(name)
    gamma = fx.gamma_names.get(gamma, gamma)
    table = _same_as_fraction_box_scan(fx.surface, fx.threefold, gamma, order, 1)
    assert len(table.rows) == rows
    # rows of one (beta^2, n) share one xi and one exponent
    pairs = {(r.beta_sq, r.n) for r in table.rows}
    assert len({id(r.xi) for r in table.rows}) == len(pairs)
    assert len({id(r.q_exponent) for r in table.rows}) == len(pairs)
