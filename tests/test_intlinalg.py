import random
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt, lcm

import pytest

from classenum_reference import quadratic_completion, solve_rational, symmetric_signature
from dtseries.intlinalg import (
    identity_matrix,
    integer_completion,
    row_echelon,
    smith_normal_form,
    solve_completed_square,
    solve_integer_system,
)


def det(M):
    # Laplace expansion; matrices here are tiny
    n = len(M)
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def floor_sqrt_fraction(x):
    """floor(sqrt(x)) for a nonnegative Fraction, exactly."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative argument")
    return isqrt(x.numerator * x.denominator) // x.denominator


def is_negative_definite(G):
    pos, neg, zero = symmetric_signature(G)
    return pos == 0 and zero == 0


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def test_snf_reconstruction_on_random_matrices():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == D
        assert det(U) in (1, -1)
        assert det(V) in (1, -1)
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        diag = [D[i][i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0


def test_solve_integer_system_matches_box_scan():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 2)
        n = rng.randint(1, 3)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-2, 2) for _ in range(n)]
        t = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
        sol = solve_integer_system(A, t)
        assert sol is not None
        x0, basis = sol
        assert [sum(A[i][j] * x0[j] for j in range(n)) for i in range(m)] == t
        for b in basis:
            assert all(sum(A[i][j] * b[j] for j in range(n)) == 0 for i in range(m))
        # every box solution must be x0 + an integer combination of the basis
        R = 3
        box = [v for v in _box(n, R) if [sum(A[i][j] * v[j] for j in range(n)) for i in range(m)] == t]
        for v in box:
            diff = [v[j] - x0[j] for j in range(n)]
            assert _in_span(diff, basis)


def _box(n, r):
    if n == 0:
        yield ()
        return
    for first in range(-r, r + 1):
        for rest in _box(n - 1, r):
            yield (first,) + rest


def _in_span(v, basis):
    if not basis:
        return all(x == 0 for x in v)
    sol = solve_integer_system([list(col) for col in zip(*basis)], v)
    return sol is not None


def test_row_echelon_spans_the_same_lattice():
    """row_echelon of a full-rank integer matrix, ranks 0-6 and widths up
    to 7, entries -5...5: the pivot columns (each row's first nonzero
    entry, so every row is zero left of its pivot) strictly increase, each
    pivot is positive, and every row of either basis is an integer
    combination of the other's rows, by solve_integer_system."""
    rng = random.Random(43)
    for trial in range(140):
        rank = trial % 7
        width = rng.randint(max(rank, 1), 7)
        while True:
            rows = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(rank)]
            D = smith_normal_form(rows)[0] if rows else []
            if all(D[i][i] for i in range(rank)):
                break
        echelon = row_echelon(rows)
        assert len(echelon) == rank and all(len(row) == width for row in echelon)
        columns = [next(j for j, a in enumerate(row) if a) for row in echelon]
        assert all(a < b for a, b in zip(columns, columns[1:]))
        assert all(row[j] > 0 for row, j in zip(echelon, columns))
        assert all(_in_span(v, echelon) for v in rows)
        assert all(_in_span(v, rows) for v in echelon)
    # dependent rows leave one row per pivot; a negative pivot flips its row
    assert row_echelon([[2, 4], [3, 6], [0, 0]]) == [[1, 2]]
    assert row_echelon([[0, -2, 1]]) == [[0, 2, -1]]
    assert row_echelon([]) == []


def test_solve_integer_system_unsolvable():
    assert solve_integer_system([[2]], [1]) is None
    assert solve_integer_system([[2, 4]], [3]) is None
    assert solve_integer_system([[1], [0]], [2, 1]) is None
    assert solve_integer_system([[1]], [Fraction(1, 2)]) is None


def test_solve_rational():
    A = [[2, 1], [1, 3]]
    b = [5, 10]
    x = solve_rational(A, b)
    assert [2 * x[0] + x[1], x[0] + 3 * x[1]] == [5, 10]
    with pytest.raises(ValueError):
        solve_rational([[1, 1], [1, 1]], [0, 1])


def test_signature_examples():
    assert symmetric_signature([[1]]) == (1, 0, 0)
    assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1, 0)  # hyperbolic plane
    assert symmetric_signature([[4]]) == (1, 0, 0)
    assert symmetric_signature([[0, 0], [0, 0]]) == (0, 0, 2)
    g = [[1 if i == j == 0 else (-1 if i == j else 0) for j in range(7)] for i in range(7)]
    assert symmetric_signature(g) == (1, 6, 0)
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[0, 1], [1, 0]])


def test_signature_congruence_invariance():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        S = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                S[i][j] = S[j][i] = rng.randint(-4, 4)
        sig = symmetric_signature(S)
        # random unimodular congruence: shear by an elementary matrix
        B = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        if n > 1:
            i, j = rng.sample(range(n), 2)
            B[i][j] = rng.randint(-3, 3)
        Bt = [list(r) for r in zip(*B)]
        assert symmetric_signature(mat_mul(Bt, mat_mul(S, B))) == sig


def test_quadratic_completion_reconstructs_form():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 3)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        A = [[sum(M[k][i] * M[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        d, u = quadratic_completion(A)
        for _ in range(5):
            x = [rng.randint(-4, 4) for _ in range(n)]
            direct = sum(A[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
            completed = sum(
                d[i] * (x[i] + sum(u[i][j] * x[j] for j in range(i + 1, n))) ** 2
                for i in range(n)
            )
            assert completed == direct


def test_quadratic_completion_rejects_indefinite():
    with pytest.raises(ValueError):
        quadratic_completion([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        quadratic_completion([[-1]])


def test_floor_sqrt_fraction():
    assert floor_sqrt_fraction(Fraction(0)) == 0
    assert floor_sqrt_fraction(Fraction(35, 1)) == 5
    assert floor_sqrt_fraction(Fraction(36, 1)) == 6
    assert floor_sqrt_fraction(Fraction(1, 2)) == 0
    assert floor_sqrt_fraction(Fraction(9, 4)) == 1
    with pytest.raises(ValueError):
        floor_sqrt_fraction(Fraction(-1))


def _positive_definite(rng, n, k):
    """M^T M + I for a random integer M with entries in [-k, k]: eigenvalues >= 1."""
    M = [[rng.randint(-k, k) for _ in range(n)] for _ in range(n)]
    return [[sum(M[k][i] * M[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]


def _bordered(A, v, e):
    """(x, 1)^T M (x, 1) = x^T A x + 2 v.x + e as one integer matrix M."""
    return [row + [vi] for row, vi in zip(A, v)] + [list(v) + [e]]


def _completed(rows, pivots, tail, y):
    """sum_k (rows[k] . y[k:])^2 / (p_{k-1} p_k) + tail / p_{m-1}, in Fractions."""
    ps = [1, *pivots]
    return sum(Fraction(sum(a * b for a, b in zip(row, y[k:])) ** 2, ps[k] * ps[k + 1])
               for k, row in enumerate(rows)) + Fraction(tail, ps[-1])


def test_integer_completion_reproduces_form():
    """y^T M y equals the completed squares plus the tail exactly, and the
    completion is the Fraction one scaled to integers: d_k = p_k / p_{k-1},
    u[k][j] = rows[k][j - k] / p_k."""
    rng = random.Random(13)
    for trial in range(60):
        m = trial % 6
        A = _positive_definite(rng, m, 2)
        M = _bordered(A, [rng.randint(-9, 9) for _ in range(m)], rng.randint(-20, 20))
        rows, pivots, tail = integer_completion(M)
        assert [row[0] for row in rows] == pivots and all(p > 0 for p in pivots)
        assert [len(row) for row in rows] == [m + 1 - k for k in range(m)]
        for _ in range(5):
            y = [rng.randint(-6, 6) for _ in range(m)] + [1]
            direct = sum(M[i][j] * y[i] * y[j] for i in range(m + 1) for j in range(m + 1))
            assert _completed(rows, pivots, tail, y) == direct
        if m:
            d, u = quadratic_completion(A)
            assert d == [Fraction(p, q) for p, q in zip(pivots, [1, *pivots])]
            assert all(u[k][j] == Fraction(rows[k][j - k], pivots[k])
                       for k in range(m) for j in range(k + 1, m))
    # the last row and column need not be definite
    assert integer_completion([[-3]]) == ([], [], -3)
    assert integer_completion([[2, 1], [1, -5]]) == ([[2, 1]], [2], -11)


def test_integer_completion_rejects_non_definite_blocks():
    # indefinite, negative definite and singular positive semidefinite
    # leading blocks, each bordered by a zero row and column
    for block in ([[0, 1], [1, 0]], [[-1]], [[1, 1], [1, 1]], [[1, 2], [2, 4]],
                  [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]):
        with pytest.raises(ValueError, match="not positive definite"):
            integer_completion(_bordered(block, [0] * len(block), 0))


def _centred_forms(rng):
    """(z, Q, rows, pivots, scan) for 60 random definite forms, ranks 0-4 in
    turn, with zero and fractional centres z.

    M borders D^2 A with the centre z (D its common denominator) and a
    constant e, so y^T M y = Q_A(D x + D z) + e, y = (x, 1): its real
    minimum is e, the completion's tail / p_{m-1}, and the descent's value
    is target - e.  (rows, pivots) complete M, and Q(x) = Q_A(D x + D z).
    A = M^T M + I has eigenvalues >= 1, so every solution of Q(x) == value
    has |x_i + z_i| <= sqrt(value) / D: scan(value) lists them over that
    box, evaluating Q_A itself, not the completed squares."""
    for trial in range(60):
        n = trial % 5
        A = _positive_definite(rng, n, 1 if n == 4 else 2)  # rank-4 boxes stay small
        if trial % 3:
            z = [Fraction(rng.randint(-9, 9), rng.randint(2, 6)) for _ in range(n)]
        else:
            z = [Fraction(0)] * n
        D = lcm(1, *(c.denominator for c in z))
        Dz = [int(c * D) for c in z]
        ADz = [sum(a * b for a, b in zip(row, Dz)) for row in A]
        e = rng.randint(-5, 5)
        M = _bordered([[D * D * a for a in row] for row in A], [D * c for c in ADz],
                      sum(a * b for a, b in zip(ADz, Dz)) + e)
        rows, pivots, tail = integer_completion(M)
        assert Fraction(tail, pivots[-1] if pivots else 1) == e

        def Q(x):
            w = [D * xi + dz for xi, dz in zip(x, Dz)]
            return sum(A[i][j] * w[i] * w[j] for i in range(n) for j in range(n))

        def scan(value):
            r = floor_sqrt_fraction(value / (D * D))
            ranges = [range(floor(-c) - r, ceil(-c) + r + 1) for c in z]
            return [x for x in product(*ranges) if Q(x) == value]

        yield z, Q, rows, pivots, scan


def test_solve_completed_square_matches_box_scan():
    """The descent must return exactly the box-scan solution set of
    y^T M y == target, y = (x, 1), in the documented order, for ranks 0-4,
    zero and fractional centres and non-integral values."""
    rng = random.Random(23)
    for z, Q, rows, pivots, scan in _centred_forms(rng):
        n = len(z)
        # a probe near -z keeps the value, and so the scan box, small
        probe = [round(-c) + rng.randint(-1, 1) for c in z]
        hit = Q(probe)
        for value in (hit, hit + Fraction(1, 3), Fraction(rng.randint(0, 24), rng.randint(1, 6)), Fraction(0)):
            got = solve_completed_square(rows, pivots, value, [0] * n, identity_matrix(n))
            assert sorted(got) == sorted(scan(value))
            assert got == sorted(got, key=lambda v: v[::-1])
        assert tuple(probe) in solve_completed_square(rows, pivots, hit, [0] * n, identity_matrix(n))
    assert solve_completed_square([], [], 0, [], []) == [()]
    assert solve_completed_square([], [], Fraction(1, 2), [], []) == []
    assert solve_completed_square([[1, 0]], [1], -1, [0], [[1]]) == []


def test_solve_completed_square_lists_a_reversed_echelon_basis_in_order():
    """On a row echelon basis with positive pivots, passed last pivot
    first, the descent lists its vectors in strictly increasing
    lexicographic order, equal to the sorted box scan.  It lists x_{n-1}
    slowest and each coordinate ascending, so where two solutions first
    differ, at x_i, every column left of basis[i]'s pivot agrees and that
    column grows by a positive multiple of the pivot.  The forms are the
    box-scan test's; the entries right of each pivot are arbitrary and the
    basis is up to two columns wider than its rank."""
    rng = random.Random(29)
    pairs = 0
    for z, Q, rows, pivots, scan in _centred_forms(rng):
        n = len(z)
        width = n + rng.randint(0, 2)
        echelon = [[0] * c + [rng.randint(1, 3)] + [rng.randint(-3, 3) for _ in range(width - c - 1)]
                   for c in sorted(rng.sample(range(width), n))]
        basis = echelon[::-1]
        origin = [rng.randint(-5, 5) for _ in range(width)]
        probe = [round(-c) + rng.randint(-1, 1) for c in z]
        for value in (Q(probe), Fraction(rng.randint(0, 24), rng.randint(1, 6))):
            got = solve_completed_square(rows, pivots, value, origin, basis)
            assert got == sorted(tuple(o + sum(x[i] * basis[i][k] for i in range(n))
                                       for k, o in enumerate(origin)) for x in scan(value))
            assert all(a < b for a, b in zip(got, got[1:]))
            pairs += max(len(got) - 1, 0)
    assert pairs > 100


def test_solve_completed_square_shares_inner_keys():
    """Forms on which many nodes of the descent reach one inner key.  The
    coordinates split into two blocks with no form between them: B,
    centred at a fraction far from the origin, so that inner offsets lie
    outside [0, p_i) and every node shifts, and C, centred at the origin,
    so that x_C and -x_C leave one budget.  B holds the inner coordinates
    x_0 ... x_2, all of them or all but one, x_c: then x_c is in C, its
    offset moves with the outer coordinates and its residue alone tells two
    keys apart.  Inner pivots are >= 2.  The descent must return the
    box-scan solution set in the documented order at ranks 1-6; ranks up
    to 3 reach no key.

    Q = Q_B(D x_B + D z) + Q_C(x_C), with A_B and A_C = M^T M + 2I: every
    eigenvalue is >= 2, so the scan boxes are rigorous.  The two blocks
    are scanned apart and joined on their values."""
    rng = random.Random(37)
    shared = 0
    for trial in range(48):
        n, moved = trial % 6 + 1, trial // 6 % 4  # moved = 3 keeps all of x_0 ... x_2 in B
        B = [i for i in range(min(n, 3)) if i != moved]
        C = [i for i in range(n) if i not in B]
        A_B, A_C = ([[a + (i == j) for j, a in enumerate(row)]
                     for i, row in enumerate(_positive_definite(rng, len(X), 1))] for X in (B, C))
        D = rng.randint(2, 3)
        Dz = [rng.choice((-1, 1)) * rng.randint(3 * D, 8 * D) for _ in B]
        z = [Fraction(c, D) for c in Dz]
        ADz = [sum(a * b for a, b in zip(row, Dz)) for row in A_B]
        A = [[0] * n for _ in range(n)]
        v = [0] * n
        for a, i in enumerate(B):
            v[i] = D * ADz[a]
            for b, j in enumerate(B):
                A[i][j] = D * D * A_B[a][b]
        for a, i in enumerate(C):
            for b, j in enumerate(C):
                A[i][j] = A_C[a][b]
        rows, pivots, tail = integer_completion(_bordered(A, v, sum(a * b for a, b in zip(ADz, Dz))))
        k = min(n, 3)
        assert all(p >= 2 for p in pivots[:k])
        assert all(rows[i][j - i] == 0 for i in B for j in range(k, n))
        if B:  # the first split, at B's last coordinate, shifts every node
            assert not 0 <= rows[B[-1]][-1] < pivots[B[-1]]

        def Q_B(x):
            w = [D * xi + dz for xi, dz in zip(x, Dz)]
            return sum(A_B[i][j] * w[i] * w[j] for i in range(len(B)) for j in range(len(B)))

        def Q_C(x):
            return sum(A_C[i][j] * x[i] * x[j] for i in range(len(C)) for j in range(len(C)))

        hit = Q_B([round(-c) for c in z])
        for value in (hit + Q_C([rng.randint(-1, 1) for _ in C]),
                      hit + Q_C([rng.randint(-2, 2) for _ in C]), hit + rng.randint(1, 9)):
            got = solve_completed_square(rows, pivots, value, [0] * n, identity_matrix(n))
            r = isqrt(value // 2)
            on_B = {}
            for xb in product(*(range(floor(-c) - r // D, ceil(-c) + r // D + 1) for c in z)):
                on_B.setdefault(Q_B(xb), []).append(xb)
            want = []
            for xc in product(range(-r, r + 1), repeat=len(C)):
                for xb in on_B.get(value - Q_C(xc), ()):
                    x = [0] * n
                    for i, xi in (*zip(B, xb), *zip(C, xc)):
                        x[i] = xi
                    want.append(tuple(x))
            assert sorted(got) == sorted(want)
            assert got == sorted(got, key=lambda v: v[::-1])
            by_outer = {}
            for x in got:
                by_outer.setdefault(x[k:], []).append(x[:k])
            shared += len(by_outer) - len({tuple(v) for v in by_outer.values()})
    assert shared > 0


def test_solve_completed_square_maps_through_origin_and_basis():
    """With a nonzero origin and a non-identity unimodular basis, the
    descent lists the unit-basis solutions x mapped to
    origin + sum_i x_i*basis[i], in the same order, at ranks 0-6; rank 1
    has no x_1.  The basis vectors are the rows of a unimodular matrix
    with one more coordinate appended, so rank 0 has an origin too."""
    rng = random.Random(31)
    for n in range(7):
        A = _positive_definite(rng, n, 1)
        M = _bordered(A, [rng.randint(-4, 4) for _ in range(n)], rng.randint(-9, 9))
        rows, pivots, tail = integer_completion(M)
        U = identity_matrix(n)
        for _ in range(3 * n if n > 1 else 0):  # shears need two coordinates
            i, j = rng.sample(range(n), 2)
            U = mat_mul([[int(a == b) + (a == i and b == j) * rng.choice((-2, -1, 1, 2))
                          for b in range(n)] for a in range(n)], U)
        basis = [[-a for a in U[0]], *U[1:]] if n else []  # rank 1 too is not the identity
        basis = [row + [rng.randint(-3, 3)] for row in basis]
        origin = [rng.randint(-5, 5) or 1 for _ in range(n + 1)]
        for _ in range(4):
            y = [rng.randint(-2, 2) for _ in range(n)] + [1]
            value = sum(M[i][j] * y[i] * y[j] for i in range(n + 1) for j in range(n + 1))
            value -= Fraction(tail, pivots[-1] if pivots else 1)
            xs = solve_completed_square(rows, pivots, value, [0] * n, identity_matrix(n))
            assert tuple(y[:n]) in xs
            want = [tuple(o + sum(x[i] * basis[i][k] for i in range(n)) for k, o in enumerate(origin))
                    for x in xs]
            assert solve_completed_square(rows, pivots, value, origin, basis) == want
