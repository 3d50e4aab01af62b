import random
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt, lcm

import pytest

from dtseries.intlinalg import (
    identity_matrix,
    quadratic_completion,
    smith_normal_form,
    solve_completed_square,
    solve_integer_system,
    solve_rational,
    symmetric_signature,
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


def test_solve_completed_square_matches_box_scan():
    """The descent must return exactly the box-scan solution set of
    sum_i d_i (x_i + offsets[i] + sum_{j>i} u[i][j] x_j)^2 == value, in the
    documented order, for ranks 0-4, zero and fractional offsets and
    non-integral values.

    With (d, u) the completion of A, that sum is Q_A(x + z) where z solves
    z_i + sum_{j>i} u[i][j] z_j = offsets[i].  A = M^T M + I has eigenvalues
    >= 1, so every solution has |x_i + z_i| <= sqrt(value): the scan box is
    rigorous.  The scan evaluates Q_A itself, not the completed squares."""
    rng = random.Random(23)
    for trial in range(60):
        n = trial % 5
        k = 1 if n == 4 else 2  # keeps the rank-4 scan boxes to a few thousand points
        M = [[rng.randint(-k, k) for _ in range(n)] for _ in range(n)]
        A = [[sum(M[k][i] * M[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        d, u = quadratic_completion(A)
        if trial % 3:
            offs = [Fraction(rng.randint(-9, 9), rng.randint(2, 6)) for _ in range(n)]
        else:
            offs = [Fraction(0)] * n
        z = [Fraction(0)] * n
        for i in reversed(range(n)):
            z[i] = offs[i] - sum(u[i][j] * z[j] for j in range(i + 1, n))
        # a probe near -z keeps the value, and so the scan box, small
        probe = [round(-c) + rng.randint(-1, 1) for c in z]
        hit = sum(A[i][j] * (probe[i] + z[i]) * (probe[j] + z[j]) for i in range(n) for j in range(n))
        # Q_A(x + z) == value  <=>  Q_A(D x + D z) == D^2 value, all in integers
        D = lcm(1, *(c.denominator for c in z))
        Dz = [int(c * D) for c in z]
        for value in (hit, hit + Fraction(1, 3), Fraction(rng.randint(0, 24), rng.randint(1, 6)), Fraction(0)):
            got = solve_completed_square(d, u, offs, value, [0] * n, identity_matrix(n))
            r = floor_sqrt_fraction(value)
            ranges = [range(floor(-c) - r, ceil(-c) + r + 1) for c in z]
            target = D * D * value
            want = []
            for x in product(*ranges):
                w = [D * xi + dz for xi, dz in zip(x, Dz)]
                if sum(A[i][j] * w[i] * w[j] for i in range(n) for j in range(n)) == target:
                    want.append(x)
            assert sorted(got) == sorted(want)
            assert got == sorted(got, key=lambda v: v[::-1])
        assert tuple(probe) in solve_completed_square(d, u, offs, hit, [0] * n, identity_matrix(n))
    assert solve_completed_square([], [], [], 0, [], []) == [()]
    assert solve_completed_square([], [], [], Fraction(1, 2), [], []) == []
    assert solve_completed_square([Fraction(1)], [[Fraction(0)]], [Fraction(0)], -1, [0], [[1]]) == []
