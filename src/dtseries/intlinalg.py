"""Exact linear algebra over Z and Q for small dense matrices.

Everything here works on plain nested lists/tuples of ints or Fractions;
ranks in this package never exceed single digits, so the elimination
routines favour clarity over asymptotics.  Quadratic forms are completed
once, in integers, by fraction-free symmetric elimination
(integer_completion); the one hot loop, the completed-square descent that
enumerates lattice points of a given norm, reads that completion and runs
in Python ints only.  It returns the points themselves,
origin + sum_i x_i*basis[i], built along the descent: the outer levels
carry a partial sum and each solution adds its last two terms.  No
floating point anywhere.
"""

from fractions import Fraction
from math import isqrt, lcm


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(A, v):
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def smith_normal_form(A):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (D, U, V) with U*A*V == D, U and V unimodular, D diagonal with
    d_i | d_{i+1}.  Standard elimination: repeatedly move a minimal nonzero
    entry to the pivot, reduce its row and column, fix divisibility.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [[int(x) for x in row] for row in A]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):
        # row_i += c * row_j
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, c):
        for row in D:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    t = 0
    while t < min(m, n):
        # locate a nonzero entry of minimal absolute value in the tail block
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if D[i][t] != 0:
                q = D[i][t] // D[t][t]
                add_row(i, t, -q)
                dirty = dirty or D[i][t] != 0
        for j in range(t + 1, n):
            if D[t][j] != 0:
                q = D[t][j] // D[t][t]
                add_col(j, t, -q)
                dirty = dirty or D[t][j] != 0
        if dirty:
            continue  # remainders survived; repeat with a smaller pivot
        # divisibility: d_t must divide every later entry
        fixed = True
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    add_row(t, i, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if D[t][t] < 0:
                add_row(t, t, -2)  # flip sign: row *= -1 via adding -2*itself
            t += 1
    return D, U, V


def solve_integer_system(A, target):
    """All integer solutions x of A x = target.

    Returns (x0, basis) where basis spans the integer kernel, or None when
    no integral solution exists.  target entries may be Fractions; they
    must be integers for solvability.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    t = [Fraction(x) for x in target]
    if any(x.denominator != 1 for x in t):
        return None
    D, U, V = smith_normal_form(A)
    c = mat_vec(U, [x.numerator for x in t])
    y = [0] * n
    rank = 0
    for i in range(min(m, n)):
        if D[i][i] != 0:
            rank = i + 1
    for i in range(m):
        if i < rank:
            if c[i] % D[i][i] != 0:
                return None
            y[i] = c[i] // D[i][i]
        elif c[i] != 0:
            return None
    x0 = mat_vec(V, y)
    basis = [[V[r][j] for r in range(n)] for j in range(rank, n)]
    return x0, basis


def integer_completion(M):
    """Complete the square of y^T M y in integers, y = (x, 1).

    M is a symmetric integer (m+1)x(m+1) matrix whose leading m x m block
    is positive definite.  Fraction-free symmetric elimination (Bareiss,
    Math. Comp. 22, 1968) divides every update exactly by the previous
    pivot and returns (rows, pivots, tail) with

        y^T M y = sum_k (rows[k] . y[k:])^2 / (p_{k-1} p_k) + tail / p_{m-1},

    p_k = pivots[k] = rows[k][0] the k+1 leading minor, p_{-1} = 1.  A pivot
    that is not positive means the leading block is not positive definite
    (Sylvester's criterion): ValueError.
    """
    m = len(M) - 1
    A = [list(row) for row in M]
    rows, pivots, prev = [], [], 1
    for k in range(m):
        p = A[k][k]
        if p <= 0:
            raise ValueError("form is not positive definite")
        rows.append(A[k][k:])
        pivots.append(p)
        # only the upper triangle is read, so only it is updated
        for i in range(k + 1, m + 1):
            a = A[k][i]
            row = A[i]
            for j in range(i, m + 1):
                row[j] = (p * row[j] - a * A[k][j]) // prev
        prev = p
    return rows, pivots, A[m][m]


def solve_completed_square(rows, pivots, value, origin, basis):
    """Vectors origin + sum_i x_i*basis[i] over the integer solutions x of
    sum_i s_i^2 / (p_{i-1} p_i) == value, s_i = rows[i] . (x, 1)[i:].

    (rows, pivots) come from integer_completion: rows[i] holds p_i, the
    coefficients of x_{i+1} ... x_{n-1} and the constant term, and every
    p_i > 0 (p_{-1} = 1).  Solutions are listed with x_{n-1} as the slowest
    coordinate and x_0 the fastest, each ascending; the zero origin with
    the unit basis lists the coordinates x themselves.

    The descent (Fincke & Pohst, Math. Comp. 44, 1985) runs in integers
    only: s_i = p_i*x_i + T_i(x) with T_i linear in the outer coordinates,
    and one factor W makes W*value and every c_i = W/(p_{i-1} p_i)
    integral.  The budget R = W*remaining then stays an integer, each
    level spends c_i*s_i^2 of it, and |s_i| <= isqrt(R // c_i) bounds x_i
    exactly.  The last coordinate is solved, not scanned: c_0*s_0^2 must
    equal what is left.  Levels i >= 2 carry the partial sum
    origin + sum_{k>=i} x_k*basis[k]; each solution adds x_1*basis[1] and
    x_0*basis[0] to it.
    """
    n = len(pivots)
    value = Fraction(value)
    if value < 0:
        return []
    if n == 0:
        return [tuple(origin)] if value == 0 else []
    weights = [a * b for a, b in zip([1, *pivots], pivots)]
    W = lcm(value.denominator, *weights)
    c = [W // w for w in weights]
    out = []
    # rank 1 has no x_1: a zero column stands in for basis[1]
    x = [0] * max(n, 2)
    b0, b1 = basis[0], basis[1] if n > 1 else [0] * len(origin)

    def descend(i, R, part):
        row = rows[i]
        T = row[-1]
        for k in range(i + 1, n):
            T += row[k - i] * x[k]
        den, ci = pivots[i], c[i]
        if i == 0:
            q, rem = divmod(R, ci)
            r = isqrt(q)
            if rem or r * r != q:
                return
            x1 = x[1]
            for s in (-r, r) if r else (0,):
                x0, miss = divmod(s - T, den)
                if not miss:
                    out.append(tuple(p + x1 * e1 + x0 * e0 for p, e1, e0 in zip(part, b1, b0)))
            return
        m = isqrt(R // ci)  # c_i*s_i^2 <= R  <=>  |den*x_i + T| <= m
        bi = basis[i]
        for xi in range(-((m + T) // den), (m - T) // den + 1):
            x[i] = xi
            s = den * xi + T
            nxt = [p + xi * e for p, e in zip(part, bi)] if i > 1 else part
            descend(i - 1, R - ci * s * s, nxt)

    descend(n - 1, value.numerator * (W // value.denominator), origin)
    return out
