"""Exact linear algebra over Z and Q for small dense matrices.

Everything here works on plain nested lists/tuples of ints or Fractions;
ranks in this package never exceed single digits, so the elimination
routines favour clarity over asymptotics.  The one hot loop, the
completed-square descent that enumerates lattice points of a given norm,
scales its data to integers once and then runs in Python ints only.  It
returns the points themselves, origin + sum_i x_i*basis[i], built along
the descent: the outer levels carry a partial sum and each solution adds
its last two terms.  No floating point anywhere.
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


def solve_completed_square(d, u, offsets, value, origin, basis):
    """Vectors origin + sum_i x_i*basis[i] over the integer solutions x of
    sum_i d_i (x_i + t_i(x))^2 == value.

    Here t_i(x) = offsets[i] + sum_{j>i} u[i][j] x_j, with (d, u) from
    quadratic_completion (every d_i > 0).  Solutions are listed with x_{n-1}
    as the slowest coordinate and x_0 the fastest, each ascending; the zero
    origin with the unit basis lists the coordinates x themselves.

    The descent (Fincke & Pohst, Math. Comp. 44, 1985) runs in integers
    only.  Row i of the shift is scaled once by den_i, the lcm of its
    denominators, so s_i = den_i*x_i + T_i(x) is an integer with T_i linear
    in the outer coordinates; one factor W makes W*value and every
    c_i = W*d_i/den_i^2 integral.  The budget R = W*remaining then stays
    an integer, each level spends c_i*s_i^2 of it, and |s_i| <= isqrt(R // c_i)
    bounds x_i exactly.  The last coordinate is solved, not scanned:
    c_0*s_0^2 must equal what is left.  Levels i >= 2 carry the partial sum
    origin + sum_{k>=i} x_k*basis[k]; each solution adds x_1*basis[1] and
    x_0*basis[0] to it.
    """
    n = len(d)
    value = Fraction(value)
    if value < 0:
        return []
    if n == 0:
        return [tuple(origin)] if value == 0 else []
    dens, rows = [], []
    for i in range(n):
        row = [Fraction(offsets[i])] + [Fraction(u[i][j]) for j in range(i + 1, n)]
        den = lcm(*(f.denominator for f in row))
        dens.append(den)
        # rows[i] = (den_i*offsets[i], den_i*u[i][i+1], ..., den_i*u[i][n-1])
        rows.append([f.numerator * (den // f.denominator) for f in row])
    weights = [Fraction(d[i]) / (dens[i] * dens[i]) for i in range(n)]
    W = lcm(value.denominator, *(f.denominator for f in weights))
    c = [f.numerator * (W // f.denominator) for f in weights]
    out = []
    # rank 1 has no x_1: a zero column stands in for basis[1]
    x = [0] * max(n, 2)
    b0, b1 = basis[0], basis[1] if n > 1 else [0] * len(origin)

    def descend(i, R, part):
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
