"""Exact linear algebra over Z and Q for small dense matrices.

Everything here works on plain nested lists/tuples of ints or Fractions;
ranks in this package never exceed single digits, so the elimination
routines favour clarity over asymptotics.  A lattice basis is brought to
row echelon form by Euclid down each column (row_echelon).  Quadratic
forms are completed once, in integers, by fraction-free symmetric
elimination (integer_completion); the one hot loop, the completed-square
descent that enumerates lattice points of a given norm, reads that
completion and runs in Python ints only.  It returns the points themselves,
origin + sum_i x_i*basis[i], built along the descent: each outer level
carries one list, the partial sum and the offsets of the levels below,
which setting its coordinate updates once.  The three innermost
coordinates depend on the outer ones only through the remaining budget
and their offsets modulo the inner triangular lattice; each such key is
solved once per call, and every node that reaches it adds the stored
inner vectors to its own shifted partial sum.  No floating
point anywhere.
"""

from fractions import Fraction
from functools import partial
from math import isqrt, lcm
from operator import add, sub


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


def row_echelon(rows):
    """A basis of the lattice spanned by the integer rows, in row echelon
    form: pivot columns strictly increase down the rows, each pivot is
    positive and each row is zero left of its pivot.

    Euclid down each column: the live rows (nonzero there) are reduced by
    the one of smallest absolute entry until one is left, which becomes
    the next row.  Each step is unimodular, so the lattice is unchanged,
    and zero rows drop out.
    """
    rows = [list(row) for row in rows]
    echelon = []
    for j in range(len(rows[0]) if rows else 0):
        live = [row for row in rows if row[j]]
        while len(live) > 1:
            p = min(live, key=lambda row: abs(row[j]))
            for row in live:
                if row is not p:
                    q = row[j] // p[j]
                    row[:] = [a - q * b for a, b in zip(row, p)]
            live = [row for row in live if row[j]]
        if live:
            p = live[0]
            rows.remove(p)
            echelon.append(p if p[j] > 0 else [-a for a in p])
    return echelon


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


# the innermost coordinates solved once per (budget, residues) key: a
# split of 3 lists the rank-6 cubic's classes faster than 2, 4 or 5.
# At least 2, since a key is solved by a descent from level _INNER - 1
_INNER = 3


class _Multiples(dict):
    """x -> x*v for one integer vector v, each built on first use."""

    def __init__(self, v):
        super().__init__()
        self.v = v

    def __missing__(self, x):
        m = self[x] = tuple(x * e for e in self.v)
        return m


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
    exactly.  Each level i >= 1 carries one list down: the partial sum
    origin + sum_{k>=i} x_k*basis[k] followed by the offsets T_0 ... T_{i-1},
    and setting x_i adds x_i*basis[i] to the sum and x_i*rows[j][i-j] to
    each T_j at once.  Level 0 takes s_0 = +-isqrt of what is left of the
    budget when that is exact.

    The _INNER innermost coordinates see the outer ones only through the
    budget R and their offsets, and the offsets only modulo the inner
    triangular lattice.  For j = _INNER-1 down to 0, T_j = p_j*a_j + r_j
    with 0 <= r_j < p_j, and x_j = y_j - a_j moves a_j*rows[k][j-k] off
    each T_k, k < j, before T_{j-1} is split: it is the descent's own
    step, taken back a_j times.  The y then solve a problem fixed by the
    key (R, r_{_INNER-1}, ..., r_0).  Each key is solved once per call, by
    the same descent from a zero sum, and stored as its vectors
    sum_j y_j*basis[j] in the order above; a node adds each to its partial
    sum minus sum_j a_j*basis[j].  Ranks up to _INNER reach no key.

    A row echelon basis with positive pivots, passed last pivot first,
    makes that order lexicographic on the vectors: where two solutions
    first differ, at x_i, every column left of basis[i]'s pivot agrees and
    that column differs by (x_i - x'_i) times the pivot.
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
    R = value.numerator * (W // value.denominator)
    d = len(origin)
    # level i's step: basis[i] on the sum, rows[j][i-j] on each T_j, j < i
    steps = [_Multiples((*basis[i], *(rows[j][i - j] for j in range(i)))) for i in range(n)]
    p0, c0, step0 = pivots[0], c[0], steps[0]
    keys = {}

    def level0(out, R, state):
        q, rem = divmod(R, c0)
        r = isqrt(q)
        if rem or r * r != q:
            return
        t = state[d]
        for s in (-r, r) if r else (0,):
            x0, miss = divmod(s - t, p0)
            if not miss:
                out.append(tuple(map(add, state, step0[x0])))

    def keyed(out, R, state):
        key = [R]
        for j in reversed(range(_INNER)):
            a, r = divmod(state[d + j], pivots[j])
            state = list(map(sub, state, steps[j][a]))
            key.append(r)
        key = tuple(key)
        found = keys.get(key)
        if found is None:
            found = keys[key] = []
            # the zero sum followed by the offsets r_0 ... r_{_INNER-1}
            descend(_INNER - 1, found, R, (0,) * d + key[:0:-1])
        out += [tuple(map(add, state, v)) for v in found]

    def descend(i, out, R, state):
        p, ci, t, step = pivots[i], c[i], state[d + i], steps[i]
        below = (partial(keyed, out) if i == _INNER else
                 partial(descend, i - 1, out) if i > 1 else partial(level0, out))
        m = isqrt(R // ci)  # c_i*s_i^2 <= R  <=>  |p_i*x_i + T_i| <= m
        for xi in range(-((m + t) // p), (m - t) // p + 1):
            s = p * xi + t
            # a list, not a tuple: freed tuples of these sizes would stay
            # on the interpreter's tuple free lists after the call
            below(R - ci * s * s, list(map(add, state, step[xi])))

    out = []
    state = (*origin, *(row[-1] for row in rows))
    if n > 1:
        descend(n - 1, out, R, state)
    else:
        level0(out, R, state)
    return out
