"""Correctness checks that do not trust the code they check.

Identities only: no current series total is pinned, because those depend
on the search window.  Arithmetic here is plain integers and Fractions,
written independently of dtseries' own helpers.
"""

import json
from fractions import Fraction
from itertools import product
from math import ceil, floor, isqrt, lcm


def partition_counts(n):
    """p(0), ..., p(n) by the coin-change recurrence."""
    p = [1] + [0] * n
    for k in range(1, n + 1):
        for i in range(k, n + 1):
            p[i] += p[i - k]
    return p


def fixed_point_count(charts, n):
    """Number of torus-fixed points of S^[n]: the q^n coefficient of
    (sum_k p(k) q^k)^charts."""
    p = partition_counts(n)
    acc = [1] + [0] * n
    for _ in range(charts):
        acc = [sum(acc[i] * p[k - i] for i in range(k + 1)) for k in range(n + 1)]
    return acc[n]


def product_is_one(a, b):
    """Truncated product of two integer coefficient lists equals 1."""
    n = min(len(a), len(b))
    for k in range(n):
        s = sum(a[i] * b[k - i] for i in range(k + 1))
        if s != (1 if k == 0 else 0):
            return False
    return True


def euler_sign(values, minus, plus):
    """'minus' or 'plus' when exactly one Euler-product sign matches."""
    m, p = list(values) == list(minus), list(values) == list(plus)
    if m == p:
        return None
    return "minus" if m else "plus"


def _mat_mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def smith_ok(A, D, U, V):
    """U*A*V == D, D diagonal with nonnegative d_i dividing d_(i+1)."""
    if _mat_mul(_mat_mul(U, A), V) != D:
        return False
    diag = []
    for i, row in enumerate(D):
        for j, x in enumerate(row):
            if i != j and x != 0:
                return False
        if i < len(row):
            diag.append(row[i])
    if any(d < 0 for d in diag):
        return False
    return all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


def _inverse(M):
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


class LatticeCheck:
    """Checks enumerated classes against the surface data directly.

    Coordinates of a class in the affine lattice come from the normal
    equations; the ellipsoid {beta^2 >= level} lies in the search box when
    its extent along every coordinate axis does."""

    def __init__(self, S, gamma, lattice, window):
        s = S.h2_rank
        self.S, self.window = S, window
        self.gram = [list(r) for r in S.gram]
        L2 = self.push(S.L_S)
        self.target = tuple(Fraction(g) + Fraction(l, 2) for g, l in zip(gamma, L2))
        self.origin = list(lattice.origin)
        self.basis = [list(b) for b in lattice.basis]
        m = len(self.basis)
        B = self.basis
        inv = _inverse([[sum(B[a][i] * B[b][i] for i in range(s)) for b in range(m)]
                        for a in range(m)]) if m else []
        # integer form of the normal-equation inverse: inv == normal_num / normal_den
        self.normal_den = lcm(1, *(x.denominator for row in inv for x in row))
        self.normal_num = [[(x * self.normal_den).numerator for x in row] for row in inv]
        # beta(x)^2 = -(x - x*)^T Q (x - x*) + top, Q positive definite
        Q = [[-self.dot(B[a], B[b]) for b in range(m)] for a in range(m)]
        lin = [self.dot(B[a], self.origin) for a in range(m)]
        self.q_inv = _inverse(Q) if m else []
        self.center = [sum(self.q_inv[i][j] * lin[j] for j in range(m)) for i in range(m)]
        self.top = self.dot(self.origin, self.origin) + sum(
            lin[i] * self.center[i] for i in range(m))

    def dot(self, u, v):
        G = self.gram
        return sum(G[i][j] * u[i] * v[j] for i in range(len(u)) for j in range(len(v)))

    def push(self, beta):
        return tuple(sum(r[j] * beta[j] for j in range(len(beta))) for r in self.S.pushforward)

    def coords(self, beta):
        """Integer lattice coordinates of beta, or None if beta is not in
        the lattice."""
        d = [b - o for b, o in zip(beta, self.origin)]
        B = self.basis
        rhs = [sum(B[a][i] * d[i] for i in range(len(d))) for a in range(len(B))]
        x = []
        for row in self.normal_num:
            q, r = divmod(sum(c * v for c, v in zip(row, rhs)), self.normal_den)
            if r:
                return None
            x.append(q)
        back = [o + sum(x[a] * B[a][i] for a in range(len(B))) for i, o in enumerate(self.origin)]
        return x if back == list(beta) else None

    def box_contains(self, level):
        """The solid ellipsoid {beta^2 >= level} lies inside the box."""
        R = self.top - level
        if R < 0:
            return True
        for i, c in enumerate(self.center):
            room = self.window - abs(c)
            if room < 0 or room * room < R * self.q_inv[i][i]:
                return False
        return True

    def scan_ranges(self, lowest):
        """Coordinate ranges of a box holding the ellipsoid {beta^2 >= lowest}."""
        R = max(self.top - lowest, Fraction(0))
        ranges = []
        for i, c in enumerate(self.center):
            r2 = R * self.q_inv[i][i]  # (x_i - c_i)^2 <= r2 on the ellipsoid
            reach = isqrt(ceil(r2)) + 1
            xs = [x for x in range(floor(c) - reach, ceil(c) + reach + 1) if (x - c) ** 2 <= r2]
            ranges.append(range(xs[0], xs[-1] + 1) if xs else range(0))
        return ranges

    def brute_force(self, lowest):
        """Every class with beta^2 >= lowest, by scanning all lattice points
        of a box that holds the ellipsoid; {level: set of classes}."""
        B, o = self.basis, self.origin
        m = len(B)
        A = [[self.dot(B[a], B[b]) for b in range(m)] for a in range(m)]
        lin = [2 * self.dot(B[a], o) for a in range(m)]
        c0 = self.dot(o, o)
        found = {}
        for x in product(*self.scan_ranges(lowest)):
            sq = c0 + sum(lin[a] * x[a] + x[a] * sum(A[a][b] * x[b] for b in range(m))
                          for a in range(m))
            if sq >= lowest:
                beta = tuple(o[i] + sum(x[a] * B[a][i] for a in range(m)) for i in range(len(o)))
                found.setdefault(sq, set()).add(beta)
        return found

    def check(self, classes_by_level, box_classes):
        """Failures (strings), the number of classes found inside the box,
        and the number of nonempty levels whose whole ellipsoid fits in
        the box.  box_classes: the set of classes the box scan produced."""
        failures = []
        box_by_level = {}
        for beta in box_classes:
            box_by_level.setdefault(self.dot(beta, beta), set()).add(beta)
        contained = compared = 0
        for level, classes in classes_by_level.items():
            if len(set(classes)) != len(classes):
                failures.append(f"beta^2={level}: duplicate classes")
            inside = set()
            for beta in classes:
                if self.push(beta) != self.target:
                    failures.append(f"beta={beta}: pushforward {self.push(beta)} != {self.target}")
                if self.dot(beta, beta) != level:
                    failures.append(f"beta={beta}: square {self.dot(beta, beta)} != {level}")
                x = self.coords(beta)
                if x is None:
                    failures.append(f"beta={beta}: not in the constraint lattice")
                elif max((abs(c) for c in x), default=0) <= self.window:
                    inside.add(tuple(beta))
            in_box = box_by_level.get(level, set())
            compared += len(inside)
            if inside != in_box:
                failures.append(f"beta^2={level}: {len(inside)} enumerated classes in the box, "
                                f"box scan has {len(in_box)}")
            if classes and self.box_contains(level):
                contained += 1
                if len(classes) != len(in_box):
                    failures.append(f"beta^2={level}: {len(classes)} classes but the box, "
                                    f"which contains the ellipsoid, has {len(in_box)}")
        return failures, compared, contained


def check_cli_output(call, rc, text, expected, trace_text=None):
    """Failures (strings) of one CLI invocation against the documented
    exit code and `expected`, what the library's own results say the
    output must hold:

      json         {dotted path: value} in the JSON document
      json_len     {dotted path: length} of lists in the JSON document
      csv_rows     number of CSV rows below the header
      csv_column   {header: [cells]}, the whole column
      csv_last     {header: cell} of the last row
      line_tokens  [[tokens]]: for each, a line whose words start with them
      line_count   number of lines
      trace_sums   values v: the fixed-point terms at n in the --trace file
                   sum to v[n]
      stdout_sha256  digest of stdout
    """
    what = " ".join(call.argv)
    if rc != call.expect_rc:
        return [f"{what}: exit {rc}, expected {call.expect_rc}"]
    if rc == 0 and not text:
        return [f"{what}: empty stdout"]
    try:
        return [f"{what}: {f}" for f in _content(text, expected, trace_text)]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"{what}: malformed output ({type(exc).__name__}: {exc})"]


def _content(text, expected, trace_text):
    import csv
    import hashlib

    out = []
    if "json" in expected or "json_len" in expected:
        doc = json.loads(text)
        for path, want in expected.get("json", {}).items():
            if _lookup(doc, path) != want:
                out.append(f"{path} differs from the library's")
        for path, n in expected.get("json_len", {}).items():
            if len(_lookup(doc, path)) != n:
                out.append(f"{path} has {len(_lookup(doc, path))} entries, the library's has {n}")
    if any(k in expected for k in ("csv_rows", "csv_column", "csv_last")):
        header, *rows = list(csv.reader(text.splitlines()))
        if "csv_rows" in expected and len(rows) != expected["csv_rows"]:
            out.append(f"{len(rows)} CSV rows, the library has {expected['csv_rows']}")
        for col, want in expected.get("csv_column", {}).items():
            if [r[header.index(col)] for r in rows] != want:
                out.append(f"CSV column {col} differs from the library's")
        for col, want in expected.get("csv_last", {}).items():
            if rows[-1][header.index(col)] != want:
                out.append(f"CSV {col} of the last row is not {want}")
    lines = text.splitlines()
    for tokens in expected.get("line_tokens", ()):
        if not any(line.split()[:len(tokens)] == tokens for line in lines):
            out.append(f"no line starts with {' '.join(tokens)[:80]!r}")
    if "line_count" in expected and len(lines) != expected["line_count"]:
        out.append(f"{len(lines)} lines, expected {expected['line_count']}")
    if "trace_sums" in expected:
        values = expected["trace_sums"]
        trace = json.loads(trace_text or "[]")
        if not trace:
            out.append("no fixed-point trace written")
        for entry in trace:
            total = sum(Fraction(t["term"]) for t in entry["terms"])
            if total != values[entry["n"]]:
                out.append(f"fixed-point terms at n={entry['n']} sum to {total}, "
                           f"not {values[entry['n']]}")
    want = expected.get("stdout_sha256")
    if want and hashlib.sha256(text.encode()).hexdigest() != want:
        out.append("stdout differs from cli.main run in process")
    return out


def _lookup(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return doc
