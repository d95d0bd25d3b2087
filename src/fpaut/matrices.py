"""Exact integer matrices: Smith normal form, determinants, Perron data.

Everything runs on Python integers (arbitrary precision) or Fractions; there
is deliberately no floating point anywhere near the exact decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, ZeroMatrix


@dataclass(frozen=True)
class IntegerMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r][c]

    def row(self, r: int) -> tuple[int, ...]:
        return self.entries[r]

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} cols vs {other.nrows} rows")
        ot = list(zip(*other.entries))
        return IntegerMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries))

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch")
        return IntegerMatrix(tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(c * x for x in row)
                                   for row in self.entries))

    def apply(self, vec: tuple[int, ...]) -> tuple[int, ...]:
        if len(vec) != self.ncols:
            raise DimensionMismatch(f"vector length {len(vec)} vs {self.ncols} cols")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(min(self.nrows, self.ncols)))

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                                   for i in range(n)))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(0 for _ in range(ncols))
                                   for _ in range(nrows)))


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: IntegerMatrix) -> bool:
    return m.nrows == m.ncols and abs(determinant(m)) == 1


class _Snf:
    """Mutable workspace for the Smith reduction with transform tracking."""

    def __init__(self, m: IntegerMatrix):
        self.a = [list(row) for row in m.entries]
        self.nr, self.nc = m.nrows, m.ncols
        self.u = [[1 if i == j else 0 for j in range(self.nr)] for i in range(self.nr)]
        self.v = [[1 if i == j else 0 for j in range(self.nc)] for i in range(self.nc)]

    def swap_rows(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]

    def swap_cols(self, i, j):
        for row in self.a:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]

    def add_row(self, src, dst, c):
        """row dst += c * row src"""
        self.a[dst] = [x + c * y for x, y in zip(self.a[dst], self.a[src])]
        self.u[dst] = [x + c * y for x, y in zip(self.u[dst], self.u[src])]

    def add_col(self, src, dst, c):
        for row in self.a:
            row[dst] += c * row[src]
        for row in self.v:
            row[dst] += c * row[src]

    def negate_row(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]

    def _pivot(self, t):
        best = None
        for i in range(t, self.nr):
            for j in range(t, self.nc):
                x = abs(self.a[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        return best

    def reduce(self):
        t = 0
        while True:
            p = self._pivot(t)
            if p is None:
                break
            _, pi, pj = p
            self.swap_rows(t, pi)
            self.swap_cols(t, pj)
            dirty = False
            for i in range(t + 1, self.nr):
                if self.a[i][t]:
                    q = self.a[i][t] // self.a[t][t]
                    self.add_row(t, i, -q)
                    if self.a[i][t]:
                        dirty = True
            for j in range(t + 1, self.nc):
                if self.a[t][j]:
                    q = self.a[t][j] // self.a[t][t]
                    self.add_col(t, j, -q)
                    if self.a[t][j]:
                        dirty = True
            if dirty:
                continue  # a smaller pivot appeared below/right; redo block
            if self.a[t][t] < 0:
                self.negate_row(t)
            t += 1
        # enforce the divisibility chain d1 | d2 | ...
        r = min(self.nr, self.nc)
        changed = True
        while changed:
            changed = False
            for i in range(r - 1):
                di, dj = self.a[i][i], self.a[i + 1][i + 1]
                if dj % (di if di else 1) != 0 or (di == 0 and dj != 0):
                    # fold d_{i+1} into the d_i slot and re-reduce the 2x2
                    self.add_col(i + 1, i, 1)
                    self._rediagonalize(i)
                    changed = True

    def _rediagonalize(self, t):
        """Clear the (t..t+1) block after a chain-fixing column add."""
        while True:
            p = None
            for i in range(t, self.nr):
                for j in range(t, self.nc):
                    x = abs(self.a[i][j])
                    if x and (p is None or x < p[0]):
                        p = (x, i, j)
            if p is None:
                return
            _, pi, pj = p
            self.swap_rows(t, pi)
            self.swap_cols(t, pj)
            done = True
            for i in range(t + 1, self.nr):
                if self.a[i][t]:
                    self.add_row(t, i, -(self.a[i][t] // self.a[t][t]))
                    if self.a[i][t]:
                        done = False
            for j in range(t + 1, self.nc):
                if self.a[t][j]:
                    self.add_col(t, j, -(self.a[t][j] // self.a[t][t]))
                    if self.a[t][j]:
                        done = False
            if done:
                if self.a[t][t] < 0:
                    self.negate_row(t)
                t += 1


def smith_normal_form(m: IntegerMatrix):
    """U, D, V with U*M*V = D diagonal, U, V unimodular, d1 | d2 | ...

    The factorization is re-verified by multiplication before returning; a
    failure would be a bug, not bad input.
    """
    ws = _Snf(m)
    ws.reduce()
    u = IntegerMatrix(tuple(tuple(r) for r in ws.u))
    v = IntegerMatrix(tuple(tuple(r) for r in ws.v))
    d = IntegerMatrix(tuple(tuple(r) for r in ws.a))
    if (u * m) * v != d:
        raise AssertionError("SNF verification failed: U*M*V != D")
    if not is_unimodular(u) or not is_unimodular(v):
        raise AssertionError("SNF verification failed: transform not unimodular")
    diag = d.diagonal()
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            raise AssertionError("SNF verification failed: zero before nonzero")
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            raise AssertionError("SNF verification failed: divisibility chain")
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j and d[i, j] != 0:
                raise AssertionError("SNF verification failed: not diagonal")
    return u, d, v


def invariant_factors(m: IntegerMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form, padded with zeros up to min(nrows,ncols)."""
    _, d, _ = smith_normal_form(m)
    return d.diagonal()


def content(vec) -> int:
    """gcd of the entries (0 for the zero vector)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return g


def solve_integer(m: IntegerMatrix, target: tuple[int, ...]):
    """One integer solution x of M x = target, or None.

    Uses the Smith form: with U M V = D the system becomes D y = U t.
    """
    if len(target) != m.nrows:
        raise DimensionMismatch("target length vs row count")
    u, d, v = smith_normal_form(m)
    t = u.apply(tuple(target))
    y = [0] * m.ncols
    r = min(m.nrows, m.ncols)
    for i in range(r):
        di = d[i, i]
        if di == 0:
            if t[i] != 0:
                return None
        else:
            if t[i] % di != 0:
                return None
            y[i] = t[i] // di
    for i in range(r, m.nrows):
        if t[i] != 0:
            return None
    return v.apply(tuple(y))


def matrix_inverse_unimodular(m: IntegerMatrix) -> IntegerMatrix:
    """Inverse of a unimodular matrix, exactly, via its Smith transforms."""
    u, d, v = smith_normal_form(m)
    if any(x != 1 for x in d.diagonal()) or m.nrows != m.ncols:
        raise DimensionMismatch("matrix is not unimodular")
    return v * u


def char_poly(m: IntegerMatrix) -> tuple[int, ...]:
    """Coefficients of det(xI - M), leading coefficient first, exactly.

    Faddeev-LeVerrier over the rationals; the result is integral.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = m.nrows
    a = [[Fraction(x) for x in row] for row in m.entries]
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A * M_{k-1} + c_{k-1} I ;  c_k = -tr(A M_k)/k
        am = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        for i in range(n):
            am[i][i] += coeffs[-1]
        mk = am
        prod = [[sum(a[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
        trace = sum(prod[i][i] for i in range(n))
        coeffs.append(-trace / k)
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise AssertionError("characteristic polynomial not integral")
        out.append(int(c))
    return tuple(out)


def kernel_vector(m: IntegerMatrix):
    """A nonzero integer vector in the kernel of M, or None."""
    u, d, v = smith_normal_form(m)
    for r in range(min(d.nrows, d.ncols)):
        if d[r, r] == 0:
            return v.apply(tuple(1 if c == r else 0 for c in range(v.ncols)))
    if d.ncols > d.nrows:
        r = d.nrows
        return v.apply(tuple(1 if c == r else 0 for c in range(v.ncols)))
    return None


def is_irreducible_matrix(m: IntegerMatrix) -> bool:
    """Strong connectivity of the support digraph of a nonnegative matrix."""
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatch("square matrix required")
    if n == 0:
        return False
    if n == 1:
        return m[0, 0] > 0

    def reach(adj):
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in range(n):
                if y not in seen and adj(x, y):
                    seen.add(y)
                    stack.append(y)
        return seen

    fwd = reach(lambda x, y: m[x, y] != 0)
    bwd = reach(lambda x, y: m[y, x] != 0)
    return len(fwd) == n and len(bwd) == n


@dataclass(frozen=True)
class SpectralRadius:
    """Rigorous two-sided estimate of the Perron eigenvalue."""

    value: float
    lower: Fraction
    upper: Fraction
    iterations: int
    eigenvector: tuple[float, ...]

    @property
    def error_bound(self) -> float:
        return float(self.upper - self.lower) / 2.0


def pf_growth_rate(m: IntegerMatrix, tol: Fraction = Fraction(1, 10**12),
                   max_iter: int = 10_000) -> SpectralRadius:
    """Spectral radius of a nonnegative integer matrix.

    Power iteration on M + I (the shift keeps iterates positive and kills
    periodicity) with Collatz-Wielandt bracketing: for any positive x,
    min_i (Mx)_i/x_i <= rho(M) <= max_i (Mx)_i/x_i, so the returned interval
    is rigorous whatever the convergence behaviour.
    """
    n = m.nrows
    if n != m.ncols:
        raise DimensionMismatch("square matrix required")
    if m.is_zero():
        raise ZeroMatrix("spectral radius of the zero matrix")
    if any(x < 0 for row in m.entries for x in row):
        raise ValueError("matrix must be nonnegative")
    shifted = m + IntegerMatrix.identity(n)
    x = tuple(1 for _ in range(n))
    lo, hi = Fraction(0), None
    iterations = 0
    checkpoint_width = None
    for iterations in range(1, max_iter + 1):
        y = shifted.apply(x)
        quots = [Fraction(yi, xi) for yi, xi in zip(y, x)]
        lo, hi = min(quots), max(quots)
        if hi - lo <= tol:
            x = y
            break
        if iterations % 64 == 0:
            # reducible matrices can close the bracket only like 1/n;
            # stop once shrinking is no longer geometric
            if checkpoint_width is not None and hi - lo > checkpoint_width / 2:
                x = y
                break
            checkpoint_width = hi - lo
        g = 0
        for yi in y:
            g = gcd(g, yi)
        x = tuple(yi // (g or 1) for yi in y)
    total = sum(x)
    vec = tuple(float(Fraction(xi, total)) for xi in x)
    lower, upper = lo - 1, hi - 1
    mid = (lower + upper) / 2
    return SpectralRadius(float(mid), lower, upper, iterations, vec)
