"""Exact integer matrices: Smith normal form, determinants, Perron data.

Everything runs on Python integers (arbitrary precision) or Fractions; there
is deliberately no floating point anywhere near the exact decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (DimensionMismatch, SelfCheckFailed, ZeroMatrix,
                     not_an_int)

# width at which `pf_growth_rate` stops narrowing its bracket, and the most
# power-iteration steps it takes
PF_TOLERANCE = Fraction(1, 10**12)
PF_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class IntegerMatrix:
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.entries))  # tuple(t) is t for a tuple
        object.__setattr__(self, "entries", rows)
        for row in rows:
            for x in row:
                if type(x) is not int:
                    raise not_an_int("matrix entry", x)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise DimensionMismatch("ragged rows")

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


def smith_normal_form(m: IntegerMatrix):
    """U, D, V with U*M*V = D diagonal, U, V unimodular, d1 | d2 | ...

    For an r x c matrix M the reduction runs on one bordered array
    W = [[M, I_r], [I_c, 0]]: a row operation on the first r rows acts on
    [M | U] and a column operation on the first c columns acts on [M ; V],
    so each operation is written once and the transforms follow it.  At the end D = W[:r][:c], U = W[:r][c:]
    and V = W[r:][:c].  The pivot is the smallest nonzero entry of the
    block still to clear, the first in row-major order on ties.

    The factorization is re-verified by multiplication before returning; a
    failure would be a bug, not bad input.
    """
    nr, nc = m.nrows, m.ncols
    w = [list(row) + [int(i == j) for j in range(nr)]
         for i, row in enumerate(m.entries)]
    w += [[int(i == j) for j in range(nc)] + [0] * nr for i in range(nc)]

    def add_col(src, dst, k):
        for row in w:
            row[dst] += k * row[src]

    def diagonalize(t):
        """Clear rows and columns from t on, smallest nonzero entry first."""
        while True:
            p = min(((abs(w[i][j]), i, j) for i in range(t, nr)
                     for j in range(t, nc) if w[i][j]), default=None)
            if p is None:
                return
            _, pi, pj = p
            w[t], w[pi] = w[pi], w[t]
            for row in w:
                row[t], row[pj] = row[pj], row[t]
            done = True
            for i in range(t + 1, nr):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    w[i] = [x - q * y for x, y in zip(w[i], w[t])]
                    done = done and not w[i][t]
            for j in range(t + 1, nc):
                if w[t][j]:
                    add_col(t, j, -(w[t][j] // w[t][t]))
                    done = done and not w[t][j]
            if done:  # else a smaller pivot appeared below/right; redo block
                if w[t][t] < 0:
                    w[t] = [-x for x in w[t]]
                t += 1

    diagonalize(0)
    # enforce the divisibility chain d1 | d2 | ...
    changed = True
    while changed:
        changed = False
        for i in range(min(nr, nc) - 1):
            di, dj = w[i][i], w[i + 1][i + 1]
            if dj % (di if di else 1) != 0 or (di == 0 and dj != 0):
                # fold d_{i+1} into the d_i slot and re-reduce from i
                add_col(i + 1, i, 1)
                diagonalize(i)
                changed = True
    u = IntegerMatrix(tuple(tuple(row[nc:]) for row in w[:nr]))
    d = IntegerMatrix(tuple(tuple(row[:nc]) for row in w[:nr]))
    v = IntegerMatrix(tuple(tuple(row[:nc]) for row in w[nr:]))
    if (u * m) * v != d:
        raise SelfCheckFailed("SNF verification failed: U*M*V != D")
    if not is_unimodular(u) or not is_unimodular(v):
        raise SelfCheckFailed("SNF verification failed: transform not unimodular")
    diag = d.diagonal()
    for i in range(len(diag) - 1):
        if diag[i] == 0 and diag[i + 1] != 0:
            raise SelfCheckFailed("SNF verification failed: zero before nonzero")
        if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
            raise SelfCheckFailed("SNF verification failed: divisibility chain")
    for i in range(d.nrows):
        for j in range(d.ncols):
            if i != j and d[i, j] != 0:
                raise SelfCheckFailed("SNF verification failed: not diagonal")
    return u, d, v


def invariant_factors(m: IntegerMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form, padded with zeros up to min(nrows,ncols)."""
    _, d, _ = smith_normal_form(m)
    return d.diagonal()


def content(vec) -> int:
    """gcd of the entries (0 for the zero vector)."""
    return gcd(*vec)


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

    Faddeev-LeVerrier on integers: M_k = A M_{k-1} + c_{k-1} I has integer
    entries and c_k = -tr(A M_k)/k is an integer, so the division is exact.
    A M_k is kept for the next step, one matrix product per step.
    """
    if m.nrows != m.ncols:
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = m.nrows
    a = m.entries
    coeffs = [1]
    am = [[0] * n for _ in range(n)]  # A M_0
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] += coeffs[-1]
        cols = list(zip(*am))  # M_k, by columns
        am = [[sum(x * y for x, y in zip(row, col)) for col in cols]
              for row in a]
        c, r = divmod(-sum(am[i][i] for i in range(n)), k)
        if r:
            raise SelfCheckFailed("characteristic polynomial not integral")
        coeffs.append(c)
    return tuple(coeffs)


def kernel_basis(m: IntegerMatrix) -> list[tuple[int, ...]]:
    """A basis of the integer kernel of M: the columns of V (U M V = D) at
    the zero or missing diagonal entries of D, in column order."""
    _, d, v = smith_normal_form(m)
    r = min(d.nrows, d.ncols)
    return [tuple(row[c] for row in v.entries)
            for c in range(v.ncols) if c >= r or d[c, c] == 0]


def kernel_vector(m: IntegerMatrix):
    """A nonzero integer vector in the kernel of M, or None."""
    basis = kernel_basis(m)
    return basis[0] if basis else None


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
    eigenvector: tuple[float, ...]

    @property
    def error_bound(self) -> float:
        return float(self.upper - self.lower) / 2.0


def pf_growth_rate(m: IntegerMatrix) -> SpectralRadius:
    """Spectral radius of a nonnegative integer matrix.

    Power iteration on M + I (the shift keeps iterates positive and kills
    periodicity) with Collatz-Wielandt bracketing: for any positive x,
    min_i (Mx)_i/x_i <= rho(M) <= max_i (Mx)_i/x_i, so the returned interval
    is rigorous whatever the convergence behaviour.  The iteration stops
    once the bracket is at most ``PF_TOLERANCE`` wide, or after
    ``PF_MAX_ITERATIONS`` steps.
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
    checkpoint_width = None
    for iterations in range(1, PF_MAX_ITERATIONS + 1):
        y = shifted.apply(x)
        quots = [Fraction(yi, xi) for yi, xi in zip(y, x)]
        lo, hi = min(quots), max(quots)
        if hi - lo <= PF_TOLERANCE:
            x = y
            break
        if iterations % 64 == 0:
            # reducible matrices can close the bracket only like 1/n;
            # stop once shrinking is no longer geometric
            if checkpoint_width is not None and hi - lo > checkpoint_width / 2:
                x = y
                break
            checkpoint_width = hi - lo
        g = gcd(*y)
        x = tuple(yi // (g or 1) for yi in y)
    total = sum(x)
    vec = tuple(float(Fraction(xi, total)) for xi in x)
    lower, upper = lo - 1, hi - 1
    mid = (lower + upper) / 2
    return SpectralRadius(float(mid), lower, upper, vec)
