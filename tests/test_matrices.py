import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from fpaut.errors import DimensionMismatch, ZeroMatrix
from fpaut.matrices import (IntegerMatrix, char_poly, content, determinant,
                            invariant_factors, is_irreducible_matrix,
                            is_unimodular, kernel_vector,
                            matrix_inverse_unimodular, pf_growth_rate,
                            smith_normal_form, solve_integer)


def M(*rows):
    return IntegerMatrix(tuple(tuple(r) for r in rows))


def random_matrix(rng, nmax=6, lo=-9, hi=9):
    n, m = rng.randint(1, nmax), rng.randint(1, nmax)
    return IntegerMatrix(tuple(tuple(rng.randint(lo, hi) for _ in range(m))
                               for _ in range(n)))


def test_determinant():
    assert determinant(M((1, 2), (3, 4))) == -2
    assert determinant(IntegerMatrix.identity(5)) == 1
    assert determinant(M((2, 1), (4, 2))) == 0
    with pytest.raises(DimensionMismatch):
        determinant(M((1, 2)))


def test_determinant_matches_permanent_expansion():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]

        def brute(rows, cols):
            if not cols:
                return 1
            total = 0
            for idx, c in enumerate(cols):
                sign = -1 if idx % 2 else 1
                total += sign * rows[0][c] * brute(rows[1:], cols[:idx] + cols[idx + 1:])
            return total

        assert determinant(IntegerMatrix(tuple(map(tuple, a)))) == \
            brute(a, tuple(range(n)))


def test_snf_identity():
    u, d, v = smith_normal_form(IntegerMatrix.identity(3))
    assert d == IntegerMatrix.identity(3)


def test_snf_divisibility_fix():
    _, d, _ = smith_normal_form(M((2, 0), (0, 3)))
    assert d.diagonal() == (1, 6)


def test_snf_zero():
    _, d, _ = smith_normal_form(IntegerMatrix.zero(2, 3))
    assert d.is_zero()


def _minor_gcd(m: IntegerMatrix, r: int) -> int:
    g = 0
    for rows in itertools.combinations(range(m.nrows), r):
        for cols in itertools.combinations(range(m.ncols), r):
            sub = IntegerMatrix(tuple(tuple(m[i, j] for j in cols) for i in rows))
            g = gcd(g, abs(determinant(sub)))
    return g


def test_snf_minor_gcds_3x3():
    rng = random.Random(11)
    for _ in range(30):
        m = IntegerMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(3))
                                for _ in range(3)))
        diag = invariant_factors(m)
        prod = 1
        for r in range(1, 4):
            prod *= diag[r - 1]
            assert abs(prod) == _minor_gcd(m, r)


def test_snf_random_stress():
    rng = random.Random(41)
    for _ in range(150):
        m = random_matrix(rng)
        u, d, v = smith_normal_form(m)  # self-verifying
        assert is_unimodular(u) and is_unimodular(v)


def test_snf_transforms_pinned():
    # U and V reach report bytes (torus-ab generator images, kernel bases,
    # conjugacy psi images), so the exact transforms are pinned, not only
    # their unimodularity
    rng = random.Random(2026)
    h = hashlib.sha256()
    for _ in range(3000):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = IntegerMatrix(tuple(
            tuple(rng.randint(-6, 6) if rng.random() < 0.7 else 0
                  for _ in range(c))
            for _ in range(r)))
        u, d, v = smith_normal_form(m)
        h.update((repr((u.entries, d.entries, v.entries)) + "\n").encode())
    assert h.hexdigest() == (
        "d8c81af03274449e73a6cb77146fda2123f4eddbc86bc7d1fca3c960bd11bf24")


def test_solve_integer():
    m = M((2, 0), (0, 3))
    assert m.apply(solve_integer(m, (4, 9))) == (4, 9)
    assert solve_integer(m, (1, 3)) is None
    wide = M((2, 4),)
    sol = solve_integer(wide, (6,))
    assert wide.apply(sol) == (6,)


def test_kernel_vector():
    v = kernel_vector(M((1, 1), (1, 1)))
    assert v is not None and any(v)
    assert M((1, 1), (1, 1)).apply(v) == (0, 0)
    assert kernel_vector(IntegerMatrix.identity(2)) is None


def test_unimodular_inverse():
    m = M((1, 2), (0, 1))
    assert m * matrix_inverse_unimodular(m) == IntegerMatrix.identity(2)
    with pytest.raises(DimensionMismatch):
        matrix_inverse_unimodular(M((2, 0), (0, 1)))


def test_content():
    assert content((4, 6)) == 2
    assert content((0, 0)) == 0
    assert content(()) == 0


def test_char_poly():
    assert char_poly(M((1, 1), (1, 0))) == (1, -1, -1)
    assert char_poly(IntegerMatrix.identity(2)) == (1, -2, 1)
    assert char_poly(M((2, 1), (1, 1))) == (1, -3, 1)


def test_irreducibility():
    assert is_irreducible_matrix(M((1, 1), (1, 0)))
    assert not is_irreducible_matrix(IntegerMatrix.identity(2))
    assert not is_irreducible_matrix(M((2, 1), (0, 3)))
    assert is_irreducible_matrix(M((3,),))
    assert not is_irreducible_matrix(M((0,),))


def test_pf_golden_ratio():
    sr = pf_growth_rate(M((1, 1), (1, 0)))
    golden = (1 + 5 ** 0.5) / 2
    assert abs(sr.value - golden) < 1e-9
    assert sr.lower <= Fraction(golden).limit_denominator(10 ** 12) <= sr.upper


def test_pf_trivial_cases():
    assert pf_growth_rate(IntegerMatrix.identity(2)).value == 1.0
    assert pf_growth_rate(M((2, 1), (0, 3))).value == 3.0
    with pytest.raises(ZeroMatrix):
        pf_growth_rate(IntegerMatrix.zero(2, 2))


def test_pf_interval_is_rigorous_for_reducible():
    # upper triangular: bracket must contain the spectral radius even
    # though pure power iteration cannot close it
    sr = pf_growth_rate(M((3, 1), (0, 2)))
    assert sr.lower <= 3 <= sr.upper


def test_pf_collatz_wielandt_bracketing():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = IntegerMatrix(tuple(tuple(rng.randint(0, 4) for _ in range(n))
                                for _ in range(n)))
        if m.is_zero():
            continue
        sr = pf_growth_rate(m)
        assert sr.lower <= sr.upper
        assert float(sr.lower) - 1e-9 <= sr.value <= float(sr.upper) + 1e-9
