"""sympy as an independent oracle for the exact integer linear algebra:
Smith normal form, invariant factors, integer kernel bases, determinant and
characteristic polynomial on seeded random small integer matrices, including
rank-deficient ones."""

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import smith_normal_form as sympy_snf  # noqa: E402

from fpaut.matrices import (IntegerMatrix, char_poly, determinant,  # noqa: E402
                            invariant_factors, kernel_basis, kernel_vector,
                            smith_normal_form)


def _random_rows(rng, nrows, ncols, bound=6):
    rows = [[rng.randint(-bound, bound) for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:
        # a dependent last row, so that low ranks and zeros are covered
        k = rng.randint(-2, 2)
        rows[-1] = [a * k + b for a, b in zip(rows[0], rows[1])]
    return rows


def _pair(rows):
    return IntegerMatrix(tuple(map(tuple, rows))), sympy.Matrix(rows)


def _seeded_rectangular_pairs():
    rng = random.Random(7)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        yield _pair(_random_rows(rng, nrows, ncols))


def test_smith_form_matches_sympy():
    for ours, theirs in _seeded_rectangular_pairs():
        nrows, ncols = ours.nrows, ours.ncols
        _, d, _ = smith_normal_form(ours)
        reference = sympy_snf(theirs, domain=sympy.ZZ)
        # sympy normalises signs differently; the diagonal is unique up to units
        expected = tuple(abs(int(reference[i, i]))
                         for i in range(min(nrows, ncols)))
        assert d.diagonal() == expected
        assert invariant_factors(ours) == expected


def test_kernel_basis_matches_sympy():
    for ours, theirs in _seeded_rectangular_pairs():
        basis = kernel_basis(ours)
        assert len(basis) == ours.ncols - theirs.rank()
        for vec in basis:
            assert not any(ours.apply(vec))
        if basis:
            span = sympy.Matrix.hstack(*(sympy.Matrix(v) for v in basis))
            assert span.rank() == len(theirs.nullspace())
        assert kernel_vector(ours) == (basis[0] if basis else None)


def test_determinant_and_char_poly_match_sympy():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        ours, theirs = _pair(_random_rows(rng, n, n))
        assert determinant(ours) == int(theirs.det())
        coeffs = char_poly(ours)
        assert list(coeffs) == \
            [int(c) for c in theirs.charpoly().all_coeffs()]
        # Fraction(3) == 3, so equality alone cannot tell the types apart
        assert all(type(c) is int for c in coeffs)
