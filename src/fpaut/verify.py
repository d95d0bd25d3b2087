"""One re-verification per fact a search claims: a periodic conjugacy class
(`periodic_class`), tree vertices that an element moves as phi^n does
(`vertices`, for twinned pairs and Nielsen paths) and a conjugacy
(`conjugacy`).  Each check computes phi^n by substituting phi's image table
(`automorphisms._apply_table`) and reads only the tables and presentation of
an automorphism: none of the sides (`automorphisms._Side`) or the
conjugators and matrices through which the searches found the witness.  A
failed check raises `SelfCheckFailed`, a bug in this package."""

from __future__ import annotations

from .automorphisms import Automorphism, _apply_table, ad, generator_word
from .errors import SelfCheckFailed
from .words import Word, conjugate_test, double_coset_rep, multiply


def _image(phi: Automorphism, n: int, w: Word) -> Word:
    """phi^n(w), n >= 0, by n substitutions of phi's image table."""
    for _ in range(n):
        w = _apply_table(phi.images, phi.presentation, w)
    return w


def _require(holds: bool, witness: str) -> None:
    if not holds:
        raise SelfCheckFailed(f"{witness} witness failed re-verification")


def periodic_class(phi: Automorphism, g: Word, n: int) -> None:
    """phi^n fixes the conjugacy class of g (`atoroidal_search`)."""
    _require(conjugate_test(_image(phi, n, g), g), "periodic class")


def vertices(phi: Automorphism, n: int, g: Word, *ends) -> None:
    """g carries each Bass-Serre vertex u.v of `ends`, given as (u, i), to
    its image under the lift of f^n: for i None, v is the base vertex, whose
    lift f fixes, so phi^n(u) = g u; else v is the vertex of A_i, and
    (gu)^-1 phi^n(u a u^-1) (gu) lies in A_i for every generator a of A_i
    (`twin_search`, `nielsen_search`).  The images phi^n(a) of a factor are
    computed once per call, though two ends may share the factor."""
    pres = phi.presentation
    factor_images = {}  # i -> phi^n of the generators of A_i
    for u, i in ends:
        gu, image = multiply(g, u), _image(phi, n, u)
        if i is None:
            _require(image == gu, "vertex")
            continue
        if i not in factor_images:
            factor_images[i] = [
                _image(phi, n, generator_word(pres, f"a{i}.{r}"))
                for r in range(1, pres.factor_rank(i) + 1)]
        c = multiply(gu.inverse(), image)
        for a in factor_images[i]:
            y = multiply(multiply(c, a), c.inverse())
            _require(not double_coset_rep(i, y, i), "vertex")


def conjugacy(phi1: Automorphism, phi2: Automorphism, psi: Automorphism,
              c: Word) -> None:
    """psi phi1 psi^-1 = phi2 o ad(c) on every generator
    (`conjugacy_pipeline`)."""
    for name, inner in ad(c, phi1.presentation).images.items():
        lhs = _image(psi, 1, _image(phi1, 1, psi.inverse_images[name]))
        _require(lhs == _image(phi2, 1, inner), "conjugacy")
