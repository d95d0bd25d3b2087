"""One re-verification per witness kind: each check computes phi^n by
substituting phi's image table (`automorphisms._apply_table`) and reads none
of the sides (`automorphisms._Side`) through which the searches found the
witness.  A failed check raises `SelfCheckFailed`, a bug in this package."""

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


def twinned_pair(phi: Automorphism, m: int, g: Word, first, second) -> None:
    """For each descriptor (u, i) of `first` and `second`, phi^m(u a u^-1)
    lies in (gu) A_i (gu)^-1 for every generator a of A_i (`twin_search`)."""
    pres = phi.presentation
    for u, i in (first, second):
        gu = multiply(g, u)
        for r in range(1, pres.factor_rank(i) + 1):
            x = multiply(multiply(u, generator_word(pres, f"a{i}.{r}")),
                         u.inverse())
            y = multiply(multiply(gu.inverse(), _image(phi, m, x)), gu)
            _require(not double_coset_rep(i, y, i), "twin")


def nielsen_path(phi: Automorphism, w: Word, end, n: int, g: Word) -> None:
    """phi^n(w) h = g w a for some a in A_end, where w is the word of a path
    ending at factor vertex `end` (None: at the base vertex, and a = 1)
    and h_0 = 1, h_k = phi(h_{k-1}) g_end (`nielsen_search`)."""
    h = Word(phi.presentation)
    if end is not None:
        for _ in range(n):
            h = multiply(_image(phi, 1, h), phi.conjugator(end))
    diff = multiply(multiply(g, w).inverse(), multiply(_image(phi, n, w), h))
    _require(not (diff if end is None else double_coset_rep(end, diff, end)),
             "nielsen")


def conjugacy(phi1: Automorphism, phi2: Automorphism, psi: Automorphism,
              c: Word) -> None:
    """psi phi1 psi^-1 = phi2 o ad(c) on every generator
    (`conjugacy_pipeline`)."""
    for name, inner in ad(c, phi1.presentation).images.items():
        lhs = _image(psi, 1, _image(phi1, 1, psi.inverse_images[name]))
        _require(lhs == _image(phi2, 1, inner), "conjugacy")
