"""Validated automorphisms of a free product of abelian factors.

An automorphism from outside (the CLI, a caller's own tables) is handed
over as a pair of tables (images and inverse images of every generator)
and goes through `validate`.  Validation checks that the tables name
exactly the generators with words in normal form, certifies the two-sided
inverse, extracts the factor permutation and the canonical conjugators g_i
with phi(A_i) = g_i A_{sigma(i)} g_i^-1, records the integer matrix of
ad_{g_i^-1} o phi on each factor, and checks that every matrix is
unimodular.

Inverting an automorphism given only by images is a nontrivial algorithmic
problem; requiring the inverse table keeps validation cheap and decidable.

A validated automorphism acts on words syllable by syllable: a factor
syllable a_i^v maps to g_i . a_{sigma(i)}^{M_i v} . g_i^-1, from the factor
data (sigma, g_i, M_i), and a letter syllable x_l^e to phi(x_l)^e, the
`words.power` of its image.  Each side (phi on the images, phi^-1 on the
inverse images) is a table from syllable to block (`_Side`): the first
lookup of a syllable checks it (`words._check_syllable`), builds its block
and stores it, and every later lookup of an equal syllable is one dict
lookup.  A search acts on thousands of short classes made of a few dozen
distinct syllables, so each block is built about once.
The table is cleared at `_BLOCKS_MAX` entries, since orbit iterates keep
producing new vectors.  Because a block depends only on its syllable,
concurrent lookups from several threads are safe: racing writers store
equal values, and a clear only causes rebuilds.
`_act` joins each block onto the output (`words._join`): syllables merge
or cancel only at the junctions, and the output is never re-reduced or
re-checked.

`compose`, `inverse`, `power`, `ad` and `identity_automorphism` build their
tables from automorphisms that are already validated (or from a conjugator),
so the two tables are inverse by construction.  They go through the private
`_trusted` constructor instead of `validate`: it reads (sigma, g_i, M_i) off
the new images with the same `_factor_data` and runs neither the inverse
check nor the determinant check.  `power` multiplies by repeated squaring.
`_apply_table` substitutes table entries and reads no side: it is the
inverse check of `validate`, and `fpaut.verify` re-checks every witness
with it (`periodic_class`, `vertices`, `conjugacy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import FactorsPermuted, NotAnAutomorphism, NotFactorPreserving
from .matrices import IntegerMatrix, determinant, is_unimodular
from .words import (FactorSyllable, FreeSyllable, Presentation, Word,
                    _check_syllable, _join, _product, abelianize,
                    cyclic_normal_form, multiply, reduce_syllables,
                    require_same_presentation)
from .words import power as word_power


def generator_word(pres: Presentation, name: str) -> Word:
    """The length-one word for a generator name (a<i>.<j> or x<l>)."""
    if name.startswith("x"):
        l = int(name[1:])
        pres.check_letter(l)
        return Word(pres, (FreeSyllable(l, 1),))
    i, j = name[1:].split(".")
    return Word(pres, (pres.factor_generator(int(i), int(j)),))


def _apply_table(table: dict[str, Word], pres: Presentation, w: Word) -> Word:
    """The word w with every generator replaced by its table entry, reading
    no `_Side`: the check of raw tables and of witnesses (`fpaut.verify`)."""
    parts = []
    for s in w.syllables:
        if isinstance(s, FreeSyllable):
            parts.extend(word_power(table[f"x{s.letter}"], s.exponent).syllables)
        else:
            for j, e in enumerate(s.vector, start=1):
                if e:
                    parts.extend(word_power(table[f"a{s.factor}.{j}"], e).syllables)
    return reduce_syllables(parts, pres)


@dataclass(eq=False)
class Automorphism:
    """Immutable after validation; construct through :func:`validate`
    (or, for tables inverse by construction, the private `_trusted`).

    The two sides of the action (`_forward`, `_backward`) are built on
    first use and then fill with one block per distinct syllable seen (see
    `_Side`); they are caches, not state, and a pickled automorphism
    carries them empty."""

    presentation: Presentation
    images: dict[str, Word]
    inverse_images: dict[str, Word]
    factor_permutation: tuple[int, ...]
    conjugators: tuple[Word, ...]
    factor_matrices: tuple[IntegerMatrix, ...]

    def __eq__(self, other):
        return (isinstance(other, Automorphism)
                and self.presentation == other.presentation
                and self.images == other.images
                and self.inverse_images == other.inverse_images)

    @property
    def preserves_factor_classes(self) -> bool:
        """True when the factor permutation is the identity."""
        return all(s == i for i, s in enumerate(self.factor_permutation, start=1))

    def conjugator(self, i: int) -> Word:
        return self.conjugators[i - 1]

    def factor_matrix(self, i: int) -> IntegerMatrix:
        """Matrix of ad_{g_i^-1} o phi on A_i; columns are generator images."""
        return self.factor_matrices[i - 1]

    @cached_property
    def _forward(self):
        """The action of phi on syllables (see `_Side`)."""
        return _Side(self.presentation, self.images, self.factor_permutation,
                     self.conjugators, self.factor_matrices)

    @cached_property
    def _backward(self):
        """The action of phi^-1 on syllables (see `_Side`)."""
        return _Side(self.presentation, self.inverse_images,
                     *_factor_data(self.inverse_images, self.presentation))

    @cached_property
    def abelianized_matrix(self) -> IntegerMatrix:
        """Action on G_ab in the basis of `words.abelianize`: column r is
        the image of generator r."""
        return IntegerMatrix(tuple(zip(*(
            abelianize(self.images[name])
            for name in self.presentation.generator_names()))))


def _factor_data(table: dict[str, Word], pres: Presentation):
    """(sigma, conjugators, matrices) of a table of factor images in normal
    form: the factor permutation, the canonical g_i (the conjugator of each
    image's cyclic normal form) and the matrices M_i of ad_{g_i^-1} o phi
    on A_i.

    Raises NotFactorPreserving when some factor image is not elliptic in a
    single target factor with a common conjugator, or the factor map is
    not a rank-preserving permutation.
    """
    p = pres.num_factors
    sigma = []
    conjugators = []
    matrices = []
    for i in range(1, p + 1):
        rank = pres.factor_rank(i)
        target = None
        conj = None
        columns = []
        for j in range(1, rank + 1):
            w = table[f"a{i}.{j}"]
            if not w:
                raise NotFactorPreserving(f"a{i}.{j} maps to the empty word")
            cyc = cyclic_normal_form(w)
            if len(cyc) != 1 or not isinstance(cyc.core[0], FactorSyllable):
                raise NotFactorPreserving(f"image of a{i}.{j} is not elliptic")
            s, g = cyc.core[0], cyc.conjugator
            if target is None:
                target, conj = s.factor, g
            elif s.factor != target:
                raise NotFactorPreserving(
                    f"images of factor {i} land in factors {target} and {s.factor}")
            elif g != conj:
                raise NotFactorPreserving(
                    f"no common conjugator for the generators of factor {i}")
            columns.append(s.vector)
        if pres.factor_rank(target) != rank:
            raise NotFactorPreserving(
                f"factor {i} (rank {rank}) maps to factor {target} "
                f"(rank {pres.factor_rank(target)})")
        sigma.append(target)
        conjugators.append(conj)
        matrices.append(IntegerMatrix(tuple(zip(*columns))))

    if sorted(sigma) != list(range(1, p + 1)):
        raise NotFactorPreserving(f"factor map {sigma} is not a permutation")
    return tuple(sigma), tuple(conjugators), tuple(matrices)


def validate(images: dict[str, Word], inverse_images: dict[str, Word],
             pres: Presentation) -> Automorphism:
    """Certify an automorphism of (G, its free factor system).

    Raises NotFactorPreserving when some factor image is not elliptic in a
    single target factor with a common conjugator, and NotAnAutomorphism when
    a table does not map exactly the generators to normal-form words or the
    two tables are not two-sided inverses on generators.
    """
    names = pres.generator_names()
    for table, label in ((images, "images"), (inverse_images, "inverse_images")):
        missing, unknown = set(names) - set(table), set(table) - set(names)
        if missing or unknown:
            raise NotAnAutomorphism(f"{label}: missing generators {sorted(missing)}, "
                                    f"unknown generators {sorted(unknown)}")
        for name in names:
            w = table[name]
            require_same_presentation(w.presentation, pres)
            if reduce_syllables(w.syllables, pres) != w:
                raise NotAnAutomorphism(f"{label}[{name!r}] is not in normal form")

    sigma, conjugators, matrices = _factor_data(images, pres)

    for name in names:
        gen = generator_word(pres, name)
        if _apply_table(images, pres, inverse_images[name]) != gen:
            raise NotAnAutomorphism(f"phi(psi({name})) != {name}")
        if _apply_table(inverse_images, pres, images[name]) != gen:
            raise NotAnAutomorphism(f"psi(phi({name})) != {name}")

    for i, m in enumerate(matrices, start=1):
        if not is_unimodular(m):
            raise NotFactorPreserving(f"restriction to factor {i} is not invertible")

    return _trusted(images, inverse_images, pres,
                    (sigma, conjugators, matrices))


def _trusted(images: dict[str, Word], inverse_images: dict[str, Word],
             pres: Presentation, data=None) -> Automorphism:
    """An Automorphism from tables that are two-sided inverses by
    construction: (sigma, g_i, M_i) come from `_factor_data` of the images
    (or `data`, when the caller already has it), with no inverse check and
    no determinant check."""
    sigma, conjugators, matrices = data or _factor_data(images, pres)
    return Automorphism(pres, dict(images), dict(inverse_images), sigma,
                        conjugators, matrices)


# entries a side keeps before it starts over; orbit iterates keep producing
# new vectors, and a cleared side only rebuilds
_BLOCKS_MAX = 4096


class _Side(dict):
    """One direction of a validated automorphism: a table from input
    syllable to its block, the reduced syllables of its image.

    A missing syllable is checked by `words._check_syllable`, its block
    (g_i a_sigma(i)^{M_i v} g_i^-1, or `words.power(table[x_l], e)`) is
    built, stored and returned; a syllable that fails the check raises and
    is never stored.  The syllable constructors admit int entries only, so
    equal syllables pass the same checks and a hit needs none.  The table
    is cleared when it holds `_BLOCKS_MAX` entries.

    Safe to share between threads: a hit is one dict lookup, a miss stores
    a block that depends only on the syllable (so racing writers store
    equal values), and a `clear` that races a lookup only causes a rebuild.
    A side pickles as its inputs alone, without its table.
    """

    def __init__(self, pres, table, sigma, conjugators, matrices):
        super().__init__()
        self.inputs = pres, table, sigma, conjugators, matrices
        self.pres = pres
        self.table = table
        self.factors = tuple((g.syllables, t, m, g.inverse().syllables)
                             for t, g, m in zip(sigma, conjugators, matrices))

    def __reduce__(self):
        return _Side, self.inputs

    def __missing__(self, s):
        _check_syllable(s, self.pres)
        if isinstance(s, FactorSyllable):
            # g_i does not end in A_sigma(i): the block is reduced as built
            g, target, m, g_inv = self.factors[s.factor - 1]
            block = ((*g, FactorSyllable(target, m.apply(s.vector)), *g_inv)
                     if any(s.vector) else ())
        else:
            block = word_power(self.table[f"x{s.letter}"], s.exponent).syllables
        if len(self) >= _BLOCKS_MAX:
            self.clear()
        self[s] = block
        return block


def _act(side: _Side, pres: Presentation, w: Word) -> Word:
    """The image of w under one side: each input syllable's block, checked
    and built on its first lookup, is joined onto the output, which is
    never reduced or checked again.  A zero input syllable maps to 1."""
    out = []
    for s in w.syllables:
        _join(out, side[s])
    return Word(pres, tuple(out))


def identity_automorphism(pres: Presentation) -> Automorphism:
    table = {name: generator_word(pres, name) for name in pres.generator_names()}
    return _trusted(table, table, pres)


def ad(g: Word, pres: Presentation | None = None) -> Automorphism:
    """The inner automorphism s -> g s g^-1."""
    pres = pres or g.presentation
    gi = g.inverse()
    images = {}
    inverse_images = {}
    for name in pres.generator_names():
        s = generator_word(pres, name)
        images[name] = multiply(multiply(g, s), gi)
        inverse_images[name] = multiply(multiply(gi, s), g)
    return _trusted(images, inverse_images, pres)


def apply(phi: Automorphism, w: Word) -> Word:
    require_same_presentation(phi.presentation, w.presentation)
    return _act(phi._forward, phi.presentation, w)


def apply_inverse(phi: Automorphism, w: Word) -> Word:
    require_same_presentation(phi.presentation, w.presentation)
    return _act(phi._backward, phi.presentation, w)


def apply_power(phi: Automorphism, n: int, w: Word) -> Word:
    require_same_presentation(phi.presentation, w.presentation)
    side = phi._forward if n >= 0 else phi._backward
    for _ in range(abs(n)):
        w = _act(side, phi.presentation, w)
    return w


def inverse(phi: Automorphism) -> Automorphism:
    return _trusted(phi.inverse_images, phi.images, phi.presentation)


def compose(phi: Automorphism, psi: Automorphism) -> Automorphism:
    """(phi o psi): applies psi first."""
    require_same_presentation(phi.presentation, psi.presentation)
    pres = phi.presentation
    images = {name: _act(phi._forward, pres, psi.images[name])
              for name in pres.generator_names()}
    inverse_images = {name: _act(psi._backward, pres, phi.inverse_images[name])
                      for name in pres.generator_names()}
    return _trusted(images, inverse_images, pres)


def power(phi: Automorphism, n: int) -> Automorphism:
    """phi^n by repeated squaring: at most 2 floor(log2 |n|) compositions."""
    if n == 0:
        return identity_automorphism(phi.presentation)
    square = phi if n > 0 else inverse(phi)
    n = abs(n)
    out = None
    while True:
        if n & 1:
            out = square if out is None else compose(out, square)
        n >>= 1
        if not n:
            return out
        square = compose(square, square)


def require_class_preserving(phi: Automorphism) -> None:
    """The one check that phi maps each A_i to a conjugate of itself."""
    if not phi.preserves_factor_classes:
        raise FactorsPermuted("needs the identity factor permutation; "
                              "take a power of the automorphism first")


def conjugator_step(phi: Automorphism, i: int, h: Word) -> Word:
    """h' = phi(h) g_i, so phi(h A_i h^-1) = h' A_i h'^-1 when phi preserves
    factor classes; m steps from h = 1 give a conjugator of phi^m(A_i)."""
    return _product(apply(phi, h), phi.conjugator(i))


def is_toral(phi: Automorphism) -> bool:
    """Whether each factor restriction is the identity up to conjugation;
    the conjugator witnesses g_i are ``phi.conjugators``."""
    require_class_preserving(phi)
    n = phi.presentation.num_factors
    return all(phi.factor_matrix(i) == IntegerMatrix.identity(phi.presentation.factor_rank(i))
               for i in range(1, n + 1))


def check_central_condition(phi: Automorphism) -> dict[int, bool]:
    """Per factor i: does ad_{g_i^-1} o phi fix a nonzero vector of A_i?

    A nontrivial fixed vector gives a central element of the factor mapping
    torus A_i x| Z; the test is det(M_i - I) == 0 over the integers.
    """
    require_class_preserving(phi)
    out = {}
    for i in range(1, phi.presentation.num_factors + 1):
        m = phi.factor_matrix(i)
        out[i] = determinant(m - IntegerMatrix.identity(m.nrows)) == 0
    return out
