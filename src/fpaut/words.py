"""Normal-form algebra for elements of A_1 * ... * A_p * F_k.

Elements are alternating products of syllables: a syllable is either a
nontrivial element of one free-abelian factor A_i (stored as an integer
exponent vector) or a nonzero power of one free letter x_l.  A word is in
normal form when no two adjacent syllables live in the same factor / on the
same letter.  All values are immutable and all operations are pure, so
everything here is safe to share between threads.

>>> pres = Presentation((2, 2), 0)
>>> raw = [FactorSyllable(1, (1, 0)), FactorSyllable(2, (0, 1)),
...        FactorSyllable(2, (0, -1)), FactorSyllable(1, (2, 0))]
>>> w = reduce_syllables(raw, pres)
>>> w.syllables
(FactorSyllable(factor=1, vector=(3, 0)),)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import (EmptyWord, IndexOutOfRange, PresentationMismatch,
                     not_an_int)


@dataclass(frozen=True)
class Presentation:
    """A free product of free-abelian groups and a free group.

    ``abelian_ranks[i-1]`` is the rank of the factor A_i (factors are
    1-indexed everywhere, matching the generator names a<i>.<j>); ``free_rank``
    is the rank k of the free part with letters x1..xk.
    """

    abelian_ranks: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        if type(self.abelian_ranks) is not tuple:
            object.__setattr__(self, "abelian_ranks", tuple(self.abelian_ranks))
        for n in (*self.abelian_ranks, self.free_rank):
            if type(n) is not int:
                raise not_an_int("rank", n)
        if any(n < 1 for n in self.abelian_ranks):
            raise ValueError("every abelian factor must have rank >= 1")
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if not self.abelian_ranks and self.free_rank == 0:
            raise ValueError("trivial group: need at least one factor or free letter")

    @property
    def num_factors(self) -> int:
        return len(self.abelian_ranks)

    @cached_property
    def _abelian_layout(self) -> tuple:
        """(offsets, letters, rank) of G_ab for `abelianize`: where each
        factor's coordinates start, the coordinate of x1 minus one, and the
        rank of G_ab."""
        offsets = tuple(itertools.accumulate(self.abelian_ranks, initial=0))
        return offsets, offsets[-1] - 1, offsets[-1] + self.free_rank

    def factor_rank(self, i: int) -> int:
        if not 1 <= i <= self.num_factors:
            raise IndexOutOfRange(f"factor index {i} not in 1..{self.num_factors}")
        return self.abelian_ranks[i - 1]

    def check_letter(self, l: int) -> None:
        if not 1 <= l <= self.free_rank:
            raise IndexOutOfRange(f"free letter index {l} not in 1..{self.free_rank}")

    def factor_generator(self, i: int, j: int, e: int = 1) -> FactorSyllable:
        """The syllable a<i>.<j>^e; raises IndexOutOfRange when the factor
        A_i has no generator j."""
        rank = self.factor_rank(i)
        if not 1 <= j <= rank:
            raise IndexOutOfRange(
                f"factor {i} has rank {rank}, no generator a{i}.{j}")
        return FactorSyllable(i, tuple(e if r == j else 0
                                       for r in range(1, rank + 1)))

    def generator_names(self) -> list[str]:
        """All generator names, factor generators first: a1.1, ..., xk."""
        names = [f"a{i}.{j}" for i in range(1, self.num_factors + 1)
                 for j in range(1, self.abelian_ranks[i - 1] + 1)]
        names += [f"x{l}" for l in range(1, self.free_rank + 1)]
        return names


@dataclass(frozen=True)
class FactorSyllable:
    """A nontrivial element of the abelian factor A_factor."""

    factor: int
    vector: tuple[int, ...]

    def __post_init__(self):
        v = self.vector
        if type(v) is not tuple:
            v = tuple(v)
            object.__setattr__(self, "vector", v)
        if type(self.factor) is not int:
            raise not_an_int("factor index", self.factor)
        for c in v:
            if type(c) is not int:
                raise not_an_int("vector entry", c)

    @property
    def mass(self) -> int:
        return sum(abs(c) for c in self.vector)

    def inverse(self) -> "FactorSyllable":
        return FactorSyllable(self.factor, tuple(-c for c in self.vector))

    def sort_key(self):
        return (0, self.factor, self.vector)


@dataclass(frozen=True)
class FreeSyllable:
    """A nonzero power of the free letter x_letter."""

    letter: int
    exponent: int

    def __post_init__(self):
        if type(self.letter) is not int:
            raise not_an_int("letter index", self.letter)
        if type(self.exponent) is not int:
            raise not_an_int("exponent", self.exponent)

    @property
    def mass(self) -> int:
        return abs(self.exponent)

    def inverse(self) -> "FreeSyllable":
        return FreeSyllable(self.letter, -self.exponent)

    def sort_key(self):
        return (1, self.letter, self.exponent)


Syllable = Union[FactorSyllable, FreeSyllable]


def _track(s: Syllable):
    """Which free factor of the free product the syllable lives in."""
    if isinstance(s, FactorSyllable):
        return ("A", s.factor)
    return ("X", s.letter)


def _merge(a: Syllable, b: Syllable) -> Syllable | None:
    """Product of two same-track syllables; None when it cancels to 1."""
    if isinstance(a, FactorSyllable):
        v = tuple(x + y for x, y in zip(a.vector, b.vector))
        return None if not any(v) else FactorSyllable(a.factor, v)
    e = a.exponent + b.exponent
    return None if e == 0 else FreeSyllable(a.letter, e)


def _syllable_power(s: Syllable, n: int) -> Syllable:
    """s**n as one syllable of the same track (trivial when n == 0)."""
    if isinstance(s, FactorSyllable):
        return FactorSyllable(s.factor, tuple(n * c for c in s.vector))
    return FreeSyllable(s.letter, n * s.exponent)


def _is_zero(s: Syllable) -> bool:
    if isinstance(s, FactorSyllable):
        return not any(s.vector)
    return s.exponent == 0


@dataclass(frozen=True)
class Word:
    """An element of the free product in normal form."""

    presentation: Presentation
    syllables: tuple[Syllable, ...] = ()

    def __len__(self) -> int:
        return len(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def inverse(self) -> "Word":
        return Word(self.presentation,
                    tuple(s.inverse() for s in reversed(self.syllables)))

    @property
    def mass(self) -> int:
        """Total L1 magnitude of all exponents."""
        return sum(s.mass for s in self.syllables)

    def sort_key(self):
        return (len(self.syllables), tuple(s.sort_key() for s in self.syllables))


@dataclass(frozen=True)
class CyclicWord:
    """Cyclically reduced core of a word, with the conjugating witness.

    ``conjugator * Word(core) * conjugator^-1`` reduces to the word this was
    computed from.  The normal-form condition holds between the last and first
    core syllable whenever the core has length >= 2.
    """

    presentation: Presentation
    core: tuple[Syllable, ...]
    conjugator: Word

    def __len__(self) -> int:
        return len(self.core)

    @property
    def mass(self) -> int:
        return sum(s.mass for s in self.core)

    def canonical_rotation(self) -> tuple[Syllable, ...]:
        """Lexicographically least rotation; a conjugacy-class invariant."""
        r = least_rotation([s.sort_key() for s in self.core])
        return self.core[r:] + self.core[:r]


def least_rotation(keys: Sequence) -> int:
    """Least start index of the lexicographically least rotation of keys.

    Two candidate starts i and j are compared k keys deep.  At the first
    difference, say keys[i + k] > keys[j + k], each start i + p with
    0 <= p <= k begins a rotation strictly greater than the one at j + p,
    so none of them is least and i jumps to i + k + 1.  Each comparison
    raises i + j + k by at least one (a jump of k + 1 pays for resetting
    k), and the scan stops once any of them reaches n, so it is O(n) and
    needs no auxiliary array (against O(n^2) for the minimum over all
    rotations).  Only starts strictly worse than another are skipped,
    and both i and j pass every index below them, so when one start runs
    past the end, or the two agree for n keys (a periodic list), min(i, j)
    is the least index of a least rotation.
    """
    n = len(keys)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = keys[(i + k) % n], keys[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _check_syllable(s: Syllable, pres: Presentation) -> None:
    if isinstance(s, FactorSyllable):
        if len(s.vector) != pres.factor_rank(s.factor):
            raise IndexOutOfRange(
                f"factor {s.factor} has rank {pres.factor_rank(s.factor)}, "
                f"got vector of length {len(s.vector)}")
    else:
        pres.check_letter(s.letter)


def _join(out: list[Syllable], syllables: Iterable[Syllable]) -> None:
    """Append syllables to the normal-form stack `out`, reducing as they go.

    A syllable on the same factor or letter as the top of the stack merges
    into it; when the two cancel the top is popped, so the next syllable
    meets the one below (the cascade).  Nothing is checked: every syllable
    must be nontrivial and valid for the presentation of `out`.
    """
    for s in syllables:
        if out:
            t = out[-1]
            if type(t) is type(s) and (
                    t.factor == s.factor if type(s) is FactorSyllable
                    else t.letter == s.letter):
                s = _merge(out.pop(), s)
                if s is None:
                    continue
        out.append(s)


def reduce_syllables(raw: Iterable[Syllable], pres: Presentation) -> Word:
    """Normal form of an arbitrary syllable sequence; the checked entry
    point of the word layer.

    Every syllable is checked against the presentation and zero syllables
    are dropped; then adjacent same-factor syllables merge by exponent
    addition, trivial results drop, and merging cascades (`_join`).
    """
    raw = list(raw)
    for s in raw:
        _check_syllable(s, pres)
    out: list[Syllable] = []
    _join(out, [s for s in raw if not _is_zero(s)])
    return Word(pres, tuple(out))


def require_same_presentation(p: Presentation, q: Presentation) -> None:
    """The one presentation check of the package."""
    if p != q:
        raise PresentationMismatch(f"{p} vs {q}")


def multiply(u: Word, v: Word) -> Word:
    require_same_presentation(u.presentation, v.presentation)
    return reduce_syllables(itertools.chain(u.syllables, v.syllables),
                            u.presentation)


def power(u: Word, n: int) -> Word:
    """u**n, computed through the cyclic form so large n stays cheap."""
    if n == 0 or not u:
        return Word(u.presentation)
    if n < 0:
        return power(u.inverse(), -n)
    cyc = cyclic_normal_form(u)
    core = cyc.core
    if len(core) == 1:
        mid = Word(u.presentation, (_syllable_power(core[0], n),))
    else:
        # cyclically reduced: concatenation needs no interior reduction
        mid = Word(u.presentation, core * n)
    return multiply(multiply(cyc.conjugator, mid), cyc.conjugator.inverse())


def cyclic_normal_form(w: Word) -> CyclicWord:
    """Strip conjugating prefix/suffix pairs and merge the wrap-around.

    The recorded conjugator c satisfies  c * core * c^-1 == w.
    """
    if not w:
        raise EmptyWord("cyclic normal form of the empty word")
    syl = w.syllables
    lo, hi = 0, len(syl) - 1
    conj: list[Syllable] = []
    while hi > lo and _track(syl[lo]) == _track(syl[hi]):
        merged = _merge(syl[hi], syl[lo])
        if merged is None:
            # exact cancellation: w = first . core . first^-1
            conj.append(syl[lo])
            lo, hi = lo + 1, hi - 1
        else:
            # wrap merge: rotate the last syllable to the front;
            # w = last^-1 . (merged core) . last
            conj.append(syl[hi].inverse())
            core = (merged,) + syl[lo + 1:hi]
            break  # first and last now lie in different factors
    else:
        core = syl[lo:hi + 1]
    # conj is syl[:lo], then perhaps syl[hi]^-1, which lies on the track of
    # syl[lo] and so not on that of syl[lo - 1]: already in normal form
    return CyclicWord(w.presentation, core, Word(w.presentation, tuple(conj)))


def abelianize(w: Word) -> list[int]:
    """The image of w in G_ab = Z^(n_1+...+n_p) (+) Z^k: its exponent sums
    in the basis a1.1, ..., ap.np, x1, ..., xk of `generator_names`."""
    offsets, letters, rank = w.presentation._abelian_layout
    v = [0] * rank
    for s in w.syllables:
        if type(s) is FreeSyllable:
            v[letters + s.letter] += s.exponent
        else:
            for j, e in enumerate(s.vector, offsets[s.factor - 1]):
                v[j] += e
    return v


def conjugacy_key(w: Word) -> tuple[Syllable, ...]:
    """A complete conjugacy invariant: the canonical rotation of the cyclic
    core, or () for the empty word.

    An elliptic core is one factor syllable and a hyperbolic core is either
    two or more syllables or one free syllable, so the keys of the two kinds
    never collide; within each kind, conjugate elements have the same core
    up to rotation (the factors are abelian).
    """
    if not w:
        return ()
    return cyclic_normal_form(w).canonical_rotation()


def conjugate_test(u: Word, v: Word) -> bool:
    """Decide conjugacy in the free product by comparing `conjugacy_key`s."""
    require_same_presentation(u.presentation, v.presentation)
    return conjugacy_key(u) == conjugacy_key(v)


def double_coset_rep(i: int, w: Word, j: int) -> Word:
    """Canonical representative of the double coset A_i . w . A_j.

    Strips one leading syllable in factor i and one trailing syllable in
    factor j from the normal form; invariant under w -> a.w.b for a in A_i,
    b in A_j.
    """
    pres = w.presentation
    pres.factor_rank(i)
    pres.factor_rank(j)
    syl = list(w.syllables)
    if syl and isinstance(syl[0], FactorSyllable) and syl[0].factor == i:
        syl = syl[1:]
    if syl and isinstance(syl[-1], FactorSyllable) and syl[-1].factor == j:
        syl = syl[:-1]
    return Word(pres, tuple(syl))
