import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaut import (Presentation, Word, conjugacy_key, conjugate_test,
                   cyclic_normal_form, double_coset_rep,
                   enumerate_cyclic_words, multiply, parse_word,
                   reduce_syllables, render_word)
from fpaut.errors import EmptyWord, IndexOutOfRange, PresentationMismatch
from fpaut.matrices import IntegerMatrix
from fpaut.words import (FactorSyllable, FreeSyllable, least_rotation,
                         power)

from conftest import random_word

PRES = Presentation((2, 2), 2)


def w(text, pres=PRES):
    return parse_word(text, pres)


def test_presentation_invariants():
    with pytest.raises(ValueError):
        Presentation((), 0)
    with pytest.raises(ValueError):
        Presentation((0,), 1)
    with pytest.raises(ValueError):
        Presentation((2,), -1)


# each used to be truncated by int() or, for a free exponent, kept as a
# float that reduce_syllables and multiply then added up
@pytest.mark.parametrize("build", [
    lambda: FactorSyllable(1, (2.5, -0.7)),
    lambda: FactorSyllable(1, (2.0, 1)),
    lambda: FactorSyllable(1.0, (1, 0)),
    lambda: FreeSyllable(1, 2.5),
    lambda: FreeSyllable(1, 2.0),
    lambda: FreeSyllable(True, 1),
    lambda: IntegerMatrix(((1.5, 2.9), (0, 1))),
    lambda: IntegerMatrix([[1, 0], [0, True]]),
    lambda: Presentation((2.7,), 0),
    lambda: Presentation((2,), 1.0)], ids=[
    "vector-nonintegral", "vector-integral-float", "factor-float",
    "exponent-nonintegral", "exponent-integral-float", "letter-bool",
    "matrix-nonintegral", "matrix-bool", "rank-nonintegral",
    "free-rank-integral-float"])
def test_constructors_refuse_entries_that_are_not_ints(build):
    with pytest.raises(TypeError, match="not an int"):
        build()


def test_constructors_take_any_sequence_of_ints():
    assert FactorSyllable(1, [1, -2]) == FactorSyllable(1, (1, -2))
    assert IntegerMatrix([[1, 2], (0, 1)]).entries == ((1, 2), (0, 1))
    assert Presentation([2, 3], 1).abelian_ranks == (2, 3)


def test_generator_names():
    assert Presentation((2,), 1).generator_names() == ["a1.1", "a1.2", "x1"]


def test_reduce_cancellation():
    assert w("a1.1 a1.1^-1").syllables == ()


def test_reduce_cascade_merge():
    got = reduce_syllables([FactorSyllable(1, (1, 0)), FactorSyllable(2, (0, 1)),
                            FactorSyllable(2, (0, -1)), FactorSyllable(1, (2, 0))],
                           PRES)
    assert got.syllables == (FactorSyllable(1, (3, 0)),)


def test_reduce_free_cancellation():
    assert w("x1 x1^-1 x2").syllables == (FreeSyllable(2, 1),)


def test_reduce_drops_zero_syllables():
    got = reduce_syllables([FactorSyllable(1, (0, 0)), FreeSyllable(1, 0)], PRES)
    assert not got


def test_reduce_index_error():
    with pytest.raises(IndexOutOfRange):
        reduce_syllables([FactorSyllable(3, (1,))], PRES)
    with pytest.raises(IndexOutOfRange):
        reduce_syllables([FreeSyllable(5, 1)], PRES)


def test_multiply_merges():
    assert multiply(w("a1.1"), w("a1.1^2")).syllables == (FactorSyllable(1, (3, 0)),)


def test_multiply_inverse_is_identity():
    u = w("a1.1 x1^2 a2.2^-1")
    assert not multiply(u, u.inverse())


def test_invert_reverses():
    assert render_word(w("a1.1 x1^2").inverse()) == "x1^-2 a1.1^-1"


def test_multiply_presentation_mismatch():
    with pytest.raises(PresentationMismatch):
        multiply(w("a1.1"), parse_word("a1.1", Presentation((2,), 0)))


def test_cyclic_strip():
    c = cyclic_normal_form(w("a1.1 a2.1 a1.1^-1"))
    assert c.core == (FactorSyllable(2, (1, 0)),)
    assert render_word(c.conjugator) == "a1.1"


def test_cyclic_wrap_merge():
    # boundary syllables in the same factor merge around the wrap
    c = cyclic_normal_form(w("a1.1 a1.2 a2.1 a2.2 a1.1^-1"))
    assert c.core == (FactorSyllable(1, (0, 1)), FactorSyllable(2, (1, 1)))
    assert render_word(c.conjugator) == "a1.1"


def test_cyclic_already_reduced():
    word = w("a1.1 a2.1")
    c = cyclic_normal_form(word)
    assert c.core == word.syllables and not c.conjugator


def test_cyclic_conjugator_witness():
    for text in ("a1.1 a2.1 a1.1^-1", "x1 a1.2 x1^-1 x2", "a1.1 a1.2 a2.1 a1.1^-1"):
        word = w(text)
        c = cyclic_normal_form(word)
        assert multiply(multiply(c.conjugator, Word(PRES, c.core)),
                        c.conjugator.inverse()) == word


def test_cyclic_long_conjugator(rng):
    # a conjugator of many syllables is stripped whole, ending in a wrap merge
    core = w("x1 a1.1 x2")
    for _ in range(20):
        c = random_word(PRES, rng, max_syllables=40)
        word = multiply(multiply(c, core), c.inverse())
        cyc = cyclic_normal_form(word)
        assert multiply(multiply(cyc.conjugator, Word(PRES, cyc.core)),
                        cyc.conjugator.inverse()) == word
        assert conjugate_test(Word(PRES, cyc.core), core)
        assert len(cyc) == 3


def test_cyclic_empty_raises():
    with pytest.raises(EmptyWord):
        cyclic_normal_form(Word(PRES))


def test_is_hyperbolic():
    # the class enumeration keeps exactly the hyperbolic classes
    def enumerated(word, max_exp):
        key = conjugacy_key(word)
        return any(g.syllables == key for g in enumerate_cyclic_words(
            PRES, len(key), max_exp, min_len=len(key)))
    assert not enumerated(w("a1.1^5 a1.2^3"), 8)
    assert enumerated(w("a1.1 a2.1"), 1)
    assert enumerated(w("x1^7"), 7)  # loxodromic on the loop edge


def test_conjugacy_rotation():
    assert conjugate_test(w("a1.1 a2.1"), w("a2.1 a1.1"))


def test_conjugacy_elliptic_is_equality():
    assert not conjugate_test(w("a1.1"), w("a1.2"))
    assert conjugate_test(w("x1 a1.1 x1^-1"), w("a2.2 a1.1 a2.2^-1"))


def test_conjugacy_elliptic_vs_hyperbolic():
    assert not conjugate_test(w("a1.1"), w("a1.1 a2.1"))


def test_conjugacy_empty():
    assert conjugate_test(Word(PRES), Word(PRES))
    assert not conjugate_test(Word(PRES), w("a1.1"))


def test_lengths():
    assert len(Word(PRES)) == 0
    word = w("a1.1 a2.1 a1.1^-1")
    assert len(word) == 3
    assert len(cyclic_normal_form(word)) == 1
    # wrap-around same-factor syllables merge in the cyclic form
    word = w("a1.1 x1 a1.1^2")
    assert len(word) == 3
    assert len(cyclic_normal_form(word)) == 2
    word = w("a1.1 x1 a2.1")
    assert len(word) == 3
    assert len(cyclic_normal_form(word)) == 3


def test_double_coset_rep():
    word = w("a1.1^3 a2.1 a1.1^5 a1.2^5")
    assert render_word(double_coset_rep(1, word, 1)) == "a2.1"
    assert not double_coset_rep(1, w("a2.1"), 2)
    assert not double_coset_rep(1, Word(PRES), 2)
    with pytest.raises(IndexOutOfRange):
        double_coset_rep(7, word, 1)


def test_word_power_matches_repeated_multiplication():
    word = w("a1.1 x1 a2.2^-1")
    acc = Word(PRES)
    for n in range(5):
        assert power(word, n) == acc
        acc = multiply(acc, word)
    assert power(word, -3) == power(word, 3).inverse()


# --- randomized / property-based invariants ---------------------------------


def _conjugate_test_reference(u, v):
    """The case analysis conjugate_test made before it compared keys."""
    if not u or not v:
        return len(u) == len(v)
    cu, cv = cyclic_normal_form(u), cyclic_normal_form(v)
    hu = len(cu) >= 2 or isinstance(cu.core[0], FreeSyllable)
    hv = len(cv) >= 2 or isinstance(cv.core[0], FreeSyllable)
    if hu != hv:
        return False
    if not hu:
        return cu.core == cv.core
    if len(cu) != len(cv):
        return False
    return cu.canonical_rotation() == cv.canonical_rotation()


def test_conjugate_test_matches_reference(rng):
    seen = set()
    for _ in range(600):
        u = random_word(PRES, rng, max_syllables=4, max_exp=1)
        c = random_word(PRES, rng, max_syllables=3, max_exp=1)
        # a conjugate of u, a conjugate of a neighbour of u, and a random word
        near = multiply(u, random_word(PRES, rng, max_syllables=1, max_exp=1))
        for v in (multiply(multiply(c, u), c.inverse()),
                  multiply(multiply(c, near), c.inverse()),
                  random_word(PRES, rng, max_syllables=4, max_exp=1)):
            expected = _conjugate_test_reference(u, v)
            seen.add(expected)
            assert conjugate_test(u, v) == expected
            assert (conjugacy_key(u) == conjugacy_key(v)) == expected
    assert seen == {True, False}


def test_conjugacy_key_separates_elliptic_from_hyperbolic():
    assert conjugacy_key(Word(PRES)) == ()
    assert conjugacy_key(w("x1 a1.1 x1^-1")) == (FactorSyllable(1, (1, 0)),)
    assert conjugacy_key(w("a2.1 x2^3 a2.1^-1")) == (FreeSyllable(2, 3),)
    assert conjugacy_key(w("a2.1 a1.1")) == conjugacy_key(w("a1.1 a2.1"))


syllables = st.one_of(
    st.tuples(st.integers(1, 2), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
      .map(lambda t: FactorSyllable(t[0], t[1])),
    st.tuples(st.integers(1, 2), st.integers(-3, 3))
      .map(lambda t: FreeSyllable(t[0], t[1])))
raw_words = st.lists(syllables, max_size=8)
words = raw_words.map(lambda raw: reduce_syllables(raw, PRES))


@given(raw_words)
def test_reduce_idempotent(raw):
    once = reduce_syllables(raw, PRES)
    assert reduce_syllables(once.syllables, PRES) == once


@given(words)
def test_normal_form_invariant(word):
    tracks = [("A", s.factor) if isinstance(s, FactorSyllable) else ("X", s.letter)
              for s in word.syllables]
    assert all(a != b for a, b in zip(tracks, tracks[1:]))


@settings(max_examples=60)
@given(words, words, words)
def test_associativity(u, v, z):
    assert multiply(multiply(u, v), z) == multiply(u, multiply(v, z))


@given(words, words)
def test_subadditivity(u, v):
    assert len(multiply(u, v)) <= len(u) + len(v)


@given(words, words)
def test_conjugation_preserves_class(g, word):
    conj = multiply(multiply(g, word), g.inverse())
    assert conjugate_test(word, conj)
    assert len(conjugacy_key(conj)) == len(conjugacy_key(word))


@given(words)
def test_cyclic_form_is_cyclically_reduced(word):
    if not word:
        return
    c = cyclic_normal_form(word)
    core = c.core
    if len(core) >= 2:
        def track(s):
            return ("A", s.factor) if isinstance(s, FactorSyllable) else ("X", s.letter)
        assert track(core[-1]) != track(core[0])


def test_double_coset_invariance_exhaustive():
    word = w("a2.1 a1.1 a2.2")
    base = double_coset_rep(1, word, 2)
    for e1 in range(-2, 3):
        for e2 in range(-2, 3):
            a = Word(PRES, (FactorSyllable(1, (e1, e2)),)) if (e1, e2) != (0, 0) \
                else Word(PRES)
            b = Word(PRES, (FactorSyllable(2, (e2, e1)),)) if (e1, e2) != (0, 0) \
                else Word(PRES)
            assert double_coset_rep(1, multiply(multiply(a, word), b), 2) == base


def test_render_parse_round_trip(rng):
    for _ in range(300):
        word = random_word(PRES, rng)
        assert parse_word(render_word(word), PRES) == word


def _least_rotation_brute(keys):
    rots = [keys[r:] + keys[:r] for r in range(len(keys))]
    return rots.index(min(rots)) if keys else 0


@settings(max_examples=300)
@given(st.one_of(
    st.tuples(st.lists(st.integers(0, 2), max_size=9), st.integers(1, 4)),
    # long lists over {0, 1} share long runs of equal keys between starts,
    # which is where the scan must jump rather than step
    st.tuples(st.lists(st.integers(0, 1), max_size=50), st.integers(1, 4))))
def test_least_rotation_matches_brute_force(case):
    # repeated bases give periodic lists, whose least rotation starts at
    # several indices; the least one is returned
    base, reps = case
    keys = base * reps
    assert least_rotation(keys) == _least_rotation_brute(keys)


@given(words, st.integers(1, 3))
def test_canonical_rotation_matches_brute_force(word, reps):
    if not word:
        return
    c = cyclic_normal_form(word)
    if len(c) >= 2:  # a power of a cyclically reduced core, so periodic
        c = cyclic_normal_form(Word(PRES, c.core * reps))
    keys = [s.sort_key() for s in c.core]
    r = _least_rotation_brute(keys)
    assert c.canonical_rotation() == c.core[r:] + c.core[:r]
