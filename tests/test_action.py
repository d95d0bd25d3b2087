"""The action of a validated automorphism on words, against the table
reference `_apply_table` and against the path action of its standard map,
on random automorphisms built from elementary moves: GL_n(Z) elementary
matrices on one factor, partial conjugation of a factor, Nielsen moves on
letters, and swaps of factors or letters.  The same generator checks the
automorphisms that `compose`, `inverse`, `power` and `ad` build without
re-validation against `validate`."""

import math
import pickle
import threading
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpaut import (EdgePath, Presentation, Word, apply, apply_power,
                   build_standard_map, compose, identity_automorphism,
                   inverse, multiply, power, reduce_syllables, render_word,
                   validate)
from fpaut import automorphisms, words
from fpaut.automorphisms import (_apply_table, ad, apply_inverse,
                                 generator_word)
from fpaut.errors import IndexOutOfRange
from fpaut.graph_maps import BASE, spell
from fpaut.words import FactorSyllable, FreeSyllable

from conftest import make_aut, random_word

PRESENTATIONS = (
    Presentation((2,), 1),
    Presentation((1, 2), 2),
    Presentation((2, 2), 1),
    Presentation((2, 2), 0),
    Presentation((3,), 0),
    Presentation((), 3),
)


def _identity_table(pres):
    return {name: generator_word(pres, name) for name in pres.generator_names()}


def _factor_word(pres, i, vec):
    return reduce_syllables([FactorSyllable(i, vec)], pres)


def _letter_word(pres, l, e):
    return reduce_syllables([FreeSyllable(l, e)], pres)


@st.composite
def elementary_moves(draw, pres):
    """(images, inverse images) of one elementary automorphism."""
    images, inverse = _identity_table(pres), _identity_table(pres)
    p, k = pres.num_factors, pres.free_rank
    kinds = []
    if p:
        kinds += ["matrix", "conjugate_factor"]
    if k:
        kinds += ["nielsen", "invert_letter"]
    if sorted(pres.abelian_ranks) != sorted(set(pres.abelian_ranks)):
        kinds.append("swap_factors")
    if k >= 2:
        kinds.append("swap_letters")
    kind = draw(st.sampled_from(kinds))
    gens = pres.generator_names()
    if kind == "matrix":
        # an elementary matrix E on A_i: generator j maps to column j of E
        i = draw(st.integers(1, p))
        n = pres.factor_rank(i)
        c = draw(st.integers(1, n))
        r = draw(st.integers(1, n))
        e_c = [int(t == c) for t in range(1, n + 1)]
        if r == c:  # a sign change, its own inverse
            images[f"a{i}.{c}"] = inverse[f"a{i}.{c}"] = \
                _factor_word(pres, i, [-x for x in e_c])
        else:       # a transvection a_c -> a_c + s a_r
            s = draw(st.sampled_from((1, -1)))
            for name, t in ((images, s), (inverse, -s)):
                vec = list(e_c)
                vec[r - 1] = t
                name[f"a{i}.{c}"] = _factor_word(pres, i, vec)
    elif kind == "conjugate_factor":
        # A_i -> g A_i g^-1 for a generator g outside A_i
        i = draw(st.integers(1, p))
        others = [n for n in gens if not n.startswith(f"a{i}.")]
        if not others:
            return images, inverse
        g = generator_word(pres, draw(st.sampled_from(others)))
        if draw(st.booleans()):
            g = g.inverse()
        for j in range(1, pres.factor_rank(i) + 1):
            a = generator_word(pres, f"a{i}.{j}")
            images[f"a{i}.{j}"] = multiply(multiply(g, a), g.inverse())
            inverse[f"a{i}.{j}"] = multiply(multiply(g.inverse(), a), g)
    elif kind == "nielsen":
        # x_l -> x_l y (or y x_l) for a generator y other than x_l
        l = draw(st.integers(1, k))
        others = [n for n in gens if n != f"x{l}"]
        if not others:
            return images, inverse
        y = generator_word(pres, draw(st.sampled_from(others)))
        if draw(st.booleans()):
            y = y.inverse()
        x = generator_word(pres, f"x{l}")
        if draw(st.booleans()):
            images[f"x{l}"] = multiply(x, y)
            inverse[f"x{l}"] = multiply(x, y.inverse())
        else:
            images[f"x{l}"] = multiply(y, x)
            inverse[f"x{l}"] = multiply(y.inverse(), x)
    elif kind == "invert_letter":
        l = draw(st.integers(1, k))
        images[f"x{l}"] = inverse[f"x{l}"] = _letter_word(pres, l, -1)
    elif kind == "swap_factors":
        rank = draw(st.sampled_from(sorted(
            n for n in set(pres.abelian_ranks) if pres.abelian_ranks.count(n) > 1)))
        i1, i2 = [i for i in range(1, p + 1) if pres.factor_rank(i) == rank][:2]
        for j in range(1, rank + 1):
            for a, b in ((i1, i2), (i2, i1)):
                images[f"a{a}.{j}"] = inverse[f"a{a}.{j}"] = \
                    generator_word(pres, f"a{b}.{j}")
    else:
        l1, l2 = draw(st.lists(st.integers(1, k), min_size=2, max_size=2,
                               unique=True))
        images[f"x{l1}"] = inverse[f"x{l1}"] = _letter_word(pres, l2, 1)
        images[f"x{l2}"] = inverse[f"x{l2}"] = _letter_word(pres, l1, 1)
    return images, inverse


@st.composite
def automorphisms_of(draw, pres, max_moves=4):
    """A product of elementary moves, composed through the tables only."""
    images, inverse = _identity_table(pres), _identity_table(pres)
    for _ in range(draw(st.integers(0, max_moves))):
        m_img, m_inv = draw(elementary_moves(pres))
        images, inverse = (
            {n: _apply_table(images, pres, m_img[n]) for n in images},
            {n: _apply_table(m_inv, pres, inverse[n]) for n in inverse})
    return validate(images, inverse, pres)


def raw_syllables(pres, max_syllables=5, max_exp=3):
    """Raw syllable lists over pres, zero syllables included."""
    syllable = []
    if pres.num_factors:
        syllable.append(st.integers(1, pres.num_factors).flatmap(
            lambda i: st.tuples(*[st.integers(-max_exp, max_exp)]
                                * pres.factor_rank(i)).map(
                lambda v, i=i: FactorSyllable(i, v))))
    if pres.free_rank:
        syllable.append(st.builds(FreeSyllable, st.integers(1, pres.free_rank),
                                  st.integers(-max_exp, max_exp)))
    return st.lists(st.one_of(*syllable), max_size=max_syllables)


def words_of(pres, max_syllables=5, max_exp=3):
    return raw_syllables(pres, max_syllables, max_exp).map(
        lambda raw: reduce_syllables(raw, pres))


presentations = st.sampled_from(PRESENTATIONS)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_matches_table_reference(data):
    pres = data.draw(presentations)
    phi = data.draw(automorphisms_of(pres))
    w = data.draw(words_of(pres))
    assert apply(phi, w) == _apply_table(phi.images, pres, w)
    assert apply_inverse(phi, w) == _apply_table(phi.inverse_images, pres, w)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_apply_power_inverts_apply(data):
    pres = data.draw(presentations)
    phi = data.draw(automorphisms_of(pres))
    w = data.draw(words_of(pres))
    assert apply_power(phi, -1, apply(phi, w)) == w
    assert apply(phi, apply_power(phi, -1, w)) == w
    assert apply_power(phi, 2, w) == apply(phi, apply(phi, w))
    assert apply_power(phi, 0, w) == w


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_matches_table_composition(data):
    pres = data.draw(presentations)
    phi = data.draw(automorphisms_of(pres, max_moves=3))
    psi = data.draw(automorphisms_of(pres, max_moves=3))
    both = compose(phi, psi)
    for name in pres.generator_names():
        assert both.images[name] == _apply_table(phi.images, pres,
                                                 psi.images[name])
        assert both.inverse_images[name] == _apply_table(
            psi.inverse_images, pres, phi.inverse_images[name])
    w = data.draw(words_of(pres))
    assert apply(both, w) == apply(phi, apply(psi, w))


def _act_by_reduction(side, pres, w):
    """The action as it was before blocks were joined: the side's blocks of
    all syllables concatenated, then the whole list reduced once."""
    raw = []
    for s in w.syllables:
        raw += side[s]
    return reduce_syllables(raw, pres)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_joined_blocks_equal_one_reduction(data):
    pres = data.draw(presentations)
    phi = data.draw(automorphisms_of(pres))
    for w in data.draw(st.lists(words_of(pres), min_size=1, max_size=4)):
        for side in (phi._forward, phi._backward):
            assert automorphisms._act(side, pres, w) == \
                _act_by_reduction(side, pres, w)


# ---------------------------------------------------------------------------
# the block table of each side

def _fresh(phi):
    """The same automorphism with both sides not yet built."""
    return validate(dict(phi.images), dict(phi.inverse_images),
                    phi.presentation)


@pytest.mark.parametrize("bad, error", [
    (FactorSyllable(0, (1, 0)), IndexOutOfRange),
    (FactorSyllable(2, (1, 0)), IndexOutOfRange),
    (FactorSyllable(1, (1, 0, 0)), IndexOutOfRange),
    (FactorSyllable(1, (0,)), IndexOutOfRange),
    (FreeSyllable(0, 1), IndexOutOfRange),
    (FreeSyllable(2, 1), IndexOutOfRange)])
def test_failed_check_raises_every_time_and_stores_nothing(mixed, bad, error):
    phi = _fresh(mixed[0])
    pres = phi.presentation
    good = Word(pres, (FactorSyllable(1, (1, 2)), FreeSyllable(1, 3)))
    apply(phi, good)
    apply_inverse(phi, good)
    sizes = len(phi._forward), len(phi._backward)
    w = Word(pres, (bad,))
    for _ in range(3):
        for act in (apply, apply_inverse):
            with pytest.raises(error):
                act(phi, w)
    assert (len(phi._forward), len(phi._backward)) == sizes
    assert apply(phi, good) == _apply_table(phi.images, pres, good)


def test_float_exponent_is_not_stored_for_the_equal_int(fibonacci):
    phi = _fresh(fibonacci)
    pres = phi.presentation
    # FreeSyllable(2, 2.0) would equal FreeSyllable(2, 2) and hash alike, so
    # it could stand in the table for the int; the constructor refuses it
    for e in (2.0, 2.5):
        with pytest.raises(TypeError):
            apply(phi, Word(pres, (FreeSyllable(2, e),)))
    assert render_word(apply(phi, Word(pres, (FreeSyllable(2, 2),)))) == "x1^2"
    assert all(type(s.exponent) is int for s in phi._forward)


def test_letter_blocks_are_reduced():
    # phi(x1) = a x1 a^2 has cyclic core (a^3, x1) and conjugator a^-2, so
    # the raw block of x1 would hold the adjacent A_1 syllables a^-2, a^3
    pres = Presentation((1,), 1)
    phi = make_aut(pres, {"a1.1": "a1.1", "x1": "a1.1 x1 a1.1^2"},
                   {"a1.1": "a1.1", "x1": "a1.1^-1 x1 a1.1^-2"})
    for side, table in ((phi._forward, phi.images),
                        (phi._backward, phi.inverse_images)):
        for e in (1, -1, 2, -2, 3, -3):
            assert side[FreeSyllable(1, e)] == \
                words.power(table["x1"], e).syllables


def test_bounded_table_keeps_images(monkeypatch, rng, intro_anosov, mixed,
                                    tribonacci):
    monkeypatch.setattr(automorphisms, "_BLOCKS_MAX", 8)
    for phi in (intro_anosov, mixed[0], tribonacci):
        phi = _fresh(phi)
        pres = phi.presentation
        for _ in range(200):
            w = random_word(pres, rng, max_exp=9)
            for side in (phi._forward, phi._backward):
                assert automorphisms._act(side, pres, w) == \
                    _act_by_reduction(side, pres, w)
                assert len(side) <= 8


def test_tables_belong_to_their_automorphism(rng, mixed, fibonacci):
    # short-lived automorphisms reuse the ids of freed ones; a table keyed
    # by id would hand one automorphism the blocks of another
    for phi in (mixed[0], fibonacci):
        pres = phi.presentation
        ws = [random_word(pres, rng) for _ in range(4)]
        for _ in range(150):
            psi = compose(ad(random_word(pres, rng, max_syllables=3), pres),
                          phi)
            for w in ws:
                assert apply(psi, w) == _apply_table(psi.images, pres, w)
                assert apply_inverse(psi, w) == \
                    _apply_table(psi.inverse_images, pres, w)
            del psi


def test_threads_share_a_cold_table(monkeypatch, rng, intro_anosov):
    # a small bound makes clears race the lookups as well
    monkeypatch.setattr(automorphisms, "_BLOCKS_MAX", 32)
    phi = _fresh(intro_anosov)
    pres = phi.presentation
    ws = [random_word(pres, rng, max_exp=5) for _ in range(300)]
    serial = [_apply_table(phi.images, pres, w) for w in ws]
    results = [None] * 4

    def work(t):
        results[t] = [apply(phi, w) for w in ws]
    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == [serial] * 4


def test_pickled_automorphism_acts_alike(rng, mixed, tribonacci):
    for phi in (mixed[0], tribonacci):
        pres = phi.presentation
        ws = [random_word(pres, rng) for _ in range(50)]
        warm = [(apply(phi, w), apply_inverse(phi, w)) for w in ws]
        assert len(phi._forward) and len(phi._backward)
        clone = pickle.loads(pickle.dumps(phi))
        assert clone == phi
        assert [(apply(clone, w), apply_inverse(clone, w)) for w in ws] == warm


def _assert_word_action_is_path_action(phi, m, w):
    image = m.apply_to_path(EdgePath(phi.presentation, BASE, spell(w)))
    assert image.steps == spell(apply(phi, w))
    assert image.word() == apply(phi, w)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_word_action_matches_path_action(data):
    pres = data.draw(presentations)
    phi = data.draw(automorphisms_of(pres))
    assume(phi.preserves_factor_classes)
    m = build_standard_map(phi)
    for w in data.draw(st.lists(words_of(pres), min_size=1, max_size=5)):
        _assert_word_action_is_path_action(phi, m, w)


@pytest.mark.parametrize("name", ["fibonacci", "intro_anosov", "toral_twist",
                                  "mixed"])
def test_word_action_matches_path_action_on_fixtures(request, rng, name):
    phi = request.getfixturevalue(name)
    if name == "mixed":
        phi = phi[0]
    m = build_standard_map(phi)
    for _ in range(300):
        _assert_word_action_is_path_action(
            phi, m, random_word(phi.presentation, rng))


def test_action_is_built_on_first_use_not_in_validate(tribonacci):
    phi = validate(dict(tribonacci.images), dict(tribonacci.inverse_images),
                   tribonacci.presentation)
    assert "_forward" not in vars(phi) and "_backward" not in vars(phi)
    apply(phi, generator_word(phi.presentation, "x1"))
    assert "_forward" in vars(phi) and "_backward" not in vars(phi)


def test_apply_calls_neither_power_nor_cyclic_normal_form(
        monkeypatch, rng, fibonacci, tribonacci, intro_anosov, toral_twist,
        mixed):
    counts = Counter()

    def counting(module, name, key):
        f = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def act_on(samples):
        for phi, w in samples:
            apply(phi, w)
            apply_inverse(phi, w)
            apply_power(phi, 3, w)
            apply_power(phi, -2, w)

    auts = [_fresh(phi) for phi in (fibonacci, tribonacci, intro_anosov,
                                    toral_twist, mixed[0])]
    samples = [(phi, random_word(phi.presentation, rng))
               for phi in auts for _ in range(30)]
    # build every block of the samples first: a miss on a letter syllable
    # calls `power` once, by design
    act_on(samples)
    counting(words, "power", "power")
    counting(automorphisms, "word_power", "power")
    counting(words, "cyclic_normal_form", "cyclic_normal_form")
    counting(automorphisms, "cyclic_normal_form", "cyclic_normal_form")
    act_on(samples)
    assert not counts
    # the counters see the table path, so the guard is not vacuous
    _apply_table(fibonacci.images, fibonacci.presentation,
                 generator_word(fibonacci.presentation, "x1"))
    assert counts["power"] > 0


def _assert_matches_validate(phi):
    """The data of an automorphism built without re-validation equal what
    the full `validate` extracts from the same tables, and it accepts them."""
    checked = validate(phi.images, phi.inverse_images, phi.presentation)
    assert checked == phi
    assert checked.factor_permutation == phi.factor_permutation
    assert checked.conjugators == phi.conjugators
    assert checked.factor_matrices == phi.factor_matrices


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trusted_algebra_matches_validate(data):
    pres = data.draw(presentations)
    phi = data.draw(automorphisms_of(pres, max_moves=3))
    psi = data.draw(automorphisms_of(pres, max_moves=3))
    n = data.draw(st.integers(-4, 5))
    c = data.draw(words_of(pres))
    _assert_matches_validate(compose(phi, psi))
    _assert_matches_validate(inverse(phi))
    _assert_matches_validate(power(phi, n))
    _assert_matches_validate(ad(c, pres))
    _assert_matches_validate(identity_automorphism(pres))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_power_is_repeated_composition(data):
    pres = data.draw(presentations)
    phi = data.draw(automorphisms_of(pres, max_moves=3))
    n = data.draw(st.integers(1, 6))
    out = phi
    for _ in range(n - 1):
        out = compose(out, phi)
    assert power(phi, n) == out
    assert power(phi, -n) == inverse(out)
    assert power(phi, 0) == identity_automorphism(pres)


def test_algebra_skips_the_inverse_check(monkeypatch, fibonacci, tribonacci,
                                         intro_anosov, toral_twist, mixed):
    counts = Counter()

    def counting(name):
        f = getattr(automorphisms, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(automorphisms, name, wrapper)

    counting("_apply_table")
    counting("compose")
    for phi in (fibonacci, tribonacci, intro_anosov, toral_twist, mixed[0]):
        pres = phi.presentation
        for n in range(1, 13):
            counts["compose"] = 0
            power(phi, n)
            assert counts["compose"] <= 2 * math.ceil(math.log2(n))
        power(phi, -5)
        inverse(compose(phi, phi))
        ad(generator_word(pres, pres.generator_names()[-1]), pres)
        identity_automorphism(pres)
    assert counts["_apply_table"] == 0
    # the counter sees the check of outside tables, so the guard is not vacuous
    validate(fibonacci.images, fibonacci.inverse_images,
             fibonacci.presentation)
    assert counts["_apply_table"] > 0
