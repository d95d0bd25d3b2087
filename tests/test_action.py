"""The action of a validated automorphism on words, against the table
reference `_apply_table` and against the path action of its standard map,
on random automorphisms built from elementary moves: GL_n(Z) elementary
matrices on one factor, partial conjugation of a factor, Nielsen moves on
letters, and swaps of factors or letters."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpaut import (Presentation, apply, apply_power, build_standard_map,
                   compose, reduce_syllables, validate)
from fpaut import automorphisms, words
from fpaut.automorphisms import _apply_table, apply_inverse, generator_word
from fpaut.graph_maps import path_from_word, spell
from fpaut.words import FactorSyllable, FreeSyllable

from conftest import random_word

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
            images[f"a{i}.{j}"] = g * a * g.inverse()
            inverse[f"a{i}.{j}"] = g.inverse() * a * g
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
            images[f"x{l}"], inverse[f"x{l}"] = x * y, x * y.inverse()
        else:
            images[f"x{l}"], inverse[f"x{l}"] = y * x, y.inverse() * x
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


def words_of(pres, max_syllables=5, max_exp=3):
    syllable = []
    if pres.num_factors:
        syllable.append(st.integers(1, pres.num_factors).flatmap(
            lambda i: st.tuples(*[st.integers(-max_exp, max_exp)]
                                * pres.factor_rank(i)).map(
                lambda v, i=i: FactorSyllable(i, v))))
    if pres.free_rank:
        syllable.append(st.builds(FreeSyllable, st.integers(1, pres.free_rank),
                                  st.integers(-max_exp, max_exp)))
    return st.lists(st.one_of(*syllable), max_size=max_syllables).map(
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


def _assert_word_action_is_path_action(phi, m, w):
    image = m.apply_to_path(path_from_word(phi.presentation, w))
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

    auts = (fibonacci, tribonacci, intro_anosov, toral_twist, mixed[0])
    for phi in auts:  # build both sides of every action first
        w = generator_word(phi.presentation, phi.presentation.generator_names()[0])
        apply(phi, w)
        apply_inverse(phi, w)
    counting(words, "power", "power")
    counting(automorphisms, "word_power", "power")
    counting(words, "cyclic_normal_form", "cyclic_normal_form")
    counting(automorphisms, "cyclic_normal_form", "cyclic_normal_form")
    for phi in auts:
        for _ in range(30):
            w = random_word(phi.presentation, rng)
            apply(phi, w)
            apply_inverse(phi, w)
            apply_power(phi, 3, w)
            apply_power(phi, -2, w)
    assert not counts
    # the counters see the table path, so the guard is not vacuous
    _apply_table(fibonacci.images, fibonacci.presentation,
                 generator_word(fibonacci.presentation, "x1"))
    assert counts["power"] > 0
