import hashlib
import itertools
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fpaut import (Presentation, Word, apply, apply_power, atoroidal_search,
                   check_central_condition, classify_growth, conjugate_test,
                   cyclic_normal_form, enumerate_cyclic_words, flare_certify,
                   multiply, orbit_lengths, parse_word, power, twin_search,
                   validate)
from fpaut import dynamics
from fpaut.automorphisms import Automorphism
from fpaut.dynamics import (SearchReport, _claimed, _ranked_syllables,
                            _root_groups, enumerate_words)
from fpaut.errors import FactorsPermuted, SelfCheckFailed, TooShort
from fpaut.matrices import IntegerMatrix, determinant, kernel_vector
from fpaut.words import (FactorSyllable, FreeSyllable, _track, abelianize,
                         double_coset_rep, reduce_syllables)

from conftest import in_process_claims, make_aut, random_word
from test_action import PRESENTATIONS as ACTION_PRESENTATIONS
from test_action import automorphisms_of


# --- enumeration -------------------------------------------------------------

def graded_key(w: Word):
    """Sort key of the graded order: syllable count, then total exponent
    mass, then syllable by syllable (mass, sort key)."""
    return (len(w), w.mass, tuple((s.mass, s.sort_key()) for s in w.syllables))


def test_enumerate_cyclic_words_graded_and_canonical(z2z2):
    words = list(enumerate_cyclic_words(z2z2, 2, 1))
    # all hyperbolic (no single factor syllables for p-only presentations)
    assert all(len(w.syllables) == 2 for w in words)
    # cyclically alternating and canonical under rotation
    for w in words:
        assert w.syllables[0].factor != w.syllables[1].factor
        keys = [s.sort_key() for s in w.syllables]
        assert keys == min(keys[r:] + keys[:r] for r in range(2))
    # graded: masses are nondecreasing along the stream
    masses = [w.mass for w in words]
    assert masses == sorted(masses)


def test_enumerate_cyclic_words_free(free2):
    words = list(enumerate_cyclic_words(free2, 2, 2))
    assert parse_word("x1", free2) in words
    assert parse_word("x1^2", free2) in words
    # odd syllable counts cannot alternate cyclically over two letters
    # except the singletons
    assert all(len(w) in (1, 2) for w in words)


def test_enumerate_words_includes_empty(z2z2):
    words = list(enumerate_words(z2z2, 1, 1))
    assert words[0] == Word(z2z2)
    assert len(words) == 1 + 8  # 4 basis vectors +- per factor


@pytest.mark.parametrize("ranks, free, max_len, max_exp", [
    ((2,), 1, 3, 2), ((2, 3), 0, 3, 2), ((), 2, 4, 2)])
def test_enumerations_in_graded_key_order(ranks, free, max_len, max_exp):
    pres = Presentation(ranks, free)
    words = list(enumerate_words(pres, max_len, max_exp))[1:]
    cyclic = list(enumerate_cyclic_words(pres, max_len, max_exp))
    for seq, key in ((words, Word.sort_key), (cyclic, graded_key)):
        keys = [key(w) for w in seq]
        assert keys == sorted(set(keys))
    # the cyclic enumeration is the word enumeration filtered to
    # cyclically reduced, rotation-least, hyperbolic words, in graded order
    assert cyclic == [
        w for w in sorted(words, key=graded_key)
        if len(cyclic_normal_form(w)) == len(w)
        and cyclic_normal_form(w).canonical_rotation() == w.syllables
        and (len(w) > 1 or isinstance(w.syllables[0], FreeSyllable))]


def _brute_sequences(pres, max_len, max_exp, min_len=1, cyclic=False):
    """Every syllable tuple from itertools.product, filtered to normal form
    (and with `cyclic` to cyclically reduced, brute-force least rotations),
    sorted by graded_key."""
    syls = [s for s, *_ in _ranked_syllables(pres, max_exp)]
    out = []
    for m in range(max(1, min_len), max_len + 1):
        for seq in itertools.product(syls, repeat=m):
            if any(_track(a) == _track(b) for a, b in zip(seq, seq[1:])):
                continue
            if cyclic and m >= 2:
                keys = [s.sort_key() for s in seq]
                if _track(seq[-1]) == _track(seq[0]) or \
                        keys != min(keys[r:] + keys[:r] for r in range(m)):
                    continue
            out.append(Word(pres, seq))
    return sorted(out, key=graded_key)


def _check_against_brute_force(pres, max_len, max_exp):
    assert list(enumerate_words(pres, max_len, max_exp)) == [Word(pres)] + \
        sorted(_brute_sequences(pres, max_len, max_exp), key=Word.sort_key)
    for min_len in (1, 2):
        ref = _brute_sequences(pres, max_len, max_exp, min_len, cyclic=True)
        assert list(enumerate_cyclic_words(
            pres, max_len, max_exp, min_len=min_len)) == [
            w for w in ref
            if len(w) > 1 or isinstance(w.syllables[0], FreeSyllable)]


@st.composite
def small_bounds(draw):
    """A presentation with factor ranks <= 3 and free rank <= 3, and
    bounds small enough for the brute force."""
    ranks = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    free = draw(st.integers(0 if ranks else 1, 3))
    pres = Presentation(ranks, free)
    max_exp = draw(st.integers(1, 2))
    n_syls = len(_ranked_syllables(pres, max_exp))
    max_len = 1
    while max_len < 4 and n_syls ** (max_len + 1) <= 20_000:
        max_len += 1
    return pres, draw(st.integers(1, max_len)), max_exp


@settings(max_examples=60, deadline=None)
@given(small_bounds())
def test_enumerators_match_brute_force(bounds):
    _check_against_brute_force(*bounds)


# four syllables, so a later syllable can tie with the first one
@pytest.mark.parametrize("ranks, free, max_len, max_exp", [
    ((), 2, 4, 2), ((1,), 2, 4, 1), ((2, 2), 0, 4, 1), ((1, 1, 1), 0, 4, 2)])
def test_enumerators_match_brute_force_at_length_4(ranks, free, max_len,
                                                   max_exp):
    _check_against_brute_force(Presentation(ranks, free), max_len, max_exp)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ACTION_PRESENTATIONS), st.integers(1, 4),
       st.integers(1, 2), st.integers(1, 3), st.sampled_from([2, 3]),
       st.randoms(use_true_random=False))
def test_shards_partition_the_class_stream(pres, max_len, max_exp, min_len,
                                           shards, rng):
    assume(max_len * max_exp <= 6)
    stream = [list(group)
              for group in _root_groups(pres, max_len, max_exp, min_len)]
    # each root group goes to one of J claimants at random; a claimant's
    # ownership stream says, ordinal by ordinal, whether it takes a group
    owner = [rng.randrange(shards) for _ in stream]
    parts = [[list(group) for group in _claimed(
        _root_groups(pres, max_len, max_exp, min_len),
        (o == c for o in owner))] for c in range(shards)]
    # so the claimants are disjoint and together every root group
    for c, part in enumerate(parts):
        assert part == [g for g, o in zip(stream, owner) if o == c]
    # no ownership is the whole stream, and an ownership stream that ends
    # ends the walk
    cut = rng.randrange(len(stream) + 1)
    assert [list(g) for g in _claimed(
        _root_groups(pres, max_len, max_exp, min_len), None)] == stream
    assert [list(g) for g in _claimed(
        _root_groups(pres, max_len, max_exp, min_len),
        iter([True] * cut))] == stream[:cut]
    # a group item is (syllables, weight sum); without a weight the sum is 0
    classes = [Word(pres, syllables) for group in stream
               for syllables, _ in group]
    assert classes == list(
        enumerate_cyclic_words(pres, max_len, max_exp, min_len))
    assert {acc for group in stream for _, acc in group} <= {0}
    # a root group: the classes of one syllable count, mass and first
    # syllable, no two groups sharing one
    keys = [{(len(syl), sum(s.mass for s in syl), syl[0]) for syl, _ in group}
            for group in stream if group]
    assert all(len(key) == 1 for key in keys)
    assert len(set().union(*keys)) == len(keys)


# the brute force stops at 4 syllables; these digests pin the exact stream
# (order included) at bounds it cannot reach: with `cyclic` the classes of
# `enumerate_cyclic_words`, else the words of `enumerate_words` in
# `Word.sort_key` order
@pytest.mark.parametrize("ranks, free, max_len, max_exp, cyclic, count, digest", [
    ((), 3, 6, 2, True, 52_660,
     "15169d2cf01494f8e4bdee57cfe5ad6432e140e5c450aabb5e01e303cbe30c0d"),
    ((2, 3), 0, 4, 2, True, 41_904,
     "e466900a6362833d06003de489fd864b8b2be29cf7ee67842f2bbe69c33d0e84"),
    ((2, 2), 1, 3, 3, False, 58_807,
     "80da2e557dc011683fee6551b0ca6382eccd4ee4e4d9294874a4dfa977a85a21"),
    ((1, 1), 2, 5, 2, True, 55_192,
     "cedb9092fd7c7b287ce8c5eb33af8419c0e6757de5f5abd54ccb012b9698f9be")])
def test_graded_sequences_order_pinned(ranks, free, max_len, max_exp, cyclic,
                                       count, digest):
    enumerator = enumerate_cyclic_words if cyclic else enumerate_words
    h, n = hashlib.sha256(), 0
    for w in enumerator(Presentation(ranks, free), max_len, max_exp):
        h.update((repr(w.syllables) + "\n").encode())
        n += 1
    assert (n, h.hexdigest()) == (count, digest)


def _graded_descriptors(pres, conj_len):
    """The descriptor list as built from the graded word stream: filter out
    the words ending in A_i, then sort by (i, sort key)."""
    out = []
    for u in sorted(enumerate_words(pres, conj_len, conj_len), key=graded_key):
        for i in range(1, pres.num_factors + 1):
            last = u.syllables[-1] if u.syllables else None
            if isinstance(last, FactorSyllable) and last.factor == i:
                continue
            out.append((u, i))
    out.sort(key=lambda d: (d[1], d[0].sort_key()))
    return out


@st.composite
def descriptor_bounds(draw):
    """A presentation of `small_bounds` and a conj_len in 1..3 whose
    words the graded sort can take."""
    pres = draw(small_bounds())[0]
    top = 1
    while top < 3 and len(_ranked_syllables(pres, top + 1)) ** (top + 1) \
            <= 20_000:
        top += 1
    return pres, draw(st.integers(1, top))


# the examples: the intro presentation at 2 and P (67,742 descriptors) at 3
@settings(max_examples=40, deadline=None)
@given(descriptor_bounds())
@example((Presentation((2, 3), 0), 2))
@example((Presentation((2, 2), 1), 3))
def test_subgroup_descriptors_match_the_graded_construction(bounds):
    assert list(dynamics._subgroup_descriptors(*bounds)) == \
        _graded_descriptors(*bounds)


def test_rotation_check_runs_only_on_ties(tribonacci, monkeypatch):
    # the enumerator builds only tuples whose first syllable has the least
    # rank, so rotations are compared only on the tuples where a later rank
    # ties with the first: 2,368 of them on trib 5/2, where 7,508 are kept
    calls = []
    real = dynamics.least_rotation
    monkeypatch.setattr(dynamics, "least_rotation",
                        lambda ranks: calls.append(ranks) or real(ranks))
    n = sum(1 for _ in enumerate_cyclic_words(tribonacci.presentation, 5, 2))
    assert n == 7508
    assert all(ranks[0] in ranks[2:-1] for ranks in calls)
    assert 0 < len(calls) <= 2368


# --- orbit growth ------------------------------------------------------------

def test_orbit_lengths_identity(identity_z2z2, z2z2):
    g = parse_word("a1.1 a2.1", z2z2)
    data = orbit_lengths(identity_z2z2, g, 8)
    assert data.lengths == (2,) * 9


def test_orbit_lengths_fibonacci(fibonacci, free2):
    data = orbit_lengths(fibonacci, parse_word("x1", free2), 5)
    assert data.masses == (1, 2, 3, 5, 8, 13)


def test_orbit_lengths_toral_twist(toral_twist, z2z2):
    g = parse_word("a1.1 a2.1", z2z2)
    data = orbit_lengths(toral_twist, g, 6)
    assert data.lengths == (2,) * 7
    assert len(set(data.classes)) == 1  # the cyclic form is invariant


def test_orbit_requires_identity_permutation(z2z2):
    images = {"a1.1": "a2.1", "a1.2": "a2.2", "a2.1": "a1.1", "a2.2": "a1.2"}
    swap = make_aut(z2z2, images, images)
    with pytest.raises(FactorsPermuted):
        orbit_lengths(swap, parse_word("a1.1 a2.1", z2z2), 4)


def test_orbit_lengths_class_function(fibonacci, free2, rng):
    g = parse_word("x1 x2^-1", free2)
    for _ in range(5):
        c = random_word(free2, rng)
        conj = multiply(multiply(c, g), c.inverse())
        if not conj:
            continue
        assert orbit_lengths(fibonacci, conj, 6).lengths == \
            orbit_lengths(fibonacci, g, 6).lengths


def test_classify_bounded_exact(identity_z2z2, z2z2):
    g = parse_word("a1.1 a2.1", z2z2)
    data = orbit_lengths(identity_z2z2, g, 9)
    v = classify_growth(data.lengths, classes=data.classes)
    assert v.kind == "bounded" and not v.heuristic
    assert v.period == 1 and v.preperiod == 0


def test_classify_exponential(fibonacci, free2):
    data = orbit_lengths(fibonacci, parse_word("x1", free2), 16)
    v = classify_growth(data.lengths, classes=data.classes)
    assert v.kind == "exponential" and v.heuristic
    assert abs(v.rate - 1.618) < 1.618 * 0.05


def test_classify_polynomial_linear():
    v = classify_growth(tuple(n + 1 for n in range(17)))
    assert v.kind == "polynomial" and v.degree == 1


def test_classify_polynomial_from_twist_masses(z2z2):
    # unipotent one-letter twist: exponent mass of the iterate grows linearly
    images = {"a1.1": "a1.1", "a1.2": "a1.1 a1.2", "a2.1": "a2.1", "a2.2": "a2.2"}
    inv = {"a1.1": "a1.1", "a1.2": "a1.1^-1 a1.2", "a2.1": "a2.1", "a2.2": "a2.2"}
    uni = make_aut(z2z2, images, inv)
    g = parse_word("a1.2 a2.1", z2z2)
    data = orbit_lengths(uni, g, 20)
    assert data.masses[:4] == (2, 3, 4, 5)
    v = classify_growth(data.masses)
    assert v.kind == "polynomial" and v.degree == 1


def test_classify_constant_without_classes_is_degree_zero():
    v = classify_growth((5,) * 12)
    assert v.kind == "polynomial" and v.degree == 0 and v.heuristic


def test_classify_too_short():
    with pytest.raises(TooShort):
        classify_growth((1, 2, 3))


# --- atoroidal search --------------------------------------------------------

def test_atoroidal_identity_immediate(identity_z2z2):
    rep = atoroidal_search(identity_z2z2, 2, 1, 2)
    assert rep.verdict == "witness" and rep.witness["exponent"] == 1


def test_atoroidal_toral_twist(toral_twist, z2z2):
    rep = atoroidal_search(toral_twist, 3, 2, 3)
    assert rep.verdict == "witness"
    assert rep.witness["exponent"] == 1
    # the attested period-1 class: a1 b1 is fixed up to conjugacy
    g = parse_word("a1.1 a2.1", z2z2)
    assert conjugate_test(apply(toral_twist, g), g)


def test_atoroidal_fibonacci_commutator(fibonacci, free2):
    rep = atoroidal_search(fibonacci, 6, 4, 4)
    assert rep.verdict == "witness"
    assert rep.witness["exponent"] == 2
    comm = parse_word("x1 x2 x1^-1 x2^-1", free2)
    assert conjugate_test(rep.witness["element"], comm)


def test_atoroidal_intro_exhausted(intro_anosov):
    rep = atoroidal_search(intro_anosov, 2, 1, 3)
    assert rep.verdict == "exhausted"


def test_atoroidal_witnesses_reverify(toral_twist, fibonacci):
    for phi, args in ((toral_twist, (3, 2, 3)), (fibonacci, (6, 4, 4))):
        rep = atoroidal_search(phi, *args)
        w, n = rep.witness["element"], rep.witness["exponent"]
        assert conjugate_test(apply_power(phi, n, w), w)


def _with_fixed_letter_blocks(phi):
    """A copy of phi whose forward blocks wrongly map x_l^1 and x_l^-1 to
    themselves; its image tables are right."""
    phi = validate(dict(phi.images), dict(phi.inverse_images),
                   phi.presentation)
    for l in range(1, phi.presentation.free_rank + 1):
        for e in (1, -1):
            s = FreeSyllable(l, e)
            phi._forward[s] = (s,)
    return phi


def test_atoroidal_witness_is_rechecked_without_the_blocks(fibonacci):
    # the wrong blocks fix the commutator at exponent 1 (its true exponent
    # is 2); the re-verification substitutes the image table instead
    with pytest.raises(SelfCheckFailed):
        atoroidal_search(_with_fixed_letter_blocks(fibonacci), 5, 3, 4)


# --- twin search -------------------------------------------------------------

def test_twins_intro(intro_anosov):
    rep = twin_search(intro_anosov, 2, 2)
    assert rep.verdict == "witness"
    w = rep.witness
    assert (w["factor_i"], w["factor_j"], w["power"]) == (1, 2, 1)
    assert not w["conj_u"] and not w["conj_v"] and not w["element"]


def _mixing_letters():
    pres = Presentation((2,), 2)
    return make_aut(pres,
                    {"a1.1": "a1.1^2 a1.2", "a1.2": "a1.1 a1.2",
                     "x1": "x2", "x2": "x1 x2"},
                    {"a1.1": "a1.1 a1.2^-1", "a1.2": "a1.1^-1 a1.2^2",
                     "x1": "x2 x1^-1", "x2": "x1"})


def test_twins_exhausted_for_mixing_letters():
    # Z^2 * F_2: the letters mix, so distinct A_1-cosets drift apart and no
    # pair of factor conjugates is simultaneously re-conjugated
    rep = twin_search(_mixing_letters(), 2, 1)
    assert rep.verdict == "exhausted"


def test_twin_witness_is_rechecked_without_the_blocks():
    # the wrong blocks fix x1, so A_1 and x1 A_1 x1^-1 look twinned by
    # g = 1; the re-verification substitutes the image table instead
    with pytest.raises(SelfCheckFailed):
        twin_search(_with_fixed_letter_blocks(_mixing_letters()), 2, 1)


def test_twins_skip_equal_subgroups(z2z2, identity_z2z2):
    # identity: every distinct pair is twinned with g = empty, m = 1
    rep = twin_search(identity_z2z2, 1, 1)
    assert rep.verdict == "witness"
    w = rep.witness
    assert (w["factor_i"], w["conj_u"].syllables) != (w["factor_j"], w["conj_v"].syllables)


def test_twins_free_group_has_none(fibonacci):
    assert twin_search(fibonacci, 2, 2).verdict == "exhausted"


def test_twin_search_images_each_descriptor_once_per_power(monkeypatch,
                                                         toral_q):
    # exhausted Q 2/2: the heads h_m = phi(h_(m-1)) g_i are the only images
    # under phi, at most one per (power, descriptor); no phi^m is built
    from fpaut import automorphisms
    calls = Counter()
    act = automorphisms._act

    def counting_act(side, pres, w):
        calls["_act"] += 1
        return act(side, pres, w)
    monkeypatch.setattr(automorphisms, "_act", counting_act)
    for name in ("compose", "power"):
        def counting(*args, _real=getattr(automorphisms, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        for module in (automorphisms, dynamics):
            monkeypatch.setattr(module, name, counting, raising=False)
    rep = twin_search(toral_q, 2, 2)
    assert (rep.verdict, rep.tested) == ("exhausted", 21170)
    assert calls["compose"] == calls["power"] == 0
    descriptors = len(list(
        dynamics._subgroup_descriptors(toral_q.presentation, 2)))
    assert calls["_act"] <= descriptors * 2


def _leading_part(w, i):
    syl = w.syllables
    if syl and isinstance(syl[0], FactorSyllable) and syl[0].factor == i:
        return Word(w.presentation, syl[:1])
    return Word(w.presentation)


def _reference_twins(phi, max_power, conj_len):
    """(verdict, tested, index, element) of the twin search by the formula
    c = g_i^(m)-1 phi^m(u^-1 v) g_j^(m), with phi^m built by `power`, and
    g = phi^m(u) g_i^(m) a u^-1."""
    descr = dynamics._subgroup_descriptors(phi.presentation, conj_len)
    pairs = list(itertools.combinations(descr, 2))
    for m in range(1, max_power + 1):
        phi_m = power(phi, m)
        for idx, ((u, i), (v, j)) in enumerate(pairs):
            gi, gj = phi_m.conjugator(i), phi_m.conjugator(j)
            w = multiply(u.inverse(), v)
            c = multiply(multiply(gi.inverse(), apply(phi_m, w)), gj)
            if double_coset_rep(i, c, j) != double_coset_rep(i, w, j):
                continue
            a = multiply(_leading_part(c, i), _leading_part(w, i).inverse())
            g = multiply(multiply(multiply(apply(phi_m, u), gi), a),
                         u.inverse())
            index = (m - 1) * len(pairs) + idx
            return "witness", index + 1, index, g
    return "exhausted", max_power * len(pairs), None, None


def _twin_summary(rep):
    if rep.verdict != "witness":
        return rep.verdict, rep.tested, None, None
    return (rep.verdict, rep.tested, rep.tested - 1,
            rep.witness["element"])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_twin_search_matches_table_reference(data):
    pres = data.draw(st.sampled_from(ACTION_PRESENTATIONS))
    phi = data.draw(automorphisms_of(pres))
    assume(phi.preserves_factor_classes)
    max_power = data.draw(st.integers(1, 3))
    expected = _reference_twins(phi, max_power, 1)
    assert _twin_summary(twin_search(phi, max_power, 1)) == expected
    merged = twin_search(phi, max_power, 1, walk=in_process_claims(2, 0))
    assert _twin_summary(merged) == expected


def test_twin_pairs_are_not_materialised(mixed):
    # the witness comes at the third of 514,605 pairs; building the pair
    # list first took about 30 MB
    phi, pres = mixed
    tracemalloc.start()
    try:
        rep = twin_search(phi, 6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert (rep.verdict, rep.tested) == ("witness", 3)
    w = rep.witness
    assert (w["power"], w["factor_i"], w["factor_j"], rep.tested - 1) == \
        (1, 1, 1, 2)
    assert w["conj_u"] == Word(pres) and w["element"] == Word(pres)
    assert w["conj_v"] == parse_word("x1^-1", pres)


def test_twin_search_takes_descriptors_as_its_runs_reach_them(monkeypatch,
                                                               mixed):
    # the witness at the third pair needs the 65 descriptors of the first
    # run, not all 1,015 (4,639 words) that an exhausted search tests
    phi, pres = mixed
    words = []
    enumerate_words = dynamics.enumerate_words

    def counting(*args):
        for w in enumerate_words(*args):
            words.append(w)
            yield w
    monkeypatch.setattr(dynamics, "enumerate_words", counting)
    rep = twin_search(phi, 6, 3)
    assert (rep.verdict, rep.tested) == ("witness", 3)
    assert 0 < len(words) <= 2 * dynamics._TWIN_RUN
    # the counter sees the whole enumeration, so the guard is not vacuous
    del words[:]
    assert len(list(dynamics._subgroup_descriptors(pres, 3))) == 1015
    assert len(words) == 4639


# --- flare certification -----------------------------------------------------

def test_flare_identity_all_counterexamples(identity_z2z2):
    rep = flare_certify(identity_z2z2, 2, 2, 1, 3, "1.5")
    assert rep.verdict == "witness"
    assert rep.tested == len(rep.counterexamples)


def test_flare_intro_counterexamples(intro_anosov, z2z3):
    rep = flare_certify(intro_anosov, 2, 2, 1, 4, "1.1")
    assert rep.verdict == "witness"
    g = rep.counterexamples[0]
    assert len(cyclic_normal_form(apply_power(intro_anosov, 4, g)).core) == 2


def test_flare_tribonacci_certificate(tribonacci):
    rep = flare_certify(tribonacci, 2, 3, 1, 8, "1.1")
    assert rep.verdict == "exhausted"
    cert = rep.certificate
    assert cert["empirical"] is True
    n = cert["exponent"]
    # re-verify the certificate independently on every enumerated word
    from fractions import Fraction
    lam = Fraction("1.1")
    for g in enumerate_cyclic_words(tribonacci.presentation, 3, 1, min_len=2):
        grown = max(
            len(cyclic_normal_form(apply_power(tribonacci, n, g)).core),
            len(cyclic_normal_form(apply_power(tribonacci, -n, g)).core))
        assert lam * len(g) <= grown


def test_flare_monotone_in_lambda(tribonacci):
    rep = flare_certify(tribonacci, 2, 3, 1, 8, "1.1")
    n = rep.certificate["exponent"]
    weaker = flare_certify(tribonacci, 2, 3, 1, 8, "1.05")
    assert weaker.verdict == "exhausted"
    assert weaker.certificate["exponent"] <= n


def test_flare_rejects_bad_lambda(identity_z2z2):
    with pytest.raises(ValueError):
        flare_certify(identity_z2z2, 2, 2, 1, 2, "1.0")


def test_flare_rejects_empty_length_range(mixed):
    with pytest.raises(ValueError):
        flare_certify(mixed[0], 5, 3, 1, 2, "1.1")


# --- implication check (a test oracle) ---------------------------------------

def _fixed_vector(m: IntegerMatrix):
    """A nonzero integer vector with M v = v, or None."""
    return kernel_vector(m - IntegerMatrix.identity(m.nrows))


@dataclass
class ImplicationReport:
    central: dict
    atoroidal: SearchReport
    twins: SearchReport
    status: str          # "vacuous" | "consistent" | "witness-beyond-bounds" | "violated"
    constructed_class: Word | None = None
    constructed_power: int | None = None


def no_twin_implication_check(phi: Automorphism, max_len: int = 3,
                              max_exp: int = 2, max_iter: int = 3,
                              max_power: int = 2,
                              conj_len: int = 2) -> ImplicationReport:
    """Cross-check: central condition + atoroidal  =>  no twinned subgroups.

    When the searches contradict the implication, the fixed hyperbolic class
    the twin witness produces is constructed explicitly; if that class fails
    its own re-verification the report flags a library bug ("violated").
    Otherwise the contradiction only shows the atoroidal bounds were too
    small ("witness-beyond-bounds").
    """
    central = check_central_condition(phi)
    ator = atoroidal_search(phi, max_len, max_exp, max_iter)
    twins = twin_search(phi, max_power, conj_len)
    if not all(central.values()) or ator.verdict == "witness":
        return ImplicationReport(central, ator, twins, "vacuous")
    if twins.verdict != "witness":
        return ImplicationReport(central, ator, twins, "consistent")
    # central + atoroidal-up-to-bounds, yet a twin witness: build the class
    wit = twins.witness
    m, i, j = wit["power"], wit["factor_i"], wit["factor_j"]
    u, v = wit["conj_u"], wit["conj_v"]
    pres = phi.presentation
    # up to conjugation, phi^m acts on A_i by M_i^m
    x = _fixed_vector(reduce(mul, [phi.factor_matrix(i)] * m))
    y = _fixed_vector(reduce(mul, [phi.factor_matrix(j)] * m))
    if x is None or y is None:
        return ImplicationReport(central, ator, twins, "violated")
    h = multiply(
        multiply(multiply(u, Word(pres, (FactorSyllable(i, x),))), u.inverse()),
        multiply(multiply(v, Word(pres, (FactorSyllable(j, y),))), v.inverse()))
    if h and conjugate_test(apply_power(phi, m, h), h):
        return ImplicationReport(central, ator, twins, "witness-beyond-bounds",
                                 constructed_class=h, constructed_power=m)
    return ImplicationReport(central, ator, twins, "violated",
                             constructed_class=h, constructed_power=m)


def test_implication_vacuous_on_twist(toral_twist):
    rep = no_twin_implication_check(toral_twist)
    assert rep.status == "vacuous"  # not atoroidal: witness found


def test_implication_vacuous_on_identity(identity_z2z2):
    rep = no_twin_implication_check(identity_z2z2)
    assert rep.status == "vacuous"


def test_implication_consistent_on_intro(intro_anosov):
    rep = no_twin_implication_check(intro_anosov, max_len=2, max_exp=1,
                                    max_iter=2, max_power=1, conj_len=1)
    # central fails on both factors: implication is vacuous
    assert rep.status == "vacuous"
    assert rep.central == {1: False, 2: False}


def test_implication_consistent_on_tribonacci(tribonacci):
    rep = no_twin_implication_check(tribonacci, max_len=2, max_exp=1,
                                    max_iter=2, max_power=1, conj_len=1)
    assert rep.status == "consistent"


def test_implication_builds_class_from_twin_witness(toral_twist):
    # bounds too small for the atoroidal search to see the twist's fixed
    # class, so the twin witness is turned into an explicit class via phi^m
    rep = no_twin_implication_check(toral_twist, max_len=1, max_exp=1,
                                    max_iter=1, max_power=1, conj_len=1)
    assert rep.status == "witness-beyond-bounds"
    assert rep.constructed_power == 1


# --- brute-force oracles (raw unreduced enumeration) -------------------------

def raw_small_words(pres, max_len):
    """Raw syllable sequences with unit exponents, length <= max_len."""
    alphabet = []
    for i in range(1, pres.num_factors + 1):
        rank = pres.factor_rank(i)
        for j in range(rank):
            for sgn in (1, -1):
                vec = tuple(sgn if t == j else 0 for t in range(rank))
                alphabet.append(FactorSyllable(i, vec))
    for l in range(1, pres.free_rank + 1):
        alphabet.append(FreeSyllable(l, 1))
        alphabet.append(FreeSyllable(l, -1))
    for n in range(1, max_len + 1):
        for combo in itertools.product(alphabet, repeat=n):
            yield combo


def brute_force_atoroidal(phi, max_len, max_iter):
    """Oracle: enumerate raw words, reduce, test conjugacy of iterates."""
    pres = phi.presentation
    found = set()
    for raw in raw_small_words(pres, max_len):
        g = reduce_syllables(raw, pres)
        if not g:
            continue
        cyc = cyclic_normal_form(g)
        if len(cyc) == 1 and isinstance(cyc.core[0], FactorSyllable):
            continue  # elliptic: conjugate into a factor
        if len(cyc.core) > max_len or any(s.mass > 1 for s in cyc.core):
            continue  # outside the bounded search space
        for n in range(1, max_iter + 1):
            if conjugate_test(apply_power(phi, n, g), g):
                found.add(cyc.canonical_rotation())
                break
    return found


@pytest.mark.parametrize("fixture_name", ["identity_z2z2", "toral_twist",
                                          "fibonacci", "intro_anosov"])
def test_atoroidal_matches_brute_force(fixture_name, request):
    phi = request.getfixturevalue(fixture_name)
    rep = atoroidal_search(phi, 3, 1, 3)
    oracle = brute_force_atoroidal(phi, 3, 3)
    assert (rep.verdict == "witness") == bool(oracle)
    if rep.verdict == "witness":
        assert cyclic_normal_form(rep.witness["element"]).canonical_rotation() \
            in oracle


def reference_atoroidal_search(phi, max_len, max_exp, max_iter, owned=None):
    """The search without the abelian prefilter: every class is imaged
    under phi, phi^2, ... at word level.  The records (classes tested,
    witness) of the root groups whose ordinals lie in ``owned`` (all when
    None), up to the first witness."""
    pres, records = phi.presentation, []
    for k, group in enumerate(_root_groups(pres, max_len, max_exp)):
        if owned is not None and k not in owned:
            continue
        tested = 0
        for syllables, _ in group:
            tested += 1
            g = w = Word(pres, syllables)
            for n in range(1, max_iter + 1):
                w = apply(phi, w)
                if conjugate_test(w, g):
                    records.append((tested, {"element": g, "exponent": n}))
                    return records
        records.append((tested, None))
    return records


def _assert_matches_reference(phi, max_len, max_exp, max_iter, owned=None):
    read = []

    def walk(records):
        read.extend(records(None if owned is None else (
            k in owned for k in itertools.count())))
        return read
    rep = atoroidal_search(phi, max_len, max_exp, max_iter, walk=walk)
    records = reference_atoroidal_search(phi, max_len, max_exp, max_iter,
                                         owned)
    # the records of the owned groups are the reference's, and so is their
    # fold, which for every group (None) is the serial search
    assert read == records
    tested = sum(n for n, _ in records)
    witness = records[-1][1] if records else None
    reports = [rep]
    if owned is None:
        reports.append(atoroidal_search(phi, max_len, max_exp, max_iter))
    for report in reports:
        assert (report.verdict, report.witness, report.tested) == (
            ("witness", witness, tested) if witness
            else ("exhausted", None, tested))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prefiltered_search_matches_reference(data):
    pres = data.draw(st.sampled_from(ACTION_PRESENTATIONS))
    phi = data.draw(automorphisms_of(pres))
    assume(phi.preserves_factor_classes)
    _assert_matches_reference(phi, data.draw(st.integers(1, 3)),
                              data.draw(st.integers(1, 2)),
                              data.draw(st.integers(1, 4)),
                              data.draw(st.none() | st.sets(
                                  st.integers(0, 60))))


def test_abelian_prefilter_with_eigenvalue_1(toral_twist, mixed):
    # on twist A = I, so every class passes the prefilter; on mixed A has
    # eigenvalue 1 without being I, so A^n - I has a nonzero kernel and
    # the prefilter keeps some classes but not all
    assert toral_twist.abelianized_matrix == IntegerMatrix.identity(4)
    a = mixed[0].abelianized_matrix
    assert a != IntegerMatrix.identity(3)
    assert determinant(a - IntegerMatrix.identity(3)) == 0
    twist_kept, mixed_kept = (
        [passes(acc)
         for group in _root_groups(phi.presentation, 4, 1, weight=weight)
         for _, acc in group]
        for phi in (toral_twist, mixed[0])
        for weight, passes in [dynamics._abelian_prefilter(phi, 4, 1, 2)])
    assert all(twist_kept)
    assert any(mixed_kept) and not all(mixed_kept)


def may_be_periodic_oracle(phi, max_iter):
    """The abelian prefilter on one Word, computed anew: A^n v = v for some
    max_iter/2 < n <= max_iter, v = `abelianize(g)`, or v = 0 when every
    A^n - I tried is nonsingular."""
    a = phi.abelianized_matrix
    eye = IntegerMatrix.identity(a.nrows)
    a_n = eye
    diffs = []  # A^n - I for the n tried
    for n in range(1, max_iter + 1):
        a_n = a_n * a
        if 2 * n > max_iter:
            diffs.append(a_n - eye)
    only_zero = all(determinant(d) for d in diffs)
    row_sets = [tuple(row for row in d.entries if any(row)) for d in diffs]

    def may_be_periodic(g: Word) -> bool:
        v = abelianize(g)
        if only_zero:
            return not any(v)
        for rows in row_sets:
            for row in rows:
                if sum(map(mul, row, v)):
                    break
            else:
                return True
        return False
    return may_be_periodic


def _carried_filter_verdicts(phi, max_len, max_exp, max_iter):
    """The verdicts of the prefilter on every class of `_root_groups`, from
    the weight sums the enumerator carries, after checking each against
    the per-Word oracle."""
    pres = phi.presentation
    weight, passes = dynamics._abelian_prefilter(phi, max_len, max_exp,
                                                 max_iter)
    oracle = may_be_periodic_oracle(phi, max_iter)
    verdicts = []
    for group in _root_groups(pres, max_len, max_exp, weight=weight):
        for syllables, acc in group:
            verdict = passes(acc)
            assert verdict == oracle(Word(pres, syllables)), syllables
            verdicts.append(verdict)
    return verdicts


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_carried_prefilter_matches_the_oracle(data):
    pres = data.draw(st.sampled_from(ACTION_PRESENTATIONS))
    phi = data.draw(automorphisms_of(pres))
    _carried_filter_verdicts(phi, data.draw(st.integers(1, 3)),
                             data.draw(st.integers(1, 2)),
                             data.draw(st.integers(1, 4)))


# mixed: A has eigenvalue 1 and max_iter 3, 4 try n = 2, 3 and n = 3, 4,
# several blocks; twist: A = I, no bits; fib, trib: every A^n - I tried is
# nonsingular, the rows of I.  Classes with v = 0 (commutators) pass on
# every fixture, and only on twist does every class pass.
@pytest.mark.parametrize("fixture, max_iter", [
    ("mixed", 1), ("mixed", 3), ("mixed", 4), ("toral_twist", 2),
    ("toral_twist", 4), ("fibonacci", 4), ("tribonacci", 1),
    ("tribonacci", 3)])
def test_carried_prefilter_matches_the_oracle_on_fixtures(request, fixture,
                                                          max_iter):
    phi = request.getfixturevalue(fixture)
    if fixture == "mixed":
        phi = phi[0]
    verdicts = _carried_filter_verdicts(phi, 4, 2, max_iter)
    assert any(verdicts)
    assert all(verdicts) == (fixture == "toral_twist")


@pytest.fixture(scope="module")
def fib_and_flip(free3):
    # fibonacci on x1, x2 and x3 -> x3^-1: with max_iter 4, A^4 - I is zero
    # on the x3 axis and A^3 - I is not, and its x3 row is the last field of
    # the n = 3 block, right below the n = 4 block
    return make_aut(free3, {"x1": "x1 x2", "x2": "x1", "x3": "x3^-1"},
                    {"x1": "x2", "x2": "x2^-1 x1", "x3": "x3^-1"})


# A field reaches its bounds, +-b for b = max_len max_exp max|row|, on
# max_len copies of the syllable at either extreme of its row.  On
# fib_and_flip, max_len copies of x3^-max_exp take the last field of the
# n = 3 block to +b while the n = 4 block is zero; a field one bit narrower
# carries into that block and fails a class the oracle passes.
@pytest.mark.parametrize("fixture, max_iter", [
    ("fib_and_flip", 4), ("mixed", 4), ("fibonacci", 4), ("tribonacci", 3)])
@pytest.mark.parametrize("max_len, max_exp", [(3, 1), (4, 2), (5, 3)])
def test_prefilter_fields_hold_extreme_sums(request, fixture, max_iter,
                                            max_len, max_exp):
    phi = request.getfixturevalue(fixture)
    if fixture == "mixed":
        phi = phi[0]
    pres, a = phi.presentation, phi.abelianized_matrix
    weight, passes = dynamics._abelian_prefilter(phi, max_len, max_exp,
                                                 max_iter)
    oracle = may_be_periodic_oracle(phi, max_iter)
    eye = IntegerMatrix.identity(a.nrows)
    rows, a_n = list(eye.entries), eye
    for n in range(1, max_iter + 1):
        a_n = a_n * a
        if 2 * n > max_iter:
            rows += (a_n - eye).entries
    syllables = [s for s, *_ in _ranked_syllables(pres, max_exp)]
    verdicts = []
    for row in rows:
        dot = {s: sum(map(mul, row, abelianize(Word(pres, (s,)))))
               for s in syllables}
        for s in (max(syllables, key=dot.get), min(syllables, key=dot.get)):
            # the sum is linear, so the copies need not form a class
            verdict = passes(max_len * weight(s))
            copies = reduce(multiply, [Word(pres, (s,))] * max_len)
            assert verdict == oracle(copies), s
            verdicts.append(verdict)
    # all of fib's and trib's A^n - I tried are nonsingular: no sum passes
    assert any(verdicts) == (fixture in ("fib_and_flip", "mixed"))


@pytest.mark.parametrize("max_len, max_exp, max_iter", [
    (2, 1, 1), (3, 2, 2), (4, 1, 3), (4, 2, 4)])
def test_prefiltered_search_matches_reference_with_eigenvalue_1(
        toral_twist, mixed, max_len, max_exp, max_iter):
    for phi in (toral_twist, mixed[0]):
        _assert_matches_reference(phi, max_len, max_exp, max_iter)
        _assert_matches_reference(phi, max_len, max_exp, max_iter,
                                  set(range(1, 200, 2)))


def brute_force_twin_check(phi, m, i, j, u, v, g):
    """Independent verification of the twin equations on factor generators."""
    pres = phi.presentation
    phi_m = power(phi, m)
    ok = True
    for (word, factor) in ((u, i), (v, j)):
        gu = multiply(g, word)
        for r in range(1, pres.factor_rank(factor) + 1):
            vec = tuple(1 if s == r else 0
                        for s in range(1, pres.factor_rank(factor) + 1))
            x = multiply(multiply(word, Word(pres, (FactorSyllable(factor, vec),))),
                         word.inverse())
            y = multiply(multiply(gu.inverse(), apply(phi_m, x)), gu)
            if not (len(y) == 1 and isinstance(y.syllables[0], FactorSyllable)
                    and y.syllables[0].factor == factor):
                ok = False
    return ok


def brute_force_twins(phi, max_power, conj_len):
    """Oracle: enumerate raw conjugators and raw g, check the definition."""
    pres = phi.presentation
    descr = []
    for raw in itertools.chain([()], raw_small_words(pres, conj_len)):
        u = reduce_syllables(raw, pres)
        if len(u) > conj_len:
            continue
        for i in range(1, pres.num_factors + 1):
            last = u.syllables[-1] if u.syllables else None
            if isinstance(last, FactorSyllable) and last.factor == i:
                continue
            if (u.syllables, i) not in {(d[0].syllables, d[1]) for d in descr}:
                descr.append((u, i))
    candidates_g = [reduce_syllables(raw, pres)
                    for raw in itertools.chain([()], raw_small_words(pres, 3))]
    for m in range(1, max_power + 1):
        for (u, i), (v, j) in itertools.combinations(descr, 2):
            for g in candidates_g:
                if brute_force_twin_check(phi, m, i, j, u, v, g):
                    return (m, i, j, u, v, g)
    return None


@pytest.mark.parametrize("fixture_name", ["identity_z2z2", "toral_twist",
                                          "intro_anosov"])
def test_twins_match_brute_force(fixture_name, request):
    phi = request.getfixturevalue(fixture_name)
    rep = twin_search(phi, 2, 1)
    oracle = brute_force_twins(phi, 2, 1)
    assert (rep.verdict == "witness") == (oracle is not None)
    if rep.verdict == "witness":
        w = rep.witness
        # the search's own witness passes the oracle's independent checker
        assert brute_force_twin_check(phi, w["power"], w["factor_i"],
                                      w["factor_j"], w["conj_u"], w["conj_v"],
                                      w["element"])
