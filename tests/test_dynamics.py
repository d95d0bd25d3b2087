import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaut import (Presentation, Word, apply, apply_power, atoroidal_search,
                   classify_growth, conjugate_test, cyclic_normal_form,
                   enumerate_cyclic_words, flare_certify, invert, multiply,
                   no_twin_implication_check, orbit_lengths, parse_word, power,
                   twin_search)
from fpaut import dynamics
from fpaut.dynamics import _syllables_of_mass, enumerate_words, graded_key
from fpaut.errors import FactorsPermuted, TooShort
from fpaut.words import FactorSyllable, FreeSyllable, _track, reduce_syllables

from conftest import make_aut, random_word


# --- enumeration -------------------------------------------------------------

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
    for seq in (words, cyclic):
        keys = [graded_key(w) for w in seq]
        assert keys == sorted(set(keys))
    # the cyclic enumeration is the word enumeration filtered to
    # cyclically reduced, rotation-least, hyperbolic words
    assert cyclic == [
        w for w in words
        if len(cyclic_normal_form(w)) == len(w)
        and cyclic_normal_form(w).canonical_rotation() == w.syllables
        and (len(w) > 1 or isinstance(w.syllables[0], FreeSyllable))]


def _brute_sequences(pres, max_len, max_exp, min_len=1, cyclic=False):
    """Every syllable tuple from itertools.product, filtered to normal form
    (and with `cyclic` to cyclically reduced, brute-force least rotations),
    sorted by graded_key."""
    syls = [s for mass in range(1, max_exp + 1)
            for s in _syllables_of_mass(pres, mass)]
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
    assert list(enumerate_words(pres, max_len, max_exp)) == \
        [Word(pres)] + _brute_sequences(pres, max_len, max_exp)
    for min_len in (1, 2):
        ref = _brute_sequences(pres, max_len, max_exp, min_len, cyclic=True)
        assert list(enumerate_cyclic_words(
            pres, max_len, max_exp, min_len=min_len,
            hyperbolic_only=False)) == ref
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
    n_syls = sum(len(_syllables_of_mass(pres, e)) for e in range(1, max_exp + 1))
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


def test_rotation_filter_sees_few_rejected_tuples(tribonacci, monkeypatch):
    # the enumerator only builds tuples whose first syllable has the least
    # sort key, so the least-rotation filter runs on few more tuples than
    # it keeps (about 4.8 times as many before that prune)
    calls = []
    real = dynamics.least_rotation
    monkeypatch.setattr(dynamics, "least_rotation",
                        lambda keys: calls.append(1) or real(keys))
    n = sum(1 for _ in enumerate_cyclic_words(tribonacci.presentation, 5, 2))
    assert n == 7508
    assert len(calls) <= 1.25 * n


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
        conj = multiply(multiply(c, g), invert(c))
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


# --- twin search -------------------------------------------------------------

def test_twins_intro(intro_anosov):
    rep = twin_search(intro_anosov, 2, 2)
    assert rep.verdict == "witness"
    w = rep.witness
    assert (w["factor_i"], w["factor_j"], w["power"]) == (1, 2, 1)
    assert not w["conj_u"] and not w["conj_v"] and not w["element"]


def test_twins_exhausted_for_mixing_letters():
    # Z^2 * F_2: the letters mix, so distinct A_1-cosets drift apart and no
    # pair of factor conjugates is simultaneously re-conjugated
    pres = Presentation((2,), 2)
    phi = make_aut(pres,
                   {"a1.1": "a1.1^2 a1.2", "a1.2": "a1.1 a1.2",
                    "x1": "x2", "x2": "x1 x2"},
                   {"a1.1": "a1.1 a1.2^-1", "a1.2": "a1.1^-1 a1.2^2",
                    "x1": "x2 x1^-1", "x2": "x1"})
    rep = twin_search(phi, 2, 1)
    assert rep.verdict == "exhausted"


def test_twins_skip_equal_subgroups(z2z2, identity_z2z2):
    # identity: every distinct pair is twinned with g = empty, m = 1
    rep = twin_search(identity_z2z2, 1, 1)
    assert rep.verdict == "witness"
    w = rep.witness
    assert (w["factor_i"], w["conj_u"].syllables) != (w["factor_j"], w["conj_v"].syllables)


def test_twins_free_group_has_none(fibonacci):
    assert twin_search(fibonacci, 2, 2).verdict == "exhausted"


def test_twin_search_builds_each_power_from_the_last(monkeypatch, fibonacci):
    # phi^m = phi^(m-1) o phi: one compose per power after the first
    from fpaut import automorphisms
    calls = []
    original = automorphisms.compose

    def counting(phi, psi):
        calls.append((phi, psi))
        return original(phi, psi)
    monkeypatch.setattr(automorphisms, "compose", counting)
    monkeypatch.setattr(dynamics, "compose", counting)
    assert twin_search(fibonacci, 5, 1).verdict == "exhausted"
    assert len(calls) == 4


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
    assert (w["power"], w["factor_i"], w["factor_j"], w["index"]) == (1, 1, 1, 2)
    assert w["conj_u"] == Word(pres) and w["element"] == Word(pres)
    assert w["conj_v"] == parse_word("x1^-1", pres)


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


# --- implication check -------------------------------------------------------

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
    from fpaut import is_hyperbolic
    found = set()
    for raw in raw_small_words(pres, max_len):
        g = reduce_syllables(raw, pres)
        if not is_hyperbolic(g):
            continue
        cyc = cyclic_normal_form(g)
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
                         invert(word))
            y = multiply(multiply(invert(gu), apply(phi_m, x)), gu)
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
