"""The word kernel that the searches run on: one unchecked reducer `_join`
behind the checked `reduce_syllables`, the action of phi joining reduced
blocks, and the invariants the searches rely on instead of re-reducing.

The digest pins were taken before the action joined blocks, so they show
that the kernel leaves the reports of the word-layer commands byte-identical.
"""

import dataclasses
import hashlib
import json
import shlex
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpaut import (Presentation, Word, apply, apply_power, conjugacy_key,
                   cyclic_normal_form, identity_automorphism, multiply,
                   parse_word, reduce_syllables, validate)
from fpaut import automorphisms, dynamics, words
from fpaut.automorphisms import apply_inverse
from fpaut.cli import (COMMANDS, JobConfig, automorphism_to_dict,
                       canonical_json, config_from_args, run, to_jsonable)
from fpaut.dynamics import (atoroidal_search, classify_growth,
                            enumerate_cyclic_words, orbit_lengths)
from fpaut.errors import IndexOutOfRange
from fpaut.matrices import IntegerMatrix
from fpaut.words import FactorSyllable, FreeSyllable, _track

from test_action import raw_syllables
from test_graph_maps import FIXTURES

# the five fixture presentations (F_2 is fib's), then Z^2
PRESENTATIONS = (Presentation((), 2), Presentation((), 3),
                 Presentation((2, 3), 0), Presentation((2, 2), 0),
                 Presentation((2,), 1), Presentation((2,), 0))


# ---------------------------------------------------------------------------
# one reducer

def _is_trivial(s):
    return (not any(s.vector) if isinstance(s, FactorSyllable)
            else s.exponent == 0)


def _reduce_brute(raw):
    """Merge the first adjacent same-track pair, or drop the first trivial
    syllable, until neither applies."""
    syl = list(raw)
    while True:
        for k, s in enumerate(syl):
            if _is_trivial(s):
                del syl[k]
                break
        else:
            for k in range(len(syl) - 1):
                a, b = syl[k], syl[k + 1]
                if _track(a) == _track(b):
                    if isinstance(a, FactorSyllable):
                        merged = FactorSyllable(
                            a.factor,
                            tuple(x + y for x, y in zip(a.vector, b.vector)))
                    else:
                        merged = FreeSyllable(a.letter, a.exponent + b.exponent)
                    syl[k:k + 2] = [merged]
                    break
            else:
                return tuple(syl)


@settings(max_examples=400)
@given(st.data())
def test_reduce_syllables_matches_brute_force(data):
    pres = data.draw(st.sampled_from(PRESENTATIONS))
    raw = data.draw(raw_syllables(pres, max_syllables=10, max_exp=2))
    assert reduce_syllables(raw, pres).syllables == _reduce_brute(raw)


# ---------------------------------------------------------------------------
# the invariants the kernel relies on

@pytest.mark.parametrize("pres, max_len, max_exp", [
    (Presentation((), 2), 5, 2), (Presentation((), 3), 4, 2),
    (Presentation((2, 3), 0), 3, 2), (Presentation((2, 2), 0), 4, 1),
    (Presentation((2,), 1), 4, 2)])
def test_enumerated_classes_are_their_own_conjugacy_key(pres, max_len,
                                                        max_exp):
    count = 0
    for g in enumerate_cyclic_words(pres, max_len, max_exp):
        assert conjugacy_key(g) == g.syllables
        count += 1
    assert count > 100


def _assert_conjugator_in_normal_form(w):
    c = cyclic_normal_form(w).conjugator
    assert reduce_syllables(c.syllables, w.presentation) == c


@settings(max_examples=300)
@given(st.data())
def test_cyclic_conjugator_is_in_normal_form(data):
    pres = data.draw(st.sampled_from(PRESENTATIONS))
    u = reduce_syllables(data.draw(raw_syllables(pres, max_syllables=8)), pres)
    c = reduce_syllables(data.draw(raw_syllables(pres, max_syllables=4)), pres)
    # c u c^-1 strips c by exact cancellations, then may wrap-merge inside u
    for w in (u, multiply(multiply(c, u), c.inverse())):
        if w:
            _assert_conjugator_in_normal_form(w)


@pytest.mark.parametrize("text, conjugator", [
    ("a1.1 x1 a1.2 x2 a1.2^2 x1^-1 a1.1^-1", "a1.1 x1 a1.2^-2"),
    ("x1 a2.1 x2 a1.1 x2^-1 a2.1^-1 x1^-1", "x1 a2.1 x2"),
    ("x1^2 a1.1 x1^-3", "x1^3"),
    ("a1.1 x1 a2.2 x1^-1 a1.1", "a1.1^-1"),
    ("a1.1 a2.1 a1.1^-1", "a1.1"),
    ("x2 x1 x2^-1", "x2")])
def test_cyclic_conjugator_on_cancelling_words(text, conjugator):
    pres = Presentation((2, 2), 2)
    w = parse_word(text, pres)
    assert cyclic_normal_form(w).conjugator == parse_word(conjugator, pres)
    _assert_conjugator_in_normal_form(w)


# ---------------------------------------------------------------------------
# bad indices in the input of the action

@pytest.mark.parametrize("pres, bad", [
    (Presentation((2, 3), 0), FactorSyllable(0, (1, 0, 0))),
    (Presentation((2, 3), 0), FactorSyllable(0, (1, 0))),
    (Presentation((2, 3), 0), FactorSyllable(3, (1, 0))),
    (Presentation((2,), 2), FreeSyllable(0, 1)),
    (Presentation((2,), 2), FreeSyllable(3, -1)),
    (Presentation((2,), 2), FactorSyllable(2, (1, 0))),
    (Presentation((), 2), FactorSyllable(1, (1,))),
    (Presentation((2,), 2), FactorSyllable(1, (1, 0, 0))),
    (Presentation((2,), 2), FactorSyllable(1, (0, 0, 0))),
])
def test_action_rejects_bad_indices(pres, bad):
    phi = identity_automorphism(pres)
    w = Word(pres, (bad,))
    for act in (lambda: apply(phi, w), lambda: apply_inverse(phi, w),
                lambda: apply_power(phi, 2, w),
                lambda: apply_power(phi, -1, w)):
        with pytest.raises(IndexOutOfRange):
            act()


def test_action_drops_zero_input_syllables(intro_anosov):
    pres = intro_anosov.presentation
    empty = Word(pres)
    zero = Word(pres, (FactorSyllable(1, (0, 0)),))
    assert apply(intro_anosov, zero) == empty
    assert apply_inverse(intro_anosov, zero) == empty
    assert apply_power(intro_anosov, 3, zero) == empty
    a2 = FactorSyllable(2, (1, 0, 0))
    assert apply(intro_anosov, Word(pres, (a2, FactorSyllable(1, (0, 0)), a2))) \
        == Word(pres, (FactorSyllable(2, (0, 2, 0)),))


# ---------------------------------------------------------------------------
# work counts

def test_atoroidal_search_neither_checks_nor_re_reduces(monkeypatch,
                                                        tribonacci):
    counts = Counter()

    def counting(name):
        f = getattr(words, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        for module in (words, automorphisms, dynamics):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)

    # the first search fills the image tables of tribonacci's sides, which
    # reduce and check each image once; the counted search reads them only
    atoroidal_search(tribonacci, 5, 2, 1)
    counting("_check_syllable")
    counting("reduce_syllables")
    rep = atoroidal_search(tribonacci, 5, 2, 1)
    assert (rep.verdict, rep.tested) == ("exhausted", 7508)
    assert counts == Counter()
    # the counters see the checked entry point, so the guard is not vacuous
    words.reduce_syllables([FreeSyllable(1, 1)], tribonacci.presentation)
    assert counts["_check_syllable"] == counts["reduce_syllables"] == 1


def _classes_fixed_in_abelianization(phi, max_len, max_exp, max_iter):
    """The enumerated classes g with A^n v = v for some n <= max_iter, v
    the exponent sums of g over the generators (factor generators, then
    letters) and A the abelianized matrix."""
    pres = phi.presentation
    a = phi.abelianized_matrix
    index = {name: r for r, name in enumerate(pres.generator_names())}
    powers = [a]
    for _ in range(max_iter - 1):
        powers.append(powers[-1] * a)
    count = 0
    for g in enumerate_cyclic_words(pres, max_len, max_exp):
        v = [0] * len(index)
        for s in g.syllables:
            if isinstance(s, FreeSyllable):
                v[index[f"x{s.letter}"]] += s.exponent
            else:
                for j, e in enumerate(s.vector, start=1):
                    v[index[f"a{s.factor}.{j}"]] += e
        count += any(a_n.apply(tuple(v)) == tuple(v) for a_n in powers)
    return count


@pytest.mark.parametrize("fixture, bounds, tested, passing, acts", [
    ("tribonacci", (5, 2, 1), 7508, 24, 24),
    ("intro_anosov", (3, 3, 1), 1488, 0, 0),
    ("tribonacci", (6, 2, 2), 52660, 316, 632),
    ("intro_anosov", (4, 2, 4), 41904, 144, 576)])
def test_atoroidal_search_images_only_classes_fixed_in_abelianization(
        request, monkeypatch, fixture, bounds, tested, passing, acts):
    # phi^n(g) ~ g forces A^n v = v, so only those classes reach the action
    phi = request.getfixturevalue(fixture)
    assert _classes_fixed_in_abelianization(phi, *bounds) == passing
    phi.abelianized_matrix  # built once per automorphism, not by the search
    calls, built = Counter(), []
    real = automorphisms._act
    real_abelianize, real_word = words.abelianize, dynamics.Word

    def counting(side, pres, w):
        calls["forward" if side is phi._forward else "other"] += 1
        return real(side, pres, w)

    def counting_abelianize(w):
        calls["abelianize"] += 1
        return real_abelianize(w)

    def counting_word(pres, syllables=()):
        built.append(syllables)
        return real_word(pres, syllables)
    monkeypatch.setattr(automorphisms, "_act", counting)
    for module in (words, automorphisms, dynamics):
        monkeypatch.setattr(module, "abelianize", counting_abelianize)
    monkeypatch.setattr(dynamics, "Word", counting_word)
    rep = atoroidal_search(phi, *bounds)
    assert (rep.verdict, rep.tested) == ("exhausted", tested)
    assert calls["other"] == 0
    assert calls["forward"] == acts <= passing * bounds[2]
    # the prefilter abelianizes each ranked syllable once, as a one-syllable
    # Word, and reads the weights the enumerator carries; then dynamics
    # builds a Word only for each class that passes
    units = [(s,) for s, *_ in dynamics._ranked_syllables(phi.presentation,
                                                          bounds[1])]
    assert calls["abelianize"] <= len(units)
    assert built[:len(units)] == units
    assert len(built) - len(units) == passing


def test_flare_builds_each_factor_block_once(monkeypatch, mixed):
    # a side builds a factor syllable's block only on its first lookup
    phi = validate(dict(mixed[0].images), dict(mixed[0].inverse_images),
                   mixed[1])
    calls = Counter()
    real = IntegerMatrix.apply

    def counting(self, v):
        calls["apply"] += 1
        return real(self, v)
    monkeypatch.setattr(IntegerMatrix, "apply", counting)
    _run_job("flare mixed --min-len 2 --max-len 3 --max-exp 2 --max-iter 6",
             phi)
    stored = sum(isinstance(s, FactorSyllable)
                 for side in (phi._forward, phi._backward) for s in side)
    assert 0 < calls["apply"] <= stored


# ---------------------------------------------------------------------------
# pinned reports of the word-layer commands: default bounds, the bounds of
# the benchmark's `search` and `orbit` job lists, two large exhausted
# searches (pinned before the abelian prefilter of `atoroidal_search`),
# exhausted searches on fixture Q (pinned before the head rule of
# `twin_search`), and the slowest `flare` job (pinned before the block
# table of the action)

RESULT_DIGESTS = {
    "atoroidal fib":
        "ae6335d7d197e098a743029d01b7025613f7c47f2ba62d910546499c6b061b83",
    "atoroidal trib":
        "5b89cd72a8d1a17bca2f4d881a745a0f2b1d34b848e853e0c6c22b0470ea41c7",
    "atoroidal twist":
        "3d1e6fca3cabbea7e1c8280456327c8a737057ce2769d20d4cf3fbfbf03f4166",
    "atoroidal mixed":
        "f8981632025f4dcfdb6fa6d014470d72327c32cd6b1c0847c07235b49167ce85",
    "flare fib":
        "a59b50a1e341c910df6e578d8b5f2888e35271838be66a4634bd32cd3aa9c16b",
    "flare trib":
        "d67ece2359071c3cba2e6a94a7e28ae04ea87e95e1980ba8fbd0a83c9dc5310f",
    "flare intro":
        "fae767ee806625ca53fdd14d2c14e78c95bd2db8b3dc63428c5fc6fff166a98e",
    "flare twist":
        "5eff4a31dcaed5747ec4e4b485c5c4fe1a3dabe05313de3af0382fca18711cca",
    "flare mixed":
        "d7647a3328649eb7adcf4457bdf70cea366f12c5d846148482d115703e8c57db",
    "twins fib":
        "2490f8e6fb27a4c97359ccedf44aed5f3462d29fe39bb24370f0a245ee014c7a",
    "twins trib":
        "2490f8e6fb27a4c97359ccedf44aed5f3462d29fe39bb24370f0a245ee014c7a",
    "twins intro":
        "3eb4deb6e2b755ea39f2d47ad39064c1343d3bdab8d2f3bbcc186b92ffc48b12",
    "twins twist":
        "025039fb88f42576aa78f613024e48e95eeee4b445b43978f1ed95708c7bf30e",
    "twins mixed":
        "4ef107fcd231f13ee2b82269b84e1c2cc0613513b6dcbc54f5c6547c31140fe6",
    "atoroidal intro --max-len 3 --max-exp 3 --max-iter 1":
        "ddf9bb871b0069415d83cd8040be3569007685fb2c25a8cd114fa0e7cfb52c95",
    "atoroidal trib --max-len 5 --max-exp 2 --max-iter 1":
        "9345070da3f8e967d87206ac42246357ea9cac166d492f7de8837d94421a57d4",
    "flare mixed --min-len 2 --max-len 3 --max-exp 2 --max-iter 6":
        "b14b4da741002993530523ef615b133f71be099ec23a4beba9da890821bfc812",
    "atoroidal fib --max-len 5 --max-exp 3 --max-iter 4":
        "89c19aa0c450c3dbf93c2cd26a869dc97cca9159d7431d93c51f806daccd4aab",
    "atoroidal intro --max-len 4 --max-exp 2 --max-iter 4":
        "7a70c8ec28a349310e5ced7fe23595e54d9e0abd899be260691f6e53ad063d19",
    "atoroidal trib --max-len 6 --max-exp 2 --max-iter 2":
        "a220a92d90846ce3913132306615a1fb52d603e0145f24a0fdf4a836cbd70dfd",
    "twins intro --max-exp 2 --conj-len 2":
        "3eb4deb6e2b755ea39f2d47ad39064c1343d3bdab8d2f3bbcc186b92ffc48b12",
    "twins Q --max-exp 1 --conj-len 2":
        "6e61a712ce1eb3324b195262507f9d33d234b61aad0e0e00af3813118e579cdf",
    "twins Q --max-exp 2 --conj-len 2":
        "815e3797e061b851397add59d692f86d28eaa1fb1482df6a24f76170b343fa8c",
    "atoroidal Q --max-len 4 --max-exp 2 --max-iter 2":
        "2fbd6da2d218b7337fadff0f5b71a6d2d776a4f021ab23dc29655bf0152dc6da",
    "flare intro --min-len 2 --max-len 4 --max-exp 2 --max-iter 6":
        "bf6f1882e0f741f0a736b3bd4b152e99e8c516c89ed45493de2558d3f2dddd70",
    "classify fib --element x1 --max-iter 15":
        "9101018da248d38811e3407ed49e4614df06cf7fd2895b965167ebc312a037b3",
    "classify fib --element 'x1 x2^-1' --max-iter 16":
        "6ffa261901bca7f393f69d0998478b90c73d7b1d0b4fb094876fe46422c281e0",
    "classify trib --element 'x1 x2^-1' --max-iter 24":
        "f3f826fce9f9ece313fc720691a2e9e34e2870025c4287da4c6ec54e88c2f18d",
    "classify trib --element x1 --max-iter 26":
        "43c493c03dcc3bbf0b18248387045a5e58add2cda210914a2f148346a94a958f",
    "classify intro --element 'a1.1 a2.1' --max-iter 64":
        "3e3150eac1b3ab02256ad68929fcf747a63ece8e6398861242c15dddb24855fe",
    "classify mixed --element 'a1.1 x1' --max-iter 64":
        "c9aff218c4c347fde7ee9bb601f7a4c253677f5870c5df7d0bb894ef75fbf5e5",
    "classify twist --element 'a1.2 a2.1' --max-iter 64":
        "0ab57103fb6d715ee698564b36af2f99df75991016d5951d0e5f560d2e559eb5",
}


def _run_job(job, phi):
    """The `result` block of one job, written as CLI arguments after the
    fixture name."""
    command, _, *args = shlex.split(job)
    flags = dict(zip(args[::2], args[1::2]))
    element = flags.pop("--element", None)
    bounds = {**COMMANDS[command].bounds,
              **{k[2:].replace("-", "_"): int(v) for k, v in flags.items()}}
    cfg = JobConfig(command, bounds=bounds, element=element)
    return to_jsonable(COMMANDS[command].runner(cfg, phi))


@pytest.mark.parametrize("job", sorted(RESULT_DIGESTS))
def test_word_layer_reports_are_pinned(request, job):
    name = shlex.split(job)[1]
    phi = request.getfixturevalue(FIXTURES[name])
    if name == "mixed":
        phi = phi[0]
    digest = hashlib.sha256(canonical_json(_run_job(job, phi)).encode()).hexdigest()
    assert digest == RESULT_DIGESTS[job]


@pytest.mark.parametrize("job", [
    *sorted(job for job in RESULT_DIGESTS if job.startswith("classify ")),
    "classify id --element 'a1.1 a2.1^-1' --max-iter 8"])
def test_classify_mass_verdict_equals_a_repeat_search(request, job):
    # `_classify` scans the orbit's classes for a repeat only for the
    # lengths; its mass verdict equals one that scans them again
    _, name, *args = shlex.split(job)
    phi = request.getfixturevalue({**FIXTURES, "id": "identity_z2z2"}[name])
    if name == "mixed":
        phi = phi[0]
    flags = dict(zip(args[::2], args[1::2]))
    data = orbit_lengths(phi, parse_word(flags["--element"], phi.presentation),
                         int(flags["--max-iter"]))
    expected = classify_growth(data.masses, classes=data.classes)
    result = _run_job(job, phi)
    assert (result["mass_kind"], result["mass_degree"]) == \
        (expected.kind, expected.degree)
    # both branches are covered: the identity's and twist's orbits are
    # bounded, the others are not
    assert (result["kind"] == "bounded") == (name in ("id", "twist"))


@pytest.mark.parametrize("job", ["twins Q --max-exp 2 --conj-len 2",
                                 "atoroidal Q --max-len 4 --max-exp 2 "
                                 "--max-iter 2"])
def test_sharded_exhausted_searches_equal_the_pins(toral_q, tmp_path, job,
                                                  fork_at_once):
    # no process stops early, so the walk folds whole enumerations; jobs is
    # set past the parser and the walk forks after its first root group, so
    # a child is forked even on one CPU
    path = tmp_path / "Q.json"
    path.write_text(json.dumps(automorphism_to_dict(toral_q)))
    command, _, *args = shlex.split(job)
    cfg = config_from_args([command, "--aut", str(path), *args])
    code, report = run(dataclasses.replace(cfg, jobs=2))
    assert (code, report["result"]["verdict"]) == (0, "exhausted")
    assert len(fork_at_once) == 1
    result = canonical_json(report["result"])
    assert hashlib.sha256(result.encode()).hexdigest() == RESULT_DIGESTS[job]
