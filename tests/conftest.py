import itertools
import os
import random

import pytest

from fpaut import Presentation, cli, parse_word, validate
from fpaut.cli import _ownership
from fpaut.words import FactorSyllable, FreeSyllable, reduce_syllables


def make_aut(pres, images, inverse_images):
    return validate({k: parse_word(v, pres) for k, v in images.items()},
                    {k: parse_word(v, pres) for k, v in inverse_images.items()},
                    pres)


def in_process_claims(claimants, seed, parts=None):
    """A search walk that hands root-group ordinals to ``claimants``
    claimants in this process, so their count may exceed the CPU count, as
    `cli._merge_reports` hands them to forked processes: each claimant walks
    its own records stream, which claims the next unclaimed ordinal each
    time it needs a group (`cli._ownership`), and when any claimant's
    stream ends, no claimant claims another.  The claimant that makes the
    next record is drawn at random from those still walking, seeded by
    ``seed``.  The records are returned in ordinal order; each claimant's
    (ordinal, record) pairs are also appended to ``parts``."""
    def walk(records):
        rng, counter, stopped = random.Random(seed), itertools.count(), []

        def claim():
            return None if stopped else next(counter)
        mines = [[] for _ in range(claimants)]
        streams = [records(_ownership(claim, mine)) for mine in mines]
        made = [[] for _ in range(claimants)]
        walking = list(range(claimants))
        while walking:
            c = rng.choice(walking)
            try:
                made[c].append(next(streams[c]))
            except StopIteration:
                walking.remove(c)
                stopped.append(c)
        lists = [list(zip(mine, recs)) for mine, recs in zip(mines, made)]
        if parts is not None:
            parts.extend(lists)
        return [record for _, record in sorted(
            itertools.chain.from_iterable(lists), key=lambda pair: pair[0])]
    return walk


@pytest.fixture
def fork_calls(monkeypatch):
    """The calls of `os.fork` during the test, one None each."""
    calls, fork = [], os.fork

    def spy():
        calls.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", spy)
    return calls


@pytest.fixture
def fork_at_once(monkeypatch, fork_calls):
    """A --jobs walk forks after its first root group, however short the
    search (`cli._FORK_AFTER_S` = 0); the `fork_calls` list."""
    monkeypatch.setattr(cli, "_FORK_AFTER_S", 0)
    return fork_calls


@pytest.fixture(scope="session")
def free2():
    return Presentation((), 2)


@pytest.fixture(scope="session")
def fibonacci(free2):
    # x -> xy, y -> x
    return make_aut(free2,
                    {"x1": "x1 x2", "x2": "x1"},
                    {"x1": "x2", "x2": "x2^-1 x1"})


@pytest.fixture(scope="session")
def z2z2():
    return Presentation((2, 2), 0)


@pytest.fixture(scope="session")
def toral_twist(z2z2):
    # identity on A1, conjugation by a1.1 on A2
    images, inv = {}, {}
    for j in (1, 2):
        images[f"a1.{j}"] = inv[f"a1.{j}"] = f"a1.{j}"
        images[f"a2.{j}"] = f"a1.1 a2.{j} a1.1^-1"
        inv[f"a2.{j}"] = f"a1.1^-1 a2.{j} a1.1"
    return make_aut(z2z2, images, inv)


@pytest.fixture(scope="session")
def z2z3():
    return Presentation((2, 3), 0)


@pytest.fixture(scope="session")
def intro_anosov(z2z3):
    # both factors preserved; [[2,1],[1,1]] on A1, companion of t^3-t-1 on A2
    return make_aut(
        z2z3,
        {"a1.1": "a1.1^2 a1.2", "a1.2": "a1.1 a1.2",
         "a2.1": "a2.2", "a2.2": "a2.3", "a2.3": "a2.1 a2.2"},
        {"a1.1": "a1.1 a1.2^-1", "a1.2": "a1.1^-1 a1.2^2",
         "a2.1": "a2.1^-1 a2.3", "a2.2": "a2.1", "a2.3": "a2.2"})


@pytest.fixture(scope="session")
def free3():
    return Presentation((), 3)


@pytest.fixture(scope="session")
def tribonacci(free3):
    # x -> y, y -> z, z -> yx: irreducible with Pisot stretch factor
    return make_aut(free3,
                    {"x1": "x2", "x2": "x3", "x3": "x2 x1"},
                    {"x1": "x1^-1 x3", "x2": "x1", "x3": "x2"})


@pytest.fixture(scope="session")
def mixed():
    # Z^2 * F_1: twist the letter through the factor
    pres = Presentation((2,), 1)
    return make_aut(pres,
                    {"a1.1": "a1.1", "a1.2": "a1.2",
                     "x1": "a1.1 x1"},
                    {"a1.1": "a1.1", "a1.2": "a1.2",
                     "x1": "a1.1^-1 x1"}), pres


@pytest.fixture(scope="session")
def toral_p():
    # fixture P: a toral automorphism of Z^2 * Z^2 * F_1 (p = 2, k = 1),
    # atoroidal and twin-free up to small bounds; g_1 = a2.2 and
    # g_2 = x1^-1 a2.2 a1.2^-1
    return make_aut(
        Presentation((2, 2), 1),
        {"a1.1": "a2.2 a1.1 a2.2^-1", "a1.2": "a2.2 a1.2 a2.2^-1",
         "a2.1": "x1^-1 a2.2 a1.2^-1 a2.1 a1.2 a2.2^-1 x1",
         "a2.2": "x1^-1 a2.2 a1.2^-1 a2.2 a1.2 a2.2^-1 x1",
         "x1": "a2.2 a1.2 a2.2^-1 x1"},
        {"a1.1": "x1 a2.2^-1 x1^-1 a1.1 x1 a2.2 x1^-1",
         "a1.2": "x1 a2.2^-1 x1^-1 a1.2 x1 a2.2 x1^-1",
         "a2.1": "x1 a2.1 x1^-1", "a2.2": "x1 a2.2 x1^-1",
         "x1": "a1.2^-1 x1"})


@pytest.fixture(scope="session")
def toral_q():
    # fixture Q: a toral automorphism of Z * Z * F_1, a smaller one of the
    # kind of P; g_1 = 1 and g_2 = a2.1 x1 a2.1^-1 a1.1^-1
    return make_aut(
        Presentation((1, 1), 1),
        {"a1.1": "a1.1",
         "a2.1": "a2.1 x1 a2.1^-1 a1.1^-1 a2.1 a1.1 a2.1 x1^-1 a2.1^-1",
         "x1": "a2.1 x1 a2.1^-1 a1.1^-1"},
        {"a1.1": "a1.1", "a2.1": "x1^-1 a2.1 x1",
         "x1": "x1^-1 a2.1^-1 x1^2 a1.1 x1^-1 a2.1 x1"})


@pytest.fixture(scope="session")
def identity_z2z2(z2z2):
    from fpaut import identity_automorphism
    return identity_automorphism(z2z2)


def random_word(pres, rng, max_syllables=6, max_exp=3):
    """Random normal-form word; may be empty."""
    raw = []
    n = rng.randrange(max_syllables + 1)
    for _ in range(n):
        kinds = []
        if pres.num_factors:
            kinds.append("a")
        if pres.free_rank:
            kinds.append("x")
        if rng.choice(kinds) == "a":
            i = rng.randrange(1, pres.num_factors + 1)
            vec = tuple(rng.randint(-max_exp, max_exp)
                        for _ in range(pres.factor_rank(i)))
            raw.append(FactorSyllable(i, vec))
        else:
            l = rng.randrange(1, pres.free_rank + 1)
            raw.append(FreeSyllable(l, rng.randint(-max_exp, max_exp)))
    return reduce_syllables(raw, pres)


@pytest.fixture
def rng():
    return random.Random(20240817)
