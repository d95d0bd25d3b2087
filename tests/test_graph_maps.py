import hashlib
import itertools
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpaut import (EdgePath, Presentation, Word, apply_power,
                   bounded_cancellation_constant, build_standard_map,
                   check_train_track, constants_report, double_coset_rep,
                   gate_structure, identity_automorphism, multiply,
                   nielsen_search, parse_word, render_word,
                   transition_matrix, twin_search)
from fpaut import verify
from fpaut.cli import COMMANDS, JobConfig, canonical_json, to_jsonable
from fpaut.errors import FactorsPermuted
from fpaut import graph_maps
from fpaut.dynamics import _leading_factor_part, _vectors_of_mass
from fpaut.graph_maps import (BASE, GraphMap, _degenerate, _precedes_reverse,
                              _reverse_steps, base_directions, factor_vertex,
                              path_key, reduce_steps, spell, step_source,
                              step_target, vertex_key)
from fpaut.matrices import IntegerMatrix
from fpaut.words import FactorSyllable

from conftest import make_aut, random_word
from test_action import PRESENTATIONS, automorphisms_of
from test_verify import path_ends


@pytest.fixture(scope="module")
def fib_map(fibonacci):
    return build_standard_map(fibonacci)


@pytest.fixture(scope="module")
def twist_map(toral_twist):
    return build_standard_map(toral_twist)


def test_build_identity(z2z2):
    m = build_standard_map(identity_automorphism(z2z2))
    assert m.base_images[("t", 1)] == (("t", 1),)
    assert m.lipschitz == 1


def test_build_fibonacci(fib_map):
    assert fib_map.base_images[("x", 1, 1)] == (("x", 1, 1), ("x", 2, 1))
    assert fib_map.base_images[("x", 2, 1)] == (("x", 1, 1),)
    assert fib_map.lipschitz == 2


def test_build_twist(twist_map):
    assert twist_map.base_images[("t", 2)] == \
        (("t", 1), ("T", 1, (1, 0)), ("t", 2))


def test_build_requires_identity_permutation():
    pres = Presentation((2, 2), 0)
    images = {"a1.1": "a2.1", "a1.2": "a2.2", "a2.1": "a1.1", "a2.2": "a1.2"}
    phi = make_aut(pres, images, images)
    with pytest.raises(FactorsPermuted):
        build_standard_map(phi)


def test_spell_and_reduce(z2z2):
    w = parse_word("a1.1 a2.1 a1.1^-1", z2z2)
    steps = spell(w)
    assert len(steps) == 6
    assert reduce_steps(steps) == steps
    assert EdgePath(z2z2, BASE, steps).word() == w
    assert reduce_steps(spell(w) + spell(w.inverse())) == ()


def test_reduce_steps_decoration_merge():
    # t1 . (a) . t1-back . t1 . (b) : the excursion folds into a+b
    steps = (("t", 1), ("T", 1, (1, 0)), ("t", 1), ("T", 1, (2, 1)))
    assert reduce_steps(steps) == (("t", 1), ("T", 1, (3, 1)))
    # and cancels entirely when a + b = 0
    steps = (("t", 1), ("T", 1, (1, 0)), ("t", 1), ("T", 1, (-1, 0)))
    assert reduce_steps(steps) == ()


def test_reverse_path_round_trip(z2z2, rng):
    for _ in range(40):
        w = random_word(z2z2, rng)
        if not w:
            continue
        steps = spell(w)
        rev = _reverse_steps(z2z2, steps)
        assert reduce_steps(rev) == rev
        assert EdgePath(z2z2, step_target(steps[-1]), rev).word() == w.inverse()
        assert reduce_steps(steps + rev) == ()
        assert _reverse_steps(z2z2, rev) == steps


def test_transition_matrices(fib_map, twist_map, z2z2):
    assert transition_matrix(fib_map) == IntegerMatrix(((1, 1), (1, 0)))
    assert transition_matrix(twist_map) == IntegerMatrix(((1, 0), (2, 1)))
    ident = build_standard_map(identity_automorphism(z2z2))
    assert transition_matrix(ident) == IntegerMatrix.identity(2)


def test_transition_substitution_count(free2):
    phi = make_aut(free2, {"x1": "x1 x2 x1", "x2": "x1 x2"},
                   {"x1": "x2^-1 x1", "x2": "x1^-1 x2 x2"})
    m = build_standard_map(phi)
    assert transition_matrix(m) == IntegerMatrix(((2, 1), (1, 1)))


def test_gates_fibonacci(fib_map):
    gates = gate_structure(fib_map, 4)
    assert gates.stable
    got = sorted(sorted(g) for g in gates.base_gates)
    assert got == [[("x", 1, -1)], [("x", 1, 1), ("x", 2, 1)], [("x", 2, -1)]]
    assert fib_map.direction_map(("x", 2, 1)) == ("x", 1, 1)
    assert fib_map.direction_map(("x", 1, -1)) == ("x", 2, -1)
    assert fib_map.direction_map(("x", 2, -1)) == ("x", 1, -1)


def test_gates_identity_all_singletons(z2z2):
    m = build_standard_map(identity_automorphism(z2z2))
    gates = gate_structure(m, 3)
    assert all(len(g) == 1 for g in gates.base_gates)


def test_gate_depth_monotone(fib_map):
    # same gate at depth d stays the same gate at depth d+1
    for d in (1, 2, 3):
        g1 = gate_structure(fib_map, d)
        g2 = gate_structure(fib_map, d + 1)
        for gate in g1.base_gates:
            for a in gate:
                for b in gate:
                    assert g2.same_gate(a, b)


def test_train_track_verdicts(fib_map, twist_map, z2z2, tribonacci):
    assert check_train_track(fib_map, 4).status == "holds"
    ident = build_standard_map(identity_automorphism(z2z2))
    assert check_train_track(ident, 3).status == "holds"
    assert check_train_track(build_standard_map(tribonacci), 6).status == "holds"
    # the twist unwinds through the factor vertex: f(t_2) starts with t_1,
    # as does f(t_1), so the image turn collapses under f^2 -- genuinely
    # not a train track map (Dehn-twist behaviour)
    verdict = check_train_track(twist_map, 8)
    assert verdict.status == "violated"
    assert verdict.witness[0] == "illegal image turn"


def test_train_track_violated(free2):
    # x -> xy, y -> x^-1: every direction is eventually absorbed into e_x,
    # so the turn inside f(e_x) collapses under iteration (f^4(x) cancels)
    phi = make_aut(free2, {"x1": "x1 x2", "x2": "x1^-1"},
                   {"x1": "x2^-1", "x2": "x2 x1"})
    m = build_standard_map(phi)
    assert check_train_track(m, 6).status == "violated"
    # oracle: some iterate of the edge word strictly cancels
    from fpaut import apply
    image_letters = {1: 2, 2: 1}

    def letters(word):
        return sum(abs(s.exponent) for s in word.syllables)

    w = parse_word("x1", free2)
    cancelled = False
    for _ in range(6):
        expected = sum(abs(s.exponent) * image_letters[s.letter]
                       for s in w.syllables)
        w = apply(phi, w)
        if letters(w) < expected:
            cancelled = True
    assert cancelled


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_factor_gates_are_exact(data):
    # M_i is unimodular, so two directions at factor vertex i share a gate
    # only when their decorations are equal, at any depth and any decoration
    pres = data.draw(st.sampled_from(
        PRESENTATIONS + (Presentation((2, 2, 2), 0),)))
    phi = data.draw(automorphisms_of(pres))
    assume(phi.preserves_factor_classes)
    m = build_standard_map(phi)
    depth = graph_maps.default_gate_depth(pres)
    gates = check_train_track(m, depth).gates
    assert bounded_cancellation_constant(m, depth) >= 0
    for i in range(1, pres.num_factors + 1):
        vec = st.tuples(*[st.integers(-50, 50)] * pres.factor_rank(i))
        v = data.draw(vec)
        w = v if data.draw(st.booleans()) else data.draw(vec)
        assert gates.same_gate(("T", i, v), ("T", i, w)) == (v == w)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_gate_partition_stable_from_p_plus_2k_minus_1(data):
    # the keys K_d = Df^d(D) of the p + 2k base directions are nested and
    # shrink until Df is a bijection of K_d, so every depth from
    # p + 2k - 1 on is stable, and the default depth is above that
    pres = data.draw(st.sampled_from((
        Presentation((2, 2), 0), Presentation((2,), 1),
        Presentation((), 2), Presentation((), 3))))
    phi = data.draw(automorphisms_of(pres))
    assume(phi.preserves_factor_classes)
    m = build_standard_map(phi)
    bound = max(1, len(base_directions(pres)) - 1)
    assert graph_maps.default_gate_depth(pres) > bound
    assert gate_structure(m, bound).stable
    assert gate_structure(m, graph_maps.default_gate_depth(pres)).stable


def test_bounded_cancellation(fib_map, twist_map, z2z2):
    assert bounded_cancellation_constant(fib_map, 4) == 1
    ident = build_standard_map(identity_automorphism(z2z2))
    assert bounded_cancellation_constant(ident, 3) == 0


def test_cancellation_bound_on_random_concatenations(fib_map, free2, rng):
    from fpaut.graph_maps import step_target
    cf = bounded_cancellation_constant(fib_map, 4)
    for _ in range(200):
        w = random_word(free2, rng, max_syllables=8)
        path = EdgePath(free2, BASE, spell(w))
        if len(path.steps) < 2:
            continue
        cut = rng.randrange(1, len(path.steps))
        alpha = EdgePath(free2, BASE, path.steps[:cut])
        beta = EdgePath(free2, step_target(path.steps[cut - 1]), path.steps[cut:])
        fa = len(fib_map.apply_to_path(alpha).steps)
        fb = len(fib_map.apply_to_path(beta).steps)
        fw = len(fib_map.apply_to_path(path).steps)
        assert fw >= fa + fb - 2 * cf


def test_constants_report(fib_map, twist_map):
    rep = constants_report(fib_map, 4)
    golden = (1 + 5 ** 0.5) / 2
    assert abs(rep.growth.value - golden) < 1e-9
    assert rep.irreducible
    assert rep.cancellation == 1
    assert abs(rep.critical_constant - 2 / (golden - 1)) < 1e-6
    # growth eigenvector satisfies the rescaling property approximately
    t = transition_matrix(fib_map)
    v = rep.growth.eigenvector
    tv = [sum(t[i, j] * v[j] for j in range(2)) for i in range(2)]
    assert all(abs(tv[i] - rep.growth.value * v[i]) < 1e-6 for i in range(2))

    rep2 = constants_report(twist_map, 8)
    assert rep2.critical_constant is None  # growth rate 1


def test_irreducible_traintrack_implies_growth(fib_map, tribonacci):
    from fpaut.matrices import is_irreducible_matrix, pf_growth_rate
    for m in (fib_map, build_standard_map(tribonacci)):
        t = transition_matrix(m)
        if t.nrows >= 2 and is_irreducible_matrix(t) and \
                check_train_track(m, 6).status == "holds":
            assert pf_growth_rate(t).lower > 1


def test_nielsen_identity(z2z2):
    m = build_standard_map(identity_automorphism(z2z2))
    found = nielsen_search(m, 2, 2)
    assert found
    assert all(w.exponent == 1 and not w.element for w in found)


def test_nielsen_toral_twist(twist_map):
    found = nielsen_search(twist_map, 2, 2)
    inter = [w for w in found
             if w.path.start == factor_vertex(1)
             and w.path.steps == (("T", 1, (0, 0)), ("t", 2))]
    assert len(inter) == 1
    assert render_word(inter[0].element) == "a1.1"
    assert inter[0].exponent == 1


def test_nielsen_witness_is_rechecked_without_the_blocks(z2z2):
    # the path layer finds the witnesses of the identity; forward blocks
    # that wrongly invert every factor syllable of mass <= 2 must not reach
    # the word-level re-verification, which substitutes the image table
    phi = identity_automorphism(z2z2)
    for i in (1, 2):
        for v in itertools.product(range(-2, 3), repeat=2):
            if any(v):
                phi._forward[FactorSyllable(i, v)] = \
                    (FactorSyllable(i, tuple(-x for x in v)),)
    assert nielsen_search(build_standard_map(phi), 2, 2) == nielsen_search(
        build_standard_map(identity_automorphism(z2z2)), 2, 2)


def test_nielsen_none_for_anosov_loops(intro_anosov):
    m = build_standard_map(intro_anosov)
    found = nielsen_search(m, 2, 2)
    # the Anosov matrices fix no decoration, so no decorated excursion is
    # Nielsen; only the bare edges toward the factor vertices survive
    for w in found:
        assert all(step[0] != "T" or not any(step[2]) for step in w.path.steps)


def _enumerate_paths(pres, len_bound):
    """(start, steps) of the paths `nielsen_search` tests, in its order: the
    reduced paths with 1..len_bound steps, a factor start leaving with
    decoration 0 and later decorations of L1 mass <= len_bound, and of a
    path and its reverse (first decoration set to 0) only the smaller in
    (vertex_key, path_key) order.  A recursive walk, written apart from the
    search's own loop."""
    vecs = {i: sorted(v for mass in range(len_bound + 1)
                      for v in _vectors_of_mass(pres.factor_rank(i), mass))
            for i in range(1, pres.num_factors + 1)}

    def departures(at, first):
        if at == BASE:
            return base_directions(pres)
        i = at[1]
        if first:
            return [("T", i, (0,) * pres.factor_rank(i))]
        return [("T", i, vec) for vec in vecs[i]]

    def walk(start, steps):
        at = step_target(steps[-1]) if steps else start
        for step in departures(at, not steps):
            if steps and _degenerate(steps[-1], step):
                continue
            path = steps + (step,)
            if _precedes_reverse(pres, start, path, step_target(step)):
                yield start, path
            if len(path) < len_bound:
                yield from walk(start, path)

    for start in [BASE] + [factor_vertex(i)
                           for i in range(1, pres.num_factors + 1)]:
        yield from walk(start, ())


def _brute_force_paths(pres, len_bound):
    """_enumerate_paths by filtering every step sequence, in the same order."""
    starts = [BASE] + [factor_vertex(i) for i in range(1, pres.num_factors + 1)]
    alphabet = [("t", i) for i in range(1, pres.num_factors + 1)]
    for l in range(1, pres.free_rank + 1):
        alphabet += [("x", l, 1), ("x", l, -1)]
    for i in range(1, pres.num_factors + 1):
        vecs = itertools.product(range(-len_bound, len_bound + 1),
                                 repeat=pres.factor_rank(i))
        alphabet += [("T", i, v) for v in vecs
                     if sum(map(abs, v)) <= len_bound]

    def chains(start, steps):
        at = start
        for step in steps:
            if step_source(step) != at:
                return False
            at = step_target(step)
        return True

    def rank(step):  # the order in which the enumerator tries steps
        if step[0] == "t":
            return (0, step[1])
        if step[0] == "x":
            return (1, step[1], -step[2])
        return (2, step[1], step[2])

    found = []
    for start in starts:
        for n in range(1, len_bound + 1):
            for steps in itertools.product(alphabet, repeat=n):
                if not chains(start, steps):
                    continue
                if start != BASE and any(steps[0][2]):
                    continue
                if any(_degenerate(a, b) for a, b in zip(steps, steps[1:])):
                    continue
                end = EdgePath(pres, start, steps).end_vertex()
                rev_steps = _reverse_steps(pres, steps)
                if end != BASE:
                    first = rev_steps[0]
                    rev_steps = (("T", first[1], (0,) * len(first[2])),) \
                        + rev_steps[1:]
                if (vertex_key(start), path_key(steps)) <= \
                        (vertex_key(end), path_key(rev_steps)):
                    found.append((start, steps))
    found.sort(key=lambda p: (starts.index(p[0]), tuple(map(rank, p[1]))))
    return found


@pytest.mark.parametrize("ranks, free_rank, len_bound", [
    ((), 2, 4), ((), 3, 3), ((2,), 1, 3), ((2, 2), 0, 3), ((2, 3), 0, 2)],
    ids=["free2", "free3", "z2_free1", "z2z2", "z2z3"])
def test_enumerate_paths_matches_brute_force(ranks, free_rank, len_bound):
    pres = Presentation(ranks, free_rank)
    got = list(_enumerate_paths(pres, len_bound))
    assert got == _brute_force_paths(pres, len_bound)


# sha256 of the canonical ``result`` block of each command, pinned before the
# path layer moved to step tuples; the reports must not change
RESULT_DIGESTS = {
    "nielsen-fib": "3afecd31e25b4ca39771c35f7ad519693d461de315c6843f4958afb4a730f8f4",
    "nielsen-trib": "3afecd31e25b4ca39771c35f7ad519693d461de315c6843f4958afb4a730f8f4",
    "nielsen-intro": "797fd7a27c01f2a9bcf74ca42a11b53448594842f37ff5219946e67b14163959",
    "nielsen-twist": "cfaf598fa7fa1962a0bd560a287cb7e4f667031287c8c34d8a29f2db080eda92",
    "nielsen-mixed": "daa4b6ec5cca4efe8709f3f1024658a3bb70747c3f1b000bc93aaa62ad7cfe8c",
    "nielsen-intro-4-2": "797fd7a27c01f2a9bcf74ca42a11b53448594842f37ff5219946e67b14163959",
    "nielsen-trib-6-4": "3afecd31e25b4ca39771c35f7ad519693d461de315c6843f4958afb4a730f8f4",
    "nielsen-twist-4-3": "b365e13489ec4a980545c99689ecfac0f583d1d909fc1fff7f38ddcda6681d52",
    "constants-fib": "96de3ca782273be8309021cc836c0f5fd75e76bd29c03da150905427342bec46",
    "constants-trib": "2f218718dcc16089b0318272ed72fd8160251fa55ad82387ae83d55e918b0e07",
    "constants-intro": "175c5e25d4789e556cd14bef93c93d70151152b797ec1009c61d7e05261d233c",
    "constants-twist": "98de40a0748d69189b8cad109d5946240e2b567fea5f78eb3253ee2a1e4b951f",
    "constants-mixed": "98de40a0748d69189b8cad109d5946240e2b567fea5f78eb3253ee2a1e4b951f",
    "traintrack-fib": "89a2490110aac481fe08113d0e2e2498c01714486513cefc9c1078ffc684c55f",
    "traintrack-trib": "21792c8eddc13cacd9fc35213c70085348c5f5a3d6160b4b5345f394e458485d",
    "traintrack-intro": "cc22f40f98a952adae1f2786a9c52fbd35dd7519b84c8cfe80caaaee37fde51a",
    "traintrack-twist": "a2a99c5d6b21f72954bdb6cdaa35c5b321bddc7033c4a32a8d800b883f05d667",
    "traintrack-mixed": "0468a6b86d01429c27d933814eb0fdb1bae5c79a837bce368f21f96361fe7299",
}

FIXTURES = {"fib": "fibonacci", "trib": "tribonacci", "intro": "intro_anosov",
            "twist": "toral_twist", "mixed": "mixed", "P": "toral_p",
            "Q": "toral_q"}


@pytest.mark.parametrize("job", sorted(RESULT_DIGESTS))
def test_path_layer_reports_are_pinned(request, job):
    command, name, *bounds = job.split("-")
    phi = request.getfixturevalue(FIXTURES[name])
    if name == "mixed":
        phi = phi[0]
    overrides = dict(zip(("max_len", "max_iter"), map(int, bounds)))
    cfg = JobConfig(command, bounds={**COMMANDS[command].bounds, **overrides})
    result = COMMANDS[command].runner(cfg, phi)
    digest = hashlib.sha256(
        canonical_json(to_jsonable(result)).encode()).hexdigest()
    assert digest == RESULT_DIGESTS[job]


def test_nielsen_search_builds_paths_only_for_witnesses(monkeypatch,
                                                        tribonacci):
    m = build_standard_map(tribonacci)
    built = []
    check = EdgePath.__post_init__

    def counting(path):
        built.append(path)
        check(path)
    monkeypatch.setattr(EdgePath, "__post_init__", counting)
    found = nielsen_search(m, 6, 4)
    assert len(built) <= len(found) + 16
    # the counter sees the public constructor, so the guard is not vacuous
    before = len(built)
    pres = tribonacci.presentation
    EdgePath(pres, BASE, spell(parse_word("x1 x2", pres)))
    assert len(built) == before + 1


@pytest.fixture(scope="module")
def involution():
    # Z^2 * F_1: A_1 -> x1 A_1 x1^-1, x1 -> a1.1 x1^-1.  f^2 of the edge
    # toward the factor vertex ends in a cancelled excursion, so the image
    # of that one step leaves a pending decoration for the next one.
    pres = Presentation((2,), 1)
    table = {"a1.1": "x1 a1.1 x1^-1", "a1.2": "x1 a1.2 x1^-1",
             "x1": "a1.1 x1^-1"}
    return make_aut(pres, table, table)


def _tested_nodes(monkeypatch, m, len_bound, exp_bound):
    """(start, steps, images) of every path that `nielsen_search` tests."""
    seen = []
    test = graph_maps._nielsen_test

    def spy(m_, start, steps, images):
        seen.append((start, tuple(steps), [tuple(i) for i in images]))
        return test(m_, start, steps, images)
    monkeypatch.setattr(graph_maps, "_nielsen_test", spy)
    nielsen_search(m, len_bound, exp_bound)
    return seen


def _closes(start, steps, image):
    """Does an image meet the Nielsen relation [f^n(path)] = g . path: the
    same steps from a base start, as many steps and the same ones past the
    first from a factor start?"""
    if start == BASE:
        return image == steps
    return len(image) == len(steps) and image[1:] == steps[1:]


@pytest.mark.parametrize("name, len_bound, exp_bound", [
    ("involution", 4, 3), ("mixed", 4, 3), ("toral_twist", 4, 3),
    ("intro_anosov", 3, 3), ("fibonacci", 5, 3), ("tribonacci", 6, 4),
    ("toral_p", 3, 3), ("toral_q", 4, 3)])
def test_nielsen_images_equal_images_from_scratch(monkeypatch, request, name,
                                                 len_bound, exp_bound):
    # the search tests the enumerated paths in order, each with the images
    # computed from scratch; it may leave out only leaves that the junction
    # bound rules out, and those close for no power
    phi = request.getfixturevalue(name)
    if name == "mixed":
        phi = phi[0]
    m = build_standard_map(phi)
    seen = iter(_tested_nodes(monkeypatch, m, len_bound, exp_bound))
    tested = next(seen, None)
    for start, steps in _enumerate_paths(phi.presentation, len_bound):
        images, image = [], steps
        for _ in range(exp_bound):
            image = m.image_steps(image)
            images.append(image)
        if tested is not None and tested[:2] == (start, steps):
            assert tested[2] == images, (start, steps)
            tested = next(seen, None)
            continue
        assert len(steps) == len_bound, (start, steps)
        assert not any(_closes(start, steps, i) for i in images), \
            (start, steps)
    assert tested is None


def test_nielsen_search_is_a_loop_not_a_recursion():
    # on F_1 every reduced path x1^n is Nielsen for x1 -> x1^-1 (f^2 = id):
    # 300 of them, each one step deeper than the last, under a recursion
    # limit far below 300
    pres = Presentation((), 1)
    m = build_standard_map(make_aut(pres, {"x1": "x1^-1"}, {"x1": "x1^-1"}))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        found = nielsen_search(m, 300, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert len(found) == 300


def test_nielsen_search_needs_a_positive_length_bound(fib_map):
    # the leaves are the paths of len_bound steps, so below 1 there are none
    # to stop the walk at
    with pytest.raises(ValueError):
        nielsen_search(fib_map, 0, 2)


def test_involution_image_of_one_step_keeps_its_pending(involution):
    m = build_standard_map(involution)
    once = m.image_state((("t", 1),))
    assert once == ((("x", 1, 1), ("t", 1)), None)
    assert m.image_state(once[0]) == ((("t", 1),), (1, (1, 0)))


@pytest.fixture(scope="module")
def fixture_maps(request):
    names = ("involution", "mixed", "toral_twist", "intro_anosov",
             "fibonacci", "tribonacci", "toral_p", "toral_q")
    maps = {}
    for name in names:
        phi = request.getfixturevalue(name)
        maps[name] = build_standard_map(phi[0] if name == "mixed" else phi)
    return maps


def _iterated_state(m, steps, n):
    """The reduction state of f^n(steps), each image taken of the last
    image's steps followed by its pending excursion."""
    state = ((), None)
    seq = tuple(steps)
    for _ in range(n):
        state = m.image_state(seq)
        seq = state[0] + graph_maps._pending_steps(state[1])
    return state


def _draw_path(data, pres):
    """(start, steps) of a reduced path of 1 to 7 steps from a drawn
    vertex, its decorations in -2..2."""
    vertices = [BASE] + [factor_vertex(i)
                         for i in range(1, pres.num_factors + 1)]
    start = at = data.draw(st.sampled_from(vertices))
    steps = []
    for _ in range(data.draw(st.integers(0, 6)) + 1):
        if at == BASE:
            choices = base_directions(pres)
        else:
            vec = st.tuples(*[st.integers(-2, 2)] * pres.factor_rank(at[1]))
            choices = [("T", at[1], data.draw(vec))]
        choices = [c for c in choices
                   if not (steps and _degenerate(steps[-1], c))]
        if not choices:  # the one drawn decoration backtracks
            break
        steps.append(data.draw(st.sampled_from(choices)))
        at = step_target(steps[-1])
    return start, steps


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_feeding_a_block_moves_only_its_length_of_steps(fixture_maps, data):
    # the junction bound `nielsen_search` rules leaves out by: feeding k
    # steps onto a reduced state keeps out[:len(out) - k] and ends with a
    # length in [len(out) - k, len(out) + k]
    m = fixture_maps[data.draw(st.sampled_from(sorted(fixture_maps)))]
    *path, step = _draw_path(data, m.presentation)[1]
    n = data.draw(st.integers(1, 3))
    out, pending = _iterated_state(m, path, n)
    block, block_pending = _iterated_state(m, (step,), n)
    fed = block + graph_maps._pending_steps(block_pending)
    k = len(fed)
    after = list(out)
    graph_maps._feed(after, pending, fed)
    kept = max(len(out) - k, 0)
    assert after[:kept] == list(out[:kept])
    assert len(out) - k <= len(after) <= len(out) + k


def _block(m, step, n):
    """The fed steps of f^n(step), as `nielsen_search` joins them: the
    reduced image followed by its pending excursion."""
    block, pending = _iterated_state(m, (step,), n)
    return tuple(block) + graph_maps._pending_steps(pending)


def _junction_bound_rules_out(states, lengths, steps, skip):
    """The junction bound leaf by leaf: does it rule out [f^n(steps)] =
    g . steps for every n?  ``states[n-1]`` is the reduction state of
    f^n(steps[:-1]) and ``lengths[n-1]`` the number of fed steps of
    f^n(steps[-1]); a witness needs an image of len(steps) steps that
    agrees with ``steps`` past its first ``skip``."""
    size = len(steps)
    for (out, _), k in zip(states, lengths):
        kept = len(out) - k
        if kept > size or len(out) + k < size:
            continue
        if kept <= skip or list(out[skip:kept]) == list(steps[skip:kept]):
            return False
    return True


def _bars_agree(states, lengths, steps, skip):
    """Is `_leaf_bars` the junction bound, power by power?  A bar above 0
    is reached by exactly the block lengths the bound leaves open, whatever
    the leaf; bar 0 only where the exact clause can hold: the bound leaves
    open the leaf the image has at len(steps) - 1, with the block that
    keeps len(steps) steps."""
    prefix, size = steps[:-1], len(steps)
    bars = graph_maps._leaf_bars(states, prefix, skip)
    for state, k, bar in zip(states, lengths, bars, strict=True):
        out = state[0]
        if bar > 0:
            if (k >= bar) == _junction_bound_rules_out([state], [k], steps,
                                                       skip):
                return False
        elif len(out) < size or _junction_bound_rules_out(
                [state], [len(out) - size], (*prefix, out[size - 1]), skip):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leaf_bars_equal_the_junction_bound_on_images(fixture_maps, data):
    # the bars of `nielsen_search`'s frame skip on the states and block
    # lengths the search meets
    m = fixture_maps[data.draw(st.sampled_from(sorted(fixture_maps)))]
    start, steps = _draw_path(data, m.presentation)
    exp_bound = data.draw(st.integers(1, 3))
    states = [_iterated_state(m, steps[:-1], n)
              for n in range(1, exp_bound + 1)]
    lengths = [len(_block(m, steps[-1], n))
               for n in range(1, exp_bound + 1)]
    assert _bars_agree(states, lengths, steps, 0 if start == BASE else 1)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_leaf_bars_equal_the_junction_bound(data):
    # images that agree with the path for a drawn number of steps and then
    # go on, with any block lengths, half of them the one that keeps
    # exactly len(steps): the states where the bound leaves a power open,
    # also by the exact clause, are common here
    steps = data.draw(st.lists(st.sampled_from(
        [("x", 1, 1), ("x", 1, -1), ("x", 2, 1)]), min_size=1, max_size=6))
    other = ("x", 3, 1)
    states, lengths = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        agree = data.draw(st.integers(0, len(steps)))
        more = data.draw(st.lists(st.sampled_from(steps + [other]),
                                  max_size=3))
        out = steps[:agree] + more
        states.append((out, None))
        exact = max(len(out) - len(steps), 0)  # kept == len(steps)
        lengths.append(data.draw(st.one_of(
            st.just(exact), st.integers(0, len(out) + len(steps) + 1))))
    skip = data.draw(st.integers(0, 1))
    assert _bars_agree(states, lengths, steps, skip)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_path_or_its_reverse_is_canonical_never_both(fixture_maps, data):
    # so `nielsen_search` tests each path orbit once.  No reduced path
    # equals its reverse, so `_precedes_reverse` never reaches its final
    # `return True`: the middle step of an odd path would equal itself run
    # backwards (x_l flips its sign, t and T swap), and the middle two
    # steps of an even path would backtrack, the second along the first.
    m = fixture_maps[data.draw(st.sampled_from(sorted(fixture_maps)))]
    pres = m.presentation
    start, steps = _draw_path(data, pres)
    if start != BASE:  # normalised: a factor start leaves along 0
        steps[0] = ("T", start[1], (0,) * pres.factor_rank(start[1]))
    end = step_target(steps[-1])
    back = _reverse_steps(pres, steps)
    assert len(back) == len(steps)
    assert _reverse_steps(pres, back) == tuple(steps)
    assert _precedes_reverse(pres, start, steps, end) != \
        _precedes_reverse(pres, end, back, start)


def test_nielsen_search_images_each_step_once(monkeypatch, tribonacci):
    m = build_standard_map(tribonacci)
    calls = []
    for name in ("image_state", "image_steps"):
        method = getattr(GraphMap, name)

        def counting(self, steps, method=method, name=name):
            calls.append(name)
            return method(self, steps)
        monkeypatch.setattr(GraphMap, name, counting)
    reverse = graph_maps._reverse_steps

    def counting_reverse(pres, steps):
        calls.append("reverse")
        return reverse(pres, steps)
    monkeypatch.setattr(graph_maps, "_reverse_steps", counting_reverse)
    nielsen_search(m, 6, 4)
    distinct = {step for _, steps in _enumerate_paths(m.presentation, 6)
                for step in steps}
    assert "reverse" not in calls
    assert len(calls) <= len(distinct) * 4
    # the counters see both methods and the reversal, so the guard is not
    # vacuous
    del calls[:]
    m.image_steps((("x", 1, 1),))
    graph_maps._reverse_steps(
        m.presentation, spell(parse_word("x1 x2", m.presentation)))
    assert calls == ["image_steps", "image_state", "reverse"]


def _frame_kept(states, tops, steps, skip):
    """Does the junction bound (`_junction_bound_rules_out`) keep the frame
    of the leaves after steps[:-1], as `nielsen_search` skips frames: does
    it leave some power open for the leaf steps[-1] with the longest block
    ``tops[n-1]``, or for the leaf the image has at len(steps) - 1 with the
    block that keeps len(steps) steps?"""
    prefix, size = steps[:-1], len(steps)
    for state, top in zip(states, tops):
        out = state[0]
        if not _junction_bound_rules_out([state], [top], steps, skip):
            return True
        if len(out) >= size and not _junction_bound_rules_out(
                [state], [len(out) - size], (*prefix, out[size - 1]), skip):
            return True
    return False


def test_nielsen_search_skips_ruled_out_frames_by_length(monkeypatch,
                                                         tribonacci):
    # on tribonacci 6/4 the leaves after a prefix reach neither the
    # canonicity check nor a join unless the junction bound keeps the
    # prefix's frame: the search reads the bars of each of the 3,750
    # prefixes of 5 steps once, checks the 4,686 shorter paths and the
    # leaves of the 59 kept frames, and joins the images of the shorter
    # paths and of the canonical leaves of the kept frames
    m = build_standard_map(tribonacci)
    pres = tribonacci.presentation
    len_bound, exp_bound = 6, 4
    lengths = {step: [len(_block(m, step, n))
                      for n in range(1, exp_bound + 1)]
               for step in base_directions(pres)}
    inner, leaves, canonical, tested_leaves = 0, 0, 0, 0
    frames, kept = set(), set()  # the prefixes of the leaves
    prefixes = [()]
    while prefixes:
        prefix = prefixes.pop()
        states, seq = [], prefix
        for _ in range(exp_bound):
            states.append(m.image_state(seq))
            seq = states[-1][0] + graph_maps._pending_steps(states[-1][1])
        children = [step for step in base_directions(pres)
                    if not (prefix and _degenerate(prefix[-1], step))]
        tops = [max(col) for col in zip(*(lengths[d] for d in children))]
        for step in children:
            path = prefix + (step,)
            if len(path) < len_bound:
                inner += 1
                prefixes.append(path)
                continue
            leaves += 1
            is_canonical = _precedes_reverse(pres, BASE, path, BASE)
            canonical += is_canonical
            frames.add(prefix)
            if _frame_kept(states, tops, path, 0):
                kept.add(prefix)
                tested_leaves += is_canonical
    assert (inner, leaves, canonical) == (4686, 18750, 9375)
    assert (len(frames), len(kept), tested_leaves) == (3750, 59, 167)

    calls = Counter()
    for name in ("_precedes_reverse", "_join", "_leaf_bars"):
        real = getattr(graph_maps, name)

        def counting(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(graph_maps, name, counting)
    assert nielsen_search(m, len_bound, exp_bound) == []
    children = len(base_directions(pres)) - 1  # all but the backtrack
    looked_at = children * len(kept)
    assert looked_at < leaves // 50
    expected = {"_leaf_bars": len(frames),
                "_precedes_reverse": inner + looked_at,
                "_join": exp_bound * (inner + tested_leaves)}
    assert calls == expected
    # the counters see all three functions, so the guard is not vacuous
    graph_maps._precedes_reverse(pres, BASE, (("x", 1, 1),), BASE)
    graph_maps._join(((), None), (("x", 1, 1),))
    graph_maps._leaf_bars([((), None)], [], 0)
    assert calls == {name: count + 1 for name, count in expected.items()}


def _twin_as_path(phi, witness):
    """(path, n, g) of the factor-to-factor Nielsen path that a twin witness
    ((u, i), (v, j), m, g) is: phi^m twins uA_iu^-1 and vA_jv^-1 by g
    exactly when f^m carries the tree path between the vertices they fix,
    u.v_i and v.v_j, to its g-translate.  Translating by u^-1 leaves the
    pair (A_i, wA_jw^-1), w = u^-1 v, twinned by phi^m(u)^-1 g u; a
    further translation by the leading A_i syllable a of w makes the path
    leave v_i along decoration 0, and a trailing A_j syllable of w moves
    no vertex."""
    pres = phi.presentation
    i, j, m = witness["factor_i"], witness["factor_j"], witness["power"]
    u, g = witness["conj_u"], witness["element"]
    w = multiply(u.inverse(), witness["conj_v"])
    rest = double_coset_rep(i, w, j)  # a^-1 w with its A_j tail dropped
    ua = multiply(u, _leading_factor_part(w, i))
    g = multiply(multiply(apply_power(phi, m, ua).inverse(), g), ua)
    steps = (("T", i, (0,) * pres.factor_rank(i)),) + spell(rest) \
        + (("t", j),)
    return EdgePath(pres, factor_vertex(i), steps), m, g


def _moved_witnesses(phi, witness):
    """The twin witness written three more ways, each with the same
    translated path and element: with a trailing A_j syllable b on v (the
    same subgroup), translated by a syllable t of A_i ((tu, i), (tv, j),
    phi^m(t) g t^-1), and translated by utu^-1, which fixes uA_iu^-1 and so
    moves only v."""
    pres = phi.presentation
    i, j, m = witness["factor_i"], witness["factor_j"], witness["power"]
    u, v, g = witness["conj_u"], witness["conj_v"], witness["element"]

    def syllable(k):
        return Word(pres, (FactorSyllable(k, (1,) + (0,) * (
            pres.factor_rank(k) - 1)),))

    def moved(c, u):  # translated by c, whose first descriptor is (u, i)
        image = apply_power(phi, m, c)
        return {**witness, "conj_u": u, "conj_v": multiply(c, v),
                "element": multiply(multiply(image, g), c.inverse())}
    t = syllable(i)
    return [{**witness, "conj_v": multiply(v, syllable(j))},
            moved(t, multiply(t, u)),
            moved(multiply(multiply(u, t), u.inverse()), u)]


# Twins and factor-to-factor Nielsen paths are two searches for one
# hypothesis of the paper, so each witness of one, translated, must pass the
# other's re-verification (`verify`).  Bounds: `twins` at power M and
# conj-len C tests every pair (A_i, wA_jw^-1) with w = u^-1 v, u and v of at
# most C syllables and exponent mass each, m <= M; a factor-to-factor path
# of L steps spells w between its first step (T_i 0) and its last (t_j),
# each factor syllable of w taking two steps and each free letter one.
# Paths of at most 3 steps spell w = 1 or one free letter, so `nielsen`
# 3/N is covered by `twins` N/C for every C >= 1: a factor-to-factor path
# it finds makes `twins` find a pair, and `twins` exhausted means no such
# path.  The other way needs longer paths (the twist pair below is a
# 4-step path), so it is checked witness by witness only.
@pytest.mark.parametrize("name, twins, twin_path, paths", [
    ("intro_anosov", (2, 2), (("T", 1, (0, 0)), ("t", 2)),
     [(("T", 1, (0, 0)), ("t", 2))]),
    ("mixed", (2, 2), (("T", 1, (0, 0)), ("x", 1, -1), ("t", 1)),
     [(("T", 1, (0, 0)), ("x", 1, -1), ("t", 1))]),
    ("toral_twist", (2, 2),
     (("T", 1, (0, 0)), ("t", 2), ("T", 2, (-2, 0)), ("t", 1)),
     [(("T", 1, (0, 0)), ("t", 2))]),
    ("toral_p", (2, 1), None, [])])
def test_twins_and_factor_nielsen_paths_check_each_other(request, name, twins,
                                                          twin_path, paths):
    phi = request.getfixturevalue(name)
    if name == "mixed":
        phi = phi[0]
    rep = twin_search(phi, *twins)
    found = [w for w in nielsen_search(build_standard_map(phi), 3, 2)
             if w.path.start != BASE and w.path.end_vertex() != BASE]
    assert [w.path.steps for w in found] == paths
    for w in found:
        verify.vertices(phi, w.exponent, w.element, *path_ends(w.path))
    # nielsen 3/2 is covered by twins 2/C: its paths make twins find a pair
    assert rep.verdict == ("witness" if found else "exhausted")
    if twin_path is None:
        return
    path, m, g = _twin_as_path(phi, rep.witness)
    assert path.steps == twin_path
    verify.vertices(phi, m, g, *path_ends(path))
    for other in _moved_witnesses(phi, rep.witness):
        verify.vertices(phi, m, other["element"],
                        (other["conj_u"], other["factor_i"]),
                        (other["conj_v"], other["factor_j"]))
        assert _twin_as_path(phi, other) == (path, m, g)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_short_factor_nielsen_paths_imply_twins(data):
    # the bound translation above on random class-preserving phi: `nielsen`
    # 3/N finding a factor-to-factor path makes `twins` N/1 find a pair,
    # and each witness, as a pair of tree vertices, passes `verify.vertices`
    pres = data.draw(st.sampled_from(
        [p for p in PRESENTATIONS if p.num_factors]))
    phi = data.draw(automorphisms_of(pres))
    assume(phi.preserves_factor_classes)
    n = data.draw(st.integers(1, 2))
    found = [w for w in nielsen_search(build_standard_map(phi), 3, n)
             if BASE not in (w.path.start, w.path.end_vertex())]
    for w in found:
        verify.vertices(phi, w.exponent, w.element, *path_ends(w.path))
    rep = twin_search(phi, n, 1)
    if found:
        assert rep.verdict == "witness"
    if rep.verdict == "witness":
        path, m, g = _twin_as_path(phi, rep.witness)
        verify.vertices(phi, m, g, *path_ends(path))
