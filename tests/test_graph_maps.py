import hashlib
import itertools
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpaut import (EdgePath, Presentation, bounded_cancellation_constant,
                   build_standard_map, check_train_track, constants_report,
                   gate_structure, identity_automorphism, nielsen_search,
                   parse_word, render_word, transition_matrix)
from fpaut.cli import COMMANDS, JobConfig, canonical_json, to_jsonable
from fpaut.errors import FactorsPermuted
from fpaut import graph_maps
from fpaut.dynamics import _vectors_of_mass
from fpaut.graph_maps import (BASE, GraphMap, _degenerate, _precedes_reverse,
                              _reverse_steps, base_directions, factor_vertex,
                              path_key, reduce_steps, spell, step_source,
                              step_target, vertex_key)
from fpaut.matrices import IntegerMatrix
from fpaut.words import FactorSyllable

from conftest import make_aut, random_word
from test_action import PRESENTATIONS, automorphisms_of


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
    v = rep.growth_eigenvector
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


@pytest.mark.parametrize("name, len_bound, exp_bound", [
    ("involution", 4, 3), ("mixed", 4, 3), ("toral_twist", 4, 3),
    ("intro_anosov", 3, 3), ("fibonacci", 5, 3)])
def test_nielsen_images_equal_images_from_scratch(monkeypatch, request, name,
                                                 len_bound, exp_bound):
    phi = request.getfixturevalue(name)
    if name == "mixed":
        phi = phi[0]
    m = build_standard_map(phi)
    seen = _tested_nodes(monkeypatch, m, len_bound, exp_bound)
    assert [(start, steps) for start, steps, _ in seen] == \
        list(_enumerate_paths(phi.presentation, len_bound))
    for start, steps, images in seen:
        image = steps
        for n in range(exp_bound):
            image = m.image_steps(image)
            assert images[n] == image, (start, steps, n + 1)


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


def test_involution_image_of_one_step_keeps_its_pending(involution):
    m = build_standard_map(involution)
    once = m.image_state((("t", 1),))
    assert once == ((("x", 1, 1), ("t", 1)), None)
    assert m.image_state(once[0]) == ((("t", 1),), (1, (1, 0)))


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
