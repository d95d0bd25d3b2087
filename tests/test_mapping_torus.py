import hashlib
import itertools
import random
import warnings
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpaut import (BlockOrbitInstance, OrbitConstraint, Presentation,
                   abelianized_action, block_orbit_solve, compose,
                   conjugacy_pipeline, identity_automorphism, inverse,
                   mapping_torus_abelianization, parse_word, power, validate)
from fpaut.automorphisms import ad, generator_word, is_toral
from fpaut.cli import COMMANDS, JobConfig, canonical_json, to_jsonable
from fpaut.dynamics import enumerate_words
from fpaut.errors import (DimensionMismatch, PresentationMismatch,
                          SelfCheckFailed)
from fpaut.mapping_torus import (ConjugacyVerdict, _abelian_invariants,
                                 _factor_substitution_candidates,
                                 _inner_witness, _substitution_automorphism)
from fpaut.matrices import IntegerMatrix, determinant
from fpaut.words import FactorSyllable, Word

from conftest import make_aut, random_word
from test_action import automorphisms_of


def test_abelianized_action(fibonacci, toral_twist, identity_z2z2):
    assert abelianized_action(fibonacci) == IntegerMatrix(((1, 1), (1, 0)))
    # conjugation dies in the abelianization
    assert abelianized_action(toral_twist) == IntegerMatrix.identity(4)
    assert abelianized_action(identity_z2z2) == IntegerMatrix.identity(4)


def test_abelianized_action_functorial(toral_twist, z2z2, rng):
    for _ in range(5):
        g = random_word(z2z2, rng)
        psi = ad(g, z2z2)
        assert abelianized_action(compose(toral_twist, psi)) == \
            abelianized_action(toral_twist) * abelianized_action(psi)


def test_torus_abelianization_fibonacci(fibonacci):
    rep = mapping_torus_abelianization(fibonacci)
    assert rep.invariant_factors == (1, 1, 0)
    assert rep.torsion == ()
    assert rep.free_rank == 1  # the whole abelianization is Z


def test_torus_abelianization_identity_z2():
    pres = Presentation((2,), 0)
    rep = mapping_torus_abelianization(identity_automorphism(pres))
    assert rep.free_rank == 3  # Z^2 + the suspension Z
    assert rep.torsion == ()


def test_torus_abelianization_toral_twist(toral_twist):
    rep = mapping_torus_abelianization(toral_twist)
    assert rep.free_rank == 5  # Z^4 + Z
    assert rep.torsion == ()
    assert rep.generator_images["t"][-1] == 1


def test_torus_abelianization_invariance_under_inner(toral_twist, z2z2, rng):
    base = mapping_torus_abelianization(toral_twist).invariant_factors
    for _ in range(5):
        g = random_word(z2z2, rng)
        twisted = compose(ad(g, z2z2), toral_twist)
        assert mapping_torus_abelianization(twisted).invariant_factors == base


def test_torus_abelianization_with_torsion():
    # x -> x^2 is not an automorphism; build torsion via a 2x2 block instead:
    # A1-matrix [[0,1],[1,0]] has Phi - I = [[-1,1],[1,-1]], Smith (1, 0, ...)
    pres = Presentation((2,), 0)
    swap = make_aut(pres, {"a1.1": "a1.2", "a1.2": "a1.1"},
                    {"a1.1": "a1.2", "a1.2": "a1.1"})
    rep = mapping_torus_abelianization(swap)
    assert rep.invariant_factors == (1, 0, 0)
    # coker(Phi - I) = Z: abelianization Z^2 overall
    assert rep.free_rank == 2
    two = make_aut(pres, {"a1.1": "a1.1 a1.2^2", "a1.2": "a1.1^2 a1.2^3"},
                   {"a1.1": "a1.1^-3 a1.2^2", "a1.2": "a1.1^2 a1.2^-1"})
    rep2 = mapping_torus_abelianization(two)
    # Phi - I = [[0,2],[2,2]]: Smith form diag(2, 2)
    assert rep2.torsion == (2, 2)


@pytest.mark.parametrize("fixture", ["fibonacci", "intro_anosov",
                                     "toral_twist", "toral_q"])
def test_pipeline_torus_invariant_is_the_torus_abelianization(request, fixture):
    # the pipeline reads the torus factors off smith_at_1; the torus key is
    # compared, and so reported, first
    phi = request.getfixturevalue(fixture)
    inv = _abelian_invariants(phi)
    assert list(inv) == ["torus_invariant_factors", "char_poly",
                         *(f"smith_at_{c}" for c in range(-2, 3))]
    assert inv["torus_invariant_factors"] == \
        mapping_torus_abelianization(phi).invariant_factors


# --- block orbit solver -------------------------------------------------------

def test_orbit_identity_witness():
    inst = BlockOrbitInstance(1, 1, (OrbitConstraint((3, 4), (3, 4)),))
    v = block_orbit_solve(inst)
    assert v.status == "witness"
    assert v.matrix.apply((3, 4)) == (3, 4)


def test_orbit_spec_example():
    v = block_orbit_solve(BlockOrbitInstance(1, 1, (OrbitConstraint((0, 2), (4, 2)),)))
    assert v.status == "witness"
    assert v.matrix == IntegerMatrix(((1, 2), (0, 1)))


def test_orbit_content_obstruction():
    v = block_orbit_solve(BlockOrbitInstance(1, 1, (OrbitConstraint((0, 2), (0, 3)),)))
    assert v.status == "no_solution"


def test_orbit_zero_tail_forces_equality():
    v = block_orbit_solve(BlockOrbitInstance(1, 1, (OrbitConstraint((1, 0), (2, 0)),)))
    assert v.status == "no_solution"
    v = block_orbit_solve(BlockOrbitInstance(1, 1, (OrbitConstraint((1, 0), (1, 0)),)))
    assert v.status == "witness"


def test_orbit_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        BlockOrbitInstance(1, 1, (OrbitConstraint((1, 0, 0), (1, 0)),))


def test_orbit_block_shape():
    inst = BlockOrbitInstance(2, 2, (OrbitConstraint((1, 0, 2, 4), (5, 2, 4, 2)),))
    v = block_orbit_solve(inst)
    if v.status == "witness":
        m = v.matrix
        for r in range(2):
            for c in range(2):
                assert m[r, c] == (1 if r == c else 0)
        assert m[2, 0] == m[2, 1] == m[3, 0] == m[3, 1] == 0
        assert abs(determinant(IntegerMatrix(((m[2, 2], m[2, 3]),
                                              (m[3, 2], m[3, 3]))))) == 1


def test_orbit_multi_constraint_square_case():
    # two constraints pin U completely: U (1,0) = (0,1), U (0,1) = (1,0)
    c1 = OrbitConstraint((0, 1, 0), (0, 0, 1))
    c2 = OrbitConstraint((0, 0, 1), (0, 1, 0))
    v = block_orbit_solve(BlockOrbitInstance(1, 2, (c1, c2)))
    assert v.status == "witness"
    c3 = OrbitConstraint((0, 1, 0), (0, 2, 0))  # content mismatch
    v = block_orbit_solve(BlockOrbitInstance(1, 2, (c1, c3)))
    assert v.status == "no_solution"


def test_orbit_coset_target():
    # rho(0,1) must land in (5,1) + lattice spanned by (1,0):
    # U = 1, B = anything with B*1 ≡ 5 (mod 1)... the lattice absorbs w1
    inst = BlockOrbitInstance(
        1, 1, (OrbitConstraint((0, 1), (5, 1), lattice=((1, 0),)),))
    v = block_orbit_solve(inst)
    assert v.status == "witness"
    got = v.matrix.apply((0, 1))
    assert got[1] == 1  # bottom part exact; top absorbed by the lattice


def _orbit_1x1_instances():
    """Exact constraints with entries in -3..3, then coset constraints with
    one nonzero lattice generator and entries in -2..2."""
    for v1, v2, w1, w2 in itertools.product(range(-3, 4), repeat=4):
        yield (v1, v2), (w1, w2), ()
    gens = [g for g in itertools.product(range(-2, 3), repeat=2) if any(g)]
    for v1, v2, w1, w2 in itertools.product(range(-2, 3), repeat=4):
        for g in gens:
            yield (v1, v2), (w1, w2), (g,)


def _in_lattice_1(diff, lattice):
    """diff = lam * g for an integer lam (g the only generator), or diff = 0."""
    if not lattice:
        return not any(diff)
    g = lattice[0]
    k = next(i for i, x in enumerate(g) if x)
    return diff[k] % g[k] == 0 and \
        all(d == diff[k] // g[k] * x for d, x in zip(diff, g))


def test_orbit_exhaustive_1x1_against_brute_force():
    for (v1, v2), (w1, w2), lattice in _orbit_1x1_instances():
        inst = BlockOrbitInstance(1, 1, (OrbitConstraint((v1, v2), (w1, w2),
                                                         lattice),))
        got = block_orbit_solve(inst)
        # rho(v) - w = lam * g with rho = [[1, b], [0, u]], bounded
        (g1, g2), = lattice or ((0, 0),)
        brute = None
        for u in (1, -1):
            for lam in (range(-10, 11) if lattice else (0,)):
                if u * v2 - w2 != lam * g2:
                    continue
                for b in range(-20, 21):
                    if v1 + b * v2 - w1 == lam * g1:
                        brute = (u, b, lam)
                        break
                if brute:
                    break
            if brute:
                break
        assert got.status in ("witness", "no_solution", "undecided")
        if got.status == "witness":
            got_w = got.matrix.apply((v1, v2))
            assert _in_lattice_1((got_w[0] - w1, got_w[1] - w2), lattice)
        else:
            assert brute is None, (inst, got)
        # the candidates are all of GL_1(Z), so no instance stays open
        assert got.status != "undecided", (inst, got)
        if not lattice:
            assert (got.status == "witness") == (brute is not None)


# --- conjugacy pipeline -------------------------------------------------------

def test_pipeline_equal_inputs(toral_twist):
    pres = toral_twist.presentation
    v = conjugacy_pipeline(toral_twist, toral_twist)
    assert v.status == "conjugate"
    # psi is the identity and theta = phi^-1 phi is inner by 1
    assert v.witness["inner"] == Word(pres)
    assert v.witness["psi_images"] == {
        name: generator_word(pres, name) for name in pres.generator_names()}


def test_pipeline_inner_twist(toral_twist, z2z2):
    g = parse_word("a2.1 a1.2^-1", z2z2)
    v = conjugacy_pipeline(toral_twist, compose(ad(g, z2z2), toral_twist))
    assert v.status == "conjugate"


def test_pipeline_distinguished(toral_twist, z2z2):
    images = {"a1.1": "a1.1", "a1.2": "a1.1 a1.2",
              "a2.1": "a2.1", "a2.2": "a2.2"}
    inv = {"a1.1": "a1.1", "a1.2": "a1.1^-1 a1.2",
           "a2.1": "a2.1", "a2.2": "a2.2"}
    uni = make_aut(z2z2, images, inv)
    v = conjugacy_pipeline(toral_twist, uni)
    assert v.status == "distinguished"
    assert v.invariant["value_1"] != v.invariant["value_2"]


def test_pipeline_presentation_mismatch(toral_twist, fibonacci):
    with pytest.raises(PresentationMismatch):
        conjugacy_pipeline(toral_twist, fibonacci)


def test_pipeline_records_torality_without_warning(intro_anosov):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = conjugacy_pipeline(intro_anosov, intro_anosov)
    assert v.diagnostics["both_toral"] is False


def test_pipeline_factor_substitution(z2z2, toral_twist):
    # conjugate the twist by a basis swap of A2: still conjugate in Out
    swap = make_aut(z2z2,
                    {"a1.1": "a1.1", "a1.2": "a1.2",
                     "a2.1": "a2.2", "a2.2": "a2.1"},
                    {"a1.1": "a1.1", "a1.2": "a1.2",
                     "a2.1": "a2.2", "a2.2": "a2.1"})
    phi2 = compose(compose(swap, toral_twist), inverse(swap))
    v = conjugacy_pipeline(toral_twist, phi2)
    assert v.status == "conjugate"


def test_pipeline_witness_is_rechecked_without_composition(monkeypatch,
                                                          fibonacci, free2):
    # a compose that returns the identity makes theta inner by c = 1 and
    # psi phi1 psi^-1 equal phi2 o ad_1; substituting the tables shows
    # phi1 != phi2
    from fpaut import mapping_torus

    swapped = make_aut(free2, {"x1": "x2", "x2": "x2 x1"},
                       {"x1": "x1^-1 x2", "x2": "x1"})
    monkeypatch.setattr(mapping_torus, "compose",
                        lambda phi, psi: identity_automorphism(free2))
    with pytest.raises(SelfCheckFailed):
        conjugacy_pipeline(fibonacci, swapped)


def test_pipeline_without_factor_substitution_composes_only_identity(
        monkeypatch, z2z2):
    # factor matrices (M, N) against (N, M) with M = [[1,1],[0,1]] and
    # N = [[1,2],[0,1]]: the abelianized matrices are permutation-similar,
    # so every invariant agrees, but M and N are not conjugate in GL_2(Z)
    # (M - I and N - I have Smith forms (1, 0) and (2, 0))
    from fpaut import mapping_torus

    def twist(first, second):
        images = {"a1.1": "a1.1", "a1.2": f"a1.1^{first} a1.2",
                  "a2.1": "a2.1", "a2.2": f"a2.1^{second} a2.2"}
        inv = {"a1.1": "a1.1", "a1.2": f"a1.1^-{first} a1.2",
               "a2.1": "a2.1", "a2.2": f"a2.1^-{second} a2.2"}
        return make_aut(z2z2, images, inv)
    phi1, phi2 = twist(1, 2), twist(2, 1)
    assert _factor_substitution_candidates(phi1, phi2, 1) == []
    built = []
    monkeypatch.setattr(mapping_torus, "_substitution_automorphism",
                        lambda *args: built.append(args))
    v = conjugacy_pipeline(phi1, phi2, conj_len=2)
    inner = sum(1 for _ in itertools.islice(enumerate_words(z2z2, 2, 2), 1, 302))
    assert v.status == "undecided" and not built
    assert v.diagnostics["candidates_tested"] == 1 + inner


def test_pipeline_inverts_phi2_once(monkeypatch, fibonacci, free2):
    # fib against fib conjugated by the letter swap: phi2^-1 is computed
    # once; the identity is the only candidate composed (there is no
    # factor to substitute, and the inner candidates are only counted)
    from fpaut import mapping_torus
    swapped = make_aut(free2, {"x1": "x2", "x2": "x2 x1"},
                       {"x1": "x1^-1 x2", "x2": "x1"})
    calls = []
    original = mapping_torus.inverse

    def counting(phi):
        calls.append(phi)
        return original(phi)
    monkeypatch.setattr(mapping_torus, "inverse", counting)
    v = conjugacy_pipeline(fibonacci, swapped)
    tested = v.diagnostics["candidates_tested"]
    assert v.status == "undecided" and tested > 100
    assert sum(phi is swapped for phi in calls) == 1
    composed = 1
    assert len(calls) == composed + 1


def test_pipeline_identity_of_abelian_group_is_conjugate():
    # G = Z^2: one factor, no letters; every inner automorphism is trivial
    pres = Presentation((2,), 0)
    phi = identity_automorphism(pres)
    v = conjugacy_pipeline(phi, phi)
    assert v.status == "conjugate"
    assert not v.witness["inner"]
    assert v.diagnostics["candidates_tested"] == 1


def _composing_reference(phi1, phi2, conj_len):
    """The pipeline with every candidate composed, the inner candidates
    ad(w) included: the reference for the ones the pipeline only counts."""
    pres = phi1.presentation
    diagnostics = {"both_toral": is_toral(phi1) and is_toral(phi2)}
    inv1, inv2 = _abelian_invariants(phi1), _abelian_invariants(phi2)
    for key in inv1:
        if inv1[key] != inv2[key]:
            return ConjugacyVerdict(
                "distinguished", invariant={"name": key, "value_1": inv1[key],
                                            "value_2": inv2[key]},
                diagnostics=diagnostics)

    def candidates():
        yield identity_automorphism(pres)
        per_factor = [_factor_substitution_candidates(phi1, phi2, i)
                      for i in range(1, pres.num_factors + 1)]
        if per_factor and all(per_factor):
            for mats in itertools.islice(itertools.product(*per_factor), 1000):
                yield _substitution_automorphism(
                    pres, dict(enumerate(mats, start=1)))
        emitted = 0
        for w in enumerate_words(pres, conj_len, 2):
            if not w:
                continue
            yield ad(w, pres)
            emitted += 1
            if emitted > 300:
                break

    phi2_inv = inverse(phi2)
    for tested, psi in enumerate(candidates(), start=1):
        chi = compose(compose(psi, phi1), inverse(psi))
        c = _inner_witness(compose(phi2_inv, chi))
        if c is not None:
            return ConjugacyVerdict(
                "conjugate", witness={"psi_images": dict(psi.images), "inner": c},
                diagnostics={**diagnostics, "candidates_tested": tested})
    return ConjugacyVerdict(
        "undecided", diagnostics={**diagnostics, "candidates_tested": tested})


# at most one rank-2 factor: two of them can reach the 1,000 substitution
# combinations, each composed by both sides at about 1 ms
REFERENCE_PRESENTATIONS = (Presentation((), 2), Presentation((), 3),
                           Presentation((2,), 1), Presentation((1, 2), 2),
                           Presentation((3,), 0))


def test_pipeline_matches_composing_reference(tribonacci):
    # random pairs, independent and psi phi psi^-1, at conj_len 1 and 2:
    # counting the inner candidates gives the verdict, witness, invariant
    # and diagnostics of composing every one of them
    seen = Counter()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        pres = data.draw(st.sampled_from(REFERENCE_PRESENTATIONS))
        phi1 = data.draw(automorphisms_of(pres, max_moves=3))
        assume(phi1.preserves_factor_classes)
        other = data.draw(automorphisms_of(pres, max_moves=3))
        if data.draw(st.booleans()):
            phi2 = compose(compose(other, phi1), inverse(other))
        else:
            assume(other.preserves_factor_classes)
            phi2 = other
        for conj_len in (1, 2):
            got = conjugacy_pipeline(phi1, phi2, conj_len)
            assert got == _composing_reference(phi1, phi2, conj_len)
            seen[got.status] += 1

    check()
    assert seen["undecided"] and seen["conjugate"] and seen["distinguished"], seen
    # trib against trib with x1 and x2 swapped, at conj_len 3: of its 876
    # nonempty words the count stops at the cap of 301
    tribsw = _conjugate_by(_letter_swap(tribonacci.presentation), tribonacci)
    got = conjugacy_pipeline(tribonacci, tribsw, 3)
    assert got.diagnostics["candidates_tested"] == 1 + 301
    assert got == _composing_reference(tribonacci, tribsw, 3)


def test_pipeline_composes_only_the_identity_on_fib(monkeypatch, fibonacci):
    # fib against fibsw is undecided; of its 169 candidates (41 at
    # conj_len 2) only the identity is composed, in 3 compose calls
    from fpaut import mapping_torus
    fibsw = PARTNERS["fibsw"](fibonacci)
    calls = []
    original = mapping_torus.compose

    def counting(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(mapping_torus, "compose", counting)
    for conj_len, tested in ((3, 169), (2, 41)):
        calls.clear()
        v = conjugacy_pipeline(fibonacci, fibsw, conj_len)
        assert v.status == "undecided"
        assert v.diagnostics["candidates_tested"] == tested
        assert len(calls) <= 3


# the five fixture presentations, and the abelian groups Z^2, Z^3, Z (one
# letter) and Z^1 (one factor)
INNER_PRESENTATIONS = pytest.mark.parametrize("ranks, free_rank", [
    ((), 2), ((), 3), ((2, 3), 0), ((2, 2), 0), ((2,), 1),
    ((2,), 0), ((3,), 0), ((), 1), ((1,), 0)],
    ids=["fib", "trib", "intro", "twist", "mixed", "z2", "z3", "z", "z1"])


@INNER_PRESENTATIONS
def test_inner_witness_recovers_every_inner_automorphism(ranks, free_rank):
    pres = Presentation(ranks, free_rank)
    rng = random.Random(1901)
    for _ in range(40):
        c = random_word(pres, rng)
        theta = ad(c, pres)
        found = _inner_witness(theta)
        assert found is not None, c
        assert ad(found, pres) == theta


# --- pinned reports of the mapping-torus commands -----------------------------

def _transvection(pres, factor, row, col, sign):
    """a_factor.col -> a_factor.col a_factor.row^sign, identity elsewhere."""
    images = {n: generator_word(pres, n) for n in pres.generator_names()}
    inverse_images = dict(images)
    rank = pres.factor_rank(factor)
    for table, s in ((images, sign), (inverse_images, -sign)):
        vec = [1 if r == col else 0 for r in range(rank)]
        vec[row] += s
        table[f"a{factor}.{col + 1}"] = Word(pres, (FactorSyllable(factor, tuple(vec)),))
    return validate(images, inverse_images, pres)


def _conjugate_by(psi, phi):
    return compose(compose(psi, phi), inverse(psi))


def _letter_swap(pres):
    swap = {name: name for name in pres.generator_names()}
    swap.update(x1="x2", x2="x1")
    return make_aut(pres, swap, swap)


FIXTURES = {"fib": "fibonacci", "trib": "tribonacci", "intro": "intro_anosov",
            "twist": "toral_twist", "mixed": "mixed"}

# the second automorphism of each conjugacy job, built from the first
PARTNERS = {
    "fibsw": lambda phi: _conjugate_by(_letter_swap(phi.presentation), phi),
    "fib2": lambda phi: power(phi, 2),
    "intro_sub": lambda phi: _conjugate_by(
        _transvection(phi.presentation, 1, 0, 1, 1), phi),
    "intro_tv": lambda phi: _conjugate_by(
        _transvection(phi.presentation, 2, 0, 2, -1), phi),
    "twist_tv": lambda phi: _conjugate_by(
        _transvection(phi.presentation, 1, 1, 0, 1), phi),
}

# sha256 of the canonical ``result`` block of each job, pinned before the
# standard graph and the inner-automorphism rule were simplified
RESULT_DIGESTS = {
    "conjugacy fib fibsw 2":
        "86fc5d2d22fcdff2c2cd579bccbf32c5aa3208945b545225f79d1d25d631f19b",
    "conjugacy intro intro_sub 3":
        "57a4659d27d60b12fb63456373990b47ac9dddc51f0894077d895481eb796591",
    "conjugacy fib fib2 3":
        "3eac60bb36eab3873c0096be6ddac2a696f3bbd0d6717031e894566231020906",
    "conjugacy intro intro_tv 3":
        "c6d6206e91b1e9fd732ca696aa961d633c2c2d632c2a2befcd6005d8d9450a35",
    "conjugacy twist twist_tv 3":
        "0819d89cfa5baa615b36fb2a6e99ed1cb1ce502f31a721af386dfc8b1c96ed32",
    "torus-ab fib":
        "f1aa7aa451494952422b26f9f7dcb32966b1c6fc88f823a21b6fecd6514c5eab",
    "torus-ab trib":
        "e58d20cbdcb5762cba969434cd4d7653f74d6609255e55ac1da74ccdd6ebfeb2",
    "torus-ab intro":
        "ccd591bf303777ce3ed50694a9e3dae87ea107fef200c769a344f3d2d70aed4a",
    "torus-ab twist":
        "0cbdb53f5de8dd816b52d516e6bb5f3f059e5d981741c5c65ea51a949acb17ea",
    "torus-ab mixed":
        "3d12a07486b7c261c3ff4d3f5d7a2f06a6bcc3767f5120ae4e2e6091c62a9eb7",
}


@pytest.mark.parametrize("job", sorted(RESULT_DIGESTS))
def test_mapping_torus_reports_are_pinned(request, job):
    command, name, *rest = job.split()
    phi = request.getfixturevalue(FIXTURES[name])
    if name == "mixed":
        phi = phi[0]
    if command == "conjugacy":
        partner, conj_len = rest
        cfg = JobConfig(command, bounds={"conj_len": int(conj_len)})
        result = COMMANDS[command].runner(cfg, phi, PARTNERS[partner](phi))
    else:
        result = COMMANDS[command].runner(JobConfig(command), phi)
    digest = hashlib.sha256(
        canonical_json(to_jsonable(result)).encode()).hexdigest()
    assert digest == RESULT_DIGESTS[job]


def _outer_moves(pres):
    """Automorphisms acting nontrivially on the abelianization: a
    transvection or a sign flip on a factor, a letter swap, Fibonacci or a
    sign flip on the letters."""
    names = pres.generator_names()
    moves = []
    for i, rank in enumerate(pres.abelian_ranks, start=1):
        if rank >= 2:
            moves.append(_transvection(pres, i, 1, 0, 1))
        flip = {n: generator_word(pres, n) for n in names}
        flip[f"a{i}.1"] = generator_word(pres, f"a{i}.1").inverse()
        moves.append(validate(flip, flip, pres))
    if pres.free_rank:
        flip = {n: generator_word(pres, n) for n in names}
        last = f"x{pres.free_rank}"  # fixes x1 when there are two or more letters
        flip[last] = generator_word(pres, last).inverse()
        moves.append(validate(flip, flip, pres))
    if pres.free_rank >= 2:
        ident = {n: n for n in names if n not in ("x1", "x2")}
        moves.append(make_aut(pres, {**ident, "x1": "x2", "x2": "x1"},
                              {**ident, "x1": "x2", "x2": "x1"}))
        moves.append(make_aut(pres, {**ident, "x1": "x1 x2", "x2": "x1"},
                              {**ident, "x1": "x2", "x2": "x2^-1 x1"}))
    return moves


@INNER_PRESENTATIONS
def test_inner_witness_rejects_outer_automorphisms(ranks, free_rank):
    # ad(c) o psi is not inner when psi moves the abelianization
    pres = Presentation(ranks, free_rank)
    rng = random.Random(1060)
    moves = _outer_moves(pres)
    assert moves
    for psi in moves:
        assert psi.abelianized_matrix != IntegerMatrix.identity(
            len(pres.generator_names()))
        for _ in range(10):
            theta = compose(ad(random_word(pres, rng), pres), psi)
            assert _inner_witness(theta) is None


@pytest.mark.parametrize("name, partner", [
    ("intro", "intro_sub"), ("intro", "intro_tv"), ("intro", None),
    ("twist", "twist_tv"), ("twist", None)])
def test_substitutions_match_validate(request, monkeypatch, name, partner):
    # the pipeline builds its substitutions without the raw-table inverse
    # check; the full `validate` extracts the same data from the same tables
    from fpaut import mapping_torus
    from test_action import _assert_matches_validate
    phi = request.getfixturevalue(FIXTURES[name])
    phi2 = PARTNERS[partner](phi) if partner else phi
    pres = phi.presentation
    built = []
    original = mapping_torus._substitution_automorphism

    def recording(pres, mats):
        built.append(original(pres, mats))
        return built[-1]
    monkeypatch.setattr(mapping_torus, "_substitution_automorphism", recording)
    conjugacy_pipeline(phi, phi2)
    per_factor = [mapping_torus._factor_substitution_candidates(phi, phi2, i)
                  for i in range(1, pres.num_factors + 1)]
    for mats in itertools.islice(itertools.product(*per_factor), 200):
        recording(pres, dict(enumerate(mats, start=1)))
    assert len(built) > 1
    for psi in built:
        _assert_matches_validate(psi)
