import itertools
import random
import warnings

import pytest

from fpaut import (BlockOrbitInstance, OrbitConstraint, Presentation,
                   abelianized_action, block_orbit_solve, compose,
                   conjugacy_pipeline, identity_automorphism,
                   mapping_torus_abelianization, parse_word)
from fpaut.automorphisms import ad
from fpaut.errors import DimensionMismatch, PresentationMismatch
from fpaut.matrices import IntegerMatrix, determinant

from conftest import make_aut, random_word


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


def test_orbit_exhaustive_1x1_against_brute_force():
    rng = range(-3, 4)
    for v1, v2, w1, w2 in itertools.product(rng, repeat=4):
        inst = BlockOrbitInstance(1, 1, (OrbitConstraint((v1, v2), (w1, w2)),))
        got = block_orbit_solve(inst)
        brute = None
        for u in (1, -1):
            for b in range(-20, 21):
                if (v1 + b * v2, u * v2) == (w1, w2):
                    brute = (u, b)
                    break
            if brute:
                break
        assert got.status in ("witness", "no_solution")
        if got.status == "witness":
            assert brute is not None
            assert got.matrix.apply((v1, v2)) == (w1, w2)
        else:
            assert brute is None


# --- conjugacy pipeline -------------------------------------------------------

def test_pipeline_equal_inputs(toral_twist):
    v = conjugacy_pipeline(toral_twist, toral_twist)
    assert v.status == "conjugate"
    assert not v.witness["inner"] or v.witness["inner"]  # witness present


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v = conjugacy_pipeline(toral_twist, uni)
    assert v.status == "distinguished"
    assert v.invariant["value_1"] != v.invariant["value_2"]


def test_pipeline_presentation_mismatch(toral_twist, fibonacci):
    with pytest.raises(PresentationMismatch):
        conjugacy_pipeline(toral_twist, fibonacci)


def test_pipeline_warns_when_not_toral(z2z2, intro_anosov, z2z3):
    with pytest.warns(UserWarning):
        conjugacy_pipeline(intro_anosov, intro_anosov)


def test_pipeline_factor_substitution(z2z2, toral_twist):
    # conjugate the twist by a basis swap of A2: still conjugate in Out
    swap = make_aut(z2z2,
                    {"a1.1": "a1.1", "a1.2": "a1.2",
                     "a2.1": "a2.2", "a2.2": "a2.1"},
                    {"a1.1": "a1.1", "a1.2": "a1.2",
                     "a2.1": "a2.2", "a2.2": "a2.1"})
    from fpaut import inverse
    phi2 = compose(compose(swap, toral_twist), inverse(swap))
    v = conjugacy_pipeline(toral_twist, phi2)
    assert v.status == "conjugate"


def test_pipeline_inverts_phi2_once(monkeypatch, fibonacci, free2):
    # fib against fib conjugated by the letter swap: every candidate is
    # tried, and phi2^-1 is computed once for all of them
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
    assert len(calls) == tested + 1
