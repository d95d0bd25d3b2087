"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass;
every criterion enforces its stated wall-clock budget.
"""

import itertools
import random
import time

import pytest

from fpaut import (BlockOrbitInstance, OrbitConstraint, Presentation, Word,
                   apply, apply_power, atoroidal_search, block_orbit_solve,
                   build_standard_map, check_central_condition,
                   check_train_track, compose, conjugacy_key,
                   conjugacy_pipeline, conjugate_test, cyclic_normal_form,
                   double_coset_rep, flare_certify, gate_structure,
                   identity_automorphism, is_toral, multiply,
                   nielsen_search, parse_word, pf_growth_rate,
                   reduce_syllables, smith_normal_form, transition_matrix,
                   twin_search)
from fpaut.automorphisms import ad
from fpaut.graph_maps import BASE, EdgePath, factor_vertex, spell, step_target
from fpaut.matrices import IntegerMatrix, determinant, is_unimodular
from fpaut.words import FactorSyllable

from conftest import make_aut, random_word
from test_dynamics import (brute_force_atoroidal, brute_force_twin_check,
                           brute_force_twins)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s / "
              f"budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.2f}s"
        return False


def test_criterion_1_word_algebra_randomized():
    pres = Presentation((2, 3), 2)
    rng = random.Random(1)
    with Budget("1 word-algebra 5x10^4 randomized cases", 10):
        for _ in range(10_000):
            raw = [random_word(pres, rng, 4).syllables for _ in range(2)]
            flat = tuple(s for chunk in raw for s in chunk)
            once = reduce_syllables(flat, pres)
            assert reduce_syllables(once.syllables, pres) == once
        for _ in range(10_000):
            u, v, w = (random_word(pres, rng, 4) for _ in range(3))
            assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
        for _ in range(10_000):
            u = random_word(pres, rng, 5)
            assert not multiply(u, u.inverse())
        for _ in range(10_000):
            g, w = random_word(pres, rng, 3), random_word(pres, rng, 4)
            conj = multiply(multiply(g, w), g.inverse())
            assert conjugate_test(w, conj)
            assert len(conjugacy_key(conj)) == len(conjugacy_key(w))
        for _ in range(10_000):
            w = random_word(pres, rng, 4)
            i = rng.randint(1, 2)
            j = rng.randint(1, 2)
            a_vec = tuple(rng.randint(-2, 2) for _ in range(pres.factor_rank(i)))
            b_vec = tuple(rng.randint(-2, 2) for _ in range(pres.factor_rank(j)))
            a = Word(pres, (FactorSyllable(i, a_vec),)) if any(a_vec) else Word(pres)
            b = Word(pres, (FactorSyllable(j, b_vec),)) if any(b_vec) else Word(pres)
            assert double_coset_rep(i, multiply(multiply(a, w), b), j) == \
                double_coset_rep(i, w, j)


def test_criterion_2_fibonacci_battery(fibonacci, free2):
    with Budget("2 Fibonacci battery", 5):
        m = build_standard_map(fibonacci)
        assert transition_matrix(m) == IntegerMatrix(((1, 1), (1, 0)))
        golden = (1 + 5 ** 0.5) / 2
        assert abs(pf_growth_rate(transition_matrix(m)).value - golden) < 1e-9
        assert check_train_track(m, 4).status == "holds"
        assert len(gate_structure(m, 4).base_gates) == 3
        rep = atoroidal_search(fibonacci, 6, 4, 4)
        assert rep.verdict == "witness" and rep.witness["exponent"] == 2
        comm = parse_word("x1 x2 x1^-1 x2^-1", free2)
        assert conjugate_test(rep.witness["element"], comm)
        from fpaut import mapping_torus_abelianization
        ab = mapping_torus_abelianization(fibonacci)
        assert ab.torsion == () and ab.free_rank == 1  # the torus abelianizes to Z


def test_criterion_3_intro_obstruction(intro_anosov):
    with Budget("3 introduction obstruction Z^2*Z^3", 5):
        rep = twin_search(intro_anosov, 2, 2)
        assert rep.verdict == "witness"
        w = rep.witness
        assert (w["factor_i"], w["factor_j"], w["power"]) == (1, 2, 1)
        assert not w["conj_u"] and not w["conj_v"] and not w["element"]
        fl = flare_certify(intro_anosov, 2, 2, 1, 4, "1.1")
        assert fl.verdict == "witness" and fl.counterexamples
        g = fl.counterexamples[0]
        for n in range(1, 5):
            image = apply_power(intro_anosov, n, g)
            assert len(cyclic_normal_form(image)) == 2


def test_criterion_4_toral_twist(toral_twist, z2z2):
    with Budget("4 toral twist battery", 2):
        assert is_toral(toral_twist)
        assert all(check_central_condition(toral_twist).values())
        rep = atoroidal_search(toral_twist, 3, 2, 3)
        assert rep.verdict == "witness" and rep.witness["exponent"] == 1
        g = parse_word("a1.1 a2.1", z2z2)
        assert conjugate_test(apply(toral_twist, g), g)  # the attested class
        m = build_standard_map(toral_twist)
        found = nielsen_search(m, 2, 2)
        inter = [w for w in found
                 if w.path.start == factor_vertex(1)
                 and w.path.steps == (("T", 1, (0, 0)), ("t", 2))]
        assert len(inter) == 1
        assert inter[0].element == parse_word("a1.1", z2z2)


def test_criterion_5_snf_suite():
    rng = random.Random(99)
    with Budget("5 Smith normal form suite (10^3 matrices)", 30):
        for _ in range(1000):
            n, mcols = rng.randint(1, 6), rng.randint(1, 6)
            m = IntegerMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(mcols))
                                    for _ in range(n)))
            u, d, v = smith_normal_form(m)  # verifies U*M*V = D internally
            assert is_unimodular(u) and is_unimodular(v)
            diag = d.diagonal()
            for a, b in zip(diag, diag[1:]):
                assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        # minor-gcd spot checks on 3x3 matrices
        from math import gcd
        for _ in range(20):
            m = IntegerMatrix(tuple(tuple(rng.randint(-9, 9) for _ in range(3))
                                    for _ in range(3)))
            diag = smith_normal_form(m)[1].diagonal()
            prod = 1
            for r in range(1, 4):
                prod *= diag[r - 1]
                g = 0
                for rows in itertools.combinations(range(3), r):
                    for cols in itertools.combinations(range(3), r):
                        sub = IntegerMatrix(tuple(tuple(m[i, j] for j in cols)
                                                  for i in rows))
                        g = gcd(g, abs(determinant(sub)))
                assert abs(prod) == g


def test_criterion_6_block_orbit_exhaustive():
    with Budget("6 block orbit vs brute force (n=m=1)", 10):
        for v1, v2, w1, w2 in itertools.product(range(-3, 4), repeat=4):
            inst = BlockOrbitInstance(1, 1,
                                      (OrbitConstraint((v1, v2), (w1, w2)),))
            got = block_orbit_solve(inst)
            brute = any((v1 + b * v2, u * v2) == (w1, w2)
                        for u in (1, -1) for b in range(-20, 21))
            if got.status == "witness":
                assert brute
                assert got.matrix.apply((v1, v2)) == (w1, w2)  # re-verified
            else:
                assert got.status == "no_solution"
                assert not brute  # obstruction verdicts never contradicted


def test_criterion_7_bounded_cancellation(fibonacci, toral_twist, intro_anosov,
                                          tribonacci, mixed):
    rng = random.Random(4)
    autos = [fibonacci, toral_twist, intro_anosov, tribonacci, mixed[0]]
    with Budget("7 bounded cancellation (5 maps x 10^3 splits)", 10):
        from fpaut import bounded_cancellation_constant
        for phi in autos:
            m = build_standard_map(phi)
            cf = bounded_cancellation_constant(m, 4)
            pres = phi.presentation
            for _ in range(1000):
                w = random_word(pres, rng, 8)
                path = EdgePath(pres, BASE, spell(w))
                if len(path.steps) < 2:
                    continue
                cut = rng.randrange(1, len(path.steps))
                alpha = EdgePath(pres, path.start, path.steps[:cut])
                beta = EdgePath(pres, step_target(path.steps[cut - 1]),
                                path.steps[cut:])
                fa = len(m.apply_to_path(alpha).steps)
                fb = len(m.apply_to_path(beta).steps)
                fw = len(m.apply_to_path(path).steps)
                assert fw >= fa + fb - 2 * cf


def test_criterion_8_conjugacy_pipeline_soundness(toral_twist, z2z2):
    rng = random.Random(12)
    ident_images = identity_automorphism(z2z2).images
    with Budget("8 conjugacy pipeline soundness", 60):
        # 50 randomized inner-twist pairs must come back conjugate
        for _ in range(50):
            g = random_word(z2z2, rng, 3)
            phi2 = compose(ad(g, z2z2), toral_twist)
            verdict = conjugacy_pipeline(toral_twist, phi2)
            assert verdict.status == "conjugate"
            # the witness re-verifies: psi phi1 psi^-1 == phi2 o ad_c;
            # for inner twists the identity candidate fires first
            assert verdict.witness["psi_images"] == ident_images
            c = verdict.witness["inner"]
            assert compose(phi2, ad(c, z2z2)).images == toral_twist.images
        # 10 constructed invariant-mismatch pairs must be distinguished
        mismatches = 0
        blocks = [
            ("a1.1 a1.2", "a1.1^-1 a1.2"),       # [[1,1],[0,1]]
            ("a1.1^2 a1.2", "a1.1^-2 a1.2"),     # [[1,2],[0,1]]
            ("a1.1^3 a1.2", "a1.1^-3 a1.2"),
            ("a1.1^4 a1.2", "a1.1^-4 a1.2"),
            ("a1.1^5 a1.2", "a1.1^-5 a1.2"),
        ]
        variants = []
        for img, inv_img in blocks:
            images = {"a1.1": "a1.1", "a1.2": img, "a2.1": "a2.1", "a2.2": "a2.2"}
            inv = {"a1.1": "a1.1", "a1.2": inv_img, "a2.1": "a2.1", "a2.2": "a2.2"}
            variants.append(make_aut(z2z2, images, inv))
        pairs = [(toral_twist, v) for v in variants] + \
            list(itertools.combinations(variants, 2))
        for phi1, phi2 in pairs[:10]:
            verdict = conjugacy_pipeline(phi1, phi2)
            assert verdict.status == "distinguished"
            assert verdict.invariant["value_1"] != verdict.invariant["value_2"]
            mismatches += 1
        assert mismatches == 10


def test_criterion_9_cross_oracle_tiny_bounds(identity_z2z2, toral_twist,
                                              fibonacci, intro_anosov, mixed):
    autos = [identity_z2z2, toral_twist, fibonacci, intro_anosov, mixed[0]]
    with Budget("9 cross-oracle equivalence at tiny bounds", 60):
        for phi in autos:
            rep = atoroidal_search(phi, 3, 1, 3)
            oracle = brute_force_atoroidal(phi, 3, 3)
            assert (rep.verdict == "witness") == bool(oracle)
            if rep.verdict == "witness":
                assert cyclic_normal_form(
                    rep.witness["element"]).canonical_rotation() in oracle
            twin = twin_search(phi, 2, 1)
            twin_oracle = brute_force_twins(phi, 2, 1)
            assert (twin.verdict == "witness") == (twin_oracle is not None)
            if twin.verdict == "witness":
                w = twin.witness
                assert brute_force_twin_check(
                    phi, w["power"], w["factor_i"], w["factor_j"],
                    w["conj_u"], w["conj_v"], w["element"])
