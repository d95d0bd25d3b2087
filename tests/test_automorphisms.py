import pytest

from fpaut import (Presentation, Word, apply, apply_power, check_central_condition,
                   compose, identity_automorphism, inverse, is_toral, multiply,
                   parse_word, power, render_word, validate)
from fpaut.automorphisms import ad, generator_word
from fpaut.errors import (FactorsPermuted, IndexOutOfRange, NotAnAutomorphism,
                          NotFactorPreserving)
from fpaut.matrices import IntegerMatrix
from fpaut.words import FactorSyllable, FreeSyllable, reduce_syllables

from conftest import make_aut, random_word


def test_identity_validates(z2z2):
    phi = identity_automorphism(z2z2)
    assert phi.factor_permutation == (1, 2)
    assert all(not g for g in phi.conjugators)
    assert phi.preserves_factor_classes


def test_toral_twist_extraction(toral_twist):
    assert toral_twist.factor_permutation == (1, 2)
    assert [render_word(g) for g in toral_twist.conjugators] == ["", "a1.1"]
    assert is_toral(toral_twist)


@pytest.mark.parametrize("fixture, conjugators", [
    ("toral_p", ["a2.2", "x1^-1 a2.2 a1.2^-1"]),
    ("toral_q", ["", "a2.1 x1 a2.1^-1 a1.1^-1"])])
def test_fixtures_p_and_q_are_toral(request, fixture, conjugators):
    # `validate` (through make_aut) accepts both tables
    phi = request.getfixturevalue(fixture)
    assert is_toral(phi)
    assert [render_word(g) for g in phi.conjugators] == conjugators


def test_factor_swap_flagged():
    pres = Presentation((2, 2), 0)
    images = {"a1.1": "a2.1", "a1.2": "a2.2", "a2.1": "a1.1", "a2.2": "a1.2"}
    phi = make_aut(pres, images, images)
    assert phi.factor_permutation == (2, 1)
    assert not phi.preserves_factor_classes
    with pytest.raises(FactorsPermuted):
        is_toral(phi)
    with pytest.raises(FactorsPermuted):
        check_central_condition(phi)


def test_image_in_wrong_factor_rejected():
    pres = Presentation((2, 2), 0)
    images = {"a1.1": "a1.1", "a1.2": "a2.1", "a2.1": "a2.1", "a2.2": "a2.2"}
    with pytest.raises(NotFactorPreserving):
        make_aut(pres, images, images)


def test_non_elliptic_image_rejected():
    pres = Presentation((2,), 1)
    images = {"a1.1": "a1.1 x1", "a1.2": "a1.2", "x1": "x1"}
    with pytest.raises(NotFactorPreserving):
        make_aut(pres, images, images)


def test_no_common_conjugator_rejected():
    pres = Presentation((2, 2), 0)
    images = {"a1.1": "a1.1", "a1.2": "a1.2",
              "a2.1": "a1.1 a2.1 a1.1^-1", "a2.2": "a1.2 a2.2 a1.2^-1"}
    inv = {"a1.1": "a1.1", "a1.2": "a1.2",
           "a2.1": "a1.1^-1 a2.1 a1.1", "a2.2": "a1.2^-1 a2.2 a1.2"}
    with pytest.raises(NotFactorPreserving):
        make_aut(pres, images, inv)


def test_bad_inverse_rejected(free2):
    with pytest.raises(NotAnAutomorphism):
        make_aut(free2, {"x1": "x1 x2", "x2": "x1"},
                 {"x1": "x2", "x2": "x1"})


def test_missing_generator_rejected(free2):
    with pytest.raises(NotAnAutomorphism):
        validate({"x1": parse_word("x1", free2)},
                 {"x1": parse_word("x1", free2)}, free2)


def test_table_word_not_in_normal_form_rejected(z2z2):
    # a1.2 a1.1 a1.2^-1, three syllables of A_1, is the generator a1.1
    # written unreduced
    table = {name: generator_word(z2z2, name) for name in z2z2.generator_names()}
    unreduced = Word(z2z2, (FactorSyllable(1, (0, 1)), FactorSyllable(1, (1, 0)),
                            FactorSyllable(1, (0, -1))))
    with pytest.raises(NotAnAutomorphism, match="normal form"):
        validate({**table, "a1.1": unreduced}, table, z2z2)


def test_zero_syllables_map_to_one(mixed):
    phi, pres = mixed
    w = Word(pres, (FreeSyllable(1, 0), FactorSyllable(1, (0, 0))))
    assert apply(phi, w) == Word(pres)


def test_conjugator_canonicalised(z2z2):
    # images written with the non-canonical conjugator a1.1 a2.1
    images, inv = {}, {}
    for j in (1, 2):
        images[f"a1.{j}"] = inv[f"a1.{j}"] = f"a1.{j}"
        images[f"a2.{j}"] = f"a1.1 a2.1 a2.{j} a2.1^-1 a1.1^-1"
        inv[f"a2.{j}"] = f"a1.1^-1 a2.{j} a1.1"
    phi = make_aut(z2z2, images, inv)
    assert render_word(phi.conjugator(2)) == "a1.1"


def test_apply_fibonacci(fibonacci, free2):
    x = parse_word("x1", free2)
    assert render_word(apply(fibonacci, x)) == "x1 x2"
    lengths = [sum(abs(s.exponent) for s in apply_power(fibonacci, n, x).syllables)
               for n in range(6)]
    assert lengths == [1, 2, 3, 5, 8, 13]


def test_apply_power_inverse_round_trip(fibonacci, free2, rng):
    for _ in range(30):
        w = random_word(free2, rng)
        assert apply_power(fibonacci, -1, apply(fibonacci, w)) == w


def test_apply_is_homomorphism(toral_twist, z2z2, rng):
    for _ in range(50):
        u, v = random_word(z2z2, rng), random_word(z2z2, rng)
        assert apply(toral_twist, multiply(u, v)) == \
            multiply(apply(toral_twist, u), apply(toral_twist, v))


def test_compose_and_power(fibonacci, free2):
    sq = power(fibonacci, 2)
    assert render_word(sq.images["x1"]) == "x1 x2 x1"
    assert render_word(sq.images["x2"]) == "x1 x2"
    assert compose(fibonacci, inverse(fibonacci)) == identity_automorphism(free2)
    assert power(fibonacci, 0) == identity_automorphism(free2)
    m, n = 2, 3
    assert compose(power(fibonacci, m), power(fibonacci, n)).images == \
        power(fibonacci, m + n).images


def test_ad(z2z2):
    assert ad(Word(z2z2), z2z2) == identity_automorphism(z2z2)
    g = parse_word("a1.1 a2.1", z2z2)
    phi = ad(g, z2z2)
    s = parse_word("a2.2", z2z2)
    assert apply(phi, s) == multiply(multiply(g, s), g.inverse())


def test_is_toral_negative(z2z2):
    images = {"a1.1": "a1.1", "a1.2": "a1.1 a1.2", "a2.1": "a2.1", "a2.2": "a2.2"}
    inv = {"a1.1": "a1.1", "a1.2": "a1.1^-1 a1.2", "a2.1": "a2.1", "a2.2": "a2.2"}
    phi = make_aut(z2z2, images, inv)
    assert not is_toral(phi)
    # unipotent restriction still fixes a vector
    assert check_central_condition(phi) == {1: True, 2: True}


def test_central_condition_anosov(intro_anosov):
    assert check_central_condition(intro_anosov) == {1: False, 2: False}


def test_toral_implies_central(toral_twist, identity_z2z2):
    for phi in (toral_twist, identity_z2z2):
        if is_toral(phi):
            assert all(check_central_condition(phi).values())


def test_abelianized_matrix(fibonacci, toral_twist):
    assert fibonacci.abelianized_matrix == IntegerMatrix(((1, 1), (1, 0)))
    assert toral_twist.abelianized_matrix == IntegerMatrix.identity(4)


def test_generator_word(z2z2):
    assert render_word(generator_word(z2z2, "a2.1")) == "a2.1"
    # a factor has generators 1..rank only, as in `parse_word`
    for name in ("a1.3", "a1.0"):
        with pytest.raises(IndexOutOfRange, match="no generator"):
            generator_word(Presentation((2,), 1), name)


def _validate_changed(ranks, free, changes):
    """validate() on the identity tables with ``changes`` made to the images."""
    pres = Presentation(ranks, free)
    names = pres.generator_names()
    return lambda: make_aut(pres, {**{n: n for n in names}, **changes},
                            {n: n for n in names})


# input checks that no other test reaches
@pytest.mark.parametrize("check, error, message", [
    (_validate_changed((2, 2), 0, {"a1.1": ""}),
     NotFactorPreserving, "a1.1 maps to the empty word"),
    (_validate_changed((2, 2), 0, {"a2.1": "a1.1", "a2.2": "a1.2"}),
     NotFactorPreserving, "factor map [1, 1] is not a permutation"),
    (_validate_changed((2, 3), 0, {"a1.1": "a2.1", "a1.2": "a2.2",
                                   "a2.1": "a1.1", "a2.2": "a1.2"}),
     NotFactorPreserving, "factor 1 (rank 2) maps to factor 2 (rank 3)"),
    (_validate_changed((), 2, {"x1": "x1 x2"}),
     NotAnAutomorphism, "phi(psi(x1)) != x1"),
    (lambda: reduce_syllables([FactorSyllable(1, (1, 0, 0))],
                              Presentation((2, 2), 0)),
     IndexOutOfRange, "factor 1 has rank 2, got vector of length 3"),
], ids=["empty-image", "not-a-permutation", "rank-mismatch",
        "not-inverse", "vector-length"])
def test_input_checks(check, error, message):
    with pytest.raises(error) as err:
        check()
    assert str(err.value) == message
