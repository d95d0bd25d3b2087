"""Each witness check of `fpaut.verify` accepts the witness its search
returns on a pinned fixture and raises `SelfCheckFailed` on a false one."""

import pytest

from fpaut import (Word, atoroidal_search, build_standard_map, compose,
                   conjugacy_pipeline, inverse, multiply, nielsen_search,
                   twin_search, verify)
from fpaut.automorphisms import generator_word
from fpaut.errors import SelfCheckFailed
from fpaut.graph_maps import BASE, EdgePath, factor_vertex

from conftest import make_aut


def test_periodic_class(fibonacci):
    w = atoroidal_search(fibonacci, 5, 3, 4).witness
    verify.periodic_class(fibonacci, w["element"], w["exponent"])
    # the class of x1 grows under every power of fib
    x1 = generator_word(fibonacci.presentation, "x1")
    with pytest.raises(SelfCheckFailed):
        verify.periodic_class(fibonacci, x1, w["exponent"])


def path_ends(path):
    """The descriptors (u, i) of a path's start and end vertices."""
    pres = path.presentation
    return [(u, None if v == BASE else v[1]) for u, v in
            ((Word(pres), path.start), (path.word(), path.end_vertex()))]


def test_twinned_pair(intro_anosov):
    w = twin_search(intro_anosov, 2, 2).witness
    first, second = (w["conj_u"], w["factor_i"]), (w["conj_v"], w["factor_j"])
    verify.vertices(intro_anosov, w["power"], w["element"], first, second)
    # a1.1 conjugates A_1 into itself but moves A_2 off phi(A_2) = A_2
    g = multiply(w["element"], generator_word(intro_anosov.presentation, "a1.1"))
    with pytest.raises(SelfCheckFailed):
        verify.vertices(intro_anosov, w["power"], g, first, second)


def test_nielsen_path(intro_anosov):
    found = nielsen_search(build_standard_map(intro_anosov), 4, 2)
    assert len(found) == 3
    for w in found:
        verify.vertices(intro_anosov, w.exponent, w.element, *path_ends(w.path))
    # the path from factor vertex 1 to factor vertex 2: g a1.1 w differs
    # from phi(w) by a1.1^-1, which is not in A_2
    [w] = [w for w in found if w.path.start == factor_vertex(1)]
    g = multiply(w.element, generator_word(intro_anosov.presentation, "a1.1"))
    with pytest.raises(SelfCheckFailed):
        verify.vertices(intro_anosov, w.exponent, g, path_ends(w.path)[1])


def test_nielsen_path_start_vertex(toral_twist):
    # twist fixes A_1 and conjugates A_2 by a1.1, so [T1 0, t2] is a Nielsen
    # path with element a1.1; a1.1 a2.1 moves its end vertex as phi does
    # but its start vertex, the vertex of A_1, off itself
    pres = toral_twist.presentation
    path = EdgePath(pres, factor_vertex(1), (("T", 1, (0, 0)), ("t", 2)))
    [w] = [w for w in nielsen_search(build_standard_map(toral_twist), 2, 1)
           if w.path == path]
    a11 = generator_word(pres, "a1.1")
    assert (w.exponent, w.element) == (1, a11)
    start, end = path_ends(path)
    verify.vertices(toral_twist, 1, a11, start, end)
    g = multiply(a11, generator_word(pres, "a2.1"))
    verify.vertices(toral_twist, 1, g, end)
    with pytest.raises(SelfCheckFailed):
        verify.vertices(toral_twist, 1, g, start, end)


def test_nielsen_path_base_vertices(fibonacci):
    # a base-to-base Nielsen path of fib^2: each end is the base vertex, so
    # phi^2(u) = g u holds on the nose and a letter more on g breaks both
    [w] = nielsen_search(build_standard_map(fibonacci), 4, 2)
    ends = path_ends(w.path)
    assert [i for _, i in ends] == [None, None] and w.path.word()
    verify.vertices(fibonacci, w.exponent, w.element, *ends)
    g = multiply(w.element, generator_word(fibonacci.presentation, "x1"))
    for end in ends:
        with pytest.raises(SelfCheckFailed):
            verify.vertices(fibonacci, w.exponent, g, end)


def test_vertices_images_a_factor_once(monkeypatch, mixed, toral_twist):
    # a witness whose two ends lie at vertices of one factor images that
    # factor's generators once: mixed twins A_1 with x1^-1 A_1 x1, and on
    # twist a Nielsen path runs from the vertex of A_1 back to A_1's
    phi, _ = mixed
    twin = twin_search(phi, 2, 2).witness
    assert twin["factor_i"] == twin["factor_j"] == 1
    [path, *_] = [
        w for w in nielsen_search(build_standard_map(toral_twist), 4, 3)
        if [i for _, i in path_ends(w.path)] == [1, 1]]
    named, word = [], verify.generator_word

    def spy(pres, name):
        named.append(name)
        return word(pres, name)
    monkeypatch.setattr(verify, "generator_word", spy)
    verify.vertices(phi, twin["power"], twin["element"], (twin["conj_u"], 1),
                    (twin["conj_v"], 1))
    assert named == ["a1.1", "a1.2"]
    named.clear()
    verify.vertices(toral_twist, path.exponent, path.element,
                    *path_ends(path.path))
    assert named == ["a1.1", "a1.2"]


def test_conjugacy(monkeypatch, intro_anosov, z2z3):
    # intro_sub: intro conjugated by the transvection a1.2 -> a1.1 a1.2
    names = z2z3.generator_names()
    t = make_aut(z2z3, {**{n: n for n in names}, "a1.2": "a1.1 a1.2"},
                 {**{n: n for n in names}, "a1.2": "a1.1^-1 a1.2"})
    intro_sub = compose(compose(t, intro_anosov), inverse(t))
    # the report carries psi's images only: keep the psi the pipeline checks
    check, checked = verify.conjugacy, []
    monkeypatch.setattr(verify, "conjugacy",
                        lambda *args: checked.append(args))
    v = conjugacy_pipeline(intro_anosov, intro_sub)
    assert v.status == "conjugate"
    [(_, _, psi, c)] = checked
    assert (psi.images, c) == (v.witness["psi_images"], v.witness["inner"])
    check(intro_anosov, intro_sub, psi, c)
    c = multiply(c, generator_word(z2z3, "a1.1"))
    with pytest.raises(SelfCheckFailed):
        check(intro_anosov, intro_sub, psi, c)
