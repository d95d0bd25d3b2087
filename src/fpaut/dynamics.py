"""Orbit growth, bounded-search atoroidality, twinned subgroups, flaring.

Every negative verdict here is a bounded-search verdict: "exhausted" always
means exhausted up to the recorded bounds, never a proof.  Conjugacy
classes are enumerated in graded order (syllable count, then total exponent
mass, then lexicographic) so results are reproducible and witnesses are
found small side first.  The twin search's subgroup descriptors (u, i) are
in (factor i, `Word.sort_key` of u) order.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .automorphisms import (Automorphism, _apply_table, apply, apply_inverse,
                            conjugator_step, generator_word,
                            require_class_preserving)
from .errors import SelfCheckFailed, TooShort
from .matrices import IntegerMatrix, determinant
from .words import (FactorSyllable, FreeSyllable, Presentation, Word,
                    abelianize, conjugate_test, cyclic_normal_form,
                    double_coset_rep, least_rotation, multiply)

# least r^2 of the log-linear fit for `classify_growth` to call a tail
# exponential
R2_EXPONENTIAL = 0.999


# ---------------------------------------------------------------------------
# enumeration of conjugacy-class representatives

@lru_cache(maxsize=None)
def _vectors_of_mass(dim: int, mass: int) -> tuple:
    """All integer vectors of the given L1 norm, lexicographically."""
    if dim == 1:
        return ((mass,), (-mass,)) if mass else ((0,),)
    out = []
    for head in range(-mass, mass + 1):
        for tail in _vectors_of_mass(dim - 1, mass - abs(head)):
            out.append((head,) + tail)
    return tuple(sorted(out))


def _ranked_syllables(pres: Presentation, max_exp: int) -> list:
    """(syllable, track id, rank, mass) for every syllable of exponent mass
    1..max_exp, in sort-key order, the rank being the place in that order;
    the track id is the factor i, or num_factors + l for the letter x_l."""
    nf, masses = pres.num_factors, range(1, max_exp + 1)
    out = [(FactorSyllable(i, vec), i) for i in range(1, nf + 1)
           for mass in masses
           for vec in _vectors_of_mass(pres.factor_rank(i), mass)]
    out += [(FreeSyllable(l, e), nf + l) for l in range(1, pres.free_rank + 1)
            for mass in masses for e in (mass, -mass)]
    out.sort(key=lambda c: c[0].sort_key())
    return [(s, t, r, s.mass) for r, (s, t) in enumerate(out)]


def enumerate_cyclic_words(pres: Presentation, max_len: int, max_exp: int,
                           min_len: int = 1):
    """Cyclically reduced hyperbolic conjugacy-class representatives of
    min_len..max_len syllables, each of exponent mass at most max_exp, in
    graded order (see `graded_key`).

    Each Word is in cyclic normal form (its last and first syllable lie in
    different factors as well) and is the least rotation of its class by
    syllable sort key.  The elliptic classes, one factor syllable each, are
    left out; a free syllable acts loxodromically on its loop edge, so it
    counts as hyperbolic.  No syllable whose rank is below the first
    syllable's is placed after it: the rotation starting there would be
    smaller.  So a rotation can be smaller only where a later syllable ties
    with the first; only those rank tuples go to `least_rotation`, the one
    rule of the word layer, and a tuple is kept when its least rotation
    starts at index 0.  A tie needs a syllable between two others, as the
    neighbours of the first syllable lie in other factors.

    A candidate is a tuple (syllable, track id, rank, mass) of
    `_ranked_syllables`, so the inner loops compare ints.  The nested
    generator `fill` recurses over the positions before the last; a flat
    loop fills the last with every syllable of the mass left.  This
    measured faster than an explicit stack, and it is safe: the recursion is
    as deep as the tuple is long, and with two or more tracks m syllables
    come only after 2^(m-2) shorter classes (with one, no tuple has two), so
    only a min_len near the recursion limit reaches it.
    """
    ranked = _ranked_syllables(pres, max_exp)
    cands = [tuple(c for c in ranked if c[3] == mass)
             for mass in range(max_exp + 1)]
    # spans[lo][hi]: the candidates of mass lo..hi, by mass then sort key
    spans = [[sum(cands[lo:hi + 1], ()) for hi in range(max_exp + 1)]
             for lo in range(max_exp + 1)]

    def fill(head, ranks, rem, left, t_prev, t0, r0):
        # (head, ranks, rem, t_prev, t0, r0) after each way to add `left`
        # syllables before the last, t0 and r0 being the first track and
        # rank; lo..hi leaves the rest a mass it can take
        lo, hi = max(1, rem - left * max_exp), min(max_exp, rem - left)
        for s, t, r, mass in spans[lo][hi]:
            if not head:
                t0, r0 = t, r
            elif t == t_prev or r < r0:
                continue
            if left == 1:
                yield head + (s,), ranks + (r,), rem - mass, t, t0, r0
            else:
                yield from fill(head + (s,), ranks + (r,), rem - mass,
                                left - 1, t, t0, r0)

    for m in range(max(1, min_len), max_len + 1):
        for total in range(m, m * max_exp + 1):
            if m == 1:
                yield from (Word(pres, (s,)) for s, *_ in cands[total]
                            if type(s) is FreeSyllable)
                continue
            for head, ranks, rem, t, t0, r0 in fill((), (), total, m - 1,
                                                    None, None, None):
                # the last syllable: every one of mass exactly `rem`
                tie = r0 in ranks[2:]
                for s, t2, r2, _ in cands[rem]:
                    if t2 == t or t2 == t0 or r2 < r0:
                        continue
                    if tie and least_rotation(ranks + (r2,)):
                        continue
                    yield Word(pres, head + (s,))


def graded_key(w: Word):
    """Sort key of the graded order: syllable count, then total exponent
    mass, then syllable by syllable (mass, sort key)."""
    return (len(w), w.mass, tuple((s.mass, s.sort_key()) for s in w.syllables))


def enumerate_words(pres: Presentation, max_len: int, max_exp: int):
    """All normal-form words of at most max_len syllables, each of exponent
    mass at most max_exp, in `Word.sort_key` order: the empty word first,
    then by syllable count, then syllable by syllable in sort-key order."""
    ranked = _ranked_syllables(pres, max_exp)

    def walk(head, t_prev, left):
        # each way to add `left` syllables after `head`, depth first
        for s, t, _, _ in ranked:
            if t == t_prev:
                continue
            if left == 1:
                yield Word(pres, head + (s,))
            else:
                yield from walk(head + (s,), t, left - 1)

    yield Word(pres)
    for m in range(1, max_len + 1):
        yield from walk((), None, m)


# ---------------------------------------------------------------------------
# growth of conjugacy classes

@dataclass(frozen=True)
class OrbitData:
    """Per-iterate cyclic data of one conjugacy class."""

    lengths: tuple            # cyclic syllable lengths, n = 0..n_max
    masses: tuple             # total factor/letter exponent L1 mass of the core
    classes: tuple            # canonical rotations (conjugacy invariants)


def orbit_lengths(phi: Automorphism, g: Word, n_max: int) -> OrbitData:
    require_class_preserving(phi)
    if not g:
        raise ValueError("orbit of the empty word")
    lengths, masses, classes = [], [], []
    w = g
    for _ in range(n_max + 1):
        cyc = cyclic_normal_form(w)
        lengths.append(len(cyc))
        masses.append(cyc.mass)
        classes.append(cyc.canonical_rotation())
        w = apply(phi, w)
    return OrbitData(tuple(lengths), tuple(masses), tuple(classes))


@dataclass(frozen=True)
class GrowthVerdict:
    kind: str                 # "bounded" | "polynomial" | "exponential"
    heuristic: bool
    rate: float | None = None
    degree: int | None = None
    preperiod: int | None = None
    period: int | None = None
    diagnostics: dict = field(default_factory=dict)


def _fit(xs, ys):
    slope, intercept = statistics.linear_regression(xs, ys)
    try:
        r2 = statistics.correlation(xs, ys) ** 2
    except statistics.StatisticsError:
        r2 = 1.0  # zero variance: a constant is fit exactly
    return slope, intercept, r2


def classify_growth(seq, classes=None) -> GrowthVerdict:
    """Classify an orbit length sequence.

    Bounded growth is detected exactly through repetition of the conjugacy
    classes when they are supplied; the exponential/polynomial split is a
    log-linear versus log-log fit over the last half of the sequence and is
    flagged heuristic.
    """
    seq = tuple(seq)
    if len(seq) < 8:
        raise TooShort(f"need at least 8 iterates, got {len(seq)}")
    if classes is not None:
        seen = {}
        for n, cls in enumerate(classes):
            if cls in seen:
                return GrowthVerdict("bounded", False, preperiod=seen[cls],
                                     period=n - seen[cls])
            seen[cls] = n
    half = len(seq) // 2
    xs = list(range(half, len(seq)))
    tail = seq[half:]
    logs = [math.log(max(v, 1)) for v in tail]
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    slope, _, r2 = _fit(xs, logs)
    diagnostics = {"log_slope": slope, "log_r2": r2}
    if increasing and r2 >= R2_EXPONENTIAL and slope > 0:
        return GrowthVerdict("exponential", True, rate=math.exp(slope),
                             diagnostics=diagnostics)
    loglog_x = [math.log(n) for n in xs]
    ll_slope, _, ll_r2 = _fit(loglog_x, logs)
    diagnostics.update({"loglog_slope": ll_slope, "loglog_r2": ll_r2})
    return GrowthVerdict("polynomial", True, degree=max(0, round(ll_slope)),
                         diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# bounded searches

@dataclass
class SearchReport:
    """Outcome of a bounded search.

    verdict is "witness" (a disproving/positive witness was found) or
    "exhausted" (the full enumeration passed without one).
    Flare certification stores its certificate under ``certificate`` and its
    failing words under ``counterexamples``.
    """

    verdict: str
    bounds: dict
    witness: dict | None = None
    counterexamples: list = field(default_factory=list)
    certificate: dict | None = None
    tested: int = 0
    notes: str = ""
    profile: tuple | None = None  # flare: per-exponent all-words verdicts


def _abelian_prefilter(phi: Automorphism, max_iter: int):
    """A test that a class g can be fixed by some phi^n, n <= max_iter, in
    the abelianization: A^n v = v, for A the `abelianized_matrix` and
    v = `abelianize(g)`, the image of g in G_ab.  Conjugate elements have
    one image in G_ab, so a class failing the test is fixed by no such
    phi^n.

    Only max_iter/2 < n <= max_iter are tried: A^n v = v implies
    A^(2n) v = v.  When every A^n - I tried is nonsingular, only v = 0
    passes.
    """
    a = phi.abelianized_matrix
    eye = IntegerMatrix.identity(a.nrows)
    a_n = eye
    diffs = []  # A^n - I for the n tried
    for n in range(1, max_iter + 1):
        a_n = a_n * a
        if 2 * n > max_iter:
            diffs.append(a_n - eye)
    only_zero = all(determinant(d) for d in diffs)
    row_sets = [tuple(row for row in d.entries if any(row)) for d in diffs]

    def may_be_periodic(g: Word) -> bool:
        v = abelianize(g)
        if only_zero:
            return not any(v)
        for rows in row_sets:
            for row in rows:
                if sum(map(mul, row, v)):
                    break
            else:
                return True
        return False
    return may_be_periodic


def atoroidal_search(phi: Automorphism, max_len: int, max_exp: int,
                     max_iter: int,
                     shard: tuple[int, int] | None = None) -> SearchReport:
    """Search for a hyperbolic conjugacy class fixed by some phi^n, n <= N.

    A witness disproves atoroidality; "exhausted" means atoroidal up to the
    stated bounds, nothing more.
    """
    require_class_preserving(phi)
    bounds = {"max_len": max_len, "max_exp": max_exp, "max_iter": max_iter}
    may_be_periodic = _abelian_prefilter(phi, max_iter)
    tested = 0
    for idx, g in enumerate(enumerate_cyclic_words(phi.presentation,
                                                   max_len, max_exp)):
        if shard is not None and idx % shard[1] != shard[0]:
            continue
        tested += 1
        if not may_be_periodic(g):
            continue
        # g is in cyclic normal form and is its own least rotation
        key = g.syllables
        w = g
        for n in range(1, max_iter + 1):
            w = apply(phi, w)
            cyc = cyclic_normal_form(w)
            if len(cyc) == len(key) and cyc.canonical_rotation() == key:
                # re-verified by table substitution, which reads no block
                image = g
                for _ in range(n):
                    image = _apply_table(phi.images, phi.presentation, image)
                if not conjugate_test(image, g):
                    raise SelfCheckFailed(
                        "periodic class failed re-verification")
                return SearchReport("witness", bounds,
                                    witness={"element": g, "exponent": n,
                                             "index": idx},
                                    tested=tested)
    return SearchReport("exhausted", bounds, tested=tested,
                        notes="atoroidal up to the stated bounds")


def _subgroup_descriptors(pres: Presentation, conj_len: int):
    """(u, i) with u a canonical coset representative of u A_i (u does not
    end in A_i), over the words u of at most conj_len syllables and
    exponent mass, in (i, `Word.sort_key`) order."""
    words = list(enumerate_words(pres, conj_len, conj_len))
    return [(u, i) for i in range(1, pres.num_factors + 1) for u in words
            if not (u and isinstance(u.syllables[-1], FactorSyllable)
                    and u.syllables[-1].factor == i)]


def twin_search(phi: Automorphism, max_power: int, conj_len: int,
                shard: tuple[int, int] | None = None) -> SearchReport:
    """Search for subgroups H = uA_iu^-1, K = vA_jv^-1 twinned by phi^m,
    m <= max_power, over the words u, v of at most conj_len syllables, each
    of exponent mass at most conj_len.

    Each descriptor (u, i) has heads h_0 = u, h_m = phi(h_{m-1}) g_i
    (`conjugator_step`) with phi^m(uA_iu^-1) = h_m A_i h_m^-1, computed on
    first use, so a search that stops early images few of them.  A g with
    gHg^-1 = phi^m(H) and gKg^-1 = phi^m(K) lies in h_m A_i u^-1 and in
    h'_m A_j v^-1, so one exists iff c = h_m^-1 h'_m lies in A_i (u^-1 v) A_j,
    which the canonical double-coset representative decides exactly, for
    any choice of heads (h_m b, b in A_i, is one too).  Then g = h_m a u^-1,
    a the leading A_i syllable of c over that of u^-1 v.  g is unique: these
    are cosets of phi^m(H) and phi^m(K), distinct conjugates that meet
    trivially, so they share at most one element.  Both conjugation
    equations of g are re-verified on factor generators.
    """
    require_class_preserving(phi)
    bounds = {"max_power": max_power, "conj_len": conj_len, "max_exp": conj_len}
    descr = _subgroup_descriptors(phi.presentation, conj_len)
    n_pairs = len(descr) * (len(descr) - 1) // 2
    heads = [(0, u) for u, _ in descr]  # (m, h_m), for the last m reached

    def head(k: int, m: int) -> Word:
        n, h = heads[k]
        if n < m:
            for _ in range(m - n):
                h = conjugator_step(phi, descr[k][1], h)
            heads[k] = m, h
        return h

    tested = 0
    for m in range(1, max_power + 1):
        first = None
        for idx, ((k, (u, i)), (l, (v, j))) in enumerate(
                itertools.combinations(enumerate(descr), 2)):
            if shard is not None and idx % shard[1] != shard[0]:
                continue
            tested += 1
            if k != first:  # pairs come grouped by their first descriptor
                first, u_inv, h = k, u.inverse(), head(k, m)
                h_inv = h.inverse()
            w = multiply(u_inv, v)
            c = multiply(h_inv, head(l, m))
            if double_coset_rep(i, c, j) != double_coset_rep(i, w, j):
                continue
            a = multiply(_leading_factor_part(c, i),
                         _leading_factor_part(w, i).inverse())
            g = multiply(multiply(h, a), u_inv)
            _verify_twin(phi, m, i, u, g)
            _verify_twin(phi, m, j, v, g)
            return SearchReport(
                "witness", bounds,
                witness={"factor_i": i, "conj_u": u, "factor_j": j,
                         "conj_v": v, "power": m, "element": g,
                         "index": (m - 1) * n_pairs + idx},
                tested=tested)
    return SearchReport("exhausted", bounds, tested=tested,
                        notes="no twinned pair up to the stated bounds")


def _leading_factor_part(w: Word, i: int):
    syl = w.syllables
    if syl and isinstance(syl[0], FactorSyllable) and syl[0].factor == i:
        return Word(w.presentation, (syl[0],))
    return Word(w.presentation)


def _verify_twin(phi: Automorphism, m: int, i: int, u: Word, g: Word):
    """Check phi^m(u a u^-1) lies in (gu) A_i (gu)^-1 for the generators a
    of A_i by table substitution: independent of the heads and blocks."""
    pres = phi.presentation
    gu = multiply(g, u)
    for r in range(1, pres.factor_rank(i) + 1):
        x = multiply(multiply(u, generator_word(pres, f"a{i}.{r}")),
                     u.inverse())
        for _ in range(m):
            x = _apply_table(phi.images, pres, x)
        y = multiply(multiply(gu.inverse(), x), gu)
        if double_coset_rep(i, y, i):  # y is not in A_i
            raise SelfCheckFailed("twin witness failed re-verification")


def flare_certify(phi: Automorphism, min_len: int, max_len: int, max_exp: int,
                  n_max: int, lambda_min,
                  shard: tuple[int, int] | None = None) -> SearchReport:
    """Empirical flare certificate: lambda |g| <= max(|phi^N g|, |phi^-N g|).

    Quantifies over the enumerated conjugacy-class representatives with
    min_len <= cyclic syllable length <= max_len only; a returned
    certificate is empirical evidence, not a proof.  Lengths are cyclic
    syllable lengths (the recorded |.|_H convention).
    """
    require_class_preserving(phi)
    lam = Fraction(str(lambda_min))
    if lam <= 1:
        raise ValueError("lambda_min must be > 1")
    if min_len > max_len:
        raise ValueError("min_len must not exceed max_len: no class to test")
    bounds = {"min_len": min_len, "max_len": max_len, "max_exp": max_exp,
              "n_max": n_max, "lambda_min": str(lam)}
    p, q = lam.numerator, lam.denominator  # lambda |g| > m iff p |g| > q m
    ok = [True] * (n_max + 1)  # ok[N]: inequality holds for all words at N
    failures_at_nmax = []
    tested = 0
    for idx, g in enumerate(enumerate_cyclic_words(phi.presentation, max_len,
                                                   max_exp, min_len=min_len)):
        if shard is not None and idx % shard[1] != shard[0]:
            continue
        tested += 1
        base = len(g)
        fwd, bwd = g, g
        for n in range(1, n_max + 1):
            fwd = apply(phi, fwd)
            bwd = apply_inverse(phi, bwd)
            grown = max(len(cyclic_normal_form(fwd)), len(cyclic_normal_form(bwd)))
            if p * base > q * grown:
                ok[n] = False
                if n == n_max:
                    failures_at_nmax.append(g)
    return flare_report(bounds, tuple(ok[1:]), failures_at_nmax, tested)


def flare_report(bounds: dict, profile: tuple, failures: list,
                 tested: int) -> SearchReport:
    """The flare verdict of a per-exponent profile (profile[N-1]: the
    inequality held for every word at N): a certificate at the least such
    N, else the words failing at n_max."""
    for n, ok in enumerate(profile, start=1):
        if ok:
            cert = {"lambda": bounds["lambda_min"], "exponent": n,
                    "min_len": bounds["min_len"], "max_len": bounds["max_len"],
                    "max_exp": bounds["max_exp"],
                    "metric": "cyclic syllable length",
                    "quantified_over": "enumerated conjugacy classes",
                    "empirical": True}
            return SearchReport("exhausted", bounds, certificate=cert,
                                tested=tested,
                                notes="empirical evidence, not a proof",
                                profile=profile)
    return SearchReport("witness", bounds, counterexamples=failures,
                        tested=tested,
                        notes="words failing the flare inequality at n_max",
                        profile=profile)
