"""Orbit growth, bounded-search atoroidality, twinned subgroups, flaring.

Every negative verdict here is a bounded-search verdict: "exhausted" always
means exhausted up to the recorded bounds, never a proof.  Enumeration runs
in graded order (syllable count, then total exponent mass, then
lexicographic) so results are reproducible and witnesses are found small
side first.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .automorphisms import (Automorphism, apply, apply_power,
                            check_central_condition, compose)
from .errors import FactorsPermuted, TooShort
from .matrices import IntegerMatrix, kernel_vector
from .words import (FactorSyllable, FreeSyllable, Presentation, Word,
                    conjugacy_key, conjugate_test, cyclic_normal_form,
                    double_coset_rep, least_rotation, multiply)


def _require_class_preserving(phi: Automorphism):
    if not phi.preserves_factor_classes:
        raise FactorsPermuted("dynamics need the identity factor permutation; "
                              "take a power of the automorphism first")


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


def _syllables_of_mass(pres: Presentation, mass: int):
    """All syllables of the given exponent mass, in sort order."""
    out = []
    for i in range(1, pres.num_factors + 1):
        for vec in _vectors_of_mass(pres.factor_rank(i), mass):
            out.append(FactorSyllable(i, vec))
    for l in range(1, pres.free_rank + 1):
        out.append(FreeSyllable(l, mass))
        out.append(FreeSyllable(l, -mass))
    out.sort(key=lambda s: s.sort_key())
    return out


def _graded_sequences(pres: Presentation, max_len: int, max_exp: int,
                      min_len: int = 1, cyclic: bool = False):
    """Normal-form syllable tuples of min_len..max_len syllables, each of
    exponent mass at most max_exp, in graded order (see `graded_key`).

    With `cyclic` the last and first syllable must lie in different factors
    as well, so every tuple is cyclically reduced, and no syllable whose sort
    key is below the first syllable's is placed after it: the rotation
    starting there would be smaller, so such a tuple is never its own least
    rotation.  Ties with the first syllable are left to the caller's
    `least_rotation` filter.

    One generator frame walks the positions with an explicit stack of
    candidate iterators; the last position is filled by a flat loop over the
    syllables of exactly the mass left.  A candidate is a tuple (syllable,
    track id, rank, mass), the rank being its place in sort-key order, so the
    inner loops compare ints.
    """
    nf = pres.num_factors
    per_mass = [[]] + [_syllables_of_mass(pres, mass)
                       for mass in range(1, max_exp + 1)]
    rank = {s: r for r, s in enumerate(
        sorted((s for syls in per_mass for s in syls),
               key=lambda s: s.sort_key()))}
    cands = [tuple((s, s.factor if isinstance(s, FactorSyllable)
                    else nf + s.letter, rank[s], mass)
                   for s in syls)
             for mass, syls in enumerate(per_mass)]
    # spans[lo][hi]: the candidates of mass lo..hi, by mass then sort key
    spans = [[sum(cands[lo:hi + 1], ()) for hi in range(max_exp + 1)]
             for lo in range(max_exp + 1)]

    for m in range(max(1, min_len), max_len + 1):
        if m == 1:
            for total in range(1, max_exp + 1):
                for s in per_mass[total]:
                    yield (s,)
            continue
        for total in range(m, m * max_exp + 1):
            # positions 0..m-2 on the stack, len(its) == len(chosen) + 1
            its = [iter(spans[max(1, total - (m - 1) * max_exp)]
                        [min(max_exp, total - (m - 1))])]
            rems = [total]
            chosen = []
            while its:
                pos = len(chosen)
                if pos:
                    prev_t = chosen[-1][1]
                    t0, r0 = chosen[0][1], chosen[0][2]
                for cand in its[-1]:
                    s, t, r, mass = cand
                    if pos and (t == prev_t or (cyclic and r < r0)):
                        continue
                    break
                else:
                    its.pop()
                    rems.pop()
                    if chosen:
                        chosen.pop()
                    continue
                rem = rems[-1] - mass
                if pos < m - 2:
                    slots_left = m - pos - 2
                    chosen.append(cand)
                    rems.append(rem)
                    its.append(iter(spans[max(1, rem - slots_left * max_exp)]
                                    [min(max_exp, rem - slots_left)]))
                    continue
                # last position: every syllable of mass exactly `rem`
                if not pos:
                    t0, r0 = t, r
                head = tuple(c[0] for c in chosen) + (s,)
                for s2, t2, r2, _ in cands[rem]:
                    if t2 == t or (cyclic and (t2 == t0 or r2 < r0)):
                        continue
                    yield head + (s2,)


def graded_key(w: Word):
    """Sort key of the graded order: syllable count, then total exponent
    mass, then syllable by syllable (mass, sort key)."""
    return (len(w), w.mass, tuple((s.mass, s.sort_key()) for s in w.syllables))


def enumerate_cyclic_words(pres: Presentation, max_len: int, max_exp: int,
                           min_len: int = 1, hyperbolic_only: bool = True):
    """Cyclically reduced conjugacy-class representatives, graded.

    Yields Words whose syllable tuple is in cyclic normal form and is the
    lexicographically least rotation of its class; ordering is by syllable
    count, then total exponent mass, then lexicographic.
    """
    for syl in _graded_sequences(pres, max_len, max_exp, min_len, cyclic=True):
        m = len(syl)
        if hyperbolic_only and m == 1 and isinstance(syl[0], FactorSyllable):
            continue
        if m > 1 and least_rotation([s.sort_key() for s in syl]) != 0:
            continue
        yield Word(pres, syl)


def enumerate_words(pres: Presentation, max_len: int, max_exp: int):
    """All normal-form words with <= max_len syllables, graded; starts with
    the empty word."""
    yield Word(pres)
    for syl in _graded_sequences(pres, max_len, max_exp):
        yield Word(pres, syl)


# ---------------------------------------------------------------------------
# growth of conjugacy classes

@dataclass(frozen=True)
class OrbitData:
    """Per-iterate cyclic data of one conjugacy class."""

    lengths: tuple            # cyclic syllable lengths, n = 0..n_max
    masses: tuple             # total factor/letter exponent L1 mass of the core
    classes: tuple            # canonical rotations (conjugacy invariants)


def orbit_lengths(phi: Automorphism, g: Word, n_max: int) -> OrbitData:
    _require_class_preserving(phi)
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
    data: tuple
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


def classify_growth(seq, classes=None, r2_threshold: float = 0.999) -> GrowthVerdict:
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
                return GrowthVerdict("bounded", False, seq,
                                     preperiod=seen[cls], period=n - seen[cls])
            seen[cls] = n
    half = len(seq) // 2
    xs = list(range(half, len(seq)))
    tail = seq[half:]
    logs = [math.log(max(v, 1)) for v in tail]
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    slope, _, r2 = _fit(xs, logs)
    diagnostics = {"log_slope": slope, "log_r2": r2}
    if increasing and r2 >= r2_threshold and slope > 0:
        return GrowthVerdict("exponential", True, seq, rate=math.exp(slope),
                             diagnostics=diagnostics)
    loglog_x = [math.log(n) for n in xs]
    ll_slope, _, ll_r2 = _fit(loglog_x, logs)
    diagnostics.update({"loglog_slope": ll_slope, "loglog_r2": ll_r2})
    return GrowthVerdict("polynomial", True, seq,
                         degree=max(0, round(ll_slope)), diagnostics=diagnostics)


def classify_orbit(phi: Automorphism, g: Word, n_max: int = 16,
                   use_mass: bool = False) -> GrowthVerdict:
    data = orbit_lengths(phi, g, n_max)
    seq = data.masses if use_mass else data.lengths
    return classify_growth(seq, classes=data.classes)


# ---------------------------------------------------------------------------
# bounded searches

@dataclass
class SearchReport:
    """Outcome of a bounded search.

    verdict is "witness" (a disproving/positive witness was found),
    "exhausted" (the full enumeration passed without one) or "undecided".
    Flare certification stores its certificate under ``certificate`` and its
    failing words under ``counterexamples``.
    """

    verdict: str
    bounds: dict
    witness: dict | None = None
    counterexamples: list = field(default_factory=list)
    certificate: dict | None = None
    tested: int = 0
    elapsed: float = 0.0
    notes: str = ""
    profile: tuple | None = None  # flare: per-exponent all-words verdicts


def atoroidal_search(phi: Automorphism, max_len: int, max_exp: int,
                     max_iter: int,
                     shard: tuple[int, int] | None = None) -> SearchReport:
    """Search for a hyperbolic conjugacy class fixed by some phi^n, n <= N.

    A witness disproves atoroidality; "exhausted" means atoroidal up to the
    stated bounds, nothing more.
    """
    _require_class_preserving(phi)
    t0 = time.perf_counter()
    bounds = {"max_len": max_len, "max_exp": max_exp, "max_iter": max_iter}
    tested = 0
    for idx, g in enumerate(enumerate_cyclic_words(phi.presentation,
                                                   max_len, max_exp)):
        if shard is not None and idx % shard[1] != shard[0]:
            continue
        tested += 1
        key = conjugacy_key(g)
        w = g
        for n in range(1, max_iter + 1):
            w = apply(phi, w)
            cyc = cyclic_normal_form(w)
            if len(cyc) == len(key) and cyc.canonical_rotation() == key:
                assert conjugate_test(apply_power(phi, n, g), g)
                return SearchReport("witness", bounds,
                                    witness={"element": g, "exponent": n,
                                             "index": idx},
                                    tested=tested,
                                    elapsed=time.perf_counter() - t0)
    return SearchReport("exhausted", bounds, tested=tested,
                        elapsed=time.perf_counter() - t0,
                        notes="atoroidal up to the stated bounds")


def _subgroup_descriptors(pres: Presentation, conj_len: int, max_exp: int):
    """(u, i) with u a canonical coset representative of u A_i."""
    out = []
    for u in enumerate_words(pres, conj_len, max_exp):
        for i in range(1, pres.num_factors + 1):
            last = u.syllables[-1] if u.syllables else None
            if isinstance(last, FactorSyllable) and last.factor == i:
                continue
            out.append((u, i))
    out.sort(key=lambda d: (d[1], d[0].sort_key()))
    return out


def twin_search(phi: Automorphism, max_power: int, conj_len: int,
                max_exp: int | None = None,
                shard: tuple[int, int] | None = None) -> SearchReport:
    """Search for subgroups H = uA_iu^-1, K = vA_jv^-1 twinned by phi^m.

    They are twinned iff c = g_i^{(m)-1} phi^m(u^-1 v) g_j^{(m)} lies in the
    double coset A_i (u^-1 v) A_j, which the canonical double-coset
    representative decides exactly.  The common conjugating element g is
    rebuilt from the coset data and both conjugation equations are
    re-verified on factor generators.
    """
    _require_class_preserving(phi)
    t0 = time.perf_counter()
    max_exp = conj_len if max_exp is None else max_exp
    pres = phi.presentation
    bounds = {"max_power": max_power, "conj_len": conj_len, "max_exp": max_exp}
    descr = _subgroup_descriptors(pres, conj_len, max_exp)
    n_pairs = len(descr) * (len(descr) - 1) // 2
    tested = 0
    phi_m = None
    for m in range(1, max_power + 1):
        # phi^m = phi^(m-1) o phi, the composition order of `power`
        phi_m = phi if m == 1 else compose(phi_m, phi)
        for idx, ((u, i), (v, j)) in enumerate(
                itertools.combinations(descr, 2)):
            if shard is not None and idx % shard[1] != shard[0]:
                continue
            tested += 1
            gi = phi_m.conjugator(i)
            gj = phi_m.conjugator(j)
            w = multiply(u.inverse(), v)
            c = multiply(multiply(gi.inverse(), apply(phi_m, w)), gj)
            if double_coset_rep(i, c, j) != double_coset_rep(i, w, j):
                continue
            g = _twin_witness_element(phi_m, i, j, u, v, c, w)
            _verify_twin(phi_m, i, u, g)
            _verify_twin(phi_m, j, v, g)
            return SearchReport(
                "witness", bounds,
                witness={"factor_i": i, "conj_u": u, "factor_j": j,
                         "conj_v": v, "power": m, "element": g,
                         "index": (m - 1) * n_pairs + idx},
                tested=tested, elapsed=time.perf_counter() - t0)
    return SearchReport("exhausted", bounds, tested=tested,
                        elapsed=time.perf_counter() - t0,
                        notes="no twinned pair up to the stated bounds")


def _leading_factor_part(w: Word, i: int):
    syl = w.syllables
    if syl and isinstance(syl[0], FactorSyllable) and syl[0].factor == i:
        return Word(w.presentation, (syl[0],))
    return Word(w.presentation)


def _twin_witness_element(phi_m, i, j, u, v, c, w) -> Word:
    """g with phi^m(uA_iu^-1) = g . uA_iu^-1 . g^-1 and likewise for (v, j).

    From c = a1 r b1 and w = a2 r b2 (r the double coset representative),
    a = a1 a2^-1 solves c A_j  meets  a w A_j, and
    g = phi^m(u) g_i^{(m)} a u^-1.
    """
    a1 = _leading_factor_part(c, i)
    a2 = _leading_factor_part(w, i)
    a = multiply(a1, a2.inverse())
    return multiply(
        multiply(multiply(apply(phi_m, u), phi_m.conjugator(i)), a),
        u.inverse())


def _verify_twin(phi_m, i: int, u: Word, g: Word):
    """Check phi^m(u a u^-1) lies in (gu) A_i (gu)^-1 for all generators a."""
    pres = phi_m.presentation
    gu = multiply(g, u)
    for r in range(1, pres.factor_rank(i) + 1):
        vec = tuple(1 if s == r else 0 for s in range(1, pres.factor_rank(i) + 1))
        x = multiply(multiply(u, Word(pres, (FactorSyllable(i, vec),))), u.inverse())
        y = multiply(multiply(gu.inverse(), apply(phi_m, x)), gu)
        if not (len(y) == 1 and isinstance(y.syllables[0], FactorSyllable)
                and y.syllables[0].factor == i):
            raise AssertionError("twin witness failed re-verification")


def flare_certify(phi: Automorphism, min_len: int, max_len: int, max_exp: int,
                  n_max: int, lambda_min,
                  shard: tuple[int, int] | None = None) -> SearchReport:
    """Empirical flare certificate: lambda |g| <= max(|phi^N g|, |phi^-N g|).

    Quantifies over the enumerated conjugacy-class representatives with
    min_len <= cyclic syllable length <= max_len only; a returned
    certificate is empirical evidence, not a proof.  Lengths are cyclic
    syllable lengths (the recorded |.|_H convention).
    """
    _require_class_preserving(phi)
    lam = Fraction(str(lambda_min))
    if lam <= 1:
        raise ValueError("lambda_min must be > 1")
    t0 = time.perf_counter()
    bounds = {"min_len": min_len, "max_len": max_len, "max_exp": max_exp,
              "n_max": n_max, "lambda_min": str(lam)}
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
            bwd = apply_power(phi, -1, bwd)
            grown = max(len(cyclic_normal_form(fwd)), len(cyclic_normal_form(bwd)))
            if lam * base > grown:
                ok[n] = False
                if n == n_max:
                    failures_at_nmax.append(g)
    return flare_report(bounds, tuple(ok[1:]), failures_at_nmax, tested,
                        elapsed=time.perf_counter() - t0)


def flare_report(bounds: dict, profile: tuple, failures: list, tested: int,
                 elapsed: float = 0.0) -> SearchReport:
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
                                tested=tested, elapsed=elapsed,
                                notes="empirical evidence, not a proof",
                                profile=profile)
    return SearchReport("witness", bounds, counterexamples=failures,
                        tested=tested, elapsed=elapsed,
                        notes="words failing the flare inequality at n_max",
                        profile=profile)


def _fixed_vector(m: IntegerMatrix):
    """A nonzero integer vector with M v = v, or None."""
    return kernel_vector(m - IntegerMatrix.identity(m.nrows))


@dataclass
class ImplicationReport:
    central: dict
    atoroidal: SearchReport
    twins: SearchReport
    status: str          # "vacuous" | "consistent" | "witness-beyond-bounds" | "violated"
    constructed_class: Word | None = None
    constructed_power: int | None = None


def no_twin_implication_check(phi: Automorphism, max_len: int = 3,
                              max_exp: int = 2, max_iter: int = 3,
                              max_power: int = 2,
                              conj_len: int = 2) -> ImplicationReport:
    """Cross-check: central condition + atoroidal  =>  no twinned subgroups.

    When the searches contradict the implication, the fixed hyperbolic class
    the twin witness produces is constructed explicitly; if that class fails
    its own re-verification the report flags a library bug ("violated").
    Otherwise the contradiction only shows the atoroidal bounds were too
    small ("witness-beyond-bounds").
    """
    central = check_central_condition(phi)
    ator = atoroidal_search(phi, max_len, max_exp, max_iter)
    twins = twin_search(phi, max_power, conj_len)
    if not all(central.values()) or ator.verdict == "witness":
        return ImplicationReport(central, ator, twins, "vacuous")
    if twins.verdict != "witness":
        return ImplicationReport(central, ator, twins, "consistent")
    # central + atoroidal-up-to-bounds, yet a twin witness: build the class
    wit = twins.witness
    m, i, j = wit["power"], wit["factor_i"], wit["factor_j"]
    u, v = wit["conj_u"], wit["conj_v"]
    pres = phi.presentation
    phi_m = power(phi, m)
    x = _fixed_vector(phi_m.factor_matrix(i))
    y = _fixed_vector(phi_m.factor_matrix(j))
    if x is None or y is None:
        return ImplicationReport(central, ator, twins, "violated")
    h = multiply(
        multiply(multiply(u, Word(pres, (FactorSyllable(i, x),))), u.inverse()),
        multiply(multiply(v, Word(pres, (FactorSyllable(j, y),))), v.inverse()))
    if h and conjugate_test(apply_power(phi, m, h), h):
        return ImplicationReport(central, ator, twins, "witness-beyond-bounds",
                                 constructed_class=h, constructed_power=m)
    return ImplicationReport(central, ator, twins, "violated",
                             constructed_class=h, constructed_power=m)
