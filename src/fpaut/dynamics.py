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
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import mul

from . import verify
from .automorphisms import (Automorphism, apply, apply_inverse,
                            conjugator_step, require_class_preserving)
from .errors import TooShort
from .matrices import IntegerMatrix, determinant
from .words import (FactorSyllable, FreeSyllable, Presentation, Word,
                    abelianize, cyclic_normal_form, double_coset_rep,
                    least_rotation, multiply)

# least r^2 of the log-linear fit for `classify_growth` to call a tail
# exponential
R2_EXPONENTIAL = 0.999
# pairs per root group of `twin_search`.  Whole rows (one root group per
# first descriptor and power) delay an early witness at --jobs 2: on 2
# cores, intro at --max-exp 2 --conj-len 2 took 3.5-3.9 ms, not 2.3-2.4 ms
_TWIN_RUN = 64


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


def _root_groups(pres: Presentation, max_len: int, max_exp: int,
                 min_len: int = 1, weight=None):
    """One iterator per root group of `enumerate_cyclic_words` (the classes
    of one syllable count, total mass and first syllable), in stream order,
    empty ones included; a walk skips the iterators of the groups it does
    not take (`_claimed`), which costs nothing until a group is walked.

    A group yields (syllables, weight_sum) per class: the syllables of its
    representative and the sum of ``weight(s)`` over them, an int per
    syllable s, 0 when ``weight`` is None (`_abelian_prefilter` makes one
    whose sums its ``passes`` tests alone, without the class length).  Each
    syllable's weight is computed once and carried in its candidate tuple,
    and a class's sum is its prefix's plus one addition, so the sum costs
    O(1) per class.

    The syllables are in cyclic normal form (the last and first syllable lie
    in different factors as well) and are the least rotation of their class
    by syllable sort key.  The elliptic classes, one factor syllable each,
    are left out; a free syllable acts loxodromically on its loop edge, so
    it counts as hyperbolic.  No syllable whose rank is below the first
    syllable's is placed after it: the rotation starting there would be
    smaller.  So a rotation can be smaller only where a later syllable ties
    with the first; only those rank tuples go to `least_rotation`, the one
    rule of the word layer, and a tuple is kept when its least rotation
    starts at index 0.  A tie needs a syllable between two others, as the
    neighbours of the first syllable lie in other factors.

    A candidate is a tuple (syllable, track id, rank, mass, weight) of the
    syllables of `_ranked_syllables`, so the inner loops compare ints.  The
    root loop picks the first syllable; the nested generator `fill` recurses
    over the positions between it and the last; a flat loop fills the last.
    This measured faster than an explicit stack, and it is safe: the
    recursion is as deep as the tuple is long, and with two or more tracks
    m syllables come only after 2^(m-2) shorter classes (with one, no tuple
    has two), so only a min_len near the recursion limit reaches it.

    The last syllable lies on neither the track t of the one before it nor
    the track t0 of the first, so its candidates are tabled per (t0, t,
    mass): those on the other tracks, with their ranks, which ascend within
    one mass, so the loop starts at the first rank not below the first
    syllable's (`bisect_left`).  With exactly two tracks the syllables
    alternate between them, so a cycle of an odd count above one never
    closes: those groups are empty without a head being built.
    """
    ranked = [(s, t, r, mass, weight(s) if weight else 0)
              for s, t, r, mass in _ranked_syllables(pres, max_exp)]
    cands = [tuple(c for c in ranked if c[3] == mass)
             for mass in range(max_exp + 1)]
    # spans[lo][hi]: the candidates of mass lo..hi, by mass then sort key
    spans = [[sum(cands[lo:hi + 1], ()) for hi in range(max_exp + 1)]
             for lo in range(max_exp + 1)]
    # last[t0][t][mass]: (ranks, candidates) of that mass off tracks t, t0
    n_tracks = pres.num_factors + pres.free_rank
    tracks = range(1, n_tracks + 1)
    last = {t0: {t: [_off_tracks(c, t, t0) for c in cands] for t in tracks}
            for t0 in tracks}

    def fill(head, ranks, rem, left, t_prev, r0, acc):
        # (head, ranks, rem, t_prev, acc) after each way to add `left`
        # syllables before the last, r0 being the first rank; lo..hi leaves
        # the rest a mass it can take
        lo, hi = max(1, rem - left * max_exp), min(max_exp, rem - left)
        for s, t, r, mass, w in spans[lo][hi]:
            if t == t_prev or r < r0:
                continue
            if left == 1:
                yield head + (s,), ranks + (r,), rem - mass, t, acc + w
            else:
                yield from fill(head + (s,), ranks + (r,), rem - mass,
                                left - 1, t, r0, acc + w)

    def group(m, rem, s0, t0, r0, w0):
        # the classes of m syllables starting with s0, the other syllables
        # of total mass rem
        if m == 1:
            if type(s0) is FreeSyllable:
                yield (s0,), w0
            return
        if n_tracks == 2 and m % 2:
            return
        heads = fill((s0,), (r0,), rem, m - 2, t0, r0, w0) if m > 2 \
            else (((s0,), (r0,), rem, t0, w0),)
        table = last[t0]
        for head, ranks, rem, t, acc in heads:
            # the last syllable: every one of mass exactly `rem`
            tie = r0 in ranks[2:]
            last_ranks, last_cands = table[t][rem]
            for s, r2, w in last_cands[bisect_left(last_ranks, r0):]:
                if tie and least_rotation(ranks + (r2,)):
                    continue
                yield head + (s,), acc + w

    for m in range(max(1, min_len), max_len + 1):
        for total in range(m, m * max_exp + 1):
            # the first syllable leaves the other m - 1 a mass they can take
            lo = max(1, total - (m - 1) * max_exp)
            hi = min(max_exp, total - m + 1)
            for s0, t0, r0, mass0, w0 in spans[lo][hi]:
                yield group(m, total - mass0, s0, t0, r0, w0)


def _off_tracks(cands, t, t0):
    """(ranks, (syllable, rank, weight) triples) of the candidates on
    neither track t nor t0, in rank order."""
    kept = tuple((s, r, w) for s, t2, r, _, w in cands if t2 != t and t2 != t0)
    return tuple(r for _, r, _ in kept), kept


def _claimed(groups, owned):
    """The root groups a walk takes: every one when ``owned`` is None (the
    serial search), else those whose ordinal ``owned`` accepts.  ``owned``
    is that ownership predicate read ordinal by ordinal, an iterator of
    bools for groups 0, 1, ...; its end ends the walk."""
    return groups if owned is None else itertools.compress(groups, owned)


def _serial(records):
    """The default walk of a search: every root group, in this process."""
    return records()


def enumerate_cyclic_words(pres: Presentation, max_len: int, max_exp: int,
                           min_len: int = 1):
    """Cyclically reduced hyperbolic conjugacy-class representatives of
    min_len..max_len syllables, each of exponent mass at most max_exp, in
    graded order: syllable count, then total exponent mass, then syllable
    by syllable (mass, sort key); the root groups one after another."""
    for group in _root_groups(pres, max_len, max_exp, min_len):
        for syllables, _ in group:
            yield Word(pres, syllables)


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
    "exhausted" (the enumeration to the caller's bounds passed without one).
    Flare certification stores its certificate under ``certificate`` and its
    failing words under ``counterexamples``.

    A search makes one record per root group it walks, what the group
    tested and its witness, and folds the records of all its groups, in
    stream order, into the report (`witness_report`, `flare_report`).
    ``records(owned)`` yields the records of the groups that ``owned``
    accepts (`_claimed`), and may be called any number of times, with any
    ownership, in one process or in forked ones; the search's ``walk``
    decides which groups are walked where, and returns the records to fold.
    The default walk, ``records()``, is the serial search;
    `cli._merge_reports` is the ``--jobs`` walk, whose processes claim
    groups as they go.
    """

    verdict: str
    witness: dict | None = None
    counterexamples: list = field(default_factory=list)
    certificate: dict | None = None
    tested: int = 0
    notes: str = ""


def witness_report(records, notes: str) -> SearchReport:
    """The report of a search that stops at its first witness, from its
    root-group records (tested, witness or None) read lazily in stream
    order: the witness is the ``tested``-th item tested, else "exhausted"
    with ``notes``."""
    tested = 0
    for n, witness in records:
        tested += n
        if witness is not None:
            return SearchReport("witness", witness=witness, tested=tested)
    return SearchReport("exhausted", tested=tested, notes=notes)


def _abelian_prefilter(phi: Automorphism, max_len: int, max_exp: int,
                       max_iter: int):
    """(weight, passes): a test that a class g of at most max_len syllables,
    each of exponent mass at most max_exp, can be fixed by some phi^n,
    n <= max_iter, in the abelianization: A^n v = v, for A the
    `abelianized_matrix` and v = `abelianize(g)`, the image of g in G_ab.
    Conjugate elements have one image in G_ab, so a class failing the test
    is fixed by no such phi^n.

    Only max_iter/2 < n <= max_iter are tried: A^n v = v implies
    A^(2n) v = v.  (A^n - I) v = 0 when row . v = 0 for every row of
    A^n - I; when every A^n - I tried is nonsingular, only v = 0 passes,
    and the rows tested are those of I.

    The test is linear in g's syllables, so `_root_groups` sums it along
    each class: ``weight(s)`` is an int of signed bit fields, one per
    nonzero row of the A^n - I tried (a block per n), holding row . v(s)
    for v(s) = `abelianize` of the syllable s.  Each syllable has mass at
    most max_exp, so |row . v(g)| <= max_len max_exp max|row| = b, and a
    field of w = b.bit_length() + 1 bits holds row . v(g) + 2^(w-1) without
    carrying.  ``passes(acc)`` adds 2^(w-1) to every field of the weight
    sum acc; a field reads 2^(w-1) exactly when row . v(g) = 0, so a class
    passes when every field of some block does.  A block without nonzero
    rows (A^n = I) has no bits and passes every class.
    """
    pres = phi.presentation
    a = phi.abelianized_matrix
    eye = IntegerMatrix.identity(a.nrows)
    a_n, diffs = eye, []  # A^n - I for the n tried
    for n in range(1, max_iter + 1):
        a_n = a_n * a
        if 2 * n > max_iter:
            diffs.append(a_n - eye)
    if all(determinant(d) for d in diffs):
        diffs = [eye]
    # weight(s) = v(s) . packed: packed[j] holds column j of the rows, each
    # in its row's field; half holds the 2^(w-1) of every field
    packed, half, blocks, shift = [0] * a.nrows, 0, [], 0
    for d in diffs:
        start = shift
        for row in d.entries:
            bits = (max_len * max_exp * max(map(abs, row))).bit_length()
            if bits:  # a zero row has no field
                packed = [p + (x << shift) for p, x in zip(packed, row)]
                half += 1 << (shift + bits)
                shift += bits + 1
        blocks.append((start, (1 << (shift - start)) - 1, half >> start))

    def weight(s) -> int:
        return sum(map(mul, abelianize(Word(pres, (s,))), packed))

    def passes(acc: int) -> bool:
        acc += half
        for start, mask, zero in blocks:
            if (acc >> start) & mask == zero:
                return True
        return False
    return weight, passes


def atoroidal_search(phi: Automorphism, max_len: int, max_exp: int,
                     max_iter: int, walk: Callable = _serial) -> SearchReport:
    """Search for a hyperbolic conjugacy class fixed by some phi^n, n <= N.

    A witness disproves atoroidality; "exhausted" means atoroidal up to the
    stated bounds, nothing more.  ``records(owned)`` walks the root groups
    it takes of the class stream (`_root_groups`) up to its first witness,
    one record (tested, witness or None) per group; the stream carries the
    weight sums of `_abelian_prefilter`, and only a class that passes it is
    built as a Word and imaged.  ``walk(records)`` returns the records to
    fold (`SearchReport`).
    """
    require_class_preserving(phi)
    pres = phi.presentation
    weight, passes = _abelian_prefilter(phi, max_len, max_exp, max_iter)

    def records(owned=None):
        groups = _root_groups(pres, max_len, max_exp, weight=weight)
        for group in _claimed(groups, owned):
            tested = 0
            for tested, (key, acc) in enumerate(group, 1):
                if not passes(acc):
                    continue
                # key is in cyclic normal form and is its own least rotation
                g = w = Word(pres, key)
                for n in range(1, max_iter + 1):
                    w = apply(phi, w)
                    cyc = cyclic_normal_form(w)
                    if len(cyc) == len(key) and cyc.canonical_rotation() == key:
                        verify.periodic_class(phi, g, n)
                        yield tested, {"element": g, "exponent": n}
                        return
            yield tested, None
    return witness_report(walk(records), "atoroidal up to the stated bounds")


def _subgroup_descriptors(pres: Presentation, conj_len: int):
    """(u, i) with u a canonical coset representative of u A_i (u does not
    end in A_i), over the words u of at most conj_len syllables and
    exponent mass, in (i, `Word.sort_key`) order."""
    words = list(enumerate_words(pres, conj_len, conj_len))
    return [(u, i) for i in range(1, pres.num_factors + 1) for u in words
            if not (u and isinstance(u.syllables[-1], FactorSyllable)
                    and u.syllables[-1].factor == i)]


def twin_search(phi: Automorphism, max_power: int, conj_len: int,
                walk: Callable = _serial) -> SearchReport:
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
    trivially, so they share at most one element.  `verify.vertices`
    re-checks that g moves both descriptors' tree vertices as phi^m does.

    Its root groups are runs of at most `_TWIN_RUN` pairs (k, l), k < l,
    with one first descriptor k at one power, walked power by power;
    ``records(owned)`` walks the runs it takes up to its first witness, one
    record (tested, witness or None) per run, and ``walk(records)`` returns
    the records to fold (`SearchReport`).
    """
    require_class_preserving(phi)
    descr = _subgroup_descriptors(phi.presentation, conj_len)
    heads = [[u] for u, _ in descr]  # h_0, h_1, ... up to the m reached

    def head(k: int, m: int) -> Word:
        hs = heads[k]
        while len(hs) <= m:
            hs.append(conjugator_step(phi, descr[k][1], hs[-1]))
        return hs[m]

    def records(owned=None):
        runs = ((m, k, range(lo, min(lo + _TWIN_RUN, len(descr))))
                for m in range(1, max_power + 1) for k in range(len(descr) - 1)
                for lo in range(k + 1, len(descr), _TWIN_RUN))
        for m, k, run in _claimed(runs, owned):
            (u, i), h = descr[k], head(k, m)
            u_inv, h_inv = u.inverse(), h.inverse()
            for tested, l in enumerate(run, 1):
                v, j = descr[l]
                w = multiply(u_inv, v)
                c = multiply(h_inv, head(l, m))
                if double_coset_rep(i, c, j) != double_coset_rep(i, w, j):
                    continue
                a = multiply(_leading_factor_part(c, i),
                             _leading_factor_part(w, i).inverse())
                g = multiply(multiply(h, a), u_inv)
                verify.vertices(phi, m, g, (u, i), (v, j))
                yield tested, {"factor_i": i, "conj_u": u, "factor_j": j,
                               "conj_v": v, "power": m, "element": g}
                return
            yield len(run), None
    return witness_report(walk(records),
                          "no twinned pair up to the stated bounds")


def _leading_factor_part(w: Word, i: int):
    syl = w.syllables
    if syl and isinstance(syl[0], FactorSyllable) and syl[0].factor == i:
        return Word(w.presentation, (syl[0],))
    return Word(w.presentation)


def flare_certify(phi: Automorphism, min_len: int, max_len: int, max_exp: int,
                  n_max: int, lambda_min,
                  walk: Callable = _serial) -> SearchReport:
    """Empirical flare certificate: lambda |g| <= max(|phi^N g|, |phi^-N g|).

    Quantifies over the enumerated conjugacy-class representatives with
    min_len <= cyclic syllable length <= max_len only; a returned
    certificate is empirical evidence, not a proof.  Lengths are cyclic
    syllable lengths (the recorded |.|_H convention).  ``records(owned)``
    walks every root group it takes of the class stream, one record
    (tested, held, failures) per group, and ``walk(records)`` returns the
    records to fold (`SearchReport`).
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
    pres = phi.presentation

    def records(owned=None):
        groups = _root_groups(pres, max_len, max_exp, min_len)
        for group in _claimed(groups, owned):
            # held[N-1]: the inequality holds at N for each class of group
            held, failures, tested = [True] * n_max, [], 0
            for tested, (syllables, _) in enumerate(group, 1):
                g, base = Word(pres, syllables), len(syllables)
                fwd, bwd = g, g
                for n in range(1, n_max + 1):
                    fwd = apply(phi, fwd)
                    bwd = apply_inverse(phi, bwd)
                    grown = max(len(cyclic_normal_form(fwd)),
                                len(cyclic_normal_form(bwd)))
                    if p * base > q * grown:
                        held[n - 1] = False
                        if n == n_max:
                            failures.append(g)
            yield tested, held, failures
    return flare_report(bounds, walk(records))


def flare_report(bounds: dict, records) -> SearchReport:
    """The flare report from the records (tested, held, failures) of its
    root groups in stream order: a certificate at the least N at which the
    inequality held for every class, else the classes failing at n_max."""
    records = list(records)
    tested = sum(r[0] for r in records)
    for n in range(1, bounds["n_max"] + 1):
        if all(r[1][n - 1] for r in records):
            cert = {"lambda": bounds["lambda_min"], "exponent": n,
                    "min_len": bounds["min_len"], "max_len": bounds["max_len"],
                    "max_exp": bounds["max_exp"],
                    "metric": "cyclic syllable length",
                    "quantified_over": "enumerated conjugacy classes",
                    "empirical": True}
            return SearchReport("exhausted", certificate=cert,
                                notes="empirical evidence, not a proof",
                                tested=tested)
    return SearchReport("witness",
                        counterexamples=[w for r in records for w in r[2]],
                        notes="words failing the flare inequality at n_max",
                        tested=tested)
