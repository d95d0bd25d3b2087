"""Topological representatives on the standard graph of groups.

The standard graph for A_1 * ... * A_p * F_k is a star: one free base
vertex, one non-free vertex per factor joined to the base by an edge t_i,
and k loop edges at the base.  Paths in the Bass-Serre tree are stored
anchored at the canonical lift of their start vertex as step sequences:

    ("x", l, s)    traverse the loop x_l with orientation s = +-1
    ("t", i)       base -> factor vertex i
    ("T", i, vec)  factor vertex i -> base, leaving along the lift of t_i
                   decorated by vec (an element of A_i = Z^{n_i})

Directions at the base vertex are the finitely many ("x", l, s) and
("t", i), listed once by ``base_directions``; directions at the factor
vertex i are the pairs ("T", i, vec).  Step tuples double as directions.
Translating a path does not change its steps, so step-sequence equality
decides equality of path orbits (up to a shift of the first decoration
when the path starts at a factor vertex).  Every edge has length 1, so the
length of a path is its number of steps.

Every path operation is defined once, on step tuples (``reduce_steps``,
``_reverse_steps``, ``GraphMap.image_steps``), and internal computations
stay on steps.  ``EdgePath`` checks that its steps chain from its start;
it is built only at the public boundary, where a path comes from outside
or is reported as a witness.

Reduction is a left-to-right stream (``_feed``) whose state is the reduced
steps so far plus a *pending* decoration: a cancelled excursion
(T_i a)(t_i) at the end leaves the translation a, which is folded into
the next departure from factor vertex i.  ``nielsen_search`` keeps this
state for f^1..f^N of every prefix of its depth-first search, so a child
path costs one junction join per n with the cached image f^n of its last
step; the pending decoration must be kept, not dropped, for the joins to
give the images of whole paths.

Each pass of `_feed`'s loop takes one fed step and pops or appends at most
one step, so feeding k steps onto ``out`` keeps out[:len(out) - k] and
leaves a length within k of len(out): the cancellation at one junction is
bounded by the block fed (Cooper, 1987).  ``nielsen_search`` uses this to
rule out all the leaves after a prefix at once: the prefix's images give one
bar per power n (`_leaf_bars`), and a leaf whose block of f^n feeds fewer
steps than bar n for every n cannot be a witness.  A prefix is skipped whole
when even its longest blocks reach no bar; otherwise each of its canonical
leaves is tested, with all N images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import ge

from . import verify
from .automorphisms import (Automorphism, conjugator_step,
                            require_class_preserving)
from .dynamics import _vectors_of_mass
from .errors import SelfCheckFailed
from .matrices import (IntegerMatrix, SpectralRadius, is_irreducible_matrix,
                       pf_growth_rate, solve_integer)
from .words import (FactorSyllable, FreeSyllable, Presentation, Word,
                    multiply, reduce_syllables)

BASE = "base"

# most rounds of side extension `_junction_cancellation` follows at one
# junction
JUNCTION_EXTENSIONS = 48


def factor_vertex(i: int):
    return ("factor", i)


def base_directions(pres: Presentation) -> list:
    """The directions at the base vertex: each ("t", i), then each loop in
    both orientations."""
    dirs = [("t", i) for i in range(1, pres.num_factors + 1)]
    for l in range(1, pres.free_rank + 1):
        dirs += [("x", l, 1), ("x", l, -1)]
    return dirs


def step_edge(step):
    """Underlying unoriented edge of a step or direction."""
    if step[0] == "x":
        return ("x", step[1])
    return ("t", step[1])


def step_source(step):
    return factor_vertex(step[1]) if step[0] == "T" else BASE


def step_target(step):
    return factor_vertex(step[1]) if step[0] == "t" else BASE


def step_key(step):
    if step[0] == "t":
        return (0, step[1])
    if step[0] == "T":
        return (1, step[1], step[2])
    return (2, step[1], step[2])


def path_key(steps):
    return tuple(map(step_key, steps))


def vertex_key(v):
    return (0,) if v == BASE else (1, v[1])


def spell(w: Word) -> tuple:
    """Steps of the path from the base lift spelled by a word."""
    steps = []
    for s in w.syllables:
        if isinstance(s, FactorSyllable):
            steps.append(("t", s.factor))
            steps.append(("T", s.factor, s.vector))
        else:
            sign = 1 if s.exponent > 0 else -1
            steps.extend(("x", s.letter, sign) for _ in range(abs(s.exponent)))
    return tuple(steps)


def _degenerate(a, b):
    """Does step b backtrack along step a?"""
    if a[0] == "x" and b[0] == "x":
        return a[1] == b[1] and a[2] == -b[2]
    if a[0] == "T" and b[0] == "t":
        return a[1] == b[1]  # base vertex is free: any return backtracks
    if a[0] == "t" and b[0] == "T":
        return a[1] == b[1] and not any(b[2])
    return False


@dataclass(frozen=True)
class EdgePath:
    """A tree path anchored at the canonical lift of its start.

    The constructor checks that the steps chain and that decorations have
    their factor's rank; it does not reduce them."""

    presentation: Presentation
    start: object  # BASE or ("factor", i)
    steps: tuple

    def __post_init__(self):
        at = self.start
        for step in self.steps:
            if step_source(step) != at:
                raise ValueError(f"step {step} cannot leave {at}")
            if step[0] == "T" and len(step[2]) != self.presentation.factor_rank(step[1]):
                raise ValueError(f"decoration of {step} has the wrong rank")
            at = step_target(step)

    def end_vertex(self):
        return step_target(self.steps[-1]) if self.steps else self.start

    def word(self) -> Word:
        """Group element carrying the start lift to the end lift."""
        syl = []
        for step in self.steps:
            if step[0] == "x":
                syl.append(FreeSyllable(step[1], step[2]))
            elif step[0] == "T":
                syl.append(FactorSyllable(step[1], step[2]))
        return reduce_syllables(syl, self.presentation)


def reduce_steps(steps) -> tuple:
    """Reduce a step sequence to the unique reduced path with the same ends.

    Cancelling an excursion (a, T_i)(t_i) folds the translation `a` into the
    next departure from that factor vertex.
    """
    out = []
    _feed(out, None, steps)
    return tuple(out)


def _feed(out: list, pending, steps):
    """Continue the reduction of `out` (reduced, with `pending`, the
    (factor, vector) translation awaiting the next departure, or None) by
    `steps`, one at a time; returns the new pending."""
    for step in steps:
        if pending is not None:
            i, vec = pending
            pending = None
            if step[0] != "T" or step[1] != i:
                raise ValueError("dangling decoration: invalid step sequence")
            step = ("T", i, tuple(x + y for x, y in zip(vec, step[2])))
        if out and _degenerate(out[-1], step):
            prev = out.pop()
            if prev[0] == "T":
                pending = (prev[1], prev[2])
        else:
            out.append(step)
    return pending


def _pending_steps(pending) -> tuple:
    """The cancelled excursion (T_i a)(t_i) that a pending (i, a) stands for."""
    if pending is None:
        return ()
    i, vec = pending
    return (("T", i, vec), ("t", i))


def _join(state, block):
    """The reduction state, (steps, pending), of a state followed by a
    block of fed steps (a reduced image and its pending excursion)."""
    out = list(state[0])
    return out, _feed(out, state[1], block)


def _back_step(pres: Presentation, steps, pos):
    """steps[pos] run backwards.

    An original arrival ("t", i) is left along the inverse of the decoration
    that followed it (0 when the path ended there).
    """
    step = steps[pos]
    if step[0] == "x":
        return ("x", step[1], -step[2])
    if step[0] == "T":
        return ("t", step[1])
    i = step[1]
    if pos + 1 < len(steps):
        return ("T", i, tuple(-x for x in steps[pos + 1][2]))
    return ("T", i, (0,) * pres.factor_rank(i))


def _reverse_steps(pres: Presentation, steps) -> tuple:
    """The steps of the same tree path run backwards, reduced."""
    return reduce_steps([_back_step(pres, steps, pos)
                         for pos in range(len(steps) - 1, -1, -1)])


def _turns_of_steps(pres: Presentation, steps):
    """(vertex, direction back along the arrival, departing direction) of
    each turn."""
    return [(step_target(steps[pos]), _back_step(pres, steps, pos),
             steps[pos + 1]) for pos in range(len(steps) - 1)]


@dataclass
class GraphMap:
    """The standard topological representative of an automorphism.

    Immutable after construction; the decorated edge images at factor
    vertices are derived on demand from the factor matrices.
    """

    automorphism: Automorphism
    base_images: dict  # base direction -> step tuple

    @property
    def presentation(self) -> Presentation:
        return self.automorphism.presentation

    @cached_property
    def _factor_images(self) -> tuple:
        """Per factor i: (M_i, the steps of g_i^-1), computed once."""
        phi = self.automorphism
        return tuple((phi.factor_matrix(i), spell(phi.conjugator(i).inverse()))
                     for i in range(1, self.presentation.num_factors + 1))

    def image_of_direction_path(self, d) -> tuple:
        """Image path (as steps) of the edge sitting at direction d."""
        if d[0] == "T":
            _, i, vec = d
            m, tail = self._factor_images[i - 1]
            return (("T", i, m.apply(tuple(vec))),) + tail
        return self.base_images[d]

    def direction_map(self, d):
        """First direction of the image path (the derivative at vertices)."""
        return self.image_of_direction_path(d)[0]

    def image_steps(self, steps) -> tuple:
        """The steps of f(path), reduced, from the canonical start lift."""
        return self.image_state(steps)[0]

    def image_state(self, steps) -> tuple:
        """(reduced steps, pending) of f(steps): the reduction state, with
        the translation a final cancelled excursion leaves (see `_feed`)."""
        raw = []
        for step in steps:
            raw.extend(self.image_of_direction_path(step))
        out = []
        pending = _feed(out, None, raw)
        return tuple(out), pending

    def apply_to_path(self, path: EdgePath) -> EdgePath:
        """f(path), reduced, anchored at the canonical start lift."""
        return EdgePath(path.presentation, path.start,
                        self.image_steps(path.steps))

    @property
    def lipschitz(self) -> Fraction:
        """The longest edge image (an edge and its reverse have images of
        equal length)."""
        return Fraction(max(map(len, self.base_images.values()), default=0))


def build_standard_map(phi: Automorphism) -> GraphMap:
    """Edge images read off the generator images and the conjugators g_i.

    The loop for x_l maps to the path spelled by phi(x_l); the edge toward
    factor vertex i maps to the path spelled by g_i followed by that edge.
    """
    require_class_preserving(phi)
    pres = phi.presentation
    images = {}
    for i in range(1, pres.num_factors + 1):
        images[("t", i)] = spell(phi.conjugator(i)) + (("t", i),)
    for l in range(1, pres.free_rank + 1):
        w = phi.images[f"x{l}"]
        images[("x", l, 1)] = spell(w)
        images[("x", l, -1)] = spell(w.inverse())
    for d, img in images.items():
        if reduce_steps(img) != img:
            raise SelfCheckFailed(f"image of {d} is not reduced")
    return GraphMap(phi, images)


def transition_matrix(m: GraphMap) -> IntegerMatrix:
    """Occurrence counts of edge orbits in edge images (orientation-blind);
    rows and columns t_1..t_p, x_1..x_k."""
    dirs = [d for d in base_directions(m.presentation)
            if d[0] == "t" or d[2] == 1]  # one per edge orbit
    index = {step_edge(d): r for r, d in enumerate(dirs)}
    rows = []
    for d in dirs:
        row = [0] * len(dirs)
        for step in m.image_of_direction_path(d):
            row[index[step_edge(step)]] += 1
        rows.append(tuple(row))
    return IntegerMatrix(tuple(rows))


@dataclass(frozen=True)
class GateStructure:
    """Partition of the directions into gates.

    At the base vertex two directions share a gate iff their images under
    the iterated direction map coincide (``base_key``); a ``"t"`` and an
    ``"x"`` direction are never in one gate.  At factor
    vertex i the direction map is the unimodular factor matrix M_i acting on
    decorations, hence injective, so two directions there share a gate only
    when they are equal.  ``stable`` records whether the base partition
    agrees with the one a further iteration gives.
    """

    base_gates: tuple            # tuple of frozensets of base directions
    base_key: dict               # base direction -> its iterated image
    stable: bool

    def same_gate(self, d1, d2) -> bool:
        """The turn (d1, d2) is illegal iff the directions share a gate."""
        if d1[0] != d2[0] or (d1[0] == "T" and d1[1] != d2[1]):
            return False
        if d1[0] == "T":
            return tuple(d1[2]) == tuple(d2[2])
        return self.base_key[d1] == self.base_key[d2]


def gate_structure(m: GraphMap, depth: int) -> GateStructure:
    """Base gates induced by iterating the direction map ``depth`` times.

    Factor-vertex gates are singletons (see :class:`GateStructure`).  The
    key at depth+1 is the direction map of the key at ``depth``, so the
    depth+1 partition is coarser and the two agree iff the direction map
    keeps the gate keys distinct.

    The keys K_d = Df^d(D) of the n = p + 2k base directions D are nested,
    K_{d+1} = Df(K_d) is a subset of K_d, so |K_d| shrinks until Df is a
    bijection of K_d, and from then on ``stable`` holds.  Unless Df is
    already a bijection of D (stable at every depth), |K_1| <= n - 1 and
    each unstable depth removes a key, so every depth >= n - 1 is stable;
    ``default_gate_depth`` = 2(p + k) + 4 is always above that bound.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    base_key = {}
    for d in base_directions(m.presentation):
        v = d
        for _ in range(depth):
            v = m.direction_map(v)
        base_key[d] = v
    groups = {}
    for d, key in base_key.items():
        groups.setdefault(key, []).append(d)
    base_gates = tuple(sorted((frozenset(g) for g in groups.values()),
                              key=lambda g: sorted(map(step_key, g))))
    stable = len(groups) == len({m.direction_map(k) for k in groups})
    return GateStructure(base_gates, base_key, stable)


def default_gate_depth(pres: Presentation) -> int:
    return 2 * (pres.num_factors + pres.free_rank) + 4


@dataclass(frozen=True)
class TrainTrackVerdict:
    status: str                  # "holds" | "violated" | "undecided"
    witness: object = None
    gates: GateStructure | None = None


def check_train_track(m: GraphMap, depth: int) -> TrainTrackVerdict:
    """Verify the two train-track conditions.

    Edge images must be legal paths and legal turns must map to legal turns.
    A turn at a factor vertex is legal iff its two decorations differ, and
    the injective factor matrix keeps them distinct, so only base turns can
    collapse.  A collision that first appears at the depth horizon cannot be
    told apart from noise, so an unstable base partition yields
    ``undecided``.  That happens only at a depth below p + 2k - 1 (see
    :func:`gate_structure`), never at ``default_gate_depth``.
    """
    gates = gate_structure(m, depth)
    pres = m.presentation

    probe_dirs = base_directions(pres)
    probe_dirs += [("T", i, tuple(0 for _ in range(pres.factor_rank(i))))
                   for i in range(1, pres.num_factors + 1)]
    for d in probe_dirs:
        steps = m.image_of_direction_path(d)
        if reduce_steps(steps) != steps:
            return TrainTrackVerdict("violated", ("unreduced image", d), gates)
        for turn in _turns_of_steps(pres, steps):
            if gates.same_gate(turn[1], turn[2]):
                if not gates.stable:
                    return TrainTrackVerdict("undecided", ("horizon", turn), gates)
                return TrainTrackVerdict("violated", ("illegal image turn", turn), gates)

    for d1, d2 in itertools.combinations(base_directions(pres), 2):
        if not gates.same_gate(d1, d2):
            if gates.same_gate(m.direction_map(d1), m.direction_map(d2)):
                status = "undecided" if not gates.stable else "violated"
                return TrainTrackVerdict(status, ("legal turn collapsed", (d1, d2)), gates)
    if not gates.stable:
        return TrainTrackVerdict("undecided", ("horizon", None), gates)
    return TrainTrackVerdict("holds", None, gates)


def _junction_cancellation(m: GraphMap, d1, d2) -> Fraction:
    """Exact cancellation opened by one application of f at a junction.

    d1 and d2 are the two directions of a reduced junction turn.  Starting
    from the single edges at d1 and d2, the side whose image is fully
    consumed by the overlap is extended by the unique continuation (at a
    factor vertex the needed decoration is pinned by the factor matrix)
    until the images diverge.  This follows cancellation that cascades
    through decoration merges, which a plain common-prefix comparison
    misses on non-train-track maps.  At most ``JUNCTION_EXTENSIONS`` rounds
    are followed.
    """
    pres = m.presentation
    x = [d1]
    y = [d2]
    best = Fraction(-1)
    for _ in range(JUNCTION_EXTENSIONS):
        fx, fy = m.image_steps(x), m.image_steps(y)
        joint = reduce_steps(_reverse_steps(pres, fx) + fy)
        lx, ly = len(fx), len(fy)
        canc = Fraction(lx + ly - len(joint), 2)
        if canc <= best:
            return max(best, Fraction(0))  # the extension did not help
        best = canc
        if canc < lx and canc < ly:
            return best  # diverged mid-block: no extension can help
        if canc >= lx:
            # f(x) is swallowed; joint[0] is the next image step it needs
            grown = _extend_overlap_side(m, x, joint[0] if joint else None)
        else:
            # f(y) is swallowed; the needed step is the reverse of joint[-1]
            needed = _reverse_steps(pres, joint[-1:])[0] if joint else None
            grown = _extend_overlap_side(m, y, needed)
        if not grown:
            return best
    return best


def _extend_overlap_side(m: GraphMap, side, needed) -> bool:
    """Append to `side` the unique step whose image continues the overlap."""
    if needed is None:
        return False  # images coincide entirely: impossible for a tree map
    last = side[-1]
    at = step_target(last)
    candidates = []
    if needed[0] == "T":
        i = needed[1]
        if at == factor_vertex(i):
            c = solve_integer(m.automorphism.factor_matrix(i), tuple(needed[2]))
            if c is not None:
                candidates.append(("T", i, tuple(c)))
    else:
        if at == step_source(needed):
            for d in base_directions(m.presentation):
                if m.direction_map(d) == needed:
                    candidates.append(d)
    for step in candidates:
        if not _degenerate(last, step):
            side.append(step)
            return True
    return False


def bounded_cancellation_constant(m: GraphMap, depth: int) -> Fraction:
    """Upper bound for the cancellation of one application of f.

    The first edges of a cancelling pair of image paths coincide, so only
    junctions whose directions share a gate contribute.  Gates at factor
    vertices are singletons, so these are the pairs within one base gate;
    each is followed exactly with :func:`_junction_cancellation`.  For
    train track maps this equals the common-prefix bound over same-gate
    pairs.
    """
    gates = gate_structure(m, depth)
    best = Fraction(0)
    for gate in gates.base_gates:
        for d1, d2 in itertools.combinations(sorted(gate, key=step_key), 2):
            best = max(best, _junction_cancellation(m, d1, d2))
    return best


@dataclass(frozen=True)
class ConstantsReport:
    """Growth, cancellation and the critical constant of a standard map.

    ``critical_constant`` is 2*C_f / (lambda - 1), defined only when the
    rigorous lower bound on lambda exceeds 1 (the transversality constant
    of the unit-length standard graph).  ``metric`` records the conventions
    all lengths are measured in.
    """

    growth: SpectralRadius
    cancellation: Fraction
    critical_constant: float | None
    irreducible: bool
    metric: str = "syllable length; L1 norm on factor exponents"


def constants_report(m: GraphMap, depth: int) -> ConstantsReport:
    t = transition_matrix(m)
    growth = pf_growth_rate(t)
    cf = bounded_cancellation_constant(m, depth)
    critical = None
    if growth.lower > 1:
        lam = (growth.lower + growth.upper) / 2
        critical = float(2 * cf / (lam - 1))
    return ConstantsReport(growth, cf, critical, is_irreducible_matrix(t))


@dataclass(frozen=True)
class NielsenWitness:
    path: EdgePath
    exponent: int
    element: Word


def nielsen_search(m: GraphMap, len_bound: int,
                   exp_bound: int) -> list[NielsenWitness]:
    """Reduced paths with <= len_bound edges and [f^n(path)] = g . path.

    Decoration vectors are enumerated with L1 mass <= len_bound; paths
    starting at a factor vertex are normalised to first decoration 0 (their
    translates realise every other choice), and a path is skipped when its
    reverse precedes it in (vertex_key, path_key) order.  Every witness is
    re-verified at word level before being reported: g must move both end
    vertices as f^n does (`verify.vertices`).

    Tightening commutes with f, so [f^n(p.e)] = [[f^n(p)] . [f^n(e)]].  One
    depth-first loop walks an explicit stack whose frames hold the steps
    still to try after a prefix and the reduction states (steps, pending)
    of f^1..f^N of that prefix; a child's states are the junction joins
    (`_join`) of its parent's with the blocks of its last step e, computed
    once per distinct step: the steps a join feeds, f^n(e) reduced
    followed by its pending excursion.  The steps to try after e, the
    departures from its target that do not backtrack along it, are a
    table built once per distinct step.  Non-canonical paths are walked
    too, as their children may be canonical.  The walk must not recurse:
    F_1 has two reduced paths of every length, so its depth reaches the
    length bound.

    The leaves, the paths of len_bound steps, get no frame: their parent
    reads one bar per power from its images (`_leaf_bars`), as joining a
    block of b fed steps keeps all but the last b steps of the parent's
    image and moves its length by at most b.  When no block in the table
    reaches its power's bar (the table keeps the longest block per power)
    no leaf can be a witness and none is looked at; otherwise every leaf
    is checked for canonicity, and the canonical ones are joined and
    tested.  So the search reports the witnesses of a walk that tests
    every canonical path, and each tested path sees all N images.
    """
    if len_bound < 1:
        raise ValueError("len_bound must be >= 1")
    pres = m.presentation
    blocks = {}  # step -> [fed steps of f^n(step)]

    def images_of(step):
        got = blocks.get(step)
        if got is None:
            images, seq = [], (step,)
            for _ in range(exp_bound):
                out, pending = m.image_state(seq)
                seq = out + _pending_steps(pending)
                images.append(seq)
            got = blocks[step] = images
        return got

    # the departures from each vertex; a path leaves a factor start along 0
    first = {BASE: base_directions(pres)}
    later = dict(first)
    for i in range(1, pres.num_factors + 1):
        dim = pres.factor_rank(i)
        first[factor_vertex(i)] = [("T", i, (0,) * dim)]
        later[factor_vertex(i)] = [("T", i, vec) for vec in sorted(
            v for mass in range(len_bound + 1)
            for v in _vectors_of_mass(dim, mass))]

    def longest(candidates):
        # per power, the longest block of the candidate steps
        return [max(map(len, col))
                for col in zip(*map(images_of, candidates))]

    tables = {}  # step -> (the departures after it, longest(those))

    def table(step):
        got = tables.get(step)
        if got is None:
            children = [d for d in later[step_target(step)]
                        if not _degenerate(step, d)]
            got = tables[step] = children, longest(children)
        return got

    def leaves(start, skip, steps, states, candidates, tops):
        # the leaves after `steps`, tested if canonical; most frames reach
        # no bar even with their longest blocks and are skipped whole
        if not any(map(ge, tops, _leaf_bars(states, steps, skip))):
            return
        for step in candidates:
            steps.append(step)
            if _precedes_reverse(pres, start, steps, step_target(step)):
                found = _nielsen_test(m, start, steps, [
                    _join(s, b)[0] for s, b in zip(states, images_of(step))])
                if found is not None:
                    witnesses.append(found)
            steps.pop()

    witnesses = []
    for start, departures in first.items():
        skip = 0 if start == BASE else 1  # a factor start may shift steps[0]
        steps = []  # the prefix of the top frame
        root = [((), None)] * exp_bound
        if len_bound == 1:
            leaves(start, skip, steps, root, departures, longest(departures))
            continue
        stack = [(iter(departures), root)]
        while stack:
            todo, states = stack[-1]
            step = next(todo, None)
            if step is None:
                stack.pop()
                del steps[-1:]  # the step into the frame; the root has none
                continue
            steps.append(step)
            at = step_target(step)
            images = [_join(s, b) for s, b in zip(states, images_of(step))]
            if _precedes_reverse(pres, start, steps, at):
                found = _nielsen_test(m, start, steps,
                                      [out for out, _ in images])
                if found is not None:
                    witnesses.append(found)
            if len(steps) + 1 < len_bound:
                stack.append((iter(table(step)[0]), images))
            else:
                leaves(start, skip, steps, images, *table(step))
                steps.pop()
    witnesses.sort(key=lambda w: (len(w.path.steps), w.exponent,
                                  path_key(w.path.steps)))
    return witnesses


def _leaf_bars(states, prefix, skip):
    """The junction bound for the leaves after `prefix`, one bar per power:
    no leaf e has [f^n(prefix . e)] = g . (prefix . e) unless the block of
    f^n(e) feeds b >= bars[n-1] steps.

    ``states[n-1]`` is the reduction state of f^n(prefix); a witness needs
    an image of L = len(prefix) + 1 steps that agrees with the leaf past its
    first ``skip``.  Joining b fed steps keeps out[:len(out) - b] and moves
    len(out) by at most b (module docstring), so with kept = len(out) - b
    power n stays open when len(out) + b >= L and the kept prefix can
    agree: kept <= common, where common (skip <= common <= L) is how far
    out agrees with the prefix past skip, or kept == L with
    common >= L - 1 and out[L - 1] == e.  The first two are
    b >= max(L - len(out), len(out) - common), a bar of at least 1; where
    the last can hold the bar is 0, so the frame is never skipped.
    """
    size = len(prefix) + 1
    bars = []
    for out, _ in states:
        length = len(out)
        top, common = min(length, size - 1), skip
        while common < top and out[common] == prefix[common]:
            common += 1
        bars.append(0 if common >= size - 1 and length >= size
                    else max(size - length, length - common))
    return bars


def _precedes_reverse(pres: Presentation, start, steps, end) -> bool:
    """Is (start, steps) <= (end, reverse) in (vertex_key, path_key) order?

    The reverse of a reduced path is reduced, so its k-th step is
    steps[-1-k] run backwards, and the keys are compared lazily, from both
    ends, up to the first difference.  A path ending at a factor vertex
    arrives along ("t", i), so its reverse leaves with decoration 0.
    """
    if start != end:
        return vertex_key(start) < vertex_key(end)
    last = len(steps) - 1
    for k in range(last + 1):
        a = step_key(steps[k])
        b = step_key(_back_step(pres, steps, last - k))
        if a != b:
            return a < b
    return True


def _nielsen_test(m: GraphMap, start, steps, images):
    """The first n with [f^n(path)] = g . path, as a re-verified witness;
    ``images[n-1]`` holds the reduced steps of f^n(path), a list like
    ``steps`` (the two are compared with ``==``)."""
    phi = m.automorphism
    pres = m.presentation

    def conjugator(i, n):
        # g with phi^n(A_i) = g A_i g^-1
        g = Word(pres)
        for _ in range(n):
            g = conjugator_step(phi, i, g)
        return g

    for n, image in enumerate(images, start=1):
        g = None
        if start == BASE:
            if image == steps:
                g = Word(pres)
        else:
            i = start[1]
            if len(image) == len(steps) and image[1:] == steps[1:]:
                h = tuple(a - b for a, b in zip(image[0][2], steps[0][2]))
                shift = Word(pres, (FactorSyllable(i, h),)) if any(h) else Word(pres)
                g = multiply(conjugator(i, n), shift)
        if g is None:
            continue
        path = EdgePath(pres, start, tuple(steps))
        ends = (Word(pres), start), (path.word(), path.end_vertex())
        verify.vertices(phi, n, g, *((u, None if v == BASE else v[1])
                                     for u, v in ends))
        return NielsenWitness(path, n, g)
    return None
