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
("t", i); directions at the factor vertex i are the pairs ("T", i, vec).
Step tuples double as directions.  Translating a path does not change its
steps, so step-sequence equality decides equality of path orbits (up to a
shift of the first decoration when the path starts at a factor vertex).

Every path operation is defined once, on step tuples (``reduce_steps``,
``_reverse_steps``, ``GraphMap.image_steps``, ``StandardGraph.length``),
and internal computations stay on steps.  ``EdgePath`` checks that its
steps chain from its start; it is built only at the public boundary, where
a path comes from outside or is reported as a witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .automorphisms import Automorphism, apply_power
from .dynamics import _vectors_of_mass
from .errors import (DifferentVertices, EmptyWord, FactorsPermuted,
                     UnknownDirection)
from .matrices import (IntegerMatrix, SpectralRadius, is_irreducible_matrix,
                       pf_growth_rate)
from .words import (FactorSyllable, FreeSyllable, Presentation, Word,
                    multiply, reduce_syllables)

BASE = "base"


def factor_vertex(i: int):
    return ("factor", i)


@dataclass(frozen=True)
class StandardGraph:
    """The star graph of groups underlying a presentation."""

    presentation: Presentation
    lengths: dict = field(default_factory=dict)  # edge name -> Fraction

    def edges(self) -> list:
        p, k = self.presentation.num_factors, self.presentation.free_rank
        return [("t", i) for i in range(1, p + 1)] + \
               [("x", l) for l in range(1, k + 1)]

    def edge_length(self, edge) -> Fraction:
        return self.lengths.get(edge, Fraction(1))

    def length(self, steps) -> Fraction:
        return sum((self.edge_length(step_edge(s)) for s in steps), Fraction(0))

    def base_directions(self) -> list:
        p, k = self.presentation.num_factors, self.presentation.free_rank
        dirs = [("t", i) for i in range(1, p + 1)]
        for l in range(1, k + 1):
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
    their factor's rank; it does not reduce them (see ``is_reduced``)."""

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

    def length(self, graph: StandardGraph) -> Fraction:
        return graph.length(self.steps)

    def is_reduced(self) -> bool:
        return all(not _degenerate(a, b) for a, b in zip(self.steps, self.steps[1:]))


def reduce_steps(pres: Presentation, steps) -> tuple:
    """Reduce a step sequence to the unique reduced path with the same ends.

    Cancelling an excursion (a, T_i)(t_i) folds the translation `a` into the
    next departure from that factor vertex.
    """
    out = []
    pending = None  # (factor, vector) translation awaiting the next departure
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
    return tuple(out)


def _reverse_steps(pres: Presentation, steps) -> tuple:
    """The steps of the same tree path run backwards, reduced.

    An original arrival ("t", i) is left along the inverse of the decoration
    that followed it (0 when the path ended there).
    """
    out = []
    for pos in range(len(steps) - 1, -1, -1):
        step = steps[pos]
        if step[0] == "x":
            out.append(("x", step[1], -step[2]))
        elif step[0] == "T":
            out.append(("t", step[1]))
        else:
            i = step[1]
            if pos + 1 < len(steps):
                vec = steps[pos + 1][2]
            else:
                vec = tuple(0 for _ in range(pres.factor_rank(i)))
            out.append(("T", i, tuple(-x for x in vec)))
    return reduce_steps(pres, out)


def reverse_path(path: EdgePath) -> EdgePath:
    """The same tree path run backwards, anchored at its end vertex."""
    return EdgePath(path.presentation, path.end_vertex(),
                    _reverse_steps(path.presentation, path.steps))


def path_from_word(pres: Presentation, w: Word) -> EdgePath:
    return EdgePath(pres, BASE, spell(w))


def path_turns(path: EdgePath):
    """(vertex, direction back along the arrival, departing direction)."""
    return _turns_of_steps(path.steps)


def _turns_of_steps(steps):
    out = []
    for a, b in zip(steps, steps[1:]):
        v = step_target(a)
        if v == BASE:
            back = ("x", a[1], -a[2]) if a[0] == "x" else ("t", a[1])
        else:
            back = ("T", a[1], tuple(0 for _ in b[2]))
        out.append((v, back, b))
    return out


@dataclass
class GraphMap:
    """The standard topological representative of an automorphism.

    Immutable after construction; the decorated edge images at factor
    vertices are derived on demand from the factor matrices.
    """

    automorphism: Automorphism
    graph: StandardGraph
    base_images: dict  # base direction -> step tuple

    @property
    def presentation(self) -> Presentation:
        return self.automorphism.presentation

    def image_of_direction_path(self, d) -> tuple:
        """Image path (as steps) of the edge sitting at direction d."""
        if d[0] == "T":
            _, i, vec = d
            m = self.automorphism.factor_matrix(i)
            gi_inv = self.automorphism.conjugator(i).inverse()
            return (("T", i, m.apply(tuple(vec))),) + spell(gi_inv)
        return self.base_images[d]

    def direction_map(self, d):
        """First direction of the image path (the derivative at vertices)."""
        if d[0] == "T":
            _, i, vec = d
            return ("T", i, self.automorphism.factor_matrix(i).apply(tuple(vec)))
        return self.base_images[d][0]

    def image_steps(self, steps) -> tuple:
        """The steps of f(path), reduced, from the canonical start lift."""
        out = []
        for step in steps:
            out.extend(self.image_of_direction_path(step))
        return reduce_steps(self.presentation, out)

    def apply_to_path(self, path: EdgePath) -> EdgePath:
        """f(path), reduced, anchored at the canonical start lift."""
        return EdgePath(path.presentation, path.start,
                        self.image_steps(path.steps))

    def edge_directions(self):
        """One direction per edge orbit."""
        p = self.presentation.num_factors
        k = self.presentation.free_rank
        return [("t", i) for i in range(1, p + 1)] + \
               [("x", l, 1) for l in range(1, k + 1)]

    @property
    def lipschitz(self) -> Fraction:
        best = Fraction(0)
        for d in self.edge_directions():
            ln = self.graph.length(self.image_of_direction_path(d))
            best = max(best, ln / self.graph.edge_length(step_edge(d)))
        return best


def build_standard_map(phi: Automorphism,
                       lengths: dict | None = None) -> GraphMap:
    """Edge images read off the generator images and the conjugators g_i.

    The loop for x_l maps to the path spelled by phi(x_l); the edge toward
    factor vertex i maps to the path spelled by g_i followed by that edge.
    """
    if not phi.preserves_factor_classes:
        raise FactorsPermuted("standard map needs the identity factor permutation")
    pres = phi.presentation
    graph = StandardGraph(pres, dict(lengths or {}))
    images = {}
    for i in range(1, pres.num_factors + 1):
        images[("t", i)] = spell(phi.conjugator(i)) + (("t", i),)
    for l in range(1, pres.free_rank + 1):
        w = phi.images[f"x{l}"]
        images[("x", l, 1)] = spell(w)
        images[("x", l, -1)] = spell(w.inverse())
    for d, img in images.items():
        if reduce_steps(pres, img) != img:
            raise AssertionError(f"image of {d} is not reduced")
    return GraphMap(phi, graph, images)


def transition_matrix(m: GraphMap) -> IntegerMatrix:
    """Occurrence counts of edge orbits in edge images (orientation-blind)."""
    edges = m.graph.edges()
    index = {e: r for r, e in enumerate(edges)}
    rows = []
    for d in m.edge_directions():
        row = [0] * len(edges)
        for step in m.image_of_direction_path(d):
            row[index[step_edge(step)]] += 1
        rows.append(tuple(row))
    return IntegerMatrix(tuple(rows))


@dataclass(frozen=True)
class GateStructure:
    """Partition of the encountered directions into gates.

    Two directions share a gate iff their images under the direction map
    coincide within ``depth`` iterations; the map is deterministic, so this
    is a single comparison of the depth-fold images.  At factor vertices the
    direction map is the factor matrix acting on decorations, compared
    exactly.  ``stable`` records whether the partition agrees with the one
    at depth+1 on the same encountered set.
    """

    depth: int
    base_gates: tuple            # tuple of frozensets of base directions
    base_key: dict               # base direction -> image at iteration `depth`
    factor_encountered: dict     # i -> frozenset of decoration vectors
    factor_matrices: dict        # i -> IntegerMatrix
    stable: bool

    def gates_at_base(self):
        return self.base_gates

    def _factor_key(self, i, vec, extra=0):
        m = self.factor_matrices[i]
        v = tuple(vec)
        for _ in range(self.depth + extra):
            v = m.apply(v)
        return v

    def knows(self, d) -> bool:
        if d[0] == "T":
            return d[1] in self.factor_encountered and \
                tuple(d[2]) in self.factor_encountered[d[1]]
        return d in self.base_key

    def same_gate(self, d1, d2) -> bool:
        """The turn (d1, d2) is illegal iff the directions share a gate."""
        for d in (d1, d2):
            if not self.knows(d):
                raise UnknownDirection(
                    f"direction {d} not encountered at depth {self.depth}")
        if d1[0] != d2[0] or (d1[0] == "T" and d1[1] != d2[1]):
            return False
        if d1[0] == "T":
            return self._factor_key(d1[1], d1[2]) == self._factor_key(d2[1], d2[2])
        return self.base_key[d1] == self.base_key[d2]

    def is_legal(self, turn) -> bool:
        _, d1, d2 = turn
        return not self.same_gate(d1, d2)


def gate_structure(m: GraphMap, depth: int) -> GateStructure:
    """Gates induced by iterating the direction map ``depth`` times."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pres = m.presentation
    base_dirs = m.graph.base_directions()

    def key_at(d, it):
        v = d
        for _ in range(it):
            v = m.direction_map(v)
        return v

    base_key = {d: key_at(d, depth) for d in base_dirs}
    groups = {}
    for d in base_dirs:
        groups.setdefault(base_key[d], []).append(d)
    base_gates = tuple(sorted((frozenset(g) for g in groups.values()),
                              key=lambda g: sorted(map(step_key, g))))

    encountered = {i: {tuple(0 for _ in range(pres.factor_rank(i)))}
                   for i in range(1, pres.num_factors + 1)}
    for d in base_dirs:
        for step in m.image_of_direction_path(d):
            if step[0] == "T":
                encountered[step[1]].add(tuple(step[2]))
    matrices = {i: m.automorphism.factor_matrix(i)
                for i in range(1, pres.num_factors + 1)}
    for i, vecs in encountered.items():
        mat = matrices[i]
        frontier = set(vecs)
        for _ in range(depth):
            frontier = {mat.apply(v) for v in frontier}
            vecs |= frontier

    next_key = {d: key_at(d, depth + 1) for d in base_dirs}
    stable = all((base_key[d1] == base_key[d2]) == (next_key[d1] == next_key[d2])
                 for d1, d2 in itertools.combinations(base_dirs, 2))
    if stable:
        for i, vecs in encountered.items():
            mat = matrices[i]

            def deep(v, extra):
                for _ in range(depth + extra):
                    v = mat.apply(v)
                return v

            for v1, v2 in itertools.combinations(sorted(vecs), 2):
                if (deep(v1, 0) == deep(v2, 0)) != (deep(v1, 1) == deep(v2, 1)):
                    stable = False
                    break
            if not stable:
                break

    return GateStructure(depth, base_gates, base_key,
                         {i: frozenset(v) for i, v in encountered.items()},
                         matrices, stable)


def default_gate_depth(pres: Presentation) -> int:
    return 2 * (pres.num_factors + pres.free_rank) + 4


def is_legal_path(path: EdgePath, gates: GateStructure) -> bool:
    return all(gates.is_legal(t) for t in path_turns(path))


def count_illegal_turns(path: EdgePath, gates: GateStructure) -> int:
    return sum(1 for t in path_turns(path) if not gates.is_legal(t))


def legality_ratio(path: EdgePath, c, gates: GateStructure,
                   graph: StandardGraph | None = None) -> Fraction:
    """Fraction of the length carried by maximal legal segments longer than c."""
    graph = graph or StandardGraph(path.presentation)
    if not path.steps:
        raise EmptyWord("legality ratio of an empty path")
    total = path.length(graph)
    runs = []
    run_len = graph.edge_length(step_edge(path.steps[0]))
    for turn, step in zip(path_turns(path), path.steps[1:]):
        if gates.is_legal(turn):
            run_len += graph.edge_length(step_edge(step))
        else:
            runs.append(run_len)
            run_len = graph.edge_length(step_edge(step))
    runs.append(run_len)
    good = sum((r for r in runs if r > c), Fraction(0))
    return good / total


@dataclass(frozen=True)
class TrainTrackVerdict:
    status: str                  # "holds" | "violated" | "undecided"
    witness: object = None
    gates: GateStructure | None = None


def check_train_track(m: GraphMap, depth: int) -> TrainTrackVerdict:
    """Verify the two train-track conditions on the encountered directions.

    Edge images must be legal paths and legal turns must map to legal turns.
    A collision that first appears at the depth horizon cannot be told apart
    from noise, so an unstable gate partition yields ``undecided``.
    """
    gates = gate_structure(m, depth)
    pres = m.presentation

    probe_dirs = list(m.graph.base_directions())
    probe_dirs += [("T", i, tuple(0 for _ in range(pres.factor_rank(i))))
                   for i in range(1, pres.num_factors + 1)]
    for d in probe_dirs:
        steps = m.image_of_direction_path(d)
        if reduce_steps(pres, steps) != steps:
            return TrainTrackVerdict("violated", ("unreduced image", d), gates)
        for turn in _turns_of_steps(steps):
            if not gates.is_legal(turn):
                if not gates.stable:
                    return TrainTrackVerdict("undecided", ("horizon", turn), gates)
                return TrainTrackVerdict("violated", ("illegal image turn", turn), gates)

    base_dirs = m.graph.base_directions()
    for d1, d2 in itertools.combinations(base_dirs, 2):
        if not gates.same_gate(d1, d2):
            if gates.same_gate(m.direction_map(d1), m.direction_map(d2)):
                status = "undecided" if not gates.stable else "violated"
                return TrainTrackVerdict(status, ("legal turn collapsed", (d1, d2)), gates)
    for i, vecs in gates.factor_encountered.items():
        for v1, v2 in itertools.combinations(sorted(vecs), 2):
            a, b = ("T", i, v1), ("T", i, v2)
            if not gates.same_gate(a, b):
                da, db = m.direction_map(a), m.direction_map(b)
                if gates.knows(da) and gates.knows(db) and gates.same_gate(da, db):
                    status = "undecided" if not gates.stable else "violated"
                    return TrainTrackVerdict(status, ("legal turn collapsed", (a, b)), gates)

    if not gates.stable:
        return TrainTrackVerdict("undecided", ("horizon", None), gates)
    return TrainTrackVerdict("holds", None, gates)


def _junction_cancellation(m: GraphMap, d1, d2, cap: int = 48) -> Fraction:
    """Exact cancellation opened by one application of f at a junction.

    d1 and d2 are the two directions of a reduced junction turn.  Starting
    from the single edges at d1 and d2, the side whose image is fully
    consumed by the overlap is extended by the unique continuation (at a
    factor vertex the needed decoration is pinned by the factor matrix)
    until the images diverge.  This follows cancellation that cascades
    through decoration merges, which a plain common-prefix comparison
    misses on non-train-track maps.
    """
    pres = m.presentation
    graph = m.graph
    x = [d1]
    y = [d2]
    best = Fraction(-1)
    for _ in range(cap):
        fx, fy = m.image_steps(x), m.image_steps(y)
        joint = reduce_steps(pres, _reverse_steps(pres, fx) + fy)
        lx, ly = graph.length(fx), graph.length(fy)
        canc = (lx + ly - graph.length(joint)) / 2
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
            from .matrices import solve_integer
            c = solve_integer(m.automorphism.factor_matrix(i), tuple(needed[2]))
            if c is not None:
                candidates.append(("T", i, tuple(c)))
    else:
        if at == step_source(needed):
            for d in m.graph.base_directions():
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
    junctions whose directions share a gate contribute; each such junction
    is followed exactly with :func:`_junction_cancellation`.  For train
    track maps this equals the common-prefix bound over same-gate pairs.
    """
    gates = gate_structure(m, depth)
    best = Fraction(0)
    for gate in gates.gates_at_base():
        for d1, d2 in itertools.combinations(sorted(gate, key=step_key), 2):
            best = max(best, _junction_cancellation(m, d1, d2))
    for i, vecs in gates.factor_encountered.items():
        for v1, v2 in itertools.combinations(sorted(vecs), 2):
            if gates.same_gate(("T", i, v1), ("T", i, v2)):
                best = max(best, _junction_cancellation(
                    m, ("T", i, v1), ("T", i, v2)))
    return best


@dataclass(frozen=True)
class ConstantsReport:
    """Growth, cancellation and the critical constant of a standard map.

    ``critical_constant`` is 2*C_f / (lambda/A - 1), defined only when the
    rigorous lower bound on lambda exceeds the transversality constant A.
    ``metric`` records the conventions all lengths are measured in.
    """

    growth: SpectralRadius
    cancellation: Fraction
    transversality: Fraction
    critical_constant: float | None
    irreducible: bool
    growth_eigenvector: tuple
    metric: str = "syllable length; L1 norm on factor exponents"


def constants_report(m: GraphMap, depth: int,
                     transversality=Fraction(1)) -> ConstantsReport:
    transversality = Fraction(transversality)
    t = transition_matrix(m)
    growth = pf_growth_rate(t)
    cf = bounded_cancellation_constant(m, depth)
    critical = None
    if growth.lower > transversality:
        lam = (growth.lower + growth.upper) / 2
        critical = float(2 * cf / (lam / transversality - 1))
    return ConstantsReport(growth, cf, transversality, critical,
                           is_irreducible_matrix(t), growth.eigenvector)


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
    reverse was already enumerated.  Every witness is re-verified at word
    level before being reported.
    """
    witnesses = []
    for start, steps in _enumerate_paths(m.presentation, len_bound):
        found = _nielsen_test(m, start, steps, exp_bound)
        if found is not None:
            witnesses.append(found)
    witnesses.sort(key=lambda w: (len(w.path.steps), w.exponent,
                                  path_key(w.path.steps)))
    return witnesses


def _enumerate_paths(pres: Presentation, len_bound: int):
    """(start, steps) of the reduced paths with 1..len_bound steps.

    A factor start leaves with decoration 0, later decorations have L1 mass
    <= len_bound, and of a path and its reverse (first decoration set to 0)
    only the smaller in (vertex_key, path_key) order is yielded.
    """
    starts = [BASE] + [factor_vertex(i) for i in range(1, pres.num_factors + 1)]

    def extensions(at, first_step):
        if at == BASE:
            for i in range(1, pres.num_factors + 1):
                yield ("t", i)
            for l in range(1, pres.free_rank + 1):
                yield ("x", l, 1)
                yield ("x", l, -1)
        else:
            i = at[1]
            dim = pres.factor_rank(i)
            if first_step:
                yield ("T", i, tuple(0 for _ in range(dim)))
            else:
                for vec in sorted(v for mass in range(len_bound + 1)
                                  for v in _vectors_of_mass(dim, mass)):
                    yield ("T", i, vec)

    def rec(start, steps, at):
        if steps:
            # a path ending at a factor vertex arrives along ("t", i), so
            # its reverse already leaves with decoration 0
            rev = _reverse_steps(pres, steps)
            if (vertex_key(start), path_key(steps)) <= \
                    (vertex_key(at), path_key(rev)):
                yield start, tuple(steps)
        if len(steps) == len_bound:
            return
        for step in extensions(at, not steps):
            if steps and _degenerate(steps[-1], step):
                continue
            steps.append(step)
            yield from rec(start, steps, step_target(step))
            steps.pop()

    for start in starts:
        yield from rec(start, [], start)


def conjugator_power(phi: Automorphism, i: int, n: int) -> Word:
    """g with phi^n(A_i) = g A_i g^-1 (identity factor permutation)."""
    from .automorphisms import apply as aut_apply
    g = Word(phi.presentation)
    gi = phi.conjugator(i)
    for _ in range(n):
        g = multiply(aut_apply(phi, g), gi)
    return g


def _nielsen_test(m: GraphMap, start, steps: tuple, exp_bound: int):
    phi = m.automorphism
    pres = m.presentation
    image = steps
    for n in range(1, exp_bound + 1):
        image = m.image_steps(image)
        g = None
        if start == BASE:
            if image == steps:
                g = Word(pres)
        else:
            i = start[1]
            if (len(image) == len(steps) and image and image[0][0] == "T"
                    and image[1:] == steps[1:]):
                h = tuple(a - b for a, b in zip(image[0][2], steps[0][2]))
                shift = Word(pres, (FactorSyllable(i, h),)) if any(h) else Word(pres)
                g = multiply(conjugator_power(phi, i, n), shift)
        if g is None:
            continue
        # independent word-level verification of [f^n(p)] = g . p
        path = EdgePath(pres, start, steps)
        w = path.word()
        lhs = apply_power(phi, n, w)
        end = path.end_vertex()
        if end != BASE:
            lhs = multiply(lhs, conjugator_power(phi, end[1], n))
        diff = multiply(multiply(g, w).inverse(), lhs)
        ok = (not diff) if end == BASE else (
            not diff or (len(diff) == 1
                         and isinstance(diff.syllables[0], FactorSyllable)
                         and diff.syllables[0].factor == end[1]))
        if not ok:
            raise AssertionError(
                f"nielsen witness failed word re-verification: {path}")
        return NielsenWitness(path, n, g)
    return None


def angle(d1, d2) -> int:
    """L1 distance of the decorations of two directions at one factor vertex."""
    if d1[0] != "T" or d2[0] != "T":
        raise DifferentVertices("angles are defined at non-free vertices only")
    if d1[1] != d2[1]:
        raise DifferentVertices(f"directions at factors {d1[1]} and {d2[1]}")
    return sum(abs(a - b) for a, b in zip(d1[2], d2[2]))


def is_theta_straight(path: EdgePath, theta: int) -> bool:
    """All interior angles at non-free vertices are at most theta."""
    for v, d1, d2 in path_turns(path):
        if v != BASE and angle(d1, d2) > theta:
            return False
    return True
