"""Abelianized actions, mapping-torus abelianization, block orbit problems,
and the desk-scale conjugacy pipeline.

The pipeline's verdict lattice is {conjugate, distinguished, undecided}: a
``conjugate`` verdict always ships a witness that re-verifies by
composition, a ``distinguished`` verdict ships an abelianization invariant
recomputed from scratch on both inputs, and everything the bounded searches
cannot settle is ``undecided``.
"""

from __future__ import annotations

import itertools
import time
import warnings
from dataclasses import dataclass, field

from .automorphisms import (Automorphism, ad, compose, generator_word,
                            identity_automorphism, inverse, is_toral, validate)
from .dynamics import enumerate_words
from .errors import (DimensionMismatch, FactorsPermuted, PresentationMismatch)
from .matrices import (IntegerMatrix, char_poly, content, determinant,
                       invariant_factors, matrix_inverse_unimodular,
                       smith_normal_form, solve_integer)
from .words import (FactorSyllable, FreeSyllable, Presentation, Word,
                    cyclic_normal_form, multiply)


def abelianized_action(phi: Automorphism) -> IntegerMatrix:
    """Matrix of phi on G_ab = Z^(n_1+...+n_p) (+) Z^k.

    Basis order: a1.1, ..., ap.np, x1, ..., xk; columns are exponent sums of
    the generator images.
    """
    return phi.abelianized_matrix


@dataclass(frozen=True)
class AbelianizationReport:
    """Abelianization of the mapping torus G x|_phi Z.

    ``invariant_factors`` is the full diagonal of the Smith form of
    (Phi_ab - I) followed by one extra 0 for the suspension generator t;
    ``torsion`` keeps only the entries >= 2 and ``free_rank`` counts the
    zeros.  ``generator_images`` maps each generator (and "t") to its
    coordinates in the Smith basis, each torsion coordinate reduced mod its
    invariant factor.
    """

    invariant_factors: tuple
    torsion: tuple
    free_rank: int
    generator_images: dict
    basis_change: tuple  # (U, V) with U (Phi_ab - I) V = D


def mapping_torus_abelianization(phi: Automorphism) -> AbelianizationReport:
    a = phi.abelianized_matrix
    n = a.nrows
    u, d, v = smith_normal_form(a - IntegerMatrix.identity(n))
    diag = d.diagonal()
    factors = diag + (0,)
    torsion = tuple(x for x in diag if x >= 2)
    free_rank = sum(1 for x in factors if x == 0)
    images = {}
    names = phi.presentation.generator_names()
    for r, name in enumerate(names):
        col = tuple(u[s, r] for s in range(n))
        norm = tuple((c % diag[s]) if 0 < diag[s] else c
                     for s, c in enumerate(col))
        images[name] = norm + (0,)
    images["t"] = tuple(0 for _ in range(n)) + (1,)
    return AbelianizationReport(factors, torsion, free_rank, images, (u, v))


# ---------------------------------------------------------------------------
# the block-triangular orbit problem

@dataclass(frozen=True)
class OrbitConstraint:
    """rho(vector) must equal ``target`` or lie in target + lattice(gens)."""

    vector: tuple
    target: tuple
    lattice: tuple = ()   # generators of the allowed sublattice, or empty

    @property
    def exact(self) -> bool:
        return not self.lattice


@dataclass(frozen=True)
class BlockOrbitInstance:
    """Orbit instance for the group of (n+m)x(n+m) integer matrices
    [[I, B], [0, U]] with B arbitrary and U unimodular."""

    n: int
    m: int
    constraints: tuple

    def __post_init__(self):
        for c in self.constraints:
            if len(c.vector) != self.n + self.m or len(c.target) != self.n + self.m:
                raise DimensionMismatch("constraint vectors must have length n+m")
            for gen in c.lattice:
                if len(gen) != self.n + self.m:
                    raise DimensionMismatch("lattice generators must have length n+m")


@dataclass(frozen=True)
class OrbitVerdict:
    status: str                    # "witness" | "no_solution" | "undecided"
    matrix: IntegerMatrix | None = None
    reason: str = ""


def block_matrix(n: int, m: int, b: IntegerMatrix, u: IntegerMatrix) -> IntegerMatrix:
    rows = []
    for r in range(n):
        rows.append(tuple(1 if c == r else 0 for c in range(n)) + b.row(r))
    for r in range(m):
        rows.append(tuple(0 for _ in range(n)) + u.row(r))
    return IntegerMatrix(tuple(rows))


def _split(vec, n):
    return tuple(vec[:n]), tuple(vec[n:])


def _transvection_to_content(v2):
    """Unimodular P with P v2 = (content, 0, ..., 0)."""
    m = len(v2)
    p = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = list(v2)

    def rowop(dst, src, c):
        v[dst] += c * v[src]
        p[dst] = [x + c * y for x, y in zip(p[dst], p[src])]

    def rowswap(i, j):
        v[i], v[j] = v[j], v[i]
        p[i], p[j] = p[j], p[i]

    while sum(1 for x in v if x) > 1:
        nz = sorted((abs(x), i) for i, x in enumerate(v) if x)
        _, pivot = nz[0]
        for i in range(m):
            if i != pivot and v[i]:
                rowop(i, pivot, -(v[i] // v[pivot]))
        if sum(1 for x in v if x) > 1:
            continue
    for i, x in enumerate(v):
        if x:
            if i != 0:
                rowswap(0, i)
            break
    if v[0] < 0:
        p[0] = [-x for x in p[0]]
        v[0] = -v[0]
    return IntegerMatrix(tuple(tuple(r) for r in p))


def _unimodular_taking(v2, w2) -> IntegerMatrix | None:
    """Some U in GL_m(Z) with U v2 = w2 (exists iff contents agree)."""
    if content(v2) != content(w2):
        return None
    if not any(v2):
        return IntegerMatrix.identity(len(v2)) if not any(w2) else None
    p = _transvection_to_content(v2)
    q = _transvection_to_content(w2)
    u = matrix_inverse_unimodular(q) * p
    if u.apply(tuple(v2)) != tuple(w2):
        raise AssertionError("unimodular transport failed verification")
    return u


def _solve_b_rows(n, m, v2_cols, deltas):
    """B with B v2^(s) = delta^(s) for all s, or None.

    ``v2_cols``: list of the v2 vectors; ``deltas``: list of target vectors
    (length n each).  Row r of B solves  row . v2^(s) = delta^(s)[r].
    """
    mat = IntegerMatrix(tuple(tuple(col) for col in v2_cols))  # s x m
    rows = []
    for r in range(n):
        rhs = tuple(d[r] for d in deltas)
        sol = solve_integer(mat, rhs)
        if sol is None:
            return None
        rows.append(tuple(sol))
    return IntegerMatrix(tuple(rows)) if n else IntegerMatrix.zero(0, m)


def _enumerate_unimodular(m, bound, budget=400_000):
    """All of GL_m(Z) with entries bounded by ``bound``, within budget."""
    cells = m * m
    if (2 * bound + 1) ** cells > budget:
        return None
    out = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=cells):
        mat = IntegerMatrix(tuple(tuple(flat[r * m:(r + 1) * m])
                                  for r in range(m)))
        if abs(determinant(mat)) == 1:
            out.append(mat)
    return out


def _check_constraints(inst: BlockOrbitInstance, rho: IntegerMatrix) -> bool:
    for c in inst.constraints:
        got = rho.apply(tuple(c.vector))
        if c.exact:
            if got != tuple(c.target):
                return False
        else:
            diff = tuple(a - b for a, b in zip(got, c.target))
            lat = IntegerMatrix(tuple(zip(*c.lattice)))
            if solve_integer(lat, diff) is None:
                return False
    return True


def block_orbit_solve(inst: BlockOrbitInstance, search_bound: int = 4) -> OrbitVerdict:
    """Decide rho(v) = w (or coset membership) for block matrices [[I,B],[0,U]].

    A single exact constraint is decided exactly: U v2 = w2 is solvable iff
    content(v2) = content(w2), and B v2 = w1 - v1 iff v2 = 0 forces w1 = v1,
    else content(v2) divides every entry of w1 - v1.  Several exact
    constraints are decided exactly when the v2's form an invertible square
    system; remaining cases run a bounded search over U with entries up to
    ``search_bound`` and report ``undecided`` past the budget.  Witnesses
    are re-verified by multiplication before being returned.
    """
    n, m = inst.n, inst.m
    if not inst.constraints:
        return OrbitVerdict("witness", block_matrix(
            n, m, IntegerMatrix.zero(n, m), IntegerMatrix.identity(m)))

    exact = [c for c in inst.constraints if c.exact]
    for c in exact:
        v1, v2 = _split(c.vector, n)
        w1, w2 = _split(c.target, n)
        if content(v2) != content(w2):
            return OrbitVerdict("no_solution", reason=(
                f"unimodular maps preserve content: {content(v2)} != {content(w2)}"))
        if not any(v2):
            if w1 != v1:
                return OrbitVerdict("no_solution",
                                    reason="v2 = 0 forces w1 = v1")
        else:
            cv = content(v2)
            if any(x % cv for x in (a - b for a, b in zip(w1, v1))):
                return OrbitVerdict("no_solution", reason=(
                    "content(v2) must divide every entry of w1 - v1"))

    if len(exact) == len(inst.constraints) == 1:
        c = inst.constraints[0]
        v1, v2 = _split(c.vector, n)
        w1, w2 = _split(c.target, n)
        u = _unimodular_taking(v2, w2)
        b = _solve_b_rows(n, m, [v2], [tuple(a - b_ for a, b_ in zip(w1, v1))])
        if u is None or b is None:
            return OrbitVerdict("no_solution", reason="transport failed")
        rho = block_matrix(n, m, b, u)
        if not _check_constraints(inst, rho):
            raise AssertionError("orbit witness failed re-verification")
        return OrbitVerdict("witness", rho)

    candidates = None
    if len(exact) == len(inst.constraints):
        v2s = [_split(c.vector, n)[1] for c in exact]
        w2s = [_split(c.target, n)[1] for c in exact]
        mv = IntegerMatrix(tuple(zip(*v2s)))   # m x s
        mw = IntegerMatrix(tuple(zip(*w2s)))
        if invariant_factors(mv) != invariant_factors(mw):
            return OrbitVerdict("no_solution",
                                reason="column lattices have different Smith data")
        if len(v2s) == m and abs(determinant(mv)) == 1:
            candidates = [mw * matrix_inverse_unimodular(mv)]
            if abs(determinant(candidates[0])) != 1:
                return OrbitVerdict("no_solution",
                                    reason="unique linear solution is not unimodular")

    if candidates is None:
        candidates = _enumerate_unimodular(m, search_bound)
        if candidates is None:
            return OrbitVerdict("undecided",
                                reason="search budget exceeded for this block size")

    for u in candidates:
        ok_u = True
        for c in inst.constraints:
            _, v2 = _split(c.vector, n)
            _, w2 = _split(c.target, n)
            got = u.apply(v2)
            if c.exact:
                if got != w2:
                    ok_u = False
                    break
            else:
                lat2 = [_split(g, n)[1] for g in c.lattice]
                diff = tuple(a - b for a, b in zip(got, w2))
                latm = IntegerMatrix(tuple(zip(*lat2))) if lat2 else IntegerMatrix.zero(m, 0)
                if solve_integer(latm, diff) is None:
                    ok_u = False
                    break
        if not ok_u:
            continue
        b = _solve_joint_b(inst, u)
        if b is None:
            continue
        rho = block_matrix(n, m, b, u)
        if not _check_constraints(inst, rho):
            raise AssertionError("orbit witness failed re-verification")
        return OrbitVerdict("witness", rho)
    return OrbitVerdict("undecided",
                        reason="no witness within the bounded search")


def _solve_joint_b(inst: BlockOrbitInstance, u: IntegerMatrix):
    """Solve the top-row system for B (with coset slack) given U.

    Unknowns: the n*m entries of B and one lattice coefficient per
    generator of each coset constraint; one joint integer linear system.
    """
    n, m = inst.n, inst.m
    lat_offsets = []
    total_lambda = 0
    for c in inst.constraints:
        lat_offsets.append(total_lambda)
        if not c.exact:
            total_lambda += len(c.lattice)
    unknowns = n * m + total_lambda
    rows, rhs = [], []
    for ci, c in enumerate(inst.constraints):
        v1, v2 = _split(c.vector, n)
        w1, _ = _split(c.target, n)
        for r in range(n):
            row = [0] * unknowns
            for col in range(m):
                row[r * m + col] = v2[col]
            if not c.exact:
                for t, gen in enumerate(c.lattice):
                    row[n * m + lat_offsets[ci] + t] = -gen[r]
            rows.append(tuple(row))
            rhs.append(w1[r] - v1[r])
    if not rows:
        return IntegerMatrix.zero(n, m)
    sol = solve_integer(IntegerMatrix(tuple(rows)), tuple(rhs))
    if sol is None:
        return None
    return IntegerMatrix(tuple(tuple(sol[r * m + c] for c in range(m))
                               for r in range(n)))


# ---------------------------------------------------------------------------
# the conjugacy pipeline

@dataclass
class ConjugacyVerdict:
    status: str                    # "conjugate" | "distinguished" | "undecided"
    witness: dict | None = None
    invariant: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    elapsed: float = 0.0


def _abelian_invariants(phi: Automorphism) -> dict:
    a = phi.abelianized_matrix
    n = a.nrows
    inv = {
        "torus_invariant_factors": mapping_torus_abelianization(phi).invariant_factors,
        "char_poly": char_poly(a),
    }
    for c in range(-2, 3):
        shifted = a - IntegerMatrix.identity(n).scale(c)
        inv[f"smith_at_{c}"] = invariant_factors(shifted)
    return inv


def _inner_witness(theta: Automorphism) -> Word | None:
    """c with theta = ad_c, or None; always re-verified on all generators."""
    pres = theta.presentation
    p, k = pres.num_factors, pres.free_rank

    def verify(c: Word) -> bool:
        ci = c.inverse()
        return all(theta.images[name] ==
                   multiply(multiply(c, generator_word(pres, name)), ci)
                   for name in pres.generator_names())

    candidates: list[Word] = []
    if p >= 2:
        w = multiply(theta.conjugator(1).inverse(), theta.conjugator(2))
        # c = g1 a = g2 b needs a b^-1 = g1^-1 g2 with a in A_1, b in A_2
        syl = w.syllables
        a: Word | None = None
        if not syl:
            a = Word(pres)
        elif len(syl) == 1 and isinstance(syl[0], FactorSyllable) \
                and syl[0].factor in (1, 2):
            a = Word(pres, syl) if syl[0].factor == 1 else Word(pres)
        elif (len(syl) == 2 and isinstance(syl[0], FactorSyllable)
              and isinstance(syl[1], FactorSyllable)
              and syl[0].factor == 1 and syl[1].factor == 2):
            a = Word(pres, (syl[0],))
        if a is not None:
            candidates.append(multiply(theta.conjugator(1), a))
    elif p == 1 and k >= 1:
        g1 = theta.conjugator(1)
        t = multiply(multiply(g1.inverse(), theta.images["x1"]), g1)
        syl = t.syllables
        if len(syl) == 1 and isinstance(syl[0], FreeSyllable):
            candidates.append(g1)
        elif (len(syl) == 3 and isinstance(syl[0], FactorSyllable)
              and syl[0].factor == 1 and isinstance(syl[1], FreeSyllable)):
            candidates.append(multiply(g1, Word(pres, (syl[0],))))
    elif p == 0:
        img = theta.images["x1"]
        cyc = cyclic_normal_form(img)
        if len(cyc.core) == 1 and cyc.core[0] == FreeSyllable(1, 1):
            c0 = cyc.conjugator
            if k == 1:
                candidates.append(c0)
            else:
                # adjust by the centraliser of x1: c = c0 x1^s
                d = multiply(multiply(c0.inverse(), theta.images["x2"]), c0)
                sy = d.syllables
                if sy and isinstance(sy[0], FreeSyllable) and sy[0].letter == 1:
                    candidates.append(multiply(c0, Word(pres, (sy[0],))))
                candidates.append(c0)
    for c in candidates:
        if verify(c):
            return c
    return None


def _factor_substitution_candidates(phi1: Automorphism, phi2: Automorphism,
                                    i: int, coeff_bound: int = 2,
                                    cap: int = 40) -> list[IntegerMatrix]:
    """Unimodular S with S M1_i = M2_i S, from the integer solution lattice.

    The commuting equation is linear in S; small combinations of a kernel
    basis of the Sylvester operator are filtered for unimodularity.
    """
    m1, m2 = phi1.factor_matrix(i), phi2.factor_matrix(i)
    n = m1.nrows
    # rows index equations, columns index the n*n entries of S
    rows = []
    for r in range(n):
        for c in range(n):
            row = [0] * (n * n)
            for t in range(n):
                row[r * n + t] += m1[t, c]
                row[t * n + c] -= m2[r, t]
            rows.append(tuple(row))
    op = IntegerMatrix(tuple(rows))
    u, d, v = smith_normal_form(op)
    basis = []
    for r in range(v.ncols):
        if r >= min(d.nrows, d.ncols) or d[r, r] == 0:
            col = v.apply(tuple(1 if c == r else 0 for c in range(v.ncols)))
            basis.append(col)
    out = []
    seen = set()
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1),
                                    repeat=len(basis)):
        flat = [0] * (n * n)
        for cf, vec in zip(coeffs, basis):
            for t in range(n * n):
                flat[t] += cf * vec[t]
        s = IntegerMatrix(tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n)))
        key = s.entries
        if key in seen:
            continue
        seen.add(key)
        if abs(determinant(s)) == 1 and s * m1 == m2 * s:
            out.append(s)
            if len(out) >= cap:
                break
    return out


def _substitution_automorphism(pres: Presentation,
                               mats: dict[int, IntegerMatrix]) -> Automorphism:
    """Automorphism acting by the given matrix on each factor, identity on
    the free letters."""
    images, inv_images = {}, {}
    for i in range(1, pres.num_factors + 1):
        s = mats.get(i, IntegerMatrix.identity(pres.factor_rank(i)))
        sinv = matrix_inverse_unimodular(s)
        for j in range(1, pres.factor_rank(i) + 1):
            col = tuple(s[r, j - 1] for r in range(s.nrows))
            icol = tuple(sinv[r, j - 1] for r in range(s.nrows))
            images[f"a{i}.{j}"] = Word(pres, (FactorSyllable(i, col),)) \
                if any(col) else Word(pres)
            inv_images[f"a{i}.{j}"] = Word(pres, (FactorSyllable(i, icol),)) \
                if any(icol) else Word(pres)
    for l in range(1, pres.free_rank + 1):
        images[f"x{l}"] = generator_word(pres, f"x{l}")
        inv_images[f"x{l}"] = generator_word(pres, f"x{l}")
    return validate(images, inv_images, pres)


def conjugacy_pipeline(phi1: Automorphism, phi2: Automorphism,
                       conj_len: int = 3,
                       extra_candidates: tuple = ()) -> ConjugacyVerdict:
    """Decide conjugacy in Out(G) at desk scale.

    First compares abelianization invariants (mapping-torus invariant
    factors, characteristic polynomial, Smith data of Phi_ab - cI for small
    c): any mismatch is a sound ``distinguished``.  Then searches witnesses
    psi among factor-basis substitutions commuting with the abelianized
    data (plus any caller-supplied candidates), testing whether
    psi o phi1 o psi^-1 equals phi2 up to an inner automorphism recovered by
    coset matching.  Everything else is ``undecided``: the general decision
    procedure needs machinery (isomorphism problem for toral relatively
    hyperbolic groups, JSJ) far beyond desk scale.
    """
    t0 = time.perf_counter()
    if phi1.presentation != phi2.presentation:
        raise PresentationMismatch("pipeline needs a common presentation")
    pres = phi1.presentation
    for phi in (phi1, phi2):
        if not phi.preserves_factor_classes:
            raise FactorsPermuted("pipeline needs identity factor permutations")
    diagnostics = {}
    if any(n < 2 for n in pres.abelian_ranks):
        warnings.warn("cyclic factors present: invariant comparisons remain "
                      "sound, witness search may be weaker", stacklevel=2)
    toral = is_toral(phi1)[0] and is_toral(phi2)[0]
    diagnostics["both_toral"] = toral
    if not toral:
        warnings.warn("pipeline inputs are not both toral", stacklevel=2)

    inv1, inv2 = _abelian_invariants(phi1), _abelian_invariants(phi2)
    for key in inv1:
        if inv1[key] != inv2[key]:
            fresh1, fresh2 = _abelian_invariants(phi1), _abelian_invariants(phi2)
            assert fresh1[key] != fresh2[key]
            return ConjugacyVerdict(
                "distinguished",
                invariant={"name": key, "value_1": fresh1[key],
                           "value_2": fresh2[key]},
                diagnostics=diagnostics, elapsed=time.perf_counter() - t0)

    def candidates():
        yield identity_automorphism(pres)
        yield from extra_candidates
        per_factor = {}
        feasible = True
        for i in range(1, pres.num_factors + 1):
            local = _factor_substitution_candidates(phi1, phi2, i)
            if not local:
                feasible = False
                break
            per_factor[i] = local
        if feasible and pres.num_factors:
            combos = itertools.product(*(per_factor[i]
                                         for i in range(1, pres.num_factors + 1)))
            for count, mats in enumerate(combos):
                if count >= 1000:
                    break
                yield _substitution_automorphism(pres, dict(enumerate(mats, start=1)))
        emitted = 0
        for w in enumerate_words(pres, conj_len, 2):
            if not w:
                continue
            yield ad(w, pres)
            emitted += 1
            if emitted > 300:
                break

    phi2_inv = inverse(phi2)
    tested = 0
    for psi in candidates():
        tested += 1
        chi = compose(compose(psi, phi1), inverse(psi))
        theta = compose(phi2_inv, chi)
        c = _inner_witness(theta)
        if c is None:
            continue
        # verify psi phi1 psi^-1 == phi2 o ad_c as full tables
        lhs = chi
        rhs = compose(phi2, ad(c, pres))
        if lhs != rhs:
            raise AssertionError("conjugacy witness failed re-verification")
        return ConjugacyVerdict(
            "conjugate",
            witness={"psi_images": dict(psi.images), "inner": c},
            diagnostics={**diagnostics, "candidates_tested": tested},
            elapsed=time.perf_counter() - t0)

    diagnostics["candidates_tested"] = tested
    return ConjugacyVerdict("undecided", diagnostics=diagnostics,
                            elapsed=time.perf_counter() - t0)
