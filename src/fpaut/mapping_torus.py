"""Abelianized actions, mapping-torus abelianization, block orbit problems,
and the desk-scale conjugacy pipeline.

The pipeline's verdict lattice is {conjugate, distinguished, undecided}: a
``conjugate`` verdict always ships a witness that re-verifies by
composition, a ``distinguished`` verdict ships the first abelianization
invariant on which the two inputs differ, and everything the bounded
searches cannot settle is ``undecided``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from .automorphisms import (Automorphism, _apply_table, _trusted, ad,
                            compose, generator_word, identity_automorphism,
                            inverse, is_toral, require_class_preserving)
from .dynamics import enumerate_words
from .errors import DimensionMismatch, SelfCheckFailed
from .matrices import (IntegerMatrix, char_poly, content, determinant,
                       invariant_factors, kernel_basis,
                       matrix_inverse_unimodular, smith_normal_form,
                       solve_integer)
from .words import (FactorSyllable, FreeSyllable, Presentation, Word, _track,
                    cyclic_normal_form, multiply, require_same_presentation)

# `block_orbit_solve` tries every U in GL_m(Z) with entries of absolute value
# at most UNIMODULAR_ENTRY_BOUND, unless that is more than UNIMODULAR_BUDGET
# matrices
UNIMODULAR_ENTRY_BOUND = 4
UNIMODULAR_BUDGET = 400_000
# `_factor_substitution_candidates` combines kernel vectors with coefficients
# of absolute value at most SUBSTITUTION_COEFF_BOUND and keeps at most
# SUBSTITUTION_CAP unimodular results per factor
SUBSTITUTION_COEFF_BOUND = 2
SUBSTITUTION_CAP = 40


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


def mapping_torus_abelianization(phi: Automorphism) -> AbelianizationReport:
    a = phi.abelianized_matrix
    n = a.nrows
    u, d, _ = smith_normal_form(a - IntegerMatrix.identity(n))
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
    return AbelianizationReport(factors, torsion, free_rank, images)


# ---------------------------------------------------------------------------
# the block-triangular orbit problem

@dataclass(frozen=True)
class OrbitConstraint:
    """rho(vector) must equal ``target`` or lie in target + lattice(gens).

    The lattice generators are whole (n+m)-vectors, so one coefficient
    vector lambda spans the coset in both blocks at once:
    rho(vector) - target = sum_t lambda_t gens[t].
    """

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


def _unimodular_taking(v2, w2) -> IntegerMatrix:
    """Some U in GL_m(Z) with U v2 = w2, given content(v2) = content(w2).

    The Smith transform of a column takes it to (content, 0, ..., 0), so
    U = U_w^-1 U_v carries v2 onto w2.
    """
    uv, dv, _ = smith_normal_form(IntegerMatrix(tuple((x,) for x in v2)))
    uw, dw, _ = smith_normal_form(IntegerMatrix(tuple((x,) for x in w2)))
    u = matrix_inverse_unimodular(uw) * uv
    if dv != dw or u.apply(tuple(v2)) != tuple(w2):
        raise SelfCheckFailed("unimodular transport failed verification")
    return u


def _enumerate_unimodular(m):
    """All of GL_m(Z) with entries bounded by ``UNIMODULAR_ENTRY_BOUND``, or
    None when there are more than ``UNIMODULAR_BUDGET`` matrices to try."""
    bound = UNIMODULAR_ENTRY_BOUND
    cells = m * m
    if (2 * bound + 1) ** cells > UNIMODULAR_BUDGET:
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


def block_orbit_solve(inst: BlockOrbitInstance) -> OrbitVerdict:
    """Decide rho(v) = w (or coset membership) for block matrices [[I,B],[0,U]].

    A coset constraint asks rho(v) - w = sum_t lambda_t gen_t for one integer
    coefficient vector lambda spanning the whole (n+m)-vector: the top and
    bottom blocks share it.  Exact constraints are first screened by
    necessary conditions: U v2 = w2 needs content(v2) = content(w2), and
    B v2 = w1 - v1 needs w1 = v1 when v2 = 0, else content(v2) dividing
    every entry of w1 - v1.  The candidates for U are then the transport
    for a single exact constraint, mw mv^-1 when the exact v2's form an
    invertible square system, and otherwise every U with entries up to
    ``UNIMODULAR_ENTRY_BOUND`` (``undecided`` past the budget).  Each
    candidate solves one joint integer system for (B, lambda); witnesses
    are re-verified by multiplication before being returned.  When the
    candidates are every possible U -- the forced U of a square system, or
    all of GL_1(Z) = {+-1} for m = 1 -- a failed search is
    ``no_solution``, else ``undecided``.
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

    candidates, complete = None, False
    if len(exact) == len(inst.constraints) == 1:
        c = exact[0]
        candidates = [_unimodular_taking(_split(c.vector, n)[1],
                                         _split(c.target, n)[1])]
    elif len(exact) == len(inst.constraints):
        v2s = [_split(c.vector, n)[1] for c in exact]
        w2s = [_split(c.target, n)[1] for c in exact]
        mv = IntegerMatrix(tuple(zip(*v2s)))   # m x s
        mw = IntegerMatrix(tuple(zip(*w2s)))
        if invariant_factors(mv) != invariant_factors(mw):
            return OrbitVerdict("no_solution",
                                reason="column lattices have different Smith data")
        if len(v2s) == m and abs(determinant(mv)) == 1:
            candidates, complete = [mw * matrix_inverse_unimodular(mv)], True
            if abs(determinant(candidates[0])) != 1:
                return OrbitVerdict("no_solution",
                                    reason="unique linear solution is not unimodular")
    if candidates is None:
        candidates = _enumerate_unimodular(m)
        if candidates is None:
            return OrbitVerdict("undecided",
                                reason="search budget exceeded for this block size")
        complete = m == 1  # GL_1(Z) = {+-1}, within the entry bound

    for u in candidates:
        if any(u.apply(_split(c.vector, n)[1]) != _split(c.target, n)[1]
               for c in exact):
            continue
        b = _solve_joint_b(inst, u)
        if b is None:
            continue
        rho = block_matrix(n, m, b, u)
        if not _check_constraints(inst, rho):
            raise SelfCheckFailed("orbit witness failed re-verification")
        return OrbitVerdict("witness", rho)
    if complete:
        return OrbitVerdict("no_solution",
                            reason="no possible U admits a solution for B")
    return OrbitVerdict("undecided",
                        reason="no witness within the bounded search")


def _solve_joint_b(inst: BlockOrbitInstance, u: IntegerMatrix):
    """B with every constraint satisfied by [[I, B], [0, U]], or None.

    Unknowns: the n*m entries of B and one lattice coefficient per
    generator of each coset constraint, shared by the constraint's n top
    rows (v1 + B v2) and m bottom rows (U v2); one joint integer linear
    system.  The bottom rows of exact constraints are left out: the caller
    has checked U v2 = w2.
    """
    n, m = inst.n, inst.m
    lat_offsets = []
    total_lambda = 0
    for c in inst.constraints:
        lat_offsets.append(total_lambda)
        total_lambda += len(c.lattice)
    unknowns = n * m + total_lambda
    rows, rhs = [], []
    for ci, c in enumerate(inst.constraints):
        v1, v2 = _split(c.vector, n)
        top = tuple(w - v for w, v in zip(c.target[:n], v1))
        bottom = tuple(w - x for w, x in zip(c.target[n:], u.apply(v2)))
        for r in range(n if c.exact else n + m):
            row = [0] * unknowns
            if r < n:
                row[r * m:(r + 1) * m] = v2
            for t, gen in enumerate(c.lattice):
                row[n * m + lat_offsets[ci] + t] = -gen[r]
            rows.append(tuple(row))
            rhs.append(top[r] if r < n else bottom[r - n])
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


def _abelian_invariants(phi: Automorphism) -> dict:
    """Torus invariant factors (Smith diagonal of Phi_ab - I, then 0 for t)
    first, then char_poly and the Smith diagonals of Phi_ab - cI."""
    a = phi.abelianized_matrix
    identity = IntegerMatrix.identity(a.nrows)
    smith = {f"smith_at_{c}": invariant_factors(a - identity.scale(c))
             for c in range(-2, 3)}
    return {"torus_invariant_factors": smith["smith_at_1"] + (0,),
            "char_poly": char_poly(a), **smith}


def _inner_witness(theta: Automorphism) -> Word | None:
    """c with theta = ad_c, or None; always re-verified on all generators.

    Any such c is b a for a base b read off theta and some a on one track
    T: b = g_1 and T = A_1 when G has a factor, otherwise theta(x1) must be
    b x1 b^-1 and T = <x1>.  For the first generator y off T,
    b^-1 theta(y) b = a y a^-1, so a is its leading syllable when that lies
    on T, and 1 otherwise.  Without such a y, G is Z^n or Z and c = b.
    """
    pres = theta.presentation
    if pres.num_factors:
        base, track = theta.conjugator(1), ("A", 1)
    else:
        cyc = cyclic_normal_form(theta.images["x1"])
        if cyc.core != (FreeSyllable(1, 1),):
            return None
        base, track = cyc.conjugator, ("X", 1)
    gens = {name: generator_word(pres, name) for name in pres.generator_names()}
    c = base
    y = next((name for name, g in gens.items()
              if _track(g.syllables[0]) != track), None)
    if y is not None:
        lead = multiply(multiply(base.inverse(), theta.images[y]), base).syllables
        if lead and _track(lead[0]) == track:
            c = multiply(base, Word(pres, lead[:1]))
    ci = c.inverse()
    if all(theta.images[name] == multiply(multiply(c, g), ci)
           for name, g in gens.items()):
        return c
    return None


def _factor_substitution_candidates(phi1: Automorphism, phi2: Automorphism,
                                    i: int) -> list[IntegerMatrix]:
    """Unimodular S with S M1_i = M2_i S, from the integer solution lattice.

    The commuting equation is linear in S; the combinations of a kernel
    basis of the Sylvester operator with coefficients of absolute value at
    most ``SUBSTITUTION_COEFF_BOUND`` are filtered for unimodularity, and
    the first ``SUBSTITUTION_CAP`` that pass are returned.
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
    basis = kernel_basis(IntegerMatrix(tuple(rows)))
    out = []
    bound = SUBSTITUTION_COEFF_BOUND
    for coeffs in itertools.product(range(-bound, bound + 1),
                                    repeat=len(basis)):
        flat = [0] * (n * n)
        for cf, vec in zip(coeffs, basis):
            for t in range(n * n):
                flat[t] += cf * vec[t]
        s = IntegerMatrix(tuple(tuple(flat[r * n:(r + 1) * n]) for r in range(n)))
        if abs(determinant(s)) == 1 and s * m1 == m2 * s:
            out.append(s)
            if len(out) >= SUBSTITUTION_CAP:
                break
    return out


def _substitution_automorphism(pres: Presentation,
                               mats: dict[int, IntegerMatrix]) -> Automorphism:
    """Automorphism acting by the given matrix on each factor, identity on
    the free letters; the tables come from S and S^-1, so they are inverse
    by construction."""
    images, inv_images = {}, {}
    for i in range(1, pres.num_factors + 1):
        s = mats.get(i, IntegerMatrix.identity(pres.factor_rank(i)))
        sinv = matrix_inverse_unimodular(s)
        for j in range(1, pres.factor_rank(i) + 1):
            col = tuple(s[r, j - 1] for r in range(s.nrows))
            icol = tuple(sinv[r, j - 1] for r in range(s.nrows))
            images[f"a{i}.{j}"] = Word(pres, (FactorSyllable(i, col),))
            inv_images[f"a{i}.{j}"] = Word(pres, (FactorSyllable(i, icol),))
    for l in range(1, pres.free_rank + 1):
        images[f"x{l}"] = generator_word(pres, f"x{l}")
        inv_images[f"x{l}"] = generator_word(pres, f"x{l}")
    return _trusted(images, inv_images, pres)


def conjugacy_pipeline(phi1: Automorphism, phi2: Automorphism,
                       conj_len: int = 3) -> ConjugacyVerdict:
    """Decide conjugacy in Out(G) at desk scale.

    First compares abelianization invariants (mapping-torus invariant
    factors, characteristic polynomial, Smith data of Phi_ab - cI for small
    c): any mismatch is a sound ``distinguished``.  Then tries witnesses
    psi -- the identity, then the factor-basis substitutions commuting with
    the abelianized data -- testing whether psi o phi1 o psi^-1 equals phi2
    up to an inner automorphism, recovered by `_inner_witness`.  The inner
    candidates ad(w), for nonempty words w of at most ``conj_len``
    syllables (at most 301 of them), are decided by the identity test and
    only counted in ``candidates_tested``.  Everything else is
    ``undecided``: the general decision procedure needs machinery
    (isomorphism problem for toral relatively hyperbolic groups, JSJ) far
    beyond desk scale.
    """
    require_same_presentation(phi1.presentation, phi2.presentation)
    pres = phi1.presentation
    require_class_preserving(phi1)
    require_class_preserving(phi2)
    diagnostics = {}
    if any(n < 2 for n in pres.abelian_ranks):
        warnings.warn("cyclic factors present: invariant comparisons remain "
                      "sound, witness search may be weaker", stacklevel=2)
    toral = is_toral(phi1) and is_toral(phi2)
    diagnostics["both_toral"] = toral
    if not toral:
        warnings.warn("pipeline inputs are not both toral", stacklevel=2)

    inv1, inv2 = _abelian_invariants(phi1), _abelian_invariants(phi2)
    for key in inv1:
        if inv1[key] != inv2[key]:
            return ConjugacyVerdict(
                "distinguished",
                invariant={"name": key, "value_1": inv1[key],
                           "value_2": inv2[key]},
                diagnostics=diagnostics)

    def candidates():
        yield identity_automorphism(pres)
        per_factor = []
        for i in range(1, pres.num_factors + 1):
            local = _factor_substitution_candidates(phi1, phi2, i)
            if not local:
                return
            per_factor.append(local)
        combos = itertools.product(*per_factor) if per_factor else ()
        for mats in itertools.islice(combos, 1000):
            yield _substitution_automorphism(pres, dict(enumerate(mats, start=1)))

    phi2_inv = inverse(phi2)
    tested = 0
    for psi in candidates():
        tested += 1
        chi = compose(compose(psi, phi1), inverse(psi))
        theta = compose(phi2_inv, chi)
        c = _inner_witness(theta)
        if c is None:
            continue
        # verify psi phi1 psi^-1 == phi2 o ad_c on every generator by table
        # substitution, which reads none of the blocks that built chi
        inner = ad(c, pres).images
        for name in pres.generator_names():
            lhs = _apply_table(psi.images, pres, _apply_table(
                phi1.images, pres, psi.inverse_images[name]))
            if lhs != _apply_table(phi2.images, pres, inner[name]):
                raise SelfCheckFailed(
                    "conjugacy witness failed re-verification")
        return ConjugacyVerdict(
            "conjugate",
            witness={"psi_images": dict(psi.images), "inner": c},
            diagnostics={**diagnostics, "candidates_tested": tested})

    # The inner candidates psi = ad(w) need no composition: psi phi1 psi^-1
    # = ad(w phi1(w)^-1) o phi1, so phi2^-1 psi phi1 psi^-1 is inner exactly
    # when phi2^-1 phi1 is.  The identity candidate has failed and
    # `_inner_witness` is complete, so every ad(w) fails too; they are
    # counted as tested, the nonempty words of the enumeration, at most 301.
    tested += sum(1 for _ in itertools.islice(
        enumerate_words(pres, conj_len, 2), 1, 302))
    diagnostics["candidates_tested"] = tested
    return ConjugacyVerdict("undecided", diagnostics=diagnostics)
