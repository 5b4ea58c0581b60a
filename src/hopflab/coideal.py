"""Left coideal subalgebras and their calculus.

A CoidealSubalgebra bundles a verified left coideal subalgebra N of H with
its idempotent integral, the invariant subalgebra B = (H*)^N, the dual
integral lambda_B = Lambda_N -> lambda (normalized so <lambda_B, 1> = dim B),
and the normality / Hopf-subalgebra flags, each computed by two independent
tests that must agree.

Quotients H//N for normal N are realized on the ideal H*Lambda_N, which the
projection h |-> h*Lambda_N identifies with H/HN+.
"""

from __future__ import annotations

from .errors import (
    HopfLabError,
    IntegralError,
    NotAnAlgebraError,
    NotARepresentationError,
    NotCoidealError,
    NotNormalError,
)
from .hopf import HopfAlgebra, _tensor_add
from .linalg import (
    AlgebraPresentation,
    Subspace,
    basis_vector,
    vec_add,
    vec_eq,
    vec_scale,
    zero_vector,
)
from .linalg import _kernel_from_rows, _solve_integral, _subalgebra_presentation


class CoidealSubalgebra:
    """A left coideal subalgebra N of a Hopf algebra, with derived data."""

    def __init__(self, hopf, space, integral, invariants, dual_integral,
                 normal, hopf_subalgebra):
        self.hopf = hopf
        self.space = space                  # Subspace of H
        self.integral = integral            # Lambda_N, ambient coords
        self.invariants = invariants        # B = (H*)^N, Subspace of H*
        self.dual_integral = dual_integral  # lambda_B, ambient H* coords
        self.normal = normal
        self.hopf_subalgebra = hopf_subalgebra
        self._cache = {}

    @property
    def dim(self):
        return self.space.dim

    def __repr__(self):
        flags = []
        if self.normal:
            flags.append("normal")
        if self.hopf_subalgebra:
            flags.append("hopf")
        tag = ", ".join(flags) or "plain"
        return f"<coideal dim {self.dim} of {self.hopf!r} ({tag})>"

    def __eq__(self, other):
        if not isinstance(other, CoidealSubalgebra):
            return NotImplemented
        return self.hopf is other.hopf and self.space == other.space

    def __hash__(self):
        return hash(self.space)

    def to_ambient(self, coords):
        out = zero_vector(self.hopf.field, self.hopf.dim)
        for c, row in zip(coords, self.space.basis):
            if not c.is_zero():
                out = vec_add(out, vec_scale(list(row), c))
        return out

    def coords_of(self, vec):
        coords = self.space.coords_of(vec)
        if coords is None:
            raise NotCoidealError("element does not lie in the coideal subalgebra")
        return coords

    def restrict_functional(self, p):
        """p restricted to N, as values on the echelon basis of N."""
        return [self.hopf.pair(p, list(b)) for b in self.space.basis]

    def presentation(self) -> AlgebraPresentation:
        """N as an abstract algebra in its echelon-basis coordinates."""
        if "presentation" not in self._cache:
            self._cache["presentation"] = _checked_presentation(self.hopf, self.space)
        return self._cache["presentation"]

    def counit_on_basis(self):
        return [self.hopf.counit_of(list(b)) for b in self.space.basis]


def _checked_presentation(hopf: HopfAlgebra, space: Subspace) -> AlgebraPresentation:
    """N as an algebra on its echelon basis, after checking 1 in N,
    N*N <= N and Delta(N) <= H (x) N; NotCoidealError names the first
    failure."""
    if not space.contains_vector(hopf.unit):
        raise NotCoidealError("unit not contained")
    presentation = _subalgebra_presentation(hopf, space, hopf.unit)
    if presentation is None:
        raise NotCoidealError("not closed under multiplication")
    for v in space.basis:
        for leg in _right_legs(hopf, list(v)):
            if not space.contains_vector(leg):
                raise NotCoidealError("not a left coideal")
    return presentation


def _right_legs(hopf, v):
    """Vectors w_j with Delta(v) = sum_j e_j (x) w_j."""
    legs = {}
    for (j, k), c in hopf.comult_of(v).items():
        row = legs.setdefault(j, zero_vector(hopf.field, hopf.dim))
        row[k] = row[k] + c
    return list(legs.values())


def coideal_closure(hopf: HopfAlgebra, generators) -> CoidealSubalgebra:
    """Smallest left coideal subalgebra containing the generators.

    Alternates closure under the right comultiplication legs and under
    multiplication until the dimension stabilizes (bounded by dim H).
    """
    vectors = [list(hopf.unit)] + [list(g) for g in generators]
    space = Subspace.from_vectors(hopf.field, hopf.dim, vectors)
    for _ in range(hopf.dim + 1):
        new_vecs = list(space.basis)
        for v in space.basis:
            new_vecs.extend(_right_legs(hopf, list(v)))
        grown = Subspace.from_vectors(hopf.field, hopf.dim, new_vecs)
        basis = [list(b) for b in grown.basis]
        prods = list(grown.basis)
        for a in basis:
            for b in basis:
                prods.append(hopf.multiply(a, b))
        grown = Subspace.from_vectors(hopf.field, hopf.dim, prods)
        if grown == space:
            return coideal_from_subspace(hopf, space)
        space = grown
    raise HopfLabError("coideal closure did not stabilize within dim H steps")


def coideal_from_subspace(hopf: HopfAlgebra, space: Subspace) -> CoidealSubalgebra:
    """Wrap an already-closed subspace as a verified CoidealSubalgebra."""
    presentation = _checked_presentation(hopf, space)
    integral = _coideal_integral(hopf, space, presentation)
    invariants = _dual_invariants(hopf, space)
    lam = hopf.integrals().dual_integral
    dual_integral = hopf.hit_left(integral, lam)
    normal = _normality(hopf, space, integral)
    hopf_flag = _hopf_subalgebra_flag(hopf, space, integral)
    ctx = CoidealSubalgebra(hopf, space, integral, invariants, dual_integral,
                            normal, hopf_flag)
    ctx._cache["presentation"] = presentation
    return ctx


def _coideal_integral(hopf, space, presentation):
    """Idempotent two-sided integral of N: the integral of N's presentation
    for the restricted counit, in ambient coordinates."""
    basis = [list(b) for b in space.basis]
    eps = [hopf.counit_of(b) for b in basis]
    x = zero_vector(hopf.field, hopf.dim)
    for c, nb in zip(_solve_integral(presentation, eps), basis):
        if not c.is_zero():
            x = vec_add(x, vec_scale(nb, c))
    if not vec_eq(hopf.multiply(x, x), x):
        raise IntegralError("coideal integral is not idempotent")
    for na, e in zip(basis, eps):
        if not vec_eq(hopf.multiply(x, na), vec_scale(x, e)):
            raise IntegralError("coideal integral is not two-sided")
    return x


def _dual_invariants(hopf, space):
    """B = (H*)^N = {p : n -> p = eps(n) p for n in N}."""
    field = hopf.field
    basis = [list(b) for b in space.basis]
    rows = []
    for nb in basis:
        eps = hopf.counit_of(nb)
        # <n -> p, e_m> = <p, e_m n>
        for m in range(hopf.dim):
            prod = hopf.multiply(hopf.basis(m), nb)
            row = {}
            for k, c in enumerate(prod):
                if k == m:
                    c = c - eps
                if not c.is_zero():
                    row[k] = c
            if row:
                rows.append(row)
    sols = _kernel_from_rows(rows, field, hopf.dim)
    return Subspace.from_vectors(field, hopf.dim, [list(s) for s in sols])


def _normality_pair(hopf, space, integral):
    """Two independent normality tests: stability under the adjoint action,
    and centrality of the integral (they agree for valid inputs)."""
    by_adjoint = all(
        space.contains_vector(hopf.adjoint(hopf.basis(i), list(b)))
        for i in range(hopf.dim)
        for b in space.basis
    )
    by_center = all(
        vec_eq(hopf.multiply(hopf.basis(i), integral), hopf.multiply(integral, hopf.basis(i)))
        for i in range(hopf.dim)
    )
    return by_adjoint, by_center


def _normality(hopf, space, integral):
    by_adjoint, by_center = _normality_pair(hopf, space, integral)
    if by_adjoint != by_center:
        raise HopfLabError("normality tests disagree (adjoint-stability vs central integral)")
    return by_adjoint


def _hopf_subalgebra_pair(hopf, space, integral):
    """Cocommutativity of the integral, and the direct test
    Delta(N) <= N (x) N plus S(N) <= N."""
    delta = hopf.comult_of(integral)
    by_integral = delta == {(k, j): c for (j, k), c in delta.items()}
    direct = all(
        space.contains_vector(hopf.antipode_of(list(b))) for b in space.basis
    )
    if direct:
        for b in space.basis:
            legs = {}
            for (j, k), c in hopf.comult_of(list(b)).items():
                row = legs.setdefault(k, zero_vector(hopf.field, hopf.dim))
                row[j] = row[j] + c
            if any(not space.contains_vector(leg) for leg in legs.values()):
                direct = False
                break
    return by_integral, direct


def _hopf_subalgebra_flag(hopf, space, integral):
    by_integral, direct = _hopf_subalgebra_pair(hopf, space, integral)
    if by_integral != direct:
        raise HopfLabError("Hopf-subalgebra tests disagree (cocommutative integral vs direct)")
    return by_integral


def normality_tests(ctx: CoidealSubalgebra):
    """The two independent normality tests (adjoint stability, central
    integral); they agree for every valid context."""
    return _normality_pair(ctx.hopf, ctx.space, ctx.integral)


def hopf_subalgebra_tests(ctx: CoidealSubalgebra):
    """The two independent Hopf-subalgebra tests (cocommutative integral,
    direct closure of the coalgebra structure)."""
    return _hopf_subalgebra_pair(ctx.hopf, ctx.space, ctx.integral)


def invariants_of(hopf: HopfAlgebra, functionals: Subspace) -> Subspace:
    """H^T = {h : b -> h = <b, 1> h for all b in T} for a subalgebra T of H*.

    Raises NotAnAlgebraError when T misses the counit or is not closed under
    the dual product.
    """
    field = hopf.field
    if not functionals.contains_vector(hopf.dual_unit()):
        raise NotAnAlgebraError("T does not contain the unit of H*")
    t_basis = [list(b) for b in functionals.basis]
    for p in t_basis:
        for q in t_basis:
            if not functionals.contains_vector(hopf.dual_multiply(p, q)):
                raise NotAnAlgebraError("T is not closed under multiplication")
    rows = []
    for b in t_basis:
        b1 = hopf.pair(b, hopf.unit)
        # act_left(b, e_i)[m] as matrix entries
        cols = [hopf.act_left(b, hopf.basis(i)) for i in range(hopf.dim)]
        for m in range(hopf.dim):
            row = {}
            for i in range(hopf.dim):
                c = cols[i][m]
                if i == m:
                    c = c - b1
                if not c.is_zero():
                    row[i] = c
            if row:
                rows.append(row)
    sols = _kernel_from_rows(rows, field, hopf.dim)
    return Subspace.from_vectors(field, hopf.dim, [list(s) for s in sols])


def double_invariants_roundtrip(ctx: CoidealSubalgebra) -> bool:
    """H^((H*)^N) == N, both sides computed independently."""
    back = invariants_of(ctx.hopf, ctx.invariants)
    return back == ctx.space


class HopfQuotient:
    """H//N for normal N, realized on the ideal H*Lambda_N.

    projection(h) gives quotient coordinates of h; section rows embed the
    quotient basis back into H.
    """

    def __init__(self, hopf, context, quotient, section, pi_rows):
        self.hopf = hopf
        self.context = context
        self.quotient = quotient
        self.section = section      # list of ambient vectors, quotient basis
        self._pi_rows = pi_rows     # projection of each ambient basis vector

    def project(self, h):
        out = zero_vector(self.quotient.field, self.quotient.dim)
        for i, c in enumerate(h):
            if not c.is_zero():
                out = vec_add(out, vec_scale(self._pi_rows[i], c))
        return out

    def lift_coideal(self, subspace: Subspace) -> Subspace:
        """The unique coideal subalgebra of H containing N that projects
        onto the given coideal subalgebra of the quotient.

        Computed through the invariants correspondence: pull the quotient's
        invariant functionals back along the projection and take their
        invariants in H.  The plain linear preimage would be larger (it
        contains the whole kernel of the projection) and is not a coideal.
        """
        field = self.hopf.field
        bbar = _dual_invariants(self.quotient, subspace)
        pulled = []
        for b in bbar.basis:
            pulled.append([self.quotient.pair(list(b), self._pi_rows[i]) for i in range(self.hopf.dim)])
        span = Subspace.from_vectors(field, self.hopf.dim, pulled)
        return invariants_of(self.hopf, span)


def quotient(hopf: HopfAlgebra, ctx: CoidealSubalgebra) -> HopfQuotient:
    """The Hopf quotient H//N on the echelon basis of H*Lambda_N."""
    if not ctx.normal:
        raise NotNormalError("quotient requires a normal coideal subalgebra")
    field = hopf.field
    lam = ctx.integral
    images = [hopf.multiply(hopf.basis(i), lam) for i in range(hopf.dim)]
    ideal = Subspace.from_vectors(field, hopf.dim, images)
    section = [list(b) for b in ideal.basis]
    qdim = ideal.dim
    pi_rows = [ideal.coords_of(v) for v in images]
    algebra = _subalgebra_presentation(hopf, ideal, lam)
    comult = [_push_forward(hopf.comult_of(v), pi_rows) for v in section]
    counit = [hopf.counit_of(v) for v in section]
    antipode = []
    for v in section:
        img = hopf.multiply(hopf.antipode_of(v), lam)
        antipode.append(ideal.coords_of(img))

    q = HopfAlgebra(field, qdim, algebra.mult, algebra.unit, comult, counit, antipode,
                    name=f"{hopf.name}//N" if hopf.name else "quotient")
    report = q.verify()
    if not report.ok:
        from .errors import AxiomError
        raise AxiomError(report)
    if hopf.dim % qdim != 0 or qdim * ctx.dim != hopf.dim:
        raise HopfLabError("quotient dimension does not divide as expected")
    hq = HopfQuotient(hopf, ctx, q, section, pi_rows)
    _check_projection_is_hopf_map(hopf, hq)
    return hq


def _push_forward(tensor, pi_rows):
    """(pi x pi) of a sparse 2-tensor {(j, k): c}, where pi_rows[j] is the
    image of e_j."""
    out = {}
    for (j, k), c in tensor.items():
        pj, pk = pi_rows[j], pi_rows[k]
        for x, cx in enumerate(pj):
            if cx.is_zero():
                continue
            for y, cy in enumerate(pk):
                if not cy.is_zero():
                    _tensor_add(out, (x, y), c * cx * cy)
    return out


def _check_projection_is_hopf_map(hopf, hq: HopfQuotient):
    q = hq.quotient
    for i in range(hopf.dim):
        pi_i = hq._pi_rows[i]
        if q.comult_of(pi_i) != _push_forward(hopf.comult[i], hq._pi_rows):
            raise HopfLabError("projection does not intertwine comultiplication")
        if q.counit_of(pi_i) != hopf.counit[i]:
            raise HopfLabError("projection does not preserve the counit")
        if not vec_eq(q.antipode_of(pi_i), hq.project(hopf.antipode[i])):
            raise HopfLabError("projection does not intertwine the antipode")
    for i in range(hopf.dim):
        for j in range(hopf.dim):
            prod = zero_vector(hopf.field, hopf.dim)
            for k, c in hopf.mult[i][j].items():
                prod[k] = c
            if not vec_eq(hq.project(prod), q.multiply(hq._pi_rows[i], hq._pi_rows[j])):
                raise HopfLabError("projection is not an algebra map")


def left_kernel(hopf: HopfAlgebra, module_matrices) -> Subspace:
    """LKer of a module given by matrices per basis index (rows = images of
    the module basis): all h with sum h1 (x) h2 v = h (x) v."""
    field = hopf.field
    dim = hopf.dim
    if not module_matrices or len(module_matrices) != dim:
        raise NotARepresentationError("need one matrix per basis element")
    d = len(module_matrices[0])
    from .linalg import mat_vec

    # representation check: e_i (e_j v) = (e_i e_j) v, unit acts as identity
    unit_mat = [zero_vector(field, d) for _ in range(d)]
    for i, c in enumerate(hopf.unit):
        if not c.is_zero():
            for r in range(d):
                unit_mat[r] = vec_add(unit_mat[r], vec_scale(module_matrices[i][r], c))
    for r in range(d):
        expected = basis_vector(field, d, r)
        if not vec_eq(unit_mat[r], expected):
            raise NotARepresentationError("unit does not act as the identity")
    for i in range(dim):
        for j in range(dim):
            composed = [mat_vec(module_matrices[i], module_matrices[j][r]) for r in range(d)]
            expected = [zero_vector(field, d) for _ in range(d)]
            for k, c in hopf.mult[i][j].items():
                for r in range(d):
                    expected[r] = vec_add(expected[r], vec_scale(module_matrices[k][r], c))
            if any(not vec_eq(composed[r], expected[r]) for r in range(d)):
                raise NotARepresentationError(f"matrices violate structure constants at ({i}, {j})")

    rows = []
    for a in range(dim):
        for r_in in range(d):
            for r_out in range(d):
                row = {}
                for i in range(dim):
                    acc = field.zero
                    for (j, k), c in hopf.comult[i].items():
                        if j == a:
                            acc = acc + c * module_matrices[k][r_in][r_out]
                    if i == a and r_in == r_out:
                        acc = acc - field.one
                    if not acc.is_zero():
                        row[i] = acc
                if row:
                    rows.append(row)
    sols = _kernel_from_rows(rows, field, dim)
    return Subspace.from_vectors(field, dim, [list(s) for s in sols])


def hopf_center(hopf: HopfAlgebra) -> Subspace:
    """Largest Hopf subalgebra contained in the center of H, by fixpoint
    refinement V <- {v in V : Delta(v) in V (x) V, S(v) in V} from V = Z(H)."""
    field = hopf.field
    space = hopf.center()
    while True:
        basis = [list(b) for b in space.basis]
        if not basis:
            return space
        q_of_basis = [space.quotient_coords(hopf.basis(j)) for j in range(hopf.dim)]
        width = len(q_of_basis[0])
        if width == 0:
            return space
        rows = []
        deltas = [hopf.comult_of(v) for v in basis]
        images = [hopf.antipode_of(v) for v in basis]
        # (Q x id) Delta v = 0
        lhs_cols = {}
        for a, delta in enumerate(deltas):
            for (j, k), c in delta.items():
                for qi in range(width):
                    qc = q_of_basis[j][qi]
                    if not qc.is_zero():
                        key = (qi, k)
                        cur = lhs_cols.setdefault(key, {})
                        cur[a] = cur.get(a, field.zero) + c * qc
        rows.extend(r for r in lhs_cols.values())
        rhs_cols = {}
        for a, delta in enumerate(deltas):
            for (j, k), c in delta.items():
                for qi in range(width):
                    qc = q_of_basis[k][qi]
                    if not qc.is_zero():
                        key = (j, qi)
                        cur = rhs_cols.setdefault(key, {})
                        cur[a] = cur.get(a, field.zero) + c * qc
        rows.extend(r for r in rhs_cols.values())
        for qi in range(width):
            row = {}
            for a, img in enumerate(images):
                c = space.quotient_coords(img)[qi]
                if not c.is_zero():
                    row[a] = c
            if row:
                rows.append(row)
        rows = [
            {a: c for a, c in row.items() if not c.is_zero()}
            for row in rows
        ]
        rows = [r for r in rows if r]
        sols = _kernel_from_rows(rows, field, len(basis))
        vecs = []
        for sol in sols:
            v = zero_vector(field, hopf.dim)
            for a, c in enumerate(sol):
                if not c.is_zero():
                    v = vec_add(v, vec_scale(basis[a], c))
            vecs.append(v)
        refined = Subspace.from_vectors(field, hopf.dim, vecs)
        if refined == space:
            return space
        space = refined


def dual_subalgebra_generated(hopf: HopfAlgebra, vectors) -> Subspace:
    """Smallest subalgebra of H* containing the unit of H* and the given
    functionals (closure under the dual product)."""
    field = hopf.field
    space = Subspace.from_vectors(field, hopf.dim, [hopf.dual_unit()] + [list(v) for v in vectors])
    while True:
        prods = list(space.basis)
        basis = [list(b) for b in space.basis]
        for p in basis:
            for q in basis:
                prods.append(hopf.dual_multiply(p, q))
        grown = Subspace.from_vectors(field, hopf.dim, prods)
        if grown == space:
            return space
        space = grown


def commutator_subalgebra(hopf: HopfAlgebra) -> CoidealSubalgebra:
    """H' = invariants of the span of the grouplikes of H*; the smallest
    normal coideal subalgebra with commutative quotient."""
    dual_groups = hopf.dual().grouplikes()
    span = Subspace.from_vectors(hopf.field, hopf.dim, dual_groups)
    sub = invariants_of(hopf, span)
    ctx = coideal_from_subspace(hopf, sub)
    if not ctx.normal:
        raise HopfLabError("commutator subalgebra came out non-normal")
    hq = quotient(hopf, ctx)
    q = hq.quotient
    for i in range(q.dim):
        for j in range(q.dim):
            if q.mult[i][j] != q.mult[j][i]:
                raise HopfLabError("quotient by the commutator subalgebra is not commutative")
    return ctx
