"""Left coideal subalgebras and their calculus.

A CoidealSubalgebra bundles a verified left coideal subalgebra N of H with
its idempotent integral, the invariant subalgebra B = (H*)^N, the dual
integral lambda_B = Lambda_N -> lambda (normalized so <lambda_B, 1> = dim B),
and the normality / Hopf-subalgebra flags, each computed by two independent
tests that must agree.  Lambda_N is the x with tr(L_{n x}) = eps(n) on N,
read from N's trace form.  coideal_from_subspace is the one place that
checks and presents N.  Neither coideal_closure nor hopf_center iterates
on its own: the closure is the subalgebra that a left coideal (the right
legs of the generators) generates, and HZ(H) the left kernel of the
adjoint module (Burciu), certified before it is returned.

N = H, where every chain of the paper ends, reads its context from H's
own certified data and builds none of it again:
  - the presentation is H itself, since the echelon basis of H is the
    identity;
  - Lambda_N is H's integral: integrals() certifies it as two-sided, so it
    solves N's trace form, whose solution is unique;
  - B = (H*)^H = k eps, since h -> p = eps(h) p for all h forces
    Delta(p) = p (x) eps;
  - N is normal: H is adjoint-stable, and Lambda is central by the same
    two-sided certificate (Larson-Radford);
  - of the two Hopf-subalgebra tests only the cocommutativity of
    Delta(Lambda) is not a tautology, and it still runs.

One kernel, _coproduct_kernel: {h : h1 (x) f(h2) = h (x) f(1)} for a
linear map f on H.  Its callers are _invariants, the invariants H^T of a
subalgebra T of H* (f the pairings with T; B = (H*)^N is the invariants
of N acting on H.dual() by the hit action, since <n, 1_{H*}> = eps(n)),
left_kernel (f the module matrices) and HopfQuotient.lift_coideal (f the
projection to H//N modulo the coideal subalgebra lifted).

H//N and Hopf subalgebras N take Delta, eps and S from one builder,
_hopf_on_rows, and one certificate, _check_hopf_map, proves each map: H//N
(on H*Lambda_N = H/HN+) is verified first, N is proven by its inclusion.
"""

from __future__ import annotations

from .errors import (
    HopfLabError,
    InconsistentSystemError,
    IntegralError,
    NotAnAlgebraError,
    NotARepresentationError,
    NotCoidealError,
    NotNormalError,
)
from .hopf import HopfAlgebra, _first_witness
from .linalg import (
    AlgebraPresentation,
    Subspace,
    mat_vec,
    solve_linear,
)
from .linalg import (
    _combination,
    _is_central,
    _is_two_sided_integral,
    _kernel_of_images,
    _products_with_basis,
    _subalgebra_generated,
    _subalgebra_presentation,
    _tensor_add,
    _to_dense,
    _to_sparse,
    _trace_form,
)


class CoidealSubalgebra:
    """A left coideal subalgebra N of a Hopf algebra, with derived data."""

    def __init__(self, hopf, space, presentation, integral, invariants,
                 dual_integral, normal, hopf_subalgebra):
        self.hopf = hopf
        self.space = space                  # Subspace of H
        self._presentation = presentation   # N on its echelon basis
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
        return mat_vec(self.space.basis, coords)

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
        return self._presentation

    def counit_on_basis(self):
        return [self.hopf.counit_of(list(b)) for b in self.space.basis]


def _checked_presentation(hopf: HopfAlgebra, space: Subspace) -> AlgebraPresentation:
    """N as an algebra on its echelon basis, after checking 1 in N,
    N*N <= N and Delta(N) <= H (x) N; NotCoidealError names the first
    failure."""
    if not space.contains_vector(hopf.unit):
        raise NotCoidealError("unit not contained")
    presentation = _subalgebra_presentation(hopf, space)
    if presentation is None:
        raise NotCoidealError("not closed under multiplication")
    if not _legs_inside(hopf, space, right=True):
        raise NotCoidealError("not a left coideal")
    return presentation


def _legs(hopf, v, right):
    """The right legs w_j of Delta(v) = sum_j e_j (x) w_j, or with right
    false the left legs w_k of Delta(v) = sum_k w_k (x) e_k, for a sparse v,
    as sparse dicts."""
    legs = {}
    for (j, k), c in _combination(hopf.comult, v).items():
        leg, i = (j, k) if right else (k, j)
        legs.setdefault(leg, {})[i] = c
    return list(legs.values())


def _legs_inside(hopf, space, right):
    """Every right (or left) leg of every basis vector of space lies in it:
    Delta(V) <= H (x) V (or V (x) H)."""
    return not any(space.residual(leg)
                   for b in space.sparse_basis for leg in _legs(hopf, b, right))


def coideal_closure(hopf: HopfAlgebra, generators) -> CoidealSubalgebra:
    """Smallest left coideal subalgebra containing the generators: the
    subalgebra generated by the right legs w_j of their coproducts
    Delta(g) = sum_j e_j (x) w_j.

    The legs span the smallest left coideal C holding the generators:
    g = sum_j eps(e_j) w_j, and by coassociativity sum_j Delta(e_j) (x) w_j
    = sum_j e_j (x) Delta(w_j), so every Delta(w_j) lies in H (x) C.  A
    product of left coideals is one, since Delta(ab) = a1 b1 (x) a2 b2, so
    the subalgebra C generates is a left coideal subalgebra; it is
    span(1, C) closed under left multiplication by the legs.
    """
    legs = [leg for g in generators for leg in _legs(hopf, _to_sparse(g), right=True)]
    return coideal_from_subspace(hopf, _subalgebra_generated(hopf, legs))


def coideal_from_subspace(hopf: HopfAlgebra, space: Subspace) -> CoidealSubalgebra:
    """Wrap an already-closed subspace as a verified CoidealSubalgebra.

    N = H reads its context from H (see the module docstring).
    """
    if space.dim == hopf.dim:
        presentation = hopf
        integral = hopf.integrals().integral
        invariants = Subspace.from_vectors(hopf.field, hopf.dim, [hopf.counit])
        normal = True
        hopf_pair = (_is_cocommutative(hopf, integral), True)
    else:
        presentation = _checked_presentation(hopf, space)
        integral = _coideal_integral(hopf, space, presentation)
        invariants = _invariants(hopf.dual(), space)
        normal = _agreed(_normality_pair(hopf, space, integral),
                         "normality tests disagree (adjoint-stability vs central integral)")
        hopf_pair = _hopf_subalgebra_pair(hopf, space, integral)
    hopf_flag = _agreed(hopf_pair, "Hopf-subalgebra tests disagree (cocommutative integral vs direct)")
    lam = hopf.integrals().dual_integral
    dual_integral = hopf.dual().act_left(integral, lam)
    return CoidealSubalgebra(hopf, space, presentation, integral, invariants,
                             dual_integral, normal, hopf_flag)


def _coideal_integral(hopf, space, presentation):
    """Idempotent two-sided integral of N, in ambient coordinates: the x
    with T_N x = eps|_N for the trace form T_N of N's presentation.

    N Lambda_N is the trivial block, of dimension 1, so tr(L_{n Lambda_N})
    = eps(n); the form is non-degenerate for semisimple N in characteristic
    0, so the solution is unique.  The two-sided certificate makes it the
    only left integral too: y = Lambda_N y = eps(y) Lambda_N.  It reads
    the rows of N's generating set once H is proven, as H's own
    certificate does (HopfAlgebra.integrals).
    """
    eps = [hopf.counit_of(b) for b in space.basis]
    form = [_to_dense(row, space.dim, hopf.field) for row in _trace_form(presentation)]
    try:
        coords, kernel = solve_linear(form, eps, hopf.field)
    except InconsistentSystemError:
        kernel = None
    if kernel is None or kernel.dim:
        raise IntegralError("trace form of the coideal subalgebra is degenerate; "
                            "input is not semisimple")
    xs = _combination(space.sparse_basis, _to_sparse(coords))
    if hopf.sparse_product(xs, xs) != xs:
        raise IntegralError("coideal integral is not idempotent")
    x = _to_dense(xs, hopf.dim, hopf.field)
    gens = presentation._test_indices()
    if not _is_two_sided_integral(hopf, x, [space.sparse_basis[s] for s in gens], [eps[s] for s in gens]):
        raise IntegralError("coideal integral is not two-sided")
    return x


def _agreed(tests, message):
    """The common verdict of two independent tests; HopfLabError(message)
    when they disagree."""
    first, second = tests
    if first != second:
        raise HopfLabError(message)
    return first


def _normality_pair(hopf, space, integral):
    """Two independent normality tests (they agree for valid inputs):
    stability under the adjoint action, each e_i ad b = sum_m b_m ad[i][m]
    read from the row ad[i] of H's ad table and reduced against the echelon
    rows, and centrality of the integral (`_is_central`).  Both read only
    the e_i of H's generating set once H is proven; for the first,
    (a a') ad b = a ad (a' ad b) and 1 ad b = b, so the a with a ad N <= N
    form a subalgebra.  Only the rows read are built, up to the first
    failure."""
    ad = hopf._ad_operators()
    by_adjoint = all(not space.residual(_combination(row, {m: c for m, c in b.items() if m in row}))
                     for row in (ad[i] for i in hopf._test_indices()) for b in space.sparse_basis)
    return by_adjoint, _is_central(hopf, _to_sparse(integral))


def _is_cocommutative(hopf, x):
    """Delta(x) = Delta^op(x)."""
    delta = hopf.comult_of(x)
    return delta == {(k, j): c for (j, k), c in delta.items()}


def _hopf_subalgebra_pair(hopf, space, integral):
    """Cocommutativity of the integral, and the direct test
    Delta(N) <= N (x) N plus S(N) <= N."""
    return _is_cocommutative(hopf, integral), _is_hopf_subspace(hopf, space)


def _is_hopf_subspace(hopf, space):
    """S(V) <= V and Delta(V) <= V (x) H, on the basis of a left coideal V,
    whose Delta(V) <= H (x) V then lies in V (x) V."""
    return (all(space.contains_vector(hopf.antipode_of(list(b))) for b in space.basis)
            and _legs_inside(hopf, space, right=False))


def invariants_of(hopf: HopfAlgebra, functionals: Subspace) -> Subspace:
    """H^T = {h : b -> h = <b, 1> h for all b in T} for a subalgebra T of H*.

    Raises NotAnAlgebraError when T misses the counit or is not closed under
    the dual product.
    """
    if not functionals.contains_vector(hopf.counit):
        raise NotAnAlgebraError("T does not contain the unit of H*")
    if _subalgebra_presentation(hopf.dual(), functionals) is None:
        raise NotAnAlgebraError("T is not closed under multiplication")
    return _invariants(hopf, functionals)


def _invariants(hopf, functionals):
    """H^T for the span T of functionals.basis: the coproduct kernel of
    f(h) = (<b, h>)_b over the rows b of T, since b -> h = h1 <b, h2>."""
    images = [{} for _ in range(hopf.dim)]
    for a, b in enumerate(functionals.sparse_basis):
        for k, c in b.items():
            images[k][a] = c
    return _coproduct_kernel(hopf, images)


def _coproduct_kernel(hopf, images):
    """{h : h1 (x) f(h2) = h (x) f(1)} for the linear map f on H with
    f(e_k) = images[k], a sparse dict: the kernel of e_i -> sum c e_j (x)
    f(e_k) - e_i (x) f(1) over Delta(e_i) = sum c e_j (x) e_k."""
    f_unit = _combination(images, _to_sparse(hopf.unit))
    kernel_images = []
    for i, delta in enumerate(hopf.comult):
        image = {}
        for (j, k), c in delta.items():
            for q, v in images[k].items():
                _tensor_add(image, (j, q), c * v)
        for q, v in f_unit.items():
            _tensor_add(image, (i, q), -v)
        kernel_images.append(image)
    return _kernel_of_images(hopf.field, kernel_images)


def double_invariants_roundtrip(ctx: CoidealSubalgebra) -> bool:
    """H^((H*)^N) == N, both sides computed independently."""
    back = invariants_of(ctx.hopf, ctx.invariants)
    return back == ctx.space


class HopfQuotient:
    """H//N for normal N, realized on the ideal H*Lambda_N.

    The projection pi is held as the sparse rows pi(e_i), dicts {quotient
    index: Scalar}; project(h) gives quotient coordinates of h.
    """

    def __init__(self, hopf, context, quotient, pi):
        self.hopf = hopf
        self.context = context
        self.quotient = quotient
        self._pi = pi               # projection of each ambient basis vector

    def project(self, h):
        return _to_dense(_combination(self._pi, _to_sparse(h)), self.quotient.dim, self.hopf.field)

    def lift_coideal(self, subspace: Subspace) -> Subspace:
        """The unique left coideal subalgebra L of H holding N with
        pi(L) = Lbar, for Lbar = subspace a left coideal subalgebra of H//N:
        L = {h : h1 (x) pi(h2) in H (x) Lbar}, the coproduct kernel of
        f = r pi, with r the residual modulo Lbar; f(1) = 0 as 1 lies in
        Lbar.  By coassociativity L is a left coideal;
        pi is an algebra map, so L is a subalgebra holding N; eps (x) id
        gives pi(L) <= Lbar.  Lbar's lift under Takeuchi's correspondence
        (one to one, as H is free over its coideal subalgebras: Skryabin)
        lies in L, so pi(L) = Lbar and L is that lift.
        """
        return _coproduct_kernel(self.hopf, [subspace.residual(pi_k) for pi_k in self._pi])

    def lift_chain(self, quotient_chain):
        """N followed by the lifts of the members of dim > 1 of a chain of
        coideal subalgebras of H//N, as verified contexts of H."""
        return [self.context] + [
            coideal_from_subspace(self.hopf, self.lift_coideal(ctx_bar.space))
            for ctx_bar in quotient_chain if ctx_bar.dim > 1
        ]


def quotient(hopf: HopfAlgebra, ctx: CoidealSubalgebra) -> HopfQuotient:
    """The Hopf quotient H//N on the echelon basis of H*Lambda_N, read
    through pi(h) = the coordinates of h Lambda_N (= h on H*Lambda_N)."""
    _require_own(hopf, ctx)
    if not ctx.normal:
        raise NotNormalError("quotient requires a normal coideal subalgebra")
    images = _products_with_basis(hopf, ctx.integral)[0]  # e_i Lambda
    ideal = Subspace.from_vectors(hopf.field, hopf.dim, images)
    pi = [ideal.sparse_coords(v) for v in images]
    rows = ideal.sparse_basis
    products = ([_combination(pi, hopf.sparse_product(a, b)) for b in rows] for a in rows)
    mult = [{j: cell for j, cell in enumerate(cells) if cell} for cells in products]
    unit = _to_dense(_combination(pi, _to_sparse(hopf.unit)), len(rows), hopf.field)
    q = _hopf_on_rows(hopf, rows, pi, mult, unit, f"{hopf.name}//N" if hopf.name else "quotient")
    q.require_axioms()
    if q.dim * ctx.dim != hopf.dim:
        raise HopfLabError("quotient dimension does not divide as expected")
    _check_hopf_map(hopf, q, pi, "projection")
    return HopfQuotient(hopf, ctx, q, pi)


def hopf_subalgebra_data(ctx: CoidealSubalgebra) -> HopfAlgebra:
    """N as a Hopf algebra on its echelon basis (requires the flag): N's
    presentation, with Delta, eps and S read at the pivots (pi(e_p) = e_r at
    the pivot p of row r), proven by the inclusion N -> H, its echelon rows."""
    if not ctx.hopf_subalgebra:
        raise HopfLabError("coideal subalgebra is not a Hopf subalgebra")
    hopf, presentation = ctx.hopf, ctx.presentation()
    pi = [{} for _ in range(hopf.dim)]
    for r, p in enumerate(ctx.space.pivots):
        pi[p] = {r: hopf.field.one}
    sub = _hopf_on_rows(hopf, ctx.space.sparse_basis, pi, presentation.mult, presentation.unit, "subalgebra")
    _check_hopf_map(sub, hopf, ctx.space.sparse_basis, "inclusion")
    # an injective map that sends 1 to 1, is an algebra and coalgebra map on
    # every basis element and intertwines eps and S carries every Hopf axiom
    # of H, S^2 = id included, over to N: N is proven once H is
    if hopf._cache.get("proven"):
        sub._cache["proven"] = True
    return sub


def _require_own(hopf, *contexts):
    """NotCoidealError unless every context is one of hopf itself."""
    if any(ctx.hopf is not hopf for ctx in contexts):
        raise NotCoidealError("coideal subalgebra belongs to a different Hopf algebra")


def _hopf_on_rows(hopf, rows, pi, mult, unit, name):
    """The algebra (mult, unit) on the sparse rows v_r, given by the caller,
    with H's Delta, eps and S read through the linear map pi (sparse rows
    pi(e_i)) that gives span(v_r) its coordinates.  It proves nothing: what
    leaves span(v_r) is misread, and the caller's proof fails."""
    field = hopf.field
    comult = [_push_forward(_combination(hopf.comult, v), pi) for v in rows]
    counit = [sum((hopf.counit[k] * c for k, c in v.items()), field.zero) for v in rows]
    antipode = [_combination(pi, _combination(hopf.antipode, v)) for v in rows]
    return HopfAlgebra(field, len(rows), mult, unit, comult, counit, antipode, name=name)


def _push_forward(tensor, pi):
    """(pi x pi) of a sparse 2-tensor {(j, k): c}, where pi[j] is the image
    of e_j as a sparse dict."""
    out = {}
    for (j, k), c in tensor.items():
        for x, cx in pi[j].items():
            for y, cy in pi[k].items():
                _tensor_add(out, (x, y), c * cx * cy)
    return out


def _check_hopf_map(source, target, f, what):
    """f: source -> target, the sparse rows f(e_i), intertwines the
    coproduct, counit and antipode and is an algebra map; HopfLabError names
    the first failure, calling the map `what`.  f(e_i e_j) = f(e_i) f(e_j)
    is read for i in the source's _test_indices(): S once the source is
    proven (the a with f(a b) = f(a) f(b) for all b form a subalgebra once
    both algebras are, holding 1 as f(1) is the target's unit), every index
    otherwise, as for the inclusion N -> H before N is proven."""
    for i, f_i in enumerate(f):
        if _combination(target.comult, f_i) != _push_forward(source.comult[i], f):
            raise HopfLabError(f"{what} does not intertwine comultiplication")
        if sum((target.counit[k] * c for k, c in f_i.items()), source.field.zero) != source.counit[i]:
            raise HopfLabError(f"{what} does not preserve the counit")
        if _combination(target.antipode, f_i) != _combination(f, source.antipode[i]):
            raise HopfLabError(f"{what} does not intertwine the antipode")
    for i in source._test_indices():
        for j, f_j in enumerate(f):
            if _combination(f, source.mult[i].get(j, {})) != target.sparse_product(f[i], f_j):
                raise HopfLabError(f"{what} is not an algebra map")


def left_kernel(hopf: HopfAlgebra, module_matrices) -> Subspace:
    """LKer of a module given by matrices M_k per basis index (rows =
    images of the module basis): all h with sum h1 (x) h2 v = h (x) v, the
    coproduct kernel of f(e_k) = M_k."""
    dim = hopf.dim
    if not module_matrices or len(module_matrices) != dim:
        raise NotARepresentationError("need one matrix per basis element")
    d = len(module_matrices[0])
    rows = [[_to_sparse(row) for row in matrix] for matrix in module_matrices]

    # representation check: e_i (e_j v) = (e_i e_j) v, unit acts as identity
    unit = _to_sparse(hopf.unit)
    for r in range(d):
        if _combination({k: rows[k][r] for k in unit}, unit) != {r: hopf.field.one}:
            raise NotARepresentationError("unit does not act as the identity")

    def violation(indices):
        """The first (i, j) with e_i (e_j v_r) != (e_i e_j) v_r for some r."""
        for i in indices:
            for j in range(dim):
                cell = hopf.mult[i].get(j, {})
                for r in range(d):
                    expected = _combination({k: rows[k][r] for k in cell}, cell)
                    if _combination(rows[i], rows[j][r]) != expected:
                        return i, j
        return None

    # the i that pass form a subalgebra once the unit acts as the identity
    # (rho(a a') rho(b) = rho(a) rho(a' b) = rho(a a' b)), so a proven H
    # reads i in its generating set, and a failure is named in full loop order
    witness = _first_witness(violation, hopf._test_indices(), dim)
    if witness is not None:
        raise NotARepresentationError("matrices violate structure constants at ({}, {})".format(*witness))
    return _coproduct_kernel(hopf, [{(r_in, r_out): m for r_in, row in enumerate(matrix)
                                     for r_out, m in row.items()}
                                    for matrix in rows])


def hopf_center(hopf: HopfAlgebra) -> Subspace:
    """Largest Hopf subalgebra HZ(H) contained in the center of H, read as
    the left kernel K = {h : h1 chi(h2) = chi(1) h} of the adjoint module,
    chi(e_i) = tr(e_i ad -) = sum_m (e_i ad e_m)_m, and certified.  chi
    reads only the diagonal of each row (`HopfAlgebra._ad_row`), so no
    row of the ad table is built or kept.

    HZ(H) <= K, since z1 (x) z2 ad a = z1 (x) a z2 S(z3) = z (x) a when
    Delta(z) lies in a central Hopf subalgebra; and K is a left coideal,
    since Delta(chi -> h) = h1 (x) chi -> h2.  The code checks that K is
    central, S-stable and holds its left legs, so Delta(K) <= K (x) K and K
    generates a central Hopf subalgebra: K <= HZ(H) by maximality.  A
    failed check raises HopfLabError.
    """
    zero = hopf.field.zero
    chi = [sum((op.get(m, zero) for m, op in hopf._ad_row(i, diagonal=True).items()), zero)
           for i in range(hopf.dim)]
    space = _invariants(hopf, Subspace.from_vectors(hopf.field, hopf.dim, [chi]))
    central = all(_is_central(hopf, b) for b in space.sparse_basis)
    if not (central and _is_hopf_subspace(hopf, space)):
        raise HopfLabError("the left kernel of the adjoint module is not a central Hopf subalgebra")
    return space


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
            if q.mult[i].get(j) != q.mult[j].get(i):
                raise HopfLabError("quotient by the commutator subalgebra is not commutative")
    return ctx
