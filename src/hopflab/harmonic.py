"""Harmonic analysis for left coideal subalgebras.

Functionals on N are coordinate vectors over the echelon basis of N.  The
embedding gamma: N* -> H* is defined by <gamma(p), h> = <p, lambda_B -> h>;
its dual is the projection h |-> lambda_B -> h onto N.  The Frobenius map

    F_N(n) = (1/<lambda_B, 1>) (n -> lambda)|_N

is a self-adjoint bijection N -> N* whose inverse induces the symmetric
form (p|p')_N = <p', F_N^{-1}(p)> making the irreducible N-characters
orthonormal, Hopf subalgebra or not.  Induction of characters is
implemented as integral coad gamma(phi) and validated against the
independent trace formula phi_j^up = (Lambda ad t_j) -> lambda.
"""

from __future__ import annotations

from .coideal import CoidealSubalgebra
from .errors import HopfLabError, MultiplicityError, NotNormalError
from .hopf import CharacterTable, HopfAlgebra, _character_table
from .linalg import (
    Subspace,
    basis_vector,
    vec_add,
    vec_eq,
    vec_scale,
    wedderburn,
    zero_vector,
)
from .linalg import _kernel_from_rows


def coideal_characters(ctx: CoidealSubalgebra) -> CharacterTable:
    """Irr(N) from the Wedderburn data of N's presentation, in N
    coordinates, with the integral's block first: T_0 = Lambda_N and
    phi_0 = counit restricted to N."""
    if "characters" in ctx._cache:
        return ctx._cache["characters"]
    alg = ctx.presentation()
    chars = _character_table(alg, wedderburn(alg), ctx.coords_of(ctx.integral))
    if not vec_eq(chars.characters[0], ctx.counit_on_basis()):
        raise HopfLabError("character of the integral block is not the restricted counit")
    ctx._cache["characters"] = chars
    return chars


def _gamma_columns(ctx):
    """For each ambient basis index i, the N-coordinates of
    lambda_B -> e_i; gamma(p)[i] pairs p against these."""
    if "gamma_cols" not in ctx._cache:
        H = ctx.hopf
        cols = []
        for i in range(H.dim):
            v = H.act_left(ctx.dual_integral, H.basis(i))
            cols.append(ctx.coords_of(v))
        ctx._cache["gamma_cols"] = cols
    return ctx._cache["gamma_cols"]


def embed_functional(ctx: CoidealSubalgebra, p):
    """gamma(p) in H*: <gamma(p), h> = <p, lambda_B -> h>."""
    H = ctx.hopf
    cols = _gamma_columns(ctx)
    out = []
    for i in range(H.dim):
        acc = H.field.zero
        for a, c in enumerate(cols[i]):
            pa = p[a]
            if not (c.is_zero() or pa.is_zero()):
                acc = acc + c * pa
        out.append(acc)
    return out


def project_to_coideal(ctx: CoidealSubalgebra, h):
    """gamma*(h) = lambda_B -> h, an element of N (ambient coordinates)."""
    return ctx.hopf.act_left(ctx.dual_integral, h)


def star_action(ctx: CoidealSubalgebra, x, p):
    """x * p on N*: <x * p, n> = <p, n <- x> for x in H*."""
    H = ctx.hopf
    out = []
    for b in ctx.space.basis:
        moved = H.act_right(list(b), x)
        coords = ctx.coords_of(moved)
        acc = H.field.zero
        for c, pa in zip(coords, p):
            if not (c.is_zero() or pa.is_zero()):
                acc = acc + c * pa
        out.append(acc)
    return out


def frobenius_matrices(ctx: CoidealSubalgebra):
    """(F, F_inverse) with rows = images of the N basis (resp. its dual
    basis); mutual inversion is checked exactly."""
    if "frobenius" in ctx._cache:
        return ctx._cache["frobenius"]
    H = ctx.hopf
    field = H.field
    lam = H.integrals().dual_integral
    scale = field.from_rational(ctx.invariants.dim).inverse()
    fwd = []
    for a in range(ctx.dim):
        na = list(ctx.space.basis[a])
        row = []
        for b in range(ctx.dim):
            nb = list(ctx.space.basis[b])
            row.append(H.pair(lam, H.multiply(nb, na)) * scale)
        fwd.append(row)
    inv = []
    lam_n = ctx.integral
    for a in range(ctx.dim):
        delta = [field.zero] * ctx.dim
        delta[a] = field.one
        g = embed_functional(ctx, delta)
        moved = H.antipode_of(H.act_left(g, lam_n))
        inv.append([c * scale for c in ctx.coords_of(moved)])
    # check mutual inversion: applying fwd then inv must give the identity
    for a in range(ctx.dim):
        image = zero_vector(field, ctx.dim)
        for b, c in enumerate(fwd[a]):
            if not c.is_zero():
                image = vec_add(image, vec_scale(inv[b], c))
        expected = [field.one if i == a else field.zero for i in range(ctx.dim)]
        if not vec_eq(image, expected):
            raise HopfLabError("Frobenius map and its inverse do not compose to the identity")
    ctx._cache["frobenius"] = (fwd, inv)
    return fwd, inv


def frobenius_apply(ctx, n_coords, inverse=False):
    fwd, inv = frobenius_matrices(ctx)
    mat = inv if inverse else fwd
    out = zero_vector(ctx.hopf.field, ctx.dim)
    for a, c in enumerate(n_coords):
        if not c.is_zero():
            out = vec_add(out, vec_scale(mat[a], c))
    return out


def character_form(ctx: CoidealSubalgebra, p, q):
    """(p|q)_N = <q, F_N^{-1}(p)>, symmetric and non-degenerate."""
    finv_p = frobenius_apply(ctx, p, inverse=True)
    acc = ctx.hopf.field.zero
    for qa, ca in zip(q, finv_p):
        if not (qa.is_zero() or ca.is_zero()):
            acc = acc + qa * ca
    return acc


def restrict_character(ctx: CoidealSubalgebra, chi, require_integral=True):
    """chi|_N with its expansion coefficients <chi, t_j> over Irr(N).

    The expansion must hold exactly; coefficients must be non-negative
    integers when require_integral is set.
    """
    H = ctx.hopf
    chars = coideal_characters(ctx)
    restriction = ctx.restrict_functional(chi)
    coeffs = []
    for t in chars.block_idempotents:
        coeffs.append(H.pair(chi, ctx.to_ambient(t)))
    recon = zero_vector(H.field, ctx.dim)
    for c, phi in zip(coeffs, chars.characters):
        if not c.is_zero():
            recon = vec_add(recon, vec_scale(phi, c))
    if not vec_eq(recon, restriction):
        raise MultiplicityError("restriction does not expand over Irr(N) with <chi, t_j> coefficients")
    if require_integral:
        for c in coeffs:
            if not c.is_integer() or c.integer_value() < 0:
                raise MultiplicityError(f"multiplicity {c} is not a non-negative integer")
        coeffs = [c.integer_value() for c in coeffs]
    return restriction, coeffs


def induce_character(ctx: CoidealSubalgebra, phi, check=True):
    """phi^up = Lambda coad gamma(phi); with check=True the independent
    trace-formula induction is computed as well and must agree exactly."""
    H = ctx.hopf
    lam_h = H.integrals().integral
    induced = H.coadjoint(lam_h, embed_functional(ctx, phi))
    if check:
        oracle = induce_character_by_trace(ctx, phi)
        if not vec_eq(induced, oracle):
            raise HopfLabError("induction formula and trace formula disagree")
    return induced


def induce_character_by_trace(ctx: CoidealSubalgebra, phi):
    """Independent induction: expand phi over Irr(N), then
    phi_j^up = (Lambda ad t_j) -> lambda."""
    H = ctx.hopf
    field = H.field
    chars = coideal_characters(ctx)
    alpha = _expand_over_characters(ctx, chars, phi)
    pair_data = H.integrals()
    out = zero_vector(field, H.dim)
    for a_j, t in zip(alpha, chars.block_idempotents):
        if a_j.is_zero():
            continue
        conj = H.adjoint(pair_data.integral, ctx.to_ambient(t))
        term = H.hit_left(conj, pair_data.dual_integral)
        out = vec_add(out, vec_scale(term, a_j))
    return out


def _expand_over_characters(ctx, chars: CharacterTable, phi):
    """Coefficients of phi in the Irr(N) basis; phi must lie in R(N)."""
    from .errors import InconsistentSystemError
    from .linalg import solve_linear

    rows = [[chars.characters[j][a] for j in range(len(chars))] for a in range(ctx.dim)]
    try:
        sol, ker = solve_linear(rows, list(phi), ctx.hopf.field)
    except InconsistentSystemError:
        raise HopfLabError("functional is not in the span of Irr(N)") from None
    if ker.dim:
        raise HopfLabError("irreducible characters of N are linearly dependent")
    return sol


def induced_degree_identity(ctx: CoidealSubalgebra, phi, induced):
    """<phi^up, 1> = dim B * <phi, 1>."""
    H = ctx.hopf
    lhs = H.pair(induced, H.unit)
    one_coords = ctx.coords_of(H.unit)
    rhs = H.field.zero
    for c, pa in zip(one_coords, phi):
        rhs = rhs + c * pa
    return lhs == rhs * H.field.from_rational(ctx.invariants.dim)


class ReciprocityTable:
    """Non-negative integer matrix M[i][j] = <chi_i, t_j>, equal to both
    Frobenius-reciprocity pairings."""

    def __init__(self, entries, h_degrees, n_degrees):
        self.entries = entries
        self.h_degrees = h_degrees
        self.n_degrees = n_degrees


def reciprocity_table(ctx: CoidealSubalgebra) -> ReciprocityTable:
    """Computes (chi_i|_N | phi_j)_N, (chi_i | phi_j^up)_H and <chi_i, t_j>
    independently; they must coincide and be non-negative integers."""
    H = ctx.hopf
    table = H.character_table()
    chars = coideal_characters(ctx)
    induced = [induce_character(ctx, phi, check=False) for phi in chars.characters]

    entries = []
    for i, chi in enumerate(table.characters):
        restriction = ctx.restrict_functional(chi)
        row = []
        for j in range(len(chars)):
            by_form = character_form(ctx, restriction, chars.characters[j])
            by_induction = H.bilinear_form(chi, induced[j])
            direct = H.pair(chi, ctx.to_ambient(chars.block_idempotents[j]))
            if by_form != by_induction or by_form != direct:
                raise HopfLabError(
                    f"reciprocity pairings disagree at (chi_{i}, phi_{j})"
                )
            if not direct.is_integer() or direct.integer_value() < 0:
                raise MultiplicityError(f"reciprocity entry {direct} is not a non-negative integer")
            row.append(direct.integer_value())
        entries.append(row)
    return ReciprocityTable(entries, list(table.degrees), list(chars.degrees))


def embedding_image(ctx: CoidealSubalgebra) -> Subspace:
    """Im(gamma) with its two other characterizations, all equal:
    H* lambda_B and {x : s(x) -> H <= N}."""
    H = ctx.hopf
    field = H.field
    by_gamma = Subspace.from_vectors(
        field, H.dim,
        [embed_functional(ctx, basis_vector(field, ctx.dim, a)) for a in range(ctx.dim)],
    )
    by_ideal = Subspace.from_vectors(
        field, H.dim,
        [H.dual_multiply(H.basis(i), ctx.dual_integral) for i in range(H.dim)],
    )
    by_condition = _antipode_hit_constraint(ctx)
    if not (by_gamma == by_ideal == by_condition):
        raise HopfLabError("the three descriptions of Im(gamma) differ")
    if by_gamma.dim != ctx.dim:
        raise HopfLabError("Im(gamma) does not have dim N")
    return by_gamma


def _antipode_hit_constraint(ctx) -> Subspace:
    """{x in H* : s(x) -> H <= N} as a kernel."""
    H = ctx.hopf
    field = H.field
    width = H.dim - ctx.dim
    rows = []
    for j in range(H.dim):
        # v_j(x)[m] = sum over Delta(e_j) of c * s(x)[k]; s(x)[k] = sum_l S[k][l] x_l
        # constraint: quotient coords of v_j against N vanish
        cols = []
        for l in range(H.dim):
            xl = basis_vector(field, H.dim, l)
            sx = H.dual_antipode_of(xl)
            cols.append(H.act_left(sx, H.basis(j)))
        if width == 0:
            continue
        qcols = [ctx.space.quotient_coords(col) for col in cols]
        for q in range(width):
            row = {}
            for l in range(H.dim):
                c = qcols[l][q]
                if not c.is_zero():
                    row[l] = c
            if row:
                rows.append(row)
    sols = _kernel_from_rows(rows, field, H.dim)
    return Subspace.from_vectors(field, H.dim, [list(s) for s in sols])


def induced_image(ctx: CoidealSubalgebra) -> Subspace:
    """R(N)^up inside R(H) for normal N, with its two other
    characterizations: R(H) lambda_B and R(H) cut by s(x) -> H <= N."""
    if not ctx.normal:
        raise NotNormalError("induced-image description requires a normal coideal subalgebra")
    H = ctx.hopf
    field = H.field
    chars = coideal_characters(ctx)
    by_induction = Subspace.from_vectors(
        field, H.dim, [induce_character(ctx, phi, check=False) for phi in chars.characters]
    )
    r_space = H.characters_subspace()
    by_ideal = Subspace.from_vectors(
        field, H.dim,
        [H.dual_multiply(list(chi), ctx.dual_integral) for chi in H.character_table().characters],
    )
    by_condition = r_space.intersect(_antipode_hit_constraint(ctx))
    if not (by_induction == by_ideal == by_condition):
        raise HopfLabError("the three descriptions of the induced image differ")
    return by_induction


def hopf_subalgebra_data(ctx: CoidealSubalgebra) -> HopfAlgebra:
    """N as a Hopf algebra in its own right (requires the flag).

    Tensor coordinates in N (x) N are read off the pivot pairs of the
    echelon basis and verified by exact reconstruction.
    """
    if not ctx.hopf_subalgebra:
        raise HopfLabError("coideal subalgebra is not a Hopf subalgebra")
    H = ctx.hopf
    field = H.field
    n = ctx.dim
    pres = ctx.presentation()
    pivots = ctx.space.pivots
    comult = []
    for a in range(n):
        legs = H.comult_of(list(ctx.space.basis[a]))
        cell = {}
        for x in range(n):
            for y in range(n):
                c = legs.get((pivots[x], pivots[y]))
                if c is not None and not c.is_zero():
                    cell[(x, y)] = c
        recon = {}
        for (x, y), c in cell.items():
            nx, ny = ctx.space.basis[x], ctx.space.basis[y]
            for j, cj in enumerate(nx):
                if cj.is_zero():
                    continue
                for k, ck in enumerate(ny):
                    if not ck.is_zero():
                        key = (j, k)
                        cur = recon.get(key, field.zero) + c * cj * ck
                        if cur.is_zero():
                            recon.pop(key, None)
                        else:
                            recon[key] = cur
        if recon != legs:
            raise HopfLabError("comultiplication does not restrict to N (x) N")
        comult.append(cell)
    counit = ctx.counit_on_basis()
    antipode = [ctx.coords_of(H.antipode_of(list(b))) for b in ctx.space.basis]
    sub = HopfAlgebra(field, n, pres.mult, pres.unit, comult, counit, antipode,
                      name="subalgebra")
    report = sub.verify()
    if not report.ok:
        from .errors import AxiomError
        raise AxiomError(report)
    return sub
