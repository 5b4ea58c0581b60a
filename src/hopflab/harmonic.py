"""Harmonic analysis for left coideal subalgebras.

Functionals on N are coordinate vectors over the echelon basis of N.  The
embedding gamma: N* -> H* is defined by <gamma(p), h> = <p, lambda_B -> h>;
its dual is the projection h |-> lambda_B -> h onto N.  The Frobenius map

    F_N(n) = (1/<lambda_B, 1>) (n -> lambda)|_N

is a self-adjoint bijection N -> N* whose inverse induces the symmetric
form (p|p')_N = <p', F_N^{-1}(p)> making the irreducible N-characters
orthonormal, Hopf subalgebra or not.  Induction of characters is
implemented as integral coad gamma(phi) and validated against the
independent trace formula phi_j^up = (Lambda ad t_j) -> lambda, which is
computed from E_j as below.

Restriction and induction read E_j / d_j where the paper reads a primitive
idempotent t_j of N's block j, E_j being the block's central idempotent and
d_j its degree:

    <chi, t_j> = <chi, E_j> / d_j        Lambda ad t_j = (Lambda ad E_j) / d_j

E_j is a sum of d_j primitive idempotents, each conjugate to t_j in N, and
both maps are trace functions on N.  <chi, -> is one because chi|_N is the
character of an N-module.  Lambda ad - is one because the two-sided
integral satisfies Lambda_1 h (x) Lambda_2 = Lambda_1 (x) Lambda_2 S(h), so
Lambda ad (xy) = Lambda ad (y S^2(x)), and S^2 = id for semisimple H in
characteristic 0 (Larson-Radford, 1988).  No primitive idempotent is found,
so restriction, induction and reciprocity need only the center of N to
split.

Any functional phi on N in the span of Irr(N) has coefficients
<phi, E_j> / d_j there, since phi_i(E_j) = d_j delta_ij; restriction,
reciprocity and the trace-formula induction read them so, solving nothing.
A Hopf subalgebra N as a Hopf algebra is coideal.hopf_subalgebra_data, from
the one builder and certificate that also give H//N.
"""

from __future__ import annotations

from .coideal import CoidealSubalgebra
from .errors import HopfLabError, MultiplicityError, NotNormalError
from .hopf import CharacterTable, _character_table
from .linalg import (
    Subspace,
    basis_vector,
    mat_vec,
    vec_eq,
)
from .linalg import _cached, _kernel_of_images, _left_ideal, _to_dense, _to_sparse


def coideal_characters(ctx: CoidealSubalgebra) -> CharacterTable:
    """Irr(N) from the central primitive idempotents and the regular trace
    of N's presentation, in N coordinates, with the integral's block first:
    T_0 = Lambda_N and phi_0 = counit restricted to N.  For N = H, whose
    echelon basis is the identity, that is H's own character table."""
    return _cached(ctx, "characters", lambda: _checked_coideal_characters(ctx))


def _checked_coideal_characters(ctx):
    if ctx.dim == ctx.hopf.dim:
        return ctx.hopf.character_table()
    chars = _character_table(ctx.presentation(), ctx.coords_of(ctx.integral))
    if not vec_eq(chars.characters[0], ctx.counit_on_basis()):
        raise HopfLabError("character of the integral block is not the restricted counit")
    return chars


def _gamma_columns(ctx):
    """For each ambient basis index i, the N-coordinates of
    lambda_B -> e_i; gamma(p)[i] pairs p against these."""
    H = ctx.hopf
    return _cached(ctx, "gamma_cols", lambda: [
        ctx.coords_of(project_to_coideal(ctx, H.basis(i))) for i in range(H.dim)])


def embed_functional(ctx: CoidealSubalgebra, p):
    """gamma(p) in H*: <gamma(p), h> = <p, lambda_B -> h>."""
    H = ctx.hopf
    return [H.pair(p, col) for col in _gamma_columns(ctx)]


def project_to_coideal(ctx: CoidealSubalgebra, h):
    """gamma*(h) = lambda_B -> h, an element of N (ambient coordinates)."""
    return ctx.hopf.act_left(ctx.dual_integral, h)


def star_action(ctx: CoidealSubalgebra, x, p):
    """x * p on N*: <x * p, n> = <p, n <- x> for x in H*."""
    H = ctx.hopf
    out = []
    for b in ctx.space.basis:
        moved = H.act_right(list(b), x)
        out.append(H.pair(p, ctx.coords_of(moved)))
    return out


def frobenius_matrices(ctx: CoidealSubalgebra):
    """(F, F_inverse) with rows = images of the N basis (resp. its dual
    basis); mutual inversion is checked exactly."""
    return _cached(ctx, "frobenius", lambda: _checked_frobenius_matrices(ctx))


def _checked_frobenius_matrices(ctx):
    H = ctx.hopf
    field = H.field
    lam = ctx.restrict_functional(H.integrals().dual_integral)
    scale = field.from_rational(ctx.invariants.dim).inverse()
    mult = ctx.presentation().mult
    # <lambda, n_b n_a> = sum_k c_ba^k <lambda, n_k>, c the constants of N
    fwd = [[sum((c * lam[k] for k, c in mult[b].get(a, {}).items()), field.zero) * scale
            for b in range(ctx.dim)] for a in range(ctx.dim)]
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
        if not vec_eq(mat_vec(inv, fwd[a]), basis_vector(field, ctx.dim, a)):
            raise HopfLabError("Frobenius map and its inverse do not compose to the identity")
    return fwd, inv


def frobenius_apply(ctx, n_coords, inverse=False):
    fwd, inv = frobenius_matrices(ctx)
    return mat_vec(inv if inverse else fwd, n_coords)


def character_form(ctx: CoidealSubalgebra, p, q):
    """(p|q)_N = <q, F_N^{-1}(p)>, symmetric and non-degenerate."""
    return ctx.hopf.pair(q, frobenius_apply(ctx, p, inverse=True))


def _irr_coefficients(ctx: CoidealSubalgebra, chars: CharacterTable, phi):
    """[<phi, E_j> / d_j] for a functional phi on N: its coefficients over
    Irr(N) when it lies in their span, since phi_i(E_j) = d_j delta_ij.
    For phi = chi|_N they are <chi, t_j> (module docstring)."""
    return [ctx.hopf.pair(phi, e) / d for e, d in zip(chars.idempotents, chars.degrees)]


def restrict_character(ctx: CoidealSubalgebra, chi):
    """chi|_N with its expansion coefficients <chi, t_j> over Irr(N), read
    as <chi, E_j> / d_j.

    The expansion must hold exactly and the coefficients must be
    non-negative integers.
    """
    chars = coideal_characters(ctx)
    restriction = ctx.restrict_functional(chi)
    coeffs = _irr_coefficients(ctx, chars, restriction)
    if not vec_eq(mat_vec(chars.characters, coeffs), restriction):
        raise MultiplicityError("restriction does not expand over Irr(N) with <chi, t_j> coefficients")
    for c in coeffs:
        if not c.is_integer() or c.integer_value() < 0:
            raise MultiplicityError(f"multiplicity {c} is not a non-negative integer")
    return restriction, [c.integer_value() for c in coeffs]


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
    """Independent induction: expand phi = sum_j alpha_j phi_j over Irr(N)
    with alpha_j = <phi, E_j> / d_j, checked exactly; then
    sum_j alpha_j phi_j^up = (Lambda ad z) -> lambda with
    z = sum_j (alpha_j / d_j) E_j, since Lambda ad t_j = (Lambda ad E_j) / d_j
    (module docstring)."""
    H = ctx.hopf
    chars = coideal_characters(ctx)
    alpha = _irr_coefficients(ctx, chars, phi)
    if not vec_eq(mat_vec(chars.characters, alpha), phi):
        raise HopfLabError("functional is not in the span of Irr(N)")
    z = mat_vec(chars.idempotents, [a_j / d for a_j, d in zip(alpha, chars.degrees)])
    pair_data = H.integrals()
    conj = H.adjoint(pair_data.integral, ctx.to_ambient(z))
    return H.dual().act_left(conj, pair_data.dual_integral)


def induced_degree_identity(ctx: CoidealSubalgebra, phi, induced):
    """<phi^up, 1> = dim B * <phi, 1>."""
    H = ctx.hopf
    lhs = H.pair(induced, H.unit)
    rhs = H.pair(phi, ctx.coords_of(H.unit))
    return lhs == rhs * H.field.from_rational(ctx.invariants.dim)


class ReciprocityTable:
    """Non-negative integer matrix M[i][j] = <chi_i, t_j> = <chi_i, E_j> / d_j,
    equal to both Frobenius-reciprocity pairings."""

    def __init__(self, entries, h_degrees, n_degrees):
        self.entries = entries
        self.h_degrees = h_degrees
        self.n_degrees = n_degrees


def reciprocity_table(ctx: CoidealSubalgebra) -> ReciprocityTable:
    """Computes (chi_i|_N | phi_j)_N, (chi_i | phi_j^up)_H and
    <chi_i, t_j> = <chi_i, E_j> / d_j independently; they must coincide and
    be non-negative integers."""
    H = ctx.hopf
    table = H.character_table()
    chars = coideal_characters(ctx)
    induced = [induce_character(ctx, phi, check=False) for phi in chars.characters]

    entries = []
    for i, chi in enumerate(table.characters):
        restriction = ctx.restrict_functional(chi)
        image = H._gram_image(chi)  # (chi | q) = <q, image>
        row = []
        for j, direct in enumerate(_irr_coefficients(ctx, chars, restriction)):
            by_form = character_form(ctx, restriction, chars.characters[j])
            by_induction = H.pair(induced[j], image)
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
    by_ideal = _left_ideal(H.dual(), ctx.dual_integral)
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
    # e_l* |-> the residuals modulo N of s(e_l*) -> e_j, keyed by (j, column)
    images = []
    for row in H.dual().antipode:
        sx = _to_dense(row, H.dim, field)
        images.append({
            (j, q): c
            for j in range(H.dim)
            for q, c in ctx.space.residual(_to_sparse(H.act_left(sx, H.basis(j)))).items()
        })
    return _kernel_of_images(field, images)


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
        [H.dual().multiply(list(chi), ctx.dual_integral) for chi in H.character_table().characters],
    )
    by_condition = r_space.intersect(_antipode_hit_constraint(ctx))
    if not (by_induction == by_ideal == by_condition):
        raise HopfLabError("the three descriptions of the induced image differ")
    return by_induction
