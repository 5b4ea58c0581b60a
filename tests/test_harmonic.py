import random

import pytest

from hopflab.builders import group_algebra, symmetric3_table
from hopflab.coideal import coideal_closure, coideal_from_subspace, invariants_of
from hopflab.harmonic import (
    character_form,
    coideal_characters,
    embed_functional,
    embedding_image,
    frobenius_apply,
    hopf_subalgebra_data,
    induce_character,
    induce_character_by_trace,
    induced_degree_identity,
    induced_image,
    project_to_coideal,
    reciprocity_table,
    restrict_character,
    star_action,
)
from hopflab.linalg import Subspace, basis_vector, vec_add, vec_eq, vec_scale, zero_vector
from hopflab.scalars import QQ


@pytest.fixture(scope="module")
def s3():
    table, labels = symmetric3_table()
    return group_algebra(table, conductor=3, labels=labels, name="kS3")


@pytest.fixture(scope="module")
def a3(s3):
    return coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])


@pytest.fixture(scope="module")
def trivial(s3):
    return coideal_closure(s3, [])


@pytest.fixture(scope="module")
def whole(s3):
    return coideal_closure(s3, [s3.basis(i) for i in range(6)])


@pytest.fixture(scope="module")
def skryabin(s3):
    dual = s3.dual()
    b_n = Subspace.from_vectors(
        s3.field, 6, [s3.basis(s3.index_of_label("e")), s3.basis(s3.index_of_label("(12)"))]
    )
    return coideal_from_subspace(dual, invariants_of(dual, b_n))


def _omega_index(chars, ctx, s3):
    """Index of the character sending (123) |-> zeta_3."""
    zeta = s3.field.zeta
    g = ctx.coords_of(s3.basis(s3.index_of_label("(123)")))
    for j, phi in enumerate(chars.characters):
        val = s3.field.zero
        for c, p in zip(g, phi):
            val = val + c * p
        if val == zeta:
            return j
    raise AssertionError("no character with value zeta_3 at (123)")


def test_trivial_coideal_characters(trivial):
    chars = coideal_characters(trivial)
    assert len(chars) == 1
    assert chars.degrees == [1]
    assert vec_eq(chars.characters[0], trivial.counit_on_basis())
    # F(1) is the restricted counit
    from hopflab.harmonic import frobenius_apply

    assert vec_eq(frobenius_apply(trivial, trivial.coords_of(trivial.hopf.unit)),
                  trivial.counit_on_basis())


def test_a3_characters(s3, a3):
    chars = coideal_characters(a3)
    assert chars.degrees == [1, 1, 1]
    assert vec_eq(chars.idempotents[0], a3.coords_of(a3.integral))
    assert vec_eq(chars.characters[0], a3.counit_on_basis())
    # values at (123) are the three cube roots of unity
    g = a3.coords_of(s3.basis(s3.index_of_label("(123)")))
    vals = set()
    for phi in chars.characters:
        acc = s3.field.zero
        for c, p in zip(g, phi):
            acc = acc + c * p
        vals.add(acc)
    assert vals == {s3.field.one, s3.field.zeta, s3.field.zeta ** 2}


def test_character_block_pairing(s3, a3):
    # <phi_j, n T_i> = delta_ij <phi_j, n>
    chars = coideal_characters(a3)
    alg = a3.presentation()
    for i, T in enumerate(chars.idempotents):
        for j, phi in enumerate(chars.characters):
            for m in range(a3.dim):
                n_t = alg.multiply(basis_vector(s3.field, a3.dim, m), T)
                lhs = s3.field.zero
                for c, p in zip(n_t, phi):
                    lhs = lhs + c * p
                rhs = phi[m] if i == j else s3.field.zero
                assert lhs == rhs


def test_skryabin_characters(skryabin):
    chars = coideal_characters(skryabin)
    assert sum(d * d for d in chars.degrees) == 3
    assert chars.degrees == [1, 1, 1]


def test_gamma_of_restricted_counit_is_dual_integral(s3, a3, skryabin):
    for ctx in (a3, skryabin):
        eps_n = ctx.counit_on_basis()
        assert vec_eq(embed_functional(ctx, eps_n), ctx.dual_integral)


def test_gamma_module_identity(s3, a3):
    # x * lambda_B = gamma(x|_N) for random x
    rng = random.Random(3)
    for _ in range(6):
        x = [s3.field.from_rational(QQ(rng.randint(-4, 4))) for _ in range(6)]
        lhs = s3.dual_multiply(x, a3.dual_integral)
        rhs = embed_functional(a3, a3.restrict_functional(x))
        assert vec_eq(lhs, rhs)


def test_gamma_restriction_scaling(s3, a3):
    # gamma(p)|_N = <lambda_B, 1> p = (dim B) p
    rng = random.Random(5)
    scale = s3.field.from_rational(a3.invariants.dim)
    for _ in range(6):
        p = [s3.field.from_rational(QQ(rng.randint(-4, 4))) for _ in range(a3.dim)]
        emb = embed_functional(a3, p)
        restricted = a3.restrict_functional(emb)
        assert vec_eq(restricted, vec_scale(p, scale))


def test_gamma_zero_extension_for_group_case(s3, a3):
    # for subgroup algebras, gamma(chi) is the zero-extension scaled by the
    # index of the subgroup
    chars = coideal_characters(a3)
    j = _omega_index(chars, a3, s3)
    emb = embed_functional(a3, chars.characters[j])
    index = s3.field.from_rational(2)
    for i in range(6):
        g = s3.basis(i)
        if a3.space.contains_vector(g):
            coords = a3.coords_of(g)
            val = s3.field.zero
            for c, p in zip(coords, chars.characters[j]):
                val = val + c * p
            assert emb[i] == index * val
        else:
            assert emb[i].is_zero()


def test_gamma_hit_identity(s3, a3):
    # gamma(p) -> n = <lambda_B, 1> sum <p, n_2> n_1
    rng = random.Random(9)
    scale = s3.field.from_rational(a3.invariants.dim)
    for _ in range(4):
        p = [s3.field.from_rational(QQ(rng.randint(-3, 3))) for _ in range(a3.dim)]
        emb = embed_functional(a3, p)
        for b in a3.space.basis:
            n = list(b)
            lhs = s3.act_left(emb, n)
            rhs = zero_vector(s3.field, 6)
            for (j, k), c in s3.comult_of(n).items():
                ek_coords = a3.coords_of(s3.basis(k)) if a3.space.contains_vector(s3.basis(k)) else None
                # n_2 lies in N since N is a left coideal; pair with p there
                val = s3.field.zero
                for cc, pp in zip(a3.coords_of(s3.basis(k)), p):
                    val = val + cc * pp
                rhs[j] = rhs[j] + c * val
            assert vec_eq(lhs, vec_scale(rhs, scale))


def test_gamma_star(s3, a3):
    dim_b = s3.field.from_rational(a3.invariants.dim)
    assert vec_eq(project_to_coideal(a3, s3.unit), vec_scale(s3.unit, dim_b))
    lam = s3.integrals().integral
    assert vec_eq(project_to_coideal(a3, lam), a3.integral)
    span = Subspace.from_vectors(
        s3.field, 6, [project_to_coideal(a3, s3.basis(i)) for i in range(6)]
    )
    assert span == a3.space


def test_gamma_injective(s3, a3, trivial, whole, skryabin):
    for ctx in (a3, trivial, whole, skryabin):
        H = ctx.hopf
        image = Subspace.from_vectors(
            H.field, H.dim,
            [embed_functional(ctx, basis_vector(H.field, ctx.dim, a)) for a in range(ctx.dim)],
        )
        assert image.dim == ctx.dim


def test_star_action(s3, a3):
    rng = random.Random(17)
    eps_n = a3.counit_on_basis()
    for _ in range(5):
        x = [s3.field.from_rational(QQ(rng.randint(-3, 3))) for _ in range(6)]
        y = [s3.field.from_rational(QQ(rng.randint(-3, 3))) for _ in range(6)]
        p = [s3.field.from_rational(QQ(rng.randint(-3, 3))) for _ in range(a3.dim)]
        # unit of H* acts trivially
        assert vec_eq(star_action(a3, s3.dual_unit(), p), p)
        # x * eps|_N = x|_N
        assert vec_eq(star_action(a3, x, eps_n), a3.restrict_functional(x))
        # module axiom (xy) * p = x * (y * p)
        xy = s3.dual_multiply(x, y)
        assert vec_eq(star_action(a3, xy, p), star_action(a3, x, star_action(a3, y, p)))
        # gamma is an H*-module map: gamma(x * p) = x gamma(p)
        lhs = embed_functional(a3, star_action(a3, x, p))
        rhs = s3.dual_multiply(x, embed_functional(a3, p))
        assert vec_eq(lhs, rhs)


def test_gamma_is_n_module_map(s3, a3):
    # gamma(n -> p) = n -> gamma(p)
    rng = random.Random(19)
    for _ in range(4):
        p = [s3.field.from_rational(QQ(rng.randint(-3, 3))) for _ in range(a3.dim)]
        for b in a3.space.basis:
            n = list(b)
            # n -> p on N*: <n -> p, n'> = <p, n' n>
            moved = []
            for bp in a3.space.basis:
                prod = s3.multiply(list(bp), n)
                val = s3.field.zero
                for c, pp in zip(a3.coords_of(prod), p):
                    val = val + c * pp
                moved.append(val)
            assert vec_eq(embed_functional(a3, moved), s3.hit_left(n, embed_functional(a3, p)))


def test_frobenius(s3, a3, skryabin):
    for ctx in (a3, skryabin):
        H = ctx.hopf
        chars = coideal_characters(ctx)
        # F(T_k) = <phi_k, 1> phi_k
        for T, phi, d in zip(chars.idempotents, chars.characters, chars.degrees):
            image = frobenius_apply(ctx, T)
            assert vec_eq(image, vec_scale(phi, H.field.from_rational(d)))
        # F(Lambda_N) = eps|_N
        assert vec_eq(frobenius_apply(ctx, ctx.coords_of(ctx.integral)), ctx.counit_on_basis())


def test_frobenius_self_adjoint(s3, a3):
    from hopflab.harmonic import frobenius_matrices

    fwd, _ = frobenius_matrices(a3)
    for a in range(a3.dim):
        for b in range(a3.dim):
            assert fwd[a][b] == fwd[b][a]


def test_orthogonality(s3, a3, trivial, whole, skryabin):
    for ctx in (a3, trivial, whole, skryabin):
        chars = coideal_characters(ctx)
        for i, p in enumerate(chars.characters):
            for j, q in enumerate(chars.characters):
                val = character_form(ctx, p, q)
                assert val == (1 if i == j else 0)


def test_form_matches_hopf_subalgebra_form(s3, a3):
    # for a Hopf subalgebra the form is <q s(p), Lambda_N> inside N
    sub = hopf_subalgebra_data(a3)
    assert sub.verify().ok
    chars = coideal_characters(a3)
    lam_n = a3.coords_of(a3.integral)
    for p in chars.characters:
        for q in chars.characters:
            direct = character_form(a3, p, q)
            via_sub = sub.pair(sub.dual_multiply(list(q), sub.dual_antipode_of(list(p))), lam_n)
            assert direct == via_sub


def test_restrict(s3, a3):
    table = s3.character_table()
    chars = coideal_characters(a3)
    # eps restricts to phi_0
    restriction, coeffs = restrict_character(a3, s3.counit)
    assert coeffs == [1, 0, 0]
    # the 2-dim character restricts to phi_omega + phi_omega2
    idx2 = table.degrees.index(2)
    restriction, coeffs = restrict_character(a3, table.characters[idx2])
    assert coeffs[0] == 0 and sorted(coeffs[1:]) == [1, 1]
    # lambda|_N = dim B * sum deg_j phi_j
    lam = s3.integrals().dual_integral
    restriction = a3.restrict_functional(lam)
    expected = zero_vector(s3.field, a3.dim)
    for phi, d in zip(chars.characters, chars.degrees):
        expected = vec_add(expected, vec_scale(phi, s3.field.from_rational(d)))
    expected = vec_scale(expected, s3.field.from_rational(a3.invariants.dim))
    assert vec_eq(restriction, expected)


def test_induction_matches_classical_branching(s3, a3):
    table = s3.character_table()
    chars = coideal_characters(a3)
    j = _omega_index(chars, a3, s3)
    induced = induce_character(a3, chars.characters[j])
    idx2 = table.degrees.index(2)
    assert vec_eq(induced, table.characters[idx2])
    assert induced_degree_identity(a3, chars.characters[j], induced)


def test_induction_of_restricted_counit(s3, a3, skryabin):
    for ctx in (a3, skryabin):
        H = ctx.hopf
        eps_n = ctx.counit_on_basis()
        induced = induce_character(ctx, eps_n)
        lam = H.integrals().integral
        assert vec_eq(induced, H.coadjoint(lam, ctx.dual_integral))
        assert induced_degree_identity(ctx, eps_n, induced)


def test_induction_for_normal_is_multiplication_by_dual_integral(s3, a3):
    # (Psi|_N)^up = Psi lambda_B for normal N
    table = s3.character_table()
    for chi in table.characters:
        restriction = a3.restrict_functional(chi)
        induced = induce_character(a3, restriction)
        assert vec_eq(induced, s3.dual_multiply(list(chi), a3.dual_integral))


def test_induction_trace_oracle_agreement(s3, a3, trivial, whole, skryabin):
    for ctx in (a3, trivial, whole, skryabin):
        chars = coideal_characters(ctx)
        for phi in chars.characters:
            a = induce_character(ctx, phi, check=False)
            b = induce_character_by_trace(ctx, phi)
            assert vec_eq(a, b)
            assert ctx.hopf.characters_subspace().contains_vector(a)


def test_coideal_characters_match_the_hopf_subalgebra_table(a3):
    # Irr(N) of a Hopf subalgebra, once as a coideal subalgebra and once as
    # a Hopf algebra in its own right: same characters, degrees and order
    chars = coideal_characters(a3)
    table = hopf_subalgebra_data(a3).character_table()
    assert chars.characters == table.characters
    assert chars.degrees == table.degrees
    assert chars.idempotents == table.idempotents


def test_conjugated_block_idempotents_are_central(s3, a3):
    # Lambda ad t_j lies in the center of H
    lam = s3.integrals().integral
    chars = coideal_characters(a3)
    center = s3.center()
    for t in chars.block_idempotents:
        assert center.contains_vector(s3.adjoint(lam, a3.to_ambient(t)))


def test_degree_sum_identity(s3, a3, skryabin):
    # dim B * <phi_j, 1> = sum_i d_i <chi_i, t_j>
    for ctx in (a3, skryabin):
        H = ctx.hopf
        table = H.character_table()
        chars = coideal_characters(ctx)
        one_coords = ctx.coords_of(H.unit)
        for j, t in enumerate(chars.block_idempotents):
            rhs = H.field.zero
            for chi, d in zip(table.characters, table.degrees):
                rhs = rhs + H.field.from_rational(d) * H.pair(chi, ctx.to_ambient(t))
            phi_one = H.field.zero
            for c, p in zip(one_coords, chars.characters[j]):
                phi_one = phi_one + c * p
            assert rhs == H.field.from_rational(ctx.invariants.dim) * phi_one


def test_reciprocity_tables(s3, a3, trivial, whole):
    # N = H: identity matrix
    table = reciprocity_table(whole)
    n = len(table.h_degrees)
    assert table.entries == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    # N = k: column of degrees
    table = reciprocity_table(trivial)
    assert [row[0] for row in table.entries] == table.h_degrees
    # N = kA3: the 2-dim character row is (0, 1, 1)
    table = reciprocity_table(a3)
    i2 = table.h_degrees.index(2)
    row = table.entries[i2]
    assert row[0] == 0 and sorted(row[1:]) == [1, 1]


def test_reciprocity_skryabin(skryabin):
    table = reciprocity_table(skryabin)
    for row in table.entries:
        for entry in row:
            assert entry >= 0
    # column sums weighted by degrees equal dim B times the N-degrees
    for j in range(len(table.n_degrees)):
        total = sum(d * table.entries[i][j] for i, d in enumerate(table.h_degrees))
        assert total == skryabin.invariants.dim * table.n_degrees[j]


def test_embedding_image(s3, a3, trivial, whole, skryabin):
    for ctx, expected in ((trivial, 1), (a3, 3), (whole, 6), (skryabin, 3)):
        assert embedding_image(ctx).dim == expected


def test_induced_image(s3, a3, trivial, whole):
    for ctx in (trivial, a3, whole):
        image = induced_image(ctx)
        r_space = ctx.hopf.characters_subspace()
        assert r_space.contains(image)
    lam = s3.integrals().dual_integral
    assert induced_image(trivial).contains_vector(lam)
    assert induced_image(trivial).dim == 1
