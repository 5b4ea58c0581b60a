import random

import pytest

from hopflab.builders import (
    cyclic_group_table,
    dihedral8_table,
    drinfeld_double,
    group_algebra,
    quaternion_table,
    symmetric3_table,
    validate_group_table,
)
from hopflab.errors import NotAGroupError
from hopflab.hopf import module_action_from_idempotent
from hopflab.linalg import vec_add, vec_eq, vec_scale
from hopflab.scalars import QQ


def build_s3():
    table, labels = symmetric3_table()
    return group_algebra(table, conductor=3, labels=labels, name="kS3")


def build_z2():
    table, labels = cyclic_group_table(2)
    return group_algebra(table, conductor=1, labels=labels, name="kZ2")


@pytest.fixture(scope="module")
def s3():
    return build_s3()


@pytest.fixture(scope="module")
def z2():
    return build_z2()


def test_group_table_validation():
    validate_group_table(cyclic_group_table(4)[0])
    broken = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # not associative / no inverses
    with pytest.raises(NotAGroupError):
        validate_group_table(broken)


def test_symmetric3_composition_convention():
    table, labels = symmetric3_table()
    i12 = labels.index("(12)")
    i13 = labels.index("(13)")
    # (fg)(x) = f(g(x)): (12)(13) = (132), (13)(12) = (123)
    assert labels[table[i12][i13]] == "(132)"
    assert labels[table[i13][i12]] == "(123)"


def test_verify_group_algebras(s3, z2):
    assert z2.verify().ok
    assert s3.verify().ok


def test_verify_detects_broken_antipode(s3):
    import copy

    bad = copy.deepcopy(s3)
    bad._cache = {}
    bad.antipode = [bad.basis(i) for i in range(bad.dim)]  # identity map
    report = bad.verify()
    failed = {c.name for c in report.failures()}
    assert "antipode" in failed
    # with S = id the axiom at a grouplike g reads g^2 = 1, so involutions
    # still pass; the first counterexample is a 3-cycle
    witness = next(c.witness for c in report.checks if c.name == "antipode")
    assert s3.basis_labels[witness] in {"(123)", "(132)"}


def test_dual_of_dual_is_identity(s3, z2):
    for H in (z2, s3):
        assert H.dual().verify().ok
        assert H.dual().dual().same_structure(H)
        assert H.dual().dual() is H  # cached round-trip


def test_dual_s3_is_commutative(s3):
    dual = s3.dual()
    for i in range(dual.dim):
        for j in range(dual.dim):
            assert dual.mult[i][j] == dual.mult[j][i]


def test_hit_actions_group_dual(s3):
    # p_(12) <- (123) is the functional picking out (123)^-1 (12) = (23)
    p = s3.basis(s3.index_of_label("(12)"))
    a = s3.basis(s3.index_of_label("(123)"))
    moved = s3.hit_right(p, a)
    assert vec_eq(moved, s3.basis(s3.index_of_label("(23)")))
    # 1 -> p = p
    assert vec_eq(s3.hit_left(s3.unit, p), p)


def test_hit_module_axiom(s3):
    rng = random.Random(7)

    def rand_vec():
        return [s3.field.from_rational(QQ(rng.randint(-3, 3))) for _ in range(s3.dim)]

    for _ in range(5):
        a, b, p = rand_vec(), rand_vec(), rand_vec()
        ab = s3.multiply(a, b)
        assert vec_eq(s3.hit_left(a, s3.hit_left(b, p)), s3.hit_left(ab, p))
        assert vec_eq(s3.hit_right(s3.hit_right(p, a), b), s3.hit_right(p, ab))


def test_adjoint_is_group_conjugation(s3):
    g = s3.basis(s3.index_of_label("(12)"))
    a = s3.basis(s3.index_of_label("(123)"))
    assert vec_eq(s3.adjoint(g, a), s3.basis(s3.index_of_label("(132)")))
    assert vec_eq(s3.adjoint(s3.unit, a), a)


def test_integrals_group_algebra(s3, z2):
    for H, order in ((z2, 2), (s3, 6)):
        pair = H.integrals()
        inv = H.field.from_rational(QQ(1, order))
        expected = [inv] * H.dim
        assert vec_eq(pair.integral, expected)
        assert H.pair(pair.dual_integral, pair.integral).is_one()
    # lambda = |G| * p_e for kS3
    lam = s3.integrals().dual_integral
    expected = vec_scale(s3.basis(s3.index_of_label("e")), s3.field.from_rational(6))
    assert vec_eq(lam, expected)


def test_integral_of_dual(s3):
    dual = s3.dual()
    pair = dual.integrals()
    # integral of (kS3)* is the indicator functional of the identity
    assert vec_eq(pair.integral, s3.basis(s3.index_of_label("e")))


def test_character_table_z2(z2):
    table = z2.character_table()
    assert table.degrees == [1, 1]
    assert vec_eq(table.characters[0], z2.counit)
    chi1 = table.characters[1]
    assert chi1[z2.index_of_label("e")].is_one()
    assert chi1[z2.index_of_label("g")] == -1


def test_character_table_s3(s3):
    table = s3.character_table()
    assert sorted(table.degrees) == [1, 1, 2]
    assert table.degrees[0] == 1
    # orthonormality is enforced internally; cross-check one classical value
    chi2 = table.characters[table.degrees.index(2)]
    assert chi2[s3.index_of_label("e")] == 2
    assert chi2[s3.index_of_label("(12)")].is_zero()
    assert chi2[s3.index_of_label("(123)")] == -1


def test_central_idempotents_orthogonal(s3):
    table = s3.character_table()
    for i, e in enumerate(table.idempotents):
        for j, f in enumerate(table.idempotents):
            prod = s3.multiply(e, f)
            if i == j:
                assert vec_eq(prod, e)
            else:
                assert all(c.is_zero() for c in prod)


def test_bilinear_form_basics(s3):
    lam_pair = s3.integrals()
    eps = s3.dual_unit()
    assert s3.bilinear_form(eps, eps).is_one()
    table = s3.character_table()
    chi2 = table.characters[table.degrees.index(2)]
    sign = next(
        chi for chi, d in zip(table.characters, table.degrees)
        if d == 1 and not vec_eq(chi, s3.counit)
    )
    assert s3.bilinear_form(sign, chi2).is_zero()
    assert s3.bilinear_form(chi2, chi2).is_one()
    # symmetric on the character span
    assert s3.bilinear_form(sign, chi2) == s3.bilinear_form(chi2, sign)
    assert s3.pair(lam_pair.dual_integral, lam_pair.integral).is_one()


def test_coadjoint_lands_in_characters(s3):
    rng = random.Random(11)
    lam = s3.integrals().integral
    r_space = s3.characters_subspace()
    for _ in range(20):
        x = [s3.field.from_rational(QQ(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(s3.dim)]
        assert r_space.contains_vector(s3.coadjoint(lam, x))


def test_coadjoint_module_identity(s3):
    # h coad (x p) = (h coad x) p for p in R(H)
    rng = random.Random(13)
    table = s3.character_table()
    p = table.characters[table.degrees.index(2)]
    for _ in range(5):
        h = [s3.field.from_rational(QQ(rng.randint(-3, 3))) for _ in range(s3.dim)]
        x = [s3.field.from_rational(QQ(rng.randint(-3, 3))) for _ in range(s3.dim)]
        lhs = s3.coadjoint(h, s3.dual_multiply(x, p))
        rhs = s3.dual_multiply(s3.coadjoint(h, x), p)
        assert vec_eq(lhs, rhs)


def test_coadjoint_cache_does_not_grow():
    # only the integral's adjoint matrix is kept; other h are not cached
    s3 = build_s3()
    s3.character_table()
    size = len(s3._cache)
    for n in range(20):
        h = [s3.field.from_rational(QQ(n + i)) for i in range(s3.dim)]
        s3.coadjoint(h, s3.counit)
    assert len(s3._cache) == size
    lam = s3.integrals().integral
    for _ in range(2):
        s3.coadjoint(lam, s3.counit)
    assert len(s3._cache) == size + 1


def test_grouplikes(s3):
    assert len(s3.grouplikes()) == 6
    duals = s3.dual().grouplikes()
    assert len(duals) == 2  # counit and sign
    z3 = group_algebra(cyclic_group_table(3)[0], conductor=3)
    assert len(z3.grouplikes()) == 3


def test_grouplikes_of_s3_are_group_elements(s3):
    gs = {tuple(g) for g in s3.grouplikes()}
    assert gs == {tuple(s3.basis(i)) for i in range(6)}


def test_f_r_trivial_for_group_algebra(s3):
    eps = s3.dual_unit()
    assert vec_eq(s3.f_r(eps), s3.unit)
    # linearity
    p = s3.basis(0)
    q = s3.basis(3)
    assert vec_eq(s3.f_r(vec_add(p, q)), vec_add(s3.f_r(p), s3.f_r(q)))


def test_module_action_matches_character(s3):
    table = s3.character_table()
    idx = table.degrees.index(2)
    mats, space = module_action_from_idempotent(s3, table.block_idempotents[idx])
    assert space.dim == 2
    for m in range(s3.dim):
        tr = mats[m][0][0] + mats[m][1][1]
        assert tr == table.characters[idx][m]


def test_drinfeld_double_z2():
    d = drinfeld_double(build_z2())
    assert d.dim == 4
    report = d.verify()
    assert report.ok, [c.name for c in report.failures()]
    # f_R of the counit of D(H)* ... the unit functional eps maps to 1
    assert vec_eq(d.f_r(d.dual_unit()), d.unit)
    # f_R sends dual grouplikes to grouplikes
    dual_groups = d.dual().grouplikes()
    group_set = {tuple(g) for g in d.grouplikes()}
    for p in dual_groups:
        assert tuple(d.f_r(p)) in group_set


def test_f_r_multiplicative_on_dual_grouplikes():
    d = drinfeld_double(build_z2())
    dual_groups = d.dual().grouplikes()
    assert len(dual_groups) >= 2
    for p in dual_groups:
        for q in dual_groups:
            pq = d.dual_multiply(p, q)
            assert vec_eq(d.f_r(pq), d.multiply(d.f_r(p), d.f_r(q)))


def test_drinfeld_double_s3(s3):
    d = drinfeld_double(s3)
    assert d.dim == 36
    report = d.verify()
    assert report.ok, [c.name for c in report.failures()]


def test_quaternion_group_algebra_verifies():
    table, labels = quaternion_table()
    validate_group_table(table)
    q8 = group_algebra(table, conductor=4, labels=labels, name="kQ8")
    assert q8.verify().ok
    assert sorted(q8.character_table().degrees) == [1, 1, 1, 1, 2]


def test_dihedral_group_algebra_verifies():
    table, labels = dihedral8_table()
    d4 = group_algebra(table, conductor=4, labels=labels, name="kD4")
    assert d4.verify().ok
    assert sorted(d4.character_table().degrees) == [1, 1, 1, 1, 2]
