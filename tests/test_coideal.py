import functools
import itertools

import pytest

from algebratools import dense_check_hopf_map, dense_normality_pair, invariants_lift
from grouptools import center_of_group, subgroup_closure
from moduletools import module_action_from_idempotent, table_primitive_idempotents

from hopflab import coideal
from hopflab.builders import (
    cyclic_group_table,
    dihedral8_table,
    drinfeld_double,
    group_algebra,
    klein_table,
    permutation_group_table,
    quaternion_table,
    symmetric3_table,
)
from hopflab.coideal import (
    HopfQuotient,
    _checked_presentation,
    _coideal_integral,
    _hopf_subalgebra_pair,
    _invariants,
    _normality_pair,
    coideal_closure,
    coideal_from_subspace,
    commutator_subalgebra,
    double_invariants_roundtrip,
    hopf_center,
    hopf_subalgebra_data,
    invariants_of,
    left_kernel,
    quotient,
)
from hopflab.corpus import coideal_lattice, corpus_names, load
from hopflab.errors import HopfLabError, NotAnAlgebraError, NotCoidealError, NotNormalError
from hopflab.hopf import HopfAlgebra
from hopflab.linalg import Subspace, _subalgebra_generated, _to_sparse, vec_add, vec_eq
from hopflab.scalars import QQ
from hopflab.solvability import ascending_central_series, skryabin_counterexample


@pytest.fixture(scope="module")
def s3():
    table, labels = symmetric3_table()
    return group_algebra(table, conductor=3, labels=labels, name="kS3")


@pytest.fixture(scope="module")
def s3_dual(s3):
    return s3.dual()


@pytest.fixture(scope="module")
def a3(s3):
    return coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])


@pytest.fixture(scope="module")
def skryabin_n(s3_dual, s3):
    b_n = Subspace.from_vectors(
        s3.field, 6, [s3.basis(s3.index_of_label("e")), s3.basis(s3.index_of_label("(12)"))]
    )
    sub = invariants_of(s3_dual, b_n)
    return coideal_from_subspace(s3_dual, sub)


def test_trivial_closure(s3):
    ctx = coideal_closure(s3, [])
    assert ctx.dim == 1
    assert vec_eq(ctx.integral, s3.unit)
    assert ctx.invariants.dim == 6  # B = H*
    lam = s3.integrals().dual_integral
    assert vec_eq(ctx.dual_integral, lam)
    assert s3.pair(ctx.dual_integral, s3.unit) == 6
    assert ctx.normal is True
    assert ctx.hopf_subalgebra is True


def test_a3_closure(s3, a3):
    assert a3.dim == 3
    assert a3.normal is True
    assert a3.hopf_subalgebra is True
    third = s3.field.from_rational(QQ(1, 3))
    expected = s3.element({"e": third, "(123)": third, "(132)": third})
    assert vec_eq(a3.integral, expected)


def test_transposition_closure_not_normal(s3):
    ctx = coideal_closure(s3, [s3.basis(s3.index_of_label("(12)"))])
    assert ctx.dim == 2
    assert ctx.normal is False
    assert ctx.hopf_subalgebra is True


def test_skryabin_coideal(skryabin_n):
    assert skryabin_n.dim == 3
    assert skryabin_n.hopf_subalgebra is False
    # the ambient is commutative, so every coideal subalgebra is normal
    assert skryabin_n.normal is True


@pytest.mark.parametrize("terms, message", [
    ([["(12)"]], "unit not contained"),
    ([["e"], ["(12)"], ["(123)"]], "not closed under multiplication"),
    # x = (123) + (132) satisfies x^2 = 2 + x, but the right legs of x
    # are (123) and (132) themselves
    ([["e"], ["(123)", "(132)"]], "not a left coideal"),
    # in the non-cocommutative k^S3 (labels g*, delta functions), the
    # functions constant on the cosets of <(12)> form a subalgebra holding
    # 1 on either side; Delta(f)(x, y) = f(xy), so only f(gk) = f(g), on
    # the cosets gK, is a left coideal
    pytest.param([["e*", "(12)*"], ["(13)*", "(123)*"], ["(23)*", "(132)*"]], None, id="k^S3-gK"),
    pytest.param([["e*", "(12)*"], ["(13)*", "(132)*"], ["(23)*", "(123)*"]], "not a left coideal",
                 id="k^S3-Kg-not a left coideal"),
])
def test_coideal_from_subspace_names_the_first_failure(s3, terms, message):
    H = s3.dual() if terms[0][0].endswith("*") else s3
    vectors = [H.element({label: 1 for label in labels}) for labels in terms]
    space = Subspace.from_vectors(H.field, H.dim, vectors)
    if message is None:
        ctx = coideal_from_subspace(H, space)
        assert (ctx.dim, ctx.hopf_subalgebra) == (3, False)
        return
    with pytest.raises(NotCoidealError, match=message):
        coideal_from_subspace(H, space)


def test_invariants_edge_cases(s3):
    all_of_dual = Subspace.full(s3.field, 6)
    only_counit = Subspace.from_vectors(s3.field, 6, [s3.counit])
    assert invariants_of(s3, only_counit).dim == 6
    assert invariants_of(s3, all_of_dual).dim == 1
    not_algebra = Subspace.from_vectors(s3.field, 6, [s3.basis(1)])
    with pytest.raises(NotAnAlgebraError):
        invariants_of(s3, not_algebra)


def test_double_invariants_roundtrip(s3, a3, skryabin_n):
    assert double_invariants_roundtrip(coideal_closure(s3, []))
    assert double_invariants_roundtrip(a3)
    assert double_invariants_roundtrip(skryabin_n)


def test_integral_identities(s3, a3, skryabin_n):
    for ctx in (a3, skryabin_n, coideal_closure(s3, [s3.basis(s3.index_of_label("(12)"))])):
        H = ctx.hopf
        pair = H.integrals()
        # S Lambda_N = Lambda_N = lambda_B -> Lambda
        assert vec_eq(H.antipode_of(ctx.integral), ctx.integral)
        assert vec_eq(H.act_left(ctx.dual_integral, pair.integral), ctx.integral)
        # <lambda_B, 1> = dim B
        assert H.pair(ctx.dual_integral, H.unit) == ctx.invariants.dim
        # Lambda_N <- H* = N = lambda_B -> H
        hit_span = Subspace.from_vectors(
            H.field, H.dim, [H.act_right(ctx.integral, H.basis(i)) for i in range(H.dim)]
        )
        assert hit_span == ctx.space
        act_span = Subspace.from_vectors(
            H.field, H.dim, [H.act_left(ctx.dual_integral, H.basis(i)) for i in range(H.dim)]
        )
        assert act_span == ctx.space
        # lambda_B <- H = B = Lambda_N -> H*
        b_one = Subspace.from_vectors(
            H.field, H.dim, [H.dual().act_right(ctx.dual_integral, H.basis(i)) for i in range(H.dim)]
        )
        assert b_one == ctx.invariants
        b_two = Subspace.from_vectors(
            H.field, H.dim, [H.dual().act_left(ctx.integral, H.basis(i)) for i in range(H.dim)]
        )
        assert b_two == ctx.invariants


def test_invariants_on_a_noncommutative_noncocommutative_algebra():
    # D(S3) is neither commutative nor cocommutative, so neither side of
    # N <-> B = (H*)^N is symmetric
    H, _ = load("d-s3", verify=False)
    for label, dim, normal in (("e*|(12)", 12, False), ("(12)*|e", 6, True)):
        ctx = coideal_closure(H, [H.basis(H.index_of_label(label))])
        assert (ctx.dim, ctx.normal) == (dim, normal)
        # B = Lambda_N -> H*
        hit_span = Subspace.from_vectors(
            H.field, H.dim, [H.dual().act_left(ctx.integral, H.basis(i)) for i in range(H.dim)]
        )
        assert hit_span == ctx.invariants
        assert invariants_of(H, ctx.invariants) == ctx.space
        assert ctx.dim * ctx.invariants.dim == H.dim


def test_antipode_image_and_quotient_kernel(s3, a3, skryabin_n):
    for ctx in (a3, skryabin_n):
        H = ctx.hopf
        # S(N) = H* -> Lambda_N
        sn = Subspace.from_vectors(
            H.field, H.dim, [H.antipode_of(list(b)) for b in ctx.space.basis]
        )
        hit_span = Subspace.from_vectors(
            H.field, H.dim, [H.act_left(H.basis(i), ctx.integral) for i in range(H.dim)]
        )
        assert sn == hit_span
        # H N+ = H (1 - Lambda_N), the kernel of the quotient projection
        one_minus = [a - b for a, b in zip(H.unit, ctx.integral)]
        by_idempotent = Subspace.from_vectors(
            H.field, H.dim, [H.multiply(H.basis(i), one_minus) for i in range(H.dim)]
        )
        eps = ctx.counit_on_basis()
        plus_basis = []
        for coords_idx in range(ctx.dim):
            # n - eps(n) 1 for each basis element spans N+
            n = list(ctx.space.basis[coords_idx])
            plus_basis.append([a - eps[coords_idx] * b for a, b in zip(n, H.unit)])
        products = []
        for i in range(H.dim):
            for nplus in plus_basis:
                products.append(H.multiply(H.basis(i), nplus))
        by_products = Subspace.from_vectors(H.field, H.dim, products)
        assert by_idempotent == by_products


def test_dim_divisibility(s3, a3, skryabin_n):
    for ctx in (a3, skryabin_n):
        assert ctx.hopf.dim % ctx.dim == 0
        assert ctx.dim * ctx.invariants.dim == ctx.hopf.dim


def test_intersection_invariants_identity(s3):
    # (H*)^(L cap N) = B_L B_N
    l_ctx = coideal_closure(s3, [s3.basis(s3.index_of_label("(12)"))])
    n_ctx = coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])
    cap = l_ctx.space.intersect(n_ctx.space)
    cap_ctx = coideal_from_subspace(s3, cap)
    generated = _subalgebra_generated(s3.dual(), l_ctx.invariants.sparse_basis + n_ctx.invariants.sparse_basis)
    assert cap_ctx.invariants == generated


def test_quotient_by_a3(s3, a3):
    hq = quotient(s3, a3)
    q = hq.quotient
    assert q.dim == 2
    assert len(q.grouplikes()) == 2
    assert q.character_table().degrees == [1, 1]
    assert q.verify().ok


def test_quotient_trivial_cases(s3):
    unit_ctx = coideal_closure(s3, [])
    hq = quotient(s3, unit_ctx)
    assert hq.quotient.same_structure(s3) or hq.quotient.dim == 6
    full_ctx = coideal_closure(s3, [s3.basis(i) for i in range(6)])
    hq2 = quotient(s3, full_ctx)
    assert hq2.quotient.dim == 1


def test_quotient_requires_normal(s3):
    ctx = coideal_closure(s3, [s3.basis(s3.index_of_label("(12)"))])
    with pytest.raises(NotNormalError):
        quotient(s3, ctx)


# pairs of corpus algebras of one dimension: a context of the second is
# handed to a function of the first
FOREIGN_PAIRS = (("s3", "z6"), ("z6", "s3"), ("d4", "q8"), ("q8", "d4"))


@pytest.mark.parametrize("name, other", FOREIGN_PAIRS)
def test_quotient_refuses_a_context_of_another_algebra(name, other):
    H = load(name)[0]
    for _, ctx in coideal_lattice(other, load(other)[0]):
        if ctx.normal:
            with pytest.raises(NotCoidealError, match="belongs to a different Hopf algebra"):
                quotient(H, ctx)


def test_quotient_projection_and_coideal_lift(s3, a3):
    hq = quotient(s3, a3)
    # lift of the full quotient is H, of the trivial coideal is N itself
    assert hq.lift_coideal(Subspace.full(s3.field, 2)) == Subspace.full(s3.field, 6)
    triv = Subspace.from_vectors(s3.field, 2, [hq.quotient.unit])
    assert hq.lift_coideal(triv) == a3.space


def test_left_kernels(s3):
    table = s3.character_table()
    # sign character: LKer = kA3
    sign_idx = next(
        i for i, (chi, d) in enumerate(zip(table.characters, table.degrees))
        if d == 1 and not vec_eq(chi, s3.counit)
    )
    ts = table_primitive_idempotents(s3, table)
    mats, _ = module_action_from_idempotent(s3, ts[sign_idx])
    lk = left_kernel(s3, mats)
    a3_ctx = coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])
    assert lk == a3_ctx.space
    # trivial module: LKer = H
    triv_mats, _ = module_action_from_idempotent(s3, ts[0])
    assert left_kernel(s3, triv_mats) == Subspace.full(s3.field, 6)
    # regular module: LKer = k
    reg_mats = [[s3.multiply(s3.basis(i), s3.basis(r)) for r in range(6)] for i in range(6)]
    reg = left_kernel(s3, reg_mats)
    assert reg.dim == 1 and reg.contains_vector(s3.unit)


def test_hopf_center(s3_dual):
    # a commutative Hopf algebra is its own Hopf center; group algebras
    # are checked against their groups' centers below
    klein = group_algebra(klein_table()[0], conductor=1)
    for H in [s3_dual, klein] + [load(name, verify=False)[0] for name in ("z2", "z3", "z6")]:
        assert hopf_center(H) == Subspace.full(H.field, H.dim)


def test_commutator_subalgebra(s3, s3_dual, a3):
    assert commutator_subalgebra(s3).space == a3.space
    assert commutator_subalgebra(s3_dual).dim == 1
    z2 = group_algebra(cyclic_group_table(2)[0], conductor=1)
    assert commutator_subalgebra(z2).dim == 1


def test_two_sided_flag_diagnostics(s3, a3, skryabin_n):
    from hopflab.coideal import _hopf_subalgebra_pair, _normality_pair

    for ctx in (a3, skryabin_n, coideal_closure(s3, [s3.basis(s3.index_of_label("(12)"))])):
        by_adjoint, by_center = _normality_pair(ctx.hopf, ctx.space, ctx.integral)
        assert by_adjoint == by_center == ctx.normal
        by_integral, direct = _hopf_subalgebra_pair(ctx.hopf, ctx.space, ctx.integral)
        assert by_integral == direct == ctx.hopf_subalgebra


def test_lattice_correspondence_through_quotient(s3, a3):
    # coideal subalgebras of H containing kA3 <-> coideal subalgebras of H//kA3
    hq = quotient(s3, a3)
    q = hq.quotient
    # the quotient kZ2 has exactly two coideal subalgebras: k and itself
    for sub, expected_dim in ((Subspace.from_vectors(s3.field, 2, [q.unit]), 3),
                              (Subspace.full(s3.field, 2), 6)):
        lifted = hq.lift_coideal(sub)
        assert lifted.dim == expected_dim
        ctx = coideal_from_subspace(s3, lifted)
        assert ctx.space.contains(a3.space)
        # projecting back gives the original
        projected = Subspace.from_vectors(
            s3.field, 2, [hq.project(list(b)) for b in lifted.basis]
        )
        assert projected == sub


PERMUTATION_GROUPS = {"kS4": ([(1, 0, 2, 3), (1, 2, 3, 0)], 1),
                      "kA4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 3)}
WHOLE_ALGEBRAS = [(name, dual) for name in list(corpus_names()) + list(PERMUTATION_GROUPS)
                  for dual in (False, True)]


# Cayley table builders and the conductor that splits each group algebra
TABLE_GROUPS = {"kS3": (symmetric3_table, 3), "kD4": (dihedral8_table, 4), "kQ8": (quaternion_table, 4)}


def _group(name):
    """(Cayley table, kG); the basis of kG is the table's order."""
    if name in PERMUTATION_GROUPS:
        generators, conductor = PERMUTATION_GROUPS[name]
        table, labels = permutation_group_table(generators, 4)
    else:
        build, conductor = TABLE_GROUPS[name]
        table, labels = build()
    return table, group_algebra(table, conductor=conductor, labels=labels, name=name)


def _span_of_elements(H, members):
    return Subspace.from_vectors(H.field, H.dim, [H.basis(i) for i in sorted(members)])


def _whole_algebra(name, dual):
    if name in PERMUTATION_GROUPS:
        H = _group(name)[1]
    else:
        H = load(name, verify=False)[0]
    return H.dual() if dual else H


@pytest.mark.parametrize("name, dual", WHOLE_ALGEBRAS,
                         ids=[f"{name}{'*' if dual else ''}" for name, dual in WHOLE_ALGEBRAS])
def test_whole_algebra_context_matches_the_general_routines(name, dual):
    # N = H reads H's presentation, integral and counit; the routines that
    # check and present a proper N must find the same on the full space
    H = _whole_algebra(name, dual)
    full = Subspace.full(H.field, H.dim)
    ctx = coideal_from_subspace(H, full)
    general = _checked_presentation(H, full)
    presentation = ctx.presentation()
    assert (presentation.dim, presentation.mult, presentation.unit) == (
        general.dim, general.mult, general.unit)
    assert ctx.integral == _coideal_integral(H, full, general)
    assert ctx.invariants == _invariants(H.dual(), full)
    assert _normality_pair(H, full, ctx.integral) == (ctx.normal, ctx.normal) == (True, True)
    assert _hopf_subalgebra_pair(H, full, ctx.integral) == (ctx.hopf_subalgebra,) * 2 == (True, True)


def test_whole_algebra_context_builds_nothing_again(monkeypatch):
    # neither coideal_from_subspace on the full space nor a closure that
    # reaches H presents, solves, takes invariants or runs the adjoint
    calls = []

    def refuse(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called for N = H")
        return spy

    for name in ("_subalgebra_presentation", "_trace_form", "_invariants", "_normality_pair"):
        monkeypatch.setattr(coideal, name, refuse(name))
    monkeypatch.setattr(HopfAlgebra, "adjoint", refuse("adjoint"))
    for name in corpus_names():
        base = load(name, verify=False)[0]
        for H in (base, base.dual()):
            ctx = coideal_from_subspace(H, Subspace.full(H.field, H.dim))
            assert (ctx.dim, ctx.normal, ctx.hopf_subalgebra, ctx.invariants.dim) == (H.dim, True, True, 1)
            assert coideal_closure(H, [H.basis(i) for i in range(H.dim)]) == ctx
    assert calls == []


def _counted_closure(hopf, generators, monkeypatch):
    """(S, products): the subalgebra _subalgebra_generated finds, and the
    number of products it takes."""
    products = []
    sparse_product = HopfAlgebra.sparse_product

    def counted(self, x, y):
        products.append((x, y))
        return sparse_product(self, x, y)

    with monkeypatch.context() as patch:
        patch.setattr(HopfAlgebra, "sparse_product", counted)
        space = _subalgebra_generated(hopf, generators)
    return space, len(products)


def test_closure_multiplies_each_row_once_by_each_generator(s3, a3, monkeypatch):
    # span{1, g} for g = (123) takes g 1 and g g = (132), then g (132) = 1
    # adds nothing: |G| dim N = 3 products, where squaring the span on
    # each pass took 2 x 2 + 3 x 3 = 13
    g = _to_sparse(s3.basis(s3.index_of_label("(123)")))
    assert _counted_closure(s3, [g], monkeypatch) == (a3.space, 3)
    # on the non-cocommutative D(S3) the count stays within |G| dim S, and
    # the closure is the span grown by all pairwise products until stable
    H = load("d-s3", verify=False)[0]
    for labels in (["e*|(12)"], ["(12)*|e"], ["e*|(123)", "(12)*|(12)"], ["(123)*|(12)", "(12)*|(123)"]):
        vectors = [H.basis(H.index_of_label(label)) for label in labels]
        space, count = _counted_closure(H, [_to_sparse(v) for v in vectors], monkeypatch)
        assert count <= len(vectors) * space.dim
        pairwise = Subspace.from_vectors(H.field, H.dim, [H.unit] + vectors)
        while True:
            rows = [list(b) for b in pairwise.basis]
            grown = Subspace.from_vectors(H.field, H.dim, rows + [H.multiply(a, b) for a in rows for b in rows])
            if grown == pairwise:
                break
            pairwise = grown
        assert space == pairwise, labels


@pytest.mark.parametrize("name", ["kS3", "kD4", "kQ8", "kA4", "kS4"])
def test_hopf_center_of_a_group_algebra_is_its_centers_algebra(name):
    # HZ(kG) = k[Z(G)], and the commutative k^G is its own Hopf center
    table, H = _group(name)
    assert hopf_center(H) == _span_of_elements(H, center_of_group(table))
    assert hopf_center(H.dual()) == Subspace.full(H.field, H.dim)


def test_hopf_center_dims_of_doubles():
    d_s3 = load("d-s3", verify=False)[0]
    assert (hopf_center(d_s3).dim, hopf_center(d_s3.dual()).dim) == (2, 6)
    for table, labels in (dihedral8_table(), quaternion_table()):
        double = drinfeld_double(group_algebra(table, conductor=4, labels=labels))
        assert hopf_center(double).dim == 8


@pytest.mark.parametrize("name", ["d-s3", "s3-dual", "D(kD4)"])
def test_hopf_center_is_the_left_kernel_of_the_adjoint_module(name):
    # the invariants of chi_ad and the left kernel of the matrices of ad:
    # two maps f through the one coproduct kernel
    if name == "D(kD4)":
        table, labels = dihedral8_table()
        H = drinfeld_double(group_algebra(table, conductor=4, labels=labels))
    else:
        H = load(name, verify=False)[0]
    ad = [[H.adjoint(H.basis(i), H.basis(r)) for r in range(H.dim)] for i in range(H.dim)]
    assert hopf_center(H) == left_kernel(H, ad)


def test_hopf_center_refuses_a_kernel_that_is_not_central(s3, monkeypatch):
    monkeypatch.setattr(coideal, "_invariants", lambda hopf, functionals: Subspace.full(hopf.field, hopf.dim))
    with pytest.raises(HopfLabError, match="not a central Hopf subalgebra"):
        hopf_center(s3)


@pytest.mark.parametrize("name", ["kS3", "kD4", "kQ8", "kA4"])
def test_closure_of_group_elements_is_the_subgroup_algebra(name):
    table, H = _group(name)
    elements = range(len(table))
    for gens in itertools.chain(itertools.combinations(elements, 1), itertools.combinations(elements, 2)):
        ctx = coideal_closure(H, [H.basis(g) for g in gens])
        assert ctx.space == _span_of_elements(H, subgroup_closure(table, gens)), gens


def test_closure_of_basis_sums_on_s3_dual_is_the_smallest_catalogued_member():
    # the catalogue of k^S3 is every left coideal subalgebra, closed under
    # intersection, so the closure of v is the meet of the members holding v
    H = load("s3-dual", verify=False)[0]
    lattice = [ctx.space for _, ctx in coideal_lattice("s3-dual", H)]
    for r in range(1, H.dim + 1):
        for members in itertools.combinations(range(H.dim), r):
            v = functools.reduce(vec_add, (H.basis(i) for i in members))
            smallest = functools.reduce(Subspace.intersect, [s for s in lattice if s.contains_vector(v)])
            assert smallest in lattice
            assert coideal_closure(H, [v]).space == smallest, members


# members of each catalogued lattice that are not normal
LATTICE_NON_NORMAL = {"s3": 3, "s3-dual": 0, "d4": 4, "q8": 0, "z6": 0, "d-z2": 0}


@pytest.mark.parametrize("name", sorted(LATTICE_NON_NORMAL))
def test_normality_pair_matches_the_dense_oracle(name):
    H = load(name, verify=False)[0]
    pairs = []
    for _, ctx in coideal_lattice(name, H):
        pair = _normality_pair(H, ctx.space, ctx.integral)
        assert pair == dense_normality_pair(H, ctx.space, ctx.integral)
        pairs.append(pair)
    assert pairs.count((False, False)) == LATTICE_NON_NORMAL[name]


def test_normality_tests_stay_independent(s3, a3):
    # each test reads only its own data: an adjoint-stable space with a
    # non-central element, and a non-normal space with a central one
    t = coideal_closure(s3, [s3.basis(s3.index_of_label("(12)"))])
    for space, x, expected in ((a3.space, t.integral, (True, False)), (t.space, s3.unit, (False, True))):
        assert _normality_pair(s3, space, x) == dense_normality_pair(s3, space, x) == expected


def _map_verdict(check, source, target, f, what):
    try:
        check(source, target, f, what)
    except HopfLabError as err:
        return str(err)
    return None


def _projection_verdict(check, hopf, hq):
    return _map_verdict(check, hopf, hq.quotient, hq._pi, "projection")


def test_projection_check_matches_the_dense_oracle_under_tampering(s3, a3):
    # pi(e_i) := pi(e_j) for every pair (i, j): the sparse check and the
    # dense oracle reach the same verdict; (12) -> e keeps the coproduct,
    # counit and antipode and breaks only the product
    verdicts = set()
    for i in range(s3.dim):
        for j in range(s3.dim):
            hq = quotient(s3, a3)
            hq._pi[i] = dict(hq._pi[j])
            verdict = _projection_verdict(coideal._check_hopf_map, s3, hq)
            assert verdict == _projection_verdict(dense_check_hopf_map, s3, hq)
            verdicts.add(verdict)
    # pi(e_i) := 2 pi(e_i) breaks the coproduct first, pi(e_i) := 0 the counit
    for i in range(s3.dim):
        for tampered in ({k: c + c for k, c in quotient(s3, a3)._pi[i].items()}, {}):
            hq = quotient(s3, a3)
            hq._pi[i] = tampered
            verdict = _projection_verdict(coideal._check_hopf_map, s3, hq)
            assert verdict == _projection_verdict(dense_check_hopf_map, s3, hq)
            verdicts.add(verdict)
    assert verdicts == {None, "projection does not intertwine comultiplication",
                        "projection does not preserve the counit",
                        "projection does not intertwine the antipode",
                        "projection is not an algebra map"}
    hq = quotient(s3, a3)
    hq._pi[s3.index_of_label("(12)")] = dict(hq._pi[s3.index_of_label("e")])
    for check in (coideal._check_hopf_map, dense_check_hopf_map):
        with pytest.raises(HopfLabError, match="projection is not an algebra map"):
            check(s3, hq.quotient, hq._pi, "projection")


def _inclusion_verdicts(ctx):
    """The verdicts of the inclusion certificate on every single-row
    tampering of the inclusion rows of the Hopf subalgebra ctx: row r :=
    row s, row r := 2 row r and row r := 0.  Each must be the dense
    oracle's."""
    sub = hopf_subalgebra_data(ctx)
    rows = ctx.space.sparse_basis
    tamperings = [(r, dict(rows[s])) for r in range(ctx.dim) for s in range(ctx.dim)]
    tamperings += [(r, {k: c + c for k, c in rows[r].items()}) for r in range(ctx.dim)]
    tamperings += [(r, {}) for r in range(ctx.dim)]
    verdicts = set()
    for r, row in tamperings:
        f = list(rows)
        f[r] = row
        verdict = _map_verdict(coideal._check_hopf_map, sub, ctx.hopf, f, "inclusion")
        assert verdict == _map_verdict(dense_check_hopf_map, sub, ctx.hopf, f, "inclusion")
        verdicts.add(verdict)
    return verdicts


def test_inclusion_check_matches_the_dense_oracle_under_tampering():
    # every Hopf member of the catalogued lattices; A3 in S3 has no
    # single-row tampering that breaks only the product, Z4 in D4 has one
    verdicts = {}
    for name in ("z2", "z3", "z6", "s3", "s3-dual", "d4", "q8", "d-z2"):
        for label, ctx in coideal_lattice(name, load(name)[0]):
            if ctx.hopf_subalgebra:
                verdicts[(name, label)] = _inclusion_verdicts(ctx)
    messages = {"inclusion does not intertwine comultiplication",
                "inclusion does not preserve the counit",
                "inclusion does not intertwine the antipode",
                "inclusion is not an algebra map"}
    assert verdicts[("s3", "{e,(123),(132)}")] == {None} | messages - {"inclusion is not an algebra map"}
    assert verdicts[("d4", "{e,(1234),(13)(24),(1432)}")] == {None} | messages
    assert set().union(*verdicts.values()) == {None} | messages


def test_hopf_subalgebra_data_refuses_a_forced_flag():
    # the two 3-dim coideal subalgebras of k^S3 are not Hopf subalgebras
    facts = skryabin_counterexample()
    for ctx in (facts["n_ctx"], facts["l_ctx"]):
        assert not ctx.hopf_subalgebra
        ctx.hopf_subalgebra = True
        with pytest.raises(HopfLabError):
            hopf_subalgebra_data(ctx)


@pytest.mark.parametrize("name", corpus_names())
def test_hopf_subalgebra_data_of_the_whole_algebra_is_the_algebra(name):
    base = load(name)[0]
    for H in (base, base.dual()):
        ctx = coideal_from_subspace(H, Subspace.full(H.field, H.dim))
        assert hopf_subalgebra_data(ctx).same_structure(H)


def _lift_is_the_invariants_lift(monkeypatch):
    """Make every HopfQuotient.lift_coideal assert that it agrees with the
    invariants route of algebratools; returns the list of lifts compared."""
    compared = []
    lift = HopfQuotient.lift_coideal

    def checked(self, subspace):
        lifted = lift(self, subspace)
        assert lifted == invariants_lift(self, subspace)
        compared.append(lifted)
        return lifted

    monkeypatch.setattr(HopfQuotient, "lift_coideal", checked)
    return compared


@pytest.mark.parametrize("name", sorted(LATTICE_NON_NORMAL))
def test_lift_by_one_kernel_matches_the_invariants_lift(name, monkeypatch):
    # for each normal member N of a catalogued lattice and each member L
    # holding N, L is the lift of pi(L), by either route, and so are k 1
    # and the whole quotient
    compared = _lift_is_the_invariants_lift(monkeypatch)
    H = load(name, verify=False)[0]
    members = [ctx for _, ctx in coideal_lattice(name, H)]
    for n_ctx in members:
        if not n_ctx.normal:
            continue
        hq = quotient(H, n_ctx)
        q = hq.quotient
        assert hq.lift_coideal(Subspace.from_vectors(q.field, q.dim, [q.unit])) == n_ctx.space
        assert hq.lift_coideal(Subspace.full(q.field, q.dim)) == Subspace.full(H.field, H.dim)
        for ctx in members:
            if ctx.space.contains(n_ctx.space):
                projected = Subspace.from_vectors(q.field, q.dim, [hq.project(list(b)) for b in ctx.space.basis])
                assert hq.lift_coideal(projected) == ctx.space
    assert compared


def test_lifts_of_the_ascending_central_series_match_the_invariants_lift(monkeypatch):
    compared = _lift_is_the_invariants_lift(monkeypatch)
    table, labels = dihedral8_table()
    double = drinfeld_double(group_algebra(table, conductor=4, labels=labels))
    for H in [load(name, verify=False)[0] for name in corpus_names()] + [double]:
        ascending_central_series(H)
    # d4, q8 and D(kD4) each lift the center of one quotient
    assert len(compared) == 3
