import pytest

from algebratools import dense_step_conditions
from grouptools import center_of_group, derived_series, is_solvable_group, normal_subgroups

from hopflab.builders import (
    cyclic_group_table,
    dihedral8_table,
    drinfeld_double,
    group_algebra,
    permutation_group_table,
    quaternion_table,
    symmetric3_table,
)
from hopflab.coideal import coideal_closure, coideal_from_subspace
from hopflab.corpus import coideal_lattice, load
from hopflab.errors import ChainError, HopfLabError, NotCoidealError, NotNormalError
from hopflab.linalg import Subspace, vec_eq
from hopflab import solvability
from hopflab.solvability import (
    ascending_central_series,
    check_integral_commutation,
    check_nilpotent_criterion,
    check_projection_injectivity,
    check_solvable_series,
    find_solvable_series,
    quotient,
    skryabin_counterexample,
)

GROUPS = {
    "z2": (cyclic_group_table(2), 1),
    "z6": (cyclic_group_table(6), 3),
    "s3": (symmetric3_table(), 3),
    "d4": (dihedral8_table(), 4),
    "q8": (quaternion_table(), 4),
}


def build(name):
    (table, labels), conductor = GROUPS[name]
    return group_algebra(table, conductor=conductor, labels=labels, name=f"k{name.upper()}"), table


@pytest.fixture(scope="module")
def s3():
    return build("s3")[0]


@pytest.fixture(scope="module")
def a3(s3):
    return coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])


def subgroup_chain_contexts(hopf, table, subgroup_sets):
    chain = []
    for members in subgroup_sets:
        gens = [hopf.basis(i) for i in sorted(members)]
        chain.append(coideal_closure(hopf, gens))
    return chain


def test_s3_solvable_series(s3, a3):
    k = coideal_closure(s3, [])
    full = coideal_from_subspace(s3, Subspace.full(s3.field, 6))
    report = check_solvable_series(s3, [k, a3, full])
    assert report.ok
    # skipping the middle term fails condition (ii) since S3 is nonabelian
    report = check_solvable_series(s3, [k, full])
    assert report.verdict == "fails_at(0, ii)"
    assert report.steps[0].witness[0] == "adjoint"


def test_commutative_dual_is_solvable(s3):
    dual = s3.dual()
    k = coideal_closure(dual, [])
    full = coideal_from_subspace(dual, Subspace.full(dual.field, 6))
    report = check_solvable_series(dual, [k, full])
    assert report.ok


def test_chain_must_increase(s3, a3):
    k = coideal_closure(s3, [])
    with pytest.raises(ChainError):
        check_solvable_series(s3, [a3, k])


def test_incomplete_endpoints(s3, a3):
    k = coideal_closure(s3, [])
    report = check_solvable_series(s3, [k, a3])
    assert report.verdict == "conditions_hold_but_endpoints_missing"


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_solvability_matches_classical_oracle(name):
    hopf, table = build(name)
    assert is_solvable_group(table)  # all corpus groups are solvable
    series = derived_series(table)
    # Hopf chain: k subset kG^(m) subset ... subset kG' subset kG
    chain = subgroup_chain_contexts(hopf, table, list(reversed(series)))
    if chain[0].dim != 1:
        chain = [coideal_closure(hopf, [])] + chain
    report = check_solvable_series(hopf, chain)
    assert report.ok, f"{name}: {report.verdict}"


def test_integral_commutation_same_context(s3, a3):
    result = check_integral_commutation(s3, a3, a3)
    assert result.commute and result.product_is_integral
    # the product is <lambda_B, 1> lambda_B
    expected = [c * s3.field.from_rational(a3.invariants.dim) for c in a3.dual_integral]
    assert vec_eq(result.product_nl, expected)


def test_integral_commutation_normal_hopf_case(s3, a3):
    l_ctx = coideal_closure(s3, [s3.basis(s3.index_of_label("(12)"))])
    result = check_integral_commutation(s3, l_ctx, a3)
    assert result.commute
    assert result.product_is_integral
    assert result.generated_dim == 6  # B_L B_N = H* since L cap N = k


def test_skryabin_counterexample():
    facts = skryabin_counterexample()
    assert facts["dim_n"] == 3 and facts["dim_l"] == 3
    assert facts["intersection_dim"] == 1
    assert facts["n_is_hopf_subalgebra"] is False
    # both composition conventions produce the same two-element set
    computed = {tuple(facts["product_nl_scaled"]), tuple(facts["product_ln_scaled"])}
    expected = {tuple(facts["expected_products"][0]), tuple(facts["expected_products"][1])}
    assert computed == expected
    assert not facts["products_equal"]
    assert facts["integrals_commute"] is False
    assert facts["product_is_integral"] is False
    assert facts["generated_dim"] == 6
    # normalized context integrals give the same products
    assert vec_eq(facts["context_product_nl"], facts["product_nl_scaled"])
    assert vec_eq(facts["context_product_ln"], facts["product_ln_scaled"])
    # L cap N = k and yet the projection is not injective on L
    assert facts["projection_injective"] is False
    assert facts["kernel_overlap_dim"] > 0


def test_projection_injectivity_good_cases(s3, a3):
    k = coideal_closure(s3, [])
    assert check_projection_injectivity(s3, a3, k).injective
    full_l = coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])
    assert check_projection_injectivity(s3, k, full_l).injective
    with pytest.raises(NotNormalError):
        check_projection_injectivity(
            s3, coideal_closure(s3, [s3.basis(s3.index_of_label("(12)"))]), k
        )


# pairs of corpus algebras of one dimension: contexts of the second are
# handed to a check on the first, alone and beside a context of the first
FOREIGN_PAIRS = (("s3", "z6"), ("z6", "s3"), ("d4", "q8"), ("q8", "d4"))


def _foreign_pairs(name, other):
    """(H, pairs) for the corpus algebra H = `name`: each context of the
    lattice of `other` paired with itself and, both ways, with k of H."""
    H = load(name)[0]
    own = coideal_closure(H, [])
    pairs = []
    for _, ctx in coideal_lattice(other, load(other)[0]):
        pairs += [(ctx, ctx), (ctx, own), (own, ctx)]
    return H, pairs


@pytest.mark.parametrize("name, other", FOREIGN_PAIRS)
def test_integral_commutation_refuses_a_context_of_another_algebra(name, other):
    H, pairs = _foreign_pairs(name, other)
    for l_ctx, n_ctx in pairs:
        with pytest.raises(NotCoidealError, match="belongs to a different Hopf algebra"):
            check_integral_commutation(H, l_ctx, n_ctx)


@pytest.mark.parametrize("name, other", FOREIGN_PAIRS)
def test_projection_injectivity_refuses_a_context_of_another_algebra(name, other):
    H, pairs = _foreign_pairs(name, other)
    for n_ctx, l_ctx in pairs:
        with pytest.raises(NotCoidealError, match="belongs to a different Hopf algebra"):
            check_projection_injectivity(H, n_ctx, l_ctx)


def test_ascending_central_series(s3):
    report = ascending_central_series(s3)
    assert not report.is_nilpotent
    assert [s.dim for s in report.ascending_chain] == [1]
    dual_report = ascending_central_series(s3.dual())
    assert dual_report.is_nilpotent
    assert [s.dim for s in dual_report.ascending_chain] == [6]


@pytest.mark.parametrize("name,expected_dims", [("d4", [2, 8]), ("q8", [2, 8])])
def test_ascending_series_nilpotent_groups(name, expected_dims):
    hopf, table = build(name)
    report = ascending_central_series(hopf)
    assert report.is_nilpotent
    assert [s.dim for s in report.ascending_chain] == expected_dims
    # the first term is the group algebra of the classical center
    center = center_of_group(table)
    assert report.ascending_chain[0].dim == len(center)


def test_nilpotent_criterion_agreement(s3):
    for name in ("z2", "z6", "d4", "q8"):
        hopf, _ = build(name)
        report = ascending_central_series(hopf)
        chain = [coideal_closure(hopf, [])] + [
            coideal_from_subspace(hopf, space) for space in report.ascending_chain if space.dim > 1]
        ok, _ = check_nilpotent_criterion(hopf, chain)
        assert ok == report.is_nilpotent
        if ok:  # nilpotent implies solvable
            assert check_solvable_series(hopf, chain).ok
    # kS3 is not nilpotent: the full normal chain through kA3 fails
    a3 = coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])
    k = coideal_closure(s3, [])
    full = coideal_from_subspace(s3, Subspace.full(s3.field, 6))
    ok, witness = check_nilpotent_criterion(s3, [k, a3, full])
    assert not ok
    assert witness[0] == 0  # fails at the first step: A3 is not central mod k


def test_quotient_lifting(s3, a3):
    hq = quotient(s3, a3)
    q = hq.quotient
    q_chain = [coideal_closure(q, []), coideal_from_subspace(q, Subspace.full(q.field, q.dim))]
    q_report = check_solvable_series(q, q_chain)
    assert q_report.ok
    lifted_report = check_solvable_series(s3, hq.lift_chain(q_report.chain))
    assert lifted_report.verdict == "solvable_series" or lifted_report.chain[0].dim != 1
    assert [ctx.dim for ctx in lifted_report.chain] == [3, 6]
    assert all(s.ok for s in lifted_report.steps)


def test_find_solvable_series_small():
    for name, expected in (("z2", [1, 2]), ("z6", [1, 6])):
        hopf, _ = build(name)
        report = find_solvable_series(hopf)
        assert report.ok
        assert [c.dim for c in report.chain] == expected


def test_find_solvable_series_s3(s3):
    report = find_solvable_series(s3)
    assert report.ok
    assert [c.dim for c in report.chain] == [1, 3, 6]


def test_find_solvable_series_s3_dual(s3):
    report = find_solvable_series(s3.dual())
    assert report.ok
    assert [c.dim for c in report.chain] == [1, 6]


def test_search_verifies_its_chain_once(monkeypatch, s3):
    # the chain found is checked by check_solvable_series alone: on s3 the
    # step (k, A3) runs in the candidate filter and in that check, (A3, S3)
    # only in the check; on the commutative dual, k < H is checked once
    real = solvability.step_conditions

    def steps_during_search(hopf):
        calls = []

        def spy(prev, nxt):
            if prev.hopf is hopf:
                calls.append((prev.dim, nxt.dim))
            return real(prev, nxt)

        monkeypatch.setattr(solvability, "step_conditions", spy)
        report = find_solvable_series(hopf)
        monkeypatch.undo()
        assert report.ok
        assert report.to_dict() == check_solvable_series(hopf, report.chain).to_dict()
        return calls

    calls = steps_during_search(s3)
    assert calls.count((3, 6)) == 1
    assert calls.count((1, 3)) == 2
    assert steps_during_search(s3.dual()) == [(1, 6)]


@pytest.mark.parametrize("name", ["d4", "q8"])
def test_find_solvable_series_nilpotent_groups(name):
    hopf, _ = build(name)
    report = find_solvable_series(hopf)
    assert report.ok


def test_find_solvable_series_double_z2():
    d = drinfeld_double(build("z2")[0])
    report = find_solvable_series(d)
    assert report.ok
    assert report.chain[-1].dim == 4


POOL_GROUPS = {
    "s3": GROUPS["s3"],
    "d4": GROUPS["d4"],
    "q8": GROUPS["q8"],
    "a4": (permutation_group_table([(1, 2, 0, 3), (1, 0, 3, 2)], 4), 3),
    "s4": (permutation_group_table([(1, 0, 2, 3), (1, 2, 3, 0)], 4), 1),
}


@pytest.mark.parametrize("name", sorted(POOL_GROUPS))
def test_candidate_pool_is_the_proper_normal_subgroups(name):
    # for kG the normal left coideal subalgebras are the spans kN of the
    # normal subgroups N, found here by brute force over conjugacy classes
    (table, labels), conductor = POOL_GROUPS[name]
    hopf = group_algebra(table, conductor=conductor, labels=labels)
    expected = {
        Subspace.from_vectors(hopf.field, hopf.dim, [hopf.basis(g) for g in members])
        for members in normal_subgroups(table) if 1 < len(members) < len(table)
    }
    pool = solvability._normal_candidates(hopf)
    assert len(pool) == len(expected)
    assert set(pool) == expected
    assert [space.dim for space in pool] == sorted(space.dim for space in pool)


@pytest.mark.parametrize("name, dims", [("z2", [2, 2, 2]), ("s3", [2, 6, 6, 6, 6, 18])])
def test_candidate_pool_of_doubles_is_normal(name, dims):
    hopf = drinfeld_double(build(name)[0])
    pool = solvability._normal_candidates(hopf)
    assert [space.dim for space in pool] == dims
    assert all(coideal_from_subspace(hopf, space).normal for space in pool)


def test_search_rejects_a_non_normal_candidate(monkeypatch, s3):
    # the pool rests on a theorem; a member that is not normal is a bug
    b_n = Subspace.from_vectors(s3.field, 6, [s3.basis(s3.index_of_label(x)) for x in ("e", "(12)")])
    monkeypatch.setattr(solvability, "_normal_candidates", lambda hopf: [b_n])
    with pytest.raises(HopfLabError, match="not normal"):
        find_solvable_series(s3)


# failing (N, M) pairs of each catalogued lattice, by the dense oracle
LATTICE_FAILING_STEPS = {"s3": 4, "s3-dual": 0, "d4": 5, "q8": 1, "z6": 0, "d-z2": 0}


@pytest.mark.parametrize("name", sorted(LATTICE_FAILING_STEPS))
def test_step_conditions_match_the_dense_oracle(name):
    # every pair N <= M of the lattice, failing ones included: the same
    # verdicts and the same first witness as dense products pair by pair
    H = load(name, verify=False)[0]
    contexts = [ctx for _, ctx in coideal_lattice(name, H)]
    failing = 0
    for prev in contexts:
        for nxt in contexts:
            if not nxt.space.contains(prev.space):
                continue
            got, want = solvability.step_conditions(prev, nxt), dense_step_conditions(prev, nxt)
            assert (got.central, got.adjoint, got.witness) == (want.central, want.adjoint, want.witness)
            failing += not want.ok
    assert failing == LATTICE_FAILING_STEPS[name]
