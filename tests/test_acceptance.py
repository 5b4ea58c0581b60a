"""Acceptance suite: the library's exit criteria.

One test per criterion; arithmetic is exact so every comparison is
equality, and each test prints a PASS line with its runtime (visible with
pytest -s or in the captured output section).
"""

import time

import pytest

from grouptools import derived_series, is_solvable_group

from hopflab.coideal import coideal_closure, coideal_from_subspace, quotient
from hopflab.corpus import GROUP_TABLES, build, coideal_lattice, corpus_names, load
from hopflab.harmonic import (
    character_form,
    coideal_characters,
    embedding_image,
    induce_character,
    induce_character_by_trace,
    induced_degree_identity,
    induced_image,
    reciprocity_table,
)
from hopflab.linalg import Subspace, vec_eq
from hopflab.scalars import QQ
from hopflab.solvability import (
    ascending_central_series,
    check_nilpotent_criterion,
    check_solvable_series,
    find_solvable_series,
    skryabin_counterexample,
)

LATTICE_NAMES = ("s3", "s3-dual", "d4", "q8", "d-z2")


@pytest.fixture(scope="module")
def algebras():
    return {name: build(name) for name in corpus_names()}


@pytest.fixture(scope="module")
def lattices(algebras):
    return {
        name: coideal_lattice(name, algebras[name]) for name in LATTICE_NAMES
    }


def _report(number, label, started):
    print(f"ACCEPTANCE {number} {label}: PASS ({time.monotonic() - started:.2f}s)")


def test_criterion_1_skryabin_counterexample():
    started = time.monotonic()
    facts = skryabin_counterexample()
    assert facts["dim_n"] == 3 and facts["dim_l"] == 3
    assert facts["intersection_dim"] == 1  # N cap L = k
    assert facts["n_is_hopf_subalgebra"] is False
    computed = {tuple(facts["product_nl_scaled"]), tuple(facts["product_ln_scaled"])}
    expected = {tuple(facts["expected_products"][0]), tuple(facts["expected_products"][1])}
    assert computed == expected  # both composition conventions, as a set
    assert not facts["products_equal"]
    assert facts["integrals_commute"] is False
    assert facts["product_is_integral"] is False
    assert facts["generated_dim"] == 6  # B_N B_L is all of the dual
    assert facts["projection_injective"] is False
    assert facts["kernel_overlap_dim"] > 0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(1, "skryabin-counterexample", started)


def test_criterion_2_orthogonality(lattices):
    started = time.monotonic()
    checked = 0
    for name in LATTICE_NAMES:
        for label, ctx in lattices[name]:
            chars = coideal_characters(ctx)
            for i, p in enumerate(chars.characters):
                for j, q in enumerate(chars.characters):
                    value = character_form(ctx, p, q)
                    assert value == (1 if i == j else 0), (name, label, i, j)
            checked += 1
    assert checked >= 33
    non_hopf = [ctx for _, ctx in lattices["s3-dual"] if not ctx.hopf_subalgebra]
    assert non_hopf  # the counterexample coideal is covered
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(2, f"orthogonality across {checked} coideals", started)


def _classical_s3_branching(s3, a3_members):
    """Independent oracle: multiplicities of the A3-characters in the
    restriction of the 2-dimensional S3-character, from fixed-point counts
    and explicit root-of-unity character values."""
    field = s3.field
    table, labels = GROUP_TABLES["s3"]()
    perms = {}
    for i, lbl in enumerate(labels):
        perms[i] = lbl
    # fixed points of the natural action, read off the cycle labels
    def fixed_points(lbl):
        if lbl == "e":
            return 3
        digits = [ch for ch in lbl if ch.isdigit()]
        return 3 - len(set(digits))

    chi2 = {i: field.from_rational(fixed_points(perms[i]) - 1) for i in a3_members}
    inv = {}
    for i in a3_members:
        for j in a3_members:
            if table[i][j] == labels.index("e"):
                inv[i] = j
    zeta = field.zeta
    e_idx = labels.index("e")
    g_idx = labels.index("(123)")
    g2_idx = labels.index("(132)")
    phis = {
        "triv": {e_idx: field.one, g_idx: field.one, g2_idx: field.one},
        "omega": {e_idx: field.one, g_idx: zeta, g2_idx: zeta ** 2},
        "omega2": {e_idx: field.one, g_idx: zeta ** 2, g2_idx: zeta},
    }
    third = field.from_rational(QQ(1, 3))
    out = {}
    for key, phi in phis.items():
        acc = field.zero
        for g in a3_members:
            acc = acc + chi2[g] * phi[inv[g]]
        out[key] = acc * third
    return out


def test_criterion_3_reciprocity(algebras, lattices):
    started = time.monotonic()
    for name in LATTICE_NAMES:
        for label, ctx in lattices[name]:
            table = reciprocity_table(ctx)  # asserts the triple equality
            for row in table.entries:
                assert all(v >= 0 for v in row)
    # classical S3/A3 branching from an independent group-character oracle
    s3 = algebras["s3"]
    a3 = coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])
    table = reciprocity_table(a3)
    _, labels = GROUP_TABLES["s3"]()
    a3_members = sorted(
        labels.index(l) for l in ("e", "(123)", "(132)")
    )
    oracle = _classical_s3_branching(s3, a3_members)
    assert oracle["triv"].is_zero()
    assert oracle["omega"].is_one()
    assert oracle["omega2"].is_one()
    i2 = table.h_degrees.index(2)
    row = table.entries[i2]
    assert row[0] == 0 and sorted(row[1:]) == [1, 1]  # chi_2 row is (0, 1, 1)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(3, "reciprocity triple equality + classical branching", started)


def test_criterion_4_induction_oracle(lattices):
    started = time.monotonic()
    for name in LATTICE_NAMES:
        for label, ctx in lattices[name]:
            chars = coideal_characters(ctx)
            for phi in chars.characters:
                direct = induce_character(ctx, phi, check=False)
                oracle = induce_character_by_trace(ctx, phi)
                assert vec_eq(direct, oracle), (name, label)
                assert induced_degree_identity(ctx, phi, direct), (name, label)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(4, "induction formula vs trace oracle", started)


def test_criterion_5_integral_identities(lattices):
    started = time.monotonic()
    for name in LATTICE_NAMES:
        for label, ctx in lattices[name]:
            H = ctx.hopf
            pair = H.integrals()
            assert vec_eq(H.antipode_of(ctx.integral), ctx.integral), (name, label)
            assert vec_eq(H.act_left(ctx.dual_integral, pair.integral), ctx.integral)
            assert H.pair(ctx.dual_integral, H.unit) == ctx.invariants.dim
            span_hit = Subspace.from_vectors(
                H.field, H.dim, [H.act_right(ctx.integral, H.basis(i)) for i in range(H.dim)]
            )
            span_act = Subspace.from_vectors(
                H.field, H.dim, [H.act_left(ctx.dual_integral, H.basis(i)) for i in range(H.dim)]
            )
            assert span_hit == ctx.space == span_act
    _report(5, "integral identities on every context", started)


def test_criterion_6_image_characterizations(lattices):
    started = time.monotonic()
    for name in LATTICE_NAMES:
        for label, ctx in lattices[name]:
            image = embedding_image(ctx)  # asserts the triple equality
            assert image.dim == ctx.dim
            if ctx.normal:
                induced_image(ctx)  # asserts its own triple equality
    _report(6, "image characterizations", started)


def test_criterion_7_solvability_consistency(algebras):
    started = time.monotonic()
    # classical group-solvability oracle vs the series checker
    for name in ("z2", "z6", "s3", "d4", "q8"):
        hopf = algebras[name]
        table, _ = GROUP_TABLES[name]()
        assert is_solvable_group(table)
        series = list(reversed(derived_series(table)))
        chain = [coideal_closure(hopf, [hopf.basis(i) for i in sorted(members)]) for members in series]
        if chain[0].dim != 1:
            chain = [coideal_closure(hopf, [])] + chain
        report = check_solvable_series(hopf, chain)
        assert report.ok, (name, report.verdict)
    # every nilpotent chain found also passes the solvability checker
    for name in corpus_names():
        hopf = algebras[name]
        nil = ascending_central_series(hopf)
        if nil.is_nilpotent:
            chain = [coideal_closure(hopf, [])] + [
                coideal_from_subspace(hopf, space) for space in nil.ascending_chain if space.dim > 1]
            ok, _ = check_nilpotent_criterion(hopf, chain)
            assert ok
            assert check_solvable_series(hopf, chain).ok
    # K and H//K solvable series concatenate for kA3 < kS3
    s3 = algebras["s3"]
    a3 = coideal_closure(s3, [s3.basis(s3.index_of_label("(123)"))])
    hq = quotient(s3, a3)
    q = hq.quotient
    q_report = check_solvable_series(
        q, [coideal_closure(q, []), coideal_from_subspace(q, Subspace.full(q.field, q.dim))]
    )
    assert q_report.ok
    lifted = check_solvable_series(s3, hq.lift_chain(q_report.chain))
    assert all(s.ok for s in lifted.steps)
    k_ctx = coideal_closure(s3, [])
    full_chain = [k_ctx] + lifted.chain
    assert check_solvable_series(s3, full_chain).ok
    _report(7, "solvability matches classical group theory", started)


def test_criterion_8_burnside_instances(algebras):
    started = time.monotonic()
    for name in ("s3", "d4", "q8", "d-z2"):
        hopf = algebras[name]
        assert hopf.r_matrix is not None
        report = find_solvable_series(hopf)
        assert report.ok, name
    big_started = time.monotonic()
    d_s3 = algebras["d-s3"]
    report = find_solvable_series(d_s3)
    assert report.ok
    assert report.chain[-1].dim == 36
    big_elapsed = time.monotonic() - big_started
    assert big_elapsed < 120.0
    # diagnostics available: grouplikes of the double and f_R evaluation
    groups = d_s3.grouplikes()
    assert len(groups) >= 2
    assert vec_eq(d_s3.f_r(d_s3.counit), d_s3.unit)
    dual_groups = d_s3.dual().grouplikes()
    group_set = {tuple(g) for g in groups}
    for eta in dual_groups:
        assert tuple(d_s3.f_r(eta)) in group_set
    _report(8, f"burnside instances (d-s3 in {big_elapsed:.1f}s)", started)


def test_criterion_9_structural_suite(algebras, lattices):
    started = time.monotonic()
    for name in corpus_names():
        hopf = algebras[name]
        assert hopf.verify().ok, name
        assert hopf.dual().dual().same_structure(hopf), name
        bundled, _ = load(name)
        assert bundled.same_structure(hopf), name
    for name in LATTICE_NAMES:
        hopf = algebras[name]
        for label, ctx in lattices[name]:
            assert hopf.dim % ctx.dim == 0, (name, label)
            if ctx.normal:
                hq = quotient(hopf, ctx)  # verify() runs inside
                assert hq.quotient.dim * ctx.dim == hopf.dim, (name, label)
    _report(9, "structural suite", started)
