"""Harmonic analysis stress test on the 36-dimensional double: the dual
function algebra sits inside as a normal coideal subalgebra of dimension 6
and every identity must hold there exactly."""

import pytest

from hopflab.coideal import coideal_closure
from hopflab.corpus import build
from hopflab.harmonic import (
    character_form,
    coideal_characters,
    embedding_image,
    induce_character,
    induced_degree_identity,
    induced_image,
    reciprocity_table,
)
from hopflab.linalg import vec_eq


@pytest.fixture(scope="module")
def d_s3():
    return build("d-s3")


@pytest.fixture(scope="module")
def function_part(d_s3):
    # p_a x 1 for all a: the dual of the underlying group algebra inside
    # its double
    s3 = build("s3")
    e_idx = s3.index_of_label("e")
    gens = [d_s3.basis(a * 6 + e_idx) for a in range(6)]
    ctx = coideal_closure(d_s3, gens)
    assert ctx.dim == 6
    return ctx


def test_function_part_is_normal_hopf(function_part):
    assert function_part.normal is True
    assert function_part.hopf_subalgebra is True
    assert function_part.invariants.dim == 6


def test_orthogonality_inside_double(function_part):
    chars = coideal_characters(function_part)
    assert chars.degrees == [1] * 6  # commutative coideal
    for i, p in enumerate(chars.characters):
        for j, q in enumerate(chars.characters):
            assert character_form(function_part, p, q) == (1 if i == j else 0)


def test_reciprocity_inside_double(d_s3, function_part):
    table = reciprocity_table(function_part)
    assert sorted(table.h_degrees) == [1, 1, 2, 2, 2, 2, 3, 3]
    # column sums weighted by degrees: dim B * deg phi_j
    for j, nd in enumerate(table.n_degrees):
        total = sum(d * table.entries[i][j] for i, d in enumerate(table.h_degrees))
        assert total == function_part.invariants.dim * nd


def test_induction_inside_double(d_s3, function_part):
    chars = coideal_characters(function_part)
    r_space = d_s3.characters_subspace()
    for phi in chars.characters:
        induced = induce_character(function_part, phi)  # trace oracle runs too
        assert r_space.contains_vector(induced)
        assert induced_degree_identity(function_part, phi, induced)


def test_images_inside_double(function_part):
    assert embedding_image(function_part).dim == 6
    image = induced_image(function_part)
    assert image.dim >= 1


def test_double_is_not_nilpotent(d_s3):
    from hopflab.solvability import ascending_central_series

    report = ascending_central_series(d_s3)
    assert not report.is_nilpotent
    # the Hopf center is the span of the two central grouplikes
    assert report.ascending_chain[0].dim == 2


def test_double_grouplike_count(d_s3):
    # grouplikes of the double = (dual grouplikes) x (grouplikes): 2 * 6
    assert len(d_s3.grouplikes()) == 12


def test_transposed_f_r(d_s3):
    # f_{R^t} of the unit functional is the unit, and it is anti-compatible
    # with grouplikes (it also lands on grouplikes here)
    assert vec_eq(d_s3.f_r(d_s3.counit, transposed=True), d_s3.unit)
    group_set = {tuple(g) for g in d_s3.grouplikes()}
    for eta in d_s3.dual().grouplikes():
        assert tuple(d_s3.f_r(eta, transposed=True)) in group_set


def test_quotient_of_double_by_function_part(d_s3, function_part):
    from hopflab.coideal import quotient

    hq = quotient(d_s3, function_part)
    q = hq.quotient
    assert q.dim == 6
    assert q.verify().ok
    # the quotient is the underlying group algebra: 6 grouplikes, degrees 1,1,2
    assert len(q.grouplikes()) == 6
    assert sorted(q.character_table().degrees) == [1, 1, 2]
    noncommutative = any(
        not vec_eq(q.multiply(q.basis(i), q.basis(j)), q.multiply(q.basis(j), q.basis(i)))
        for i in range(6) for j in range(6)
    )
    assert noncommutative  # like the underlying group algebra
