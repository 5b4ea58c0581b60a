import pytest

from hopflab.errors import InconsistentSystemError, NotSplitError
from hopflab.linalg import (
    AlgebraPresentation,
    Subspace,
    basis_vector,
    echelonize,
    kernel,
    minimal_polynomial,
    primitive_idempotent_in_block,
    solve_linear,
    subspace_op,
    vec_eq,
    wedderburn,
    zero_vector,
)
from hopflab.scalars import CyclotomicField

Q = CyclotomicField(1)
Q3 = CyclotomicField(3)
Q4 = CyclotomicField(4)


def s(field, *vals):
    return [field.scalar(v) for v in vals]


def test_echelonize_examples():
    sub = echelonize([s(Q, 2, 0), s(Q, 0, 3)], Q, 2)
    assert sub.basis == (tuple(s(Q, 1, 0)), tuple(s(Q, 0, 1)))
    sub = echelonize([s(Q, 1, 1), s(Q, 2, 2)], Q, 2)
    assert sub.dim == 1 and sub.basis[0] == tuple(s(Q, 1, 1))
    assert echelonize([], Q, 4).dim == 0


def test_subspace_ops():
    u = echelonize([s(Q, 1, 0)], Q, 2)
    v = echelonize([s(Q, 0, 1)], Q, 2)
    assert subspace_op(u, u, "intersect") == u
    assert subspace_op(u, v, "sum") == Subspace.full(Q, 2)
    assert subspace_op(u, v, "contains") is False
    assert subspace_op(u, u, "equal") is True
    # dim-6 ambient, coordinates standing for S3 group elements
    a = echelonize([basis_vector(Q, 6, 0), basis_vector(Q, 6, 1)], Q, 6)
    b = echelonize([basis_vector(Q, 6, 0), basis_vector(Q, 6, 2)], Q, 6)
    cap = a.intersect(b)
    assert cap.dim == 1 and cap.basis[0] == tuple(basis_vector(Q, 6, 0))


def test_subspace_ambient_mismatch():
    from hopflab.errors import AmbientMismatchError

    with pytest.raises(AmbientMismatchError):
        echelonize([s(Q, 1)], Q, 1).add(echelonize([s(Q, 1, 0)], Q, 2))


def test_solve_linear():
    eye = [s(Q, 1, 0), s(Q, 0, 1)]
    x, ker = solve_linear(eye, s(Q, 5, 7), Q)
    assert x == s(Q, 5, 7) and ker.dim == 0
    x, ker = solve_linear([s(Q, 0, 0)], s(Q, 0), Q)
    assert x == s(Q, 0, 0) and ker.dim == 2
    x, ker = solve_linear([s(Q, 1, 1)], s(Q, 1), Q)
    assert x == s(Q, 1, 0)
    assert ker.dim == 1 and ker.basis[0] == tuple(s(Q, 1, -1))
    with pytest.raises(InconsistentSystemError):
        solve_linear([s(Q, 1, 1), s(Q, 1, 1)], s(Q, 1, 2), Q)


def test_kernel():
    ker = kernel([s(Q, 1, 2, 3)], Q)
    assert ker.dim == 2
    for row in ker.basis:
        assert (row[0] + 2 * row[1] + 3 * row[2]).is_zero()


def test_minimal_polynomial_examples():
    eye3 = [basis_vector(Q, 3, i) for i in range(3)]
    assert minimal_polynomial(eye3) == [-Q.one, Q.one]  # x - 1
    diag = [s(Q, 1, 0), s(Q, 0, -1)]
    assert minimal_polynomial(diag) == [-Q.one, Q.zero, Q.one]  # x^2 - 1
    cycle = [basis_vector(Q3, 3, 1), basis_vector(Q3, 3, 2), basis_vector(Q3, 3, 0)]
    assert minimal_polynomial(cycle) == [-Q3.one, Q3.zero, Q3.zero, Q3.one]  # x^3 - 1


def _group_algebra_presentation(field, table):
    n = len(table)
    mult = [[{table[i][j]: field.one} for j in range(n)] for i in range(n)]
    unit = basis_vector(field, n, 0)
    return AlgebraPresentation(field, n, mult, unit)


def _matrix_algebra_presentation(field, d):
    # basis E_{ab} indexed a*d+b; E_ab E_cd = delta_bc E_ad
    n = d * d
    mult = [[{} for _ in range(n)] for _ in range(n)]
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    if b == c:
                        mult[a * d + b][c * d + e] = {a * d + e: field.one}
    unit = zero_vector(field, n)
    for a in range(d):
        unit[a * d + a] = field.one
    return AlgebraPresentation(field, n, mult, unit)


def _quaternion_presentation(field):
    # basis 1, i, j, k with i^2 = j^2 = -1, ij = k = -ji
    one = field.one
    m = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    mult = [[{} for _ in range(4)] for _ in range(4)]
    for (i, j), (k, sign) in m.items():
        mult[i][j] = {k: field.scalar(sign)}
    return AlgebraPresentation(field, 4, mult, basis_vector(field, 4, 0))


def test_wedderburn_trivial_algebra():
    alg = _group_algebra_presentation(Q, [[0]])
    assert alg.validate() == (True, None)
    data = wedderburn(alg)
    assert data.degrees == [1]
    assert data.central_idempotents == [[Q.one]]


def test_wedderburn_kz2():
    alg = _group_algebra_presentation(Q, [[0, 1], [1, 0]])
    assert alg.validate() == (True, None)
    data = wedderburn(alg)
    assert sorted(data.degrees) == [1, 1]
    half = Q.scalar("1/2")
    assert {tuple(e) for e in data.central_idempotents} == {
        (half, half), (half, -half),
    }


def test_wedderburn_kz3_over_zeta3():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    alg = _group_algebra_presentation(Q3, table)
    assert alg.validate() == (True, None)
    data = wedderburn(alg)
    assert data.degrees == [1, 1, 1]
    unit = zero_vector(Q3, 3)
    total = unit
    for e in data.central_idempotents:
        assert vec_eq(alg.multiply(e, e), e)
        total = [a + b for a, b in zip(total, e)]
    assert vec_eq(total, alg.unit)


def test_wedderburn_matrix_algebra():
    alg = _matrix_algebra_presentation(Q, 2)
    assert alg.validate() == (True, None)
    data = wedderburn(alg)
    assert data.degrees == [2]
    assert vec_eq(data.central_idempotents[0], alg.unit)
    t = data.block_primitive_idempotents[0]
    assert vec_eq(alg.multiply(t, t), t)
    left_ideal = echelonize(
        [alg.multiply(basis_vector(Q, 4, i), t) for i in range(4)], Q, 4
    )
    assert left_ideal.dim == 2


def test_wedderburn_quaternions_not_split_over_q():
    alg = _quaternion_presentation(Q)
    with pytest.raises(NotSplitError):
        wedderburn(alg)


def test_wedderburn_quaternions_split_over_zeta4():
    alg = _quaternion_presentation(Q4)
    data = wedderburn(alg)
    assert data.degrees == [2]
    t = data.block_primitive_idempotents[0]
    assert vec_eq(alg.multiply(t, t), t)
    left_ideal = echelonize(
        [alg.multiply(basis_vector(Q4, 4, i), t) for i in range(4)], Q4, 4
    )
    assert left_ideal.dim == 2


def test_primitive_idempotent_in_commutative_block():
    alg = _group_algebra_presentation(Q, [[0, 1], [1, 0]])
    data = wedderburn(alg)
    for e, t in zip(data.central_idempotents, data.block_primitive_idempotents):
        assert vec_eq(e, t)
        assert vec_eq(primitive_idempotent_in_block(alg, e), e)


def test_wedderburn_s3_block_idempotent():
    # the degree-2 block of the order-6 symmetric group algebra yields a
    # non-central t with E t = t and dim(A t) = 2
    from hopflab.builders import group_algebra, symmetric3_table

    table, labels = symmetric3_table()
    s3 = group_algebra(table, conductor=3, labels=labels)
    alg = s3
    data = wedderburn(alg)
    assert sorted(data.degrees) == [1, 1, 2]
    i2 = data.degrees.index(2)
    e, t = data.central_idempotents[i2], data.block_primitive_idempotents[i2]
    assert vec_eq(alg.multiply(e, t), t)
    assert vec_eq(alg.multiply(t, e), t)
    left_ideal = echelonize([alg.multiply(basis_vector(s3.field, 6, i), t) for i in range(6)], s3.field, 6)
    assert left_ideal.dim == 2
    # t is not central
    assert any(
        not vec_eq(alg.multiply(t, basis_vector(s3.field, 6, i)),
                   alg.multiply(basis_vector(s3.field, 6, i), t))
        for i in range(6)
    )
    # orthogonality across blocks: T_i t_j = delta_ij t_j
    for i, ei in enumerate(data.central_idempotents):
        for j, tj in enumerate(data.block_primitive_idempotents):
            prod = alg.multiply(ei, tj)
            if i == j:
                assert vec_eq(prod, tj)
            else:
                assert all(c.is_zero() for c in prod)


def test_subspace_dimension_formula():
    import random

    rng = random.Random(23)
    for _ in range(15):
        ambient = rng.randint(1, 5)
        def rand_space():
            k = rng.randint(0, ambient)
            vecs = [
                [Q.scalar(rng.randint(-2, 2)) for _ in range(ambient)]
                for _ in range(k)
            ]
            return echelonize(vecs, Q, ambient)
        u, v = rand_space(), rand_space()
        total = u.add(v)
        meet = u.intersect(v)
        assert total.dim + meet.dim == u.dim + v.dim
        assert total.contains(u) and total.contains(v)
        assert u.contains(meet) and v.contains(meet)


def test_solve_linear_roundtrip_property():
    import random

    rng = random.Random(29)
    for _ in range(10):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[Q.scalar(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        x = [Q.scalar(rng.randint(-3, 3)) for _ in range(cols)]
        b = [sum((ri * xi for ri, xi in zip(row, x)), Q.zero) for row in a]
        sol, ker = solve_linear(a, b, Q)
        check = [sum((ri * xi for ri, xi in zip(row, sol)), Q.zero) for row in a]
        assert check == b
        for kv in ker.basis:
            img = [sum((ri * xi for ri, xi in zip(row, kv)), Q.zero) for row in a]
            assert all(c.is_zero() for c in img)
        # the actual preimage coset: sol - x lies in the kernel
        diff = [s - xi for s, xi in zip(sol, x)]
        assert ker.contains_vector(diff)


def test_wedderburn_idempotents_are_orthogonal_central():
    table = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    alg = _group_algebra_presentation(Q3, table)
    data = wedderburn(alg)
    es = data.central_idempotents
    assert len(es) == 6
    for i, e in enumerate(es):
        for j, f in enumerate(es):
            prod = alg.multiply(e, f)
            if i == j:
                assert vec_eq(prod, e)
            else:
                assert all(c.is_zero() for c in prod)
