import random

import pytest

from hopflab.corpus import corpus_names
from hopflab.corpus import load as load_corpus
from hopflab.errors import InconsistentSystemError, NotSemisimpleError, NotSplitError
from hopflab.linalg import (
    _kernel_of_images,
    _first_idempotent_from_element,
    _trace_form,
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


def test_wedderburn_refuses_a_center_with_a_repeated_eigenvalue():
    # k[x]/(x^3 - x^2) on the basis 1, x, x^2: x^i x^j = x^min(i + j, 2)
    mult = [[{min(i + j, 2): Q.one} for j in range(3)] for i in range(3)]
    alg = AlgebraPresentation(Q, 3, mult, basis_vector(Q, 3, 0))
    assert alg.validate() == (True, None)
    with pytest.raises(NotSemisimpleError, match="repeated eigenvalue"):
        wedderburn(alg)


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


def test_split_by_element_with_repeated_root():
    # x = diag(1, 1, 2) + E_12 in M_3(Q) has minimal polynomial (x-1)^2 (x-2),
    # so the root 1 has a higher multiplicity than the degree of x - 2
    alg = _matrix_algebra_presentation(Q, 3)
    x = zero_vector(Q, 9)
    x[0], x[1], x[4], x[8] = Q.one, Q.one, Q.one, Q.scalar(2)
    assert minimal_polynomial(_dense_images(alg, lambda v: alg.multiply(x, v))) == [
        Q.scalar(-2), Q.scalar(5), Q.scalar(-4), Q.one]
    roots = [(Q.one, 2), (Q.scalar(2), 1)]
    e1 = _first_idempotent_from_element(alg, x, alg.unit, roots)
    e2 = _first_idempotent_from_element(alg, x, alg.unit, roots[::-1])
    for e in (e1, e2):
        assert vec_eq(alg.multiply(e, e), e)
    assert vec_eq(alg.multiply(e1, e2), zero_vector(Q, 9))
    assert vec_eq(alg.multiply(e2, e1), zero_vector(Q, 9))
    assert vec_eq([a + b for a, b in zip(e1, e2)], alg.unit)


def test_wedderburn_quaternions_not_split_over_q():
    alg = _quaternion_presentation(Q)
    with pytest.raises(NotSplitError, match="block of degree 2 at conductor 1") as excinfo:
        wedderburn(alg)
    assert str(excinfo.value).endswith(f"polynomial does not split: {excinfo.value.factor}")


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


def _random_scalar(rng, field):
    """Zero half of the time, else small integer coordinates in the power basis."""
    if rng.random() < 0.5:
        return field.zero
    return field.from_coeffs([rng.randint(-2, 2) for _ in range(field.degree)])


def _vec_sub(a, b):
    return [x - y for x, y in zip(a, b)]


def _image_of(dense, v, field):
    """sum_j v_j dense[j], the image of v under the map with rows dense[j]."""
    out = [field.zero] * len(dense[0])
    for vj, row in zip(v, dense):
        out = [o + vj * c for o, c in zip(out, row)]
    return out


@pytest.mark.parametrize("field", [Q, Q3], ids=["Q", "Q(zeta3)"])
def test_kernel_of_images_matches_dense_kernel(field):
    rng = random.Random(37)
    for _ in range(25):
        ncols, nout = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[_random_scalar(rng, field) for _ in range(nout)] for _ in range(ncols)]
        ker = _kernel_of_images(field, [dict(enumerate(row)) for row in dense])
        assert ker == kernel([list(col) for col in zip(*dense)], field, ncols)
        assert ker.dim == ncols - echelonize(dense, field, nout).dim
        for v in ker.basis:
            assert all(c.is_zero() for c in _image_of(dense, v, field))
    # the zero map: every vector is in the kernel
    assert _kernel_of_images(field, [{} for _ in range(3)]) == Subspace.full(field, 3)
    assert _kernel_of_images(field, [{"x": field.zero}] * 2) == Subspace.full(field, 2)
    # two maps stacked by tagging their keys: the joint kernel
    for _ in range(10):
        ncols = rng.randint(1, 5)
        f = [{k: _random_scalar(rng, field) for k in range(2)} for _ in range(ncols)]
        g = [{k: _random_scalar(rng, field) for k in range(3)} for _ in range(ncols)]
        stacked = [
            {**{("f", key): c for key, c in fj.items()}, **{("g", key): c for key, c in gj.items()}}
            for fj, gj in zip(f, g)
        ]
        joint = _kernel_of_images(field, f).intersect(_kernel_of_images(field, g))
        assert _kernel_of_images(field, stacked) == joint


SMALL_CORPUS = [name for name in corpus_names() if name != "d-s3"]


def _dense_images(algebra, image_of_basis_vector):
    """The matrix (rows = images of e_j) of a map given on basis vectors."""
    return [image_of_basis_vector(basis_vector(algebra.field, algebra.dim, j)) for j in range(algebra.dim)]


def _dense_kernel(algebra, image_of_basis_vector):
    dense = _dense_images(algebra, image_of_basis_vector)
    return kernel([list(col) for col in zip(*dense)], algebra.field, algebra.dim)


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_center_and_integral_match_dense_oracles(name):
    H, _ = load_corpus(name, verify=False)
    assert H.dim <= 8
    for alg, counit in ((H, H.counit), (H.dual(), H.unit)):
        basis = [basis_vector(alg.field, alg.dim, i) for i in range(alg.dim)]

        def commutators(x):
            return [c for e in basis for c in _vec_sub(alg.multiply(e, x), alg.multiply(x, e))]

        center = alg.center()
        assert center == _dense_kernel(alg, commutators)
        for z in center.basis:
            assert all(c.is_zero() for c in commutators(list(z)))

        def integral_defect(x):
            return [c for e, eps in zip(basis, counit)
                    for c in _vec_sub(alg.multiply(e, x), [eps * xi for xi in x])]

        line = _dense_kernel(alg, integral_defect)
        assert line.dim == 1
        x = list(line.basis[0])
        eps_x = sum((c * xi for c, xi in zip(counit, x)), alg.field.zero)
        # the trace-form solve T x = eps that finds the integral of a
        # coideal subalgebra, against the dense kernel line
        solution, rest = solve_linear(_trace_form(alg), counit, alg.field)
        assert rest.dim == 0
        assert solution == [xi * eps_x.inverse() for xi in x]
