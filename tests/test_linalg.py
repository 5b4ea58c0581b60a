import copy
import random

import pytest

from algebratools import dense_central_blocks, dense_is_two_sided_integral, dense_witnesses, sweedler_h4
from moduletools import operator_on_subspace

from hopflab import linalg
from hopflab.builders import cyclic_group_table, group_algebra, permutation_group_table, quaternion_table
from hopflab.coideal import coideal_closure
from hopflab.corpus import coideal_lattice, corpus_names, subgroups_of_table
from hopflab.corpus import load as load_corpus
from hopflab.errors import InconsistentSystemError, NotSemisimpleError, NotSplitError
from hopflab.linalg import (
    _central_blocks,
    _corner_candidates,
    _is_two_sided_integral,
    _kernel_of_images,
    _trace_form,
    AlgebraPresentation,
    Subspace,
    basis_vector,
    echelonize,
    kernel,
    minimal_polynomial,
    primitive_idempotent_in_block,
    solve_linear,
    vec_eq,
    wedderburn,
    zero_vector,
)
from hopflab.scalars import QQ, CyclotomicField, poly_from_roots

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
    assert u.intersect(u) == u
    assert u.add(v) == Subspace.full(Q, 2)
    assert u.contains(v) is False
    assert (u == u) is True
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
    mult = [{j: {table[i][j]: field.one} for j in range(n)} for i in range(n)]
    unit = basis_vector(field, n, 0)
    return AlgebraPresentation(field, n, mult, unit)


def _matrix_algebra_presentation(field, d):
    # basis E_{ab} indexed a*d+b; E_ab E_cd = delta_bc E_ad
    n = d * d
    mult = [{} for _ in range(n)]
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
    mult = [{} for _ in range(4)]
    for (i, j), (k, sign) in m.items():
        mult[i][j] = {k: field.scalar(sign)}
    return AlgebraPresentation(field, 4, mult, basis_vector(field, 4, 0))


def test_wedderburn_refuses_a_center_with_a_repeated_eigenvalue():
    # k[x]/(x^3 - x^2) on the basis 1, x, x^2: x^i x^j = x^min(i + j, 2)
    mult = [{j: {min(i + j, 2): Q.one} for j in range(3)} for i in range(3)]
    alg = AlgebraPresentation(Q, 3, mult, basis_vector(Q, 3, 0))
    assert dense_witnesses(alg) == (None, None)
    with pytest.raises(NotSemisimpleError, match="repeated eigenvalue"):
        _central_blocks(alg)
    with pytest.raises(NotSemisimpleError, match="repeated eigenvalue"):
        wedderburn(alg)


def test_wedderburn_trivial_algebra():
    alg = _group_algebra_presentation(Q, [[0]])
    assert dense_witnesses(alg) == (None, None)
    data = wedderburn(alg)
    assert data.degrees == [1]
    assert data.central_idempotents == [[Q.one]]


def test_wedderburn_kz2():
    alg = _group_algebra_presentation(Q, [[0, 1], [1, 0]])
    assert dense_witnesses(alg) == (None, None)
    data = wedderburn(alg)
    assert sorted(data.degrees) == [1, 1]
    half = Q.scalar("1/2")
    assert {tuple(e) for e in data.central_idempotents} == {
        (half, half), (half, -half),
    }


def test_wedderburn_kz3_over_zeta3():
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    alg = _group_algebra_presentation(Q3, table)
    assert dense_witnesses(alg) == (None, None)
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
    assert dense_witnesses(alg) == (None, None)
    data = wedderburn(alg)
    assert data.degrees == [2]
    assert vec_eq(data.central_idempotents[0], alg.unit)
    t = data.block_primitive_idempotents[0]
    assert vec_eq(alg.multiply(t, t), t)
    left_ideal = echelonize(
        [alg.multiply(basis_vector(Q, 4, i), t) for i in range(4)], Q, 4
    )
    assert left_ideal.dim == 2


def _m3_with_first_basis_element(field, x):
    """M_3 on the basis x, then every matrix unit E_ab but E_00; x is a
    3 x 3 integer matrix with x[0][0] = 1, so these nine form a basis."""
    units = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    basis = [x] + [[[int((i, j) == ab) for j in range(3)] for i in range(3)] for ab in units]

    def coords(m):
        c = m[0][0]  # only x has an E_00 entry, and it is 1
        cell = {0: field.scalar(c)} if c else {}
        for n, (a, b) in enumerate(units, 1):
            if m[a][b] != c * x[a][b]:
                cell[n] = field.scalar(m[a][b] - c * x[a][b])
        return cell

    def matmul(p, q):
        return [[sum(p[i][k] * q[k][j] for k in range(3)) for j in range(3)] for i in range(3)]

    mult = [{j: cell for j, q in enumerate(basis) if (cell := coords(matmul(p, q)))} for p in basis]
    unit = coords([[int(i == j) for j in range(3)] for i in range(3)])
    return AlgebraPresentation(field, 9, mult, [unit.get(n, field.zero) for n in range(9)])


@pytest.mark.parametrize("x, roots", [
    ([[1, 1, 0], [0, 1, 0], [0, 0, 2]], [(1, 2), (2, 1)]),  # diag(1, 1, 2) + E_12: (X-1)^2 (X-2)
    ([[1, 1, 0], [0, 1, 0], [0, 0, 1]], [(1, 2)]),  # 1 + E_12: (X-1)^2, a single root
], ids=["two-roots", "one-root"])
def test_primitive_idempotent_splits_at_a_repeated_root(monkeypatch, x, roots):
    # x is the first corner candidate of M_3 on this basis; z = x - r for a
    # root r is a zero divisor whatever the multiplicities, so the first
    # split is at the left ideal M_3 z, and one root is enough
    alg = _m3_with_first_basis_element(Q, x)
    x0 = basis_vector(Q, 9, 0)
    assert minimal_polynomial(_dense_images(alg, lambda v: alg.multiply(x0, v))) == poly_from_roots(
        Q, [(Q.scalar(r), m) for r, m in roots])
    ideals = []
    original = linalg._idempotent_generator

    def spy(algebra, ideal):
        ideals.append(ideal)
        return original(algebra, ideal)

    monkeypatch.setattr(linalg, "_idempotent_generator", spy)
    t = primitive_idempotent_in_block(alg, alg.unit)
    zero_divisor_ideals = []
    for r, _ in roots:
        z = [a - Q.scalar(r) * u for a, u in zip(x0, alg.unit)]
        zero_divisor_ideals.append(echelonize([alg.multiply(basis_vector(Q, 9, i), z) for i in range(9)], Q, 9))
    assert ideals[0] in zero_divisor_ideals
    assert vec_eq(alg.multiply(t, t), t)
    assert echelonize([alg.multiply(basis_vector(Q, 9, i), t) for i in range(9)], Q, 9).dim == 3


def test_wedderburn_splits_kf20_at_conductor_4():
    # F20 = Z5 : Z4 has four linear characters over Q(i) and one of degree 4
    table, labels = permutation_group_table([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], 5)
    alg = group_algebra(table, conductor=4, labels=labels)
    field = alg.field
    data = wedderburn(alg)
    assert data.degrees == [1, 1, 4, 1, 1]
    for i, (e, d) in enumerate(zip(data.central_idempotents, data.degrees)):
        t = data.block_primitive_idempotents[i]
        assert vec_eq(alg.multiply(t, t), t)
        for j, f in enumerate(data.central_idempotents):
            assert vec_eq(alg.multiply(f, t), t if i == j else zero_vector(field, 20))
        assert echelonize([alg.multiply(basis_vector(field, 20, k), t) for k in range(20)],
                          field, 20).dim == d


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


def _random_sparse_rows(rng, field, nrows, ncols):
    """Sparse rows without zero values, among them zero rows and
    combinations of two earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append({})
        elif kind < 0.4 and rows:
            rows.append(linalg._combination([rng.choice(rows), rng.choice(rows)],
                                            {0: _random_scalar(rng, field), 1: _random_scalar(rng, field)}))
        else:
            row = {j: _random_scalar(rng, field) for j in range(ncols) if rng.random() < 0.5}
            rows.append({j: c for j, c in row.items() if not c.is_zero()})
    return rows


def test_subspace_matches_sympy_rref():
    import sympy
    rng = random.Random(41)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_sparse_rows(rng, Q, nrows, ncols)
        space = Subspace.from_vectors(Q, ncols, rows)
        matrix = sympy.Matrix([[sympy.Rational(row[j].num[0], row[j].den) if j in row else 0
                                for j in range(ncols)] for row in rows])
        reduced, pivots = matrix.rref()
        assert space.pivots == tuple(pivots)
        assert [list(row) for row in space.basis] == [
            [QQ(int(c.p), int(c.q)) for c in reduced.row(i)] for i in range(len(pivots))]


def test_echelon_rows_over_zeta3_are_reduced_and_canonical():
    rng = random.Random(43)
    for _ in range(40):
        ncols = rng.randint(1, 7)
        rows = _random_sparse_rows(rng, Q3, rng.randint(1, 7), ncols)
        space = Subspace.from_vectors(Q3, ncols, rows)
        for p, row in zip(space.pivots, space.sparse_basis):
            assert row[p].is_one()
            assert not any(q in row for q in space.pivots if q != p)
        assert not any(space.residual(row) for row in rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert Subspace.from_vectors(Q3, ncols, shuffled) == space


def test_operations_leave_their_operands_unchanged():
    # reduction enters fresh copies only: the rows of every Subspace it
    # reads, shared by design, stay as they were
    rng = random.Random(47)
    u = Subspace.from_vectors(Q3, 6, _random_sparse_rows(rng, Q3, 8, 6))
    v = Subspace.from_vectors(Q3, 6, _random_sparse_rows(rng, Q3, 8, 6))
    coords = Subspace.from_vectors(Q3, u.dim, _random_sparse_rows(rng, Q3, 4, u.dim))
    table, _ = permutation_group_table([(1, 0, 2), (1, 2, 0)], 3)
    alg = _group_algebra_presentation(Q3, table)
    gens = Subspace.from_vectors(Q3, alg.dim, [{1: Q3.one, 2: -Q3.one}])
    operands = [u, v, coords, gens]
    before = copy.deepcopy([(op.sparse_basis, op._rows) for op in operands])
    assert 0 < coords.dim < u.dim < 6 and 0 < v.dim < 6
    Subspace.from_vectors(Q3, 6, u.sparse_basis)
    u.add(v)
    u.intersect(v)
    u.lift(coords)
    for row in v.sparse_basis + u.sparse_basis:
        u.residual(row)
        u.sparse_coords(row)
    assert linalg._subalgebra_generated(alg, gens.sparse_basis).dim < alg.dim
    assert [(op.sparse_basis, op._rows) for op in operands] == before


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
        form = [[row.get(j, alg.field.zero) for j in range(alg.dim)] for row in _trace_form(alg)]
        solution, rest = solve_linear(form, counit, alg.field)
        assert rest.dim == 0
        assert solution == [xi * eps_x.inverse() for xi in x]


# -- the center split and the integral certificate against dense oracles ------

PERMUTATION_ALGEBRAS = {"kS4": ([(1, 0, 2, 3), (1, 2, 3, 0)], 1, False),
                        "kA4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 3, False),
                        "k^A4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 3, True),
                        "k^D6": ([(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)], 3, True)}


def _permutation_algebra(name):
    generators, conductor, dual = PERMUTATION_ALGEBRAS[name]
    table, labels = permutation_group_table(generators, len(generators[0]))
    H = group_algebra(table, conductor=conductor, labels=labels, name=name)
    return H.dual() if dual else H


def _central_block_cases():
    """(id, algebra): every corpus algebra, four permutation-group
    algebras and duals, and the presentations of every proper coideal
    subalgebra of kD4 and kQ8."""
    for name in corpus_names():
        yield name, load_corpus(name, verify=False)[0]
    for name in PERMUTATION_ALGEBRAS:
        yield name, _permutation_algebra(name)
    for name in ("d4", "q8"):
        H = load_corpus(name, verify=False)[0]
        for label, ctx in coideal_lattice(name, H):
            if ctx.space.dim < H.dim:
                yield f"{name} {label}", ctx.presentation()


@pytest.mark.parametrize("case", list(_central_block_cases()), ids=lambda case: case[0])
def test_central_blocks_match_the_dense_refinement(case):
    _, alg = case
    assert _central_blocks(alg) == dense_central_blocks(alg)


@pytest.mark.parametrize("name", ["d-s3", "kS4", "k^D6"])
def test_central_blocks_factor_each_polynomial_once(monkeypatch, name):
    calls = []
    factor = linalg.factor_into_linears

    def recorded(p, field=None):
        calls.append(tuple(p))
        return factor(p, field)
    monkeypatch.setattr(linalg, "factor_into_linears", recorded)
    counts = []
    for _ in range(2):
        calls.clear()
        fresh = _permutation_algebra(name) if name in PERMUTATION_ALGEBRAS else load_corpus(name)[0]
        _central_blocks(fresh)
        assert calls
        assert len(set(calls)) == len(calls)
        assert all(len(p) > 2 for p in calls)
        counts.append(len(calls))
    # two fresh loads factor equally often: no root dict outlives a call
    assert counts[0] == counts[1]


def _central_block_algebra(name):
    return _permutation_algebra(name) if name in PERMUTATION_ALGEBRAS else load_corpus(name, verify=False)[0]


@pytest.mark.parametrize("name", ["kS4", "d-s3"])
def test_central_blocks_square_no_line_in_the_algebra(monkeypatch, name):
    # the split and the line certificates share the products z_i z_j of
    # the center's echelon rows, each formed once: no ambient line is squared
    alg = _central_block_algebra(name)
    calls = []
    product = AlgebraPresentation.sparse_product

    def counted(self, x, y):
        calls.append((x, y))
        return product(self, x, y)
    monkeypatch.setattr(AlgebraPresentation, "sparse_product", counted)
    dim_z = alg.center().dim
    _central_blocks(alg)
    assert 0 < len(calls) <= dim_z * (dim_z + 1) // 2
    rows = [dict(row) for row in alg.center().sparse_basis]
    assert all(x in rows and y in rows for x, y in calls)


@pytest.mark.parametrize("name", corpus_names() + ["kS4"])
def test_central_blocks_refuse_a_wrong_root(monkeypatch, name):
    # a root off by one is no root of p, or lands on another root: the split
    # certifies its roots before any line certificate or division by p'(r)
    factor = linalg.factor_into_linears

    def wrong(p, field=None):
        (root, mult), *rest = factor(p, field)
        return [(root + field.one, mult), *rest]
    monkeypatch.setattr(linalg, "factor_into_linears", wrong)
    with pytest.raises(NotSemisimpleError,
                       match="a minimal polynomial does not vanish at its root|"
                             "a minimal polynomial's roots are not distinct"):
        _central_blocks(_central_block_algebra(name))


@pytest.mark.parametrize("name", corpus_names())
def test_central_blocks_solve_only_for_the_center(monkeypatch, name):
    # the split reads spectral idempotents off Krylov sequences: no kernel
    # per root and no minimal polynomial of a block matrix
    calls = {"kernel": 0, "minimal polynomial": 0}
    kernel_of_images, minimal = linalg._kernel_of_images, linalg.minimal_polynomial

    def counted_kernel(*args):
        calls["kernel"] += 1
        return kernel_of_images(*args)

    def counted_minimal(*args):
        calls["minimal polynomial"] += 1
        return minimal(*args)
    monkeypatch.setattr(linalg, "_kernel_of_images", counted_kernel)
    monkeypatch.setattr(linalg, "minimal_polynomial", counted_minimal)
    _central_blocks(_central_block_algebra(name))
    assert calls == {"kernel": 1, "minimal polynomial": 0}


def _krylov_polynomial(alg, x, e):
    """The least monic p with p(x) e = 0, by the library's Krylov routine."""
    return linalg._krylov(lambda v: alg.sparse_product(x, v), e, alg.field)[0]


def _sparse_unit(alg):
    return {k: c for k, c in enumerate(alg.unit) if not c.is_zero()}


@pytest.mark.parametrize("name", corpus_names() + list(PERMUTATION_ALGEBRAS))
def test_krylov_polynomial_of_the_unit_is_the_minimal_polynomial_on_the_center(name):
    # p(L_z) = 0 on the commutative center Z exactly when p(z) 1 = 0
    alg = _central_block_algebra(name)
    center = alg.center()
    for z in center.sparse_basis:
        assert _krylov_polynomial(alg, z, _sparse_unit(alg)) == minimal_polynomial(
            operator_on_subspace(alg, z, center), alg.field)


def _corner_cases():
    """(id, algebra, corner unit e, corner eAe): the whole of M_3 on the
    two bases of the repeated-root tests and of the quaternions (e = 1),
    and the degree-2 block of kS3 (e its central idempotent)."""
    for label, x in (("M3 two-roots", [[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
                     ("M3 one-root", [[1, 1, 0], [0, 1, 0], [0, 0, 1]])):
        alg = _m3_with_first_basis_element(Q, x)
        yield label, alg, _sparse_unit(alg), Subspace.full(Q, 9)
    alg = _quaternion_presentation(Q)
    yield "quaternions", alg, _sparse_unit(alg), Subspace.full(Q, 4)
    H = load_corpus("s3", verify=False)[0]
    idempotents, degrees, _ = _central_blocks(H)
    e = {k: c for k, c in enumerate(idempotents[degrees.index(2)]) if not c.is_zero()}
    yield "kS3 degree 2", H, e, Subspace.from_vectors(
        H.field, H.dim, [H.sparse_product({i: H.field.one}, e) for i in range(H.dim)])


@pytest.mark.parametrize("case", list(_corner_cases()), ids=lambda case: case[0])
def test_krylov_polynomial_of_the_corner_unit_is_the_minimal_polynomial_on_the_corner(case):
    # p(L_x) = 0 on eAe exactly when p(x) e = 0, for every candidate x
    _, alg, e, corner = case
    count = 0
    for x in _corner_candidates(alg, corner.sparse_basis):
        assert _krylov_polynomial(alg, x, e) == minimal_polynomial(
            operator_on_subspace(alg, x, corner), alg.field)
        count += 1
    assert count == corner.dim ** 2 + corner.dim * (corner.dim - 1) // 2


def test_krylov_sequence_of_a_repeated_root():
    # k[x]/(x^3 - x^2) on the basis 1, x, x^2: the powers of x on the unit
    # are 1, x, x^2, and x^3 = x^2 gives x^2 (x - 1)
    mult = [{j: {min(i + j, 2): Q.one} for j in range(3)} for i in range(3)]
    alg = AlgebraPresentation(Q, 3, mult, basis_vector(Q, 3, 0))
    p, powers = linalg._krylov(lambda v: alg.sparse_product({1: Q.one}, v), {0: Q.one}, Q)
    assert p == poly_from_roots(Q, [(Q.zero, 2), (Q.one, 1)]) == [Q.zero, Q.zero, -Q.one, Q.one]
    assert powers == [{0: Q.one}, {1: Q.one}, {2: Q.one}]


def _unsplit_cases():
    """(id, algebra) over Q, whose centers do not split over Q: kZ3, kZ5,
    kF20, and the coideal subalgebra kZ4 of kQ8."""
    for name, (table, labels) in (("kZ3", cyclic_group_table(3)), ("kZ5", cyclic_group_table(5)),
                                  ("kF20", permutation_group_table([(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)], 5))):
        yield name, group_algebra(table, conductor=1, labels=labels)
    table, labels = quaternion_table()
    H = group_algebra(table, conductor=1, labels=labels)
    z4 = next(members for members in subgroups_of_table(table) if len(members) == 4)
    yield "q8 kZ4", coideal_closure(H, [H.basis(i) for i in z4]).presentation()


@pytest.mark.parametrize("case", list(_unsplit_cases()), ids=lambda case: case[0])
def test_central_blocks_name_the_unsplit_factor_of_the_dense_refinement(case):
    # the same polynomials, on the same blocks and in the same order, as
    # the parent's refinement: the first that does not split is the same
    _, alg = case
    with pytest.raises(NotSplitError) as ours:
        _central_blocks(alg)
    with pytest.raises(NotSplitError) as dense:
        dense_central_blocks(alg)
    assert ours.value.factor == dense.value.factor


def _dense(alg, row):
    return [row.get(k, alg.field.zero) for k in range(alg.dim)]


def _certificates(alg, x, rows, counit):
    """(library verdict on sparse rows, dense oracle's verdict)."""
    dense = [_dense(alg, row) for row in rows]
    return _is_two_sided_integral(alg, x, rows, counit), dense_is_two_sided_integral(alg, x, dense, counit)


def test_two_sided_integral_refuses_a_left_integral_of_sweedlers_algebra():
    # x + gx is a left integral of Sweedler's algebra but not a right one:
    # (x + gx) g = -(x + gx)
    alg = sweedler_h4()
    counit = alg.counit
    zero, one = alg.field.zero, alg.field.one
    left = [zero, zero, one, one]
    ambient = Subspace.full(alg.field, 4).sparse_basis
    # span{1, g} is a left coideal subalgebra: Delta(g) = g (x) g
    group_rows = Subspace.from_vectors(alg.field, 4, [alg.unit, [zero, one, zero, zero]]).sparse_basis
    assert _certificates(alg, left, ambient, counit) == (False, False)
    assert _certificates(alg, left, group_rows, counit[:2]) == (False, False)
    # it does pass the left half of the check
    assert all(vec_eq(alg.multiply(_dense(alg, b), left), [c * eps for c in left])
               for b, eps in zip(ambient, counit))


@pytest.mark.parametrize("name", SMALL_CORPUS)
def test_two_sided_integral_refuses_a_tampered_integral(name):
    # Lambda + e_k, checked on the ambient basis and on the echelon rows of
    # each catalogued coideal subalgebra N of dim > 1 (on k1 every x is an
    # integral).  The library agrees with the dense oracle on every k; on
    # the ambient basis the integrals form the line of Lambda, so every k
    # with Lambda_k = 0 must be refused.
    H, _ = load_corpus(name, verify=False)
    contexts = [(Subspace.full(H.field, H.dim), H.integrals().integral)]
    contexts += [(ctx.space, ctx.integral) for _, ctx in coideal_lattice(name, H) if ctx.space.dim > 1]
    for space, integral in contexts:
        rows = space.sparse_basis
        counit = [H.counit_of(_dense(H, row)) for row in rows]
        assert _certificates(H, integral, rows, counit) == (True, True)
        refused = set()
        for k in range(H.dim):
            tampered = list(integral)
            tampered[k] = tampered[k] + H.field.one
            verdict, oracle = _certificates(H, tampered, rows, counit)
            assert verdict == oracle
            if not verdict:
                refused.add(k)
        assert refused
        if space.dim == H.dim:
            assert refused >= {k for k, c in enumerate(integral) if c.is_zero()}
