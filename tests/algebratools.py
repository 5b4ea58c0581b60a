"""Dense references, the independent oracles for the library's sparse
checks: the algebra axioms of HopfAlgebra.verify(), the two-sided integral
certificate, the split of the center into central primitive idempotents,
the two conditions of a solvable-series step, the two normality tests of a
coideal subalgebra and the check that a quotient's projection is a Hopf
map.  Every product is taken with the algebra's own multiply (or adjoint)
on dense vectors, one basis element (or pair, or triple) at a time.  The
lift of a coideal subalgebra from a quotient has its own oracle, through
the invariants correspondence, and the Drinfeld double's product has one
through dense hit actions.  Also here: Sweedler's algebra, the
non-semisimple input of the refusal tests."""

import math

from hopflab.coideal import _invariants, invariants_of
from hopflab.errors import HopfLabError
from hopflab.hopf import HopfAlgebra
from hopflab.linalg import (
    Subspace,
    _tensor_add,
    _to_dense,
    _to_sparse,
    basis_vector,
    kernel,
    mat_vec,
    minimal_polynomial,
    vec_eq,
    vec_scale,
    zero_vector,
)
from hopflab.scalars import CyclotomicField, factor_into_linears
from hopflab.solvability import StepResult


def dense_unit_witness(alg):
    """First i with 1 e_i != e_i or e_i 1 != e_i, else None."""
    for i in range(alg.dim):
        e = basis_vector(alg.field, alg.dim, i)
        if not (vec_eq(alg.multiply(alg.unit, e), e) and vec_eq(alg.multiply(e, alg.unit), e)):
            return i
    return None


def dense_associativity_witness(alg):
    """First (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), else None."""
    e = [basis_vector(alg.field, alg.dim, i) for i in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                lhs = alg.multiply(alg.multiply(e[i], e[j]), e[k])
                rhs = alg.multiply(e[i], alg.multiply(e[j], e[k]))
                if not vec_eq(lhs, rhs):
                    return i, j, k
    return None


def dense_witnesses(alg):
    """(unit witness, associativity witness); (None, None) when the algebra
    is unital and associative."""
    return dense_unit_witness(alg), dense_associativity_witness(alg)


def sweedler_h4():
    """Sweedler's 4-dimensional Hopf algebra over Q on 1, g, x, gx: g^2 = 1,
    x^2 = 0, xg = -gx, g grouplike, Delta(x) = x (x) 1 + g (x) x.  It is
    not semisimple, and its antipode has order 4."""
    field = CyclotomicField(1)
    one, minus = field.one, -field.one
    products = {(0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
                (1, 0): (1, one), (1, 1): (0, one), (1, 2): (3, one), (1, 3): (2, one),
                (2, 0): (2, one), (2, 1): (3, minus), (3, 0): (3, one), (3, 1): (2, minus)}
    mult = [{} for _ in range(4)]
    for (i, j), (k, c) in products.items():
        mult[i][j] = {k: c}
    comult = [{(0, 0): one}, {(1, 1): one}, {(2, 0): one, (1, 2): one}, {(3, 1): one, (0, 3): one}]
    zero = field.zero
    antipode = [{0: one}, {1: one}, {3: minus}, {2: one}]
    return HopfAlgebra(field, 4, mult, [one, zero, zero, zero], comult,
                       [one, one, zero, zero], antipode, name="H4")


def dense_is_two_sided_integral(alg, x, basis, counit):
    """b x = x b = eps(b) x for every dense vector b of basis, whose counit
    values are given in the same order."""
    return all(vec_eq(alg.multiply(b, x), vec_scale(x, eps)) and vec_eq(alg.multiply(x, b), vec_scale(x, eps))
               for b, eps in zip(basis, counit))


def dense_central_blocks(alg):
    """(central primitive idempotents E_i, degrees d_i, characters chi_i)
    by refining the center along every one of its echelon rows, a dense
    refiner, factoring every minimal polynomial met on the way, each block
    cut by the kernels of (L_z - r) for the roots r; then each line scaled
    to its idempotent E, d^2 = tr(L_E) and chi(e_j) = tr(L_{e_j E}) / d,
    every trace summed from dense products.  AssertionError when the
    algebra is not split semisimple."""
    field, dim = alg.field, alg.dim
    center = alg.center()
    blocks = [center]
    for z in center.basis:
        refined = []
        for blk in blocks:
            if blk.dim == 1:
                refined.append(blk)
                continue
            op = [blk.coords_of(alg.multiply(list(z), list(b))) for b in blk.basis]
            roots = factor_into_linears(minimal_polynomial(op, field), field)
            assert all(mult == 1 for _, mult in roots)
            if len(roots) == 1:
                refined.append(blk)
                continue
            for root, _ in roots:
                shifted = [[c - root if i == j else c for j, c in enumerate(row)] for i, row in enumerate(op)]
                refined.append(blk.lift(kernel([list(col) for col in zip(*shifted)], field, blk.dim)))
        blocks = refined
    assert all(blk.dim == 1 for blk in blocks)
    e = [basis_vector(field, dim, k) for k in range(dim)]

    def trace(x):
        return sum((alg.multiply(x, e[k])[k] for k in range(dim)), field.zero)

    idempotents, degrees, characters = [], [], []
    for blk in blocks:
        u = list(blk.basis[0])
        u2 = alg.multiply(u, u)
        theta = u2[blk.pivots[0]]
        assert not theta.is_zero() and vec_eq(u2, vec_scale(u, theta))
        idem = vec_scale(u, theta.inverse())
        d2 = trace(idem).integer_value()
        d = math.isqrt(d2)
        assert d * d == d2
        inv_d = field.from_rational(d).inverse()
        idempotents.append(idem)
        degrees.append(d)
        characters.append([trace(alg.multiply(e[j], idem)) * inv_d for j in range(dim)])
    return idempotents, degrees, characters


def dense_step_conditions(prev, nxt):
    """StepResult of (i) b Lambda = Lambda b and (ii) (a ad b) Lambda =
    eps(a) b Lambda on the echelon basis of nxt, Lambda the integral of
    prev; (ii) runs only when (i) holds, and the witness is the first
    failing row, or pair in row-major order."""
    H = prev.hopf
    lam = prev.integral
    basis = [list(b) for b in nxt.space.basis]
    for r, b in enumerate(basis):
        if not vec_eq(H.multiply(b, lam), H.multiply(lam, b)):
            return StepResult(False, True, ("central", r))
    right_lam = [H.multiply(b, lam) for b in basis]
    for r, a in enumerate(basis):
        eps_a = H.counit_of(a)
        for s, b in enumerate(basis):
            if not vec_eq(H.multiply(H.adjoint(a, b), lam), vec_scale(right_lam[s], eps_a)):
                return StepResult(True, False, ("adjoint", (r, s)))
    return StepResult(True, True)


def dense_normality_pair(hopf, space, integral):
    """(e_i ad b in the space for every i and basis vector b, e_i Lambda =
    Lambda e_i for every i)."""
    by_adjoint = all(
        space.contains_vector(hopf.adjoint(hopf.basis(i), list(b)))
        for i in range(hopf.dim)
        for b in space.basis
    )
    by_center = all(
        vec_eq(hopf.multiply(hopf.basis(i), integral), hopf.multiply(integral, hopf.basis(i)))
        for i in range(hopf.dim)
    )
    return by_adjoint, by_center


def dense_check_hopf_map(source, target, f, what):
    """Raise HopfLabError unless f: source -> target, given by the sparse
    rows f(e_i), intertwines the coproduct, counit and antipode and is an
    algebra map, calling the map `what`; the rows are read densely, every
    product e_i e_j is read, and f(e_i e_j) is taken of a dense vector."""
    rows = [[row.get(k, target.field.zero) for k in range(target.dim)] for row in f]
    for i in range(source.dim):
        pushed = {}
        for (j, k), c in source.comult[i].items():
            for x, cx in enumerate(rows[j]):
                for y, cy in enumerate(rows[k]):
                    pushed[(x, y)] = pushed.get((x, y), target.field.zero) + c * cx * cy
        if target.comult_of(rows[i]) != {xy: c for xy, c in pushed.items() if not c.is_zero()}:
            raise HopfLabError(f"{what} does not intertwine comultiplication")
        if target.counit_of(rows[i]) != source.counit[i]:
            raise HopfLabError(f"{what} does not preserve the counit")
        if not vec_eq(target.antipode_of(rows[i]), mat_vec(rows, source.antipode_of(source.basis(i)))):
            raise HopfLabError(f"{what} does not intertwine the antipode")
    for i in range(source.dim):
        for j in range(source.dim):
            prod = zero_vector(source.field, source.dim)
            for k, c in source.mult[i].get(j, {}).items():
                prod[k] = c
            if not vec_eq(mat_vec(rows, prod), target.multiply(rows[i], rows[j])):
                raise HopfLabError(f"{what} is not an algebra map")


def invariants_lift(hq, subspace):
    """The left coideal subalgebra of H holding N that projects onto the
    coideal subalgebra `subspace` of H//N, through the invariants
    correspondence: the invariants of the quotient's dual are pulled back
    along the projection, and their invariants in H are taken, after
    invariants_of checks that the pull-back is a subalgebra of H*."""
    hopf = hq.hopf
    bbar = _invariants(hq.quotient.dual(), subspace)
    pulled = [[sum((c * b[k] for k, c in pi_i.items() if k in b), hopf.field.zero) for pi_i in hq._pi]
              for b in bbar.sparse_basis]
    return invariants_of(hopf, Subspace.from_vectors(hopf.field, hopf.dim, pulled))


def hit_action_double_mult(H):
    """mult of the Drinfeld double D(H) on the basis p_a x e_i, index
    a dim + i, one quadruple (a, i, b, j) at a time: the product of p_a x e_i
    and p_b x e_j is the sum over Delta^2(e_i) = sum c e_u x e_v x e_w of
    c p_a q x e_v e_j, where q = e_u -> (p_b <- S(e_w)) is taken by two
    dense hit actions on H*, so q at e_k is <p_b, S(e_w) e_k e_u>."""
    Hd = H.dual()
    dim, field = H.dim, H.field

    def didx(a, i):
        return a * dim + i

    delta2 = []
    for i in range(dim):
        t3 = {}
        for (u, x), c in H.comult[i].items():
            for (v, w), d in H.comult[x].items():
                _tensor_add(t3, (u, v, w), c * d)
        delta2.append(t3)

    q_cache = {}

    def sandwich(u, w, b):
        key = (u, w, b)
        if key not in q_cache:
            s_w = _to_dense(H.antipode[w], dim, field)
            q_cache[key] = _to_sparse(Hd.act_left(H.basis(u), Hd.act_right(H.basis(b), s_w)))
        return q_cache[key]

    mult = [{} for _ in range(dim * dim)]
    for a in range(dim):
        p_a = {a: field.one}
        for i in range(dim):
            row = mult[didx(a, i)]
            for b in range(dim):
                for j in range(dim):
                    out = {}
                    for (u, v, w), c in delta2[i].items():
                        pa_q = Hd.sparse_product(p_a, sandwich(u, w, b))
                        if not pa_q:
                            continue
                        for mp, cm in H.mult[v].get(j, {}).items():
                            f = c * cm
                            for cd, cq in pa_q.items():
                                _tensor_add(out, didx(cd, mp), f * cq)
                    if out:
                        row[didx(b, j)] = out
    return mult
