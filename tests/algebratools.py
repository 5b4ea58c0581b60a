"""Dense references, the independent oracles for the library's sparse
checks: the algebra axioms of HopfAlgebra.verify(), the two conditions of
a solvable-series step, the two normality tests of a coideal subalgebra
and the check that a quotient's projection is a Hopf map.  Every product
is taken with the algebra's own multiply (or adjoint) on dense vectors,
one basis element (or pair, or triple) at a time."""

from hopflab.errors import HopfLabError
from hopflab.linalg import basis_vector, mat_vec, vec_eq, vec_scale, zero_vector
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


def dense_check_projection_is_hopf_map(hopf, hq):
    """Raise HopfLabError unless pi: H -> H//N, given by hq's rows pi(e_i),
    intertwines the coproduct, counit and antipode and is an algebra map;
    the rows are read densely and pi(e_i e_j) is projected from a dense
    vector."""
    q = hq.quotient
    pi = [[row.get(k, hopf.field.zero) for k in range(q.dim)] for row in hq._pi]
    for i in range(hopf.dim):
        pushed = {}
        for (j, k), c in hopf.comult[i].items():
            for x, cx in enumerate(pi[j]):
                for y, cy in enumerate(pi[k]):
                    pushed[(x, y)] = pushed.get((x, y), hopf.field.zero) + c * cx * cy
        if q.comult_of(pi[i]) != {xy: c for xy, c in pushed.items() if not c.is_zero()}:
            raise HopfLabError("projection does not intertwine comultiplication")
        if q.counit_of(pi[i]) != hopf.counit[i]:
            raise HopfLabError("projection does not preserve the counit")
        if not vec_eq(q.antipode_of(pi[i]), mat_vec(pi, hopf.antipode[i])):
            raise HopfLabError("projection does not intertwine the antipode")
    for i in range(hopf.dim):
        for j in range(hopf.dim):
            prod = zero_vector(hopf.field, hopf.dim)
            for k, c in hopf.mult[i][j].items():
                prod[k] = c
            if not vec_eq(mat_vec(pi, prod), q.multiply(pi[i], pi[j])):
                raise HopfLabError("projection is not an algebra map")
