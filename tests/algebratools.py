"""Dense references for the algebra axioms, the independent oracle for the
integer-slice checks of HopfAlgebra.verify(): every product is taken with
the algebra's own multiply, one basis element (or pair, or triple) at a
time."""

from hopflab.linalg import basis_vector, vec_eq


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
