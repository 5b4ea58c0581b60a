"""Exact dense/sparse linear algebra over cyclotomic scalars.

Vectors are sequences of Scalars; subspaces are stored as reduced
row-echelon bases so that equality of subspaces is equality of matrices.
The structure-constant systems this library produces are very sparse, so
the elimination core works on dict-rows keyed by column.

Also here: Wedderburn decomposition of a split semisimple algebra given by
structure constants (central primitive idempotents, block degrees, one
primitive idempotent per block).
"""

from __future__ import annotations

import math

from .errors import (
    AmbientMismatchError,
    InconsistentSystemError,
    IntegralError,
    NotSemisimpleError,
    NotSplitError,
)
from .scalars import (
    Scalar,
    factor_into_linears,
    poly_divmod,
    poly_extgcd,
    poly_from_roots,
    poly_mul,
    poly_trim,
)

# -- vector helpers -----------------------------------------------------------


def zero_vector(field, n):
    return [field.zero] * n


def basis_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def vec_add(a, b):
    return [x + y for x, y in zip(a, b)]


def vec_scale(a, s):
    return [x * s for x in a]


def vec_is_zero(a):
    return all(x.is_zero() for x in a)


def vec_eq(a, b):
    return all(x == y for x, y in zip(a, b))


def mat_vec(m, v):
    """Rows of m are images of basis vectors: (m @ v)[j] = sum_i v[i]*m[i][j]."""
    n = len(m[0]) if m else 0
    field = v[0].field
    out = [field.zero] * n
    for i, vi in enumerate(v):
        if vi.is_zero():
            continue
        row = m[i]
        for j, c in enumerate(row):
            if not c.is_zero():
                out[j] = out[j] + vi * c
    return out


def _to_sparse(vec):
    return {j: c for j, c in enumerate(vec) if not c.is_zero()}


def _to_dense(row, n, field):
    out = [field.zero] * n
    for j, c in row.items():
        out[j] = c
    return out


# -- sparse reduced row echelon -----------------------------------------------


def _sparse_rref(rows, field):
    """Full RREF of dict-rows.  Returns list of (pivot_col, row_dict) sorted
    by pivot column."""
    pivots: dict[int, dict] = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                inv = row[lead].inverse()
                if not inv.is_one():
                    row = {c: v * inv for c, v in row.items()}
                pivots[lead] = row
                break
            f = row.pop(lead)
            for c, v in pivots[lead].items():
                if c == lead:
                    continue
                cur = row.get(c)
                nv = v * (-f) if cur is None else cur - f * v
                if nv.is_zero():
                    row.pop(c, None)
                else:
                    row[c] = nv
    # back-substitution for full reduction
    for p in sorted(pivots, reverse=True):
        prow = pivots[p]
        for q, qrow in pivots.items():
            if q >= p or p not in qrow:
                continue
            f = qrow.pop(p)
            for c, v in prow.items():
                if c == p:
                    continue
                cur = qrow.get(c)
                nv = v * (-f) if cur is None else cur - f * v
                if nv.is_zero():
                    qrow.pop(c, None)
                else:
                    qrow[c] = nv
    return sorted(pivots.items())


def rref(vectors, field, ambient=None):
    """Canonical echelon basis of the span.  Returns (rows, pivot columns)."""
    vectors = list(vectors)
    if ambient is None:
        if not vectors:
            raise ValueError("ambient dimension required for empty input")
        ambient = len(vectors[0])
    reduced = _sparse_rref([_to_sparse(v) for v in vectors], field)
    rows = [_to_dense(r, ambient, field) for _, r in reduced]
    return rows, [p for p, _ in reduced]


class Subspace:
    """Subspace of k^n held as a reduced row-echelon basis.

    Two subspaces are equal iff their echelon matrices are identical.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = tuple(tuple(row) for row in basis)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        rows, pivots = rref(vectors, field, ambient)
        return cls(field, ambient, rows, pivots)

    @classmethod
    def full(cls, field, ambient):
        return cls.from_vectors(field, ambient, [basis_vector(field, ambient, i) for i in range(ambient)])

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, [], [])

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(c.coeffs for c in row) for row in self.basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def _check_ambient(self, other):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(f"ambient {self.ambient} vs {other.ambient}")

    def coords_of(self, vec):
        """Coordinates of vec in the echelon basis, or None if not in span."""
        coords = [vec[p] for p in self.pivots]
        residual = list(vec)
        for c, row in zip(coords, self.basis):
            if c.is_zero():
                continue
            for j, r in enumerate(row):
                if not r.is_zero():
                    residual[j] = residual[j] - c * r
        if not vec_is_zero(residual):
            return None
        return coords

    def contains_vector(self, vec):
        return self.coords_of(vec) is not None

    def contains(self, other):
        self._check_ambient(other)
        return all(self.contains_vector(row) for row in other.basis)

    def add(self, other):
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other):
        """Exact intersection: combos of self.basis equal to combos of
        other.basis, read off from the kernel of the stacked bases."""
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        rows = []
        k = self.dim
        for j in range(self.ambient):
            row = {}
            for i, b in enumerate(self.basis):
                if not b[j].is_zero():
                    row[i] = b[j]
            for i, b in enumerate(other.basis):
                if not b[j].is_zero():
                    row[k + i] = -b[j]
            if row:
                rows.append(row)
        ker = _kernel_from_rows(rows, self.field, k + other.dim)
        vecs = []
        for sol in ker:
            vec = zero_vector(self.field, self.ambient)
            for i in range(k):
                if not sol[i].is_zero():
                    vec = vec_add(vec, vec_scale(self.basis[i], sol[i]))
            vecs.append(vec)
        return Subspace.from_vectors(self.field, self.ambient, vecs)

    def quotient_coords(self, vec):
        """Coordinates of vec + self in the canonical complement (the
        non-pivot coordinates after reduction by the echelon basis)."""
        residual = list(vec)
        for p, row in zip(self.pivots, self.basis):
            c = residual[p]
            if c.is_zero():
                continue
            for j, r in enumerate(row):
                if not r.is_zero():
                    residual[j] = residual[j] - c * r
        return [residual[j] for j in range(self.ambient) if j not in set(self.pivots)]


def subspace_op(u: Subspace, v: Subspace, op: str):
    """Lattice operations by name: intersect, sum, contains, equal."""
    if op == "intersect":
        return u.intersect(v)
    if op == "sum":
        return u.add(v)
    if op == "contains":
        u._check_ambient(v)
        return u.contains(v)
    if op == "equal":
        u._check_ambient(v)
        return u == v
    raise ValueError(f"unknown subspace op {op!r}")


def _kernel_from_rows(rows, field, ncols):
    """Kernel basis (echelonized) of a system given by sparse equation rows."""
    reduced = _sparse_rref(rows, field)
    pivot_cols = [p for p, _ in reduced]
    pivot_set = set(pivot_cols)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    vecs = []
    for f in free_cols:
        v = zero_vector(field, ncols)
        v[f] = field.one
        for p, row in reduced:
            c = row.get(f)
            if c is not None:
                v[p] = -c
        vecs.append(v)
    rows2, pivots2 = rref(vecs, field, ncols) if vecs else ([], [])
    return [tuple(r) for r in rows2]


def kernel(matrix_rows, field, ncols=None):
    """Kernel of a matrix given as dense equation rows."""
    if ncols is None:
        ncols = len(matrix_rows[0])
    sparse = [_to_sparse(r) for r in matrix_rows]
    vecs = _kernel_from_rows(sparse, field, ncols)
    return Subspace.from_vectors(field, ncols, vecs)


def solve_linear(matrix_rows, rhs, field):
    """One exact solution of A x = b plus the kernel of A.

    Raises InconsistentSystemError when no solution exists.
    """
    ncols = len(matrix_rows[0]) if matrix_rows else len(rhs)
    aug = []
    for row, b in zip(matrix_rows, rhs):
        r = _to_sparse(row)
        if not b.is_zero():
            r[ncols] = b
        aug.append(r)
    reduced = _sparse_rref(aug, field)
    particular = zero_vector(field, ncols)
    for p, row in reduced:
        if p == ncols:
            raise InconsistentSystemError("no solution")
        c = row.get(ncols)
        if c is not None:
            particular[p] = c
    ker_rows = [{c: v for c, v in row.items() if c != ncols} for _, row in reduced]
    ker = _kernel_from_rows([dict(r) for r in ker_rows], field, ncols)
    return particular, Subspace.from_vectors(field, ncols, ker)


def echelonize(vectors, field, ambient):
    """Canonical Subspace spanned by the vectors (empty input -> zero space)."""
    return Subspace.from_vectors(field, ambient, vectors)


# -- minimal polynomial -------------------------------------------------------


def minimal_polynomial(matrix, field=None):
    """Least-degree monic p with p(M) = 0, by exact linear dependence of
    powers of M."""
    n = len(matrix)
    if field is None:
        field = matrix[0][0].field
    if n == 0:
        return [field.one]
    # reduced vectors together with the combination that produced them
    reduced = []  # list of (dict vector, coeff list over powers)
    power = [basis_vector(field, n, i) for i in range(n)]  # identity

    def flat(m):
        return {i * n + j: m[i][j] for i in range(n) for j in range(n) if not m[i][j].is_zero()}

    k = 0
    while True:
        vec = flat(power)
        combo = [field.zero] * (k + 1)
        combo[k] = field.one
        for rvec, rcombo in reduced:
            lead = min(rvec)
            c = vec.get(lead)
            if c is None:
                continue
            for col, v in rvec.items():
                cur = vec.get(col)
                nv = v * (-c) if cur is None else cur - c * v
                if nv.is_zero():
                    vec.pop(col, None)
                else:
                    vec[col] = nv
            for i, v in enumerate(rcombo):
                combo[i] = combo[i] - c * v
        if not vec:
            return poly_trim(combo)
        lead = min(vec)
        inv = vec[lead].inverse()
        if not inv.is_one():
            vec = {c: v * inv for c, v in vec.items()}
            combo = [v * inv for v in combo]
        reduced.append((vec, combo))
        # next power
        power = [mat_vec(matrix, row) for row in power]
        k += 1
        if k > n * n + 1:  # cannot happen; dependence by dimension count
            raise RuntimeError("minimal polynomial search did not terminate")


# -- algebra presentations ----------------------------------------------------


class AlgebraPresentation:
    """Associative unital algebra by structure constants.

    mult[i][j] is a sparse dict {k: c} meaning e_i * e_j = sum_k c e_k.
    """

    def __init__(self, field, dim, mult, unit):
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = list(unit)

    def multiply(self, x, y):
        out = zero_vector(self.field, self.dim)
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            row = self.mult[i]
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                f = xi * yj
                for k, c in row[j].items():
                    out[k] = out[k] + f * c
        return out

    def validate(self):
        """Associativity on basis triples and two-sided unit."""
        i = self._unit_witness()
        if i is not None:
            return False, ("unit", i)
        ijk = self._associativity_witness()
        if ijk is not None:
            return False, ("associativity", ijk)
        return True, None

    def _unit_witness(self):
        """First i with 1 e_i != e_i or e_i 1 != e_i, else None."""
        for i in range(self.dim):
            e = basis_vector(self.field, self.dim, i)
            if not (vec_eq(self.multiply(self.unit, e), e) and vec_eq(self.multiply(e, self.unit), e)):
                return i
        return None

    def _associativity_witness(self):
        """First (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), else None."""
        e = [basis_vector(self.field, self.dim, i) for i in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.multiply(e[i], e[j])
                for k in range(self.dim):
                    if not vec_eq(self.multiply(ij, e[k]), self.multiply(e[i], self.multiply(e[j], e[k]))):
                        return i, j, k
        return None

    def center(self) -> Subspace:
        """Solutions of e_i x = x e_i for all i."""
        rows = []
        for i in range(self.dim):
            # commutator matrix of e_i: column j |-> e_i e_j - e_j e_i
            for k in range(self.dim):
                row = {}
                for j in range(self.dim):
                    c = self.mult[i][j].get(k, self.field.zero)
                    d = self.mult[j][i].get(k, self.field.zero)
                    diff = c - d
                    if not diff.is_zero():
                        row[j] = diff
                if row:
                    rows.append(row)
        vecs = _kernel_from_rows(rows, self.field, self.dim)
        return Subspace.from_vectors(self.field, self.dim, vecs)


def _subalgebra_presentation(algebra, space: Subspace, unit):
    """The subalgebra on a subspace's echelon basis, with the given unit,
    as an AlgebraPresentation in that basis's coordinates; None when the
    unit or a product of two basis vectors leaves the subspace."""
    unit_coords = space.coords_of(unit)
    if unit_coords is None:
        return None
    basis = [list(b) for b in space.basis]
    mult = []
    for a in basis:
        row = []
        for b in basis:
            coords = space.coords_of(algebra.multiply(a, b))
            if coords is None:
                return None
            row.append({k: c for k, c in enumerate(coords) if not c.is_zero()})
        mult.append(row)
    return AlgebraPresentation(algebra.field, space.dim, mult, unit_coords)


def _solve_integral(algebra, counit):
    """The integral of an algebra with a counit: the unique x with
    e_i x = eps(e_i) x for every i, normalized so that eps(x) = 1."""
    dim, field = algebra.dim, algebra.field
    rows = []
    for i in range(dim):
        eps = counit[i]
        for m in range(dim):
            row = {}
            for j in range(dim):
                c = algebra.mult[i][j].get(m, field.zero)
                if j == m:
                    c = c - eps
                if not c.is_zero():
                    row[j] = c
            if row:
                rows.append(row)
    sols = _kernel_from_rows(rows, field, dim)
    if not sols:
        raise IntegralError("no integral: solution space is zero")
    if len(sols) > 1:
        raise IntegralError("integral is not unique: solution space has dim > 1")
    x = list(sols[0])
    eps_x = field.zero
    for c, xi in zip(counit, x):
        eps_x = eps_x + c * xi
    if eps_x.is_zero():
        raise IntegralError("integral has counit zero; input is not semisimple")
    return vec_scale(x, eps_x.inverse())


class WedderburnData:
    """Central primitive idempotents, block degrees, and one primitive
    idempotent per block (T_i t_j = delta_ij t_j)."""

    def __init__(self, central_idempotents, degrees, block_primitive_idempotents):
        self.central_idempotents = central_idempotents
        self.degrees = degrees
        self.block_primitive_idempotents = block_primitive_idempotents

    def __len__(self):
        return len(self.central_idempotents)


def _left_ideal(algebra, t) -> Subspace:
    """The left ideal A t, spanned by the products e_i t."""
    return Subspace.from_vectors(
        algebra.field, algebra.dim,
        [algebra.multiply(basis_vector(algebra.field, algebra.dim, i), t) for i in range(algebra.dim)],
    )


def _operator_on_subspace(algebra, x, space: Subspace):
    """Matrix (rows = images) of left multiplication by x restricted to a
    multiplication-invariant subspace, in that subspace's basis."""
    rows = []
    for b in space.basis:
        img = algebra.multiply(x, list(b))
        coords = space.coords_of(img)
        if coords is None:
            raise NotSemisimpleError("subspace not invariant under multiplication")
        rows.append(coords)
    return rows


def _split_commutative_block(algebra, block: Subspace, refiners):
    """Refine a block of the center into joint eigenspaces of multiplication
    by the given central elements.  Returns list of Subspaces."""
    blocks = [block]
    for z in refiners:
        nxt = []
        for blk in blocks:
            if blk.dim == 1:
                nxt.append(blk)
                continue
            op = _operator_on_subspace(algebra, z, blk)
            p = minimal_polynomial(op, algebra.field)
            roots = factor_into_linears(p, algebra.field)
            if len(roots) == 1:
                nxt.append(blk)
                continue
            for root, mult in roots:
                # generalized eigenspace inside blk
                m = [list(r) for r in op]
                for i in range(blk.dim):
                    m[i][i] = m[i][i] - root
                power = m
                for _ in range(mult - 1):
                    power = [mat_vec(m, row) for row in power]
                ker = kernel([list(r) for r in zip(*power)], algebra.field, blk.dim)
                # note: rows of `power` are images of basis vectors, so the
                # operator's matrix acting on coordinate columns is its transpose
                vecs = []
                for sol in ker.basis:
                    vec = zero_vector(algebra.field, algebra.dim)
                    for i, c in enumerate(sol):
                        if not c.is_zero():
                            vec = vec_add(vec, vec_scale(blk.basis[i], c))
                    vecs.append(vec)
                sub = Subspace.from_vectors(algebra.field, algebra.dim, vecs)
                if sub.dim:
                    nxt.append(sub)
        blocks = nxt
    return blocks


def wedderburn(algebra: AlgebraPresentation) -> WedderburnData:
    """Wedderburn data of a split semisimple algebra.

    The center is cut into one-dimensional joint eigenspaces by iterated
    refinement along its echelon basis (deterministic), each line is scaled
    to its idempotent, degrees come from integer square roots of block
    dimensions, and a primitive idempotent is extracted per block.
    """
    field = algebra.field
    center = algebra.center()
    lines = _split_commutative_block(algebra, center, [list(b) for b in center.basis])
    if any(blk.dim != 1 for blk in lines):
        raise NotSemisimpleError("center did not split into lines")

    idempotents = []
    for blk in lines:
        u = list(blk.basis[0])
        u2 = algebra.multiply(u, u)
        theta = None
        for j, c in enumerate(u[: algebra.dim]):
            if not c.is_zero():
                theta = u2[j] / c
                break
        if theta is None or theta.is_zero():
            raise NotSemisimpleError("nilpotent central element found")
        if not vec_eq(u2, vec_scale(u, theta)):
            raise NotSemisimpleError("central line is not closed under squaring")
        idempotents.append(vec_scale(u, theta.inverse()))

    degrees = []
    primitives = []
    for e in idempotents:
        d2 = _left_ideal(algebra, e).dim
        d = math.isqrt(d2)
        if d * d != d2:
            raise NotSemisimpleError(f"block dimension {d2} is not a perfect square")
        degrees.append(d)
        t = primitive_idempotent_in_block(algebra, e) if d > 1 else list(e)
        if _left_ideal(algebra, t).dim != d or not vec_eq(algebra.multiply(t, t), t):
            raise NotSemisimpleError("block idempotent is not primitive")
        primitives.append(t)
    return WedderburnData(idempotents, degrees, primitives)


def _corner_candidates(algebra, corner_basis):
    """Deterministic candidate elements of e*A*e used to split a block:
    basis elements, then pairwise sums, then pairwise products."""
    vecs = [list(b) for b in corner_basis]
    for v in vecs:
        yield v
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            yield vec_add(vecs[i], vecs[j])
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            if i != j:
                yield algebra.multiply(vecs[i], vecs[j])


def primitive_idempotent_in_block(algebra: AlgebraPresentation, central_idempotent):
    """A primitive idempotent t with t*T = t inside the block of the given
    central primitive idempotent T.

    Iteratively splits the corner e*A*e along deterministic candidates whose
    minimal polynomial factors, until the corner collapses to one dimension.
    """
    field = algebra.field
    e = list(central_idempotent)
    while True:
        corner_vecs = []
        for i in range(algebra.dim):
            v = algebra.multiply(algebra.multiply(e, basis_vector(field, algebra.dim, i)), e)
            corner_vecs.append(v)
        corner = Subspace.from_vectors(field, algebra.dim, corner_vecs)
        if corner.dim == 1:
            return e
        split = None
        not_split_error = None
        for x in _corner_candidates(algebra, corner.basis):
            op = _operator_on_subspace(algebra, x, corner)
            p = minimal_polynomial(op, field)
            try:
                roots = factor_into_linears(p, field)
            except NotSplitError as err:
                not_split_error = err
                continue
            if len(roots) < 2:
                continue
            split = _orthogonal_idempotents_from_element(algebra, x, e, roots)
            break
        if split is None:
            if not_split_error is not None:
                raise not_split_error
            raise NotSemisimpleError("block admits no splitting element")
        e = split[0]


def _orthogonal_idempotents_from_element(algebra, x, e, roots):
    """Chinese-remainder idempotents of k[x] inside the corner algebra with
    unit e, ordered by root sort key."""
    field = algebra.field
    full = poly_from_roots(field, roots)
    idems = []
    for root, mult in roots:
        g = poly_from_roots(field, [(root, mult)])
        h, _ = poly_divmod(full, g)
        # invert h modulo g, then idempotent = (s*h)(x)
        gcd, s, _ = poly_extgcd(h, g)
        if len(gcd) != 1:
            raise NotSemisimpleError("idempotent construction failed")
        sh = poly_mul(s, h)
        _, sh = poly_divmod(sh, full)
        idems.append(_eval_poly_in_algebra(algebra, sh, x, e))
    total = idems[0]
    for f in idems[1:]:
        total = vec_add(total, f)
    if not vec_eq(total, e):
        raise NotSemisimpleError("idempotents do not sum to the corner unit")
    return idems


def _eval_poly_in_algebra(algebra, p, x, unit_vec):
    """Evaluate a scalar polynomial at an algebra element; the constant term
    multiplies the given local unit."""
    out = vec_scale(unit_vec, p[-1]) if p else zero_vector(algebra.field, algebra.dim)
    for c in reversed(p[:-1]):
        out = algebra.multiply(out, x)
        out = vec_add(out, vec_scale(unit_vec, c))
    return out
