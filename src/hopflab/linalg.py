"""Exact dense/sparse linear algebra over cyclotomic scalars.

Vectors are sequences of Scalars; subspaces are stored as reduced
row-echelon bases so that equality of subspaces is equality of matrices.
The structure-constant systems this library produces are very sparse, so
the elimination core works on dict-rows keyed by column.

Two conventions hold throughout the library:

- A solution space is written as the kernel of a linear map given by the
  images of the basis vectors, each a sparse dict {output key: Scalar}, and
  solved by `_kernel_of_images`, which transposes the images into equation
  rows for `_kernel_from_rows`, the one kernel routine.
- A linear combination sum_i c_i v_i is `mat_vec([v_0, v_1, ...], c)`.

Also here: Wedderburn data of a semisimple algebra given by structure
constants.  The central part -- central primitive idempotents E_i and
degrees d_i, with d_i^2 = tr(L_{E_i}) -- and the characters
chi_i(x) = tr(L_{x E_i}) / d_i come from the center and the regular trace
alone.  A primitive idempotent per block is a separate, costlier step that
needs each block split over the field; only `wedderburn` takes it, after
the central part.
"""

from __future__ import annotations

import math

from .errors import (
    AmbientMismatchError,
    InconsistentSystemError,
    NotSemisimpleError,
    NotSplitError,
)
from .scalars import (
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


def _tensor_add(t, key, val):
    """Add val at key of a sparse tensor (any arity), dropping zeros."""
    if val.is_zero():
        return
    cur = t.get(key)
    nv = val if cur is None else cur + val
    if nv.is_zero():
        t.pop(key, None)
    else:
        t[key] = nv


def _to_sparse(vec):
    return {j: c for j, c in enumerate(vec) if not c.is_zero()}


def _to_dense(row, n, field):
    out = [field.zero] * n
    for j, c in row.items():
        out[j] = c
    return out


# -- integer structure constants ----------------------------------------------
# The axiom checks contract structure tensors as Python ints.  With D a
# common denominator of every constant read, a constant c is an integer
# slice of terms (t, x) with c = sum x zeta^t / D over its terms; a product
# of r constants has denominator D^r, so the side of an identity with fewer
# factors is scaled by a power of D.  Both sides go into one dict
# {(output..., zeta power): int}, the left added and the right subtracted,
# and only where a sum is nonzero is it reduced modulo Phi_n.


def _common_denominator(scalars):
    return math.lcm(1, *{c.den for c in scalars})


def _int_terms(c, D):
    """[(t, x)] with c = sum x zeta^t / D, for D a multiple of c.den."""
    s = D // c.den
    return [(t, x * s) for t, x in enumerate(c.num) if x]


def _int_cell(cell, D):
    """{key: Scalar} as [(key, t, x)]."""
    return [(key, t, x) for key, c in cell.items() for t, x in _int_terms(c, D)]


def _int_mult(mult, D):
    """mult[i][j] as [(k, t, x)]."""
    return [[_int_cell(cell, D) for cell in row] for row in mult]


def _first_nonzero(field, acc):
    """Least output key (a key of acc less its zeta power) whose integer
    polynomial sum_t acc[output + (t,)] zeta^t is nonzero, else None."""
    if not any(acc.values()):
        return None
    polys = {}
    for key, x in acc.items():
        if x:
            polys.setdefault(key[:-1], {})[key[-1]] = x
    for out in sorted(polys):
        terms = polys[out]
        coeffs = [0] * (max(terms) + 1)
        for t, x in terms.items():
            coeffs[t] = x
        if any(field._reduce(coeffs)):
            return out
    return None


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
        return hash((self.ambient, tuple(tuple((c.num, c.den) for c in row) for row in self.basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def _check_ambient(self, other):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(f"ambient {self.ambient} vs {other.ambient}")

    def _reduce(self, vec):
        """(coordinates along the echelon basis, residual): row by row,
        subtract residual[p] times the row of pivot p.  In RREF the other
        rows are zero at p, so residual[p] is still vec[p] there."""
        coords = []
        residual = list(vec)
        for p, row in zip(self.pivots, self.basis):
            c = residual[p]
            coords.append(c)
            if c.is_zero():
                continue
            for j, r in enumerate(row):
                if not r.is_zero():
                    residual[j] = residual[j] - c * r
        return coords, residual

    def coords_of(self, vec):
        """Coordinates of vec in the echelon basis, or None if not in span."""
        coords, residual = self._reduce(vec)
        return coords if vec_is_zero(residual) else None

    def contains_vector(self, vec):
        return self.coords_of(vec) is not None

    def contains(self, other):
        self._check_ambient(other)
        return all(self.contains_vector(row) for row in other.basis)

    def add(self, other):
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other):
        """Exact intersection: the combinations of self.basis whose class
        modulo other is zero."""
        self._check_ambient(other)
        images = [_to_sparse(other.quotient_coords(b)) for b in self.basis]
        return self.lift(_kernel_of_images(self.field, images))

    def lift(self, coords):
        """The subspace whose coordinates in this echelon basis form the
        Subspace coords of k^dim."""
        return Subspace.from_vectors(self.field, self.ambient, [mat_vec(self.basis, v) for v in coords.basis])

    def quotient_coords(self, vec):
        """Coordinates of vec + self in the canonical complement (the
        non-pivot coordinates after reduction by the echelon basis)."""
        residual = self._reduce(vec)[1]
        pivots = set(self.pivots)
        return [residual[j] for j in range(self.ambient) if j not in pivots]


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


def _kernel_from_rows(rows, field, ncols) -> Subspace:
    """Kernel of a system given by sparse equation rows."""
    reduced = _sparse_rref(rows, field)
    pivot_set = {p for p, _ in reduced}
    vecs = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = zero_vector(field, ncols)
        v[f] = field.one
        for p, row in reduced:
            c = row.get(f)
            if c is not None:
                v[p] = -c
        vecs.append(v)
    return Subspace.from_vectors(field, ncols, vecs)


def _kernel_of_images(field, images) -> Subspace:
    """Kernel of the linear map sending e_j to images[j], a sparse dict
    {output key: Scalar} whose zero values are ignored.  Keys may be any
    hashable; tagging the keys of several maps stacks them into one map,
    whose kernel is their joint kernel."""
    rows = {}
    for j, image in enumerate(images):
        for key, c in image.items():
            if not c.is_zero():
                rows.setdefault(key, {})[j] = c
    return _kernel_from_rows(list(rows.values()), field, len(images))


def kernel(matrix_rows, field, ncols=None):
    """Kernel of a matrix given as dense equation rows."""
    if ncols is None:
        ncols = len(matrix_rows[0])
    return _kernel_from_rows([_to_sparse(r) for r in matrix_rows], field, ncols)


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
    return particular, _kernel_from_rows(ker_rows, field, ncols)


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
        ys = [(j, yj) for j, yj in enumerate(y) if not yj.is_zero()]
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            row = self.mult[i]
            for j, yj in ys:
                cell = row[j]
                if not cell:
                    continue
                f = xi * yj
                for k, c in cell.items():
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
        """First (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), else None.

        For each pair (i, j), sums sum_m c_ij^m c_mk^n - sum_m c_jk^m c_im^n
        for every k and n in one integer accumulation (see _int_terms and
        _first_nonzero), visiting only nonzero structure constants."""
        D = _common_denominator(c for row in self.mult for cell in row for c in cell.values())
        mult = _int_mult(self.mult, D)
        rows = [[(j, k, t, c) for j, cell in enumerate(row) for k, t, c in cell] for row in mult]
        for i, mult_i in enumerate(mult):
            for j, cell in enumerate(mult_i):
                acc = {}
                for m, t, c in cell:  # (e_i e_j) e_k
                    for k, n, u, d in rows[m]:
                        key = (k, n, t + u)
                        acc[key] = acc.get(key, 0) + c * d
                for k, m, t, c in rows[j]:  # e_i (e_j e_k)
                    for n, u, d in mult_i[m]:
                        key = (k, n, t + u)
                        acc[key] = acc.get(key, 0) - c * d
                first = _first_nonzero(self.field, acc)
                if first is not None:
                    return i, j, first[0]
        return None

    def center(self) -> Subspace:
        """Solutions of e_i x = x e_i for all i."""
        images = []
        for j in range(self.dim):
            image = {}  # e_j |-> sum_i e_i (x) (e_i e_j - e_j e_i)
            for i in range(self.dim):
                for k, c in self.mult[i][j].items():
                    _tensor_add(image, (i, k), c)
                for k, c in self.mult[j][i].items():
                    _tensor_add(image, (i, k), -c)
            images.append(image)
        return _kernel_of_images(self.field, images)


def _subalgebra_presentation(algebra, space: Subspace, unit, products=None):
    """The subalgebra on a subspace's echelon basis, with the given unit,
    as an AlgebraPresentation in that basis's coordinates; None when the
    unit or a product of two basis vectors leaves the subspace.  products,
    when given, are those of the basis pairs in row-major order, already
    computed."""
    unit_coords = space.coords_of(unit)
    if unit_coords is None:
        return None
    if products is None:
        basis = [list(b) for b in space.basis]
        products = (algebra.multiply(a, b) for a in basis for b in basis)
    cells = []
    for product in products:
        coords = space.coords_of(product)
        if coords is None:
            return None
        cells.append({k: c for k, c in enumerate(coords) if not c.is_zero()})
    n = space.dim
    return AlgebraPresentation(algebra.field, n, [cells[i * n:(i + 1) * n] for i in range(n)],
                               unit_coords)


def _subalgebra_generated(algebra, vectors):
    """(S, products): S is the smallest subalgebra holding the unit and the
    vectors, the span grown by the products of its echelon basis pairs
    until a pass adds nothing or the span is the whole algebra, which is
    closed already.  This is the library's one grow-until-closed loop;
    coideal_closure feeds it a left coideal.  products are those of the
    confirming pass, S's basis pairs in row-major order, so presenting S
    multiplies nothing again; None when no pass confirmed S.  Earlier
    passes multiply the pairs of the previous span again."""
    space = Subspace.from_vectors(algebra.field, algebra.dim, [algebra.unit] + [list(v) for v in vectors])
    while space.dim < algebra.dim:
        basis = [list(b) for b in space.basis]
        products = [algebra.multiply(a, b) for a in basis for b in basis]
        grown = Subspace.from_vectors(algebra.field, algebra.dim, basis + products)
        if grown == space:
            return space, products
        space = grown
    return space, None


def _regular_trace(algebra):
    """t_k = tr(L_{e_k}) = sum_l c_kl^l, the character of the left regular
    representation."""
    zero = algebra.field.zero
    return [sum((cell[k] for k, cell in enumerate(row) if k in cell), zero) for row in algebra.mult]


def _trace_form(algebra):
    """Rows T[m][j] = tr(L_{e_m e_j}) = sum_k c_mj^k t_k, t the regular
    trace; non-degenerate exactly when the algebra is semisimple, in
    characteristic 0."""
    traces = _regular_trace(algebra)
    zero = algebra.field.zero
    return [[sum((c * traces[k] for k, c in cell.items()), zero) for cell in row]
            for row in algebra.mult]


def _is_two_sided_integral(algebra, x, basis, counit):
    """b x = x b = eps(b) x for every vector b of basis, whose counit
    values are given in the same order."""
    for b, eps in zip(basis, counit):
        target = vec_scale(x, eps)
        if not (vec_eq(algebra.multiply(b, x), target) and vec_eq(algebra.multiply(x, b), target)):
            return False
    return True


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
    by the given central elements.  Returns list of Subspaces.  A semisimple
    center is reduced, so a repeated root raises NotSemisimpleError."""
    blocks = [block]
    for z in refiners:
        nxt = []
        for blk in blocks:
            if blk.dim == 1:
                nxt.append(blk)
                continue
            op = _operator_on_subspace(algebra, z, blk)
            roots = factor_into_linears(minimal_polynomial(op, algebra.field), algebra.field)
            if any(mult > 1 for _, mult in roots):
                raise NotSemisimpleError("a central element has a repeated eigenvalue")
            if len(roots) == 1:
                nxt.append(blk)
                continue
            for root, _ in roots:
                m = [list(r) for r in op]
                for i in range(blk.dim):
                    m[i][i] = m[i][i] - root
                nxt.append(blk.lift(_kernel_of_images(algebra.field, [_to_sparse(r) for r in m])))
        blocks = nxt
    return blocks


def _central_blocks(algebra):
    """(central primitive idempotents E_i, block degrees d_i, characters
    chi_i) of a semisimple algebra whose center splits over its field.

    The center is cut into one-dimensional joint eigenspaces by iterated
    refinement along its echelon basis (deterministic) and each line is
    scaled to its idempotent.  With the regular trace t_k = tr(L_{e_k}) =
    sum_l c_kl^l and the trace form tr(L_{e_m e_j}) (`_trace_form`),
    d_i^2 = tr(L_{E_i}) = dim A E_i and chi_i(x) = tr(L_{x E_i}) / d_i.
    """
    center = algebra.center()
    lines = _split_commutative_block(algebra, center, [list(b) for b in center.basis])
    if any(blk.dim != 1 for blk in lines):
        raise NotSemisimpleError("center did not split into lines")

    field = algebra.field
    traces = _regular_trace(algebra)
    form = _trace_form(algebra)
    idempotents, degrees, characters = [], [], []
    for blk in lines:
        u = list(blk.basis[0])
        u2 = algebra.multiply(u, u)
        theta = u2[blk.pivots[0]]  # u is 1 at its pivot
        if theta.is_zero():
            raise NotSemisimpleError("nilpotent central element found")
        if not vec_eq(u2, vec_scale(u, theta)):
            raise NotSemisimpleError("central line is not closed under squaring")
        e = vec_scale(u, theta.inverse())
        # L_E is a projection, so its trace is its rank, a positive integer
        d2 = sum((c * t for c, t in zip(e, traces)), field.zero).integer_value()
        d = math.isqrt(d2)
        if d * d != d2:
            raise NotSemisimpleError(f"block dimension {d2} is not a perfect square")
        idempotents.append(e)
        degrees.append(d)
        characters.append(vec_scale(mat_vec(form, e), field.from_rational(d).inverse()))
    return idempotents, degrees, characters


def wedderburn(algebra: AlgebraPresentation) -> WedderburnData:
    """Wedderburn data of a split semisimple algebra: the central part
    (`_central_blocks`) and one primitive idempotent t_i per block,
    E_i t_i = t_i (E_i itself when d_i = 1).  A NotSplitError from the
    search names the block's degree and the conductor."""
    idempotents, degrees, _ = _central_blocks(algebra)
    primitives = []
    for e, d in zip(idempotents, degrees):
        try:
            t = primitive_idempotent_in_block(algebra, e) if d > 1 else list(e)
        except NotSplitError as err:
            raise NotSplitError(err.factor, f"no primitive idempotent in the block of degree {d} "
                                f"at conductor {algebra.field.conductor}: {err}") from err
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
        corner = Subspace.from_vectors(field, algebra.dim, [
            algebra.multiply(algebra.multiply(e, basis_vector(field, algebra.dim, i)), e)
            for i in range(algebra.dim)
        ])
        if corner.dim == 1:
            return e
        not_split_error = None
        for x in _corner_candidates(algebra, corner.basis):
            p = minimal_polynomial(_operator_on_subspace(algebra, x, corner), field)
            try:
                roots = factor_into_linears(p, field)
            except NotSplitError as err:
                not_split_error = err
                continue
            if len(roots) > 1:
                e = _first_idempotent_from_element(algebra, x, e, roots)
                break
        else:
            if not_split_error is not None:
                raise not_split_error
            raise NotSemisimpleError("block admits no splitting element")


def _first_idempotent_from_element(algebra, x, e, roots):
    """The Chinese-remainder idempotent of k[x] for the first root, inside
    the corner algebra with unit e: (s h)(x) mod p, where p is the minimal
    polynomial of x, h = p / (X - r)^m and s h = 1 mod (X - r)^m."""
    field = algebra.field
    full = poly_from_roots(field, roots)
    g = poly_from_roots(field, roots[:1])
    h, _ = poly_divmod(full, g)
    gcd, s, _ = poly_extgcd(h, g)
    if len(gcd) != 1:
        raise NotSemisimpleError("idempotent construction failed")
    _, sh = poly_divmod(poly_mul(s, h), full)
    f = vec_scale(e, sh[-1])  # Horner's rule, e being the unit of the corner
    for c in reversed(sh[:-1]):
        f = vec_add(algebra.multiply(f, x), vec_scale(e, c))
    if not vec_eq(algebra.multiply(f, f), f):
        raise NotSemisimpleError("Chinese-remainder element is not idempotent")
    return f
