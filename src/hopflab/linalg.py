"""Exact dense/sparse linear algebra over cyclotomic scalars.

Vectors are sequences of Scalars; subspaces are stored as reduced
row-echelon bases so that equality of subspaces is equality of matrices.
The structure-constant systems this library produces are very sparse, so
the elimination core works on dict-rows keyed by column.

Five conventions hold throughout the library:

- A solution space is written as the kernel of a linear map given by the
  images of the basis vectors, each a sparse dict {output key: Scalar}, and
  solved by `_kernel_of_images`, which transposes the images into equation
  rows for `_kernel_from_rows`, the one kernel routine.
- A linear combination sum_i c_i v_i is `mat_vec([v_0, v_1, ...], c)` on
  dense vectors and `_combination` on sparse dicts.
- A product x y in an algebra is `AlgebraPresentation.sparse_product` on
  sparse dicts, read from the sparse rows of `mult`; `multiply` is its
  dense wrapper, for callers off the hot paths.  The products e_n x and
  x e_n with every basis element come together from `_products_with_basis`.
- An elimination step is `_subtract`, the one fill-in loop.  Reduced
  echelon rows are held as {pivot: row}, each 1 at its pivot and 0 at the
  others' pivots; `_reduce` takes a residual modulo them and `_enter` adds
  one as a new row, for `_sparse_rref`, `Subspace.residual` and
  `_greedy_generators` alike.
- A check whose passing set is a subalgebra reads the basis indices
  `AlgebraPresentation._test_indices()`: once the algebra's axioms are
  proven, only its cached generating set, chosen greedily by
  `_greedy_generators`, the routine that also closes a subalgebra from
  generators.

Also here: Wedderburn data of a semisimple algebra given by structure
constants.  The central part -- central primitive idempotents E_i and
degrees d_i, with d_i^2 = tr(L_{E_i}) -- and the characters
chi_i(x) = tr(L_{x E_i}) / d_i come from the center and the regular trace
alone.  The E_i are spectral idempotents: the center is split along its
echelon rows z, one after another, and an idempotent e splits into the
polynomials in z times e that project onto the eigenvalues of z, read off
the Krylov sequence e, z e, z^2 e, ... (`_spectral_idempotents`, after
Dixon, Numer. Math. 1967); each is certified idempotent in the center's
own coordinates.  A primitive idempotent per block is a
separate, costlier step that needs each block split over the field; only
`wedderburn` takes it, after the central part, by shrinking the block's
corner at zero divisors (`primitive_idempotent_in_block`), whose minimal
polynomials come from the same Krylov routine (`_krylov`).
"""

from __future__ import annotations

import math

from .errors import (
    AmbientMismatchError,
    InconsistentSystemError,
    NotSemisimpleError,
    NotSplitError,
)
from .scalars import factor_into_linears, poly_eval, poly_trim

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


def _combination(vectors, coeffs):
    """sum_m coeffs[m] vectors[m] for sparse coeffs {m: c} and sparse
    vectors (a list or dict of {key: Scalar}), as a sparse dict."""
    out = {}
    for m, c in coeffs.items():
        for key, v in vectors[m].items():
            cur = out.get(key)
            out[key] = c * v if cur is None else cur + c * v
    return {key: v for key, v in out.items() if not v.is_zero()}


def _to_sparse(vec):
    return {j: c for j, c in enumerate(vec) if not c.is_zero()}


def _to_dense(row, n, field):
    out = [field.zero] * n
    for j, c in row.items():
        out[j] = c
    return out


# -- sparse reduced row echelon -----------------------------------------------


def _subtract(vec, f, row, pivot):
    """vec -= f row off the pivot, in place, dropping zeros: the one fill-in
    loop of every elimination here.  The caller has popped vec's entry at
    the pivot; f and the entries of vec and row are nonzero."""
    for key, r in row.items():
        if key != pivot:
            cur = vec.get(key)
            if cur is None:
                vec[key] = -(f * r)
            else:
                nv = cur - f * r
                if nv.is_zero():
                    del vec[key]
                else:
                    vec[key] = nv


def _reduce(vec, rows):
    """vec's residual modulo reduced echelon rows {pivot: row}, in place,
    and returned: empty exactly when vec lies in their span.  Each row is 1
    at its pivot and 0 at the others' pivots, so one pass over vec's own
    pivot keys clears them all, each by its entry there."""
    for p in [p for p in vec if p in rows]:
        _subtract(vec, vec.pop(p), rows[p], p)
    return vec


def _enter(rows, vec):
    """Enter a sparse vec into reduced echelon rows {pivot: row}, in place:
    its residual (`_reduce`, on a copy), scaled to 1 at its least key,
    becomes the row of that pivot, which is cleared from the earlier rows.
    Returns the new row, or None when vec lies in their span.  The rows
    dicts themselves change, so they must be the caller's own."""
    vec = _reduce(dict(vec), rows)
    if not vec:
        return None
    lead = min(vec)
    inv = vec[lead].inverse()
    row = vec if inv.is_one() else {key: c * inv for key, c in vec.items()}
    for other in rows.values():
        f = other.pop(lead, None)
        if f is not None:
            _subtract(other, f, row, lead)
    rows[lead] = row
    return row


def _sparse_rref(rows):
    """Full RREF of dict-rows, each entered in turn (`_enter`).  Returns
    list of (pivot_col, row_dict) sorted by pivot column."""
    pivots = {}
    for row in rows:
        _enter(pivots, row)
    return sorted(pivots.items())


def rref(vectors, field, ambient=None):
    """Canonical echelon basis of the span.  Returns (rows, pivot columns)."""
    vectors = list(vectors)
    if ambient is None:
        if not vectors:
            raise ValueError("ambient dimension required for empty input")
        ambient = len(vectors[0])
    reduced = _sparse_rref([_to_sparse(v) for v in vectors])
    return [_to_dense(row, ambient, field) for _, row in reduced], [p for p, _ in reduced]


class Subspace:
    """Subspace of k^n held as a reduced row-echelon basis.

    Two subspaces are equal iff their echelon matrices are identical.  The
    rows, dicts {column: Scalar} listed (sparse_basis) and keyed (_rows)
    by pivot, are shared and read-only; _index maps each pivot to its
    row's position.  The dense rows (basis) are built on first read and
    kept, so concurrent readers at worst build them twice.
    """

    __slots__ = ("field", "ambient", "pivots", "sparse_basis", "_rows", "_index", "_basis")

    def __init__(self, field, ambient, reduced):
        """reduced: the (pivot, sparse row) pairs of a reduced row-echelon
        basis, by pivot, as _sparse_rref returns them."""
        self.field = field
        self.ambient = ambient
        self.pivots = tuple(p for p, _ in reduced)
        self.sparse_basis = [row for _, row in reduced]
        self._rows = dict(reduced)
        self._index = {p: k for k, p in enumerate(self.pivots)}
        self._basis = None

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        """The span of vectors, each a dense sequence or a sparse dict
        {column: Scalar} without zero values."""
        return cls(field, ambient, _sparse_rref(
            [v if isinstance(v, dict) else _to_sparse(v) for v in vectors]))

    @classmethod
    def full(cls, field, ambient):
        return cls.from_vectors(field, ambient, [{i: field.one} for i in range(ambient)])

    @property
    def basis(self):
        """The echelon rows as dense tuples."""
        if self._basis is None:
            self._basis = tuple(tuple(_to_dense(row, self.ambient, self.field))
                                for row in self.sparse_basis)
        return self._basis

    @property
    def dim(self):
        return len(self.pivots)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.sparse_basis == other.sparse_basis

    def __hash__(self):
        return hash((self.ambient, tuple(frozenset((j, c.num, c.den) for j, c in row.items())
                                         for row in self.sparse_basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def _check_ambient(self, other):
        if self.ambient != other.ambient:
            raise AmbientMismatchError(f"ambient {self.ambient} vs {other.ambient}")

    def residual(self, vec):
        """vec - sum_p vec[p] row_p for a sparse vec {column: Scalar} without
        zero values, as a new sparse dict (`_reduce`): empty exactly when
        vec lies in the span."""
        return _reduce(dict(vec), self._rows)

    def coords_of(self, vec):
        """Coordinates of vec in the echelon basis (its entries at the
        pivots), or None if not in span."""
        if self.residual(_to_sparse(vec)):
            return None
        return [vec[p] for p in self.pivots]

    def sparse_coords(self, vec):
        """coords_of for a sparse vec, as a sparse dict {row index: Scalar}
        in row order, read at the pivots among vec's own keys."""
        if self.residual(vec):
            return None
        index = self._index
        return {index[p]: vec[p] for p in sorted(vec.keys() & index.keys())}

    def contains_vector(self, vec):
        return self.coords_of(vec) is not None

    def contains(self, other):
        self._check_ambient(other)
        return not any(self.residual(row) for row in other.sparse_basis)

    def add(self, other):
        self._check_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient, self.sparse_basis + other.sparse_basis)

    def intersect(self, other):
        """Exact intersection: the combinations of self.basis whose residual
        modulo other is zero."""
        self._check_ambient(other)
        images = [other.residual(row) for row in self.sparse_basis]
        return self.lift(_kernel_of_images(self.field, images))

    def lift(self, coords):
        """The subspace whose coordinates in this echelon basis form the
        Subspace coords of k^dim."""
        rows = self.sparse_basis
        return Subspace.from_vectors(self.field, self.ambient,
                                     [_combination(rows, v) for v in coords.sparse_basis])


def _kernel_from_rows(rows, field, ncols) -> Subspace:
    """Kernel of a system given by sparse equation rows."""
    reduced = _sparse_rref(rows)
    pivot_set = {p for p, _ in reduced}
    vecs = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = {f: field.one}
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
    reduced = _sparse_rref(aug)
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
    powers of M.  The library's own splits need only p(M) v = 0 for one
    vector v and take `_krylov` instead."""
    n = len(matrix)
    if field is None:
        field = matrix[0][0].field
    if n == 0:
        return [field.one]
    reduced = []  # (lead key, reduced vector, its combination of the powers)
    power = [basis_vector(field, n, i) for i in range(n)]  # identity
    k = 0
    while True:
        vec = {i * n + j: c for i, row in enumerate(power) for j, c in enumerate(row) if not c.is_zero()}
        combo = [field.zero] * (k + 1)
        combo[k] = field.one
        for lead, rvec, rcombo in reduced:
            c = vec.pop(lead, None)
            if c is None:
                continue
            _subtract(vec, c, rvec, lead)
            for i, v in enumerate(rcombo):
                combo[i] = combo[i] - c * v
        if not vec:
            return poly_trim(combo)
        lead = min(vec)
        inv = vec[lead].inverse()
        if not inv.is_one():
            vec = {c: v * inv for c, v in vec.items()}
            combo = [v * inv for v in combo]
        reduced.append((lead, vec, combo))
        power = [mat_vec(matrix, row) for row in power]
        k += 1


def _krylov(apply, v, field):
    """(p, powers): the least-degree monic p with p(M) v = 0 for the linear
    map M = apply on sparse dicts and a nonzero sparse v, and the powers
    [v, M v, ..., M^(deg p - 1) v].  Each power is reduced against the
    earlier ones at their leading keys, without scaling them, until one
    reduces to zero; the polynomial that made it is p."""
    zero, one = field.zero, field.one
    powers, reduced = [], []  # reduced: (lead key, 1 / lead value, vector, polynomial)
    w = v
    while True:
        vec, poly = dict(w), [zero] * len(powers) + [one]
        for lead, inv, rvec, rpoly in reduced:
            c = vec.pop(lead, None)
            if c is None:
                continue
            f = c * inv
            _subtract(vec, f, rvec, lead)
            for k, r in enumerate(rpoly):
                poly[k] = poly[k] - f * r
        if not vec:
            return poly, powers
        lead = min(vec)
        reduced.append((lead, vec[lead].inverse(), vec, poly))
        powers.append(w)
        w = apply(w)


# -- algebra presentations ----------------------------------------------------


class AlgebraPresentation:
    """Associative unital algebra by structure constants.

    mult[i] is a sparse row {j: {k: c}} meaning e_i * e_j = sum_k c e_k; it
    holds only the j with e_i e_j != 0, and each cell only nonzero c.

    Derived data is cached in `_cache`.  `_cache["proven"]` marks an
    algebra whose own axioms are proven (associative, with its unit; a
    HopfAlgebra sets it when verify() passes).  From then on every check
    whose passing set is a subalgebra reads only the generating set
    (`_test_indices`): it holds 1, and a subalgebra that holds a set
    generating the algebra is the algebra.
    """

    def __init__(self, field, dim, mult, unit):
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = list(unit)
        self._cache = {}

    def multiply(self, x, y):
        """x y for dense x and y: sparse_product, densified."""
        return _to_dense(self.sparse_product(_to_sparse(x), _to_sparse(y)), self.dim, self.field)

    def sparse_product(self, x, y):
        """x y for sparse x and y {index: Scalar}, as a sparse dict read
        from the rows of mult."""
        out = {}
        mult = self.mult
        for i, xi in x.items():
            row = mult[i]
            for j, yj in y.items():
                cell = row.get(j)
                if cell is None:
                    continue
                f = xi * yj
                for k, c in cell.items():
                    cur = out.get(k)
                    out[k] = f * c if cur is None else cur + f * c
        return {k: c for k, c in out.items() if not c.is_zero()}

    def generating_set(self):
        """Basis indices S whose right-nested words s_1 (s_2 (... s_k))
        span the algebra, chosen greedily in index order
        (`_greedy_generators`), cached.  The search gives up, and S is every
        index, once it would take more products than the full associativity
        loop visits term pairs: sum over every nonzero c_ij^m of the number
        of nonzero constants in row m.  Past that, reading every index costs
        less than the search.  A commutative algebra of orthogonal
        idempotents such as k^G, one constant per row, needs dim - 1
        generators, each multiplying every row of W, and gives up within
        one product per nonzero cell; a Drinfeld double, whose rows hold
        many constants, gets an S of about half its basis or less.

        The words lie in every subalgebra that holds S, whether or not the
        algebra is associative, so S certifies Light's associativity test
        (Clifford-Preston, The Algebraic Theory of Semigroups I, 1961):
        A = {a : (x a) y = x (a y) for all x, y} is closed under products
        and holds 1 once the unit axiom holds, so S <= A makes A the whole
        algebra."""
        gens = self._cache.get("generators")
        if gens is None:
            one = self.field.one
            row_terms = [sum(len(cell) for cell in row.values()) for row in self.mult]
            budget = sum(row_terms[m] for row in self.mult for cell in row.values() for m in cell)
            found = _greedy_generators(self, [{i: one} for i in range(self.dim)], budget)
            gens = tuple(found[0]) if found is not None else tuple(range(self.dim))
            self._cache["generators"] = gens
        return gens

    def _test_indices(self):
        """The basis indices that a check whose passing set is a subalgebra
        reads: generating_set() once the axioms are proven, every index
        before, since the passing set is a subalgebra only for an
        associative algebra (for a HopfAlgebra, one whose counit and
        coproduct are algebra maps)."""
        return self.generating_set() if self._cache.get("proven") else range(self.dim)

    def center(self) -> Subspace:
        """Solutions of e_s x = x e_s for each s of _test_indices(): an
        element commuting with a generating set of an associative algebra
        commutes with every word in it."""
        gens = set(self._test_indices())
        images = [{} for _ in range(self.dim)]  # e_j |-> sum_s e_s (x) (e_s e_j - e_j e_s)
        for i, row in enumerate(self.mult):
            for j, cell in row.items():
                if i in gens:
                    for k, c in cell.items():
                        _tensor_add(images[j], (i, k), c)
                if j in gens:
                    for k, c in cell.items():
                        _tensor_add(images[i], (j, k), -c)
        return _kernel_of_images(self.field, images)


def _products_with_basis(algebra, x):
    """([e_n x for each n], [x e_n for each n]) as sparse dicts."""
    xs = _to_sparse(x)
    basis = [{n: algebra.field.one} for n in range(algebra.dim)]
    return ([algebra.sparse_product(e, xs) for e in basis],
            [algebra.sparse_product(xs, e) for e in basis])


def _is_central(algebra, x):
    """e_s x = x e_s, for a sparse x, for every s of
    algebra._test_indices(): the elements commuting with x form a
    subalgebra, so x is central once it commutes with a generating set."""
    one = algebra.field.one
    return all(algebra.sparse_product({s: one}, x) == algebra.sparse_product(x, {s: one})
               for s in algebra._test_indices())


def _subalgebra_presentation(algebra, space: Subspace):
    """The subalgebra on a subspace's echelon basis as an
    AlgebraPresentation in that basis's coordinates; None when the unit or
    a product of two basis vectors leaves the subspace.  It is proven when
    the algebra is."""
    unit_coords = space.coords_of(algebra.unit)
    if unit_coords is None:
        return None
    rows = space.sparse_basis
    mult = []
    for a in rows:
        cells = [space.sparse_coords(algebra.sparse_product(a, b)) for b in rows]
        if None in cells:
            return None
        mult.append({j: cell for j, cell in enumerate(cells) if cell})
    presentation = AlgebraPresentation(algebra.field, space.dim, mult, unit_coords)
    if algebra._cache.get("proven"):
        presentation._cache["proven"] = True
    return presentation


def _greedy_generators(algebra, candidates, budget=None):
    """(kept, W): the indices of the candidates (sparse dicts) kept, and the
    subalgebra W they generate, which holds every candidate; None when
    more than budget products would be needed.

    W starts as span(1).  A candidate g is kept only when it is not yet in
    W; it enters W and multiplies every row W holds, each kept candidate
    multiplies each row that enters W after it, and the products enter W,
    until a round adds nothing or W is the whole algebra.  Then W holds 1
    and s W <= W for each kept s, so it holds every word
    s_1 (s_2 (... s_k)) and lies in every subalgebra holding the kept
    candidates.  Each row is multiplied once by each kept candidate: at
    most |kept| dim W products.

    W is held as reduced echelon rows {pivot: row}, and a vector enters
    them by `_enter`.  A row changed by clearing a new pivot spans W with
    the new row, which is multiplied in its turn."""
    field, dim = algebra.field, algebra.dim
    rows = {}
    _enter(rows, _to_sparse(algebra.unit))
    kept, count = [], 0
    for index, g in enumerate(candidates):
        if len(rows) == dim:
            break
        new = _enter(rows, g)
        if new is None:
            continue
        kept.append(index)
        pending = [(g, w) for w in rows.values() if w is not new]
        fresh = [new]
        while fresh and len(rows) < dim:
            pending += [(candidates[k], w) for k in kept for w in fresh]
            count += len(pending)
            if budget is not None and count > budget:
                return None
            fresh = [row for row in (_enter(rows, algebra.sparse_product(s, w)) for s, w in pending)
                     if row is not None]
            pending = []
    return kept, Subspace(field, dim, sorted(rows.items()))


def _subalgebra_generated(algebra, generators) -> Subspace:
    """The smallest subalgebra holding the unit and the generators, given
    as sparse dicts: the whole algebra, with no product, when they span it,
    else the W of `_greedy_generators`, which multiplies by a generator
    only when it is not yet in W."""
    space = Subspace.from_vectors(algebra.field, algebra.dim, [_to_sparse(algebra.unit)] + list(generators))
    if space.dim == algebra.dim:
        return space
    return _greedy_generators(algebra, generators)[1]


def _regular_trace(algebra):
    """t_k = tr(L_{e_k}) = sum_l c_kl^l, the character of the left regular
    representation."""
    zero = algebra.field.zero
    return [sum((cell[k] for k, cell in row.items() if k in cell), zero) for row in algebra.mult]


def _trace_form(algebra):
    """Sparse rows T[m] = {j: tr(L_{e_m e_j})}, tr(L_{e_m e_j}) =
    sum_k c_mj^k t_k for t the regular trace, read over the k with
    t_k != 0 (for kG, the unit alone), zeros left out; non-degenerate
    exactly when the algebra is semisimple, in characteristic 0."""
    zero = algebra.field.zero
    traces = {k: t for k, t in enumerate(_regular_trace(algebra)) if not t.is_zero()}
    sums = [{j: sum((c * traces[k] for k, c in cell.items() if k in traces), zero)
             for j, cell in row.items()}
            for row in algebra.mult]
    return [{j: v for j, v in row.items() if not v.is_zero()} for row in sums]


def _is_two_sided_integral(algebra, x, basis, counit):
    """b x = x b = eps(b) x for every b of basis, a list of sparse dicts
    whose counit values are given in the same order; x is dense."""
    xs = _to_sparse(x)
    for b, eps in zip(basis, counit):
        target = {} if eps.is_zero() else {k: c * eps for k, c in xs.items()}
        if algebra.sparse_product(b, xs) != target or algebra.sparse_product(xs, b) != target:
            return False
    return True


class WedderburnData:
    """Central primitive idempotents T_i, block degrees d_i, and one
    primitive idempotent t_j per block: T_i t_j = delta_ij t_j, and the
    left ideal A t_j has dimension d_j."""

    def __init__(self, central_idempotents, degrees, block_primitive_idempotents):
        self.central_idempotents = central_idempotents
        self.degrees = degrees
        self.block_primitive_idempotents = block_primitive_idempotents

    def __len__(self):
        return len(self.central_idempotents)


def _left_ideal(algebra, t) -> Subspace:
    """The left ideal A t, spanned by the products e_i t."""
    return Subspace.from_vectors(algebra.field, algebra.dim, _products_with_basis(algebra, t)[0])


def _spectral_idempotents(algebra, center: Subspace):
    """(lines, product): the central primitive idempotents of an algebra
    whose center Z splits into lines, as sparse dicts of coordinates in
    Z's echelon basis, from spectral idempotents alone, and the product of
    Z in those coordinates.

    A block is an idempotent e of Z, held in Z's echelon coordinates; the
    first is the unit.  Each echelon row z in turn refines every block,
    until there are dim Z blocks.  As Z is commutative, p(L_z) vanishes on
    Z e exactly when p(z) e = 0, so the minimal polynomial p of z on the
    block is that of e under multiplication by z (`_krylov`).  With roots
    r, all distinct, the block splits into the spectral idempotents
    e_r = (p / (x - r))(z) e / p'(r), in root order, and Z e_r is the
    eigenspace of z on Z e for r.  A semisimple center is reduced, so a
    repeated root raises NotSemisimpleError, as do roots that are not deg p
    distinct values with p(r) = 0, which keeps p'(r) != 0.  A z whose p has
    degree 1 acts on the block as a scalar, and the block is kept.

    The products z_i z_j are formed on first need and kept while the
    returned product lives, which reads them too.  Each distinct minimal
    polynomial is factored once per call: its roots are kept in a dict
    that lives for this call only."""
    field = algebra.field
    rows = center.sparse_basis
    products = {}  # (i, j), i <= j -> coordinates of z_i z_j = z_j z_i

    def times(i, v):
        images = {}
        for j in v:
            key = (i, j) if i <= j else (j, i)
            if key not in products:
                products[key] = center.sparse_coords(algebra.sparse_product(rows[i], rows[j]))
            images[j] = products[key]
        return _combination(images, v)

    def product(u, v):
        return _combination({i: times(i, v) for i in u}, u)

    roots_of = {}
    blocks = [center.sparse_coords(_to_sparse(algebra.unit))]
    for i in range(center.dim):
        if len(blocks) == center.dim:
            break
        refined = []
        for e in blocks:
            p, powers = _krylov(lambda v: times(i, v), e, field)
            if len(p) == 2:
                refined.append(e)
                continue
            p = tuple(p)
            roots = roots_of.get(p)
            if roots is None:
                roots = roots_of[p] = factor_into_linears(p, field)
            if any(mult > 1 for _, mult in roots):
                raise NotSemisimpleError("a central element has a repeated eigenvalue")
            if len({root for root, _ in roots}) != len(p) - 1:
                raise NotSemisimpleError("a minimal polynomial's roots are not distinct")
            for root, _ in roots:
                # q = p / (x - r) by synthetic division, remainder p(r); p'(r) = q(r)
                q = [field.one]
                for c in reversed(p[1:-1]):
                    q.append(c + root * q[-1])
                if not (p[0] + root * q[-1]).is_zero():
                    raise NotSemisimpleError("a minimal polynomial does not vanish at its root")
                q.reverse()
                scale = poly_eval(q, root).inverse()
                refined.append(_combination(powers, {k: c * scale for k, c in enumerate(q)}))
        blocks = refined
    if len(blocks) != center.dim:
        raise NotSemisimpleError("center did not split into lines")
    return blocks, product


def _central_blocks(algebra):
    """(central primitive idempotents E_i, block degrees d_i, characters
    chi_i) of a semisimple algebra whose center splits over its field.

    The E_i are the spectral idempotents of the center along its echelon
    rows (`_spectral_idempotents`, deterministic).  Each is certified on
    its line in Z's echelon coordinates, with Z's own product: u, scaled
    to 1 at its first coordinate, satisfies u^2 = theta u with theta != 0,
    and E = u / theta.  The coordinates are injective, and each row is 1
    at its own pivot and 0 at the others', so this is the same identity in
    the algebra, with theta its entry at the first row's pivot; no line
    is squared in the algebra.  With the regular trace t_k =
    tr(L_{e_k}) = sum_l c_kl^l and the trace form tr(L_{e_m e_j})
    (`_trace_form`), d_i^2 = tr(L_{E_i}) = dim A E_i and
    chi_i(x) = tr(L_{x E_i}) / d_i = sum_m (E_i)_m T[m](x) / d_i, read over
    the support of E_i.
    """
    center = algebra.center()
    lines, product = _spectral_idempotents(algebra, center)
    field = algebra.field
    traces = _regular_trace(algebra)
    form = _trace_form(algebra)
    idempotents, degrees, characters = [], [], []
    for line in lines:
        first = min(line)
        scale = line[first].inverse()
        u = {j: c * scale for j, c in line.items()}
        u2 = product(u, u)
        theta = u2.get(first)
        if theta is None:
            raise NotSemisimpleError("nilpotent central element found")
        if u2 != {j: c * theta for j, c in u.items()}:
            raise NotSemisimpleError("central line is not closed under squaring")
        inv_theta = theta.inverse()
        e = _combination(center.sparse_basis, {j: c * inv_theta for j, c in u.items()})
        # L_E is a projection, so its trace is its rank, a positive integer
        d2 = sum((c * traces[k] for k, c in e.items()), field.zero).integer_value()
        d = math.isqrt(d2)
        if d * d != d2:
            raise NotSemisimpleError(f"block dimension {d2} is not a perfect square")
        idempotents.append(_to_dense(e, algebra.dim, field))
        degrees.append(d)
        inv_d = field.from_rational(d).inverse()
        characters.append(_to_dense(_combination(form, {k: c * inv_d for k, c in e.items()}),
                                    algebra.dim, field))
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
    """Deterministic candidate elements of the corner e*A*e, sparse dicts,
    used to split it: basis elements, then pairwise sums, then pairwise
    products."""
    yield from corner_basis
    one = algebra.field.one
    n = len(corner_basis)
    for i in range(n):
        for j in range(i + 1, n):
            yield _combination(corner_basis, {i: one, j: one})
    for i in range(n):
        for j in range(n):
            if i != j:
                yield algebra.sparse_product(corner_basis[i], corner_basis[j])


def primitive_idempotent_in_block(algebra: AlgebraPresentation, central_idempotent):
    """A primitive idempotent t with t*T = t inside the block of the given
    central primitive idempotent T.

    Shrinks the corner e*A*e (unit e, T at first) by linear algebra alone,
    the zero-divisor method of Ronyai (J. Symb. Comput. 1990).  Take the
    first corner candidate x that is not a multiple of e and whose minimal
    polynomial p on eAe splits, and a root r of it; p(L_x) = 0 on eAe
    exactly when p(x) e = 0, as e is the corner's unit, so p is read off
    the Krylov sequence of e (`_krylov`).  Then z = x - r*e is a zero
    divisor, so the left ideal (eAe) z is (eAe) f for an idempotent f with
    0 != f != e (`_idempotent_generator`), and fAf is a smaller corner.
    Repeats until the corner is one-dimensional, where e is primitive.
    NotSplitError when no candidate's minimal polynomial splits.
    """
    field = algebra.field
    e = _to_sparse(central_idempotent)
    # T A T = A T for a central T, and fAf = f (eAe) f for an f in eAe
    corner = Subspace.from_vectors(field, algebra.dim, [
        algebra.sparse_product({i: field.one}, e) for i in range(algebra.dim)])
    while corner.dim > 1:
        line = Subspace.from_vectors(field, algebra.dim, [e])
        not_split_error = None
        for x in _corner_candidates(algebra, corner.sparse_basis):
            if not line.residual(x):
                continue
            try:
                p, _ = _krylov(lambda v: algebra.sparse_product(x, v), e, field)
                roots = factor_into_linears(p, field)
            except NotSplitError as err:
                not_split_error = err
                continue
            z = _combination([x, e], {0: field.one, 1: -roots[0][0]})
            e = _idempotent_generator(algebra, Subspace.from_vectors(
                field, algebra.dim, [algebra.sparse_product(c, z) for c in corner.sparse_basis]))
            break
        else:
            raise not_split_error
        corner = Subspace.from_vectors(field, algebra.dim, [
            algebra.sparse_product(algebra.sparse_product(e, c), e) for c in corner.sparse_basis])
    return _to_dense(e, algebra.dim, field)


def _idempotent_generator(algebra, ideal: Subspace):
    """An idempotent f with ideal = B f, for a left ideal of a semisimple
    subalgebra B: any solution f in the ideal of l f = l for every basis
    row l, since then f^2 = f and ideal = ideal f <= B f <= ideal."""
    field = algebra.field
    rows = ideal.sparse_basis
    equations = {}  # (l_m f)_j = (l_m)_j for f = sum_k a_k l_k: (m, j) -> {k: (l_m l_k)_j}
    for m, l in enumerate(rows):
        for k, lk in enumerate(rows):
            for j, c in algebra.sparse_product(l, lk).items():
                equations.setdefault((m, j), {})[k] = c
    keys = sorted(equations.keys() | {(m, j) for m, l in enumerate(rows) for j in l})
    try:
        coeffs, _ = solve_linear([_to_dense(equations.get(key, {}), len(rows), field) for key in keys],
                                 [rows[m].get(j, field.zero) for m, j in keys], field)
    except InconsistentSystemError:
        raise NotSemisimpleError("a left ideal has no idempotent generator") from None
    return _combination(rows, _to_sparse(coeffs))
