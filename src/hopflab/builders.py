"""Constructors: group algebras from Cayley tables, permutation group
tables, and the Drinfeld double with its canonical R-matrix.

Permutation composition is (f g)(x) = f(g(x)) throughout.
"""

from __future__ import annotations

from .errors import NotAGroupError, NotSemisimpleError
from .hopf import HopfAlgebra, _first_witness
from .linalg import AlgebraPresentation, _tensor_add, _to_dense, _to_sparse
from .scalars import CyclotomicField

# -- permutation utilities ----------------------------------------------------


def perm_compose(f, g):
    """(f g)(x) = f(g(x))."""
    return tuple(f[g[x]] for x in range(len(f)))


def cycle_label(perm):
    """1-based cycle notation; identity is "e"."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = perm[x]
        parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


def permutation_group_table(generators, degree):
    """Closure of the generators in S_degree; returns (table, labels).

    Elements are ordered identity-first, then by (number of moved points,
    image tuple) so tables are reproducible.
    """
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                h = perm_compose(g, f)
                if h not in elements:
                    elements.add(h)
                    nxt.append(h)
        frontier = nxt
    ordered = sorted(elements, key=lambda p: (sum(1 for x in range(degree) if p[x] != x), p))
    index = {p: i for i, p in enumerate(ordered)}
    table = [[index[perm_compose(a, b)] for b in ordered] for a in ordered]
    labels = [cycle_label(p) for p in ordered]
    return table, labels


def cyclic_group_table(n):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
    return table, labels


def symmetric3_table():
    return permutation_group_table([(1, 0, 2), (0, 2, 1)], 3)


def dihedral8_table():
    # symmetries of the square: rotation (1234), reflection (13)
    return permutation_group_table([(1, 2, 3, 0), (2, 1, 0, 3)], 4)


def klein_table():
    return permutation_group_table([(1, 0, 2, 3), (0, 1, 3, 2)], 4)


def quaternion_table():
    """Q8 = {1, -1, i, -i, j, -j, k, -k}."""
    units = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"), (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a, b):
        sa, xa = a
        sb, xb = b
        rules = {
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
            ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
        }
        s, x = rules[(xa, xb)]
        return (sa * sb * s, x)

    index = {u: i for i, u in enumerate(units)}
    table = [[index[mul(a, b)] for b in units] for a in units]
    return table, labels


# -- Cayley table validation ----------------------------------------------------


def validate_group_table(table):
    """Returns the identity index; raises NotAGroupError naming the failed
    axiom (closure, identity, inverses, associativity).  Associativity is
    Light's test over a generating set, as in
    AlgebraPresentation.generating_set, rerun over every element on
    failure to name the first triple in loop order."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroupError("closure", "table entries out of range")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroupError("identity")
    for x in range(n):
        if not any(table[x][y] == identity and table[y][x] == identity for y in range(n)):
            raise NotAGroupError("inverses", f"element {x} has no inverse")
    witness = _first_witness(lambda middles: _associativity_witness(table, middles),
                             _table_generators(table, identity), n)
    if witness is not None:
        raise NotAGroupError("associativity", f"at {witness}")
    return identity


def _associativity_witness(table, middles):
    """The first (a, b, c) in loop order, b among middles, with
    (a b) c != a (b c); None when there is none."""
    for a, row in enumerate(table):
        for b in middles:
            for c, bc in enumerate(table[b]):
                if table[row[b]][c] != row[bc]:
                    return a, b, c
    return None


def _table_generators(table, identity):
    """Elements kept greedily, each when not yet reached, whose
    right-nested words s_1 (s_2 (... s_k)) reach every element."""
    kept, reached = [], {identity}
    for g in range(len(table)):
        if g not in reached:
            kept.append(g)
            pending = [(g, w) for w in reached]
            while pending:
                s, w = pending.pop()
                x = table[s][w]
                if x not in reached:
                    reached.add(x)
                    pending += [(k, x) for k in kept]
    return kept


# -- Hopf algebra builders --------------------------------------------------------


def group_algebra(cayley_table, conductor=1, labels=None, name=None) -> HopfAlgebra:
    """kG for a finite group given by its Cayley table.

    Basis = group elements in table order, Delta(g) = g x g, eps(g) = 1,
    S(g) = g^-1.  Group algebras are cocommutative, so 1 x 1 is a valid
    R-matrix; it is attached to make the quasitriangular diagnostics
    available.
    """
    identity = validate_group_table(cayley_table)
    field = CyclotomicField(conductor)
    n = len(cayley_table)
    one = field.one
    mult = [{j: {k: one} for j, k in enumerate(row)} for row in cayley_table]
    comult = [{(i, i): one} for i in range(n)]
    counit = [one] * n
    unit = [field.zero] * n
    unit[identity] = one
    antipode = [{row.index(identity): one} for row in cayley_table]
    return HopfAlgebra(field, n, mult, unit, comult, counit, antipode,
                       r_matrix={(identity, identity): one}, basis_labels=labels, name=name)


def drinfeld_double(hopf: HopfAlgebra) -> HopfAlgebra:
    """D(H) on the basis p_a x e_i (dual index major), with coalgebra
    H*cop x H and the canonical R-matrix sum_i (eps x e_i) tensor (p_i x 1).
    The product straightens e_i p_b over Delta^2(e_i) = sum e_u x e_v x e_w
    (Kassel, Quantum Groups, IX.4):

        (p_a x e_i)(p_b x e_j) = sum p_a (e_u -> p_b <- S(e_w)) x e_v e_j,

    <e_u -> p_b <- S(e_w), e_k> = <p_b, S(e_w) e_k e_u>.  The textbook has
    S^-1 for S here, so S^2 = id is required (it holds for semisimple H in
    characteristic 0); NotSemisimpleError names the first e_i it fails on.
    The output is meant to be run through verify(), which also checks the
    quasitriangular identities for the attached R.
    """
    H = hopf
    witness = H._involution_witness()
    if witness is not None:
        raise NotSemisimpleError(f"the double needs an involutive antipode, but S^2 e_{witness} != e_{witness}")
    Hd = H.dual()
    dim, field = H.dim, H.field
    D = dim * dim

    def didx(a, i):
        return a * dim + i

    # p_a p_k = sum_m Delta(e_m)_(a, k) p_m in H*, listed by k
    dual_terms = [[] for _ in range(dim)]
    for m, cell in enumerate(H.comult):
        for (a, k), d in cell.items():
            dual_terms[k].append((a, m, d))

    mult = [{} for _ in range(D)]
    for i in range(dim):
        delta2 = {}
        for (u, x), c in H.comult[i].items():
            for (v, w), d in H.comult[x].items():
                _tensor_add(delta2, (u, v, w), c * d)
        for (u, v, w), c in delta2.items():
            for k, terms in enumerate(dual_terms):
                # s at e_b is <p_b, S(e_w) e_k e_u>
                sandwich = H.sparse_product(H.sparse_product(H.antipode[w], {k: field.one}), {u: field.one})
                for b, s in sandwich.items():
                    for a, m, d in terms:
                        row, f = mult[didx(a, i)], c * s * d
                        for j, cell in H.mult[v].items():
                            out = row.setdefault(didx(b, j), {})
                            for n, cn in cell.items():
                                _tensor_add(out, didx(m, n), f * cn)
    mult = [{bj: out for bj, out in sorted(row.items()) if out} for row in mult]

    comult = [dict() for _ in range(D)]
    for a in range(dim):
        for i in range(dim):
            cell = comult[didx(a, i)]
            for (j, k), c in Hd.comult[a].items():
                for (u, v), d in H.comult[i].items():
                    # H*cop: second dual leg first
                    _tensor_add(cell, (didx(k, u), didx(j, v)), c * d)

    def pure(p, h):
        # p (x) h for sparse p in H* and h in H; index a * dim + i is p_a (x) e_i
        return {didx(a, i): c * d for a, c in p.items() for i, d in h.items()}

    eps, one = _to_sparse(H.counit), _to_sparse(H.unit)
    unit = _to_dense(pure(eps, one), D, field)
    counit = _to_dense(pure(one, eps), D, field)
    labels = None
    if H.basis_labels:
        labels = [f"{H.basis_labels[a]}*|{H.basis_labels[i]}" for a in range(dim) for i in range(dim)]

    algebra = AlgebraPresentation(field, D, mult, unit)
    # S(p_a x e_i) = (eps x S e_i) * (s(p_a) x 1)
    left = [pure(eps, s) for s in H.antipode]
    antipode = [algebra.sparse_product(x, right) for right in (pure(s, one) for s in Hd.antipode) for x in left]

    r = {}
    for i in range(dim):
        e_i = {i: field.one}
        for x, cx in pure(eps, e_i).items():
            for y, cy in pure(e_i, one).items():
                _tensor_add(r, (x, y), cx * cy)

    return HopfAlgebra(field, D, mult, unit, comult, counit, antipode,
                       r_matrix=r, basis_labels=labels,
                       name=f"D({H.name})" if H.name else "double")
