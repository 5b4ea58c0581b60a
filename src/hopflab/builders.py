"""Constructors: group algebras from Cayley tables, permutation group
tables, and the Drinfeld double with its canonical R-matrix.

Permutation composition is (f g)(x) = f(g(x)) throughout.
"""

from __future__ import annotations

from .errors import NotAGroupError
from .hopf import HopfAlgebra
from .linalg import AlgebraPresentation, _tensor_add, _to_sparse
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
    axiom (closure, identity, inverses, associativity)."""
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
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroupError("associativity", f"at ({a}, {b}, {c})")
    return identity


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
    mult = [[{cayley_table[i][j]: one} for j in range(n)] for i in range(n)]
    comult = [{(i, i): one} for i in range(n)]
    counit = [one] * n
    unit = [field.zero] * n
    unit[identity] = one
    inverse = [0] * n
    for x in range(n):
        for y in range(n):
            if cayley_table[x][y] == identity:
                inverse[x] = y
                break
    antipode = []
    for i in range(n):
        row = [field.zero] * n
        row[inverse[i]] = one
        antipode.append(row)
    return HopfAlgebra(field, n, mult, unit, comult, counit, antipode,
                       r_matrix={(identity, identity): one}, basis_labels=labels, name=name)


def drinfeld_double(hopf: HopfAlgebra) -> HopfAlgebra:
    """D(H) on the basis p_a x e_i (dual index major), with the usual
    straightening multiplication, coalgebra H*cop x H, and the canonical
    R-matrix sum_i (eps x e_i) tensor (p_i x 1).

    The output is meant to be run through verify(), which also checks the
    quasitriangular identities for the attached R.
    """
    H = hopf
    Hd = H.dual()
    dim, field = H.dim, H.field
    D = dim * dim

    def didx(a, i):
        return a * dim + i

    # Delta^2 of each basis element of H
    delta2 = []
    for i in range(dim):
        t3 = {}
        for (u, x), c in H.comult[i].items():
            for (v, w), d in H.comult[x].items():
                _tensor_add(t3, (u, v, w), c * d)
        delta2.append(t3)

    q_cache = {}

    def sandwich(u, w, b):
        # q[k] = <p_b, S(e_w) e_k e_u>, as e_u -> (p_b <- S(e_w)) in H*
        key = (u, w, b)
        if key not in q_cache:
            q_cache[key] = Hd.act_left(H.basis(u), Hd.act_right(H.basis(b), H.antipode[w]))
        return q_cache[key]

    mult = [[{} for _ in range(D)] for _ in range(D)]
    for a in range(dim):
        for i in range(dim):
            row = mult[didx(a, i)]
            for b in range(dim):
                for j in range(dim):
                    out = {}
                    for (u, v, w), c in delta2[i].items():
                        q = sandwich(u, w, b)
                        pa_q = Hd.multiply(H.basis(a), q)
                        if all(x.is_zero() for x in pa_q):
                            continue
                        for mp, cm in H.mult[v][j].items():
                            f = c * cm
                            for cd, cq in enumerate(pa_q):
                                if not cq.is_zero():
                                    _tensor_add(out, didx(cd, mp), f * cq)
                    row[didx(b, j)] = out

    comult = [dict() for _ in range(D)]
    for a in range(dim):
        for i in range(dim):
            cell = comult[didx(a, i)]
            for (j, k), c in Hd.comult[a].items():
                for (u, v), d in H.comult[i].items():
                    # H*cop: second dual leg first
                    _tensor_add(cell, (didx(k, u), didx(j, v)), c * d)

    def pure(p, h):
        # p (x) h for p in H* and h in H; index a * dim + i is p_a (x) e_i
        return [c * d for c in p for d in h]

    unit = pure(H.counit, H.unit)
    counit = pure(H.unit, H.counit)
    labels = None
    if H.basis_labels:
        labels = [f"{H.basis_labels[a]}*|{H.basis_labels[i]}" for a in range(dim) for i in range(dim)]

    algebra = AlgebraPresentation(field, D, mult, unit)
    # S(p_a x e_i) = (eps x S e_i) * (s(p_a) x 1)
    left = [pure(H.counit, s) for s in H.antipode]
    antipode = [algebra.multiply(x, right) for right in (pure(s, H.unit) for s in Hd.antipode) for x in left]

    r = {}
    for i in range(dim):
        e_i = H.basis(i)
        for x, cx in _to_sparse(pure(H.counit, e_i)).items():
            for y, cy in _to_sparse(pure(e_i, H.unit)).items():
                _tensor_add(r, (x, y), cx * cy)

    return HopfAlgebra(field, D, mult, unit, comult, counit, antipode,
                       r_matrix=r, basis_labels=labels,
                       name=f"D({H.name})" if H.name else "double")
