"""Independent group-theoretic oracles computed straight from Cayley
tables, with no Hopf machinery, for cross-checking the solvability layer."""

import itertools


def identity_of(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            return e
    raise ValueError("no identity")


def inverse_map(table):
    e = identity_of(table)
    inv = {}
    for x in range(len(table)):
        for y in range(len(table)):
            if table[x][y] == e:
                inv[x] = y
                break
    return inv


def subgroup_closure(table, elems):
    e = identity_of(table)
    out = {e} | set(elems)
    frontier = list(out)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                for c in (table[a][b], table[b][a]):
                    if c not in out:
                        out.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(out)


def commutator_subgroup(table, members=None):
    inv = inverse_map(table)
    members = list(members) if members is not None else list(range(len(table)))
    comms = []
    for a in members:
        for b in members:
            comms.append(table[table[a][b]][table[inv[a]][inv[b]]])
    return subgroup_closure(table, comms)


def derived_series(table):
    current = frozenset(range(len(table)))
    series = [current]
    while True:
        nxt = commutator_subgroup(table, current)
        if nxt == current:
            return series
        series.append(nxt)
        current = nxt


def is_solvable_group(table):
    return len(derived_series(table)[-1]) == 1


def center_of_group(table):
    n = len(table)
    return frozenset(x for x in range(n) if all(table[x][y] == table[y][x] for y in range(n)))


def conjugacy_classes(table):
    inv = inverse_map(table)
    n = len(table)
    classes, seen = [], set()
    for x in range(n):
        if x not in seen:
            cls = frozenset(table[table[g][x]][inv[g]] for g in range(n))
            classes.append(cls)
            seen |= cls
    return classes


def normal_subgroups(table):
    """Every normal subgroup: the unions of conjugacy classes that contain
    the identity and are closed under the product."""
    e = identity_of(table)
    classes = [c for c in conjugacy_classes(table) if e not in c]
    found = []
    for r in range(len(classes) + 1):
        for combo in itertools.combinations(classes, r):
            members = frozenset({e}.union(*combo))
            if all(table[a][b] in members for a in members for b in members):
                found.append(members)
    return found
