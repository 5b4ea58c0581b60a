"""Workload definitions and the correctness gate of the benchmark.

A workload is a list of CLI operations on files that set-up writes into the
run's scratch directory.  Every operation is checked three ways: its exit
code, the sha256 of its report against the digest pinned in
``pinned.json``, and identities the benchmark computes on its own, mostly
from the Cayley tables it reads out of the input files.  Nothing in this
module imports hopflab except ``write_inputs``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")

CORPUS_INPUTS = ("s3", "s3-dual", "d4", "q8", "z6", "d-z2", "d-s3")
# Built by set-up from permutation groups, as (generators, conductor, name,
# take the dual): kS4 (dim 24; conductor 1 splits all of its characters),
# kA4 (dim 12), and the duals k^A4 and k^D6 of kA4 and of the dihedral
# group of order 12.  Their coproducts are not cocommutative, so the
# adjoint action is the main cost of their search, as it is on d-s3.
BUILT_INPUTS = {
    "s4": ([(1, 0, 2, 3), (1, 2, 3, 0)], 1, "kS4", False),
    "a4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 3, "kA4", False),
    "a4-dual": ([(1, 2, 0, 3), (1, 0, 3, 2)], 3, "kA4", True),
    "d6-dual": ([(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)], 3, "kD6", True),
}

WORKLOADS = ("search", "structure", "harmonic")
SEARCH_INPUTS = ("a4-dual", "d6-dual", "a4", "d4", "q8", "s3", "s3-dual", "z6", "d-z2")
HARMONIC_GROUPS = ("s3", "d4", "q8", "z6")
HARMONIC_SINGLE_LABELS = ("s3-dual", "d-z2")

# Character degrees fixed by group theory, not by the program.
EXPECTED_DEGREES = {
    "d-s3": [1, 1, 2, 2, 2, 2, 3, 3],
    "s4": [1, 1, 2, 3, 3],
    "s3": [1, 1, 2],
}
# Group theory: 1 < V4 < A4 is the only solvable series of A4 through
# normal subgroups.
EXPECTED_CHAINS = {
    "a4": [1, 4, 12],
}


@dataclass
class Op:
    """One CLI invocation.  ``key`` names it in ``pinned.json`` and does not
    depend on the seed; ``argv`` may carry the generators in seed order."""

    key: str
    kind: str
    algebra: str
    argv: list
    gens: list = field(default_factory=list)
    index: int | None = None


# -- inputs --------------------------------------------------------------------


def write_inputs(dest):
    """Copy the bundled corpus files byte for byte and build the rest."""
    from hopflab.builders import group_algebra, permutation_group_table
    from hopflab.corpus import corpus_file
    from hopflab.serialize import save_hopf

    os.makedirs(dest, exist_ok=True)
    for name in CORPUS_INPUTS:
        text = corpus_file(name).read_text()
        with open(input_path(dest, name), "w") as fh:
            fh.write(text)
    for name, (generators, conductor, group_name, dual) in BUILT_INPUTS.items():
        table, labels = permutation_group_table(generators, len(generators[0]))
        hopf = group_algebra(table, conductor=conductor, labels=labels, name=group_name)
        save_hopf(hopf.dual() if dual else hopf, input_path(dest, name))


def input_path(work, name):
    return os.path.join(work, f"{name}.hopf.json")


# -- independent facts about the inputs -----------------------------------------


@dataclass
class AlgebraFacts:
    name: str
    dim: int
    labels: list
    unit_index: int | None
    table: list | None  # Cayley table when the basis is a group, else None
    commutative: bool
    sha256: str

    def subgroups(self):
        """Every subgroup, as a sorted tuple of basis indices."""
        n, e, t = self.dim, self.unit_index, self.table
        others = [x for x in range(n) if x != e]
        found = []
        for r in range(len(others) + 1):
            for combo in itertools.combinations(others, r):
                members = set(combo) | {e}
                if all(t[a][b] in members for a in members for b in members):
                    found.append(tuple(sorted(members)))
        return found

    def class_count(self, members):
        """Number of conjugacy classes of the subgroup ``members``."""
        t, e = self.table, self.unit_index
        inverse = {a: next(b for b in members if t[a][b] == e) for a in members}
        seen, classes = set(), 0
        for x in members:
            if x not in seen:
                classes += 1
                seen.update(t[t[g][x]][inverse[g]] for g in members)
        return classes


def read_facts(work, name):
    with open(input_path(work, name)) as fh:
        text = fh.read()
    data = json.loads(text)
    dim = data["dim"]
    labels = data.get("basis_labels") or [str(i) for i in range(dim)]
    unit = data["unit"]
    units = [i for i, c in enumerate(unit) if c != "0"]
    unit_index = units[0] if len(units) == 1 and unit[units[0]] == "1" else None
    triples = {(i, j, k): c for i, j, k, c in data["mult"]}
    commutative = all(triples.get((j, i, k)) == c for (i, j, k), c in triples.items())
    table = [[None] * dim for _ in range(dim)]
    grouplike = unit_index is not None
    for i, j, k, c in data["mult"]:
        if c != "1" or table[i][j] is not None:
            grouplike = False
            break
        table[i][j] = k
    if grouplike and any(v is None for row in table for v in row):
        grouplike = False
    return AlgebraFacts(name, dim, labels, unit_index, table if grouplike else None, commutative,
                        hashlib.sha256(text.encode()).hexdigest())


def load_facts(work):
    return {name: read_facts(work, name) for name in CORPUS_INPUTS + tuple(BUILT_INPUTS)}


def load_pinned(path=PINNED_PATH):
    with open(path) as fh:
        return json.load(fh)


# -- operation lists -----------------------------------------------------------


def coideal_key(algebra, gens):
    return f"{algebra} [{','.join(gens)}]"


def harmonic_coideals(facts):
    """(algebra, canonical generator labels) for every coideal the harmonic
    workload visits."""
    out = []
    for name in HARMONIC_GROUPS:
        f = facts[name]
        for members in f.subgroups():
            out.append((name, [f.labels[i] for i in members if i != f.unit_index]))
    for name in HARMONIC_SINGLE_LABELS:
        f = facts[name]
        out += [(name, [label]) for i, label in enumerate(f.labels) if i != f.unit_index]
    return out


def gens_op(kind, algebra, gens, work, index=None):
    ckey = coideal_key(algebra, gens)
    key = f"{kind} {ckey}" + (f" #{index}" if index is not None else "")
    argv = [kind, input_path(work, algebra), "--gens", ",".join(gens)]
    if index is not None:
        argv += ["--index", str(index)]
    return Op(key, kind, algebra, argv, gens=list(gens), index=index)


def build_ops(workload, work, facts, pinned):
    """The workload's operations in canonical order."""
    if workload == "search":
        return [Op(f"solvable-find {n}", "solvable-find", n, ["solvable-find", input_path(work, n)])
                for n in SEARCH_INPUTS]
    if workload == "structure":
        out = os.path.join(work, "double-s3.hopf.json")
        return [
            Op("characters d-s3", "characters", "d-s3", ["characters", input_path(work, "d-s3")]),
            Op("characters s4", "characters", "s4", ["characters", input_path(work, "s4")]),
            Op("double s3", "double", "s3", ["double", input_path(work, "s3"), "--out", out]),
        ]
    if workload == "harmonic":
        ops = []
        for algebra, gens in harmonic_coideals(facts):
            ops.append(gens_op("coideal", algebra, gens, work))
            ops.append(gens_op("reciprocity", algebra, gens, work))
            n_chars = len(pinned["coideals"][coideal_key(algebra, gens)]["n_degrees"])
            ops += [gens_op("induce", algebra, gens, work, i) for i in range(n_chars)]
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def setup_op(work):
    return Op("characters s3", "characters", "s3", ["characters", input_path(work, "s3")])


def permute(ops, seed):
    """Seeded order of the operations and of each operation's generators.
    Neither changes any verdict; ``check_op`` puts generators back in
    canonical order before hashing."""
    rng = random.Random(seed)
    out = []
    for op in ops:
        if len(op.gens) > 1:
            gens = list(op.gens)
            rng.shuffle(gens)
            argv = list(op.argv)
            argv[argv.index("--gens") + 1] = ",".join(gens)
            op = Op(op.key, op.kind, op.algebra, argv, op.gens, op.index)
        out.append(op)
    rng.shuffle(out)
    return out


# -- the gate ------------------------------------------------------------------


def report_digest(op, stdout):
    """sha256 of the report, with a coideal report's generators put back in
    canonical order (the CLI echoes them in the order given)."""
    if op.kind == "coideal" and stdout:
        report = json.loads(stdout)
        report["result"]["generators"] = list(op.gens)
        stdout = json.dumps(report, sort_keys=True, indent=1) + "\n"
    return hashlib.sha256(stdout.encode()).hexdigest()


def _dims_chain_ok(dims, total):
    return (bool(dims) and dims[0] == 1 and dims[-1] == total
            and all(b > a and b % a == 0 for a, b in zip(dims, dims[1:])))


def identity_problems(op, report, facts, pinned):
    """Identities that hold whatever the program does; one string each."""
    result = report["result"]
    f = facts[op.algebra]
    problems = []
    if op.kind == "characters":
        degrees = result["degrees"]
        if sum(d * d for d in degrees) != f.dim:
            problems.append(f"sum of squared degrees {degrees} != dim {f.dim}")
        expected = EXPECTED_DEGREES.get(op.algebra)
        if expected is not None and sorted(degrees) != expected:
            problems.append(f"degrees {sorted(degrees)} != {expected}")
        if len(result["characters"]) != len(degrees):
            problems.append("one character per degree expected")
    elif op.kind == "double":
        if result["dim"] != f.dim ** 2:
            problems.append(f"double has dim {result['dim']}, expected {f.dim ** 2}")
        out_path = op.argv[op.argv.index("--out") + 1]
        with open(out_path, "rb") as fh:
            written = hashlib.sha256(fh.read()).hexdigest()
        if written != result["output_sha256"]:
            problems.append("reported output_sha256 does not match the written file")
        if op.algebra == "s3" and written != facts["d-s3"].sha256:
            problems.append("D(kS3) differs from the bundled d-s3 file")
    elif op.kind == "solvable-find":
        dims = result["dims"]
        if result["verdict"] == "solvable_series" and not _dims_chain_ok(dims, f.dim):
            problems.append(f"chain dims {dims} do not climb from 1 to {f.dim} by divisors")
        # in a commutative H the adjoint action is trivial, so k < H is a series
        expected = [1, f.dim] if f.commutative else EXPECTED_CHAINS.get(op.algebra)
        if expected is not None and dims != expected:
            problems.append(f"chain dims {dims} != {expected}")
        if result["verdict"] == "solvable_series" and not all(
                s["integral_central"] and s["adjoint_condition"] for s in result["steps"]):
            problems.append("a step of a solvable series fails its conditions")
    else:
        problems += _coideal_problems(op, result, f, pinned)
    return problems


def _coideal_problems(op, result, f, pinned):
    problems = []
    facts = pinned["coideals"][coideal_key(op.algebra, op.gens)]
    dim_n, n_degrees = facts["dim"], facts["n_degrees"]
    if f.table is not None:
        members = _subgroup_of(f, op.gens)
        if dim_n != len(members):
            problems.append(f"pinned dim N {dim_n} != subgroup order {len(members)}")
        if len(n_degrees) != f.class_count(members):
            problems.append("number of N-characters != number of conjugacy classes")
    if f.dim % dim_n:
        problems.append(f"dim N {dim_n} does not divide dim H {f.dim}")
    if sum(d * d for d in n_degrees) != dim_n:
        problems.append(f"sum of squared N-degrees {n_degrees} != dim N {dim_n}")
    if op.kind == "coideal":
        if result["dim"] != dim_n:
            problems.append(f"coideal dim {result['dim']} != {dim_n}")
        if result["dim"] * result["invariants_dim"] != f.dim:
            problems.append("dim N * dim B != dim H")
        if sorted(result["generators"]) != sorted(op.gens):
            problems.append("generators not echoed")
    elif op.kind == "reciprocity":
        if result["n_degrees"] != n_degrees:
            problems.append(f"N-degrees {result['n_degrees']} != {n_degrees}")
        h_degrees = result["h_degrees"]
        if sum(d * d for d in h_degrees) != f.dim:
            problems.append("sum of squared H-degrees != dim H")
        for i, row in enumerate(result["entries"]):
            if sum(m * d for m, d in zip(row, n_degrees)) != h_degrees[i]:
                problems.append(f"reciprocity row {i} breaks sum_j m_ij deg phi_j = deg chi_i")
    elif op.kind == "induce":
        expected = Fraction(f.dim, dim_n) * n_degrees[op.index]
        if Fraction(result["induced_degree"]) != expected:
            problems.append(f"induced degree {result['induced_degree']} != {expected}")
    return problems


def _subgroup_of(f, gens):
    index = {label: i for i, label in enumerate(f.labels)}
    members = {f.unit_index} | {index[g] for g in gens}
    # the generators of a harmonic op are a whole subgroup; close anyway
    while True:
        grown = members | {f.table[a][b] for a in members for b in members}
        if grown == members:
            return members
        members = grown


def check_op(op, code, stdout, facts, pinned):
    """Problems with one finished operation; empty means it passed."""
    expect = pinned["ops"].get(op.key)
    if expect is None:
        return [f"no pinned result for {op.key!r}"]
    problems = []
    if code != expect["exit"]:
        problems.append(f"exit code {code}, expected {expect['exit']}")
    if report_digest(op, stdout) != expect["sha256"]:
        problems.append("report digest differs from the pinned one")
    try:
        report = json.loads(stdout)
        problems += identity_problems(op, report, facts, pinned)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as err:
        problems.append(f"report unreadable: {err!r}")
    return problems
