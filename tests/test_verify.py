"""HopfAlgebra.verify against a Scalar reference.

`reference_report` checks every axiom with Scalar arithmetic on sparse
dicts, one basis index (or pair) at a time, in the loop order that fixes
each check's witness; the unit check is algebratools' dense one.  verify()
must give the same report, witnesses included, on the corpus, on algebras
rewritten in a basis with irrational and fractional structure constants,
and on randomly tampered copies of all of them.
"""

import random

import pytest

from algebratools import dense_unit_witness

from hopflab.builders import cyclic_group_table, group_algebra, symmetric3_table
from hopflab.corpus import corpus_names
from hopflab.corpus import load as load_corpus
from hopflab.hopf import AxiomCheck, AxiomReport, HopfAlgebra
from hopflab.linalg import _tensor_add, rref, vec_add, vec_eq, vec_scale
from hopflab.scalars import QQ, CyclotomicField

# -- the reference ------------------------------------------------------------


def _tensor2_of_pair(x, y):
    return {(i, j): xi * yj for i, xi in enumerate(x) for j, yj in enumerate(y)
            if not (xi.is_zero() or yj.is_zero())}


def _tensor2_product(H, t1, t2):
    """t1 t2 in H (x) H, for sparse dicts {(a, b): c}."""
    out = {}
    for (a, b), c in t1.items():
        for (x, y), d in t2.items():
            f = c * d
            for m, cm in H.mult[a].get(x, {}).items():
                for n, cn in H.mult[b].get(y, {}).items():
                    _tensor_add(out, (m, n), f * cm * cn)
    return out


def _first(indices, fails):
    return next((idx for idx in indices if fails(idx)), None)


def reference_report(H):
    dim, field = H.dim, H.field
    pairs = [(i, j) for i in range(dim) for j in range(dim)]
    checks = [AxiomCheck("unit", *_witness(dense_unit_witness(H)))]

    def assoc_fails(ijk):
        i, j, k = ijk
        lhs, rhs = {}, {}
        for m, c in H.mult[i].get(j, {}).items():
            for n, d in H.mult[m].get(k, {}).items():
                _tensor_add(lhs, n, c * d)
        for m, c in H.mult[j].get(k, {}).items():
            for n, d in H.mult[i].get(m, {}).items():
                _tensor_add(rhs, n, c * d)
        return lhs != rhs
    triples = [(i, j, k) for i, j in pairs for k in range(dim)]
    checks.append(AxiomCheck("associativity", *_witness(_first(triples, assoc_fails))))

    def counit_fails(i):
        left, right = H.zero(), H.zero()
        for (j, k), c in H.comult[i].items():
            left[k] = left[k] + c * H.counit[j]
            right[j] = right[j] + c * H.counit[k]
        return not (vec_eq(left, H.basis(i)) and vec_eq(right, H.basis(i)))
    checks.append(AxiomCheck("counit", *_witness(_first(range(dim), counit_fails))))

    def coassoc_fails(i):
        lhs, rhs = {}, {}
        for (j, k), c in H.comult[i].items():
            for (a, b), d in H.comult[j].items():
                _tensor_add(lhs, (a, b, k), c * d)
            for (a, b), d in H.comult[k].items():
                _tensor_add(rhs, (j, a, b), c * d)
        return lhs != rhs
    checks.append(AxiomCheck("coassociativity", *_witness(_first(range(dim), coassoc_fails))))

    def comult_fails(ij):
        i, j = ij
        lhs = {}
        for k, c in H.mult[i].get(j, {}).items():
            for jk, d in H.comult[k].items():
                _tensor_add(lhs, jk, c * d)
        return lhs != _tensor2_product(H, H.comult[i], H.comult[j])
    if H.comult_of(H.unit) != _tensor2_of_pair(H.unit, H.unit):
        witness = "unit"
    else:
        witness = _first(pairs, comult_fails)
    checks.append(AxiomCheck("comult_is_algebra_map", *_witness(witness)))

    def counit_mult_fails(ij):
        i, j = ij
        lhs = field.zero
        for k, c in H.mult[i].get(j, {}).items():
            lhs = lhs + c * H.counit[k]
        return lhs != H.counit[i] * H.counit[j]
    witness = "unit" if not H.counit_of(H.unit).is_one() else _first(pairs, counit_mult_fails)
    checks.append(AxiomCheck("counit_is_algebra_map", *_witness(witness)))

    def antipode_fails(i):
        left, right = H.zero(), H.zero()
        for (j, k), c in H.comult[i].items():
            left = vec_add(left, vec_scale(H.multiply(H.antipode_of(H.basis(j)), H.basis(k)), c))
            right = vec_add(right, vec_scale(H.multiply(H.basis(j), H.antipode_of(H.basis(k))), c))
        target = vec_scale(H.unit, H.counit[i])
        return not (vec_eq(left, target) and vec_eq(right, target))
    checks.append(AxiomCheck("antipode", *_witness(_first(range(dim), antipode_fails))))

    involutive = _first(range(dim), lambda i: not vec_eq(H.antipode_of(H.antipode_of(H.basis(i))), H.basis(i)))
    checks.append(AxiomCheck("antipode_involutive", *_witness(involutive)))
    if H.r_matrix is not None:
        checks.extend(_reference_quasitriangular(H))
    return AxiomReport(checks)


def _witness(w):
    return w is None, w


def _reference_quasitriangular(H):
    R = H.r_matrix
    r_inv = {}  # (S x id)R
    for (i, j), c in R.items():
        for m, cm in H.antipode[i].items():
            _tensor_add(r_inv, (m, j), c * cm)
    invertible = _tensor2_product(H, R, r_inv) == _tensor2_of_pair(H.unit, H.unit)
    checks = [AxiomCheck("r_invertible", invertible)]

    lhs, rhs = {}, {}  # (Delta x id)R = R13 R23
    for (i, j), c in R.items():
        for (a, b), d in H.comult[i].items():
            _tensor_add(lhs, (a, b, j), c * d)
    for (a, b), c in R.items():
        for (x, y), d in R.items():
            for m, cm in H.mult[b].get(y, {}).items():
                _tensor_add(rhs, (a, x, m), c * d * cm)
    checks.append(AxiomCheck("r_left_coproduct", lhs == rhs))

    lhs, rhs = {}, {}  # (id x Delta)R = R13 R12
    for (i, j), c in R.items():
        for (a, b), d in H.comult[j].items():
            _tensor_add(lhs, (i, a, b), c * d)
    for (a, b), c in R.items():
        for (x, y), d in R.items():
            for m, cm in H.mult[a].get(x, {}).items():
                _tensor_add(rhs, (m, y, b), c * d * cm)
    checks.append(AxiomCheck("r_right_coproduct", lhs == rhs))

    def intertwine_fails(h):
        flipped = {(k, j): c for (j, k), c in H.comult[h].items()}
        return _tensor2_product(H, flipped, R) != _tensor2_product(H, R, H.comult[h])
    checks.append(AxiomCheck("r_intertwines_coproduct", *_witness(_first(range(H.dim), intertwine_fails))))
    return checks


# -- algebras with irrational and fractional constants --------------------------


def rebased(H, P):
    """H on the basis f_i = sum_a P[i][a] e_a (P invertible over H's field)."""
    field, dim = H.field, H.dim
    augmented = [list(row) + [field.one if c == i else field.zero for c in range(dim)]
                 for i, row in enumerate(P)]
    rows, pivots = rref(augmented, field)
    assert pivots == list(range(dim)), "P is not invertible"
    Q = [row[dim:] for row in rows]  # e_a = sum_c Q[a][c] f_c

    def f_coords(vec):  # e-coordinates -> f-coordinates
        out = H.zero()
        for a, va in enumerate(vec):
            if not va.is_zero():
                out = vec_add(out, vec_scale(Q[a], va))
        return out

    def f_tensor(t):  # {(a, b): c} in e (x) e -> f (x) f
        out = {}
        for (a, b), c in t.items():
            for x, qa in enumerate(Q[a]):
                for y, qb in enumerate(Q[b]):
                    _tensor_add(out, (x, y), c * qa * qb)
        return out

    def sparse(vec):
        return {k: c for k, c in enumerate(vec) if not c.is_zero()}

    mult = [{j: cell for j in range(dim) if (cell := sparse(f_coords(H.multiply(P[i], P[j]))))}
            for i in range(dim)]
    comult = [f_tensor(H.comult_of(P[i])) for i in range(dim)]
    counit = [H.counit_of(P[i]) for i in range(dim)]
    antipode = [sparse(f_coords(H.antipode_of(P[i]))) for i in range(dim)]
    r_matrix = f_tensor(H.r_matrix) if H.r_matrix is not None else None
    return HopfAlgebra(field, dim, mult, f_coords(H.unit), comult, counit, antipode, r_matrix=r_matrix)


def rebased_z3():
    """kZ3 over Q(zeta_3) on its primitive idempotents
    e_k = (1/3) sum_g zeta^(-kg) g, with e_1 halved and e_2 times zeta."""
    field = CyclotomicField(3)
    table, _ = cyclic_group_table(3)
    scale = [field.one, field.from_rational(QQ(1, 2)), field.zeta]
    P = [[scale[k] * field.zeta_power(-k * g) * QQ(1, 3) for g in range(3)] for k in range(3)]
    return rebased(group_algebra(table, conductor=3), P)


def rescaled(H, scale):
    """H on the basis f_i = scale[i] e_i."""
    field = H.field
    return rebased(H, [[scale[i] if j == i else field.zero for j in range(H.dim)] for i in range(H.dim)])


def rescaled_s3():
    """kS3 over Q(zeta_3) with basis vectors scaled by zeta, 1/2 and sums."""
    field = CyclotomicField(3)
    table, labels = symmetric3_table()
    z, half = field.zeta, field.from_rational(QQ(1, 2))
    return rescaled(group_algebra(table, conductor=3, labels=labels), [field.one, z, half, z + half, z * z, half * z])


def rescaled_d4():
    """kD4 over Q(i) with basis vectors scaled by i, 1/2 and sums."""
    H = load_corpus("d4", verify=False)[0]
    field = H.field
    i, half = field.zeta, field.from_rational(QQ(1, 2))
    return rescaled(H, [field.one, i, half, i + half, -i, half * i, field.from_rational(3), i + 1])


REBASED = {"z3-rebased": rebased_z3, "s3-rescaled": rescaled_s3, "d4-rescaled": rescaled_d4}


def _algebra(name):
    if name in REBASED:
        return REBASED[name]()
    return load_corpus(name, verify=False)[0]


@pytest.mark.parametrize("name", sorted(REBASED))
def test_rebased_algebras_verify_with_irrational_and_fractional_constants(name):
    H = _algebra(name)
    constants = [c for row in H.mult for cell in row.values() for c in cell.values()]
    constants += [c for cell in H.comult for c in cell.values()]
    assert any(not c.is_rational() for c in constants)
    assert any(c.is_rational() and not c.is_integer() for c in constants)
    report = H.verify()
    assert report.ok, report.to_dict()
    assert report.to_dict() == reference_report(H).to_dict()


def test_rebased_verify_needs_the_reduction_modulo_phi(monkeypatch):
    # products of zeta-powers reach zeta^2 in Q(zeta_3), so the sums of a
    # holding identity can differ as raw integer polynomials and agree only
    # modulo Phi_3
    H = rescaled_s3()
    calls = []
    reduce = CyclotomicField._reduce
    monkeypatch.setattr(CyclotomicField, "_reduce", lambda self, coeffs: calls.append(self) or reduce(self, coeffs))
    assert H.verify().ok
    assert calls


@pytest.mark.parametrize("name", corpus_names())
def test_verify_matches_reference_on_corpus(name):
    H = _algebra(name)
    assert H.verify().to_dict() == reference_report(H).to_dict()


def _tampered(H, rng, values):
    """A copy of H with one entry of one tensor replaced."""
    mult = [{j: dict(cell) for j, cell in row.items()} for row in H.mult]
    comult = [dict(cell) for cell in H.comult]
    unit, counit = list(H.unit), list(H.counit)
    antipode = [dict(row) for row in H.antipode]
    r_matrix = dict(H.r_matrix) if H.r_matrix is not None else None
    dim = H.dim
    value = rng.choice(values)
    tensor = rng.choice(["mult", "comult", "unit", "counit", "antipode"] + (["r_matrix"] if r_matrix else []))
    if tensor == "mult":
        i, j = rng.randrange(dim), rng.randrange(dim)
        cell = mult[i].setdefault(j, {})
        cell[rng.choice(sorted(cell) or [0])] = value
    elif tensor == "comult":
        i = rng.randrange(dim)
        key = rng.choice(sorted(comult[i])) if comult[i] and rng.random() < 0.8 else (rng.randrange(dim), rng.randrange(dim))
        comult[i][key] = value
    elif tensor == "r_matrix":
        key = rng.choice(sorted(r_matrix)) if rng.random() < 0.8 else (rng.randrange(dim), rng.randrange(dim))
        r_matrix[key] = value
    elif tensor == "antipode":
        antipode[rng.randrange(dim)][rng.randrange(dim)] = value
    else:
        vec = unit if tensor == "unit" else counit
        vec[rng.randrange(dim)] = value
    return HopfAlgebra(H.field, dim, mult, unit, comult, counit, antipode, r_matrix=r_matrix)


@pytest.mark.parametrize("name", corpus_names() + sorted(REBASED))
def test_verify_witnesses_match_reference_under_random_tampering(name):
    H = _algebra(name)
    field = H.field
    half = field.from_rational(QQ(1, 2))
    values = [field.zero, field.from_rational(-1), field.from_rational(2), half,
              field.zeta, field.zeta_power(2) + half, field.zeta * QQ(-3, 4)]
    rng = random.Random(name)
    failed = 0
    for _ in range(3 if H.dim > 12 else 12):
        broken = _tampered(H, rng, values)
        report = broken.verify()
        assert report.to_dict() == reference_report(broken).to_dict()
        failed += not report.ok
    assert failed


@pytest.mark.parametrize("cell, value, expected", [
    ((1, 4), 0, {"associativity": (0, 1, 4), "comult_is_algebra_map": (0, 2)}),
    ((0, 0), None, {"comult_is_algebra_map": (0, 0), "counit_is_algebra_map": (0, 0)}),
])
def test_witnesses_at_empty_cells_match_reference(cell, value, expected):
    # s3-dual = k^S3 has e_i e_j = 0 for i != j.  Set an empty cell to e_value,
    # or empty the cell e_0 e_0: the first failure of each check below then
    # lies at a pair whose cell is empty, through the other side of its
    # identity, so the loops over pairs must visit every j in order
    H = _algebra("s3-dual")
    mult = [{j: dict(c) for j, c in row.items()} for row in H.mult]
    i, j = cell
    if value is None:
        del mult[i][j]
    else:
        assert j not in mult[i]
        mult[i][j] = {value: H.field.one}
    broken = HopfAlgebra(H.field, H.dim, mult, H.unit, H.comult, H.counit, H.antipode, r_matrix=H.r_matrix)
    report = broken.verify().to_dict()
    assert report == reference_report(broken).to_dict()
    witnesses = {c["axiom"]: c.get("witness") for c in report["checks"]}
    for axiom, witness in expected.items():
        assert witnesses[axiom] == witness
        assert witness[1] not in mult[witness[0]]
