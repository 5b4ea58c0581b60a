"""The generating set S of an algebra (AlgebraPresentation.generating_set)
and the checks that read only S once the axioms are proven.

The full checks are the same loops over every index: `_full_checks`
patches generating_set to return every index, and results computed so on
objects built afresh must equal those read over S.
"""

import contextlib
import gc
import io
import weakref

import pytest

from algebratools import sweedler_h4
from test_verify import reference_report

from hopflab.builders import drinfeld_double, group_algebra, permutation_group_table, symmetric3_table
from hopflab.cli import main
from hopflab.coideal import _check_hopf_map, _normality_pair, coideal_closure, left_kernel, quotient
from hopflab.corpus import coideal_lattice, corpus_file, corpus_names, load, subgroups_of_table
from hopflab.errors import HopfLabError, IntegralError, NotARepresentationError
from hopflab.hopf import HopfAlgebra, _IntegerTensors
from hopflab.linalg import AlgebraPresentation, Subspace, _subalgebra_generated, vec_scale

# the algebras perfbench builds: (permutation generators, conductor, name)
BUILT = {
    "kS4": ([(1, 0, 2, 3), (1, 2, 3, 0)], 1),
    "kA4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 3),
    "kD6": ([(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)], 3),
}


def _built(name):
    generators, conductor = BUILT[name]
    table, labels = permutation_group_table(generators, len(generators[0]))
    return group_algebra(table, conductor=conductor, labels=labels, name=name)


def _double_d4():
    table, labels = permutation_group_table([(1, 2, 3, 0), (3, 2, 1, 0)], 4)
    return drinfeld_double(group_algebra(table, conductor=4, labels=labels, name="kD4"))


def _factory(name, dual):
    """A function building the named algebra afresh and verifying it, so
    that it is proven."""
    def build():
        if name in BUILT:
            H = _built(name)
        elif name == "D(kD4)":
            H = _double_d4()
        else:
            H = load(name, verify=False)[0]
        H = H.dual() if dual else H
        assert H.verify().ok
        return H
    return build


ALGEBRAS = [(name, dual) for name in corpus_names() + sorted(BUILT) for dual in (False, True)]
ALGEBRAS.append(("D(kD4)", False))


def _full_checks(patch):
    """Every check reads every index: generating_set returns them all."""
    patch.setattr(AlgebraPresentation, "generating_set", lambda self: tuple(range(self.dim)))


def _results(H):
    pair = H.integrals()
    return H.verify().to_dict(), H.center(), pair.integral, pair.dual_integral


@pytest.mark.parametrize("name, dual", ALGEBRAS)
def test_checks_over_generators_match_full_checks(name, dual, monkeypatch):
    build = _factory(name, dual)
    H = build()
    assert H._cache["proven"] and H.dual()._cache["proven"]
    over_s = _results(H)
    with monkeypatch.context() as patch:
        _full_checks(patch)
        assert _results(build()) == over_s


def _harmonic_contexts():
    """(algebra, generator labels) of every coideal the perfbench harmonic
    workload visits: each subgroup of s3, d4, q8 and z6, and each single
    basis element but the unit of s3-dual and d-z2."""
    out = []
    for name in ("s3", "d4", "q8", "z6"):
        H = load(name, verify=False)[0]
        table = [[next(iter(row[j])) for j in range(H.dim)] for row in H.mult]
        unit = H.unit.index(H.field.one)
        out += [(name, [H.label(i) for i in members if i != unit]) for members in subgroups_of_table(table)]
    for name in ("s3-dual", "d-z2"):  # their units are sums of basis elements
        H = load(name, verify=False)[0]
        out += [(name, [H.label(i)]) for i in range(H.dim)]
    return out


def _context_results(name, labels):
    H = load(name)[0]
    ctx = coideal_closure(H, [H.basis(H.index_of_label(label)) for label in labels])
    return (ctx.space, ctx.integral, ctx.normal, ctx.hopf_subalgebra,
            _normality_pair(H, ctx.space, ctx.integral), ctx.presentation().center())


@pytest.mark.parametrize("name, labels", _harmonic_contexts())
def test_coideal_checks_over_generators_match_full_checks(name, labels, monkeypatch):
    over_s = _context_results(name, labels)
    with monkeypatch.context() as patch:
        _full_checks(patch)
        assert _context_results(name, labels) == over_s


def _projection_verdict(H, hq):
    try:
        _check_hopf_map(H, hq.quotient, hq._pi, "projection")
    except HopfLabError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", ["s3", "s3-dual", "d4", "q8", "z6", "d-z2"])
def test_projection_check_over_generators_matches_full_check(name, monkeypatch):
    # pi(e_i) := pi(e_j) for every pair (i, j), on the quotient by every
    # normal member of the catalogued lattice: the check reading the
    # products e_s e_j for s in S reaches the verdict of the check reading
    # every e_i e_j, and where S is a proper subset some tampering breaks
    # only the product
    H = load(name)[0]
    assert H._cache["proven"]
    verdicts = []
    for _, ctx in coideal_lattice(name, H):
        if not ctx.normal:
            continue
        hq = quotient(H, ctx)
        rows = list(hq._pi)
        for i in range(H.dim):
            for j in range(H.dim):
                hq._pi = list(rows)
                hq._pi[i] = dict(rows[j])
                over_s = _projection_verdict(H, hq)
                with monkeypatch.context() as patch:
                    _full_checks(patch)
                    assert _projection_verdict(H, hq) == over_s
                verdicts.append(over_s)
    assert None in verdicts
    if len(H.generating_set()) < H.dim:
        assert "projection is not an algebra map" in verdicts


def _ks3():
    table, labels = symmetric3_table()
    return group_algebra(table, conductor=3, labels=labels, name="kS3")


def _broken_ks3(i, j, tensor):
    """kS3 with e_i e_j, or with Delta(e_j), sent to a wrong basis element;
    or, with i ignored, kS3 with R = 1 (x) 1 and Delta twisted to
    Delta(g) = j g j^-1 (x) g ("twist"), or with R = e_j (x) 1
    ("r_matrix").  The twisted Delta and eps stay algebra maps, so the
    counit, coassociativity and R-intertwining checks read S.  Returns
    the changed algebra and its generating set."""
    H = _ks3()
    one = H.field.one
    unit = H.unit.index(one)
    table = [[next(iter(row[b])) for b in range(H.dim)] for row in H.mult]
    wrong = next(n for n in range(H.dim) if n not in (table[i][j], j, unit))
    mult = [{b: dict(cell) for b, cell in row.items()} for row in H.mult]
    comult = [dict(cell) for cell in H.comult]
    r_matrix = None
    if tensor == "mult":
        mult[i][j] = {wrong: one}
    elif tensor == "comult":
        comult[j] = {(j, wrong): one}
    elif tensor == "twist":
        inverse = table[j].index(unit)
        comult = [{(table[table[j][g]][inverse], g): one} for g in range(H.dim)]
        r_matrix = {(unit, unit): one}
    else:
        r_matrix = {(j, unit): one}
    broken = HopfAlgebra(H.field, H.dim, mult, H.unit, comult, H.counit, H.antipode, r_matrix=r_matrix)
    return broken, broken.generating_set()


@pytest.mark.parametrize("tensor, axiom", [
    ("mult", "associativity"), ("comult", "comult_is_algebra_map"), ("twist", "counit"),
    ("twist", "coassociativity"), ("twist", "r_intertwines_coproduct"), ("r_matrix", "r_intertwines_coproduct")])
def test_defect_at_an_index_outside_s_is_caught_and_named_in_loop_order(tensor, axiom):
    # change a cell e_i e_j, or the coproduct of e_j, of kS3 for a j outside
    # the generating set S of the changed algebra, or twist its coproduct
    # by conjugation with such an e_j, or set its R-matrix to e_j (x) 1:
    # the check over S fails (the passing set is a subalgebra that is not
    # the whole algebra, so it misses some s in S), and the full rerun
    # names the reference's witness
    H = _ks3()
    unit = H.unit.index(H.field.one)
    pairs = [(i, j) for i in range(H.dim) for j in range(H.dim)
             if unit not in (i, j) and (tensor == "mult" or i == j)]
    cases = 0
    for i, j in pairs:
        broken, gens = _broken_ks3(i, j, tensor)
        if j in gens or len(gens) == H.dim:
            continue
        cases += 1
        tensors = _IntegerTensors(broken)
        check = getattr(tensors, f"{axiom}_witness")
        assert check(gens) is not None
        report = broken.verify().to_dict()
        assert report == reference_report(broken).to_dict()
        witnesses = {c["axiom"]: c.get("witness") for c in report["checks"]}
        assert witnesses[axiom] == check(range(H.dim)) is not None
        if tensor in ("twist", "r_matrix"):  # the checks over S ran
            assert witnesses["comult_is_algebra_map"] is witnesses["counit_is_algebra_map"] is None
        assert "proven" not in broken._cache
    assert cases


def test_counit_coassociativity_and_intertwining_read_only_s_on_a_double(monkeypatch):
    # once Delta and eps are proven algebra maps, the three loops are asked
    # for the indices of S alone
    names = ("counit_witness", "coassociativity_witness", "r_intertwines_coproduct_witness")
    reads = {}
    for name in names:
        check = getattr(_IntegerTensors, name)
        monkeypatch.setattr(_IntegerTensors, name, lambda self, indices, name=name, check=check:
                            reads.setdefault(name, []).append(tuple(indices)) or check(self, indices))
    H = load("d-s3", verify=False)[0]
    assert H.verify().ok
    gens = H.generating_set()
    assert len(gens) == 19
    assert reads == {name: [gens] for name in names}


def _term_pairs(H):
    """The term pairs the full associativity loop visits: for every nonzero
    c_ij^m, the nonzero constants of row m."""
    row_terms = [sum(len(cell) for cell in row.values()) for row in H.mult]
    return sum(row_terms[m] for row in H.mult for cell in row.values() for m in cell)


@pytest.mark.parametrize("build, size", [(_ks3, 2), (lambda: load("s3-dual", verify=False)[0], 6),
                                         (lambda: load("d-s3", verify=False)[0], 19)],
                         ids=["kS3", "k^S3", "d-s3"])
def test_search_makes_no_more_products_than_associativity_visits_term_pairs(build, size, monkeypatch):
    # the search gives up (k^S3, S is every index) once it would make more
    # products than the full associativity loop visits term pairs
    H = build()
    products = []
    sparse_product = AlgebraPresentation.sparse_product
    monkeypatch.setattr(AlgebraPresentation, "sparse_product",
                        lambda self, x, y: products.append(1) or sparse_product(self, x, y))
    assert len(H.generating_set()) == size
    assert len(products) <= _term_pairs(H)


@pytest.mark.parametrize("build", [lambda: load("d-z2", verify=False)[0], lambda: load("d-s3", verify=False)[0],
                                   _double_d4], ids=["d-z2", "d-s3", "D(kD4)"])
def test_doubles_and_their_duals_get_a_generating_set(build):
    H = build()
    for A in (H, H.dual()):
        gens = A.generating_set()
        assert len(gens) < A.dim
        assert _subalgebra_generated(A, [{s: A.field.one} for s in gens]) == Subspace.full(A.field, A.dim)


@pytest.mark.parametrize("build", [lambda: load("s3-dual", verify=False)[0], lambda: _built("kA4").dual()],
                         ids=["k^S3", "k^A4"])
def test_budget_falls_back_to_every_index(build, monkeypatch):
    # k^G has a basis of orthogonal idempotents: any S of basis elements
    # has dim - 1 members, at up to dim products each, more than mult has
    # nonzero cells, so the search gives up within that budget (each row
    # holds one constant, so the term pairs of the associativity loop are
    # as many as the nonzero cells)
    H = build()
    products = []
    sparse_product = AlgebraPresentation.sparse_product
    monkeypatch.setattr(AlgebraPresentation, "sparse_product",
                        lambda self, x, y: products.append(1) or sparse_product(self, x, y))
    assert H.generating_set() == tuple(range(H.dim))
    assert len(products) <= sum(len(row) for row in H.mult)


@pytest.mark.parametrize("name", corpus_names())
def test_generating_set_generates(name):
    for H in (load(name, verify=False)[0], load(name, verify=False)[0].dual()):
        gens = H.generating_set()
        assert _subalgebra_generated(H, [{s: H.field.one} for s in gens]) == Subspace.full(H.field, H.dim)


def test_generating_sets_of_group_algebras_are_small():
    assert [len(_built(name).generating_set()) for name in sorted(BUILT)] == [2, 3, 3]
    assert len(load("d4", verify=False)[0].generating_set()) == 3


def test_unverified_non_semisimple_object_still_raises_integral_error():
    H4 = sweedler_h4()
    with pytest.raises(IntegralError, match="input is not semisimple"):
        H4.integrals()
    assert not H4.verify().ok  # its antipode has order 4, so it is never proven
    assert "proven" not in H4._cache and "proven" not in H4.dual()._cache
    with pytest.raises(IntegralError, match="input is not semisimple"):
        H4.integrals()


def test_closure_keeps_only_generators_not_yet_in_w(monkeypatch):
    # all eight elements of D4 as generators: the greedy closure keeps the
    # few that are not yet in W, and multiplies by those alone
    H = load("d4")[0]
    products = []
    sparse_product = HopfAlgebra.sparse_product
    monkeypatch.setattr(HopfAlgebra, "sparse_product",
                        lambda self, x, y: products.append(1) or sparse_product(self, x, y))
    space = _subalgebra_generated(H, [{i: H.field.one} for i in range(H.dim)])
    assert space == Subspace.full(H.field, H.dim)
    assert len(products) <= len(H.generating_set()) * H.dim < H.dim * H.dim


def test_ad_table_holds_nonzero_entries_only():
    H = load("d-s3")[0]
    ad = H._ad_operators()
    assert sum(len(row) for row in ad) == 216  # of 36 x 36 = 1,296 pairs
    assert all(op for row in ad for op in row.values())
    for i, row in enumerate(ad):
        for m in range(H.dim):
            op = H.zero()  # e_i ad e_m = sum c e_j e_m S(e_k) over Delta(e_i)
            for (j, k), c in H.comult[i].items():
                product = H.multiply(H.multiply(H.basis(j), H.basis(m)), H.antipode_of(H.basis(k)))
                op = [x + c * y for x, y in zip(op, product)]
            assert {n: c for n, c in enumerate(op) if not c.is_zero()} == row.get(m, {})


def test_cli_keeps_no_stream_alive():
    # click caches a wrapper per stream it writes to when no stream is
    # given, whose value refers back to the stream; main passes sys.stdout
    # and sys.stderr explicitly, so nothing keeps a caller's streams
    path = str(corpus_file("z2"))
    refs = []
    for _ in range(50):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            main.main(["verify", path], prog_name="hopflab", standalone_mode=False)
        assert out.getvalue()
        refs.append(weakref.ref(out))
        del out
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_ka6_verifies_and_has_its_character_degrees():
    # every cell of kA6's table is nonzero: the full associativity check
    # visits dim^3 = 46.7 M triples, the check over its four generators
    # 360 * 4 * 360 = 518 k
    table, labels = permutation_group_table([(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)], 6)
    H = group_algebra(table, conductor=5, labels=labels, name="kA6")
    assert H.verify().ok
    assert len(H.generating_set()) == 4
    assert sorted(H.character_table().degrees) == [1, 5, 5, 8, 8, 9, 10]


def test_left_kernel_names_the_first_failing_pair_outside_the_generating_set(monkeypatch):
    # the regular module of kS3 with e_5 = (132) acting twice over; over the
    # generating set {(13), (123)} the representation check first fails at
    # i = 3, but the full loop first fails at i = 1, and that pair is named
    H = _factory("s3", False)()
    mats = [[H.multiply(H.basis(i), H.basis(r)) for r in range(H.dim)] for i in range(H.dim)]
    mats[5] = [vec_scale(row, H.field.from_rational(2)) for row in mats[5]]
    with monkeypatch.context() as patch:
        _full_checks(patch)
        with pytest.raises(NotARepresentationError) as full:
            left_kernel(H, mats)
    monkeypatch.setattr(AlgebraPresentation, "generating_set", lambda self: (3, 4))
    with pytest.raises(NotARepresentationError) as over_s:
        left_kernel(H, mats)
    assert str(full.value).endswith("at (1, 2)")
    assert str(over_s.value) == str(full.value)
