import pytest

from hopflab.corpus import build, coideal_lattice, corpus_names, load
from hopflab.scalars import CyclotomicField

EXPECTED_DIMS = {
    "z2": 2, "z3": 3, "z6": 6, "s3": 6, "s3-dual": 6,
    "d4": 8, "q8": 8, "d-z2": 4, "d-s3": 36,
}


def test_corpus_names():
    assert set(corpus_names()) == set(EXPECTED_DIMS)


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS))
def test_every_bundled_file_verifies(name):
    hopf, digest = load(name)  # verify=True raises on any axiom failure
    assert hopf.dim == EXPECTED_DIMS[name]
    assert digest


@pytest.mark.parametrize("name", sorted(EXPECTED_DIMS))
def test_loading_reduces_modulo_phi_at_most_dim_times(name, monkeypatch):
    # the structure constants are rational, so loading and verifying a file
    # multiplies almost no two irrational scalars; unlike a time, a count of
    # Phi_n reductions does not depend on machine load
    calls = []
    reduce = CyclotomicField._reduce
    monkeypatch.setattr(CyclotomicField, "_reduce", lambda self, coeffs: calls.append(self) or reduce(self, coeffs))
    hopf, _ = load(name)  # verify=True
    assert len(calls) <= hopf.dim


def test_doubles_have_r_matrices():
    for name in ("d-z2", "d-s3"):
        hopf, _ = load(name)
        assert hopf.r_matrix


@pytest.mark.parametrize(
    "name,count", [("s3", 6), ("s3-dual", 6), ("d4", 10), ("q8", 6), ("d-z2", 5)]
)
def test_lattice_sizes(name, count):
    lattice = coideal_lattice(name)
    assert len(lattice) == count
    hopf = lattice[0][1].hopf
    for _, ctx in lattice:
        assert hopf.dim % ctx.dim == 0


def test_s3_dual_lattice_contains_non_hopf_coideal():
    lattice = coideal_lattice("s3-dual")
    non_hopf = [ctx for _, ctx in lattice if not ctx.hopf_subalgebra]
    assert len(non_hopf) == 3  # one per transposition subgroup
    assert all(ctx.dim == 3 for ctx in non_hopf)


def test_build_unknown_name():
    with pytest.raises(KeyError):
        build("nope")
