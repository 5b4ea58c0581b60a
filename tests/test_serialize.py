import json
import time

import pytest

from hopflab.builders import group_algebra, permutation_group_table, symmetric3_table
from hopflab.corpus import build, corpus_file, corpus_names
from hopflab.errors import AxiomError, SchemaError
from hopflab.serialize import (
    dumps_canonical,
    hopf_from_dict,
    hopf_to_dict,
    load_hopf,
    save_hopf,
)


@pytest.mark.parametrize("name", corpus_names())
def test_dict_roundtrip(name):
    hopf = build(name)
    data = hopf_to_dict(hopf)
    again = hopf_from_dict(json.loads(json.dumps(data)))
    assert again.same_structure(hopf)
    assert again.basis_labels == hopf.basis_labels
    if hopf.r_matrix:
        assert again.r_matrix == hopf.r_matrix


@pytest.mark.parametrize("name", corpus_names())
def test_bundled_files_match_builders(name, tmp_path):
    hopf = build(name)
    out = tmp_path / f"{name}.hopf.json"
    save_hopf(hopf, out)
    bundled = corpus_file(name).read_text()
    assert out.read_text() == bundled


def test_serialization_is_deterministic():
    hopf = build("s3")
    assert dumps_canonical(hopf_to_dict(hopf)) == dumps_canonical(hopf_to_dict(build("s3")))


def test_load_verifies(tmp_path):
    hopf = build("s3")
    path = tmp_path / "s3.hopf.json"
    save_hopf(hopf, path)
    loaded, digest = load_hopf(path)
    assert loaded.same_structure(hopf)
    assert len(digest) == 64
    # tamper with the antipode
    data = json.loads(path.read_text())
    data["antipode"] = [[i, i, "1"] for i in range(6)]
    bad = tmp_path / "bad.hopf.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(AxiomError):
        load_hopf(bad)
    loaded_anyway, _ = load_hopf(bad, verify=False)
    assert not loaded_anyway.verify().ok


def _s3_data_with(key, edit):
    data = hopf_to_dict(build("s3"))
    data[key] = edit(data.get(key))
    return data


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError):
        load_hopf(path)
    bad_inputs = [
        {"dim": 2},
        _s3_data_with("mult", lambda m: [m[0][:2] + [99, m[0][3]]] + m[1:]),  # k out of range
        _s3_data_with("mult", lambda m: [m[0][:2] + [-1, m[0][3]]] + m[1:]),  # negative k
        _s3_data_with("mult", lambda m: [[6, 0, 0, "1"]] + m),                # i out of range
        _s3_data_with("mult", lambda m: m + [m[0][:3] + ["2"]]),              # duplicate triple
        _s3_data_with("mult", lambda m: [[0, 0, True, "1"]] + m[1:]),         # non-integer index
        _s3_data_with("mult", lambda m: [[0, 0, "1"]] + m[1:]),               # too few indices
        _s3_data_with("mult", lambda m: [m[0][:3] + ["1/0"]] + m[1:]),        # zero denominator
        _s3_data_with("comult", lambda m: [m[0][:2] + [6, m[0][3]]] + m[1:]),
        _s3_data_with("comult", lambda m: m + [m[-1]]),
        _s3_data_with("antipode", lambda m: [[0, -2, "1"]] + m[1:]),
        _s3_data_with("antipode", lambda m: m + [m[0]]),
        _s3_data_with("unit", lambda u: ["1/0"] + u[1:]),
        _s3_data_with("r_matrix", lambda _: [[0, 6, "1"]]),
        _s3_data_with("r_matrix", lambda _: [[0, 0, "1"], [0, 0, "1"]]),
        _s3_data_with("mult", lambda m: [m[0][:3] + [1]] + m[1:]),           # scalar as a number
        _s3_data_with("unit", lambda u: [1] + u[1:]),
        _s3_data_with("counit", lambda u: "1" * 6),                          # a string, not a list
        _s3_data_with("dim", lambda _: 6.5),                                 # non-integer dim
        _s3_data_with("dim", lambda _: "6"),
        _s3_data_with("cyclotomic_order", lambda _: 3.5),
        _s3_data_with("cyclotomic_order", lambda _: 0),
        _s3_data_with("basis_labels", lambda _: "abcdef"),                   # a string, not a list
        _s3_data_with("basis_labels", lambda labels: labels[:5] + labels[:1]),  # duplicate label
        _s3_data_with("basis_labels", lambda _: list(range(6))),             # non-string labels
        _s3_data_with("name", lambda _: [1, 2]),                             # non-string name
    ]
    for data in bad_inputs:
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError):
            load_hopf(path)


@pytest.mark.parametrize("text", ["0.5", "1_000", "1e10000000", "1E3", "0x10", "--1",
                                  "1/2.5", "1/", "2**z", "z^1_0", "z^-1"])
def test_load_accepts_only_p_or_p_over_q_coefficients(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_s3_data_with("unit", lambda u: [text] + u[1:])))
    started = time.monotonic()
    with pytest.raises(SchemaError):
        load_hopf(path)
    assert time.monotonic() - started < 1


def test_conductor_override(tmp_path):
    hopf = build("z3")
    path = tmp_path / "z3.hopf.json"
    save_hopf(hopf, path)
    bigger, _ = load_hopf(path, conductor_override=6)
    assert bigger.field.conductor == 6
    assert bigger.verify().ok
    with pytest.raises(SchemaError):
        load_hopf(path, conductor_override=4)  # 4 is not a multiple of 3


@pytest.mark.parametrize("override", [-3, 0, True])
def test_conductor_override_not_a_positive_int(tmp_path, override):
    # -3 % 3 == 0, so a negative multiple must be refused before the field is built
    path = tmp_path / "z3.hopf.json"
    save_hopf(build("z3"), path)
    with pytest.raises(SchemaError, match="not a positive integer"):
        load_hopf(path, conductor_override=override)


def test_zero_entries_are_left_out_on_load():
    # each "0" lands where s3 has no entry; it is read and then dropped
    s3 = build("s3")
    data = hopf_to_dict(s3)
    data["mult"].append([0, 1, 0, "0"])
    data["comult"].append([0, 1, 1, "0"])
    data["antipode"].append([0, 1, "0"])
    data["r_matrix"].append([1, 1, "0"])
    loaded = hopf_from_dict(data)
    assert loaded.same_structure(s3)
    assert loaded.r_matrix == s3.r_matrix
    assert dumps_canonical(hopf_to_dict(loaded)) == dumps_canonical(hopf_to_dict(s3))


@pytest.mark.parametrize("extra", [[[0, 1, 0, "0"], [0, 1, 0, "0"]], [[0, 1, 1, "0"]]])
def test_a_zero_entry_given_twice_is_refused(extra):
    # s3 lists e_0 e_1 = e_1 as [0, 1, 1, "1"]
    data = hopf_to_dict(build("s3"))
    data["mult"] += extra
    with pytest.raises(SchemaError, match="given twice"):
        hopf_from_dict(data)


@pytest.mark.parametrize("table", [
    symmetric3_table()[0],
    permutation_group_table([(1, 2, 0, 3), (0, 2, 3, 1)], 4)[0],  # A4
])
def test_rows_of_a_dual_group_algebra_hold_one_cell_each(tmp_path, table):
    # k^G has e_i e_j = delta_ij e_i: n nonzero cells of the n^2
    path = tmp_path / "dual.hopf.json"
    save_hopf(group_algebra(table).dual(), path)
    hopf, _ = load_hopf(path)
    n = len(table)
    assert hopf.dim == n
    assert sum(len(row) for row in hopf.mult) == n
    assert all(list(row) == [i] for i, row in enumerate(hopf.mult))
    assert sum(len(row) for row in hopf.antipode) == n
