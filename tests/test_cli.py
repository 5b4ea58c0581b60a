import copy
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hopflab
from hopflab.builders import group_algebra, permutation_group_table
from hopflab.cli import main
from hopflab.corpus import corpus_file
from hopflab.serialize import save_hopf


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def path_of(name):
    return str(corpus_file(name))


def test_corpus_listing(runner):
    result = runner.invoke(main, ["corpus"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["tool"] == "hopflab"
    assert len(payload["result"]["algebras"]) == 9
    assert payload["result"]["algebras"]["d-s3"]["dim"] == 36


def test_verify_ok(runner):
    result = runner.invoke(main, ["verify", path_of("s3")])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["result"]["ok"] is True
    assert payload["input"]["sha256"]


def test_verify_is_deterministic(runner):
    a = runner.invoke(main, ["verify", path_of("q8")])
    b = runner.invoke(main, ["verify", path_of("q8")])
    assert a.output == b.output


def test_verify_tampered_file(runner, tmp_path):
    data = json.loads(corpus_file("s3").read_text())
    data["antipode"] = [[i, i, "1"] for i in range(6)]
    bad = tmp_path / "bad.hopf.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["verify", str(bad)])
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert payload["result"]["ok"] is False


def test_malformed_file_is_operational_error(runner, tmp_path):
    bad = tmp_path / "broken.hopf.json"
    bad.write_text("{ nope")
    result = runner.invoke(main, ["integrals", str(bad)])
    assert result.exit_code == 2


def test_out_of_range_index_is_operational_error(runner, tmp_path):
    data = json.loads(corpus_file("s3").read_text())
    data["mult"][0][2] = 99
    bad = tmp_path / "bad.hopf.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["verify", str(bad)])
    assert result.exit_code == 2
    assert "mult index 99" in result.output


def test_axiom_failure_on_load_is_operational_error(runner, tmp_path):
    # commands other than verify refuse to work with a broken structure
    data = json.loads(corpus_file("s3").read_text())
    data["antipode"] = [[i, i, "1"] for i in range(6)]
    bad = tmp_path / "bad.hopf.json"
    bad.write_text(json.dumps(data))
    result = runner.invoke(main, ["integrals", str(bad)])
    assert result.exit_code == 2


def test_induce_index_out_of_range(runner):
    result = runner.invoke(main, ["induce", path_of("s3"), "--gens", "(123)", "--index", "7"])
    assert result.exit_code == 2


def test_dual_and_double_roundtrip(runner, tmp_path):
    out = tmp_path / "s3-dual.json"
    result = runner.invoke(main, ["dual", path_of("s3"), "--out", str(out)])
    assert result.exit_code == 0
    check = runner.invoke(main, ["verify", str(out)])
    assert check.exit_code == 0
    out2 = tmp_path / "dz2.json"
    result = runner.invoke(main, ["double", path_of("z2"), "--out", str(out2)])
    assert result.exit_code == 0
    assert json.loads(result.output)["result"]["dim"] == 4


def test_integrals_text(runner):
    result = runner.invoke(main, ["integrals", path_of("z2"), "--text"])
    assert result.exit_code == 0
    assert "integral" in result.output
    assert "1/2" in result.output


def test_characters(runner):
    result = runner.invoke(main, ["characters", path_of("s3")])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert sorted(payload["result"]["degrees"]) == [1, 1, 2]


def test_coideal_command(runner):
    result = runner.invoke(main, ["coideal", path_of("s3"), "--gens", "(123)"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert payload["dim"] == 3
    assert payload["is_normal"] is True
    assert payload["is_hopf_subalgebra"] is True


def test_coideal_unknown_generator(runner):
    result = runner.invoke(main, ["coideal", path_of("s3"), "--gens", "(99)"])
    assert result.exit_code == 2


def test_reciprocity_command(runner):
    result = runner.invoke(main, ["reciprocity", path_of("s3"), "--gens", "(123)"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    i2 = payload["h_degrees"].index(2)
    row = payload["entries"][i2]
    assert row[0] == 0 and sorted(row[1:]) == [1, 1]


def test_induce_command(runner):
    result = runner.invoke(main, ["induce", path_of("s3"), "--gens", "(123)", "--index", "1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert payload["induced_degree"] == "2"


def test_solvable_check(runner, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(["k", ["(123)"], "H"]))
    result = runner.invoke(main, ["solvable-check", path_of("s3"), "--chain", str(chain)])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert payload["verdict"] == "solvable_series"
    assert payload["dims"] == [1, 3, 6]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(["k", "H"]))
    result = runner.invoke(main, ["solvable-check", path_of("s3"), "--chain", str(short)])
    assert result.exit_code == 1


def test_solvable_find(runner):
    result = runner.invoke(main, ["solvable-find", path_of("s3")])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert payload["dims"] == [1, 3, 6]


def _group_algebra_file(tmp_path, generators, conductor, name):
    table, labels = permutation_group_table(generators, len(generators[0]))
    path = str(tmp_path / f"{name}.hopf.json")
    save_hopf(group_algebra(table, conductor=conductor, labels=labels, name=name), path)
    return path


def test_solvable_find_ks4_over_q(runner, tmp_path):
    # kS4's characters are rational, so its search needs no root of unity
    path = _group_algebra_file(tmp_path, [(1, 0, 2, 3), (1, 2, 3, 0)], 1, "kS4")
    result = runner.invoke(main, ["solvable-find", path])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)["result"]
    assert payload["verdict"] == "solvable_series"
    assert payload["dims"] == [1, 4, 12, 24]


def test_solvable_find_ka5_is_undecided(runner, tmp_path):
    # A5 is simple: its pool is empty and k < H fails
    path = _group_algebra_file(tmp_path, [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 5, "kA5")
    result = runner.invoke(main, ["solvable-find", path])
    assert result.exit_code == 1, result.output
    payload = json.loads(result.output)["result"]
    assert payload["verdict"] == "undecided"
    assert payload["dims"] == []


def test_nilpotent_check(runner):
    result = runner.invoke(main, ["nilpotent-check", path_of("s3")])
    assert result.exit_code == 1
    result = runner.invoke(main, ["nilpotent-check", path_of("d4")])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert payload["dims"] == [2, 8]


def test_skryabin_demo(runner):
    result = runner.invoke(main, ["skryabin-demo"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert payload["all_expected_facts"] is True
    assert "(132)" in payload["product_nl"]
    assert "(123)" in payload["product_ln"]
    text = runner.invoke(main, ["skryabin-demo", "--text"])
    assert "products equal: False" in text.output


def test_workspace_writes_report(runner, tmp_path):
    ws = tmp_path / "reports"
    result = runner.invoke(main, ["verify", path_of("z2"), "--workspace", str(ws)])
    assert result.exit_code == 0
    written = result.output.strip()
    assert os.path.exists(written)
    payload = json.loads(open(written).read())
    assert payload["command"] == "verify"


def test_conductor_override_env(runner, monkeypatch):
    monkeypatch.setenv("HOPFLAB_CYCLOTOMIC_ORDER", "6")
    result = runner.invoke(main, ["characters", path_of("z3")])
    assert result.exit_code == 0
    monkeypatch.setenv("HOPFLAB_CYCLOTOMIC_ORDER", "5")
    result = runner.invoke(main, ["characters", path_of("z3")])
    assert result.exit_code == 2


def test_field_too_small_exits_2_naming_the_rootless_factor(runner, tmp_path, monkeypatch):
    # kZ3 over Q: the characters need the roots of x^3 - 1, and x^2 + x + 1
    # has none in Q
    data = json.loads(corpus_file("z3").read_text())
    data["cyclotomic_order"] = 1
    path = tmp_path / "z3-over-q.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["characters", str(path)])
    assert result.exit_code == 2
    assert result.output == "error: polynomial does not split: x^2 + x + (1)\n"
    monkeypatch.setenv("HOPFLAB_CYCLOTOMIC_ORDER", "3")
    assert runner.invoke(main, ["characters", str(path)]).exit_code == 0


def test_gens_tokens_are_labels_before_indices(runner):
    # q8's label "1" is the unit, not basis index 1 (the label "-1"); s3 has
    # no label "1", so there the token is basis index 1, the label "(23)"
    def report(name, gens):
        result = runner.invoke(main, ["coideal", path_of(name), "--gens", gens])
        assert result.exit_code == 0
        return json.loads(result.output)["result"]

    assert report("q8", "1")["dim"] == 1
    assert report("q8", "-1")["dim"] == 2
    assert report("s3", "1")["basis"] == report("s3", "(23)")["basis"]
    assert report("s3", "1")["dim"] == 2


def test_kq8_over_q_needs_only_the_center_of_n_to_split(runner, tmp_path):
    # the characters need only central idempotents, and Q splits the center
    # of kQ8; restriction and induction read <chi, E_j> / d_j, so the
    # quaternion block, which Q does not split, is no obstacle either
    data = json.loads(corpus_file("q8").read_text())
    data["cyclotomic_order"] = 1
    path = tmp_path / "q8-over-q.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["characters", str(path)])
    assert result.exit_code == 0
    over_q = json.loads(result.output)["result"]
    assert sorted(over_q["degrees"]) == [1, 1, 1, 1, 2]
    assert over_q == json.loads(runner.invoke(main, ["characters", path_of("q8")]).output)["result"]
    for argv in (["reciprocity", "--gens", "H"], ["induce", "--gens", "H", "--index", "1"]):
        result = runner.invoke(main, [argv[0], str(path)] + argv[1:])
        assert result.exit_code == 0
        at_conductor_4 = runner.invoke(main, [argv[0], path_of("q8")] + argv[1:])
        assert json.loads(result.output)["result"] == json.loads(at_conductor_4.output)["result"]
    # N = k<i> is kZ4, whose center needs the roots of x^2 + 1
    result = runner.invoke(main, ["induce", str(path), "--gens", "i"])
    assert result.exit_code == 2
    assert result.output == "error: polynomial does not split: x^2 + (1)\n"


@pytest.mark.parametrize("order", ["24", "36"])
def test_characters_at_a_raised_conductor(runner, monkeypatch, order):
    # the README's remedy for a field that is too small: phi(24) = 8 and
    # phi(36) = 12, and the degrees of kZ6 stay six ones
    monkeypatch.setenv("HOPFLAB_CYCLOTOMIC_ORDER", order)
    result = runner.invoke(main, ["characters", path_of("z6")])
    assert result.exit_code == 0
    assert json.loads(result.output)["result"]["degrees"] == [1] * 6


NO_SYMPY_SCRIPT = """
import contextlib, io, sys
from hopflab.cli import main
from hopflab.corpus import corpus_file
for argv in (["characters", "s3"], ["characters", "d-s3"], ["reciprocity", "s3", "--gens", "(12)"]):
    argv[1] = str(corpus_file(argv[1]))
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(argv, standalone_mode=False)
        except SystemExit as exit:
            assert exit.code == 0, argv
assert "sympy" not in sys.modules
"""


def test_commands_run_without_sympy():
    src = os.path.dirname(os.path.dirname(hopflab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def _z2_data_with(key, value):
    data = json.loads(corpus_file("z2").read_text())
    data[key] = value
    return data


# (command, the file its option names or the data file itself, contents, env)
BAD_INPUTS = {
    "chain-without-chain-key": ("solvable-check", "--chain", {"nochain": 1}, None),
    "chain-entry-number": ("solvable-check", "--chain", {"chain": [5]}, None),
    "chain-bare-number": ("solvable-check", "--chain", 5, None),
    "chain-entry-string": ("solvable-check", "--chain", ["k", "(123)", "H"], None),
    "chain-invalid-json": ("solvable-check", "--chain", "{ nope", None),
    "nilpotent-chain-entry-number": ("nilpotent-check", "--chain", [5], None),
    "env-order-not-a-number": ("characters", None, None, "abc"),
    "env-order-negative": ("characters", None, None, "-3"),
    "env-order-zero": ("characters", None, None, "0"),
    "scalar-as-number": ("verify", "file", _z2_data_with("mult", [[0, 0, 0, 1]]), None),
    "unit-as-numbers": ("verify", "file", _z2_data_with("unit", [1, 0]), None),
    "dim-not-integer": ("verify", "file", _z2_data_with("dim", 2.5), None),
    "labels-string": ("verify", "file", _z2_data_with("basis_labels", "ab"), None),
    "labels-duplicate": ("verify", "file", _z2_data_with("basis_labels", ["e", "e"]), None),
    "labels-not-strings": ("verify", "file", _z2_data_with("basis_labels", [0, 1]), None),
    "name-not-string": ("verify", "file", _z2_data_with("name", [1, 2]), None),
    "scalar-decimal": ("verify", "file", _z2_data_with("unit", ["0.5", "0"]), None),
    "scalar-underscore": ("verify", "file", _z2_data_with("unit", ["1_000", "0"]), None),
    # a 10-byte string that Fraction would read as a 33-million-bit integer
    "scalar-exponent": ("verify", "file", _z2_data_with("unit", ["1e10000000", "0"]), None),
    # terms are split only at + and -, and none may be empty
    "scalar-space-in-term": ("verify", "file", _z2_data_with("unit", ["1 2", "0"]), None),
    "scalar-bare-sign": ("verify", "file", _z2_data_with("unit", ["+", "0"]), None),
    "scalar-trailing-sign": ("verify", "file", _z2_data_with("unit", ["1+", "0"]), None),
    "scalar-doubled-sign": ("verify", "file", _z2_data_with("unit", ["1++2", "0"]), None),
    "mult-entry-number": ("verify", "file", _z2_data_with("mult", [5, [0, 0, 0, "1"]]), None),
    "scalar-zero-denominator": ("verify", "file", _z2_data_with("mult", [[0, 0, 0, "1/0"]]), None),
}

# the whole message of the cases whose wording is pinned
BAD_INPUT_MESSAGES = {
    "mult-entry-number": "error: mult entry 5 is not a list\n",
    "scalar-zero-denominator": "error: mult scalar '1/0' has a zero denominator\n",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_a_message(runner, tmp_path, monkeypatch, case):
    command, option, contents, env = BAD_INPUTS[case]
    if env is not None:
        monkeypatch.setenv("HOPFLAB_CYCLOTOMIC_ORDER", env)
    target = path_of("s3")
    args = []
    if option is not None:
        bad = tmp_path / "bad.json"
        bad.write_text(contents if isinstance(contents, str) else json.dumps(contents))
        if option == "file":
            target = str(bad)
        else:
            args = [option, str(bad)]
    result = runner.invoke(main, [command, target] + args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output
    if case in BAD_INPUT_MESSAGES:
        assert result.output == BAD_INPUT_MESSAGES[case]


# bytes that are not UTF-8, and JSON nested past Python's recursion limit
UNREADABLE_BYTES = b"\xff\xfe{}"
TOO_DEEP = b"[" * 200000

# (command, data file contents or None for s3, chain file contents or None)
UNREADABLE_INPUTS = {
    "data-not-utf8": ("verify", UNREADABLE_BYTES, None),
    "data-too-deep": ("verify", TOO_DEEP, None),
    "data-not-utf8-with-chain": ("solvable-check", UNREADABLE_BYTES, json.dumps(["k", "H"]).encode()),
    "chain-too-deep": ("solvable-check", None, TOO_DEEP),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_exits_2_without_a_traceback(tmp_path, case):
    # a fresh process, so that stderr is exactly what a user sees
    command, data, chain = UNREADABLE_INPUTS[case]
    argv = [command, path_of("s3")]
    if data is not None:
        (tmp_path / "data.json").write_bytes(data)
        argv[1] = str(tmp_path / "data.json")
    if chain is not None:
        (tmp_path / "chain.json").write_bytes(chain)
        argv += ["--chain", str(tmp_path / "chain.json")]
    src = os.path.dirname(os.path.dirname(hopflab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "hopflab.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert "error: " in done.stderr
    assert "Traceback" not in done.stderr


# argv for a command whose output path cannot be written: MISSING is no
# directory, FILE is a regular file
BAD_OUTPUT_PATHS = {
    "coideal-save": ["coideal", "{s3}", "--gens", "(123)", "--save", "{tmp}/MISSING/x.json"],
    "dual-out": ["dual", "{s3}", "--out", "{tmp}/MISSING/x.json"],
    "double-out": ["double", "{z2}", "--out", "{tmp}/MISSING/x.json"],
    "workspace-under-file": ["integrals", "{z2}", "--workspace", "{tmp}/FILE/sub"],
    "corpus-export-under-file": ["corpus", "--export", "{tmp}/FILE/sub"],
}


@pytest.mark.parametrize("case", sorted(BAD_OUTPUT_PATHS))
def test_unwritable_output_path_exits_2_with_a_message(runner, tmp_path, case):
    (tmp_path / "FILE").write_text("")
    argv = [arg.format(tmp=tmp_path, s3=path_of("s3"), z2=path_of("z2"))
            for arg in BAD_OUTPUT_PATHS[case]]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error: " in result.output


def test_other_exceptions_propagate(runner, monkeypatch):
    import hopflab.cli

    def broken(*args, **kwargs):
        raise RuntimeError("a bug, not bad input")

    monkeypatch.setattr(hopflab.cli, "load_hopf", broken)
    result = runner.invoke(main, ["integrals", path_of("z2")])
    assert isinstance(result.exception, RuntimeError)


def test_chain_file_dict_form(runner, tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"chain": ["k", ["(123)"], "H"]}))
    result = runner.invoke(main, ["solvable-check", path_of("s3"), "--chain", str(chain)])
    assert result.exit_code == 0
    assert json.loads(result.output)["result"]["dims"] == [1, 3, 6]


def _relabelled(tmp_path, name, old, new):
    data = json.loads(corpus_file(name).read_text())
    data["basis_labels"] = [new if label == old else label for label in data["basis_labels"]]
    path = tmp_path / f"{name}.hopf.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name, old, new, chain, dims", [
    # a label is never split at its commas
    ("z2", "g", "g,1", ["k", ["g,1"], "H"], [1, 2, 2]),
    # only the entry "H" is the whole algebra; the list ["H"] names a label
    ("s3", "(12)", "H", ["k", ["H"]], [1, 2]),
])
def test_chain_file_lists_resolve_labels_as_given(runner, tmp_path, name, old, new, chain, dims):
    path = _relabelled(tmp_path, name, old, new)
    chain_file = tmp_path / "chain.json"
    chain_file.write_text(json.dumps(chain))
    result = runner.invoke(main, ["solvable-check", path, "--chain", str(chain_file)])
    assert result.exit_code in (0, 1), result.output
    assert json.loads(result.output)["result"]["dims"] == dims


def test_gens_tokens_are_the_reported_generators(runner, tmp_path):
    path = _relabelled(tmp_path, "s3", "(12)", "H")
    result = runner.invoke(main, ["coideal", path, "--gens", " H , (123),"])
    assert result.exit_code == 0
    payload = json.loads(result.output)["result"]
    assert payload["generators"] == ["H", "(123)"]
    assert payload["dim"] == 6
    result = runner.invoke(main, ["coideal", path, "--gens", " H "])
    assert json.loads(result.output)["result"]["generators"] == ["H"]


# Values a mutation may put anywhere in a JSON document.
_MUTANTS = st.sampled_from([
    None, True, -1, 0, 1, 2, 2.5, 99, "", "1", "-1/2", "x", "1/0", "z^7", "k", "H", "g", "e*|g",
    [], [0], ["1"], [["g"]], [0, 0, "1"], [0, 0, 0, "1"], {}, {"chain": 5},
])


def _paths(doc, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON document."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


@st.composite
def _mutated(draw, doc):
    """doc with one or two nodes replaced by a mutant value or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = copy.deepcopy(draw(_MUTANTS))
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(_MUTANTS))
    return doc


_HOPF_DOCS = {name: json.loads(corpus_file(name).read_text()) for name in ("z2", "d-z2")}
_OPTION_DOCS = [
    ("solvable-check", "--chain", ["k", ["g"], "H"]),
    ("nilpotent-check", "--chain", {"chain": ["k", "H"]}),
]


@st.composite
def _mutated_invocation(draw):
    """(argv builder, file contents): a mutated z2 or d-z2 data file under
    verify or integrals, or a mutated chain file for z2."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_HOPF_DOCS)))
        command = draw(st.sampled_from(["verify", "integrals"]))
        return (lambda path: [command, path]), draw(_mutated(_HOPF_DOCS[name]))
    command, option, doc = draw(st.sampled_from(_OPTION_DOCS))
    return (lambda path: [command, path_of("z2"), option, path]), draw(_mutated(doc))


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_invocation())
def test_mutated_inputs_exit_cleanly(runner, tmp_path, invocation):
    argv_for, contents = invocation
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(contents))
    result = runner.invoke(main, argv_for(str(path)))
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
