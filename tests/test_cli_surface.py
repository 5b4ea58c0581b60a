"""The command-line surface: the parameters of every command, pinned, and
the README's examples, run as written."""

import contextlib
import io
import json
import os
import shlex

import click
from click.testing import CliRunner

from hopflab.cli import main

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

TEXT = {"--workspace": ("workspace", False, False), "--text": ("as_text", False, True)}
TRANSFORM = {
    "--out": ("out", True, False),
    "--skip-verify": ("skip_verify", False, True),
    "--workspace": ("workspace", False, False),
}
# command -> {option: (parameter name, required, is_flag)}
OPTIONS = {
    "verify": TEXT,
    "integrals": TEXT,
    "characters": TEXT,
    "coideal": {"--gens": ("gens", True, False), "--save": ("save", False, False), **TEXT},
    "reciprocity": {"--gens": ("gens", True, False), **TEXT},
    "induce": {"--gens": ("gens", True, False), "--index": ("char_index", False, False), **TEXT},
    "solvable-check": {"--chain": ("chain_file", True, False), **TEXT},
    "solvable-find": TEXT,
    "nilpotent-check": {"--chain": ("chain_file", False, False), **TEXT},
    "dual": TRANSFORM,
    "double": TRANSFORM,
    "skryabin-demo": TEXT,
    "corpus": {"--export": ("export_dir", False, False), "--workspace": ("workspace", False, False)},
}
NO_FILE = {"skryabin-demo", "corpus"}


def test_every_command_keeps_its_parameters():
    assert set(main.commands) == set(OPTIONS)
    for name, command in main.commands.items():
        positional = [(p.name, p.required) for p in command.params if isinstance(p, click.Argument)]
        assert positional == ([] if name in NO_FILE else [("file", True)]), name
        options = {"/".join(p.opts): (p.name, p.required, p.is_flag)
                   for p in command.params if isinstance(p, click.Option)}
        assert options == OPTIONS[name], name


def _readme_block(section, fence):
    """The first fenced block, opened by ```fence, under ## section."""
    with open(README) as fh:
        text = fh.read()
    body = text.split(f"\n## {section}\n", 1)[1]
    return body.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HOPFLAB_CYCLOTOMIC_ORDER", raising=False)
    runner = CliRunner()
    assert runner.invoke(main, ["corpus", "--export", "."]).exit_code == 0
    (tmp_path / "chain.json").write_text(json.dumps(["k", ["(123)"], "H"]))
    lines = [line for line in _readme_block("Command line", "").splitlines()
             if line.startswith("hopflab ")]
    assert len(lines) == 13
    for line in lines:
        result = runner.invoke(main, shlex.split(line, comments=True)[1:])
        assert result.exit_code == 0, (line, result.output)


def test_readme_library_snippet_prints_what_it_states():
    code = _readme_block("Library use", "python")
    stated = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    assert out.getvalue().splitlines() == stated
