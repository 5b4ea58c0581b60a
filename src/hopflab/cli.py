"""Command-line interface: load Hopf data files, run named computations,
emit deterministic JSON reports (optional plain-text rendering).

A command that reads a data file is a body registered with
`_file_command(name)`: the decorator adds the FILE argument, --workspace and
--text, loads FILE (axioms checked, except for `verify`), calls
`body(hopf, digest, **options)` and emits the `(result, exit_code, text)` the
body returns, so a body only computes.  `dual` and `double` write a data
file through `_transform_command`; `skryabin-demo` and `corpus` read none.

Exit codes: 0 verified success, 1 verified mathematical failure (an axiom
or series check that ran and said "no"), 2 operational error.  Reports
embed the input content hash and the tool version; running the same
command twice on the same input produces byte-identical output.

HOPFLAB_CYCLOTOMIC_ORDER overrides the file-level conductor (must be a
multiple) to retry computations that raised a field-too-small error.  A
value that is not a positive integer, like a malformed --chain file, is an
operational error.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import __version__
from .builders import drinfeld_double
from .coideal import coideal_closure, coideal_from_subspace
from .errors import HopfLabError, SchemaError
from .harmonic import coideal_characters, induce_character, reciprocity_table
from .linalg import Subspace
from .scalars import scalar_to_string
from .serialize import (
    coideal_to_dict,
    content_hash,
    dumps_canonical,
    load_hopf,
    save_hopf,
)
from .solvability import (
    ascending_central_series,
    check_nilpotent_criterion,
    check_solvable_series,
    find_solvable_series,
    skryabin_counterexample,
)


def _conductor_override():
    value = os.environ.get("HOPFLAB_CYCLOTOMIC_ORDER")
    if not value:
        return None
    try:
        order = int(value)
    except ValueError:
        order = 0
    if order < 1:
        raise SchemaError(f"HOPFLAB_CYCLOTOMIC_ORDER={value!r} is not a positive integer")
    return order


def _load(path, verify):
    return load_hopf(path, verify=verify, conductor_override=_conductor_override())


def _element_str(hopf, vec):
    parts = []
    for i, c in enumerate(vec):
        if not c.is_zero():
            parts.append(f"({scalar_to_string(c)})*{hopf.label(i)}")
    return " + ".join(parts) if parts else "0"


def _emit(command, result, exit_code, input_file=None, input_hash=None,
          workspace=None, text=None, as_text=False):
    report = {
        "tool": "hopflab",
        "version": __version__,
        "command": command,
        "result": result,
    }
    if input_file is not None:
        report["input"] = {"file": os.path.basename(input_file), "sha256": input_hash}
    payload = dumps_canonical(report)
    if workspace:
        os.makedirs(workspace, exist_ok=True)
        name = f"{command}-{content_hash(payload)[:12]}.json"
        out_path = os.path.join(workspace, name)
        with open(out_path, "w") as fh:
            fh.write(payload)
        click.echo(out_path)
    elif as_text and text is not None:
        click.echo(text)
    else:
        click.echo(payload, nl=False)
    sys.exit(exit_code)


def _fail(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _parse_gens(hopf, gens):
    """Basis vectors for the comma-separated tokens of gens.  A token is a
    basis label, or else, when no label matches, a basis index."""
    labels = hopf.basis_labels or []
    out = []
    for token in gens.split(","):
        token = token.strip()
        if not token:
            continue
        if token in labels:
            out.append(hopf.basis(labels.index(token)))
        elif token.isdecimal() and int(token) < hopf.dim:
            out.append(hopf.basis(int(token)))
        else:
            _fail(f"unknown basis element {token!r}")
    return out


def _context_from_gens(hopf, gens):
    """The coideal subalgebra that --gens names: H itself for "H", which is
    closed already, else the closure of the listed basis elements."""
    if gens.strip() == "H":
        return coideal_from_subspace(hopf, Subspace.full(hopf.field, hopf.dim))
    return coideal_closure(hopf, _parse_gens(hopf, gens))


workspace_option = click.option(
    "--workspace", type=click.Path(file_okay=False), default=None,
    help="write the report into this directory instead of stdout",
)
text_option = click.option(
    "--text", "as_text", is_flag=True, help="plain-text rendering instead of JSON"
)
file_argument = click.argument("file", type=click.Path(exists=True, dir_okay=False))


class _Main(click.Group):
    """Turns the errors of any command into exit code 2 with a message:
    HopfLabError (bad input, a field too small) and OSError (a path that
    cannot be read or written).  Any other exception is a bug and propagates."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (HopfLabError, OSError) as err:
            _fail(err)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="hopflab")
def main():
    """Exact computations with semisimple Hopf algebras."""


def _file_command(name, verify_input=True):
    """Register `body(hopf, digest, **options)` as the command `name`, with
    FILE, then the body's own options, then --workspace and --text.  FILE is
    loaded, with its axioms checked unless verify_input is false, and the
    body's `(result, exit_code, text)` is emitted as the report."""
    def register(body):
        def command(file, workspace, as_text, **options):
            hopf, digest = _load(file, verify=verify_input)
            result, exit_code, text = body(hopf, digest, **options)
            _emit(name, result, exit_code, input_file=file, input_hash=digest,
                  workspace=workspace, text=text, as_text=as_text)
        command.__doc__ = body.__doc__
        command = workspace_option(text_option(command))
        # click lists a function's parameters last-decorated first
        command.__click_params__ += getattr(body, "__click_params__", [])
        return main.command(name=name)(file_argument(command))
    return register


@_file_command("verify", verify_input=False)
def verify(hopf, digest):
    """Check every Hopf axiom of a data file."""
    report = hopf.verify()
    lines = [f"{'ok ' if c.ok else 'FAIL'} {c.name}" + (f" at {c.witness}" if c.witness is not None else "")
             for c in report.checks]
    return report.to_dict(), 0 if report.ok else 1, "\n".join(lines)


def _transform_command(name, transform):
    @main.command(name=name)
    @file_argument
    @click.option("--out", type=click.Path(dir_okay=False), required=True,
                  help="where to write the resulting Hopf data file")
    @click.option("--skip-verify", is_flag=True)
    @workspace_option
    def cmd(file, out, skip_verify, workspace):
        hopf, digest = _load(file, verify=not skip_verify)
        result_hopf = transform(hopf)
        out_hash = save_hopf(result_hopf, out)
        _emit(name, {"dim": result_hopf.dim, "output": os.path.basename(out),
                     "output_sha256": out_hash},
              0, input_file=file, input_hash=digest, workspace=workspace)
    return cmd


_transform_command("dual", lambda hopf: hopf.dual())
# drinfeld_double is looked up when the command runs, as a body's calls are
_transform_command("double", lambda hopf: drinfeld_double(hopf))


@_file_command("integrals")
def integrals(hopf, digest):
    """Idempotent integral and dual integral."""
    pair = hopf.integrals()
    result = {
        "integral": [scalar_to_string(c) for c in pair.integral],
        "dual_integral": [scalar_to_string(c) for c in pair.dual_integral],
    }
    text = (f"integral       = {_element_str(hopf, pair.integral)}\n"
            f"dual integral  = {_element_str(hopf, pair.dual_integral)}")
    return result, 0, text


@_file_command("characters")
def characters(hopf, digest):
    """Character table: degrees and character values on the basis."""
    table = hopf.character_table()
    result = {
        "degrees": table.degrees,
        "characters": [[scalar_to_string(c) for c in chi] for chi in table.characters],
        "basis_labels": [hopf.label(i) for i in range(hopf.dim)],
    }
    header = "chi\\basis | " + " ".join(f"{hopf.label(i):>8}" for i in range(hopf.dim))
    lines = [header, "-" * len(header)]
    for idx, (chi, d) in enumerate(zip(table.characters, table.degrees)):
        row = " ".join(f"{scalar_to_string(c):>8}" for c in chi)
        lines.append(f"chi_{idx} (d={d}) | {row}")
    return result, 0, "\n".join(lines)


@_file_command("coideal")
@click.option("--gens", required=True,
              help='comma-separated basis labels (a basis index where no label matches), or "H"')
@click.option("--save", type=click.Path(dir_okay=False), default=None,
              help="also write the context as JSON")
def coideal(hopf, digest, gens, save):
    """Close generators to a left coideal subalgebra and report it."""
    ctx = _context_from_gens(hopf, gens)
    result = coideal_to_dict(ctx, parent_hash=digest,
                             generators=[g.strip() for g in gens.split(",") if g.strip()])
    if save:
        with open(save, "w") as fh:
            fh.write(dumps_canonical(result))
    text = (f"dim N = {ctx.dim}, dim B = {ctx.invariants.dim}\n"
            f"normal: {ctx.normal}, hopf subalgebra: {ctx.hopf_subalgebra}\n"
            f"integral = {_element_str(hopf, ctx.integral)}")
    return result, 0, text


@_file_command("reciprocity")
@click.option("--gens", required=True)
def reciprocity(hopf, digest, gens):
    """Frobenius reciprocity table for the coideal closure of the generators."""
    table = reciprocity_table(_context_from_gens(hopf, gens))
    result = {
        "entries": table.entries,
        "h_degrees": table.h_degrees,
        "n_degrees": table.n_degrees,
    }
    lines = ["chi\\phi | " + " ".join(f"phi_{j}(d={d})" for j, d in enumerate(table.n_degrees))]
    for i, row in enumerate(table.entries):
        cells = " ".join(f"{v:>8}" for v in row)
        lines.append(f"chi_{i} (d={table.h_degrees[i]}) | {cells}")
    return result, 0, "\n".join(lines)


@_file_command("induce")
@click.option("--gens", required=True)
@click.option("--index", "char_index", type=int, default=0,
              help="which irreducible N-character to induce")
def induce(hopf, digest, gens, char_index):
    """Induce an irreducible character of the coideal closure up to H."""
    ctx = _context_from_gens(hopf, gens)
    chars = coideal_characters(ctx)
    if not 0 <= char_index < len(chars):
        _fail(f"character index {char_index} out of range (N has {len(chars)})")
    induced = induce_character(ctx, chars.characters[char_index])
    result = {
        "character_index": char_index,
        "induced": [scalar_to_string(c) for c in induced],
        "induced_degree": scalar_to_string(hopf.pair(induced, hopf.unit)),
    }
    return result, 0, f"phi_{char_index}^up = {_element_str(hopf.dual(), induced)}"


def _chain_from_file(hopf, path):
    """The chain a --chain file names: a JSON list, or {"chain": [...]},
    whose entries are "k", "H" or lists of basis labels.  Anything else
    raises SchemaError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        raise SchemaError(f"cannot read chain file: {err}") from err
    if isinstance(data, dict):
        data = data.get("chain")
    if not isinstance(data, list):
        raise SchemaError("chain file does not hold a list of entries")
    for entry in data:
        if entry not in ("k", "H") and not (
                isinstance(entry, list) and all(isinstance(label, str) for label in entry)):
            raise SchemaError(f"chain entry {entry!r} is not a list of basis labels")
    chain = []
    for entry in data:
        if entry == "k":
            chain.append(coideal_closure(hopf, []))
        else:
            chain.append(_context_from_gens(hopf, entry if entry == "H" else ",".join(entry)))
    return chain


def _series_text(report):
    return f"verdict: {report.verdict}  dims: {[c.dim for c in report.chain]}"


@_file_command("solvable-check")
@click.option("--chain", "chain_file", required=True, type=click.Path(exists=True, dir_okay=False),
              help='JSON list of chain entries: "k", "H", or lists of generator labels')
def solvable_check(hopf, digest, chain_file):
    """Verify the two solvable-series conditions along a chain."""
    report = check_solvable_series(hopf, _chain_from_file(hopf, chain_file))
    return report.to_dict(), 0 if report.ok else 1, _series_text(report)


@_file_command("solvable-find")
def solvable_find(hopf, digest):
    """Search for a solvable series through normal coideal subalgebras
    (may answer undecided)."""
    report = find_solvable_series(hopf)
    return report.to_dict(), 0 if report.ok else 1, _series_text(report)


@_file_command("nilpotent-check")
@click.option("--chain", "chain_file", type=click.Path(exists=True, dir_okay=False), default=None,
              help="optionally also test this chain against the centrality criterion")
def nilpotent_check(hopf, digest, chain_file):
    """Ascending central series and the nilpotency verdict."""
    report = ascending_central_series(hopf)
    result = report.to_dict()
    if chain_file:
        chain = _chain_from_file(hopf, chain_file)
        ok, witness = check_nilpotent_criterion(hopf, chain)
        result["criterion_chain"] = {
            "dims": [c.dim for c in chain],
            "passes": ok,
            "witness": witness,
        }
        if ok != report.is_nilpotent:
            _fail("criterion chain disagrees with the ascending central series")
    text = f"nilpotent: {report.is_nilpotent}  chain dims: {result['dims']}"
    return result, 0 if report.is_nilpotent else 1, text


@main.command(name="skryabin-demo")
@workspace_option
@text_option
def skryabin_demo(workspace, as_text):
    """Reproduce the non-commuting-integrals counterexample in the dual of
    the smallest nonabelian group algebra."""
    facts = skryabin_counterexample()
    ks3 = facts["group_algebra"]
    ok = (
        facts["dim_n"] == 3 and facts["dim_l"] == 3
        and facts["intersection_dim"] == 1
        and not facts["products_equal"]
        and not facts["integrals_commute"]
        and not facts["product_is_integral"]
        and not facts["projection_injective"]
    )
    result = {
        "dim_n": facts["dim_n"],
        "dim_l": facts["dim_l"],
        "intersection_dim": facts["intersection_dim"],
        "n_is_hopf_subalgebra": facts["n_is_hopf_subalgebra"],
        "product_nl": _element_str(ks3, facts["product_nl_scaled"]),
        "product_ln": _element_str(ks3, facts["product_ln_scaled"]),
        "products_equal": facts["products_equal"],
        "integrals_commute": facts["integrals_commute"],
        "product_is_integral": facts["product_is_integral"],
        "projection_injective_on_l": facts["projection_injective"],
        "all_expected_facts": ok,
    }
    text = (
        f"dim N = {facts['dim_n']}, dim L = {facts['dim_l']}, "
        f"N cap L has dim {facts['intersection_dim']}\n"
        f"lambda_N lambda_L = {result['product_nl']}\n"
        f"lambda_L lambda_N = {result['product_ln']}\n"
        f"products equal: {facts['products_equal']}; integral for the "
        f"generated algebra: {facts['product_is_integral']}\n"
        f"projection along N injective on L: {facts['projection_injective']}"
    )
    _emit("skryabin-demo", result, 0 if ok else 1, workspace=workspace,
          text=text, as_text=as_text)


@main.command()
@click.option("--export", "export_dir", type=click.Path(file_okay=False), default=None,
              help="write all corpus files into a directory")
@workspace_option
def corpus(export_dir, workspace):
    """List (or export) the bundled example algebras."""
    from .corpus import corpus_file, corpus_names, write_corpus_files

    if export_dir:
        hashes = write_corpus_files(export_dir)
        result = {"exported": export_dir, "sha256": hashes}
    else:
        entries = {}
        for name in corpus_names():
            path = corpus_file(name)
            with open(str(path)) as fh:
                text = fh.read()
            entries[name] = {"file": f"{name}.hopf.json", "sha256": content_hash(text),
                             "dim": json.loads(text)["dim"]}
        result = {"algebras": entries}
    _emit("corpus", result, 0, workspace=workspace)


if __name__ == "__main__":
    main()
