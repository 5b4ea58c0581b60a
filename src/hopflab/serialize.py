"""JSON serialization of Hopf data and reports.

File schema (all scalars as strings, conductor at file level):

    {
      "dim": 6,
      "cyclotomic_order": 3,
      "mult":    [[i, j, k, "c"], ...],   # e_i e_j = sum c e_k
      "comult":  [[i, j, k, "c"], ...],   # Delta(e_i) = sum c e_j (x) e_k
      "unit":    ["c", ...],
      "counit":  ["c", ...],
      "antipode": [[i, j, "c"], ...],     # S(e_i) = sum c e_j
      "r_matrix": [[i, j, "c"], ...],     # optional
      "basis_labels": [...],              # optional
      "name": "kS3"                       # optional
    }

Serialization is canonical (sorted triples, sorted keys, no whitespace
variation), so equal structures produce byte-identical files and the
content hash is meaningful.
"""

from __future__ import annotations

import hashlib
import json

from .errors import SchemaError
from .hopf import HopfAlgebra
from .scalars import CyclotomicField, parse_scalar, scalar_to_string


def hopf_to_dict(hopf: HopfAlgebra) -> dict:
    mult = []
    for i, row in enumerate(hopf.mult):
        for j in sorted(row):
            for k in sorted(row[j]):
                c = row[j][k]
                if not c.is_zero():
                    mult.append([i, j, k, scalar_to_string(c)])
    comult = []
    for i in range(hopf.dim):
        for (j, k) in sorted(hopf.comult[i]):
            c = hopf.comult[i][(j, k)]
            if not c.is_zero():
                comult.append([i, j, k, scalar_to_string(c)])
    antipode = []
    for i, row in enumerate(hopf.antipode):
        for j in sorted(row):
            c = row[j]
            if not c.is_zero():
                antipode.append([i, j, scalar_to_string(c)])
    out = {
        "dim": hopf.dim,
        "cyclotomic_order": hopf.field.conductor,
        "mult": mult,
        "comult": comult,
        "unit": [scalar_to_string(c) for c in hopf.unit],
        "counit": [scalar_to_string(c) for c in hopf.counit],
        "antipode": antipode,
    }
    if hopf.r_matrix:
        out["r_matrix"] = [
            [i, j, scalar_to_string(c)] for (i, j), c in sorted(hopf.r_matrix.items())
        ]
    if hopf.basis_labels:
        out["basis_labels"] = list(hopf.basis_labels)
    if hopf.name:
        out["name"] = hopf.name
    return out


def _positive_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(f"{what} {value!r} is not a positive integer")
    return value


def _scalar_reader(field):
    """read(text, key) -> Scalar for one load.  Each distinct string is
    parsed once; scalars are immutable, so equal entries share one object,
    and the table dies with the load."""
    parsed = {}

    def read(text, key):
        if not isinstance(text, str):
            raise SchemaError(f"{key} scalar {text!r} is not a string")
        value = parsed.get(text)
        if value is None:
            try:
                value = parsed[text] = parse_scalar(field, text)
            except ZeroDivisionError:
                raise SchemaError(f"{key} scalar {text!r} has a zero denominator") from None
        return value

    return read


def _scalar_list(data, key, dim, read):
    values = data[key]
    if not isinstance(values, list) or len(values) != dim:
        raise SchemaError(f"{key} is not a list of {dim} scalars")
    return [read(c, key) for c in values]


def _indexed_entries(data, key, arity, dim, read):
    """{index tuple: scalar} from entries [i, ..., "c"] with `arity`
    indices, each in range(dim), and no index tuple given twice; an entry
    whose scalar is zero is checked like any other and then left out."""
    if not isinstance(data[key], list):
        raise SchemaError(f"{key} is not a list of entries")
    out = {}
    for entry in data[key]:
        if not isinstance(entry, list):
            raise SchemaError(f"{key} entry {entry!r} is not a list")
        if len(entry) != arity + 1:
            raise SchemaError(f"{key} entry {entry!r} does not have {arity} indices")
        *idx, c = entry
        for i in idx:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < dim:
                raise SchemaError(f"{key} index {i!r} is not in range({dim})")
        idx = tuple(idx)
        if idx in out:
            raise SchemaError(f"{key} entry {list(idx)} is given twice")
        out[idx] = read(c, key)
    return {idx: c for idx, c in out.items() if not c.is_zero()}


def hopf_from_dict(data: dict) -> HopfAlgebra:
    try:
        dim = _positive_int(data["dim"], "dim")
        field = CyclotomicField(_positive_int(data["cyclotomic_order"], "cyclotomic_order"))
        read = _scalar_reader(field)
        # unit and counit come first: their lengths bound dim by the file's size
        unit = _scalar_list(data, "unit", dim, read)
        counit = _scalar_list(data, "counit", dim, read)
        mult = [{} for _ in range(dim)]
        for (i, j, k), c in _indexed_entries(data, "mult", 3, dim, read).items():
            mult[i].setdefault(j, {})[k] = c
        comult = [{} for _ in range(dim)]
        for (i, j, k), c in _indexed_entries(data, "comult", 3, dim, read).items():
            comult[i][(j, k)] = c
        antipode = [{} for _ in range(dim)]
        for (i, j), c in _indexed_entries(data, "antipode", 2, dim, read).items():
            antipode[i][j] = c
        r_matrix = None
        if "r_matrix" in data:
            r_matrix = _indexed_entries(data, "r_matrix", 2, dim, read)
        labels = data.get("basis_labels")
        if labels is not None and not (
            isinstance(labels, list) and len(labels) == dim
            and all(isinstance(label, str) for label in labels) and len(set(labels)) == dim
        ):
            raise SchemaError(f"basis_labels is not a list of {dim} distinct strings")
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise SchemaError(f"name {name!r} is not a string")
        return HopfAlgebra(field, dim, mult, unit, comult, counit, antipode,
                           r_matrix=r_matrix, basis_labels=labels, name=name)
    except SchemaError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as err:
        raise SchemaError(f"malformed Hopf data: {err}") from err


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def save_hopf(hopf: HopfAlgebra, path) -> str:
    text = dumps_canonical(hopf_to_dict(hopf))
    with open(path, "w") as fh:
        fh.write(text)
    return content_hash(text)


def load_hopf(path, verify=True, conductor_override=None):
    """Read a Hopf data file; returns (HopfAlgebra, content_hash).

    With verify (the default) the axiom report must be clean; an override
    conductor (a positive multiple of the file's) embeds the structure
    constants into the larger field.
    """
    if conductor_override is not None:
        _positive_int(conductor_override, "override conductor")
    try:
        with open(path) as fh:
            text = fh.read()
        data = json.loads(text)
    except (OSError, ValueError, RecursionError) as err:  # ValueError: bad bytes or JSON
        raise SchemaError(f"cannot read Hopf data: {err}") from err
    hopf = hopf_from_dict(data)
    if conductor_override is not None:
        if conductor_override % hopf.field.conductor != 0:
            raise SchemaError(
                f"override conductor {conductor_override} is not a multiple of "
                f"{hopf.field.conductor}"
            )
        hopf = hopf.with_field(conductor_override)
    if verify:
        hopf.require_axioms()
    return hopf, content_hash(text)


def coideal_to_dict(ctx, parent_hash=None, generators=None) -> dict:
    out = {
        "dim": ctx.dim,
        "basis": [[scalar_to_string(c) for c in row] for row in ctx.space.basis],
        "integral": [scalar_to_string(c) for c in ctx.integral],
        "dual_integral": [scalar_to_string(c) for c in ctx.dual_integral],
        "invariants_dim": ctx.invariants.dim,
        "is_normal": ctx.normal,
        "is_hopf_subalgebra": ctx.hopf_subalgebra,
    }
    if generators is not None:
        out["generators"] = list(generators)
    if parent_hash:
        out["parent_sha256"] = parent_hash
    return out
