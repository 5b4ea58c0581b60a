"""Outside-in tracing of hopflab's layers.

``Tracer.install`` replaces public entry points of the package with
wrappers that record a span per call (name, start, end, parent, op id).
A function is replaced under every name it is bound to in a loaded
``hopflab`` module, so ``hopflab.cli.find_solvable_series`` and
``hopflab.coideal.left_kernel`` are traced wherever they are looked up.
Scalar arithmetic is only counted: a span per ``Scalar.__mul__`` would cost
more than the arithmetic.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import copy
import functools
import itertools
import sys
import time

# group name -> entry points, as "module:qualname"
SPAN_TARGETS = {
    "hopf.adjoint": ["hopflab.hopf:HopfAlgebra.adjoint"],
    "hopf.multiply": ["hopflab.hopf:HopfAlgebra.multiply"],
    "hopf.comult_of": ["hopflab.hopf:HopfAlgebra.comult_of"],
    "hopf.verify": ["hopflab.hopf:HopfAlgebra.verify"],
    "hopf.character_table": ["hopflab.hopf:HopfAlgebra.character_table"],
    "hopf.grouplikes": ["hopflab.hopf:HopfAlgebra.grouplikes"],
    "linalg.wedderburn": ["hopflab.linalg:wedderburn"],
    "linalg.primitive_idempotent": ["hopflab.linalg:primitive_idempotent_in_block"],
    "linalg.minimal_polynomial": ["hopflab.linalg:minimal_polynomial"],
    "linalg.solve": [
        "hopflab.linalg:rref",
        "hopflab.linalg:kernel",
        "hopflab.linalg:_kernel_from_rows",
        "hopflab.linalg:solve_linear",
        "hopflab.linalg:echelonize",
        "hopflab.linalg:Subspace.from_vectors",
        "hopflab.linalg:Subspace.intersect",
        "hopflab.linalg:Subspace.add",
    ],
    "scalars.factor": ["hopflab.scalars:factor_into_linears"],
    "scalars.sympy_fallback": ["hopflab.scalars:_sympy_linear_factors"],
    "coideal.context": ["hopflab.coideal:coideal_from_subspace"],
    "coideal.quotient": ["hopflab.coideal:quotient"],
    "coideal.candidates": [
        "hopflab.coideal:hopf_center",
        "hopflab.coideal:commutator_subalgebra",
        "hopflab.coideal:left_kernel",
    ],
    "solvability.find": ["hopflab.solvability:find_solvable_series"],
    "solvability.step_conditions": ["hopflab.solvability:step_conditions"],
    "harmonic.reciprocity": ["hopflab.harmonic:reciprocity_table"],
    "harmonic.characters": ["hopflab.harmonic:coideal_characters"],
    "harmonic.induce": ["hopflab.harmonic:induce_character"],
    "harmonic.induce_trace": ["hopflab.harmonic:induce_character_by_trace"],
    "serialize.load": ["hopflab.serialize:load_hopf"],
    "serialize.dump": ["hopflab.serialize:save_hopf", "hopflab.serialize:dumps_canonical"],
    "builders.double": ["hopflab.builders:drinfeld_double"],
}

# counter name -> Scalar methods it counts (aliases such as __rmul__ included)
SCALAR_COUNTERS = {
    "scalars.mul": ("__mul__", "__rmul__"),
    "scalars.add": ("__add__", "__radd__"),
    "scalars.inv": ("inverse",),
    "scalars.is_zero": ("is_zero",),
}

CANDIDATES_TARGET = "hopflab.solvability:_normal_candidates"
OP_SPAN = "cli.op"


def _resolve(target):
    """(owner, attribute, original) for "module:Qual.name", or None."""
    module_name, qualname = target.split(":")
    owner = sys.modules.get(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


class Tracer:
    """Records spans and counters while installed; ``uninstall`` restores
    every replaced attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.stack = []
        self.op = None
        self.counters = {}  # name -> itertools.count ticked once per call
        self.candidates_tried = 0
        self.unresolved = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def run_op(self, op_id, fn):
        """Run ``fn`` as operation ``op_id`` under a top-level span."""
        self.op = op_id
        try:
            return self.wrap(OP_SPAN, fn)()
        finally:
            self.op = None

    def counts(self):
        # next() on a copy reads how often the count was ticked, leaving it be
        return {name: next(copy.copy(c)) for name, c in self.counters.items()}

    # -- patching ----------------------------------------------------------

    def _replace(self, original, replacement):
        """Rebind ``original`` to ``replacement`` under every name a loaded
        hopflab module gives it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "hopflab" or mod_name.startswith("hopflab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, replacement)

    def install(self):
        for group, targets in SPAN_TARGETS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.unresolved.append(target)
                    continue
                owner, attr, raw = found
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(group, raw.__func__))
                else:
                    wrapped = self.wrap(group, raw)
                if isinstance(owner, type):
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                else:
                    self._replace(raw, wrapped)
        self._install_scalar_counters()
        self._install_candidates_counter()

    def _install_scalar_counters(self):
        scalar = sys.modules["hopflab.scalars"].Scalar
        for name, methods in SCALAR_COUNTERS.items():
            counter = self.counters[name] = itertools.count()
            for method in methods:
                original = scalar.__dict__[method]
                self._patches.append((scalar, method, original))
                setattr(scalar, method, _counted(original, counter.__next__))

    def _install_candidates_counter(self):
        found = _resolve(CANDIDATES_TARGET)
        if found is None:
            self.unresolved.append(CANDIDATES_TARGET)
            return
        original = found[2]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            pool = original(*args, **kwargs)
            self.candidates_tried += len(pool)
            return pool

        self._replace(original, counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _counted(method, tick):
    """``method`` with a call counter; one- and two-argument forms keep the
    wrapper cheap on the hot scalar path."""
    if method.__code__.co_argcount == 1:
        def counted(self):
            tick()
            return method(self)
    else:
        def counted(self, other):
            tick()
            return method(self, other)
    return functools.update_wrapper(counted, method)


# -- aggregation ---------------------------------------------------------------


def aggregate(spans):
    """Per span name: ``calls``; ``total_s``, the time covered by its
    outermost spans (a span nested in one of the same name adds nothing);
    and ``self_s``, durations minus the time direct children cover."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            agg["total_s"] += end - start
    return out


def write_spans(spans, path):
    """One tab-separated line per span: op, name, start, end, parent."""
    with open(path, "w") as fh:
        fh.write("op\tname\tstart_s\tend_s\tparent\n")
        t0 = spans[0][1] if spans else 0.0
        for name, start, end, parent, op in spans:
            fh.write(f"{op}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{parent}\n")
