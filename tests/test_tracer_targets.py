"""Every entry point that perfbench's tracer patches exists in the package.

Renaming a traced function fails here, in the library's own suite, and not
only in `python3 -m pytest -q perfbench`.  The test reads
perfbench/tracer.py and changes nothing in it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hopflab.scalars import Scalar

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
TARGETS = [target for targets in tracer.SPAN_TARGETS.values() for target in targets]
TARGETS.append(tracer.CANDIDATES_TARGET)


@pytest.mark.parametrize("target", TARGETS)
def test_traced_entry_point_resolves(target):
    importlib.import_module(target.split(":")[0])
    assert tracer._resolve(target) is not None


@pytest.mark.parametrize("method", sorted({m for ms in tracer.SCALAR_COUNTERS.values() for m in ms}))
def test_counted_scalar_method_exists(method):
    assert method in Scalar.__dict__
