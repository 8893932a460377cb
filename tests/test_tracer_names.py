"""Every name the benchmark's tracer wraps exists in the package.

bench/tracer.py wraps library functions and methods by name and skips a
missing one with a note on stderr, which leaves a stale span.  This test
loads its tables read-only (nothing is installed or wrapped) and resolves
each name, so a rename or deletion fails here instead.
"""

import importlib
import importlib.util
import os

import pytest

from affine_crystals.tensor import TensorCrystal

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "mod, attr", [(mod, attr) for mod, attr, _, _ in tracer.FUNCTIONS]
)
def test_traced_function_exists(mod, attr):
    module = importlib.import_module(f"affine_crystals.{mod}")
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize(
    "mod, cls, meth", [(mod, cls, meth) for mod, cls, meth, _, _ in tracer.METHODS]
)
def test_traced_method_exists(mod, cls, meth):
    klass = getattr(importlib.import_module(f"affine_crystals.{mod}"), cls, None)
    assert callable(getattr(klass, meth, None))


def test_tensor_counts_reads_lowering_tables():
    # _tensor_counts reads tensor.f on each square the tracer sees
    assert isinstance(TensorCrystal.f, property)


def test_traced_modules_import():
    for mod in tracer.MODULES:
        importlib.import_module(f"affine_crystals.{mod}")
