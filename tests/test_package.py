"""The package root loads a module only when one of its names is used."""

import importlib
import os
import subprocess
import sys

import pytest

import affine_crystals

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Modules that building B must not load: the later layers of the package,
# the stdlib modules only they need, and dataclasses with the inspect it
# imports (the value types are plain slotted classes).
NOT_ON_THE_BUILD_PATH = [
    "affine_crystals.algebra",
    "affine_crystals.paths",
    "affine_crystals.perfect",
    "affine_crystals.tensor",
    "affine_crystals.cli",
    "fractions",
    "decimal",
    "json",
    "dataclasses",
    "inspect",
]


def _loaded_after(code):
    """The names in sys.modules after a fresh interpreter runs code."""
    code += "\nprint(' '.join(sorted(sys.modules)))\n"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_building_b_loads_only_its_layers():
    loaded = _loaded_after(
        "import sys, affine_crystals\n"
        "affine_crystals.build_crystal(affine_crystals.build_datum('E8-1'))"
    )
    assert {"affine_crystals.cartan", "affine_crystals.roots", "affine_crystals.crystal"} <= loaded
    assert loaded.isdisjoint(NOT_ON_THE_BUILD_PATH), sorted(loaded & set(NOT_ON_THE_BUILD_PATH))


def test_no_module_loads_dataclasses():
    # cli imports every module of the package
    loaded = _loaded_after("import sys, affine_crystals.cli")
    assert {"affine_crystals.algebra", "affine_crystals.paths", "affine_crystals.perfect"} <= loaded
    assert loaded.isdisjoint(["dataclasses", "inspect"]), sorted(loaded & {"dataclasses", "inspect"})


@pytest.mark.parametrize("name", affine_crystals.__all__)
def test_public_name_is_its_home_object(name):
    home = importlib.import_module(f"affine_crystals.{affine_crystals._HOME[name]}")
    assert getattr(affine_crystals, name) is getattr(home, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="build_crystall"):
        affine_crystals.build_crystall


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from affine_crystals import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == affine_crystals.__all__
    assert set(affine_crystals.__all__) <= set(dir(affine_crystals))
