"""Level-1 perfect crystals for the affine Lie algebra families.

Builds the crystal of the (little) adjoint module plus trivial module with
its affine arrows, verifies the perfectness axioms, derives the crystal
algebra multiplication, computes the energy function two ways,
and realizes basic highest weight crystals as paths with exact character
coefficients.  Weights are plain tuples of Lambda-coordinates; the basic
representation L(Lambda_i) is named by its node i, one of
``level_one_nodes(d)``.

Importing the package loads none of its modules: a public name loads its
home module on first use.  ``build_datum`` and ``build_crystal`` load only
``cartan``, ``roots`` and ``crystal``.
"""

import importlib

# The public names of each module, in layer order.
_EXPORTS = {
    "cartan": "AffineDatum AffineType build_datum level_one_nodes parse_type swept_types",
    "roots": "finite_roots lambda_weights root_label theta",
    "crystal": "EMPTY CrystalGraph EmptyElement XRoot YElement build_crystal",
    "tensor": "TensorCrystal",
    "perfect": "minimal_elements verify_perfect",
    "algebra": "build_psi classify_components energy_by_classification "
    "energy_propagate fixture_energy_check multiplication_table multiply "
    "three_box_crystal two_theta_formula_indices two_theta_indices "
    "two_theta_order_indices valid_psi_indices verify_psi",
    "paths": "OracleUnsupported Path PathModel ground_state lattice_points_up_to "
    "oracle_multiplicity partition_series",
}

# Each public name and its home module.
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    """Import the home module of a public name on its first use and keep
    the name in the package namespace, so later lookups skip this hook."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
