"""Level-1 perfect crystals for the affine Lie algebra families.

Builds the crystal of the (little) adjoint module plus trivial module with
its affine arrows, verifies the perfectness axioms, derives the crystal
algebra multiplication, computes the energy function two independent ways,
and realizes basic highest weight crystals as paths with exact character
coefficients.
"""

from .algebra import (
    build_psi,
    classify_components,
    energy_by_classification,
    energy_propagate,
    fixture_energy_check,
    multiplication_table,
    multiply,
    three_box_crystal,
    two_theta_formula_indices,
    two_theta_indices,
    two_theta_order_indices,
    valid_psi_indices,
    verify_psi,
)
from .cartan import (
    AffineDatum,
    AffineType,
    AffineWeight,
    build_datum,
    level,
    level_one_dominants,
    parse_type,
    swept_types,
)
from .crystal import EMPTY, CrystalGraph, EmptyElement, XRoot, YElement, build_crystal
from .paths import (
    OracleUnsupported,
    Path,
    PathModel,
    ground_state,
    lattice_points_up_to,
    oracle_multiplicity,
    partition_series,
)
from .perfect import PerfectReport, minimal_elements, verify_perfect
from .roots import (
    RootVector,
    connect_support,
    dynkin_path,
    finite_roots,
    lambda_weights,
    theta,
)
from .tensor import TensorCrystal, TensorElement

__all__ = [
    "AffineDatum",
    "AffineType",
    "AffineWeight",
    "CrystalGraph",
    "EMPTY",
    "EmptyElement",
    "OracleUnsupported",
    "Path",
    "PathModel",
    "PerfectReport",
    "RootVector",
    "TensorCrystal",
    "TensorElement",
    "XRoot",
    "YElement",
    "build_crystal",
    "build_datum",
    "build_psi",
    "classify_components",
    "connect_support",
    "dynkin_path",
    "energy_by_classification",
    "energy_propagate",
    "finite_roots",
    "fixture_energy_check",
    "ground_state",
    "lambda_weights",
    "lattice_points_up_to",
    "level",
    "level_one_dominants",
    "minimal_elements",
    "multiplication_table",
    "multiply",
    "oracle_multiplicity",
    "parse_type",
    "partition_series",
    "swept_types",
    "theta",
    "three_box_crystal",
    "two_theta_formula_indices",
    "two_theta_indices",
    "two_theta_order_indices",
    "valid_psi_indices",
    "verify_perfect",
    "verify_psi",
]
