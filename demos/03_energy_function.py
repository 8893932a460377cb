#!/usr/bin/env python3
"""Compute the energy function two independent ways and compare.

Route one propagates the defining recurrence breadth-first over the whole
tensor square, re-deriving the value across every edge so inconsistencies
cannot hide.  Route two never touches a 0-arrow of the product: it splits
the square into classical components, finds each component's unique
maximal vector x_theta (x) b2 (or the empty-left pairs), and reads the
energy off eps_0(b2).  The two tables agree exactly, family by family.
"""

from affine_crystals import (
    EMPTY,
    TensorCrystal,
    XRoot,
    build_crystal,
    build_datum,
    classify_components,
    energy_by_classification,
    energy_propagate,
    fixture_energy_check,
    theta,
)

for name in ["A2-1", "C2-1", "D4-3", "A4-2", "G2-1"]:
    d = build_datum(name)
    g = build_crystal(d)
    square = TensorCrystal(g)
    h_prop = energy_propagate(square)
    h_cls = energy_by_classification(square)
    th = XRoot(theta(d))
    print(f"{name}: {square.size} pairs, methods agree: {h_prop == h_cls}")
    pairs = [(EMPTY, EMPTY), (EMPTY, th), (th, XRoot(-theta(d))), (th, EMPTY), (th, th)]
    for left, right in pairs:
        h = h_prop[g.index[left] * len(g) + g.index[right]]
        print(f"    H({left.label()} (x) {right.label()}) = {h}")

# labelled component census for one family
d = build_datum("C2-1")
square = TensorCrystal(build_crystal(d))
labels = classify_components(square)
census = {}
for lbl in labels:
    census[lbl] = census.get(lbl, 0) + 1
print("\nC2-1 component-label census:", dict(sorted(census.items())))

# the 3-element loop crystal pins the normalization: H is 1 exactly when
# the left box dominates the right one
ok, mismatches = fixture_energy_check()
print("\nthree-box closed form reproduced on all 9 pairs:", ok)
