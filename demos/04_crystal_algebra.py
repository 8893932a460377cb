#!/usr/bin/env python3
"""The crystal algebra: embed B(theta) into its tensor square and invert.

Whenever a finite node i neighbors the affine node and carries a y
element, the little adjoint crystal embeds onto the classical component
of x_theta (x) y_i.  Inverting that embedding (and sending every other
component to nothing) defines a multiplication.  For D4-3 the result is
the seven-dimensional crystal octonion algebra; this script prints its
full multiplication table.
"""

from affine_crystals import (
    EmptyElement,
    build_crystal,
    build_datum,
    build_psi,
    multiplication_table,
    multiply,
    valid_psi_indices,
    verify_psi,
)

for name in ["A2-1", "B3-1", "C2-1", "D4-3", "A4-2"]:
    d = build_datum(name)
    print(f"{name}: embedding nodes {valid_psi_indices(d) or 'none'}")

d = build_datum("D4-3")
g = build_crystal(d)
psi = build_psi(g, 1)  # psi[k] is the index pair of the image of element k
ok, witness = verify_psi(g, psi, 1)
print(f"\nD4-3 embedding at node 1 verified as a crystal morphism: {ok}")

print("\nimages under the embedding:")
for b, pair in zip(g.elements, psi):
    if pair is not None:
        left, right = (g.elements[k].label() for k in pair)
        print(f"  {b.label():10s} -> {left} (x) {right}")

table = multiplication_table(g, psi)
order = table["order"]
width = max(len(s) for s in order) + 1
print("\ncrystal octonion multiplication table (blank = zero product):")
print(" " * width + "".join(s.ljust(width) for s in order))
for label, row in zip(order, table["rows"]):
    cells = "".join((cell or "").ljust(width) for cell in row)
    print(label.ljust(width) + cells)

# products are recovered by inverting the embedding
left = [b for b in g.elements if not isinstance(b, EmptyElement)]
sample = multiply(g, psi, left[2], left[5])
print(f"\nmultiply({left[2].label()}, {left[5].label()}) = ",
      sample.label() if sample else None)
