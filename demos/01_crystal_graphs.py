#!/usr/bin/env python3
"""Build the level-1 crystal B for a few families and look around.

B glues the crystal of the (little) adjoint module onto the one-element
trivial crystal with two extra 0-arrows through the empty element.  Run
this script to print the element lists, walk some arrows, and dump a DOT
file you can render with graphviz.
"""

from affine_crystals import (
    EMPTY,
    XRoot,
    YElement,
    build_crystal,
    build_datum,
    root_label,
    theta,
)

for name in ["A2-1", "D4-3", "C2-1", "A4-2"]:
    d = build_datum(name)
    g = build_crystal(d)
    print(f"\n=== {name}: finite algebra {d.finite_type}, {len(g)} elements ===")
    print("  elements:", ", ".join(b.label() for b in g.elements))
    print("  theta =", root_label(theta(d)))
    els = g.elements
    for i, src, dst in g.arrows():
        print(f"    {els[src].label():12s} --{i}--> {els[dst].label()}")

# Kashiwara operators are partial maps; absent is a value, not an error.
d = build_datum("A2-1")
g = build_crystal(d)
th = XRoot(theta(d))
print("\nWalking the 0-string through the empty element for A2-1:")
print("  f_0(empty) =", g.f_tilde(EMPTY, 0).label())
print("  e_0(empty) =", g.e_tilde(EMPTY, 0).label())
print("  f_1(empty) =", g.f_tilde(EMPTY, 1), " (no classical arrows at empty)")
print("  eps_0(x_theta) =", g.eps(th, 0), " phi_0(x_theta) =", g.phi(th, 0))
print("  weight of x_theta in Lambda-coordinates:", g.weight_of(th))
print("  eps vector of y_1:", g.eps_vec(YElement(1)))

with open("a2-1.dot", "w") as fh:
    fh.write(g.to_dot())
print("\nWrote a2-1.dot; render with: dot -Tpng a2-1.dot -o a2-1.png")
