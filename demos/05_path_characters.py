#!/usr/bin/env python3
"""Paths: realize the basic highest weight crystals and count weights.

A path is a semi-infinite tensor word that settles into the homogeneous
ground state b_lam (x) b_lam (x) ...; only the finite override prefix is
stored.  Lowering operators act through the tensor rule, the energy
function grades paths by an integer delta degree, and a transfer matrix
over positions counts paths by weight without building them
(breadth-first generation of the paths is its oracle in the tests).  For
the simply-laced untwisted families the coefficients are checked against
the lattice partition-series oracle, which never touches the path
machinery.
"""

from affine_crystals import (
    PathModel,
    build_crystal,
    build_datum,
    lattice_points_up_to,
    oracle_multiplicity,
)

d = build_datum("A1-1")
model = PathModel(build_crystal(d), 0)
print("ground state entries:", [model.ground.label()])

p = model.ground_path
print("\nlowering the ground state step by step:")
for i in [0, 1, 0, 1]:
    p = model.f(p, i)
    coeffs, delta = model.weight(p)
    print(
        f"  f_{i}: prefix = {[b.label() for b in p.prefix]}, "
        f"classical = {coeffs}, delta degree = {delta}"
    )

print("\nmultiplicity of Lambda_0 - n*delta for n = 0..5:")
ch = model.character(5)
print(" ", [ch.get(((1, 0), -n), 0) for n in range(6)])

print("\noracle comparison for A2-1 through degree 5:")
d2 = build_datum("A2-1")
m2 = PathModel(build_crystal(d2), 0)
got = m2.root_character(5)
checked = diffs = 0
for beta in lattice_points_up_to(d2, 10):
    for degree in range(6):
        want = oracle_multiplicity(d2, beta, degree)
        have = got.get((beta, degree), 0)
        checked += 1
        diffs += want != have
print(f"  {checked} (lattice point, degree) cells checked, {diffs} differences")

print("\ncharacters exist for every family, oracle or not:")
d3 = build_datum("D4-3")
m3 = PathModel(build_crystal(d3), 0)
ch3 = m3.character(3)
by_degree = {}
for (coeffs, delta), mult in ch3.items():
    by_degree[delta] = by_degree.get(delta, 0) + mult
print("  D4-3 basic module, states per delta degree:", dict(sorted(by_degree.items(), reverse=True)))
