"""Acceptance suite: one test per exit criterion, one printed line each.

Criterion 6 checks the closed order description of the top tensor
component (Demazure directions compared in Bruhat order, computed from
root data and the arrows of B without searching B (x) B) against the
component found by search, on every swept family.  Every criterion must
pass exactly.
"""

import random
import time
from collections import Counter

from affine_crystals.algebra import (
    energy_by_classification,
    energy_propagate,
    fixture_energy_check,
    multiply,
    two_theta_indices,
    two_theta_order_indices,
    verify_psi,
)
from affine_crystals.cartan import level_one_nodes
from affine_crystals.crystal import EMPTY, EmptyElement, XRoot, YElement
from affine_crystals.paths import PathModel, lattice_points_up_to, oracle_multiplicity
from affine_crystals.perfect import minimal_elements, verify_perfect
from affine_crystals.roots import theta

from conftest import SWEPT_NAMES, family, pair_elements, pair_index
from test_crystal import COUNTS, FIXTURES
from test_algebra import G2_TABLE, G2_TABLE_COLS, G2_TABLE_ROWS


def test_criterion_1_crystal_shape_fixtures():
    start = time.time()
    for name, expected_edges in FIXTURES.items():
        g = family(name).graph
        assert len(g) == COUNTS[name], name
        els = g.elements
        got = {(i, els[s].label(), els[t].label()) for i, s, t in g.arrows()}
        assert got == expected_edges, name
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - five fixture graphs match edge for edge ({elapsed:.2f}s)")


def test_criterion_2_perfectness_sweep():
    start = time.time()
    failures = []
    for name in SWEPT_NAMES:
        ctx = family(name)
        report = verify_perfect(ctx.graph)
        if not report["passed"]:
            failures.append((name, [k for k, v in report["axioms"].items() if not v["passed"]]))
    elapsed = time.time() - start
    assert not failures, failures
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2: PASS - level-1 axioms hold on all {len(SWEPT_NAMES)} "
        f"families ({elapsed:.1f}s)"
    )


def test_criterion_3_minimal_element_tables():
    for name in SWEPT_NAMES:
        ctx = family(name)
        table = minimal_elements(ctx.graph)
        assert table[0] == (EMPTY, EMPTY), name
        for i in level_one_nodes(ctx.datum):
            if i != 0:
                assert table[i] == (YElement(i), YElement(i)), (name, i)
    print("\nACCEPTANCE 3: PASS - minimal elements are empty and y_i exactly")


def test_criterion_4_energy():
    start = time.time()
    for name in SWEPT_NAMES:
        ctx = family(name)
        h_prop = energy_propagate(ctx.tensor)
        h_cls = energy_by_classification(ctx.tensor)
        assert h_prop == h_cls, name
        th = XRoot(theta(ctx.datum))
        pairs = [
            (EMPTY, EMPTY, 0),
            (EMPTY, th, 1),
            (th, XRoot(-theta(ctx.datum)), 0),
            (th, EMPTY, 1),
            (th, th, 2),
        ]
        for left, right, value in pairs:
            k = pair_index(ctx.graph, left, right)
            assert h_prop[k] == value, (name, left.label(), right.label())
        # maximal vectors of the remaining two tabulated shapes
        maximal = set(ctx.tensor.maximal_indices())
        lam = {b.root for b in ctx.graph.elements if isinstance(b, XRoot)}
        m = len(ctx.graph)
        for k in maximal:
            left, right = pair_elements(ctx.graph, k)
            if left != th or isinstance(left, EmptyElement):
                continue
            if isinstance(right, YElement):
                assert h_prop[k] == 0, (name, "theta-y head")
            elif isinstance(right, XRoot) and (theta(ctx.datum) - right.root) in lam:
                if right.root not in (theta(ctx.datum), -theta(ctx.datum)):
                    assert h_prop[k] == 1, (name, "theta-minus-alpha head")
    ok, mismatches = fixture_energy_check()
    assert ok, mismatches
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE 4: PASS - methods agree, tabulated values and the 9-pair "
        f"fixture hold ({elapsed:.1f}s)"
    )


def test_criterion_5_embedding_and_multiplication():
    count = 0
    for name in SWEPT_NAMES:
        ctx = family(name)
        for i, psi in ctx.psis.items():
            ok, witness = verify_psi(ctx.graph, psi, i)
            assert ok, (name, i, witness)
            count += 1
        if ctx.datum.type.family == "A" and ctx.datum.type.twist == 1 and ctx.datum.n >= 2:
            assert sorted(ctx.psis) == [1, ctx.datum.n], name
    ctx = family("D4-3")
    psi = ctx.psis[1]
    by_label = {b.label(): b for b in ctx.graph.elements}
    for r, row in enumerate(G2_TABLE_ROWS):
        for c, col in enumerate(G2_TABLE_COLS):
            got = multiply(ctx.graph, psi, by_label[row], by_label[col])
            assert (got.label() if got else None) == G2_TABLE[r][c], (row, col)
    listed = {(r, c) for r in G2_TABLE_ROWS for c in G2_TABLE_COLS}
    domain = [b for b in ctx.graph.elements if not isinstance(b, EmptyElement)]
    unlisted = [
        (a, b)
        for a in domain
        for b in domain
        if (a.label(), b.label()) not in listed
    ]
    rng = random.Random(11)
    for a, b in rng.sample(unlisted, 20):
        assert multiply(ctx.graph, psi, a, b) is None, (a.label(), b.label())
    print(
        f"\nACCEPTANCE 5: PASS - {count} embeddings verified; 16-cell table and "
        f"20 sampled absent products match"
    )


def test_criterion_6_component_order_formula():
    mismatched = []
    for name in SWEPT_NAMES:
        ctx = family(name)
        formula = two_theta_order_indices(ctx.graph)
        component = two_theta_indices(ctx.tensor)
        if formula != component:
            mismatched.append(
                (name, len(formula - component), len(component - formula))
            )
    assert not mismatched, (
        "order formula != actual component on (family, extra, missing): "
        f"{mismatched}"
    )
    print("\nACCEPTANCE 6: PASS - order formula equals the component everywhere")


def test_criterion_7_characters_vs_oracle():
    start = time.time()
    cases = [("A1-1", 5), ("A2-1", 5), ("A3-1", 3), ("D4-1", 3)]
    for name, max_degree in cases:
        ctx = family(name)
        model = PathModel(ctx.graph, 0, energy=energy_propagate(ctx.tensor))
        got = model.root_character(max_degree)
        for beta in lattice_points_up_to(ctx.datum, 2 * max_degree):
            for degree in range(max_degree + 1):
                want = oracle_multiplicity(ctx.datum, beta, degree)
                assert got.get((beta.twice, degree), 0) == want, (
                    name,
                    beta.label(),
                    degree,
                )
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 7: PASS - path multiplicities equal the lattice oracle "
        f"on {len(cases)} families ({elapsed:.1f}s)"
    )


def test_criterion_8_property_suites():
    start = time.time()
    rng = random.Random(0xC0FFEE)
    cases = 0
    names = [n for n in SWEPT_NAMES if n not in ("E7-1", "E8-1")]

    # inverse pairs and weight drops on crystals and tensor squares
    for _ in range(4000):
        ctx = family(rng.choice(names))
        g, d = ctx.graph, ctx.datum
        b = rng.choice(g.elements)
        i = rng.randrange(d.n + 1)
        fb = g.f_tilde(b, i)
        if fb is not None:
            assert g.e_tilde(fb, i) == b
            drop = tuple(
                x - y for x, y in zip(g.weight_of(b), g.weight_of(fb))
            )
            assert drop == tuple(d.cartan[j][i] for j in range(d.n + 1))
        t = ctx.tensor
        k = rng.randrange(t.size)
        down = t.f[i][k]
        if down >= 0:
            assert g.pair_e(*divmod(down, len(g)), i) == divmod(k, len(g))
        cases += 2

    # phi - eps equals the weight pairing
    for _ in range(2500):
        ctx = family(rng.choice(names))
        g, d = ctx.graph, ctx.datum
        b = rng.choice(g.elements)
        w = g.weight_of(b)
        for i in range(d.n + 1):
            assert g.phi(b, i) - g.eps(b, i) == w[i]
            cases += 1

    # energy constant on classical components, checked across every
    # classical arrow rather than through the component labels
    for name in names:
        t = family(name).tensor
        h = energy_propagate(t)
        for i in range(1, t.n_indices):
            for k, down in enumerate(t.f[i]):
                if down >= 0:
                    assert h[k] == h[down], (name, i, k)
                    cases += 1

    # path edges drop by alpha_i including the level-zero delta drop; the
    # weight counts of the generated paths do not depend on generation
    # order and equal the transfer-matrix character
    path_names = ["A1-1", "A2-1", "C2-1", "A2-2", "A4-2", "D4-3", "D3-2", "B3-1"]
    for name in path_names:
        ctx = family(name)
        energy = energy_propagate(ctx.tensor)
        for node in level_one_nodes(ctx.datum):
            model = PathModel(ctx.graph, node, energy=energy)
            paths = model.generate(2)
            sample = rng.sample(paths, min(30, len(paths)))
            for p in sample:
                wp, dp = model.weight(p)
                for i in range(ctx.datum.n + 1):
                    q = model.f(p, i)
                    if q is None:
                        continue
                    wq, dq = model.weight(q)
                    drop = tuple(a - b for a, b in zip(wp, wq))
                    assert drop == tuple(
                        ctx.datum.cartan[j][i] for j in range(ctx.datum.n + 1)
                    )
                    assert dp - dq == (1 if i == 0 else 0)
                    cases += 1
            reverse = {"order": list(reversed(range(ctx.datum.n + 1))), "lifo": True}
            base, other = (
                dict(Counter(map(model.weight, paths)))
                for paths in (model.generate(2), model.generate(2, **reverse))
            )
            assert base == other == model.character(2), name
            cases += len(base)

    elapsed = time.time() - start
    assert cases >= 10_000, cases
    print(
        f"\nACCEPTANCE 8: PASS - {cases} randomized property cases across "
        f"{len(names)} families ({elapsed:.1f}s)"
    )
