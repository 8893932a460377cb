import functools
import json
import random
from dataclasses import dataclass
from itertools import product
from operator import neg, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affine_crystals.algebra import (
    GENERIC,
    _directions,
    _pair_rows,
    Box,
    TWO_THETA,
    build_psi,
    classify_components,
    demazure_crystals,
    energy_by_classification,
    energy_propagate,
    energy_table_json,
    fixture_energy_check,
    multiplication_table,
    multiplication_table_json,
    multiply,
    theta_comp,
    three_box_crystal,
    two_theta_formula_indices,
    two_theta_indices,
    two_theta_order_indices,
    valid_psi_indices,
    verify_psi,
)
from affine_crystals.cartan import build_datum, swept_types
from affine_crystals.crystal import EMPTY, CrystalGraph, XRoot, YElement, build_crystal
from affine_crystals import roots
from affine_crystals.roots import finite_roots, lambda_weights, root_label, theta
from affine_crystals.tensor import TensorCrystal

from conftest import SWEPT_NAMES, family, pair_elements, pair_index, pair_label, simple_root
from test_crystal import WIDE_NAMES


def _setup(name):
    d = build_datum(name)
    g = build_crystal(d)
    return d, g, TensorCrystal(g)


def test_valid_embedding_nodes():
    assert valid_psi_indices(family("A1-1").graph) == [1]
    assert valid_psi_indices(family("A3-1").graph) == [1, 3]
    assert valid_psi_indices(family("C3-1").graph) == [1]
    assert valid_psi_indices(family("B3-1").graph) == [2]
    assert valid_psi_indices(family("A4-2").graph) == []
    assert valid_psi_indices(family("D4-2").graph) == []
    assert valid_psi_indices(family("D4-3").graph) == [1]


@pytest.mark.parametrize("t", swept_types(8), ids=lambda t: t.name)
def test_theta_alone_has_coefficient_two_at_valid_nodes(t):
    # the contact grading, so build_psi needs no case of its own for grade
    # 2; on A_n^(1) theta has coefficient 1 and no weight reaches 2
    d = build_datum(t)
    th = theta(d)
    lam_plus, _, _ = lambda_weights(d)
    for i in valid_psi_indices(family(t.name).graph):
        high = [g for g in lam_plus if g[i - 1] >= 4]
        assert high == ([th] if th[i - 1] >= 4 else []), i


def _reference_path(d, j, i):
    """The nodes of the Dynkin-tree path from node j to node i, by a
    breadth-first search from j over the finite Cartan matrix."""
    came_from = {j: None}
    queue = [j]
    for u in queue:
        for v in range(1, d.n + 1):
            if v not in came_from and d.cartan[u][v] != 0:
                came_from[v] = u
                queue.append(v)
    path = [i]
    while path[-1] != j:
        path.append(came_from[path[-1]])
    return path[::-1]


def _reference_psi(d, i):
    """The rule of ``build_psi`` written on elements: arithmetic on the
    roots' doubled coordinates and a dict element -> (left, right) of
    elements, zero vectors as y_i.  Each path is searched on its own."""
    def x_or_y(vec):
        return XRoot(vec) if any(vec) else YElement(i)

    def simple_sum(nodes):
        return tuple(2 if k in nodes else 0 for k in range(1, d.n + 1))

    def minus(a, b=None):
        return tuple(map(neg, a)) if b is None else tuple(map(sub, a, b))

    th = theta(d)
    lam_plus, has_y, _ = lambda_weights(d)
    mirror = d.type.twist == 1 and d.type.family in ("A", "C")
    psi = {}
    for gamma in lam_plus:
        supp = [k for k in range(1, d.n + 1) if gamma[k - 1]]
        walk = () if i in supp else _reference_path(d, supp[0], i)
        s = simple_sum([k for k in walk if k not in supp])
        rest = minus(minus(th, gamma), s)
        a_part, b_part = (rest, s) if mirror else (s, rest)
        head = minus(th, a_part)
        psi[XRoot(gamma)] = XRoot(head), x_or_y(minus(b_part))
        psi[XRoot(minus(gamma))] = x_or_y(b_part), XRoot(minus(head))
    for j in sorted(has_y):
        path = _reference_path(d, j, i)
        v = simple_sum(path[1:]) if mirror else minus(th, simple_sum(path))
        psi[YElement(j)] = x_or_y(v), x_or_y(minus(v))
    return psi


@pytest.mark.parametrize("name", SWEPT_NAMES + WIDE_NAMES)
def test_psi_matches_reference(name):
    g = family(name).graph
    for i in valid_psi_indices(g):
        ref = _reference_psi(g.datum, i)
        want = [
            tuple(map(g.index.get, ref[b])) if b in ref else None
            for b in g.elements
        ]
        assert ref.keys() <= set(g.elements)
        assert build_psi(g, i) == want, i


# images taken from the rule before it read B: the walk through E6-1's
# branch node to node 6, across F4-1's double bond, and along the A3-1 chain
PSI_PINS = [
    ("A3-1", 1, "x[0,0,1]", "x[1,1,1]", "x[-1,-1,0]"),
    ("A3-1", 3, "y_1", "x[0,1,1]", "x[0,-1,-1]"),
    ("E6-1", 6, "y_2", "x[1,1,2,2,1,1]", "x[-1,-1,-2,-2,-1,-1]"),
    ("E6-1", 6, "y_6", "x[1,2,3,2,1,1]", "x[-1,-2,-3,-2,-1,-1]"),
    ("E6-1", 6, "x[1,1,0,0,0,0]", "x[1,2,2,2,1,1]", "x[0,-1,-2,-2,-1,-1]"),
    ("F4-1", 1, "x[0,1,2,0]", "x[1,3,4,2]", "x[-1,-2,-2,-2]"),
]


@pytest.mark.parametrize("name, i, element, left, right", PSI_PINS)
def test_psi_pinned_images(name, i, element, left, right):
    g = family(name).graph
    labels = [b.label() for b in g.elements]
    l, r = build_psi(g, i)[labels.index(element)]
    assert (labels[l], labels[r]) == (left, right)


@pytest.mark.parametrize("name", ["A3-1", "E6-1", "D4-3"])
def test_psi_reads_b_alone(name, monkeypatch):
    # with B built, the embedding layer needs no root data: no cached
    # weights and no root walk
    g = build_crystal(build_datum(name))
    lambda_weights.cache_clear()

    def no_roots(d):
        raise AssertionError("root walk called above B")

    monkeypatch.setattr(roots, "_positive_roots", no_roots)
    for i in valid_psi_indices(g):
        ok, witness = verify_psi(g, build_psi(g, i), i)
        assert ok, witness
    assert valid_psi_indices(g)
    assert two_theta_formula_indices(TensorCrystal(g))


def _index_pair(g, left, right):
    return g.index[left], g.index[right]


def test_psi_fixed_images():
    g = family("A1-1").graph
    psi = build_psi(g, 1)
    assert psi[g.index[YElement(1)]] == _index_pair(g, YElement(1), YElement(1))
    g = family("D4-3").graph
    psi = build_psi(g, 1)
    th = theta(g.datum)
    low = XRoot(tuple(map(neg, th)))
    assert psi[g.index[low]] == _index_pair(g, YElement(1), low)
    assert psi[g.index[XRoot(th)]] == _index_pair(g, XRoot(th), YElement(1))
    assert psi[g.index[EMPTY]] is None
    g = family("C3-1").graph
    psi = build_psi(g, 1)
    a1 = XRoot(simple_root(1, 3))
    assert psi[g.index[a1]] == _index_pair(g, a1, YElement(1))


def test_psi_rejects_bad_node():
    _, g, _ = _setup("B3-1")
    with pytest.raises(ValueError, match="valid choices"):
        build_psi(g, 1)


@pytest.mark.parametrize("ty", [t.name for t in swept_types(4, with_exceptional=False)])
def test_psi_verifies_small_sweep(ty):
    d, g, t = _setup(ty)
    for i in valid_psi_indices(g):
        ok, witness = verify_psi(g, build_psi(g, i), i)
        assert ok, witness


def test_psi_verifies_e6():
    d, g, t = _setup("E6-1")
    assert len(g) == 79
    ok, witness = verify_psi(g, build_psi(g, 6), 6)
    assert ok, witness


def test_corrupted_psi_rejected():
    d, g, t = _setup("A2-1")
    psi = build_psi(g, 1)
    th = g.index[XRoot(theta(d))]
    a1 = g.index[XRoot(simple_root(1, 2))]
    psi[th], psi[a1] = psi[a1], psi[th]
    ok, witness = verify_psi(g, psi, 1)
    assert ok is False
    assert witness.startswith("weight mismatch at")


def _break_domain(d, g, psi):
    psi[g.index[XRoot(tuple(map(neg, theta(d))))]] = None
    return g, 1


def _break_injectivity(d, g, psi):
    th = theta(d)
    psi[g.index[XRoot(tuple(map(neg, th)))]] = psi[g.index[XRoot(th)]]
    return g, 1


def _break_outside(d, g, psi):
    # the left slot of an image at 2 theta, which is no weight of B
    a1 = g.index[XRoot(simple_root(1, 2))]
    psi[a1] = None, psi[a1][1]
    return g, 1


def _break_top(d, g, psi):
    # x_theta (x) empty has the weight of x_theta and is no other image
    top = g.index[XRoot(theta(d))]
    psi[top] = top, g.index[EMPTY]
    return g, 1


def _break_operator_domain(d, g, psi):
    # start at x_theta (x) y_2 and follow f_1 once, so the walk first fails
    # at f_2, which kills x_theta but not x_theta (x) y_2
    top = g.index[XRoot(theta(d))]
    below = g.f[1][top]
    y2 = g.index[YElement(2)]
    psi[top] = top, y2
    psi[below] = below, y2
    return g, 2


def _break_commutation(d, g, psi):
    a2 = g.index[XRoot(simple_root(2, 2))]
    psi[a2] = a2, g.index[EMPTY]
    return g, 1


def _break_walk(d, g, psi):
    # an element with no classical arrows: nothing leads to it from x_theta
    psi.append(_index_pair(g, EMPTY, EMPTY))
    return CrystalGraph(g.elements + (Box(0),), g.arrows(), g.n_indices, datum=d), 1


@pytest.mark.parametrize(
    "name, corrupt, prefix",
    [
        ("C2-1", _break_domain, "domain is not the little adjoint crystal"),
        ("D4-3", _break_injectivity, "not injective at"),
        ("A2-1", _break_outside, "image outside B (x) B at x[1,0]"),
        ("C2-1", _break_top, "x_theta does not map to x_theta (x) y_i"),
        ("C2-1", _break_operator_domain, "operator domain differs at (x[2,1], 2)"),
        ("A2-1", _break_commutation, "operators do not commute at (x[1,1], 1)"),
        ("D4-3", _break_walk, "walk from x_theta misses 0"),
    ],
)
def test_verify_psi_failure_branches(name, corrupt, prefix):
    d, g, _ = _setup(name)
    psi = build_psi(g, 1)
    graph, node = corrupt(d, g, psi)
    ok, witness = verify_psi(graph, psi, node)
    assert ok is False
    assert witness.startswith(prefix)


def test_verify_psi_domain_rejects_extra_key():
    d, g, _ = _setup("A2-1")
    psi = build_psi(g, 1)
    psi[g.index[EMPTY]] = _index_pair(g, EMPTY, EMPTY)
    assert verify_psi(g, psi, 1) == (False, "domain is not the little adjoint crystal")


def test_verify_psi_domain_rejects_wrong_length():
    # one entry per element: a missing or a surplus entry is a domain fault
    d, g, _ = _setup("A2-1")
    psi = build_psi(g, 1)
    for wrong in (psi[:-1], psi + [None], psi + [_index_pair(g, EMPTY, EMPTY)]):
        assert verify_psi(g, wrong, 1) == (False, "domain is not the little adjoint crystal")


def test_disjoint_embeddings_for_type_a():
    for name in ["A2-1", "A3-1", "A4-1"]:
        d, g, t = _setup(name)
        img1 = set(filter(None, build_psi(g, 1)))
        imgn = set(filter(None, build_psi(g, d.n)))
        assert len(img1) == len(imgn) == len(g) - 1
        assert not img1 & imgn


@pytest.mark.parametrize(
    "name, node",
    [(t.name, i) for t in swept_types(8) for i in valid_psi_indices(family(t.name).graph)],
)
def test_multiply_round_trip(name, node):
    g = family(name).graph
    psi = build_psi(g, node)
    for b, pair in zip(g.elements, psi):
        if pair is not None:
            l, r = pair
            assert multiply(g, psi, g.elements[l], g.elements[r]) == b


def test_multiply_on_non_injective_psi():
    # elements 1 and 5 share the image of 5: the last in element order is
    # the product, and the old image of 1 has none
    d, g, _ = _setup("A2-1")
    psi = build_psi(g, 1)
    shared = list(psi)
    shared[1] = psi[5]
    assert multiply(g, shared, *(g.elements[k] for k in psi[5])) == g.elements[5]
    assert multiply(g, shared, *(g.elements[k] for k in psi[1])) is None
    assert multiply(g, psi, *(g.elements[k] for k in psi[1])) == g.elements[1]
    # a factor outside B
    stranger = XRoot((1, 1, 1))
    assert stranger not in g.index
    assert multiply(g, psi, stranger, g.elements[psi[1][1]]) is None


G2_TABLE_ROWS = ["x[2,1]", "x[1,1]", "x[1,0]", "y_1"]
G2_TABLE_COLS = ["x[-2,-1]", "x[-1,-1]", "x[-1,0]", "y_1"]
G2_TABLE = [
    [None, "x[1,0]", "x[1,1]", "x[2,1]"],
    ["x[-1,0]", "y_1", None, None],
    ["x[-1,-1]", None, None, None],
    ["x[-2,-1]", None, None, None],
]


def test_g2_octonion_multiplication_table():
    d, g, _ = _setup("D4-3")
    psi = build_psi(g, 1)
    by_label = {b.label(): b for b in g.elements}
    for r, row_label in enumerate(G2_TABLE_ROWS):
        for c, col_label in enumerate(G2_TABLE_COLS):
            got = multiply(g, psi, by_label[row_label], by_label[col_label])
            want = G2_TABLE[r][c]
            assert (got.label() if got else None) == want, (row_label, col_label)


def test_g2_unlisted_products_absent():
    d, g, _ = _setup("D4-3")
    psi = build_psi(g, 1)
    table = multiplication_table(g, psi)
    order = table["order"]
    listed = {(r, c) for r in G2_TABLE_ROWS for c in G2_TABLE_COLS}
    unlisted = [
        (r, c)
        for ri, r in enumerate(order)
        for ci, c in enumerate(order)
        if (r, c) not in listed
    ]
    rng = random.Random(5)
    for r, c in rng.sample(unlisted, 20):
        ri, ci = order.index(r), order.index(c)
        assert table["rows"][ri][ci] is None, (r, c)


def test_energy_propagation_values():
    d, g, t = _setup("A2-1")
    h = energy_propagate(t)
    th = XRoot(theta(d))
    assert h[pair_index(g, EMPTY, EMPTY)] == 0
    assert h[pair_index(g, EMPTY, th)] == 1
    assert h[pair_index(g, th, XRoot(tuple(map(neg, theta(d)))))] == 0
    assert h[pair_index(g, th, EMPTY)] == 1
    assert h[pair_index(g, th, th)] == 2
    for b in g.elements:
        if b != EMPTY:
            assert h[pair_index(g, b, EMPTY)] == 1
            assert h[pair_index(g, EMPTY, b)] == 1


@pytest.mark.parametrize("ty", [t.name for t in swept_types(8)] + WIDE_NAMES)
def test_energy_methods_agree(ty):
    d, g, t = _setup(ty)
    assert energy_propagate(t) == energy_by_classification(t)


def test_energy_constant_on_classical_components():
    # arrow by arrow, so that the check does not read the component labels
    # that propagation itself is built on
    for name in ["A2-1", "C2-1", "G2-1", "A4-2"]:
        d, g, t = _setup(name)
        h = energy_propagate(t)
        for i in range(1, t.n_indices):
            for k, down in enumerate(t.f[i]):
                if down >= 0:
                    assert h[k] == h[down], (name, i, pair_label(g, k))


# The defining recurrence of the energy, checked along the arrows of the
# two-factor signature rule (CrystalGraph.pair_e) rather than the row
# kernels of TensorCrystal that propagation reads: for a random pair l (x) r
# of a family of rank <= 6 and every index i where e_i acts, H(e_i(l (x) r))
# equals H(l (x) r) for i >= 1, and for i = 0 it is one more when the left
# factor moved and one less when the right one did.
_RECURRENCE_NAMES = [t.name for t in swept_types(6)]


@functools.cache
def _propagated(name):
    return energy_propagate(family(name).tensor)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_energy_recurrence_along_pair_arrows(data):
    name = data.draw(st.sampled_from(_RECURRENCE_NAMES), label="family")
    g = family(name).graph
    h = _propagated(name)
    m = len(g)
    l = data.draw(st.integers(0, m - 1), label="left")
    r = data.draw(st.integers(0, m - 1), label="right")
    for i in range(g.n_indices):
        raised = g.pair_e(l, r, i)
        if raised is None:
            continue
        l2, r2 = raised
        step = 0 if i else (1 if l2 != l else -1)
        assert h[l2 * m + r2] - h[l * m + r] == step, (i, l, r)


@pytest.mark.parametrize("name", [t.name for t in swept_types(8)])
def test_energy_recurrence_on_every_pair(name):
    # the recurrence along every arrow of the square, read through
    # CrystalGraph.pair_e alone, with H(empty (x) empty) = 0; every pair
    # lies on an arrow, so one wrong value of H fails here
    g = build_crystal(build_datum(name))
    h = energy_propagate(TensorCrystal(g))
    m = len(g)
    assert h[pair_index(g, EMPTY, EMPTY)] == 0
    for i in range(g.n_indices):
        for t, (l, r) in enumerate(product(range(m), repeat=2)):
            raised = g.pair_e(l, r, i)
            if raised is None:
                continue
            l2, r2 = raised
            step = 0 if i else (1 if l2 != l else -1)
            assert h[l2 * m + r2] - h[t] == step, (name, i, pair_label(g, t))


def test_zero_energy_components_beyond_named_classes():
    # the square of the half-weight chain contains a level-0 component
    # whose head is neither x_theta (x) y_i nor x_theta (x) x_{-theta}
    d, g, t = _setup("A4-2")
    h = energy_propagate(t)
    e2 = XRoot((0, 1))
    th = XRoot(theta(d))
    assert h[pair_index(g, th, e2)] == 0


def test_classification_labels():
    d, g, t = _setup("A2-1")
    th = XRoot(theta(d))
    a1 = XRoot(simple_root(1, 2))
    labels = classify_components(t)
    assert labels[pair_index(g, a1, th)] == TWO_THETA
    assert labels[pair_index(g, YElement(1), th)] == TWO_THETA
    assert labels[pair_index(g, th, XRoot(tuple(map(neg, theta(d)))))] == "ThetaMinusTheta"
    assert labels[pair_index(g, EMPTY, EMPTY)] == "EmptyEmpty"
    assert labels[pair_index(g, th, EMPTY)] == "RightEmpty"
    assert labels[pair_index(g, EMPTY, th)] == "LeftEmpty"
    assert labels[pair_index(g, th, YElement(1))] == theta_comp(1)
    assert GENERIC in labels


def test_two_theta_closure_under_classical_operators():
    for name in ["A2-1", "C2-1", "G2-1", "A4-2", "B3-1"]:
        d, g, t = _setup(name)
        comp = two_theta_indices(t)
        for k in comp:
            for i in range(1, d.n + 1):
                down = t.f[i][k]
                assert down < 0 or down in comp
                up = g.pair_e(*divmod(k, len(g)), i)
                assert up is None or up[0] * len(g) + up[1] in comp


def test_order_formula_matches_component_where_sound():
    # the candidate order formula reproduces the component exactly on the
    # y-free half-weight chains and in ranks 1, 2 of the untwisted A series
    for name in ["A1-1", "A2-1", "A2-2", "A4-2", "A6-2"]:
        d, g, t = _setup(name)
        assert two_theta_formula_indices(t) == two_theta_indices(t), name


def test_order_formula_never_overshoots_on_twisted():
    # on the twisted families the formula is a subset of the component and
    # only y-involving fringe pairs are missing
    for name in ["A5-2", "D3-2", "D4-2", "E6-2", "D4-3"]:
        d, g, t = _setup(name)
        formula = two_theta_formula_indices(t)
        comp = two_theta_indices(t)
        assert formula <= comp, name
        m = len(g)
        for k in comp - formula:
            left, right = pair_elements(g, k)
            assert isinstance(left, YElement) or isinstance(right, YElement)


def test_order_formula_known_gaps():
    # regression pins for the two known failure modes of the order formula:
    # a fringe element it misses and an ordered pair it wrongly includes
    d, g, t = _setup("C2-1")
    formula = two_theta_formula_indices(t)
    comp = two_theta_indices(t)
    th = XRoot(theta(d))
    missed = pair_index(g, YElement(2), th)
    assert missed in comp and missed not in formula
    a1 = XRoot(simple_root(1, 2))
    extra = pair_index(g, a1, a1)
    assert extra in formula and extra not in comp


def _bruhat_reach(d, orbit, lower):
    """mu -> the orbit weights reached from mu by reflections s_beta in
    positive roots beta, each step going down (lower=True: <beta^v, mu> > 0)
    or up (lower=False: <beta^v, mu> < 0); mu itself included."""
    n = d.n
    fc = d.finite_cartan()
    gram = [[d.symmetrizers[i + 1] * fc[i][j] for j in range(n)] for i in range(n)]
    assert all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))

    def form(a, b):
        return sum(
            a[i] * b[j] * gram[i][j] for i in range(n) for j in range(n)
        )

    positive = [r for r, _ in finite_roots(d) if min(r) >= 0]
    sign = 1 if lower else -1
    step = {}
    for mu in orbit:
        step[mu] = set()
        for beta in positive:
            c, rem = divmod(2 * form(beta, mu), form(beta, beta))
            assert rem == 0
            if sign * c > 0:
                nu = tuple(m - c * b for m, b in zip(mu, beta))
                assert nu in orbit
                step[mu].add(nu)
    reach = {}
    for mu in orbit:
        seen, stack = {mu}, [mu]
        while stack:
            for nu in step[stack.pop()]:
                if nu not in seen:
                    seen.add(nu)
                    stack.append(nu)
        reach[mu] = seen
    return reach


def test_order_indices_fill_candidate_gaps():
    # the exact order description keeps the fringe pair the candidate misses
    # and drops the dominance-ordered pair the candidate wrongly includes
    d, g, t = _setup("C2-1")
    exact = two_theta_order_indices(g)
    assert exact == two_theta_indices(t)
    th = XRoot(theta(d))
    assert pair_index(g, YElement(2), th) in exact
    a1 = XRoot(simple_root(1, 2))
    assert pair_index(g, a1, a1) not in exact
    # x_mu lies in D_nu exactly when nu is below mu in the Bruhat order
    # generated by reflections in all positive roots; dually for D^nu
    for name in ["G2-1", "F4-1", "C3-1", "D4-3"]:
        d, g, _ = _setup(name)
        for opposite in (False, True):
            crystals = demazure_crystals(g, opposite=opposite)
            orbit = set(crystals)
            assert len(orbit) == len(set(crystals.values())), name
            reach = _bruhat_reach(d, orbit, lower=not opposite)
            for mu in orbit:
                x_mu = g.index[XRoot(mu)]
                for nu in orbit:
                    assert (x_mu in crystals[nu]) == (nu in reach[mu]), (
                        name, opposite, root_label(mu), root_label(nu)
                    )


def test_order_indices_reject_crystal_without_directions():
    # cutting the 1-arrow y_1 -> x_{-theta} of A1-1 leaves x_{-theta} in no
    # Demazure crystal, so it has no initial direction
    from affine_crystals.crystal import CrystalGraph

    d, g, _ = _setup("A1-1")
    arrows = [a for a in g.arrows() if a[:2] != (1, g.index[YElement(1)])]
    cut = CrystalGraph(g.elements, arrows, g.n_indices, datum=d)
    with pytest.raises(ValueError, match="no unique smallest Demazure crystal"):
        two_theta_order_indices(cut)


def test_directions_reject_tied_smallest_crystals():
    # y_1 and x_{-theta} of A1-1 lie in two crystals of three elements, the
    # same set under two keys, and in no smaller one
    _, g, _ = _setup("A1-1")
    crystals = {
        "theta": frozenset({0}),
        "-theta": frozenset({0, 1, 2}),
        "copy": frozenset({0, 1, 2}),
    }
    with pytest.raises(ValueError, match="no unique smallest Demazure crystal"):
        _directions(g, crystals)


def test_directions_reject_smallest_crystal_outside_a_larger_one():
    # y_1 of A1-1 lies in {x_theta, y_1} and in the larger {y_1, x_{-theta},
    # empty}, which does not hold x_theta
    _, g, _ = _setup("A1-1")
    crystals = {"theta": frozenset({0, 1}), "-theta": frozenset({1, 2, 3})}
    with pytest.raises(ValueError, match="no unique smallest Demazure crystal"):
        _directions(g, crystals)


def test_three_box_fixture():
    ok, mismatches = fixture_energy_check()
    assert ok, mismatches
    g = three_box_crystal()
    assert len(g) == 3
    h = energy_propagate(TensorCrystal(g))
    # no empty element, so H(1 (x) 1) = 0 at pair 0; the closed form's
    # values 1, 0, 1 at 2 (x) 1, 1 (x) 3 and 2 (x) 2 keep their differences
    values = {(l.value, r.value): v for (l, r), v in zip(product(g.elements, repeat=2), h)}
    assert values[(1, 1)] == 0
    assert values[(2, 1)] == 0
    assert values[(1, 3)] == -1
    assert values[(2, 2)] == 0


def test_energy_without_empty_is_zero_on_pair_zero():
    # the three boxes listed from box 3 down: pair 0 is now 3 (x) 3, where
    # H is 0, and the closed form shifts by one to 0 or -1
    boxes = [Box(3), Box(2), Box(1)]
    g = CrystalGraph(boxes, [(1, 2, 1), (2, 1, 0), (0, 0, 2)], 3)
    h = energy_propagate(TensorCrystal(g))
    assert h[0] == 0
    for (l, r), v in zip(product(boxes, repeat=2), h):
        assert v == (0 if l.value >= r.value else -1), (l.value, r.value)


def test_classification_rejects_component_without_single_head():
    # box 2 is reached by a 1-arrow from box 1 and a 2-arrow from box 3, so
    # the classical component of 2 (x) 2 has four maximal vectors: the
    # pairs of boxes 1 and 3
    from affine_crystals.crystal import CrystalGraph
    from affine_crystals.algebra import Box

    a, b, c = Box(1), Box(2), Box(3)
    arrows = [(1, 0, 1), (2, 2, 1), (0, 1, 3), (0, 3, 0)]
    t = TensorCrystal(CrystalGraph([a, b, c, EMPTY], arrows, 3))
    with pytest.raises(ValueError, match="component with 4 maximal vectors"):
        energy_by_classification(t)


def test_propagation_rejects_inconsistent_loop():
    # rewiring the three-box loop's 0-arrow into a chord makes two routes
    # around the square disagree, which the check of every 0-arrow catches
    from affine_crystals.crystal import CrystalGraph
    from affine_crystals.algebra import Box

    boxes = [Box(1), Box(2), Box(3)]
    t = TensorCrystal(CrystalGraph(boxes, [(1, 0, 1), (2, 1, 2), (0, 0, 2)], 3))
    with pytest.raises(
        ValueError, match=r"^inconsistent energy at 1 \(x\) 1: 0 vs 1 via index 0$"
    ):
        energy_propagate(t)


def test_propagation_rejects_disconnected_square():
    from affine_crystals.crystal import CrystalGraph
    from affine_crystals.algebra import Box

    boxes = [Box(1), Box(2)]
    t = TensorCrystal(CrystalGraph(boxes, [(1, 0, 1)], 2))
    with pytest.raises(ValueError, match="not connected; energy is partial"):
        energy_propagate(t)


# The two big tables are written row by row; json.dumps(..., indent=2) of
# the same data is their oracle, byte for byte.
WITNESSES = [None, 'odd "quote", back\\slash and \u00e9t\u00e9 \u2297']


def _energy_oracle(tensor, h):
    labels = [b.label() for b in tensor.base.elements]
    m = len(labels)
    table = {f"({labels[k // m]},{labels[k % m]})": v for k, v in enumerate(h)}
    return json.dumps(table, indent=2) + "\n"


def _multiplication_oracle(graph, psi, node, verified, witness):
    table = multiplication_table(graph, psi)
    table["node"] = node
    table["embedding_verified"] = verified
    if witness:
        table["witness"] = witness
    return json.dumps(table, indent=2) + "\n"


_SQUARE_H = st.integers(0, 7).flatmap(
    lambda m: st.lists(st.integers(-3, 3), min_size=m * m, max_size=m * m).map(lambda h: (m, h))
)


@settings(max_examples=200, deadline=None)
@given(_SQUARE_H)
@example((0, []))
@example((1, [-2]))
@example((3, [5, 5, 5, -1, 2, 2, 0, 0, -4]))  # one value; a run at each end
def test_pair_rows_match_per_pair_formula(square):
    m, h = square
    heads = [f"<{left}|" for left in range(m)]
    tails = [f"{right}>" for right in range(m)]
    cells = {v: f"={v};" for v in set(h)}
    want = [
        "".join(heads[left] + tails[right] + cells[h[left * m + right]] for right in range(m))
        for left in range(m)
    ]
    assert list(_pair_rows(heads, tails, h, cells)) == want


@pytest.mark.parametrize("name", SWEPT_NAMES)
def test_energy_table_json_matches_json_dumps(name):
    t = family(name).tensor
    h = energy_propagate(t)
    assert energy_table_json(t, h) == _energy_oracle(t, h)


@pytest.mark.parametrize("name", SWEPT_NAMES)
def test_multiplication_table_json_matches_json_dumps(name):
    ctx = family(name)
    for i, psi in ctx.psis.items():
        for witness in WITNESSES:
            for verified in (True, False):
                got = multiplication_table_json(ctx.graph, psi, i, verified, witness)
                assert got == _multiplication_oracle(ctx.graph, psi, i, verified, witness)


@dataclass(frozen=True)
class Named:
    """A crystal element with an arbitrary label; ``key`` keeps equal
    labels apart as elements."""

    key: int
    text: str

    def label(self):
        return self.text


def _named_graph(texts):
    return CrystalGraph([Named(k, s) for k, s in enumerate(texts)], [], 1)


@pytest.mark.parametrize("only", [Box(1), EMPTY])
def test_writers_on_one_element_square(only):
    # the empty element is outside the product's domain, so the table of
    # a square of empty alone has empty "order" and "rows" lists
    g = CrystalGraph([only], [], 1)
    t = TensorCrystal(g)
    for h in ([0], [-3]):
        assert energy_table_json(t, h) == _energy_oracle(t, h)
    for psi in ([None], [(0, 0)]):
        for witness in WITNESSES:
            got = multiplication_table_json(g, psi, 1, True, witness)
            assert got == _multiplication_oracle(g, psi, 1, True, witness)


@pytest.mark.parametrize(
    "texts", [["", ","], ["a", "a"], ["x", "x,y", "y", "y,x"], ["a,b", "a", "b,c", "c"]]
)
def test_energy_table_json_coinciding_keys(texts):
    # "(,,)" is both ("", ",") and (",", ""): the dict of pairs keeps the
    # first position and the last value, and so must the writer
    t = TensorCrystal(_named_graph(texts))
    h = list(range(t.size))
    assert energy_table_json(t, h) == _energy_oracle(t, h)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_writers_match_json_dumps_on_random_labels(data):
    texts = data.draw(st.lists(st.text(max_size=6), min_size=1, max_size=5))
    g = _named_graph(texts)
    t = TensorCrystal(g)
    h = data.draw(st.lists(st.integers(-3, 3), min_size=t.size, max_size=t.size))
    assert energy_table_json(t, h) == _energy_oracle(t, h)
    # index pairs, None in a slot standing for a factor outside B
    slot = st.one_of(st.none(), st.integers(0, len(g) - 1))
    entry = st.one_of(st.none(), st.tuples(slot, slot))
    psi = data.draw(st.lists(entry, min_size=len(g), max_size=len(g)))
    witness = data.draw(st.one_of(st.none(), st.text(max_size=6)))
    verified = data.draw(st.booleans())
    got = multiplication_table_json(g, psi, 2, verified, witness)
    assert got == _multiplication_oracle(g, psi, 2, verified, witness)
