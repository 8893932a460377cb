import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from affine_crystals import perfect
from affine_crystals.algebra import (
    Box,
    energy_by_classification,
    energy_propagate,
    three_box_crystal,
)
from affine_crystals.cartan import build_datum, swept_types
from affine_crystals.cli import main
from affine_crystals.crystal import (
    EMPTY,
    CrystalGraph,
    EmptyElement,
    XRoot,
    YElement,
    build_crystal,
)
from affine_crystals.perfect import verify_perfect
from affine_crystals.roots import RootVector, finite_roots, lambda_weights, theta
from affine_crystals.tensor import TensorCrystal, TensorElement

from conftest import SWEPT_NAMES, family


def _setup(name):
    d = build_datum(name)
    g = build_crystal(d)
    return d, g, TensorCrystal(g)


def _reference_tables(g):
    """The signature rule applied pair by pair: flat f and e tables per
    index, -1 for absent arrows."""
    m = len(g)
    f_tabs, e_tabs = [], []
    for i in range(g.n_indices):
        f_flat = [-1] * (m * m)
        e_flat = [-1] * (m * m)
        for l in range(m):
            for r in range(m):
                k = l * m + r
                if g._phi[i][l] > g._eps[i][r]:
                    dst = g.f[i].get(l, -1)
                    if dst >= 0:
                        f_flat[k] = dst * m + r
                else:
                    dst = g.f[i].get(r, -1)
                    if dst >= 0:
                        f_flat[k] = l * m + dst
                if g._phi[i][l] >= g._eps[i][r]:
                    src = g.e[i].get(l, -1)
                    if src >= 0:
                        e_flat[k] = src * m + r
                else:
                    src = g.e[i].get(r, -1)
                    if src >= 0:
                        e_flat[k] = l * m + src
        f_tabs.append(f_flat)
        e_tabs.append(e_flat)
    return f_tabs, e_tabs


def _helper_tables(g):
    """Flat f and e tables per index from ``CrystalGraph.pair_f`` and
    ``pair_e``, -1 for absent arrows."""
    m = len(g)
    tables = []
    for op in (g.pair_f, g.pair_e):
        per_index = []
        for i in range(g.n_indices):
            flat = []
            for l in range(m):
                for r in range(m):
                    pair = op(l, r, i)
                    flat.append(-1 if pair is None else pair[0] * m + pair[1])
            per_index.append(flat)
        tables.append(per_index)
    return tuple(tables)


def _reference_labels(t, omit_zero):
    """Components by depth-first search over every arrow table, ids in
    order of each component's smallest pair index."""
    first = 1 if omit_zero else 0
    # a loop-form fixed point up[i][k] == k is already labelled
    tables = t.f[first:] + t.up[first:]
    labels = [-1] * t.size
    comp = 0
    for start in range(t.size):
        if labels[start] >= 0:
            continue
        labels[start] = comp
        stack = [start]
        while stack:
            k = stack.pop()
            for tab in tables:
                nb = tab[k]
                if nb >= 0 and labels[nb] < 0:
                    labels[nb] = comp
                    stack.append(nb)
        comp += 1
    return labels, comp


def _reference_maximal(t):
    """Pairs that every classical raising map fixes."""
    if t.n_indices == 1:
        return list(range(t.size))
    return [k for k, col in enumerate(zip(*t.up[1:])) if all(u == k for u in col)]


def _hand_built(name):
    a, b, c = Box(1), Box(2), Box(3)
    arrows = {
        "three-box": None,
        # box 2 is reached from boxes 1 and 3, so the component of 2 (x) 2
        # has four maximal vectors
        "four-heads": [(1, a, b), (2, c, b), (0, b, EMPTY), (0, EMPTY, a)],
        # classical cycles of length 2 and 3 that mix indices
        "cycle-2": [(1, a, b), (2, b, a), (0, a, c)],
        "cycle-3": [(1, a, b), (2, b, c), (1, c, a)],
    }[name]
    if arrows is None:
        return three_box_crystal()
    boxes = [a, b, c] + ([EMPTY] if name == "four-heads" else [])
    return CrystalGraph(boxes, arrows, 3)


HAND_BUILT = ["three-box", "four-heads", "cycle-2", "cycle-3"]


@pytest.mark.parametrize("ty", [t.name for t in swept_types(4)] + HAND_BUILT)
def test_component_labels_match_search(ty):
    g = _hand_built(ty) if ty in HAND_BUILT else build_crystal(build_datum(ty))
    t = TensorCrystal(g)
    for omit_zero in (True, False):
        assert t.component_labels(omit_zero) == _reference_labels(t, omit_zero)
    assert t.maximal_indices() == _reference_maximal(t)
    if ty.startswith("cycle"):
        # some classical component has no maximal vector at all
        labels, count = t.component_labels(omit_zero=True)
        assert len({labels[k] for k in t.maximal_indices()}) < count


def test_component_labels_are_cached_copies():
    t = TensorCrystal(three_box_crystal())
    labels, count = t.component_labels(omit_zero=True)
    labels[0] = -1
    t.maximal_indices().clear()
    assert t.component_labels(omit_zero=True) == _reference_labels(t, True)
    assert t.maximal_indices() == _reference_maximal(t)


@pytest.mark.parametrize("ty", SWEPT_NAMES + HAND_BUILT)
def test_row_tables_match_pairwise_rule(ty):
    # the row kernel, the per-pair helper and the reference rule agree on
    # every pair and index
    g = _hand_built(ty) if ty in HAND_BUILT else build_crystal(build_datum(ty))
    want = _reference_tables(g)
    assert _helper_tables(g) == want
    t = TensorCrystal(g)
    # loop form: up[i][k] == k exactly where pair_e kills the pair
    assert t.up == [[k if u < 0 else u for k, u in enumerate(e)] for e in want[1]]
    assert t.f == want[0]


def test_self_loop_rejected():
    # the loop-form maps rely on e_i(t) = t never happening
    a = Box(1)
    with pytest.raises(ValueError, match="cycle"):
        CrystalGraph([a], [(0, a, a)], 1)


@pytest.mark.parametrize("ty", SWEPT_NAMES + HAND_BUILT)
def test_maximal_indices_match_kashiwara_rule(ty):
    # l (x) r is maximal iff eps_i(l) = 0 and eps_i(r) <= phi_i(l) for every
    # i >= 1, read off B alone
    t = TensorCrystal(_hand_built(ty)) if ty in HAND_BUILT else family(ty).tensor
    g = t.base
    m = len(g)
    classical = range(1, g.n_indices)
    want = [
        l * m + r
        for l in range(m)
        for r in range(m)
        if all(g._eps[i][l] == 0 and g._eps[i][r] <= g._phi[i][l] for i in classical)
    ]
    assert t.maximal_indices() == want


@pytest.mark.parametrize("n_indices", [1, 2])
def test_one_element_square(n_indices):
    # one pair: every gather has a single index
    a = Box(1)
    t = TensorCrystal(CrystalGraph([a], [], n_indices))
    assert t.up == [[0]] * n_indices
    for omit_zero in (True, False):
        assert t.component_labels(omit_zero) == _reference_labels(t, omit_zero)
    assert t.maximal_indices() == _reference_maximal(t) == [0]
    assert energy_propagate(t, anchor=TensorElement(a, a), anchor_value=3) == [3]


@pytest.mark.parametrize("name", ["A2-1", "C2-1", "G2-1", "A4-2", "D4-3"])
def test_signature_ties(name):
    # phi_i(l) = eps_i(r): e_i acts on the left factor, f_i on the right
    g = build_crystal(build_datum(name))
    m = len(g)
    both_act = 0
    for i in range(g.n_indices):
        for l in range(m):
            for r in range(m):
                if g._phi[i][l] != g._eps[i][r]:
                    continue
                up = g.e[i].get(l)
                down = g.f[i].get(r)
                assert g.pair_e(l, r, i) == (None if up is None else (up, r))
                assert g.pair_f(l, r, i) == (None if down is None else (l, down))
                both_act += up is not None and down is not None
    assert both_act > 0


def test_verify_psi_builds_no_table(monkeypatch, capsys):
    # the embedding is checked on index pairs of B; no TensorCrystal is made
    def refuse(self, base):
        raise AssertionError("multiply built a TensorCrystal")

    monkeypatch.setattr(TensorCrystal, "__init__", refuse)
    assert main(["multiply", "C8-1"]) == 0
    assert json.loads(capsys.readouterr().out)["embedding_verified"] is True


def test_energy_and_verify_build_no_views(monkeypatch):
    # the library reads only the loop-form maps, never the -1 view
    d = build_datum("C8-1")
    g = build_crystal(d)
    t = TensorCrystal(g)
    assert energy_propagate(t) == energy_by_classification(t)
    squares = [t]
    monkeypatch.setattr(
        perfect, "TensorCrystal", lambda graph: squares.append(TensorCrystal(graph)) or squares[-1]
    )
    assert verify_perfect(d, g)["passed"]
    assert len(squares) == 2  # verify_perfect builds its own square
    assert t._up is not None
    assert all(s._f is None for s in squares)


def test_tensor_f_example():
    d, g, t = _setup("A2-1")
    th = g.index[XRoot(theta(d))]
    out = g.pair_f(th, th, 1)
    assert out == (g.index[XRoot(RootVector.simple(2, 2))], th)


def test_tensor_e0_on_vacuum():
    d, g, t = _setup("A2-1")
    empty = g.index[EMPTY]
    out = g.pair_e(empty, empty, 0)
    # phi_0 = eps_0 = 1 ties and the raising operator takes the left slot
    assert out == (g.index[XRoot(-theta(d))], empty)


def test_inverse_pairs_on_product():
    rng = random.Random(20240301)
    for name in ["A2-1", "C2-1", "D4-3", "A4-2", "B3-1"]:
        d, g, t = _setup(name)
        for _ in range(300):
            k = rng.randrange(t.size)
            i = rng.randrange(d.n + 1)
            down = t.f[i][k]
            if down >= 0:
                assert t.up[i][down] == k
            up = t.up[i][k]
            if up != k:
                assert t.f[i][up] == k


def _pair_stats(g, l, r, i):
    """(eps_i, phi_i) of the pair l (x) r, by walking its e_i and f_i
    strings one signature-rule step at a time."""
    lengths = []
    for op in (g.pair_e, g.pair_f):
        count = 0
        pair = op(l, r, i)
        while pair is not None:
            count += 1
            pair = op(*pair, i)
        lengths.append(count)
    return tuple(lengths)


def test_stats_weight_additivity():
    for name in ["A2-1", "C2-1", "A4-2"]:
        d, g, t = _setup(name)
        for k in range(t.size):
            pair = t.element(k)
            wl = g.weight_of(pair.left)
            wr = g.weight_of(pair.right)
            for i in range(d.n + 1):
                eps, phi = _pair_stats(g, *divmod(k, len(g)), i)
                assert phi - eps == wl[i] + wr[i]


def test_a1_square_string():
    d, g, t = _setup("A1-1")
    assert t.size == 16
    y1 = g.index[YElement(1)]
    eps, phi = _pair_stats(g, y1, y1, 1)
    assert eps == 1


def test_core_maximal_vectors_always_present():
    for ty in swept_types(4, with_exceptional=False):
        d, g, t = _setup(ty.name)
        th = XRoot(theta(d))
        mv = set(t.maximal_indices())
        for pair in [
            TensorElement(th, th),
            TensorElement(th, EMPTY),
            TensorElement(EMPTY, th),
            TensorElement(EMPTY, EMPTY),
            TensorElement(th, XRoot(-theta(d))),
        ]:
            assert t.pair_index(pair) in mv


def test_maximal_vectors_left_factor():
    # beyond the empty-left pairs, a maximal vector always has x_theta on
    # the left, and its right slot is characterized by eps_k <= theta(h_k)
    for name in ["A2-1", "C2-1", "B3-1", "G2-1", "A4-2", "D3-2"]:
        d, g, t = _setup(name)
        th = theta(d)
        for k in t.maximal_indices():
            pair = t.element(k)
            if isinstance(pair.left, EmptyElement):
                assert pair.right in (EMPTY, XRoot(th))
                continue
            assert pair.left == XRoot(th)
            for i in range(1, d.n + 1):
                assert g.eps(pair.right, i) <= th.pairing(d, i)


def test_type_a_maximal_shapes_exact():
    # for the rank 1 and 2 untwisted A families the classified shapes are
    # exhaustive: the five core pairs plus theta (x) (theta - alpha) and
    # theta (x) y_i
    for name in ["A1-1", "A2-1"]:
        d, g, t = _setup(name)
        th = theta(d)
        plus, has_y, _ = lambda_weights(d)
        lam = set(plus) | {-r for r in plus}
        allowed = {
            t.pair_index(TensorElement(XRoot(th), XRoot(th))),
            t.pair_index(TensorElement(XRoot(th), EMPTY)),
            t.pair_index(TensorElement(EMPTY, XRoot(th))),
            t.pair_index(TensorElement(EMPTY, EMPTY)),
            t.pair_index(TensorElement(XRoot(th), XRoot(-th))),
        }
        for alpha in plus:
            if th - alpha in lam:
                allowed.add(t.pair_index(TensorElement(XRoot(th), XRoot(th - alpha))))
        for i in has_y:
            allowed.add(t.pair_index(TensorElement(XRoot(th), YElement(i))))
        assert set(t.maximal_indices()) <= allowed


def test_no_theta_y_maximal_for_half_weight_families():
    for name in ["A2-2", "A4-2", "D3-2", "D4-2"]:
        d, g, t = _setup(name)
        for k in t.maximal_indices():
            pair = t.element(k)
            assert not isinstance(pair.right, YElement)


def test_full_square_connected():
    for ty in swept_types(4, with_exceptional=False):
        d, g, t = _setup(ty.name)
        assert t.component_labels(omit_zero=False)[1] == 1


def test_classical_components_partition_with_unique_maximal():
    for name in ["A2-1", "C2-1", "D4-3", "A4-2", "B3-1"]:
        d, g, t = _setup(name)
        labels, count = t.component_labels(omit_zero=True)
        assert len(labels) == t.size and set(labels) == set(range(count))
        # one maximal vector in each component
        assert sorted(labels[k] for k in t.maximal_indices()) == list(range(count))


@pytest.mark.parametrize("ty", SWEPT_NAMES)
def test_component_sizes_match_weyl_dimension(ty):
    """Every classical component of B (x) B is the crystal of an irreducible
    g-module, so its size is the Weyl dimension of its head's weight lam:
    prod over positive roots alpha of (lam + rho, alpha^v) / (rho, alpha^v).
    With alpha = sum k_j alpha_j, (mu, alpha^v) is proportional to
    sum k_j s_j mu(h_j), the factor cancelling in each ratio.

    The formula shares `finite_roots` and the symmetrizers of nodes 1..n
    with the construction of B; tests/test_roots.py pins the root counts
    independently."""
    ctx = family(ty)
    d, g, t = ctx.datum, ctx.graph, ctx.tensor
    sym = d.symmetrizers[1:]
    positives = [r.twice for r, _ in finite_roots(d) if r.is_nonneg()]
    labels, _ = t.component_labels(omit_zero=True)
    sizes = Counter(labels)
    m = len(g)
    for k in t.maximal_indices():
        left, right = g.weight_of(g.elements[k // m]), g.weight_of(g.elements[k % m])
        lam = [x + y for x, y in zip(left[1:], right[1:])]
        dim = Fraction(1)
        for twice in positives:
            dim *= Fraction(
                sum(c * s * (x + 1) for c, s, x in zip(twice, sym, lam)),
                sum(c * s for c, s in zip(twice, sym)),
            )
        assert dim == sizes[labels[k]]
    if ty == "E8-1":
        # (248 + 1)^2: 248 (x) 248 = 1 + 248 + 3875 + 27000 + 30380, plus
        # 248 twice and 1 once from the trivial factor
        assert sorted(sizes.values()) == [1, 1, 248, 248, 248, 3875, 27000, 30380]


def test_named_components():
    d, g, t = _setup("C2-1")
    th = theta(d)
    labels, _ = t.component_labels(omit_zero=True)

    def component_of(pair):
        c = labels[t.pair_index(pair)]
        return {k for k, label in enumerate(labels) if label == c}

    singleton = component_of(TensorElement(XRoot(th), XRoot(-th)))
    assert singleton == {t.pair_index(TensorElement(XRoot(th), XRoot(-th)))}
    left = component_of(TensorElement(XRoot(th), EMPTY))
    expect = {
        t.pair_index(TensorElement(b, EMPTY))
        for b in g.elements
        if not isinstance(b, EmptyElement)
    }
    assert left == expect
    right = component_of(TensorElement(EMPTY, XRoot(th)))
    expect = {
        t.pair_index(TensorElement(EMPTY, b))
        for b in g.elements
        if not isinstance(b, EmptyElement)
    }
    assert right == expect


def test_string_stats_match_closed_formulas():
    for name in ["A2-1", "C2-1", "G2-1", "A4-2"]:
        d, g, t = _setup(name)
        for k in range(t.size):
            pair = t.element(k)
            l, r = pair.left, pair.right
            for i in range(d.n + 1):
                eps_l, phi_l = g.string_stats(l, i)
                eps_r, phi_r = g.string_stats(r, i)
                want_eps = eps_l + max(0, eps_r - phi_l)
                want_phi = phi_r + max(0, phi_l - eps_r)
                assert _pair_stats(g, *divmod(k, len(g)), i) == (want_eps, want_phi)
