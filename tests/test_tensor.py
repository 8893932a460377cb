import json
import random
import re
from collections import Counter
from fractions import Fraction
from operator import mul, neg, sub

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from affine_crystals import paths, perfect
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
from affine_crystals.paths import PathModel
from affine_crystals.perfect import verify_perfect
from affine_crystals.roots import finite_roots, lambda_weights, theta
from affine_crystals.tensor import (
    TensorCrystal,
    _union_find,
    classical_heads,
    head_links,
    square_heads,
)

from conftest import SWEPT_NAMES, family, pair_elements, pair_index


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


def _reference_labels(t, classical):
    """Components by depth-first search over the arrow tables of the
    pairwise rule (without the 0-arrows when classical), ids in order of
    each component's smallest pair index."""
    first = 1 if classical else 0
    f_tabs, e_tabs = _reference_tables(t.base)
    tables = f_tabs[first:] + e_tabs[first:]
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
    """Pairs that every classical raising map of the pairwise rule kills."""
    e_tabs = _reference_tables(t.base)[1][1:]
    return [k for k in range(t.size) if all(e[k] < 0 for e in e_tabs)]


# the datum that the hand-built graphs under three indices carry
A2 = build_datum("A2-1")


def _hand_built(name):
    # boxes 1, 2, 3 sit at indices 0, 1, 2 (a, b, c); index 3 (d) is empty
    # in four-heads and box 4 in head-cycle
    a, b, c, d = range(4)
    arrows = {
        "three-box": None,
        # box 2 is reached from boxes 1 and 3, so the component of 2 (x) 2
        # has four maximal vectors
        "four-heads": [(1, a, b), (2, c, b), (0, b, d), (0, d, a)],
        # classical cycles of length 2 and 3 that mix indices
        "cycle-2": [(1, a, b), (2, b, a), (0, a, c)],
        "cycle-3": [(1, a, b), (2, b, c), (1, c, a)],
        # a classical head (box 1) beside a classical cycle that no head
        # reaches (boxes 3 and 4), joined by a 0-arrow
        "head-cycle": [(1, a, b), (1, c, d), (2, d, c), (0, b, c)],
        # an isolated box (1) beside a classical 2-cycle (boxes 2 and 3):
        # the one classical head, 1 (x) 1, is a component of its own
        "isolated-cycle": [(1, b, c), (2, c, b)],
    }[name]
    if arrows is None:
        g = three_box_crystal()
        return CrystalGraph(g.elements, g.arrows(), 3, datum=A2)
    extra = {"four-heads": [EMPTY], "head-cycle": [Box(4)]}.get(name, [])
    return CrystalGraph([Box(1), Box(2), Box(3)] + extra, arrows, 3, datum=A2)


HAND_BUILT = ["three-box", "four-heads", "cycle-2", "cycle-3", "head-cycle", "isolated-cycle"]


def _canonical(labels):
    """The same partition, relabelled by first appearance."""
    ids = {}
    return [ids.setdefault(c, len(ids)) for c in labels]


def _flat_labels(t):
    """(labels, count) over the pairs, left-major, from the per-row ids."""
    rows, count = t.component_labels()
    return [c for row in rows for c in row], count


def _assert_partitions_match_search(t):
    # ids carry no order, so both partitions are compared by first appearance
    labels, count = _flat_labels(t)
    assert (_canonical(labels), count) == _reference_labels(t, True)
    merged, total = t.connected_components()
    assert (_canonical([merged[c] for c in labels]), total) == _reference_labels(t, False)


def _assert_dense_rows(t):
    # ids are exactly 0..count-1, one row of length m per left factor
    rows, count = t.component_labels()
    m = len(t.base)
    assert len(rows) == m and all(len(row) == m for row in rows)
    assert set().union(*rows) == set(range(count))


@pytest.mark.parametrize("ty", [t.name for t in swept_types(4)] + HAND_BUILT)
def test_component_labels_match_search(ty):
    g = _hand_built(ty) if ty in HAND_BUILT else build_crystal(build_datum(ty))
    t = TensorCrystal(g)
    _assert_partitions_match_search(t)
    # on four-heads and head-cycle the closure check merges ids, which are
    # then compressed
    _assert_dense_rows(t)
    assert t.maximal_indices() == _reference_maximal(t)
    if ty in ("cycle-2", "cycle-3", "head-cycle", "isolated-cycle"):
        # some classical component has no maximal vector at all
        labels, count = _flat_labels(t)
        assert len({labels[k] for k in t.maximal_indices()}) < count
    if ty == "head-cycle":
        assert t.maximal_indices()


def _a2_cut():
    """A2-1 without its two 0-arrows at empty, as a graph with the datum."""
    g = build_crystal(A2)
    empty = g.index[EMPTY]
    arrows = [(i, s, t) for i, s, t in g.arrows() if not (i == 0 and empty in (s, t))]
    assert len(arrows) == sum(map(len, g.f)) - 2
    return CrystalGraph(g.elements, arrows, g.n_indices, datum=A2)


def test_connectivity_axiom_fails_without_zero_arrows_at_empty():
    report = verify_perfect(_a2_cut())
    assert not report["passed"]
    assert report["axioms"]["tensor_square_connected"] == {
        "passed": False,
        "detail": "B(x)B has 5 component(s) over 81 pairs",
        "witness": "multiple components",
    }


@pytest.mark.parametrize("ty", [t.name for t in swept_types(4)] + HAND_BUILT + ["A2-1 cut"])
def test_connected_components_count_matches_search(ty):
    if ty == "A2-1 cut":
        g = _a2_cut()
    else:
        g = _hand_built(ty) if ty in HAND_BUILT else build_crystal(build_datum(ty))
    t = TensorCrystal(g)
    assert t.connected_components()[1] == _reference_labels(t, False)[1]


def _verify_count(g):
    """The component count in the connectivity detail of ``verify_perfect``
    on a graph under three indices that carries its datum, checked against
    its pair count."""
    axiom = verify_perfect(g)["axioms"]["tensor_square_connected"]
    found = re.fullmatch(r"B\(x\)B has (\d+) component\(s\) over (\d+) pairs", axiom["detail"])
    count, pairs = map(int, found.groups())
    assert pairs == len(g) ** 2
    assert axiom["passed"] == (count == 1)
    return count


# the component counts that verify reports on the graphs that carry A2
VERIFY_COUNTS = {
    "three-box": 1,
    "four-heads": 1,
    "cycle-2": 1,
    "cycle-3": 1,
    "head-cycle": 1,
    "isolated-cycle": 4,
    "A2-1 cut": 5,
}


@pytest.mark.parametrize("ty", HAND_BUILT + ["A2-1 cut"])
def test_verify_counts_components_on_hand_built(ty):
    # where the head certificate does not close (a classical cycle, or heads
    # the 0-arrows leave apart), verify reads the exact count of the square
    g = _a2_cut() if ty == "A2-1 cut" else _hand_built(ty)
    assert g.datum is A2
    count = _verify_count(g)
    assert count == TensorCrystal(g).connected_components()[1] == VERIFY_COUNTS[ty]
    if ty == "isolated-cycle":
        # its one head would prove it connected but for the cycle check
        assert count > 1


@pytest.mark.parametrize("ty", HAND_BUILT + ["A2-1 cut"])
def test_kahn_pass_on_hand_built(ty):
    # the Kahn sort of verify yields the heads of B, or None where the
    # classical arrows close a cycle (through indices 1 and 2 on each of
    # these), where test_verify_counts_components_on_hand_built checks
    # that verify still reports the square's exact count
    g = _a2_cut() if ty == "A2-1 cut" else _hand_built(ty)
    assert perfect._acyclic(g) == (None if "cycle" in ty else classical_heads(g))


def test_verify_reads_only_the_component_count(monkeypatch):
    # the connectivity axiom builds no label list over the pairs
    def refuse(self, *args):
        raise AssertionError("verify_perfect built a label list")

    monkeypatch.setattr(TensorCrystal, "component_labels", refuse)
    assert verify_perfect(build_crystal(build_datum("C2-1")))["passed"]
    # nor does the exact count where the head certificate does not close
    assert not verify_perfect(_a2_cut())["passed"]


@st.composite
def _random_graphs(draw):
    """Graphs of up to 6 boxes under 3 indices with random arrows; the
    draws that CrystalGraph refuses (an i-cycle) are rejected."""
    n = draw(st.integers(1, 6))
    arrow = st.tuples(st.integers(0, 2), st.integers(0, n - 1), st.integers(0, n - 1))
    arrows = draw(
        st.lists(
            arrow.filter(lambda a: a[1] != a[2]),
            max_size=3 * n,
            # no two i-arrows leave or enter one box
            unique_by=(lambda a: a[:2], lambda a: (a[0], a[2])),
        )
    )
    boxes = [Box(k) for k in range(n)]
    try:
        return CrystalGraph(boxes, arrows, 3, datum=A2)
    except ValueError:
        reject()


@settings(max_examples=300, deadline=None)
@given(_random_graphs())
def test_component_labels_match_search_on_random_graphs(g):
    # the closure comparisons that the labelling skips can hide no merge
    t = TensorCrystal(g)
    _assert_partitions_match_search(t)
    _assert_dense_rows(t)
    assert t.maximal_indices() == _reference_maximal(t)
    # and the head certificate of verify proves no disconnected square
    # connected
    assert _verify_count(g) == t.connected_components()[1]


def test_component_labels_are_cached_copies():
    t = TensorCrystal(three_box_crystal())
    rows, count = t.component_labels()
    want = list(rows)
    rows.clear()
    t.maximal_indices().clear()
    assert t.component_labels() == (want, count)
    _assert_partitions_match_search(t)
    assert t.maximal_indices() == _reference_maximal(t)


@pytest.mark.parametrize("ty", SWEPT_NAMES + HAND_BUILT)
def test_row_tables_match_pairwise_rule(ty):
    # the row kernels, the per-pair helper and the reference rule agree on
    # every pair and index
    g = _hand_built(ty) if ty in HAND_BUILT else build_crystal(build_datum(ty))
    want = _reference_tables(g)
    assert _helper_tables(g) == want
    assert TensorCrystal(g).f == want[0]


def test_self_loop_rejected():
    # an arrow from a box to itself is an i-cycle of length 1
    a = Box(1)
    with pytest.raises(ValueError, match="cycle"):
        CrystalGraph([a], [(0, 0, 0)], 1)


@pytest.mark.parametrize("ty", SWEPT_NAMES + HAND_BUILT + ["B12-1", "D16-2"])
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


def _links_until(merging):
    """Links that raise when read past the first ``merging`` of them."""
    yield from [(0, 1), (1, 2), (2, 3)][:merging]
    raise AssertionError("a link was read after one class was left")


@pytest.mark.parametrize("n, merging", [(0, 0), (1, 0), (2, 1), (4, 3)])
def test_union_find_stops_at_one_class(n, merging):
    # no link is read once one class is left, nor any where n < 2
    assert _union_find(n, _links_until(merging)) == ([0] * n, min(n, 1))


def test_union_find_counts_classes():
    assert _union_find(6, iter([(4, 2), (5, 4), (3, 1)])) == ([0, 1, 2, 1, 2, 2], 3)


def test_union_find_numbers_by_first_appearance():
    # node 2 is the root of node 0's class, so root labels would read
    # [2, 1, 2]; the ids are the classes in order of first appearance
    assert _union_find(3, [(0, 2)]) == ([0, 1, 0], 2)


@pytest.mark.parametrize(
    "ty", [t.name for t in swept_types(8)] + ["three-box", "four-heads", "A2-1 cut"]
)
def test_head_links_stay_in_the_component(ty):
    # each link raises an f_0 or e_0 image of a head to the head of the
    # image's own classical component, on graphs without a classical cycle
    if ty in HAND_BUILT or ty == "A2-1 cut":
        g = _a2_cut() if ty == "A2-1 cut" else _hand_built(ty)
        t = TensorCrystal(g)
    else:
        g, t = family(ty).graph, family(ty).tensor
    m = len(g)
    heads = square_heads(g, classical_heads(g))
    assert [l * m + r for l, r in heads] == t.maximal_indices()
    images = [
        (h, pair)
        for h, (l, r) in enumerate(heads)
        for pair in (g.pair_f(l, r, 0), g.pair_e(l, r, 0))
        if pair is not None
    ]
    links = list(head_links(g, heads))
    assert [h for h, _ in links] == [h for h, _ in images]
    assert images
    rows, _ = t.component_labels()
    for (_, to), (_, (l, r)) in zip(links, images):
        up_l, up_r = heads[to]
        assert rows[up_l][up_r] == rows[l][r]


def _reference_dot(g):
    """DOT from the lowering tables: elements in order, then the arrows by
    index and source, 0-arrows dashed; a backslash or a double quote in a
    label is escaped by a backslash."""
    out = ["digraph crystal {", "  rankdir=LR;"]
    for k, b in enumerate(g.elements):
        label = re.sub(r'(["\\])', r"\\\1", b.label())
        out.append(f'  n{k} [label="{label}"];')
    for i in range(g.n_indices):
        style = ", style=dashed" if i == 0 else ""
        out += [f'  n{s} -> n{g.f[i][s]} [label="{i}"{style}];' for s in sorted(g.f[i])]
    return "\n".join(out) + "\n}\n"


QUOTED = {
    "quoted": ([Box('say "hi"'), Box("b")], [(0, 0, 1)], 1),
    "backslash": ([Box("a\\"), Box('\\"c\\')], [(0, 1, 0)], 1),
}


@pytest.mark.parametrize(
    "ty", [t.name for t in swept_types(8)] + HAND_BUILT + ["A2-1 cut"] + list(QUOTED)
)
def test_dot_matches_reference(ty):
    if ty in QUOTED:
        g = CrystalGraph(*QUOTED[ty])
    elif ty in HAND_BUILT or ty == "A2-1 cut":
        g = _a2_cut() if ty == "A2-1 cut" else _hand_built(ty)
    else:
        g = family(ty).graph
    dot = g.to_dot()
    assert dot == _reference_dot(g)
    # every label is one DOT quoted string: no bare quote ends it early
    quoted = r'"(?:[^"\\]|\\.)*"'
    line = re.compile(rf"  n\d+ (-> n\d+ )?\[label={quoted}(, style=dashed)?\];")
    lines = dot.splitlines()[2:-1]
    assert all(map(line.fullmatch, lines))
    assert len(lines) == len(g) + len(g.arrows())


@pytest.mark.parametrize("n_indices", [1, 2])
def test_one_element_square(n_indices):
    # no pair: the constructor labels and links nothing
    t = TensorCrystal(CrystalGraph([], [], n_indices))
    assert t.component_labels() == ([], 0)
    assert t.zero_links() == []
    assert t.connected_components() == ([], 0)
    assert t.maximal_indices() == []
    assert t.f == [[]] * n_indices
    # one pair: every gather has a single index
    a = Box(1)
    t = TensorCrystal(CrystalGraph([a], [], n_indices))
    assert t.f == [[-1]] * n_indices
    _assert_partitions_match_search(t)
    assert t.component_labels() == ([(0,)], 1)
    assert t.maximal_indices() == _reference_maximal(t) == [0]
    # with no empty element, H is 0 on pair 0
    assert energy_propagate(t) == [0]


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


def test_inconsistent_energy_names_smallest_failing_pair():
    # two 0-arrows fail once H has spread from 1 (x) 1: the one from
    # 2 (x) 1 (to 1 (x) 1) and the one from 3 (x) 2 (to 3 (x) 1); the error
    # names the target of the arrow with the smaller source pair
    a, b, c = Box(1), Box(2), Box(3)
    g = CrystalGraph([a, b, c], [(0, 0, 1), (0, 1, 2), (1, 0, 1)], 3)
    t = TensorCrystal(g)
    with pytest.raises(ValueError) as err:
        energy_propagate(t)
    assert str(err.value) == "inconsistent energy at 1 (x) 1: 0 vs 1 via index 0"


def test_energy_and_verify_build_no_views(monkeypatch):
    # energy and the path model read the labels and links the constructor
    # built: the -1 view f is never built; verify builds no square
    d = build_datum("C8-1")
    g = build_crystal(d)
    t = TensorCrystal(g)
    assert energy_propagate(t) == energy_by_classification(t)
    squares = [t]

    def recorded(graph):
        squares.append(TensorCrystal(graph))
        return squares[-1]

    monkeypatch.setattr(perfect, "TensorCrystal", recorded)
    monkeypatch.setattr(paths, "TensorCrystal", recorded)
    assert verify_perfect(g)["passed"]
    PathModel(g, 0)
    assert len(squares) == 2  # PathModel builds its own
    assert all(s._f is None for s in squares)


def test_tensor_f_example():
    d, g, t = _setup("A2-1")
    th = g.index[XRoot(theta(d))]
    out = g.pair_f(th, th, 1)
    assert out == (g.index[XRoot((0, 2))], th)


def test_tensor_e0_on_vacuum():
    d, g, t = _setup("A2-1")
    empty = g.index[EMPTY]
    out = g.pair_e(empty, empty, 0)
    # phi_0 = eps_0 = 1 ties and the raising operator takes the left slot
    assert out == (g.index[XRoot(tuple(map(neg, theta(d))))], empty)


def test_inverse_pairs_on_product():
    rng = random.Random(20240301)
    for name in ["A2-1", "C2-1", "D4-3", "A4-2", "B3-1"]:
        d, g, t = _setup(name)
        m = len(g)
        for _ in range(300):
            k = rng.randrange(t.size)
            i = rng.randrange(d.n + 1)
            down = t.f[i][k]
            if down >= 0:
                assert g.pair_e(*divmod(down, m), i) == divmod(k, m)
            up = g.pair_e(*divmod(k, m), i)
            if up is not None:
                assert t.f[i][up[0] * m + up[1]] == k


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
            left, right = pair_elements(g, k)
            wl = g.weight_of(left)
            wr = g.weight_of(right)
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
        for left, right in [
            (th, th),
            (th, EMPTY),
            (EMPTY, th),
            (EMPTY, EMPTY),
            (th, XRoot(tuple(map(neg, theta(d))))),
        ]:
            assert pair_index(g, left, right) in mv


def test_maximal_vectors_left_factor():
    # beyond the empty-left pairs, a maximal vector always has x_theta on
    # the left, and its right slot is characterized by eps_k <= theta(h_k)
    for name in ["A2-1", "C2-1", "B3-1", "G2-1", "A4-2", "D3-2"]:
        d, g, t = _setup(name)
        th = theta(d)
        for k in t.maximal_indices():
            left, right = pair_elements(g, k)
            if isinstance(left, EmptyElement):
                assert right in (EMPTY, XRoot(th))
                continue
            assert left == XRoot(th)
            for i in range(1, d.n + 1):
                assert 2 * g.eps(right, i) <= sum(map(mul, th, d.cartan[i][1:]))


def test_type_a_maximal_shapes_exact():
    # for the rank 1 and 2 untwisted A families the classified shapes are
    # exhaustive: the five core pairs plus theta (x) (theta - alpha) and
    # theta (x) y_i
    for name in ["A1-1", "A2-1"]:
        d, g, t = _setup(name)
        th = theta(d)
        plus, has_y, _ = lambda_weights(d)
        lam = set(plus) | {tuple(map(neg, r)) for r in plus}
        allowed = {
            pair_index(g, XRoot(th), XRoot(th)),
            pair_index(g, XRoot(th), EMPTY),
            pair_index(g, EMPTY, XRoot(th)),
            pair_index(g, EMPTY, EMPTY),
            pair_index(g, XRoot(th), XRoot(tuple(map(neg, th)))),
        }
        for alpha in plus:
            rest = tuple(map(sub, th, alpha))
            if rest in lam:
                allowed.add(pair_index(g, XRoot(th), XRoot(rest)))
        for i in has_y:
            allowed.add(pair_index(g, XRoot(th), YElement(i)))
        assert set(t.maximal_indices()) <= allowed


def test_no_theta_y_maximal_for_half_weight_families():
    for name in ["A2-2", "A4-2", "D3-2", "D4-2"]:
        d, g, t = _setup(name)
        for k in t.maximal_indices():
            left, right = pair_elements(g, k)
            assert not isinstance(right, YElement)


def test_full_square_connected():
    for ty in swept_types(4, with_exceptional=False):
        d, g, t = _setup(ty.name)
        assert t.connected_components()[1] == 1


def test_classical_components_partition_with_unique_maximal():
    for name in ["A2-1", "C2-1", "D4-3", "A4-2", "B3-1"]:
        d, g, t = _setup(name)
        labels, count = _flat_labels(t)
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
    positives = [r for r, _ in finite_roots(d) if min(r) >= 0]
    labels, _ = _flat_labels(t)
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
    labels, _ = _flat_labels(t)

    def component_of(left, right):
        c = labels[pair_index(g, left, right)]
        return {k for k, label in enumerate(labels) if label == c}

    singleton = component_of(XRoot(th), XRoot(tuple(map(neg, th))))
    assert singleton == {pair_index(g, XRoot(th), XRoot(tuple(map(neg, th))))}
    left = component_of(XRoot(th), EMPTY)
    expect = {
        pair_index(g, b, EMPTY)
        for b in g.elements
        if not isinstance(b, EmptyElement)
    }
    assert left == expect
    right = component_of(EMPTY, XRoot(th))
    expect = {
        pair_index(g, EMPTY, b)
        for b in g.elements
        if not isinstance(b, EmptyElement)
    }
    assert right == expect


def test_string_stats_match_closed_formulas():
    for name in ["A2-1", "C2-1", "G2-1", "A4-2"]:
        d, g, t = _setup(name)
        for k in range(t.size):
            l, r = pair_elements(g, k)
            for i in range(d.n + 1):
                eps_l, phi_l = g.string_stats(l, i)
                eps_r, phi_r = g.string_stats(r, i)
                want_eps = eps_l + max(0, eps_r - phi_l)
                want_phi = phi_r + max(0, phi_l - eps_r)
                assert _pair_stats(g, *divmod(k, len(g)), i) == (want_eps, want_phi)
