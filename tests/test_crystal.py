import json
from dataclasses import dataclass
from operator import add, mul, neg, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_crystals.algebra import three_box_crystal
from affine_crystals.cartan import build_datum, swept_types
from affine_crystals.crystal import EMPTY, CrystalGraph, XRoot, YElement, build_crystal
from affine_crystals.roots import finite_roots, lambda_weights, theta

from conftest import SWEPT_NAMES, simple_root

# the five fully drawn level-1 graphs, edge for edge
FIXTURES = {
    "A2-1": {
        (1, "x[1,1]", "x[0,1]"), (1, "x[1,0]", "y_1"), (1, "y_1", "x[-1,0]"),
        (1, "x[0,-1]", "x[-1,-1]"),
        (2, "x[1,1]", "x[1,0]"), (2, "x[0,1]", "y_2"), (2, "y_2", "x[0,-1]"),
        (2, "x[-1,0]", "x[-1,-1]"),
        (0, "x[-1,0]", "x[0,1]"), (0, "x[0,-1]", "x[1,0]"),
        (0, "x[-1,-1]", "empty"), (0, "empty", "x[1,1]"),
    },
    "D4-3": {
        (1, "x[2,1]", "x[1,1]"), (1, "x[1,0]", "y_1"), (1, "y_1", "x[-1,0]"),
        (1, "x[-1,-1]", "x[-2,-1]"),
        (2, "x[1,1]", "x[1,0]"), (2, "x[-1,0]", "x[-1,-1]"),
        (0, "x[-1,0]", "x[1,1]"), (0, "x[-1,-1]", "x[1,0]"),
        (0, "x[-2,-1]", "empty"), (0, "empty", "x[2,1]"),
    },
    "C2-1": {
        (1, "x[2,1]", "x[1,1]"), (1, "x[1,1]", "x[0,1]"), (1, "x[1,0]", "y_1"),
        (1, "y_1", "x[-1,0]"), (1, "x[0,-1]", "x[-1,-1]"), (1, "x[-1,-1]", "x[-2,-1]"),
        (2, "x[1,1]", "x[1,0]"), (2, "x[0,1]", "y_2"), (2, "y_2", "x[0,-1]"),
        (2, "x[-1,0]", "x[-1,-1]"),
        (0, "x[-1,0]", "x[1,1]"), (0, "x[-1,-1]", "x[1,0]"),
        (0, "x[-2,-1]", "empty"), (0, "empty", "x[2,1]"),
    },
    "A4-2": {
        (1, "x[1,1/2]", "x[0,1/2]"), (1, "x[0,-1/2]", "x[-1,-1/2]"),
        (2, "x[0,1/2]", "x[0,-1/2]"),
        (0, "x[-1,-1/2]", "empty"), (0, "empty", "x[1,1/2]"),
    },
    "A6-2": {
        (1, "x[1,1,1/2]", "x[0,1,1/2]"), (1, "x[0,-1,-1/2]", "x[-1,-1,-1/2]"),
        (2, "x[0,1,1/2]", "x[0,0,1/2]"), (2, "x[0,0,-1/2]", "x[0,-1,-1/2]"),
        (3, "x[0,0,1/2]", "x[0,0,-1/2]"),
        (0, "x[-1,-1,-1/2]", "empty"), (0, "empty", "x[1,1,1/2]"),
    },
}

COUNTS = {"A2-1": 9, "D4-3": 8, "C2-1": 11, "A4-2": 5, "A6-2": 7}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_drawn_graphs_edge_for_edge(name):
    g = build_crystal(build_datum(name))
    assert len(g) == COUNTS[name]
    els = g.elements
    got = {(i, els[s].label(), els[t].label()) for i, s, t in g.arrows()}
    assert got == FIXTURES[name]


def _graphs(max_rank=4):
    for t in swept_types(max_rank, with_exceptional=False):
        d = build_datum(t)
        yield d, build_crystal(d)


def test_element_count_formula():
    from affine_crystals.roots import lambda_weights

    for d, g in _graphs():
        plus, has_y, _ = lambda_weights(d)
        assert len(g) == 2 * len(plus) + len(has_y) + 1


def test_kashiwara_operator_examples():
    d = build_datum("A2-1")
    g = build_crystal(d)
    assert g.f_tilde(XRoot((2, 0)), 1) == YElement(1)
    assert g.f_tilde(EMPTY, 0) == XRoot(theta(d))
    assert g.f_tilde(EMPTY, 1) is None
    assert g.f_tilde(XRoot(theta(d)), 1) == XRoot((0, 2))


def test_string_stats_examples():
    d = build_datum("A2-1")
    g = build_crystal(d)
    th = XRoot(theta(d))
    assert g.eps(th, 0) == 2
    assert g.eps(EMPTY, 0) == 1
    assert g.string_stats(YElement(1), 1) == (1, 1)
    d3 = build_datum("D4-3")
    g3 = build_crystal(d3)
    assert g3.eps_vec(XRoot(theta(d3))) == (2, 0, 0)


def test_weight_examples():
    d = build_datum("A2-1")
    g = build_crystal(d)
    assert g.weight_of(EMPTY) == (0, 0, 0)
    assert g.weight_of(YElement(1)) == (0, 0, 0)
    assert g.weight_of(XRoot(theta(d))) == (-2, 1, 1)
    assert g.eps_vec(EMPTY) == (1, 0, 0)
    assert g.phi_vec(EMPTY) == (1, 0, 0)
    assert g.eps_vec(YElement(2)) == (0, 0, 1)


def test_inverse_pairs_and_weight_drop():
    for d, g in _graphs():
        for b in g.elements:
            for i in range(d.n + 1):
                fb = g.f_tilde(b, i)
                if fb is not None:
                    assert g.e_tilde(fb, i) == b
                    drop = tuple(
                        x - y
                        for x, y in zip(g.weight_of(b), g.weight_of(fb))
                    )
                    assert drop == tuple(d.cartan[j][i] for j in range(d.n + 1))
                eb = g.e_tilde(b, i)
                if eb is not None:
                    assert g.f_tilde(eb, i) == b


def test_phi_minus_eps_is_weight_pairing():
    for d, g in _graphs():
        for b in g.elements:
            w = g.weight_of(b)
            for i in range(d.n + 1):
                assert g.phi(b, i) - g.eps(b, i) == w[i]
            rw = g.root_weight(b)
            if isinstance(b, XRoot):
                for i in range(d.n + 1):
                    assert 2 * w[i] == sum(map(mul, rw, d.cartan[i][1:]))


def test_connectivity_with_and_without_zero():
    for d, g in _graphs():
        # whole graph, all arrows
        seen = {0}
        stack = [0]
        while stack:
            k = stack.pop()
            for i in range(d.n + 1):
                for nb in (g.f[i].get(k), g.e[i].get(k)):
                    if nb is not None and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        assert len(seen) == len(g)
        # little adjoint part, classical arrows only
        start = g.index[XRoot(theta(d))]
        seen = {start}
        stack = [start]
        while stack:
            k = stack.pop()
            for i in range(1, d.n + 1):
                for nb in (g.f[i].get(k), g.e[i].get(k)):
                    if nb is not None and nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        assert len(seen) == len(g) - 1


def test_weights_sit_under_theta():
    for d, g in _graphs():
        th = theta(d)
        top = [b for b in g.elements if g.weight_of(b) == g.weight_of(XRoot(th))]
        assert top == [XRoot(th)]
        for b in g.elements:
            diff = tuple(map(sub, th, g.root_weight(b)))
            assert min(diff) >= 0
            if d.d0 == 1:
                assert all(t % 2 == 0 for t in diff)


def test_eps_level_at_least_one():
    for d, g in _graphs():
        for b in g.elements:
            assert sum(map(mul, d.comarks, g.eps_vec(b))) >= 1


def test_exports_deterministic():
    d = build_datum("C2-1")
    a = build_crystal(d)
    b = build_crystal(d)
    assert a.to_dot() == b.to_dot()
    assert a.to_json() == b.to_json()
    assert 'style=dashed' in a.to_dot()
    assert '"y_1"' in a.to_dot()
    assert '"empty"' in a.to_dot()


def test_canonical_element_order():
    g = build_crystal(build_datum("A2-1"))
    labels = [b.label() for b in g.elements]
    assert labels == [
        "x[0,1]", "x[1,0]", "x[1,1]", "y_1", "y_2",
        "x[0,-1]", "x[-1,0]", "x[-1,-1]", "empty",
    ]


def test_arrow_cycle_inside_one_index_rejected():
    # boxes 1 -> 2 -> 3 -> 1 under index 1: every 1-string would be endless;
    # box 4 hangs off box 3 under index 2, off the cycle
    from affine_crystals.algebra import Box
    from affine_crystals.crystal import CrystalGraph

    boxes = [Box(1), Box(2), Box(3), Box(4)]
    arrows = [(1, 0, 1), (1, 1, 2), (1, 2, 0), (2, 2, 3)]
    with pytest.raises(ValueError, match=r"^1-arrows form a cycle through [123]$"):
        CrystalGraph(boxes, arrows, 3)
    # a cycle that mixes indices is not an i-string and is accepted
    mixed = [(1, 0, 1), (2, 1, 2), (1, 2, 0)]
    g = CrystalGraph(boxes, mixed, 3)
    assert g.string_stats(boxes[1], 1) == (2, 0)


def test_parallel_arrows_rejected_by_label():
    # two 1-arrows out of box 1, then two 2-arrows into box 3: the message
    # names the source by its label, the same text on every run
    from affine_crystals.algebra import Box

    boxes = [Box(1), Box(2), Box(3)]
    out_twice = [(1, 0, 1), (1, 0, 2)]
    with pytest.raises(ValueError, match=r"^parallel 1-arrows at 1$"):
        CrystalGraph(boxes, out_twice, 3)
    in_twice = [(2, 0, 2), (2, 1, 2)]
    with pytest.raises(ValueError, match=r"^parallel 2-arrows at 2$"):
        CrystalGraph(boxes, in_twice, 3)
    d = build_datum("A2-1")
    x = XRoot(theta(d))
    with pytest.raises(ValueError, match=r"^parallel 0-arrows at x\[1,1\]$"):
        CrystalGraph([x, EMPTY, YElement(1)], [(0, 0, 1), (0, 0, 2)], 3)


@pytest.mark.parametrize(
    "arrow, message",
    [
        ((1, 0, 3), r"^1-arrow 0 -> 3 has an end outside the 3 elements$"),
        ((2, 3, 0), r"^2-arrow 3 -> 0 has an end outside the 3 elements$"),
        # a negative index would otherwise count from the end of the list
        ((1, -1, 0), r"^1-arrow -1 -> 0 has an end outside the 3 elements$"),
        ((0, 1, -3), r"^0-arrow 1 -> -3 has an end outside the 3 elements$"),
    ],
)
def test_arrow_index_out_of_range_rejected(arrow, message):
    from affine_crystals.algebra import Box

    boxes = [Box(1), Box(2), Box(3)]
    with pytest.raises(ValueError, match=message):
        CrystalGraph(boxes, [(1, 0, 1), arrow], 3)
    # checked before the parallel-arrow test names a source by its label
    with pytest.raises(ValueError, match=message):
        CrystalGraph(boxes, [arrow, arrow], 3)


def test_duplicate_elements_rejected():
    from affine_crystals.algebra import Box

    with pytest.raises(ValueError, match=r"^duplicate crystal elements$"):
        CrystalGraph([Box(1), Box(2), Box(1)], [], 3)
    # equal by value, not by identity: two separately built x_theta
    d = build_datum("A2-1")
    with pytest.raises(ValueError, match=r"^duplicate crystal elements$"):
        CrystalGraph([XRoot(theta(d)), XRoot(theta(d))], [], 3)


def _reference_arrows(d):
    """The arrows of B read off the definition with root arithmetic on the
    doubled coordinates: a -> a - alpha_i (i >= 1) between weights, y_i
    between alpha_i and -alpha_i, a -> a + theta (index 0) off +-theta,
    and the two empty arrows."""
    lam_plus, has_y, _ = lambda_weights(d)
    lam = set(lam_plus) | {tuple(map(neg, r)) for r in lam_plus}
    th = theta(d)
    low = tuple(map(neg, th))
    out = set()
    for i in range(1, d.n + 1):
        alpha_i = simple_root(i, d.n)
        steps = {a: tuple(map(sub, a, alpha_i)) for a in lam}
        out |= {(i, XRoot(a), XRoot(b)) for a, b in steps.items() if b in lam}
        if i in has_y:
            out.add((i, XRoot(alpha_i), YElement(i)))
            out.add((i, YElement(i), XRoot(tuple(map(neg, alpha_i)))))
    ups = {a: tuple(map(add, a, th)) for a in lam if a not in (th, low)}
    out |= {(0, XRoot(a), XRoot(b)) for a, b in ups.items() if b in lam}
    out.add((0, XRoot(low), EMPTY))
    out.add((0, EMPTY, XRoot(th)))
    return out


# the widest root keys within reach: high rank and, for the A<n>-2 chains,
# half-integral weights; build_crystal packs each key into one integer
WIDE_NAMES = ["A20-1", "B12-1", "C12-1", "D16-1", "D16-2", "A24-2", "A25-2"]


@pytest.mark.parametrize("name", SWEPT_NAMES + WIDE_NAMES)
def test_arrows_match_definition(name):
    d = build_datum(name)
    g = build_crystal(d)
    els = g.elements
    arrows = [(i, els[s], els[t]) for i, s, t in g.arrows()]
    assert len(arrows) == len(set(arrows))
    assert set(arrows) == _reference_arrows(d)


@pytest.mark.parametrize("name", SWEPT_NAMES + WIDE_NAMES)
def test_x_arrows_in_ascending_key_order(name):
    # each f[i] holds its arrows between x-elements in ascending order of
    # the source's root, ahead of those through y_i and empty
    g = build_crystal(build_datum(name))
    els = g.elements
    for f in g.f:
        x_to_x = [isinstance(els[s], XRoot) and isinstance(els[t], XRoot) for s, t in f.items()]
        run = x_to_x.count(True)
        assert x_to_x == [True] * run + [False] * (len(f) - run)
        keys = [els[s].root for s in list(f)[:run]]
        assert keys == sorted(keys)


@pytest.mark.parametrize("name", SWEPT_NAMES)
def test_weights_column_wise(name):
    g = build_crystal(build_datum(name))
    assert g.weights() == [g.weight_of(b) for b in g.elements]


def _reference_roots(d):
    """All roots by alpha-string closure, classed by a Gram matrix: an
    independent route to the output of ``finite_roots``."""
    n = d.n
    fc = d.finite_cartan()
    simple = [simple_root(i, n) for i in range(1, n + 1)]
    known = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                pair = sum(beta[k] * fc[i][k] for k in range(n)) // 2
                down = 0
                cur = tuple(map(sub, beta, simple[i]))
                while cur in known:
                    down += 1
                    cur = tuple(map(sub, cur, simple[i]))
                cand = tuple(map(add, beta, simple[i]))
                if down > pair and cand not in known:
                    known.add(cand)
                    nxt.append(cand)
        layer = nxt
    positives = sorted(known, key=lambda r: (sum(r), r))
    gram = [[d.symmetrizers[i + 1] * fc[i][j] for j in range(n)] for i in range(n)]

    def norm2(r):
        return sum(
            r[i] * r[j] * gram[i][j] for i in range(n) for j in range(n)
        )

    top = max(map(norm2, positives))
    out = []
    for r in positives:
        cls = "short" if norm2(r) < top else "long"
        out += [(r, cls), (tuple(map(neg, r)), cls)]
    return out


@pytest.mark.parametrize("name", [t.name for t in swept_types(8)] + WIDE_NAMES)
def test_finite_roots_match_reference_closure(name):
    # finite_roots lists the walk that lambda_weights filters; nothing else
    # in the package calls it
    d = build_datum(name)
    assert finite_roots(d) == _reference_roots(d)


@pytest.mark.parametrize("name", [t.name for t in swept_types(8)] + WIDE_NAMES)
def test_lambda_weights_match_definition(name):
    # lambda_plus, in the order of finite_roots: every positive root
    # (untwisted), the short ones (twisted, d0 = 1) or, for A<even>-2, the
    # long ones halved; read off the reference closure, not finite_roots
    d = build_datum(name)
    positive = _reference_roots(d)[::2]
    if d.d0 == 2:
        long = [r for r, cls in positive if cls == "long"]
        assert all(a % 2 == 0 for t in long for a in t)
        want = [tuple(a // 2 for a in t) for t in long]
    elif d.type.twist == 1:
        want = [r for r, _ in positive]
    else:
        want = [r for r, cls in positive if cls == "short"]
    plus, has_y, has_zero = lambda_weights(d)
    assert plus == tuple(want)
    assert has_y == {i for i in range(1, d.n + 1) if simple_root(i, d.n) in want}
    assert has_zero is (d.d0 == 1)


# CrystalGraph.to_json is written row by row; json.dumps(..., indent=2) of
# this dict is its oracle, byte for byte.
def _json_dict(g):
    elems = []
    for k, b in enumerate(g.elements):
        entry = {"index": k, "label": b.label()}
        if isinstance(b, XRoot):
            entry["kind"] = "x"
            entry["root"] = [[a // 2, 1] if a % 2 == 0 else [a, 2] for a in b.root]
        elif isinstance(b, YElement):
            entry["kind"] = "y"
            entry["i"] = b.index
        else:
            entry["kind"] = "empty"
        elems.append(entry)
    arrows = []
    for i in range(g.n_indices):
        for src in sorted(g.f[i]):
            arrows.append({"i": i, "from": src, "to": g.f[i][src]})
    out = {"elements": elems, "arrows": arrows}
    if g.datum is not None:
        out["type"] = g.datum.type.name
    return out


def _json_oracle(g):
    return json.dumps(_json_dict(g), indent=2) + "\n"


@pytest.mark.parametrize("name", [t.name for t in swept_types(8)])
def test_to_json_matches_json_dumps(name):
    g = build_crystal(build_datum(name))
    assert g.to_json() == _json_oracle(g)


def test_to_json_without_datum():
    # the three-box fixture has no datum, so no "type" key, and its boxes
    # are neither x nor y elements
    g = three_box_crystal()
    assert g.to_json() == _json_oracle(g)
    assert "type" not in json.loads(g.to_json())
    empty = CrystalGraph([], [], 2)
    assert empty.to_json() == _json_oracle(empty)


@dataclass(frozen=True)
class Labelled:
    key: int
    text: str

    def label(self):
        return self.text


A2 = build_crystal(build_datum("A2-1"))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_to_json_matches_json_dumps_on_random_labels(data):
    # labels with quotes, backslashes and non-ASCII text, mixed with x, y
    # and empty elements; arrows join neighbours, so no two are parallel
    # and none closes a cycle
    label = st.one_of(st.text(max_size=6), st.text('ab"\\\u00e9\u2297\n ', max_size=6))
    texts = data.draw(st.lists(label, max_size=5))
    real = data.draw(st.lists(st.sampled_from(A2.elements), unique=True, max_size=4))
    elements = [Labelled(k, t) for k, t in enumerate(texts)] + real
    n_indices = data.draw(st.integers(1, 3))
    arrows = [
        (i, k, k + 1)
        for i in range(n_indices)
        for k in data.draw(st.sets(st.integers(0, max(len(elements) - 2, 0))))
        if k + 1 < len(elements)
    ]
    datum = data.draw(st.sampled_from([None, A2.datum]))
    g = CrystalGraph(elements, arrows, n_indices, datum=datum)
    assert g.to_json() == _json_oracle(g)
