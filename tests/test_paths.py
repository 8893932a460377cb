import functools
import json
import math
import random
import re
import time
from collections import Counter
from operator import mul
from types import SimpleNamespace

import pytest
from conftest import family
from hypothesis import given, settings
from hypothesis import strategies as st

from affine_crystals import paths
from affine_crystals.algebra import energy_propagate
from affine_crystals.cartan import build_datum, level_one_nodes, swept_types
from affine_crystals.crystal import EMPTY, YElement, build_crystal
from affine_crystals.paths import (
    OracleUnsupported,
    PathModel,
    character_json,
    check_lattice_node,
    ground_state,
    lattice_points_up_to,
    oracle_cells,
    oracle_multiplicity,
    partition_series,
)
from affine_crystals.perfect import minimal_elements
from affine_crystals.tensor import TensorCrystal


def _model(name, node=0):
    d = build_datum(name)
    return d, PathModel(build_crystal(d), node)


def _pair_energy(tensor):
    """The per-pair energy table that ``PathModel`` reads."""
    return tensor.per_pair(energy_propagate(tensor))


def _fundamental(d, node):
    """Lambda_node in Lambda-coordinates."""
    return tuple(int(j == node) for j in range(d.n + 1))


def _pairing(d, beta, j):
    """<h_j, beta> for a root lattice vector beta in doubled coordinates."""
    doubled = sum(map(mul, beta, d.cartan[j][1:]))
    assert doubled % 2 == 0
    return doubled // 2


def test_ground_state_fixed_points():
    g = build_crystal(build_datum("A2-1"))
    assert ground_state(g, 0) == EMPTY
    assert ground_state(g, 1) == YElement(1)
    # the homogeneous ground state exists at every level-1 weight
    for t in swept_types(8):
        ctx = family(t.name)
        g = ctx.graph
        for node in level_one_nodes(ctx.datum):
            b = ground_state(g, node)
            assert g.eps_vec(b) == g.phi_vec(b) == _fundamental(ctx.datum, node)


def test_ground_state_rejects_inhomogeneous(monkeypatch):
    # a minimal-element table whose eps- and phi-preimages differ, as in a
    # perfect crystal whose ground states are periodic
    d = build_datum("A2-1")
    g = build_crystal(d)
    table = minimal_elements(g)
    table[1] = (YElement(2), YElement(1))  # (eps-preimage, phi-preimage)
    monkeypatch.setattr(paths, "minimal_elements", lambda graph: table)
    assert ground_state(g, 0) == EMPTY
    with pytest.raises(ValueError, match="homogeneous"):
        ground_state(g, 1)


def test_path_f_first_excitation():
    d, pm = _model("A1-1")
    p = pm.f(pm.ground_path, 0)
    assert [b.label() for b in p.prefix] == ["x[1]"]
    for i in range(2):
        assert pm.e(pm.ground_path, i) is None


def test_path_inverse_pairs():
    d, pm = _model("A2-1")
    paths = pm.generate(3)
    for p in paths:
        for i in range(d.n + 1):
            q = pm.f(p, i)
            if q is not None:
                assert pm.e(q, i) == p
            r = pm.e(p, i)
            if r is not None:
                assert pm.f(r, i) == p


def test_path_stats_examples():
    d, pm = _model("A1-1")
    ground = pm.ground_path
    for i in range(2):
        assert pm.stats(ground, i)[0] == 0
    assert pm.stats(ground, 0) == (0, 1)


def test_path_stats_window_independent():
    # the one-ground-entry window gives the same statistics as any larger one
    for name, lam_i in [("A2-1", 0), ("A2-1", 1), ("C2-1", 2), ("A4-2", 0), ("D4-3", 0)]:
        d, pm = _model(name, lam_i)
        g = pm.graph
        for p in pm.generate(2):
            for i in range(d.n + 1):
                base = pm.stats(p, i)
                for extra in range(2, 5):
                    word = list(p.prefix) + [pm.ground] * (extra - 1)
                    E, P = 0, 0
                    for b in word:
                        e_b, p_b = g.string_stats(b, i)
                        E, P = e_b + max(0, E - p_b), P + max(0, p_b - E)
                    e_t, p_t = g.string_stats(pm.ground, i)
                    widened = (max(E - p_t, 0), P + max(p_t - E, 0))
                    assert widened == base


def test_stats_difference_is_weight_pairing():
    d, pm = _model("C2-1", 1)
    for p in pm.generate(2):
        coeffs, _ = pm.weight(p)
        for i in range(d.n + 1):
            eps, phi = pm.stats(p, i)
            assert phi - eps == coeffs[i]


def test_affine_weight_examples():
    d, pm = _model("A1-1")
    assert pm.lam == (1, 0)
    assert pm.weight(pm.ground_path) == ((1, 0), 0)
    p = pm.f(pm.ground_path, 0)  # prefix [x_theta]
    # Lambda_0 + alpha_1 - delta in Lambda-coordinates
    assert pm.weight(p) == ((-1, 2), -1)


def test_weight_drop_along_edges():
    rng = random.Random(99)
    for name in ["A2-1", "A2-2", "A4-2", "C2-1", "D4-3", "D3-2"]:
        d = build_datum(name)
        for node in level_one_nodes(d):
            pm = PathModel(build_crystal(d), node)
            paths = pm.generate(3)
            for p in rng.sample(paths, min(25, len(paths))):
                wp, dp = pm.weight(p)
                for i in range(d.n + 1):
                    q = pm.f(p, i)
                    if q is None:
                        continue
                    wq, dq = pm.weight(q)
                    drop = tuple(a - b for a, b in zip(wp, wq))
                    assert drop == tuple(d.cartan[j][i] for j in range(d.n + 1))
                    assert dp - dq == (1 if i == 0 else 0)


def test_raising_every_path_reaches_ground():
    d, pm = _model("C2-1")
    for p in pm.generate(2):
        cur = p
        guard = 0
        while True:
            nxt = None
            for i in range(d.n + 1):
                nxt = pm.e(cur, i)
                if nxt is not None:
                    break
            if nxt is None:
                break
            cur = nxt
            guard += 1
            assert guard < 10000
        assert cur == pm.ground_path


def test_ground_multiplicity_one():
    for name in ["A2-1", "C2-1", "D4-3", "A4-2"]:
        d, pm = _model(name)
        ch = pm.character(2)
        assert ch[(_fundamental(d, 0), 0)] == 1


def test_a1_basic_multiplicities():
    d, pm = _model("A1-1")
    ch = pm.character(5)
    assert [ch.get(((1, 0), -n), 0) for n in range(6)] == [1, 1, 2, 3, 5, 7]


def test_a2_rank_multiplicity_at_first_level():
    d, pm = _model("A2-1")
    ch = pm.character(1)
    # delta restricts to zero classically, so Lambda_0 - delta keeps the
    # Lambda_0 coordinates with degree -1; its multiplicity is the rank
    assert ch[((1, 0, 0), -1)] == 2


def _generated_character(pm, max_degree, **kwargs):
    """Weight counts over the breadth-first path set, the transfer matrix's oracle."""
    return dict(Counter(map(pm.weight, pm.generate(max_degree, **kwargs))))


def test_generation_order_independence():
    for name in ["A2-1", "C2-1", "A4-2"]:
        d, pm = _model(name)
        base = _generated_character(pm, 3)
        shuffled = _generated_character(
            pm, 3, order=list(reversed(range(d.n + 1))), lifo=True
        )
        assert base == shuffled == pm.character(3)


TRANSFER_CASES = [(t.name, 2) for t in swept_types(4)] + [("C5-1", 1), ("A7-1", 1)]


@pytest.mark.parametrize("name,max_degree", TRANSFER_CASES)
def test_transfer_matrix_matches_generation(name, max_degree):
    ctx = family(name)
    energy = _pair_energy(ctx.tensor)
    for node in level_one_nodes(ctx.datum):
        pm = PathModel(ctx.graph, node, energy=energy)
        assert pm.character(max_degree) == _generated_character(pm, max_degree)
        # the derived length is long enough: one more position adds nothing
        derived = pm.root_character(max_degree)
        pm.zero_run += 1
        assert pm.root_character(max_degree) == derived


@pytest.mark.parametrize("name", [t.name for t in swept_types(4)])
def test_transfer_matrix_length_is_enough(name):
    # L = max(max_degree + zero_run, 1) positions hold every path of degree
    # at most max_degree: one or two more add nothing
    ctx = family(name)
    energy = _pair_energy(ctx.tensor)
    for node in level_one_nodes(ctx.datum):
        pm = PathModel(ctx.graph, node, energy=energy)
        run = pm.zero_run
        for max_degree in range(4):
            derived = pm.character(max_degree), pm.root_character(max_degree)
            for extra in (1, 2):
                pm.zero_run = run + extra
                longer = pm.character(max_degree), pm.root_character(max_degree)
                assert longer == derived, (node, max_degree, extra)
            pm.zero_run = run


def test_transfer_matrix_length_is_not_more_than_enough():
    # one position fewer cuts off paths of degree 2, at every level-1 node
    for t in swept_types(5):
        ctx = family(t.name)
        energy = _pair_energy(ctx.tensor)
        for node in level_one_nodes(ctx.datum):
            pm = PathModel(ctx.graph, node, energy=energy)
            derived = pm.character(2)
            pm.zero_run -= 1
            assert pm.character(2) != derived, (t.name, node)


def test_fixed_length_misses_paths():
    # a length of max_degree + 3 cuts off paths whose zero-energy run below
    # the ground entry is longer than 2
    for name, node, run in [("C5-1", 5, 5), ("A7-1", 4, 4)]:
        d, pm = _model(name, node)
        assert pm.zero_run == run
        derived = pm.root_character(1)
        pm.zero_run = 2  # length max_degree + 3
        assert pm.root_character(1) != derived


def test_zero_energy_cycle_rejected():
    d, pm = _model("A1-1")
    m = len(pm.graph)
    top = pm.graph.index[pm.ground]
    other = pm.graph.index[pm.graph.elements[0]]
    energy = list(pm.energy)
    base = energy[top * m + top]
    # ground -> x -> ground with zero energy on both pairs
    energy[top * m + other] = energy[other * m + top] = base
    with pytest.raises(ValueError, match="zero-energy cycle"):
        PathModel(pm.graph, 0, energy=energy)


def _tampered(name):
    """A fresh B of `name` and its energy table, for a test to alter B
    before it builds a PathModel at Lambda_0."""
    graph = build_crystal(build_datum(name))
    return graph, _pair_energy(TensorCrystal(graph))


def test_set_up_names_first_weight_off_its_root():
    # two elements' string data disagree with their roots, the later one
    # at a lower node, so a scan node by node would meet it first
    graph, energy = _tampered("A2-1")
    first, later = 1, 5
    graph._phi[2][first] += 5
    graph._phi[1][later] += 5
    label = re.escape(graph.elements[first].label())
    with pytest.raises(ValueError, match=f"the weight of {label} is not the pairing"):
        PathModel(graph, 0, energy=energy)


def test_set_up_rejects_odd_doubled_pairing():
    graph, energy = _tampered("A2-1")
    odd, rooted = graph.elements[2], graph.root_weight
    graph.root_weight = lambda b: (1, 0) if b == odd else rooted(b)
    with pytest.raises(ArithmeticError, match="non-integral"):
        PathModel(graph, 0, energy=energy)


def test_negative_degree_rejected():
    d, pm = _model("A2-1")
    with pytest.raises(ValueError, match="max_degree"):
        pm.character(-1)
    with pytest.raises(ValueError, match="max_degree"):
        pm.root_character(-1)


@pytest.mark.parametrize("name,max_degree", [("A1-1", 30), ("D4-1", 8)])
def test_deep_characters_match_oracle(name, max_degree):
    d = build_datum(name)
    for node in level_one_nodes(d):
        rc = PathModel(build_crystal(d), node).root_character(max_degree)
        points = lattice_points_up_to(d, 2 * max_degree, node=node)
        for beta in points:
            for n in range(max_degree + 1):
                assert rc.get((beta, n), 0) == oracle_multiplicity(d, beta, n, node=node)
        assert {beta for beta, _ in rc} <= set(points)
        if name == "A1-1" and node == 0:
            assert rc[((0,), 30)] == 5604  # Lambda_0 - 30 delta has p(30)


def test_partition_series():
    assert partition_series(1, 6) == [1, 1, 2, 3, 5, 7, 11]
    assert partition_series(2, 4) == [1, 2, 5, 10, 20]


def test_oracle_values():
    d = build_datum("A1-1")
    assert oracle_multiplicity(d, (0,), 4) == 5
    assert oracle_multiplicity(d, (2,), 1) == 1
    assert oracle_multiplicity(d, (2,), 0) == 0


def test_oracle_unsupported():
    for name in ["C2-1", "A4-2", "D4-3", "B3-1", "E6-2"]:
        d = build_datum(name)
        with pytest.raises(OracleUnsupported):
            oracle_multiplicity(d, (0,) * d.n, 1)


def test_lattice_point_enumeration():
    d = build_datum("A1-1")
    pts = set(lattice_points_up_to(d, 8))
    # norm^2 = 2 c^2 <= 8 means c in -2..2
    assert pts == {(2 * c,) for c in range(-2, 3)}


def _norm2(fc, coeffs, node):
    """|w + beta|^2 - |w|^2 with w = omega_node, so (w, alpha_j) = [j == node]."""
    n = len(coeffs)
    raw = sum(coeffs[i] * coeffs[j] * fc[i][j] for i in range(n) for j in range(n))
    return raw + (2 * coeffs[node - 1] if node else 0)


def _box_points(d, max_norm2, node=0):
    """The former enumeration: a full coefficient box (here widened by 2
    for the shift) filtered by the norm."""
    n = d.n
    fc = d.finite_cartan()
    bound = int((max_norm2 * (n + 1)) ** 0.5) + 4
    out = []

    def rec(prefix):
        if len(prefix) == n:
            if _norm2(fc, prefix, node) <= max_norm2:
                out.append(tuple(prefix))
            return
        for v in range(-bound, bound + 1):
            rec(prefix + [v])

    rec([])
    return out


def _ellipsoid_points(d, max_norm2, node=0):
    """The same ball by Fincke-Pohst: |w + beta|^2 is a sum of squares
    q_ii (x_i + sum_{j>i} q_ij x_j)^2 of x = beta + w, each fixing a range
    for the next coordinate down; floats widened, then checked exactly."""
    n = d.n
    fc = d.finite_cartan()
    q = [[float(x) for x in row] for row in fc]
    for i in range(n):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] /= q[i][i]
        for k in range(i + 1, n):
            for m in range(k, n):
                q[k][m] -= q[k][i] * q[i][m]
    # w solves fc w = e_node, with fc = U^T diag(q_ii) U
    y = [0.0] * n
    for i in range(n):
        y[i] = (1.0 if i == node - 1 else 0.0) - sum(q[j][i] * y[j] for j in range(i))
    w = [0.0] * n
    for i in reversed(range(n)):
        w[i] = y[i] / q[i][i] - sum(q[i][j] * w[j] for j in range(i + 1, n))
    out = []
    c = [0] * n

    def rec(i, rest):
        if i < 0:
            if _norm2(fc, c, node) <= max_norm2:
                out.append(tuple(c))
            return
        center = -w[i] - sum(q[i][j] * (c[j] + w[j]) for j in range(i + 1, n))
        width = (max(rest, 0.0) / q[i][i]) ** 0.5
        for v in range(math.floor(center - width) - 1, math.ceil(center + width) + 2):
            c[i] = v
            term = q[i][i] * (v - center) ** 2
            if term <= rest + 1e-6:
                rec(i - 1, rest - term)
        c[i] = 0

    rec(n - 1, max_norm2 + (w[node - 1] if node else 0.0))
    return out


@pytest.mark.parametrize(
    "name",
    [t.name for t in swept_types(6, with_exceptional=False) if t.twist == 1 and t.family in "ADE"],
)
def test_lattice_walk_matches_enumeration(name):
    d = build_datum(name)
    for node in level_one_nodes(d):
        walk = lattice_points_up_to(d, 8, node=node)
        assert walk == sorted(walk)
        coeffs = [tuple(x // 2 for x in t) for t in walk]
        assert coeffs == sorted(_ellipsoid_points(d, 8, node))
        if d.n <= 3:
            assert coeffs == sorted(_box_points(d, 8, node))


@pytest.mark.parametrize("name,deg", [("A1-1", 5), ("A2-1", 5)])
def test_character_matches_oracle(name, deg):
    d, pm = _model(name)
    rc = pm.root_character(deg)
    for beta in lattice_points_up_to(d, 2 * deg):
        for n in range(deg + 1):
            assert rc.get((beta, n), 0) == oracle_multiplicity(d, beta, n)


def test_ground_state_rejects_non_level_one():
    d = build_datum("D5-2")
    assert d.n == 4 and d.comarks[1] == 2 and d.comarks[-1] == 1
    # node -1 would pass a check of d.comarks[i] by negative indexing; n + 1
    # is past the diagram; Lambda_1 has comark 2 for this family
    g = build_crystal(d)
    for node in (-1, d.n + 1, 1):
        with pytest.raises(ValueError, match="level-1 fundamental weight"):
            ground_state(g, node)
        with pytest.raises(ValueError, match="level-1 fundamental weight"):
            PathModel(g, node)


def test_every_entry_point_rejects_non_level_one_alike():
    # Lambda_2 of D4-1 has comark 2; the path model and the lattice oracle
    # refuse it with one message, decided by level_one_nodes
    d = build_datum("D4-1")
    assert d.comarks[2] == 2 and 2 not in level_one_nodes(d)
    g = build_crystal(d)
    message = r"^Lambda_2 is not a level-1 fundamental weight of D4-1$"
    for call in (
        lambda: ground_state(g, 2),
        lambda: PathModel(g, 2),
        lambda: check_lattice_node(d, 2),
        lambda: oracle_multiplicity(d, (0,) * d.n, 1, node=2),
        lambda: lattice_points_up_to(d, 2, node=2),
        lambda: list(oracle_cells(d, 1, node=2)),
    ):
        with pytest.raises(ValueError, match=message):
            call()


# Random walks from the ground path: a family of rank <= 4, one of its
# level-1 nodes and a short word of lowering operators f_i.
_WALK_NAMES = [t.name for t in swept_types(4)]


@functools.cache
def _walk_model(name, node):
    ctx = family(name)
    return PathModel(ctx.graph, node, energy=_pair_energy(ctx.tensor))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_lowering_words(data):
    name = data.draw(st.sampled_from(_WALK_NAMES), label="family")
    d = family(name).datum
    node = data.draw(st.sampled_from(level_one_nodes(d)), label="node")
    word = data.draw(st.lists(st.integers(0, d.n), max_size=8), label="word")
    pm = _walk_model(name, node)
    p = pm.ground_path
    for i in word:
        q = pm.f(p, i)
        if q is None:
            continue
        assert pm.e(q, i) == p
        p = q
        coeffs, _ = pm.weight(p)
        for j in range(d.n + 1):
            eps, phi = pm.stats(p, j)
            assert phi - eps == coeffs[j]


# Random paths, drawn the same way on every run: a family of rank <= 4, one
# of its level-1 nodes, and up to six steps down from the ground path, each
# by an f_i drawn among those that act.  Every path on the way is checked at
# every index: e_i undoes f_i, and phi_i - eps_i is the weight's coordinate i.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_random_paths_invert_and_pair(data):
    name = data.draw(st.sampled_from(_WALK_NAMES), label="family")
    d = family(name).datum
    node = data.draw(st.sampled_from(level_one_nodes(d)), label="node")
    steps = data.draw(st.integers(0, 6), label="steps")
    pm = _walk_model(name, node)
    p = pm.ground_path
    for step in range(steps + 1):
        coeffs, _ = pm.weight(p)
        lowered = {}
        for i in range(d.n + 1):
            q = pm.f(p, i)
            if q is not None:
                assert pm.e(q, i) == p, (step, i)
                lowered[i] = q
            eps, phi = pm.stats(p, i)
            assert phi - eps == coeffs[i], (step, i)
        if step < steps:
            p = lowered[data.draw(st.sampled_from(sorted(lowered)), label="f")]


# PathModel.character keys its counts by Lambda-coordinates in the DP
# itself; here the root-offset counts of root_character are re-keyed by
# coroot pairings, Lambda + <h_j, beta>, the conversion the set-up check pins.
@pytest.mark.parametrize("name", [t.name for t in swept_types(6)])
def test_lambda_keys_match_root_keys(name):
    ctx = family(name)
    d = ctx.datum
    energy = _pair_energy(ctx.tensor)
    for node in level_one_nodes(d):
        pm = PathModel(ctx.graph, node, energy=energy)
        lam = _fundamental(d, node)
        rekeyed = Counter()
        for (beta, degree), count in pm.root_character(2).items():
            coeffs = tuple(c + _pairing(d, beta, j) for j, c in enumerate(lam))
            rekeyed[(coeffs, -degree)] += count
        assert pm.character(2) == dict(rekeyed)


# The DP prunes on the degree bound alone, so a count under one bound must
# be the cut of a count under a larger one.
@pytest.mark.parametrize("name", [t.name for t in swept_types(4)])
def test_counts_are_truncations(name):
    ctx = family(name)
    energy = _pair_energy(ctx.tensor)
    for node in level_one_nodes(ctx.datum):
        pm = PathModel(ctx.graph, node, energy=energy)
        deep, deep_roots = pm.character(3), pm.root_character(3)
        for bound in range(3):
            cut = {key: c for key, c in deep.items() if -key[1] <= bound}
            assert pm.character(bound) == cut, (node, bound)
            cut = {key: c for key, c in deep_roots.items() if key[1] <= bound}
            assert pm.root_character(bound) == cut, (node, bound)


@pytest.mark.parametrize(
    "name,node", [("A1-1", 0), ("A2-1", 0), ("D4-1", 0), ("D4-1", 1), ("E6-1", 0)]
)
def test_one_pass_oracle_matches_cells(name, node):
    d = build_datum(name)
    cells = list(oracle_cells(d, 3, node=node))
    assert [beta for beta, _, _ in cells] == lattice_points_up_to(d, 6, node=node)
    pm = PathModel(build_crystal(d), node)
    lam_keyed, root_keyed = pm.character(3), pm.root_character(3)
    for beta, weight, wants in cells:
        assert wants == [oracle_multiplicity(d, beta, n, node=node) for n in range(4)]
        # the beta -> Lambda map sends each lattice point to the Lambda-key
        # of its root key
        for n in range(4):
            assert lam_keyed.get((weight, -n), 0) == root_keyed.get((beta, n), 0)


@pytest.mark.parametrize(
    "name",
    [t.name for t in swept_types(6, with_exceptional=False) if t.twist == 1 and t.family in "ADE"],
)
def test_lattice_walk_carries_norm(name):
    d = build_datum(name)
    fc = d.finite_cartan()
    for node in level_one_nodes(d):
        norms = paths._lattice_walk(d, 8, node)
        points = lattice_points_up_to(d, 8, node=node)
        assert sorted(norms) == [tuple(x // 2 for x in beta) for beta in points]
        for c, norm in norms.items():
            assert norm == paths._shifted_norm2(fc, c, node) <= 8


def test_lattice_walk_is_bounded():
    # an indefinite rank-2 matrix has an infinite ball; the walk stops once a
    # stored point leaves the coefficient bound instead of running without end
    d = SimpleNamespace(n=2, finite_cartan=lambda: ((2, -3), (-3, 2)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"leaves the bound c_j\^2 <= 4080$"):
        paths._lattice_walk(d, 8, 0)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "name",
    [t.name for t in swept_types(6, with_exceptional=False) if t.twist == 1 and t.family in "ADE"],
)
def test_oracle_cells_match_pairings_and_norms(name):
    d = build_datum(name)
    fc = d.finite_cartan()
    series = partition_series(d.n, 3)
    for node in level_one_nodes(d):
        lam = _fundamental(d, node)
        for beta, weight, wants in oracle_cells(d, 3, node=node):
            assert weight == tuple(c + _pairing(d, beta, j) for j, c in enumerate(lam))
            shift = paths._shifted_norm2(fc, [x // 2 for x in beta], node) // 2
            assert wants == [0] * shift + series[: 4 - shift], (node, beta)


# rows leave the DP by degree, then coordinates: the payload's row order
@pytest.mark.parametrize("name", [t.name for t in swept_types(4)])
def test_rows_leave_in_payload_order(name):
    ctx = family(name)
    energy = _pair_energy(ctx.tensor)
    for node in level_one_nodes(ctx.datum):
        pm = PathModel(ctx.graph, node, energy=energy)
        keys = list(pm.character(3))
        assert keys == sorted(keys, key=lambda key: (-key[1], key[0])), node
        keys = list(pm.root_character(3))
        assert keys == sorted(keys, key=lambda key: (key[1], key[0])), node


# The character payload is written row by row; json.dumps(..., indent=2)
# of the same data, rows sorted as the CLI always sorted them, is its
# oracle, byte for byte.
def _character_oracle(type_name, weight, counts, oracle):
    rows = [
        {"classical_weight": list(coeffs), "delta_degree": delta, "multiplicity": m}
        for (coeffs, delta), m in counts.items()
    ]
    rows.sort(key=lambda r: (-r["delta_degree"], r["classical_weight"]))
    result = {"type": type_name, "weight": weight, "rows": rows, "oracle": oracle}
    return json.dumps(result, indent=2) + "\n"


# the ops of the benchmark's characters workload, written out so that the
# module collects without the benchmark's files
CHARACTERS_OPS = [
    "character A1-1 L0 --max-degree 14 --oracle",
    "character A2-1 L0 --max-degree 8 --oracle",
    "character D4-1 L0 --max-degree 3 --oracle",
    "character D4-1 L1 --max-degree 3 --oracle",
    "character B3-1 L0 --max-degree 4",
    "character C2-1 L0 --max-degree 6",
    "character G2-1 L0 --max-degree 6",
    "character D4-3 L0 --max-degree 7",
    "character A4-2 L0 --max-degree 9",
]


@pytest.mark.parametrize("op", CHARACTERS_OPS)
def test_character_json_matches_json_dumps(op, tmp_path):
    from affine_crystals import cli

    out = tmp_path / "payload"
    cli.main(op.split() + ["--out", str(out)])
    payload = out.read_text()
    _, name, weight, _, degree = op.split()[:5]
    d = build_datum(name)
    counts = PathModel(build_crystal(d), int(weight[1:])).character(int(degree))
    oracle = json.loads(payload)["oracle"]
    assert payload == _character_oracle(name, weight, counts, oracle)
    assert character_json(name, weight, counts, oracle) == payload


_texts = st.text(max_size=6)
_oracles = st.one_of(
    st.builds(lambda r: {"supported": False, "reason": r}, _texts),
    st.just({"supported": True, "checked": False}),
    st.builds(
        lambda diffs: {"supported": True, "differences": diffs},
        st.lists(
            st.fixed_dictionaries(
                {
                    "beta": _texts,
                    "degree": st.integers(0, 9),
                    "got": st.integers(0, 99),
                    "want": st.integers(0, 99),
                }
            ),
            max_size=3,
        ),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    _texts,
    _texts,
    st.dictionaries(
        st.tuples(st.lists(st.integers(-3, 3), max_size=4).map(tuple), st.integers(-5, 0)),
        st.integers(1, 10**6),
        max_size=12,
    ),
    _oracles,
)
def test_character_json_matches_json_dumps_on_random_rows(type_name, weight, counts, oracle):
    # character_json keeps the order of counts, which PathModel.character
    # yields in payload order
    counts = dict(sorted(counts.items(), key=lambda item: (-item[0][1], item[0][0])))
    assert character_json(type_name, weight, counts, oracle) == _character_oracle(
        type_name, weight, counts, oracle
    )


def test_character_json_edge_cases():
    # no rows, an unsupported oracle with a reason, and a nonempty list of
    # differences: none of them occurs in a pinned payload
    unsupported = {"supported": False, "reason": 'no "oracle" for \u00e9 \u2297'}
    empty = character_json("X", "L0", {}, unsupported)
    assert empty == _character_oracle("X", "L0", {}, unsupported)
    diffs = {
        "supported": True,
        "differences": [{"beta": "-a1+a2", "degree": 2, "got": 3, "want": 4}],
    }
    counts = {((1, 0, 0), 0): 1, ((0, 1, 0), -1): 1, ((1, -1, 1), -1): 2}
    got = character_json("A2-1", "L0", counts, diffs)
    assert got == _character_oracle("A2-1", "L0", counts, diffs)
