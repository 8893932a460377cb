
import json
import time
from types import SimpleNamespace

import pytest

from affine_crystals.cartan import build_datum, swept_types
from affine_crystals.crystal import build_crystal
from affine_crystals.roots import finite_roots, lambda_weights, root_label, theta

from conftest import simple_root


def test_root_counts_and_lengths():
    # root counts against hand-enumerable systems
    cases = {
        "A2-1": (6, 0),  # simply-laced: every root classed long
        "G2-1": (12, 6),
        "C2-1": (8, 4),
        "B3-1": (18, 6),
        "D4-3": (12, 6),
        "F4-1": (48, 24),
    }
    for name, (total, short) in cases.items():
        roots = finite_roots(build_datum(name))
        assert len(roots) == total
        assert sum(1 for _, cls in roots if cls == "short") == short


def test_roots_closed_under_negation():
    for name in ["A3-1", "C3-1", "B4-1", "D4-1", "E6-1", "E6-2"]:
        roots = {r for r, _ in finite_roots(build_datum(name))}
        assert roots == {tuple(-a for a in r) for r in roots}


def test_e8_root_count():
    assert len(finite_roots(build_datum("E8-1"))) == 240


@pytest.mark.parametrize(
    "t", [t for t in swept_types(8) if t.twist == 1], ids=lambda t: t.name
)
def test_root_count_is_rank_times_coxeter_number(t):
    # |Phi| = n h, and for an untwisted family h is the sum of the marks
    d = build_datum(t)
    assert len(finite_roots(d)) == d.n * sum(d.marks)


@pytest.mark.parametrize("t", swept_types(8), ids=lambda t: t.name)
def test_root_strings_are_unbroken(t):
    # for beta != +-alpha_i the alpha_i-string through beta is
    # beta - r alpha_i, ..., beta + q alpha_i with no gap and
    # r - q = <beta, h_i> (Humphreys, 9.4)
    d = build_datum(t)
    roots = [r for r, _ in finite_roots(d)]
    for i in range(1, d.n + 1):
        # the roots on one alpha_i-line agree off coordinate i
        lines = {}
        for r in roots:
            lines.setdefault(r[: i - 1] + r[i:], []).append(r)
        alpha = simple_root(i, d.n)
        for beta in roots:
            if beta in (alpha, tuple(-a for a in alpha)):
                continue
            line = lines[beta[: i - 1] + beta[i:]]
            steps = sorted((gamma[i - 1] - beta[i - 1]) // 2 for gamma in line)
            assert steps == list(range(steps[0], steps[-1] + 1))
            pairing = sum(b * a for b, a in zip(beta, d.cartan[i][1:]))
            assert -2 * (steps[0] + steps[-1]) == pairing


# alpha_i + ... + alpha_{n-1} + alpha_n / 2 for i = n, ..., 1, doubled
HALF_WEIGHTS = {
    "A2-2": ((1,),),
    "A4-2": ((0, 1), (2, 1)),
    "A6-2": ((0, 0, 1), (0, 2, 1), (2, 2, 1)),
    "A8-2": ((0, 0, 0, 1), (0, 0, 2, 1), (0, 2, 2, 1), (2, 2, 2, 1)),
}


@pytest.mark.parametrize("name", HALF_WEIGHTS)
def test_half_weights_closed_form(name):
    plus, has_y, has_zero = lambda_weights(build_datum(name))
    assert plus == HALF_WEIGHTS[name]
    assert has_y == frozenset() and not has_zero


def test_lambda_weights_examples():
    plus, has_y, has_zero = lambda_weights(build_datum("A2-1"))
    assert len(plus) == 3 and has_y == frozenset({1, 2}) and has_zero
    plus, has_y, has_zero = lambda_weights(build_datum("D4-3"))
    assert len(plus) == 3 and has_y == frozenset({1})
    plus, has_y, has_zero = lambda_weights(build_datum("A4-2"))
    assert len(plus) == 2 and has_y == frozenset() and not has_zero
    # explicit half-coefficient form for the A_{2n}^(2) weights
    assert set(plus) == {(2, 1), (0, 1)}


def test_lambda_weights_cached_and_immutable():
    # one computation per datum, shared by every caller, so no part of it
    # may be mutable
    first = lambda_weights(build_datum("E6-1"))
    assert lambda_weights(build_datum("E6-1")) is first
    plus, has_y, _ = first
    assert isinstance(plus, tuple) and isinstance(has_y, frozenset)


def test_theta_is_extremal():
    for t in swept_types(5):
        d = build_datum(t)
        th = theta(d)
        plus, _, _ = lambda_weights(d)
        assert th in plus
        for gamma in plus:
            assert all(a >= b for a, b in zip(th, gamma))


def test_theta_matches_highest_short_root():
    # twisted families other than the half-weight one: highest short root
    for name in ["A5-2", "D3-2", "D4-2", "E6-2", "D4-3"]:
        d = build_datum(name)
        shorts = [r for r, cls in finite_roots(d) if cls == "short" and min(r) >= 0]
        top = max(shorts, key=sum)
        assert theta(d) == top
        for s in shorts:
            assert all(a >= b for a, b in zip(top, s))


def test_json_coefficients():
    # a root is written as [numerator, denominator] pairs, and labelled
    # with its halves
    assert root_label((2, 1, -1, -4)) == "[1,1/2,-1/2,-2]"
    g = build_crystal(build_datum("A4-2"))
    roots = {e["label"]: e.get("root") for e in json.loads(g.to_json())["elements"]}
    assert roots["x[1,1/2]"] == [[1, 1], [1, 2]]
    assert roots["x[0,-1/2]"] == [[0, 1], [-1, 2]]


def test_root_walk_is_bounded():
    # a hyperbolic rank-2 matrix has infinitely many real roots; the walk
    # stops past max(n^2, 120) of them instead of running without end
    d = SimpleNamespace(n=2, symmetrizers=(1, 1, 1), finite_cartan=lambda: ((2, -3), (-3, 2)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than 120 positive roots"):
        finite_roots(d)
    assert time.perf_counter() - start < 1
