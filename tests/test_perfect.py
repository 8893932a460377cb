import json
from functools import cache
from operator import mul

import pytest

from affine_crystals import perfect
from affine_crystals.cartan import build_datum, level_one_nodes, swept_types
from affine_crystals.crystal import CrystalGraph, EMPTY, XRoot, YElement, build_crystal
from affine_crystals.perfect import minimal_elements, verify_perfect
from affine_crystals.roots import theta
from affine_crystals.tensor import classical_heads
from test_crystal import WIDE_NAMES

SWEEP = [t.name for t in swept_types(8)] + WIDE_NAMES


@cache
def _crystal(name):
    return build_crystal(build_datum(name))


def test_a2_report():
    rep = verify_perfect(build_crystal(build_datum("A2-1")))
    assert rep["passed"]
    assert rep["minimal_elements"]["Lambda_0"] == {"b_upper": "empty", "b_lower": "empty"}
    assert rep["minimal_elements"]["Lambda_1"] == {"b_upper": "y_1", "b_lower": "y_1"}
    assert rep["minimal_elements"]["Lambda_2"] == {"b_upper": "y_2", "b_lower": "y_2"}


def test_d43_report():
    rep = verify_perfect(build_crystal(build_datum("D4-3")))
    assert rep["passed"]
    assert list(rep["minimal_elements"]) == ["Lambda_0"]


@pytest.mark.parametrize("ty", [t.name for t in swept_types(4, with_exceptional=False)])
def test_small_sweep(ty):
    assert verify_perfect(build_crystal(build_datum(ty)))["passed"]


def test_minimal_elements_values():
    table = minimal_elements(build_crystal(build_datum("C2-1")))
    assert table[0] == (EMPTY, EMPTY)
    assert table[1] == (YElement(1), YElement(1))
    assert table[2] == (YElement(2), YElement(2))
    table4 = minimal_elements(build_crystal(build_datum("A4-2")))
    assert list(table4) == [0]


def test_corrupted_graph_fails_with_witness():
    d = build_datum("A2-1")
    g = build_crystal(d)
    y1 = g.index[YElement(1)]
    dropped = [(i, s, t) for i, s, t in g.arrows() if not (i == 1 and s == y1)]
    broken = CrystalGraph(g.elements, dropped, g.n_indices, datum=d)
    rep = verify_perfect(broken)
    assert not rep["passed"]
    failing = [k for k, v in rep["axioms"].items() if not v["passed"]]
    assert failing
    assert any(rep["axioms"][k].get("witness") or rep["axioms"][k]["detail"] for k in failing)
    # the whole report, witness and details included, as first recorded
    assert rep == CORRUPTED_A2_REPORT


CORRUPTED_A2_REPORT = {
    "type": "A2-1",
    "level": 1,
    "passed": False,
    "axioms": {
        "module_asserted": {
            "passed": True,
            "detail": "underlying module asserted by the uniform construction, "
            "not machine-verified",
        },
        "tensor_square_connected": {
            "passed": True,
            "detail": "B(x)B has 1 component(s) over 81 pairs",
        },
        "weight_cone": {"passed": True, "detail": "lambda_0 = theta, |B_lambda0| = 1"},
        "eps_level_bound": {
            "passed": False,
            "detail": "min <c, eps(b)> = 0",
            "witness": "x[-1,0]",
        },
        "minimal_elements": {"passed": True, "detail": "3 level-1 dominant weight(s)"},
    },
    "minimal_elements": {
        "Lambda_0": {"b_upper": "empty", "b_lower": "empty"},
        "Lambda_1": {"b_upper": "y_1", "b_lower": "x[1,0]"},
        "Lambda_2": {"b_upper": "y_2", "b_lower": "y_2"},
    },
}


def test_minimal_elements_rejects_two_preimages():
    # 0-arrows a -> b and c -> d give eps = Lambda_0 to b and d; the
    # 1-arrow c -> e leaves a the only element with phi = Lambda_0
    from affine_crystals.algebra import Box

    a, b, c, d, e = map(Box, range(1, 6))
    arrows = [(0, 0, 1), (0, 2, 3), (1, 2, 4)]
    g = CrystalGraph([a, b, c, d, e], arrows, 2, datum=build_datum("A1-1"))
    assert [g.eps_vec(x) for x in g.elements] == [
        (0, 0), (1, 0), (0, 0), (1, 0), (0, 1)
    ]
    with pytest.raises(
        ValueError, match=r"^Lambda_0: 2 eps-preimages, 1 phi-preimages$"
    ):
        minimal_elements(g)


@pytest.mark.parametrize("ty", SWEEP)
def test_minimal_elements_match_definition(ty):
    # for each level-1 node i, the unique b with eps(b) the unit vector at i
    # and the unique b with phi(b) that vector, found by a scan of B; as
    # the README states, they are empty at Lambda_0 and y_i elsewhere
    g = _crystal(ty)
    expected = {}
    for i in level_one_nodes(g.datum):
        unit = tuple(int(j == i) for j in range(g.n_indices))
        up = [b for b in g.elements if g.eps_vec(b) == unit]
        down = [b for b in g.elements if g.phi_vec(b) == unit]
        assert up == down == [YElement(i) if i else EMPTY], (ty, i)
        expected[i] = (up[0], down[0])
    assert minimal_elements(g) == expected


def test_level_filter_weighs_comarks():
    # over D4-1's datum (comarks 1, 1, 2, 1, 1): b ends a 0-arrow and a
    # 2-arrow, so eps_0(b) = eps_2(b) = 1 and <c, eps(b)> = 3; it is no
    # candidate for Lambda_0, which box e alone is; a and d both have
    # phi = Lambda_0
    from affine_crystals.algebra import Box

    a, b, c, d, e = map(Box, range(1, 6))
    arrows = [(0, 0, 1), (2, 2, 1), (0, 3, 4)]
    g = CrystalGraph([a, b, c, d, e], arrows, 5, datum=build_datum("D4-1"))
    assert g.eps_vec(b) == (1, 0, 1, 0, 0)
    assert perfect._levels(g, g.e, g._eps) == [0, 3, 0, 0, 1]
    with pytest.raises(ValueError, match=r"^Lambda_0: 1 eps-preimages, 2 phi-preimages$"):
        minimal_elements(g)


def test_level_bound_weighs_comarks():
    # over D4-1's datum: eps(p) = Lambda_0 + Lambda_1 and eps(q) = Lambda_2,
    # both of level 2 with c_2 = 2, though q's entries sum to 1
    from affine_crystals.algebra import Box

    p, q = Box(1), Box(2)
    g = CrystalGraph([p, q], [(0, 1, 0), (1, 1, 0), (2, 0, 1)], 5, datum=build_datum("D4-1"))
    assert (g.eps_vec(p), g.eps_vec(q)) == ((1, 1, 0, 0, 0), (0, 0, 1, 0, 0))
    bound = verify_perfect(g)["axioms"]["eps_level_bound"]
    assert bound == {"passed": True, "detail": "min <c, eps(b)> = 2"}


@pytest.mark.parametrize("ty", SWEEP)
def test_kahn_pass_yields_classical_heads(ty):
    g = _crystal(ty)
    assert perfect._acyclic(g) == classical_heads(g)


@pytest.mark.parametrize(
    "twice, label",
    [
        (((4, 4),), "x[2,2]"),
        (((0, 4),), "x[0,2]"),
        # under theta but off the root lattice: only the parity check fails
        (((1, 0),), "x[1/2,0]"),
        # two elements leave the cone: the first in element order is named
        (((1, 0), (4, 4)), "x[1/2,0]"),
        (((4, 4), (1, 0)), "x[2,2]"),
    ],
)
def test_weight_cone_witness(twice, label):
    # extra elements whose weight is not under theta, or off the root
    # lattice (d0 = 1), leave the cone; the report names the first
    d = build_datum("A2-1")
    g = build_crystal(d)
    extra = tuple(map(XRoot, twice))
    wide = CrystalGraph(g.elements + extra, g.arrows(), g.n_indices, datum=d)
    cone = verify_perfect(wide)["axioms"]["weight_cone"]
    assert not cone["passed"]
    assert cone["witness"] == label


def test_weight_cone_counts_top_weight_elements():
    # box 1 gets the weight of x_theta, -2 Lambda_0 + Lambda_1 + Lambda_2:
    # a 0-string of length 2 into it and a 1- and a 2-arrow out of it
    from affine_crystals.algebra import Box

    d = build_datum("A2-1")
    g = build_crystal(d)
    boxes = tuple(map(Box, range(1, 6)))
    top, p, q, r, s = range(len(g), len(g) + 5)
    arrows = g.arrows() + [(1, top, p), (2, top, q), (0, r, s), (0, s, top)]
    wide = CrystalGraph(g.elements + boxes, arrows, g.n_indices, datum=d)
    assert wide.weight_of(boxes[0]) == wide.weight_of(XRoot(theta(d)))
    cone = verify_perfect(wide)["axioms"]["weight_cone"]
    assert (cone["passed"], cone["detail"], cone["witness"]) == (
        False, "lambda_0 = theta, |B_lambda0| = 2", "2 top-weight elements"
    )


def test_weight_cone_compares_every_coordinate():
    # box 1 differs from x_theta's weight, -2 Lambda_0 + Lambda_1 + Lambda_3,
    # only at coordinate 2, where that weight is 0: it is not counted
    from affine_crystals.algebra import Box

    d = build_datum("A3-1")
    g = build_crystal(d)
    boxes = tuple(map(Box, range(1, 7)))
    top, p, q, u, r, s = range(len(g), len(g) + 6)
    arrows = g.arrows() + [(1, top, p), (2, top, q), (3, top, u), (0, r, s), (0, s, top)]
    wide = CrystalGraph(g.elements + boxes, arrows, g.n_indices, datum=d)
    assert wide.weight_of(XRoot(theta(d))) == (-2, 1, 0, 1)
    assert wide.weight_of(boxes[0]) == (-2, 1, 1, 1)
    cone = verify_perfect(wide)["axioms"]["weight_cone"]
    assert cone == {"passed": True, "detail": "lambda_0 = theta, |B_lambda0| = 1"}


def test_weight_cone_without_x_theta():
    # a graph with no x_theta has no top-weight element: the axiom fails
    # instead of the lookup of x_theta
    from affine_crystals.algebra import Box

    a, b = Box(1), Box(2)
    g = CrystalGraph([a, b], [(1, 0, 1)], 2, datum=build_datum("A1-1"))
    rep = verify_perfect(g)
    assert rep["axioms"]["weight_cone"] == {
        "passed": False,
        "detail": "lambda_0 = theta, |B_lambda0| = 0",
        "witness": "0 top-weight elements",
    }
    assert not rep["passed"]


@pytest.mark.parametrize("ty", [t.name for t in swept_types(8)] + WIDE_NAMES)
def test_connectivity_certificate_closes(ty, monkeypatch):
    # the head certificate proves every family's square connected, so the
    # exact labelling of the whole square is never reached, at width too
    def refuse(graph):
        raise AssertionError("verify_perfect labelled the whole square")

    monkeypatch.setattr(perfect, "TensorCrystal", refuse)
    g = build_crystal(build_datum(ty))
    rep = verify_perfect(g)
    assert rep["passed"]
    m = len(g)
    assert rep["axioms"]["tensor_square_connected"]["detail"] == (
        f"B(x)B has 1 component(s) over {m * m} pairs"
    )


def test_report_json_round_trips():
    rep = verify_perfect(build_crystal(build_datum("A4-2")))
    data = json.loads(json.dumps(rep))
    assert data == rep
    assert data["type"] == "A4-2"
    assert data["passed"] is True
    assert set(data["axioms"]) == {
        "module_asserted",
        "tensor_square_connected",
        "weight_cone",
        "eps_level_bound",
        "minimal_elements",
    }


def test_level_one_statistics_are_bijections():
    from affine_crystals.cartan import level_one_nodes

    for ty in swept_types(4, with_exceptional=False):
        d = build_datum(ty)
        g = build_crystal(d)
        dominants = {
            tuple(int(j == i) for j in range(d.n + 1)) for i in level_one_nodes(d)
        }
        ups = [b for b in g.elements if sum(map(mul, d.comarks, g.eps_vec(b))) == 1]
        downs = [b for b in g.elements if sum(map(mul, d.comarks, g.phi_vec(b))) == 1]
        assert {g.eps_vec(b) for b in ups} == dominants
        assert len({g.eps_vec(b) for b in ups}) == len(ups)
        assert {g.phi_vec(b) for b in downs} == dominants
        assert len({g.phi_vec(b) for b in downs}) == len(downs)
