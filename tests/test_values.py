"""The immutable value types: equal by class and fields, hashed by their
fields, and read-only."""

import pytest

from affine_crystals.algebra import Box
from affine_crystals.cartan import AffineType, build_datum, parse_type
from affine_crystals.crystal import EMPTY, EmptyElement, XRoot, YElement
from affine_crystals.paths import Path
from affine_crystals.perfect import AxiomResult, PerfectReport
from affine_crystals.roots import RootVector, lambda_weights
from affine_crystals.tensor import TensorElement


def _root():
    # a fresh tuple each call, so equal values never share their fields
    return RootVector(tuple([2, 0, -1]))


# Each entry builds one value twice, from separately made fields.
BUILDERS = {
    "RootVector": _root,
    "XRoot": lambda: XRoot(_root()),
    "YElement": lambda: YElement(int("2")),
    "EmptyElement": EmptyElement,
    "TensorElement": lambda: TensorElement(XRoot(_root()), YElement(1)),
    "Box": lambda: Box(int("3")),
    "Path": lambda: Path(tuple([1, 0]), (XRoot(_root()), EMPTY)),
    "AffineType": lambda: AffineType("D", 4, 3),
    "AffineDatum": lambda: build_datum("D4-3"),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_fields_make_equal_values(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", BUILDERS)
def test_fields_cannot_be_rebound(name):
    value = BUILDERS[name]()
    for field in type(value).__slots__:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_equal_only_within_one_class():
    r = _root()
    assert XRoot(r) == XRoot(_root()) and hash(XRoot(r)) == hash(XRoot(_root()))
    assert YElement(1) != Box(1) and Box(1) != YElement(1)
    assert XRoot(r) != r and r != r.twice
    assert YElement(1) != 1 and EMPTY != ()
    pair = TensorElement(XRoot(r), YElement(1))
    assert pair != (XRoot(r), YElement(1)) and (XRoot(r), YElement(1)) != pair
    path = Path((1, 0), (XRoot(r),))
    assert path != ((1, 0), (XRoot(r),))
    assert AffineType("A", 2, 1) != "A2-1"
    # values differing in one field differ
    assert TensorElement(XRoot(r), YElement(1)) != TensorElement(XRoot(r), YElement(2))
    assert Path((1, 0), ()) != Path((0, 1), ())


def test_datum_equal_across_spellings_shares_the_cache():
    a, b = build_datum("A2-1"), build_datum("a2-1")
    assert a is not b and a == b and hash(a) == hash(b)
    assert parse_type(" a2-1 ") == a.type
    lambda_weights(a)
    hits = lambda_weights.cache_info().hits
    assert lambda_weights(b) is lambda_weights(a)
    assert lambda_weights.cache_info().hits == hits + 2


def test_report_fields_are_per_instance():
    # each report starts with its own empty axioms and minimal elements
    a, b = PerfectReport("A1-1"), PerfectReport("A2-1")
    a.axioms["x"] = AxiomResult(True)
    a.minimal_elements["Lambda_0"] = {}
    assert b.axioms == {} and b.minimal_elements == {}
    assert AxiomResult(False, "d", "w").to_json_dict() == {
        "passed": False, "detail": "d", "witness": "w"
    }
    assert AxiomResult(True).to_json_dict() == {"passed": True, "detail": ""}
