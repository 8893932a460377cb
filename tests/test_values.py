"""The immutable value types: equal by class and fields, hashed by their
fields, and read-only."""

import pytest

from affine_crystals.algebra import Box
from affine_crystals.cartan import AffineType, build_datum, parse_type
from affine_crystals.crystal import EMPTY, EmptyElement, XRoot, YElement, build_crystal
from affine_crystals.paths import Path
from affine_crystals.perfect import verify_perfect
from affine_crystals.roots import lambda_weights


def _root():
    # a root is its doubled coordinates; a fresh tuple each call, so equal
    # values never share their fields
    return tuple([2, 0, -1])


# Each entry builds one value twice, from separately made fields.
BUILDERS = {
    "XRoot": lambda: XRoot(_root()),
    "YElement": lambda: YElement(int("2")),
    "EmptyElement": EmptyElement,
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


@pytest.mark.parametrize("name", ["EmptyElement", "Box", "Path"])
def test_inherited_hash_is_the_fields_tuple(name):
    value = BUILDERS[name]()
    assert hash(value) == hash(tuple(getattr(value, k) for k in type(value).__slots__))


def test_equal_only_within_one_class():
    r = _root()
    assert XRoot(r) == XRoot(_root()) and hash(XRoot(r)) == hash(XRoot(_root()))
    assert YElement(1) != Box(1) and Box(1) != YElement(1)
    assert XRoot(r) != r
    assert YElement(1) != 1 and EMPTY != ()
    path = Path((1, 0), (XRoot(r),))
    assert path != ((1, 0), (XRoot(r),))
    assert AffineType("A", 2, 1) != "A2-1"
    # values differing in one field differ
    assert Path((1, 0), ()) != Path((0, 1), ())
    assert Path((1, 0), (XRoot(r),)) != Path((1, 0), (YElement(1),))


def test_datum_equal_across_spellings_shares_the_cache():
    a, b = build_datum("A2-1"), build_datum("a2-1")
    assert a is not b and a == b and hash(a) == hash(b)
    assert parse_type(" a2-1 ") == a.type
    lambda_weights(a)
    hits = lambda_weights.cache_info().hits
    assert lambda_weights(b) is lambda_weights(a)
    assert lambda_weights.cache_info().hits == hits + 2


def test_report_fields_are_per_instance():
    # each report is a fresh dict, down to its axioms and minimal elements
    g = build_crystal(build_datum("A1-1"))
    a, b = verify_perfect(g), verify_perfect(g)
    assert a == b and a is not b
    a["axioms"]["x"] = {"passed": True, "detail": ""}
    a["axioms"]["module_asserted"]["detail"] = "changed"
    a["minimal_elements"]["Lambda_0"] = {}
    assert b == verify_perfect(g)
    # a passed axiom carries no witness key
    assert b["axioms"]["module_asserted"] == {
        "passed": True,
        "detail": "underlying module asserted by the uniform construction, not machine-verified",
    }
