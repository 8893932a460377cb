import math
import sys
from fractions import Fraction

import pytest

from affine_crystals.cartan import (
    MAX_RANK,
    AffineType,
    build_datum,
    level_one_nodes,
    parse_type,
    swept_types,
)


SWEEP = [t.name for t in swept_types(5)]


def test_sweep_covers_all_families():
    # every family letter/twist combination appears at some rank <= 5
    kinds = {(t.split("-")[0][0], t.split("-")[1]) for t in SWEEP}
    assert ("A", "1") in kinds and ("A", "2") in kinds
    assert ("B", "1") in kinds and ("C", "1") in kinds and ("D", "1") in kinds
    assert ("E", "1") in kinds and ("E", "2") in kinds
    assert ("F", "1") in kinds and ("G", "1") in kinds
    assert ("D", "2") in kinds and ("D", "3") in kinds


@pytest.mark.parametrize("name", SWEEP)
def test_structure_identities(name):
    d = build_datum(name)
    size = d.n + 1
    for i in range(size):
        assert d.cartan[i][i] == 2
        for j in range(size):
            if i != j:
                assert d.cartan[i][j] <= 0
                assert (d.cartan[i][j] == 0) == (d.cartan[j][i] == 0)
            assert (
                d.symmetrizers[i] * d.cartan[i][j]
                == d.symmetrizers[j] * d.cartan[j][i]
            )
        assert sum(d.cartan[i][j] * d.marks[j] for j in range(size)) == 0
        assert sum(d.comarks[j] * d.cartan[j][i] for j in range(size)) == 0
    assert d.comarks[0] == 1
    want_d0 = 2 if name.startswith("A") and name.endswith("-2") and int(name[1:-2]) % 2 == 0 else 1
    assert d.marks[0] == want_d0


def test_finite_types_match_table():
    expect = {
        "A3-1": "A3",
        "B4-1": "B4",
        "C3-1": "C3",
        "D5-1": "D5",
        "E7-1": "E7",
        "F4-1": "F4",
        "G2-1": "G2",
        "A4-2": "C2",
        "A5-2": "C3",
        "D5-2": "B4",
        "E6-2": "F4t",
        "D4-3": "G2",
    }
    for name, fin in expect.items():
        assert build_datum(name).finite_type == fin


def test_central_element_examples():
    assert build_datum("A2-1").comarks == (1, 1, 1)
    assert build_datum("D4-3").comarks == (1, 2, 3)
    d = build_datum("A4-2")
    assert d.marks[0] == 2
    assert d.comarks == (1, 2, 2)


def test_level_one_nodes():
    assert level_one_nodes(build_datum("A2-1")) == [0, 1, 2]
    assert level_one_nodes(build_datum("D4-3")) == [0]
    assert level_one_nodes(build_datum("C2-1")) == [0, 1, 2]
    assert level_one_nodes(build_datum("E8-1")) == [0]
    assert level_one_nodes(build_datum("B4-1")) == [0, 1, 4]
    assert level_one_nodes(build_datum("D5-2")) == [0, 4]


def test_parse_round_trip_and_case():
    assert parse_type("a2-1") == AffineType("A", 2, 1)
    assert parse_type(" D4-3 ").name == "D4-3"
    assert parse_type("e6-2").name == "E6-2"


@pytest.mark.parametrize(
    "bad", ["Z9-9", "B2-1", "A3-2", "A1-2", "D3-3", "E9-1", "A0-1", "D2-2", "G3-1", "x", "A2"]
)
def test_invalid_types_rejected(bad):
    with pytest.raises(ValueError):
        build_datum(bad)


def test_rejection_message_names_rank_and_family():
    with pytest.raises(ValueError, match="rank 2.*B"):
        parse_type("B2-1")
    with pytest.raises(ValueError, match=r"^unknown affine family B3-2$"):
        AffineType("B", 3, 2)
    with pytest.raises(ValueError, match=r"^rank 3 is out of range for family A\^\(2\)$"):
        AffineType("A", 3, 2)
    with pytest.raises(ValueError, match=r"^rank 9 is out of range for family E\^\(1\)$"):
        AffineType("E", 9, 1)
    with pytest.raises(ValueError, match=r"^unknown affine family Z5-1$"):
        AffineType("Z", 5, 1)
    with pytest.raises(ValueError, match=r"^unknown affine family A2-4$"):
        AffineType("A", 2, 4)
    with pytest.raises(ValueError, match=r"^rank 0 is out of range for family A\^\(1\)$"):
        AffineType("A", 0, 1)
    with pytest.raises(ValueError, match=rf"^rank {sys.maxsize} is out of range for family A"):
        AffineType("A", sys.maxsize, 1)


def test_unbounded_chains_stop_at_the_cap():
    # each unbounded row takes every rank parameter up to MAX_RANK: 100 of
    # A^(1), 98 of B^(1), 99 of C^(1), 97 of D^(1), 50 + 48 of A^(2) (even
    # from 2, odd from 5), 98 of D^(2), and the 7 fixed families
    assert MAX_RANK == 100
    names = [t.name for t in swept_types(MAX_RANK)]
    assert len(names) == len(set(names)) == 100 + 98 + 99 + 97 + 50 + 48 + 98 + 7
    assert swept_types(MAX_RANK + 50) == swept_types(MAX_RANK)
    for family, twist in [("A", 1), ("B", 1), ("C", 1), ("D", 1), ("A", 2), ("D", 2)]:
        assert f"{family}{MAX_RANK}-{twist}" in names
        with pytest.raises(
            ValueError,
            match=rf"^rank {MAX_RANK + 1} is out of range for family {family}\^\({twist}\) "
            rf"\(ranks above {MAX_RANK} are not built\)$",
        ):
            AffineType(family, MAX_RANK + 1, twist)
    assert "A99-2" in names
    # any rank above the cap names it, on a fixed family too
    with pytest.raises(ValueError, match=r"^rank 200 .* E\^\(1\) \(ranks above 100 .*\)$"):
        AffineType("E", 200, 1)


# The sweep order of swept_types(9, with_exceptional=False), which is the
# order `verify --all` prints in.  A lower max_rank keeps the names of rank
# parameter at most max_rank in the same order; with_exceptional then
# appends the missing names of EXCEPTIONAL_TAIL, in that order.
SWEEP_9 = (
    "A1-1 A2-1 A3-1 A4-1 A5-1 A6-1 A7-1 A8-1 A9-1 "
    "B3-1 B4-1 B5-1 B6-1 B7-1 B8-1 B9-1 "
    "C2-1 C3-1 C4-1 C5-1 C6-1 C7-1 C8-1 C9-1 "
    "D4-1 D5-1 D6-1 D7-1 D8-1 D9-1 "
    "G2-1 F4-1 "
    "A2-2 A4-2 A6-2 A8-2 A5-2 A7-2 A9-2 "
    "D3-2 D4-2 D5-2 D6-2 D7-2 D8-2 D9-2 "
    "D4-3 E6-1 E7-1 E8-1 E6-2"
).split()
EXCEPTIONAL_TAIL = ["E6-1", "E7-1", "E8-1", "F4-1", "E6-2", "D4-3"]


@pytest.mark.parametrize("max_rank", range(10))
def test_swept_types_exact_order(max_rank):
    plain = [name for name in SWEEP_9 if int(name.split("-")[0][1:]) <= max_rank]
    tail = [name for name in EXCEPTIONAL_TAIL if name not in plain]
    assert [t.name for t in swept_types(max_rank, with_exceptional=False)] == plain
    assert [t.name for t in swept_types(max_rank)] == plain + tail


def test_valid_families_exact_set():
    valid = set()
    for family in "ABCDEFG":
        for rank in range(13):
            for twist in (1, 2, 3):
                try:
                    AffineType(family, rank, twist)
                except ValueError:
                    continue
                valid.add((family, rank, twist))
    want = (
        {("A", m, 1) for m in range(1, 13)}
        | {("B", m, 1) for m in range(3, 13)}
        | {("C", m, 1) for m in range(2, 13)}
        | {("D", m, 1) for m in range(4, 13)}
        | {("E", 6, 1), ("E", 7, 1), ("E", 8, 1), ("F", 4, 1), ("G", 2, 1)}
        | {("A", m, 2) for m in (2, 4, 6, 8, 10, 12, 5, 7, 9, 11)}
        | {("D", m, 2) for m in range(3, 13)}
        | {("E", 6, 2), ("D", 4, 3)}
    )
    assert valid == want


def _reference_symmetrizers(cartan, size):
    """The Fraction walk that build_datum used before its integer
    (numerator, denominator) form: the reference for both."""
    s = [None] * size
    s[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(size):
            if j != i and cartan[i][j] != 0 and s[j] is None:
                s[j] = s[i] * cartan[i][j] / cartan[j][i]
                queue.append(j)
    scale = math.lcm(*(x.denominator for x in s))
    ints = [int(x * scale) for x in s]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


@pytest.mark.parametrize("name", [t.name for t in swept_types(14)])
def test_symmetrizers_match_fraction_reference(name):
    d = build_datum(name)
    sym = _reference_symmetrizers(d.cartan, d.n + 1)
    scaled = [s * a for s, a in zip(sym, d.marks)]
    comarks = tuple(x // math.gcd(*scaled) for x in scaled)
    assert d.symmetrizers == sym
    assert d.comarks == comarks
