"""Cartan data for the affine Lie algebra families.

One table lists the valid ranks, the finite type and the finite rank of
each of the fourteen families X_n^(r) in sweep order, and one branch per
family hard-codes its affine Dynkin diagram and marks.  Symmetrizers are
computed from the matrix and comarks from them and the marks; the nodes
of comark 1 name the level-1 fundamental weights.
"""

import math
import re
import sys
from operator import mul

from ._frozen import Frozen

# The last rank parameter of the unbounded chains.  Building B grows about
# as rank^3 in time and memory (B100-1: 0.4 s, 75 MB; A200-1: 1.6 s,
# 234 MB; README has the timings), so a larger rank is refused rather than
# built until memory runs out.
MAX_RANK = 100

# One row per affine family X_m^(r), in sweep order: (X, r, the valid rank
# parameters m, the type of the finite algebra g with {} for its rank n,
# and n as a function of m).  A_m^(2) has two rows, the even chain
# A_{2n}^(2) and the odd chain A_{2n-1}^(2) from n = 3 on.
_RANKS = [
    ("A", 1, range(1, MAX_RANK + 1), "A{}", lambda m: m),
    ("B", 1, range(3, MAX_RANK + 1), "B{}", lambda m: m),
    ("C", 1, range(2, MAX_RANK + 1), "C{}", lambda m: m),
    ("D", 1, range(4, MAX_RANK + 1), "D{}", lambda m: m),
    ("G", 1, range(2, 3), "G{}", lambda m: m),
    ("F", 1, range(4, 5), "F{}", lambda m: m),
    ("A", 2, range(2, MAX_RANK + 1, 2), "C{}", lambda m: m // 2),
    ("A", 2, range(5, MAX_RANK + 1, 2), "C{}", lambda m: (m + 1) // 2),
    ("D", 2, range(3, MAX_RANK + 1), "B{}", lambda m: m - 1),
    ("D", 3, range(4, 5), "G{}", lambda m: 2),
    ("E", 1, range(6, 9), "E{}", lambda m: m),
    ("E", 2, range(6, 7), "F{}t", lambda m: 4),
]

# The fixed high-rank families, appended by swept_types on request.
_EXCEPTIONAL = [
    ("E", 6, 1), ("E", 7, 1), ("E", 8, 1), ("F", 4, 1), ("E", 6, 2), ("D", 4, 3)
]


class AffineType(Frozen):
    """One of the fourteen affine families, written X_n^(r).  Its row of
    ``_RANKS`` gives ``finite_rank`` (the number n of non-affine nodes, the
    rank of g) and ``finite_type`` (the type of g)."""

    __slots__ = ("family", "rank_param", "twist", "name", "finite_rank", "finite_type")

    def __init__(self, family, rank_param, twist):
        name = f"{family}{rank_param}-{twist}"
        rows = [row for row in _RANKS if row[:2] == (family, twist)]
        if not rows:
            raise ValueError(f"unknown affine family {name}")
        row = next((row for row in rows if rank_param in row[2]), None)
        if row is None:
            cap = f" (ranks above {MAX_RANK} are not built)" if rank_param > MAX_RANK else ""
            raise ValueError(
                f"rank {rank_param} is out of range for family {family}^({twist}){cap}"
            )
        n = row[4](rank_param)
        super().__init__(family, rank_param, twist, name, n, row[3].format(n))

    def __eq__(self, other):
        return type(other) is AffineType and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __str__(self):
        return self.name


def parse_type(text):
    """Parse a type name like 'A2-1' or 'd4-3' (case-insensitive)."""
    s = text.strip().upper()
    m = re.fullmatch(r"([A-Z])([0-9]+)-([0-9]+)", s)
    if m is None:
        raise ValueError(f"cannot parse affine type {text!r}")
    # lengths first: int() refuses strings of 4301 digits or more, and every
    # rank and twist is below sys.maxsize
    for what, digits in (("rank", m.group(2)), ("twist", m.group(3))):
        if len(digits.lstrip("0")) > len(str(sys.maxsize)):
            raise ValueError(f"{what} of {len(digits)} digits is out of range")
    return AffineType(m.group(1), int(m.group(2)), int(m.group(3)))


class AffineDatum(Frozen):
    """Cartan matrix, marks, comarks and symmetrizers of one affine family."""

    __slots__ = (
        "type",
        "cartan",  # (n+1) x (n+1), row-major tuples
        "marks",  # d_0 .. d_n, null vector of the matrix
        "comarks",  # c_0 .. c_n, left null vector, c_0 = 1
        "symmetrizers",  # s_0 .. s_n with diag(s) . A symmetric
        "finite_type",  # type of the finite algebra g, e.g. "C2", "F4t"
    )

    def __hash__(self):
        return hash((self.type, self.cartan, self.marks, self.comarks, self.symmetrizers))

    @property
    def n(self):
        return self.type.finite_rank

    @property
    def d0(self):
        return self.marks[0]

    def finite_cartan(self):
        """The Cartan matrix of g (rows and columns 1..n)."""
        return tuple(row[1:] for row in self.cartan[1:])


def _chain_edges(nodes):
    return [(nodes[k], nodes[k + 1], -1, -1) for k in range(len(nodes) - 1)]


def _diagram(t):
    """Edge list (i, j, a_ij, a_ji) of the affine Dynkin diagram, and the
    marks d_0 .. d_n (its null vector), one branch per family.

    Node 0 is always the affine node; for E6-1 it attaches to the branch
    node 6 and for F4-1 to node 1, which the component analysis of the
    crystal algebra relies on.
    """
    f, m, r = t.family, t.rank_param, t.twist
    n = t.finite_rank
    if t.name == "A1-1":
        return [(0, 1, -2, -2)], [1, 1]
    if (f, r) == ("A", 1):
        edges = _chain_edges(range(n + 1)) + [(n, 0, -1, -1)]
        return edges, [1] * (n + 1)
    if (f, r) == ("B", 1):
        edges = (
            [(0, 2, -1, -1), (1, 2, -1, -1)]
            + _chain_edges(range(2, n))
            + [(n - 1, n, -1, -2)]
        )
        return edges, [1, 1] + [2] * (n - 1)
    if (f, r) == ("C", 1):
        edges = [(0, 1, -1, -2)] + _chain_edges(range(1, n)) + [(n - 1, n, -2, -1)]
        return edges, [1] + [2] * (n - 1) + [1]
    if (f, r) == ("D", 1):
        edges = (
            [(0, 2, -1, -1), (1, 2, -1, -1)]
            + _chain_edges(range(2, n - 1))
            + [(n - 2, n - 1, -1, -1), (n - 2, n, -1, -1)]
        )
        return edges, [1, 1] + [2] * (n - 3) + [1, 1]
    if t.name == "E6-1":
        edges = _chain_edges(range(1, 6)) + [(3, 6, -1, -1), (6, 0, -1, -1)]
        return edges, [1, 1, 2, 3, 2, 1, 2]
    if t.name == "E7-1":
        edges = _chain_edges(range(1, 7)) + [(3, 7, -1, -1), (0, 1, -1, -1)]
        return edges, [1, 2, 3, 4, 3, 2, 1, 2]
    if t.name == "E8-1":
        edges = _chain_edges(range(1, 8)) + [(3, 8, -1, -1), (7, 0, -1, -1)]
        return edges, [1, 2, 4, 6, 5, 4, 3, 2, 3]
    if t.name == "F4-1":
        edges = [(0, 1, -1, -1), (1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
        return edges, [1, 2, 3, 4, 2]
    if t.name == "G2-1":
        return [(0, 1, -1, -1), (1, 2, -1, -3)], [1, 2, 3]
    if t.name == "A2-2":
        return [(0, 1, -4, -1)], [2, 1]
    if (f, r) == ("A", 2) and m % 2 == 0:
        edges = [(0, 1, -2, -1)] + _chain_edges(range(1, n)) + [(n - 1, n, -2, -1)]
        return edges, [2] * n + [1]
    if (f, r) == ("A", 2):
        edges = (
            [(0, 2, -1, -1), (1, 2, -1, -1)]
            + _chain_edges(range(2, n))
            + [(n - 1, n, -2, -1)]
        )
        return edges, [1, 1] + [2] * (n - 2) + [1]
    if (f, r) == ("D", 2):
        edges = [(0, 1, -2, -1)] + _chain_edges(range(1, n)) + [(n - 1, n, -1, -2)]
        return edges, [1] * (n + 1)
    if t.name == "E6-2":
        edges = [(0, 1, -1, -1), (1, 2, -1, -1), (2, 3, -2, -1), (3, 4, -1, -1)]
        return edges, [1, 2, 3, 2, 1]
    return [(0, 1, -1, -1), (1, 2, -3, -1)], [1, 2, 1]  # D4-3


def _symmetrizers(cartan, size):
    """Positive integers s_i with s_i a_ij = s_j a_ji, minimal.  Each s_i
    is held as an exact (numerator, denominator) pair of integers while the
    diagram is walked from node 0."""
    s = [None] * size
    s[0] = (1, 1)
    queue = [0]
    while queue:
        i = queue.pop()
        num, den = s[i]
        for j in range(size):
            if j != i and cartan[i][j] != 0 and s[j] is None:
                s[j] = (num * cartan[i][j], den * cartan[j][i])
                queue.append(j)
    scale = math.lcm(*(den for _, den in s))
    ints = [num * scale // den for num, den in s]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def build_datum(t):
    """Construct the AffineDatum for a valid AffineType.

    All structural identities (null vectors, symmetrizability, d_0) are
    asserted on the way out, so a transcription error in the tables cannot
    survive construction.
    """
    if isinstance(t, str):
        t = parse_type(t)
    n = t.finite_rank
    size = n + 1
    a = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    edges, marks = _diagram(t)
    for i, j, aij, aji in edges:
        a[i][j] = aij
        a[j][i] = aji
    cartan = tuple(tuple(row) for row in a)
    marks = tuple(marks)
    sym = _symmetrizers(cartan, size)
    # diag(s) A is symmetric, so c A = 0 exactly when A (c / s) = 0: the
    # comarks are the marks times the symmetrizers, reduced.  No corank check
    # is needed: a connected diagram with a positive null vector (the marks,
    # asserted below) is of affine type and so has corank 1 (Kac,
    # Infinite-Dimensional Lie Algebras, ch. 4).
    scaled = [s_i * a_i for s_i, a_i in zip(sym, marks)]
    common = math.gcd(*scaled)
    comarks = tuple(x // common for x in scaled)

    if any(sum(map(mul, row, marks)) for row in cartan):
        raise AssertionError(f"marks are not a null vector for {t.name}")
    if any(sum(map(mul, comarks, col)) for col in zip(*cartan)):
        raise AssertionError(f"comarks are not a left null vector for {t.name}")
    sym_cartan = [tuple(map(s_i.__mul__, row)) for s_i, row in zip(sym, cartan)]
    if sym_cartan != list(zip(*sym_cartan)):
        raise AssertionError(f"symmetrizers fail for {t.name}")
    if comarks[0] != 1:
        raise AssertionError(f"c_0 != 1 for {t.name}")
    want_d0 = 2 if (t.family, t.twist) == ("A", 2) and t.rank_param % 2 == 0 else 1
    if marks[0] != want_d0:
        raise AssertionError(f"d_0 mismatch for {t.name}")
    return AffineDatum(t, cartan, marks, comarks, sym, t.finite_type)


def level_one_nodes(d):
    """The nodes i, ascending, whose Lambda_i has level c_i = 1."""
    return [i for i, c in enumerate(d.comarks) if c == 1]


def swept_types(max_rank=5, with_exceptional=True):
    """Every valid family with rank parameter <= max_rank, in the row order
    of ``_RANKS``.

    With ``with_exceptional`` the fixed high-rank families (E series, F4-1,
    E6-2, D4-3) are appended even when max_rank does not reach them.
    """
    out = []
    for family, twist, ranks, _, _ in _RANKS:
        for m in ranks:
            if m > max_rank:
                break
            out.append(AffineType(family, m, twist))
    if with_exceptional:
        for key in _EXCEPTIONAL:
            t = AffineType(*key)
            if t not in out:
                out.append(t)
    return out
