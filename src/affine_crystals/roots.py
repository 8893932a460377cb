"""Finite root systems and the weight set of the little adjoint crystal.

Roots are stored with doubled integer coefficients over alpha_1..alpha_n so
that the half-integral weights appearing for A_{2n}^(2) stay exact.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul


@dataclass(frozen=True)
class RootVector:
    """Element of the rational span of the finite simple roots.

    ``twice[i]`` is 2x the coefficient of alpha_{i+1}; only denominators 1
    and 2 ever occur.
    """

    twice: tuple

    @staticmethod
    def from_coeffs(coeffs):
        return RootVector(tuple(int(2 * Fraction(c)) for c in coeffs))

    @staticmethod
    def simple(i, n):
        """alpha_i inside a rank-n system."""
        return RootVector(tuple(2 if j == i - 1 else 0 for j in range(n)))

    @staticmethod
    def zero(n):
        return RootVector((0,) * n)

    def __add__(self, other):
        return RootVector(tuple(a + b for a, b in zip(self.twice, other.twice)))

    def __sub__(self, other):
        return RootVector(tuple(a - b for a, b in zip(self.twice, other.twice)))

    def __neg__(self):
        return RootVector(tuple(-a for a in self.twice))

    def is_zero(self):
        return all(a == 0 for a in self.twice)

    def is_nonneg(self):
        return all(a >= 0 for a in self.twice)

    def coeff(self, i):
        """Coefficient of alpha_i as an exact Fraction."""
        return Fraction(self.twice[i - 1], 2)

    def support(self):
        return tuple(i + 1 for i, a in enumerate(self.twice) if a != 0)

    def height2(self):
        return sum(self.twice)

    def pairing(self, d, j):
        """<h_j, .> computed from the affine Cartan matrix of d (j in 0..n)."""
        total = sum(self.twice[k] * d.cartan[j][k + 1] for k in range(len(self.twice)))
        if total % 2 != 0:
            raise ArithmeticError("non-integral Cartan pairing")
        return total // 2

    def json_coeffs(self):
        """[numerator, denominator] pairs in alpha-coordinates, denominator 1 or 2."""
        out = []
        for a in self.twice:
            if a % 2 == 0:
                out.append([a // 2, 1])
            else:
                out.append([a, 2])
        return out

    def label(self):
        parts = []
        for a in self.twice:
            parts.append(str(a // 2) if a % 2 == 0 else f"{a}/2")
        return "[" + ",".join(parts) + "]"


def theta(d):
    """The weight theta: marks over the finite nodes, halved for A_{2n}^(2)."""
    twice = [2 * m for m in d.marks[1:]]
    if d.d0 == 2:
        twice = [m for m in d.marks[1:]]
    return RootVector(tuple(twice))


def finite_roots(d):
    """All roots of g by closure from the simple roots.

    Returns a list of (root, length_class) with length_class "short" or
    "long"; in the simply-laced case every root is classed long.  The
    closure runs on the integer keys ``RootVector.twice``; the list holds
    each positive root, by height then lexicographically, followed by its
    negative.
    """
    n = d.n
    fc = d.finite_cartan()
    simple = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(simple)
    layer = simple
    while layer:
        nxt = []
        for beta in layer:
            for i in range(n):
                # root string: beta + alpha_i is a root iff the string
                # below beta is long enough relative to <beta, h_i>
                pair = sum(map(mul, beta, fc[i])) // 2
                down = 0
                cur = beta[:i] + (beta[i] - 2,) + beta[i + 1:]
                while cur in known:
                    down += 1
                    cur = cur[:i] + (cur[i] - 2,) + cur[i + 1:]
                if down - pair > 0:
                    cand = beta[:i] + (beta[i] + 2,) + beta[i + 1:]
                    if cand not in known:
                        known.add(cand)
                        nxt.append(cand)
        layer = nxt
    positives = sorted(known, key=lambda t: (sum(t), t))
    gram = [[d.symmetrizers[i + 1] * fc[i][j] for j in range(n)] for i in range(n)]
    norm2 = [
        sum(a * sum(map(mul, row, t)) for a, row in zip(t, gram)) for t in positives
    ]
    top = max(norm2)
    out = []
    for t, norm in zip(positives, norm2):
        cls = "short" if norm < top else "long"
        out.append((RootVector(t), cls))
        out.append((RootVector(tuple(-a for a in t)), cls))
    return out


@cache
def lambda_weights(d):
    """Weight data of the little adjoint crystal, computed once per datum.

    Returns (lambda_plus, has_y, contains_zero): the positive part of the
    weight set as a tuple, the indices i with alpha_i in it as a frozenset,
    and whether 0 is a weight.  lambda_plus is sorted by height then
    lexicographically.  Every part is immutable, so the cached result is
    safe to share.
    """
    n = d.n
    if d.d0 == 2:
        # A_{2n}^(2): the n weights alpha_i + ... + alpha_{n-1} + alpha_n/2
        plus = []
        for i in range(1, n + 1):
            twice = [0] * n
            for k in range(i - 1, n - 1):
                twice[k] = 2
            twice[n - 1] = 1
            plus.append(RootVector(tuple(twice)))
        plus.sort(key=lambda r: (r.height2(), r.twice))
        return tuple(plus), frozenset(), False
    roots = finite_roots(d)
    if d.type.twist == 1:
        plus = [r for r, _ in roots if r.is_nonneg()]
    else:
        plus = [r for r, cls in roots if cls == "short" and r.is_nonneg()]
    plus.sort(key=lambda r: (r.height2(), r.twice))
    members = set(plus)
    has_y = frozenset(
        i for i in range(1, n + 1) if RootVector.simple(i, n) in members
    )
    return tuple(plus), has_y, True


def _finite_adjacency(d):
    n = d.n
    return {
        i: [j for j in range(1, n + 1) if j != i and d.cartan[i][j] != 0]
        for i in range(1, n + 1)
    }


def dynkin_path(d, i, j):
    """The unique path from node i to node j in the finite Dynkin diagram."""
    n = d.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"nodes must lie in 1..{n}")
    adj = _finite_adjacency(d)
    prev = {i: None}
    frontier = [i]
    while frontier and j not in prev:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    if j not in prev:
        raise ValueError(f"nodes {i} and {j} are disconnected")
    path = [j]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(path)


def connect_support(d, gamma, i):
    """Node sequence from supp(gamma) to node i, excluding the support.

    gamma must avoid alpha_i; the result (j_1, ..., j_t = i) walks the tree
    geodesic starting just outside the support component nearest to i.  When
    the support neighbors i the sequence is (i) alone.
    """
    if gamma.coeff(i) != 0:
        raise ValueError(f"alpha_{i} lies in the support of {gamma.label()}")
    supp = gamma.support()
    if not supp:
        raise ValueError("empty support")
    # supp(gamma) is a subtree of the Dynkin tree, so a path from i to any
    # support node enters the support at the node nearest to i
    path = dynkin_path(d, i, supp[0])
    first = next(k for k, node in enumerate(path) if node in supp)
    return path[first - 1::-1]
