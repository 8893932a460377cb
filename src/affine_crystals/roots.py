"""Finite root systems by simple reflections, and the weight set of the
little adjoint crystal as one filter of the roots per twist.

Roots are stored with doubled integer coefficients over alpha_1..alpha_n so
that the half-integral weights appearing for A_{2n}^(2) stay exact.
"""

from functools import cache
from operator import mul

from ._frozen import Frozen


class RootVector(Frozen):
    """Element of the rational span of the finite simple roots.

    ``twice[i]`` is 2x the coefficient of alpha_{i+1}; only denominators 1
    and 2 ever occur.
    """

    __slots__ = ("twice",)

    def __init__(self, twice):
        object.__setattr__(self, "twice", twice)

    def __eq__(self, other):
        return type(other) is RootVector and other.twice == self.twice

    def __hash__(self):
        return hash(self.twice)

    @staticmethod
    def simple(i, n):
        """alpha_i inside a rank-n system."""
        if not 1 <= i <= n:
            raise ValueError(f"alpha_{i} is out of range for rank {n}")
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

    def support(self):
        return tuple(i + 1 for i, a in enumerate(self.twice) if a != 0)

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
        return "[" + ",".join(map(_TEXT.__getitem__, self.twice)) + "]"


class _CoordText(dict):
    """Doubled coordinate -> its text in a label ("1", "-1/2"), each
    formatted once on first use."""

    def __missing__(self, a):
        text = self[a] = str(a // 2) if a % 2 == 0 else f"{a}/2"
        return text


_TEXT = _CoordText()


def theta(d):
    """The weight theta: marks over the finite nodes, halved for A_{2n}^(2)."""
    return RootVector(tuple(2 * m // d.d0 for m in d.marks[1:]))


def finite_roots(d):
    """All roots of g as (root, length_class), class "long" or "short".

    alpha_i is long where its symmetrizer is largest over nodes 1..n.  Every
    positive root is reached from a simple root by simple reflections
    s_i beta = beta - <beta, h_i> alpha_i with <beta, h_i> < 0, and W
    preserves length (Humphreys, Introduction to Lie Algebras, 10.3), so
    the walk on ``RootVector.twice`` keys hands each root its class.  The
    list holds each positive root, by height then lexicographically,
    followed by its negative.
    """
    n = d.n
    fc = d.finite_cartan()
    sym = d.symmetrizers[1:]
    known = {
        RootVector.simple(i, n).twice: "long" if s == max(sym) else "short"
        for i, s in enumerate(sym, 1)
    }
    queue = list(known)
    for beta in queue:  # grows while it is read
        for i in range(n):
            p = sum(map(mul, beta, fc[i])) // 2
            if p < 0:
                up = beta[:i] + (beta[i] - 2 * p,) + beta[i + 1:]
                if up not in known:
                    known[up] = known[beta]
                    queue.append(up)
    positive = map(RootVector, sorted(known, key=lambda t: (sum(t), t)))
    return [(r, known[beta.twice]) for beta in positive for r in (beta, -beta)]


@cache
def lambda_weights(d):
    """Weight data of the little adjoint crystal, computed once per datum.

    Returns (lambda_plus, has_y, contains_zero): the positive part of the
    weight set as a tuple in the order of ``finite_roots``, the indices i
    with alpha_i in it as a frozenset, and whether 0 is a weight (d_0 = 1).
    lambda_plus is all positive roots (untwisted), the short ones (twisted)
    or, for A_{2n}^(2), the long ones of C_n halved, which are
    alpha_i + ... + alpha_{n-1} + alpha_n/2.  Every part is immutable, so
    the cached result is safe to share.
    """
    n = d.n
    positive = [(r, cls) for r, cls in finite_roots(d) if r.is_nonneg()]
    if d.d0 == 2:
        long = (r.twice for r, cls in positive if cls == "long")
        plus = [RootVector(tuple(a // 2 for a in t)) for t in long]
    elif d.type.twist == 1:
        plus = [r for r, _ in positive]
    else:
        plus = [r for r, cls in positive if cls == "short"]
    members = set(plus)
    has_y = frozenset(
        i for i in range(1, n + 1) if RootVector.simple(i, n) in members
    )
    return tuple(plus), has_y, d.d0 == 1


@cache
def _toward(d, j):
    """The next node toward node j from every finite node that reaches it
    in the Dynkin diagram (None at j), one breadth-first walk per datum
    and j."""
    step = {j: None}
    queue = [j]
    for u in queue:  # grows while it is read
        for v in range(1, d.n + 1):
            if v not in step and v != u and d.cartan[u][v] != 0:
                step[v] = u
                queue.append(v)
    return step


def dynkin_path(d, i, j):
    """The unique path from node i to node j in the finite Dynkin diagram."""
    n = d.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"nodes must lie in 1..{n}")
    step = _toward(d, j)
    if i not in step:
        raise ValueError(f"nodes {i} and {j} are disconnected")
    path = [i]
    while path[-1] != j:
        path.append(step[path[-1]])
    return tuple(path)


def connect_support(d, gamma, i):
    """Node sequence from supp(gamma) to node i, excluding the support.

    gamma must avoid alpha_i; the result (j_1, ..., j_t = i) walks the tree
    geodesic starting just outside the support component nearest to i.  When
    the support neighbors i the sequence is (i) alone.
    """
    supp = gamma.support()
    if i in supp:
        raise ValueError(f"alpha_{i} lies in the support of {gamma.label()}")
    if not supp:
        raise ValueError("empty support")
    # supp(gamma) is a subtree of the Dynkin tree, so the path from any
    # support node to i leaves the support once and never comes back
    return tuple(k for k in dynkin_path(d, supp[0], i) if k not in supp)
