"""Finite root systems by simple reflections, and the weight set of the
little adjoint crystal as one filter of the roots per twist.

A root, like every weight in the span of the finite simple roots, is the
plain tuple ``twice`` of its doubled integer coefficients over
alpha_1..alpha_n, so that the half-integral weights appearing for
A_{2n}^(2) stay exact: only denominators 1 and 2 ever occur.
"""

from collections import deque
from functools import cache
from operator import neg


class _CoordText(dict):
    """Doubled coordinate -> its text in a label ("1", "-1/2"), each
    formatted once on first use."""

    def __missing__(self, a):
        text = self[a] = str(a // 2) if a % 2 == 0 else f"{a}/2"
        return text


_TEXT = _CoordText()


def root_label(twice):
    """The text of a root from its doubled coordinates: "[1,1/2]"."""
    return "[" + ",".join(map(_TEXT.__getitem__, twice)) + "]"


def _support(twice):
    """The nodes i, from 1, whose alpha_i lies in the support of a root."""
    return tuple(i + 1 for i, a in enumerate(twice) if a)


def theta(d):
    """The weight theta: marks over the finite nodes, halved for A_{2n}^(2)."""
    return tuple(2 * m // d.d0 for m in d.marks[1:])


def _positive_roots(d):
    """The positive roots as ``twice`` tuples with their class,
    "long" or "short", as (key, class) pairs by height then
    lexicographically.

    alpha_i is long where its symmetrizer is largest over nodes 1..n.  Every
    positive root is reached from a simple root by simple reflections
    s_i beta = beta - p alpha_i with p = <beta, h_i> < 0, and W preserves
    length (Humphreys, Introduction to Lie Algebras, 10.3), so the walk
    hands each root its class.  Each root carries its nonzero pairings
    <beta, h_j>, those of alpha_i being column i of the finite Cartan
    matrix (node i and its neighbours); s_i adds -p times that column, so
    a step sets at most four pairings and p < 0 is read off a few.

    A finite root system has at most max(n^2, 120) positive roots (n^2 for
    B_n and C_n, 120 for E8); the walk raises ValueError past that many,
    so a matrix of no finite type, or a wrong pairing update, fails at
    once instead of walking on without end.
    """
    n = d.n
    cols = [{j: a for j, a in enumerate(col) if a} for col in zip(*d.finite_cartan())]
    sym = d.symmetrizers[1:]
    bound = max(n * n, 120)
    known = {}
    queue = deque()
    for i, (col, s) in enumerate(zip(cols, sym)):
        beta = (0,) * i + (2,) + (0,) * (n - 1 - i)
        known[beta] = "long" if s == max(sym) else "short"
        queue.append((beta, col))
    while queue:  # a root's pairings are dropped once it is read
        beta, pairs = queue.popleft()
        for i, p in pairs.items():
            if p < 0:
                up = beta[:i] + (beta[i] - 2 * p,) + beta[i + 1:]
                if up not in known:
                    known[up] = known[beta]
                    if len(known) > bound:
                        raise ValueError(f"more than {bound} positive roots: no finite type")
                    step = {j: pairs.get(j, 0) - p * a for j, a in cols[i].items()}
                    queue.append((up, pairs | step))
    return sorted(known.items(), key=lambda item: (sum(item[0]), item[0]))


def finite_roots(d):
    """All roots of g as (root, length_class), class "long" or "short": each
    positive root, by height then lexicographically, followed by its
    negative.  Nothing in the package calls it: B reads its weights from
    ``lambda_weights``."""
    positive = _positive_roots(d)
    return [(t, c) for b, c in positive for t in (b, tuple(map(neg, b)))]


@cache
def lambda_weights(d):
    """Weight data of the little adjoint crystal, computed once per datum.

    Returns (lambda_plus, has_y, contains_zero): the positive part of the
    weight set as a tuple in the order of ``finite_roots``, the indices i
    with alpha_i in it as a frozenset, and whether 0 is a weight (d_0 = 1).
    lambda_plus is all positive roots (untwisted), the short ones (twisted)
    or, for A_{2n}^(2), the long ones of C_n halved, which are
    alpha_i + ... + alpha_{n-1} + alpha_n/2.  It is read off
    ``_positive_roots`` directly, and no negative root is built.  Every
    part is immutable, so the cached result is safe to share.
    """
    zero = (0,) * d.n
    positive = _positive_roots(d)
    if d.d0 == 2:
        plus = [tuple(a // 2 for a in beta) for beta, cls in positive if cls == "long"]
    else:
        plus = [beta for beta, cls in positive if d.type.twist == 1 or cls == "short"]
    members = set(plus)
    has_y = frozenset(i for i in range(1, d.n + 1) if zero[: i - 1] + (2,) + zero[i:] in members)
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
    supp = _support(gamma)
    if i in supp:
        raise ValueError(f"alpha_{i} lies in the support of {root_label(gamma)}")
    if not supp:
        raise ValueError("empty support")
    # supp(gamma) is a subtree of the Dynkin tree, so the path from any
    # support node to i leaves the support once and never comes back
    return tuple(k for k in dynkin_path(d, supp[0], i) if k not in supp)
