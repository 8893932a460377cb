"""Verification of the level-1 perfect crystal axioms.

Existence of the underlying quantum module is asserted by the uniform
construction and recorded as such; the connectivity, weight-cone, level
bound and minimal-element axioms are machine-checked with witnesses on
failure.

Connectivity of B (x) B is proved by a certificate over the classical
heads of the square (the pairs that no e_i, i >= 1, moves), not by
labelling all |B|^2 pairs: when the classical arrows of B have no cycle,
every raising walk on pairs ends at a head, so the square is connected
once the 0-arrows join all heads into one class (``_square_components``).
A graph where the certificate does not close, which only a hand-built
graph reaches, gets the exact count of ``TensorCrystal``.
"""

from operator import le, mul, sub

from .cartan import level_one_nodes
from .crystal import XRoot
from .roots import theta
from .tensor import TensorCrystal, _union_find


def _axiom(passed, detail, witness=""):
    """One axiom's entry of the report: the witness only when there is one."""
    out = {"passed": passed, "detail": detail}
    if witness:
        out["witness"] = witness
    return out


def minimal_elements(graph):
    """For each level-1 node i of ``graph.datum``, the unique b with
    eps(b) = Lambda_i and the unique b with phi(b) = Lambda_i, as a map
    i -> (b_upper, b_lower).

    The eps and phi columns of the graph are read once, into maps from the
    coefficient tuple to the elements carrying it.  Raises ValueError with
    a witness when existence or uniqueness fails.
    """
    d = graph.datum
    ups, downs = {}, {}
    for found, stats in ((ups, graph._eps), (downs, graph._phi)):
        for b, coeffs in zip(graph.elements, zip(*stats)):
            found.setdefault(coeffs, []).append(b)
    out = {}
    for i in level_one_nodes(d):
        lam = tuple(int(j == i) for j in range(d.n + 1))
        up = ups.get(lam, [])
        down = downs.get(lam, [])
        if len(up) != 1 or len(down) != 1:
            raise ValueError(
                f"Lambda_{i}: {len(up)} eps-preimages, {len(down)} phi-preimages"
            )
        out[i] = (up[0], down[0])
    return out


def _classically_acyclic(graph):
    """Whether the classical arrows of B (indices >= 1) have no cycle, by
    a Kahn topological sort."""
    classical = graph.f[1:]
    indegree = [0] * len(graph)
    for f in classical:
        for t in f.values():
            indegree[t] += 1
    ready = [b for b, k in enumerate(indegree) if not k]
    for b in ready:  # grows while it is read
        for f in classical:
            t = f.get(b)
            if t is not None:
                indegree[t] -= 1
                if not indegree[t]:
                    ready.append(t)
    return len(ready) == len(graph)


def _square_components(graph):
    """The number of connected components of B (x) B.

    The certificate: with no classical cycle in B, every walk of classical
    raising moves on pairs ends at a head: a pair l (x) r with l a head of
    B and eps_i(r) <= phi_i(l) for every i >= 1.  Each head is linked to
    the heads that its images under f_0 and e_0 raise to, always by the
    first classical index that acts; every link is a path of arrows.  When
    the links join all heads, the square is connected.  Otherwise, or with
    a classical cycle, the exact count of ``TensorCrystal``."""
    classical = range(1, graph.n_indices)
    if _classically_acyclic(graph):
        e, eps, phi = graph.e, graph._eps, graph._phi
        raisable = set().union(*(e[i] for i in classical))
        eps_rows = list(zip(*eps[1:]))
        heads = {}
        for l in range(len(graph)):
            if l not in raisable:
                tops = [phi[i][l] for i in classical]
                for r, er in enumerate(eps_rows):
                    if all(map(le, er, tops)):
                        heads[l, r] = len(heads)

        def head_above(l, r):
            # CrystalGraph.pair_e inlined, first classical index that acts
            while True:
                for i in classical:
                    if phi[i][l] < eps[i][r]:
                        r = e[i][r]
                        break
                    up = e[i].get(l)
                    if up is not None:
                        l = up
                        break
                else:
                    return heads[l, r]

        links = []
        for (l, r), h in heads.items():
            for move in (graph.pair_f, graph.pair_e):
                pair = move(l, r, 0)
                if pair is not None:
                    links.append((h, head_above(*pair)))
        find = _union_find(len(heads), links)
        if heads and all(find(h) == 0 for h in range(len(heads))):
            return 1
    return TensorCrystal(graph).connected_components()[1]


def verify_perfect(graph):
    """Check the machine-checkable level-1 axioms of the crystal ``graph``
    against its datum ``graph.datum``.

    Returns the report as the dict that ``crystal verify --json`` prints:
    ``type``, ``level``, ``passed``, ``axioms`` (each ``passed`` and
    ``detail``, plus a ``witness`` on failure) and ``minimal_elements``.
    The top-weight count, the eps-level bound and the minimal elements are
    read off the eps and phi columns of the graph.  Connectivity of
    B (x) B is proved from its classical heads (``_square_components``);
    only where that certificate does not close, on hand-built graphs, is
    the whole square labelled for its exact component count."""
    d = graph.datum
    axioms = {
        "module_asserted": _axiom(
            True, "underlying module asserted by the uniform construction, not machine-verified"
        )
    }

    count = _square_components(graph)
    axioms["tensor_square_connected"] = _axiom(
        count == 1,
        f"B(x)B has {count} component(s) over {len(graph) ** 2} pairs",
        "" if count == 1 else "multiple components",
    )

    # weights lie under theta in the (1/d0)-scaled cone, with a unique top:
    # theta - wt(b) has nonnegative doubled coefficients, even ones if d0 = 1
    th = theta(d)
    step = 2 if d.d0 == 1 else 1
    bad = next(
        (
            b
            for b in graph.elements
            if any(
                t < 0 or t % step
                for t in map(sub, th.twice, graph.root_weight(b).twice)
            )
        ),
        None,
    )
    # a graph without x_theta has no element of its weight
    top = XRoot(th)
    weights = graph.weights()
    top_count = weights.count(weights[graph.index[top]]) if top in graph.index else 0
    ok3 = bad is None and top_count == 1
    axioms["weight_cone"] = _axiom(
        ok3,
        f"lambda_0 = theta, |B_lambda0| = {top_count}",
        "" if ok3 else (bad.label() if bad else f"{top_count} top-weight elements"),
    )

    # <c, eps(b)> >= 1 everywhere
    levels = [sum(map(mul, d.comarks, eps)) for eps in zip(*graph._eps)]
    low = next((b for b, c in zip(graph.elements, levels) if c < 1), None)
    axioms["eps_level_bound"] = _axiom(
        low is None,
        f"min <c, eps(b)> = {min(levels)}",
        "" if low is None else low.label(),
    )

    # unique minimal elements for every level-1 dominant weight
    minimal = {}
    try:
        table = minimal_elements(graph)
        minimal = {
            f"Lambda_{i}": {"b_upper": up.label(), "b_lower": lo.label()}
            for i, (up, lo) in sorted(table.items())
        }
        axioms["minimal_elements"] = _axiom(True, f"{len(table)} level-1 dominant weight(s)")
    except ValueError as err:
        axioms["minimal_elements"] = _axiom(False, str(err), str(err))

    return {
        "type": d.type.name,
        "level": 1,
        "passed": all(a["passed"] for a in axioms.values()),
        "axioms": axioms,
        "minimal_elements": minimal,
    }
