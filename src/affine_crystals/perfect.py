"""Verification of the level-1 perfect crystal axioms.

Existence of the underlying quantum module is asserted by the uniform
construction and recorded as such; the connectivity, weight-cone, level
bound and minimal-element axioms are machine-checked with witnesses on
failure.
"""

from operator import mul, sub

from .cartan import level_one_nodes
from .crystal import XRoot, build_crystal
from .roots import theta
from .tensor import TensorCrystal


def _axiom(passed, detail, witness=""):
    """One axiom's entry of the report: the witness only when there is one."""
    out = {"passed": passed, "detail": detail}
    if witness:
        out["witness"] = witness
    return out


def minimal_elements(d, graph):
    """For each level-1 node i, the unique b with eps(b) = Lambda_i and the
    unique b with phi(b) = Lambda_i, as a map i -> (b_upper, b_lower).

    The eps and phi columns of the graph are read once, into maps from the
    coefficient tuple to the elements carrying it.  Raises ValueError with
    a witness when existence or uniqueness fails.
    """
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


def verify_perfect(d, graph=None):
    """Check the machine-checkable level-1 axioms for one family.

    Returns the report as the dict that ``crystal verify --json`` prints:
    ``type``, ``level``, ``passed``, ``axioms`` (each ``passed`` and
    ``detail``, plus a ``witness`` on failure) and ``minimal_elements``.
    The top-weight count, the eps-level bound and the minimal elements are
    read off the eps and phi columns of the graph."""
    if graph is None:
        graph = build_crystal(d)
    tensor = TensorCrystal(graph)
    axioms = {
        "module_asserted": _axiom(
            True, "underlying module asserted by the uniform construction, not machine-verified"
        )
    }

    _, count = tensor.connected_components()
    axioms["tensor_square_connected"] = _axiom(
        count == 1,
        f"B(x)B has {count} component(s) over {tensor.size} pairs",
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
    weights = [graph.weight_of(b) for b in graph.elements]
    top_count = weights.count(graph.weight_of(XRoot(th)))
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
        table = minimal_elements(d, graph)
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
