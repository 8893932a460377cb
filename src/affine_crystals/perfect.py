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
The Kahn sort that finds no cycle yields the heads of B, over which
``tensor.square_heads`` reads the square's off B's arrows, and their
``head_links`` are joined until one class is left: about B's arrows, not
|B| x rank.  Only a hand-built graph can leave it open, and gets the
exact count of ``TensorCrystal``.  B_min = {b : <c, eps(b)> = 1}, its
phi side and the level bound read one comark-weighted level per side.
"""

from operator import le, sub

from .cartan import level_one_nodes
from .crystal import XRoot
from .roots import theta
from .tensor import TensorCrystal, _union_find, head_links, square_heads


def _axiom(passed, detail, witness=""):
    """One axiom's entry of the report: the witness only when there is one."""
    out = {"passed": passed, "detail": detail}
    if witness:
        out["witness"] = witness
    return out


def _levels(graph, arrows, cols):
    """The level <c, v(b)> of each b, summed over arrow ends: v = eps by e, phi by f."""
    levels = [0] * len(graph)
    for c, ends, col in zip(graph.datum.comarks, arrows, cols):
        for b in ends:
            levels[b] += c * col[b]
    return levels


def minimal_elements(graph):
    """For each level-1 node i of ``graph.datum``, the unique b with
    eps(b) = Lambda_i and the unique b with phi(b) = Lambda_i, as a map
    i -> (b_upper, b_lower).

    The candidates are the ends of the i-arrows, where eps_i >= 1, of level
    <c, eps(b)> = 1 (``_levels``): as c_i = 1 and every comark is >= 1, just
    those with eps(b) = Lambda_i.  Likewise for phi over the starts.  Raises
    ValueError with a witness when existence or uniqueness fails.
    """
    return _minimal(graph, _levels(graph, graph.e, graph._eps))


def _minimal(graph, eps_levels):
    """``minimal_elements`` given the eps levels, which ``verify_perfect`` shares."""
    sides = [(graph.e, eps_levels), (graph.f, _levels(graph, graph.f, graph._phi))]
    out = {}
    for i in level_one_nodes(graph.datum):
        up, down = ([graph.elements[b] for b in ends[i] if lv[b] == 1] for ends, lv in sides)
        if len(up) != 1 or len(down) != 1:
            raise ValueError(f"Lambda_{i}: {len(up)} eps-preimages, {len(down)} phi-preimages")
        out[i] = (up[0], down[0])
    return out


def _acyclic(graph):
    """The heads of B, the in-degree zeros of its classical arrows, ascending, or
    None where those close a cycle: a Kahn sort over successor lists off ``f``."""
    after = [[] for _ in range(len(graph))]
    indegree = [0] * len(graph)
    for f in graph.f[1:]:
        for s, t in f.items():
            after[s].append(t)
            indegree[t] += 1
    ready = list(heads := [b for b, k in enumerate(indegree) if not k])
    for b in ready:  # grows while it is read
        for t in after[b]:
            indegree[t] -= 1
            if not indegree[t]:
                ready.append(t)
    return heads if len(ready) == len(graph) else None


def _square_components(graph):
    """The number of connected components of B (x) B: 1 when B has no
    classical cycle, so that every raising walk on pairs ends at one of the
    ``square_heads``, and their ``head_links`` join them into one class;
    otherwise the exact count of ``TensorCrystal``."""
    lefts = _acyclic(graph)
    if lefts is not None:
        heads = square_heads(graph, lefts)
        if _union_find(len(heads), head_links(graph, heads))[1] == 1:
            return 1
    return TensorCrystal(graph).connected_components()[1]


def verify_perfect(graph):
    """Check the machine-checkable level-1 axioms of the crystal ``graph``
    against its datum ``graph.datum``.

    Returns the report as the dict that ``crystal verify --json`` prints:
    ``type``, ``level``, ``passed``, ``axioms`` (each ``passed`` and
    ``detail``, plus a ``witness`` on failure) and ``minimal_elements``.
    The weight cone is checked per coordinate column of the x-elements'
    roots and the top-weight count per eps and phi column; the eps-level
    bound reads the level that ``minimal_elements`` reads.  Elements are
    scanned one by one only to name a witness.  Connectivity of B (x) B is
    proved from its classical heads (``_square_components``); only where
    that does not close, on hand-built graphs, is the square labelled."""
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
    # theta - wt(b) has nonnegative doubled coefficients, even ones if d0 = 1.
    # Checked per coordinate: each column's maximum against theta's entry,
    # parity off the set of all coefficients (y and empty weigh 0, which
    # lies in the cone); the elements are scanned only to name the first
    # that fails.
    th = theta(d)
    step = 2 if d.d0 == 1 else 1
    columns = list(zip(*[b.root for b in graph.elements if isinstance(b, XRoot)]))
    odd = step == 2 and any(a & 1 for a in set().union(*columns))
    bad = None
    if odd or not all(map(le, map(max, columns), th)):
        gaps = ((b, map(sub, th, graph.root_weight(b))) for b in graph.elements)
        bad = next((b for b, gap in gaps if any(t < 0 or t % step for t in gap)), None)
    # the elements of x_theta's weight, filtered column by column; a graph
    # without x_theta has none
    top_count = 0
    top = graph.index.get(XRoot(th))
    if top is not None:
        found = range(len(graph))
        for phi, eps in zip(graph._phi, graph._eps):
            want = phi[top] - eps[top]
            found = [b for b in found if phi[b] - eps[b] == want]
        top_count = len(found)
    ok3 = bad is None and top_count == 1
    axioms["weight_cone"] = _axiom(
        ok3,
        f"lambda_0 = theta, |B_lambda0| = {top_count}",
        "" if ok3 else (bad.label() if bad else f"{top_count} top-weight elements"),
    )

    # <c, eps(b)> >= 1 everywhere, the level that minimal_elements reads
    # too; the elements are scanned only to name the first below 1
    levels = _levels(graph, graph.e, graph._eps)
    lowest = min(levels)
    low = None if lowest >= 1 else next(b for b, c in zip(graph.elements, levels) if c < 1)
    axioms["eps_level_bound"] = _axiom(
        low is None,
        f"min <c, eps(b)> = {lowest}",
        "" if low is None else low.label(),
    )

    # unique minimal elements for every level-1 dominant weight
    minimal = {}
    try:
        table = _minimal(graph, levels)
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
