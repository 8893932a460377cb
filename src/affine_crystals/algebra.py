"""Crystal algebra structure and the energy function.

Builds the embedding of the little adjoint crystal into its tensor square
as index pairs of the elements of B, checks it as a crystal morphism,
inverts it into a multiplication, and computes the energy function twice:
once by propagating the defining recurrence across the 0-arrows between
classical components, once from the closed component classification.
"""

import json
from collections import deque
from itertools import chain, compress, product
from json.encoder import encode_basestring_ascii
from operator import add, ge, mul, ne, neg, sub

from ._frozen import Frozen
from .crystal import EMPTY, CrystalGraph, EmptyElement, XRoot, YElement, _json_lines
from .roots import _support, connect_support, dynkin_path, lambda_weights, theta
from .tensor import TensorCrystal

EMPTY_EMPTY = "EmptyEmpty"
THETA_MINUS_THETA = "ThetaMinusTheta"
LEFT_EMPTY = "LeftEmpty"
RIGHT_EMPTY = "RightEmpty"
TWO_THETA = "TwoTheta"
GENERIC = "Generic"


def theta_comp(i):
    return f"ThetaComp({i})"


def valid_psi_indices(d):
    """Finite nodes adjacent to node 0 whose simple root carries a y-element.

    Empty exactly for A_{2n}^(2) and D_{n+1}^(2).
    """
    _, has_y, _ = lambda_weights(d)
    return [i for i in range(1, d.n + 1) if d.cartan[0][i] != 0 and i in has_y]


def build_psi(graph, i):
    """Embedding of the little adjoint crystal in ``graph`` onto the
    component of x_theta (x) y_i, by one rule for every family.

    For gamma in lambda_+ let S be the sum of the simple roots on the
    Dynkin-tree path from supp(gamma) to node i that lie outside the
    support (S = 0 when alpha_i is in it), and rest = theta - gamma - S.
    The split theta - gamma = A + B is (A, B) = (S, rest), mirrored to
    (rest, S) for untwisted A and C; then x_gamma maps to
    x_{theta-A} (x) x_{-B} and x_{-gamma} to x_B (x) x_{-(theta-A)}.  Each
    y_j maps to x_v (x) x_{-v}: v is the sum over the path from i to j
    without alpha_j when mirrored, and theta minus the whole path sum
    otherwise.  Zero vectors in either slot become y_i.  No weight but theta
    has coefficient 2 or more at a valid node, and there rest = 0, so that
    grade needs no case of its own.

    Works on the ``twice`` tuples of the roots, with S found once per support.
    Returns ``psi``: psi[k] = (l, r), the index pair of the image of element
    k (None for a vector that is no weight of B), and None at empty.
    """
    d = graph.datum
    choices = valid_psi_indices(d)
    if i not in choices:
        raise ValueError(
            f"node {i} is not a valid embedding node for {d.type.name}; "
            f"valid choices: {choices or 'none'}"
        )
    th = theta(d)
    mirror = d.type.twist == 1 and d.type.family in ("A", "C")
    at = {b.root: k for k, b in enumerate(graph.elements) if isinstance(b, XRoot)}
    ys = {b.index: k for k, b in enumerate(graph.elements) if isinstance(b, YElement)}
    at[(0,) * d.n] = ys[i]

    def sum_of(nodes):
        return tuple(2 if k in nodes else 0 for k in range(1, d.n + 1))

    psi = [None] * len(graph)
    sums = {}
    for g in lambda_weights(d)[0]:
        supp = () if g[i - 1] else _support(g)
        if supp not in sums:
            sums[supp] = sum_of(connect_support(d, g, i) if supp else ())
        b_part = sums[supp] if mirror else tuple(map(sub, map(sub, th, g), sums[supp]))
        head = tuple(map(add, g, b_part))  # theta - A, as A + B = theta - gamma
        psi[at[g]] = at.get(head), at.get(tuple(map(neg, b_part)))
        psi[at[tuple(map(neg, g))]] = at.get(b_part), at.get(tuple(map(neg, head)))
    for j, k in ys.items():
        path = dynkin_path(d, j, i)
        v = sum_of(path[1:]) if mirror else tuple(map(sub, th, sum_of(path)))
        psi[k] = at.get(v), at.get(tuple(map(neg, v)))
    return psi


def verify_psi(graph, psi, i):
    """Full morphism check of an embedding ``psi`` from ``build_psi``.

    Checks, in order, that the domain is exactly the non-empty elements
    (psi is None at the empty element alone), that every image is a pair
    of elements of B, and that psi is injective, preserves weight and sends
    x_theta to x_theta (x) y_i.  Then one walk from x_theta along the
    classical arrows of B compares f_j and e_j at each element b
    (j = 1..n) with ``CrystalGraph.pair_f`` and ``pair_e`` at psi(b):
    absent must match absent, present must match psi of the image.  The
    walk must reach the whole domain, so the image is connected and
    closed under every classical e_j and f_j: it is the classical
    component of x_theta (x) y_i, and the string statistics agree.  No
    arrow table of the square is built.  Returns (ok, witness), witness
    None on success.
    """
    elements = graph.elements
    if [t is None for t in psi] != [isinstance(b, EmptyElement) for b in elements]:
        return False, "domain is not the little adjoint crystal"
    image = {k: t for k, t in enumerate(psi) if t is not None}
    taken = set()
    for k, pair in image.items():
        if None in pair:
            return False, f"image outside B (x) B at {elements[k].label()}"
        if pair in taken:
            return False, f"not injective at {elements[k].label()}"
        taken.add(pair)
    weight = graph.weights()
    for k, (l, r) in image.items():
        if weight[k] != tuple(map(add, weight[l], weight[r])):
            return False, f"weight mismatch at {elements[k].label()}"
    top = graph.index[XRoot(theta(graph.datum))]
    if psi[top] != (top, graph.index[YElement(i)]):
        return False, "x_theta does not map to x_theta (x) y_i"
    steps = [(j, arrows, op) for j in range(1, graph.n_indices)
             for arrows, op in ((graph.f[j], graph.pair_f), (graph.e[j], graph.pair_e))]
    seen = {top}
    queue = deque(seen)
    while queue:
        k = queue.popleft()
        for j, arrows, op in steps:
            nb = arrows.get(k)
            got = op(*psi[k], j)
            if (nb is None) != (got is None):
                return False, f"operator domain differs at ({elements[k].label()}, {j})"
            if nb is None:
                continue
            if psi[nb] != got:
                return False, f"operators do not commute at ({elements[k].label()}, {j})"
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    if len(seen) != len(image):
        missed = next(k for k in image if k not in seen)
        return False, f"walk from x_theta misses {elements[missed].label()}"
    return True, None


def multiply(graph, psi, b1, b2):
    """Product on the little adjoint crystal: the inverse of the embedding
    ``psi`` (index pairs of ``graph``) on its image, absent elsewhere.  Of
    two elements with one image the last wins, as in a dict built from
    ``psi``; the search runs from the end of ``psi``."""
    try:
        k = psi[::-1].index((graph.index.get(b1), graph.index.get(b2)))
    except ValueError:
        return None
    return graph.elements[len(psi) - 1 - k]


def _products(graph, psi):
    """The labels of the little adjoint crystal in canonical order, and per
    row a map column -> product label.  Pairs with a factor outside the
    domain (empty, or not in B) are skipped.  Of two entries on one pair
    the last in element order wins; the CLI reaches that case only for an
    unverified, non-injective psi."""
    labels = [b.label() for b in graph.elements]
    domain = [
        k for k, b in enumerate(graph.elements) if not isinstance(b, EmptyElement)
    ]
    position = {k: p for p, k in enumerate(domain)}
    rows = [{} for _ in domain]
    for t, label in compress(zip(psi, labels), psi):
        l, r = map(position.get, t)
        if l is not None and r is not None:
            rows[l][r] = label
    return [labels[k] for k in domain], rows


def multiplication_table(graph, psi):
    """Dense product table over the little adjoint crystal.

    Rows and columns follow the canonical element order; entries are labels,
    None for absent products.
    """
    order, rows = _products(graph, psi)
    return {"order": order, "rows": [[row.get(r) for r in range(len(order))] for row in rows]}


def multiplication_table_json(graph, psi, node, verified, witness=None):
    """``multiplication_table`` plus the fields ``node``,
    ``embedding_verified`` and, when given, ``witness``, as the bytes of
    ``json.dumps(..., indent=2)``.  No dense table is built: each row is
    written from its own products (the table holds at most one per domain
    element), with the null lines between them cut from one precomputed
    run.  Each row carries its own separator, so the text is
    joined once; the scalar fields go through ``json.dumps``."""
    order, products = _products(graph, psi)
    null = ",\n      null"
    nulls = null * len(order)
    rows = []
    for row in products:
        pieces, at = [], 0
        for r, label in sorted(row.items()):
            pieces += [nulls[:len(null) * (r - at)], ",\n      ", encode_basestring_ascii(label)]
            at = r + 1
        pieces.append(nulls[len(null) * at:])
        rows.append("\n    [" + "".join(pieces)[1:] + "\n    ],")
    if rows:
        rows[-1] = rows[-1][:-1] + "\n  "
    fields = [
        f'  "node": {json.dumps(node)}',
        f'  "embedding_verified": {json.dumps(verified)}',
    ]
    if witness:
        fields.append(f'  "witness": {json.dumps(witness)}')
    order = ["    " + encode_basestring_ascii(x) for x in order]
    return "".join([
        '{\n  "order": [', _json_lines(order, 2),
        '],\n  "rows": [', *rows, "],\n", ",\n".join(fields), "\n}\n",
    ])


def energy_propagate(tensor):
    """Energy by propagation of the defining recurrence over the component
    quotient.

    H is one value on each classical component (``component_labels``), and
    across a 0-arrow t -> u = e_0(t) the step H(u) - H(t) is 1 when e_0
    moved the left factor of t and -1 when it moved the right one.  H is
    fixed by H(empty (x) empty) = 0, which every ``build_crystal`` graph
    has; a graph without the empty element gets H = 0 on its pair 0.
    Values spread breadth first from that pair's component along the
    distinct (lower, upper, step) links between components
    (``TensorCrystal.zero_links``).  Then every link is checked against the
    result; H is constant on a component, so this checks every 0-arrow, and
    an inconsistent assignment cannot survive.  Only when a link fails are
    the 0-arrows scanned, pair by pair with ``CrystalGraph.pair_e``, for the
    failing arrow with the smallest source pair.
    """
    base = tensor.base
    m = len(base)
    rows, count = tensor.component_labels()
    zero_links = tensor.zero_links()
    links = [[] for _ in range(count)]
    for lo, hi, s in zero_links:
        links[lo].append((hi, s))
        links[hi].append((lo, -s))
    value = [None] * count
    k = base.index.get(EMPTY, 0)
    start = rows[k][k]
    value[start] = 0
    queue = deque([start])
    while queue:
        c = queue.popleft()
        for nb, s in links[c]:
            if value[nb] is None:
                value[nb] = value[c] + s
                queue.append(nb)
    if None in value:
        raise ValueError("tensor square is not connected; energy is partial")
    h = [value[c] for row in rows for c in row]
    if any(value[hi] - value[lo] != s for lo, hi, s in zero_links):
        for t in range(tensor.size):
            pair = base.pair_e(*divmod(t, m), 0)
            u = t if pair is None else pair[0] * m + pair[1]
            step = 1 if u // m != t // m else -1
            if u != t and h[u] - h[t] != step:
                left, right = (base.elements[x].label() for x in divmod(u, m))
                raise ValueError(
                    f"inconsistent energy at {left} (x) {right}: "
                    f"{h[u]} vs {h[t] + step} via index 0"
                )
    return h


def two_theta_formula_indices(tensor):
    """Order-theoretic candidate for the component of x_theta (x) x_theta.

    Pairs of x-elements in dominance order, plus the y (x) x and x (x) y
    fringes at nodes where theta has positive pairing; for A_{2n}^(2) the
    fringes are empty because no y elements exist.  The true component is
    computed by ``two_theta_indices``; the two sets agree only on A1-1,
    A2-1 and the y-free A_{2n}^(2) chains (elsewhere the fringe condition
    drops true members, and outside type A ranks 1, 2 the dominance set
    also picks up pairs from other components), so this formula is kept
    only as the documented candidate.  The exact order description is
    ``two_theta_order_indices``, which compares Demazure directions in
    Bruhat order instead of weights in dominance order.
    """
    base = tensor.base
    d = base.datum
    th = theta(d)
    m = len(base)
    lam_plus, has_y, has_zero = lambda_weights(d)
    lam = set(lam_plus) | {tuple(map(neg, r)) for r in lam_plus}
    out = set()
    x_idx = {b.root: base.index[b] for b in base.elements if isinstance(b, XRoot)}
    for alpha, ia in x_idx.items():
        for beta, ib in x_idx.items():
            if all(map(ge, beta, alpha)):
                out.add(ia * m + ib)
    for i in sorted(has_y):
        if sum(map(mul, th, d.cartan[i][1:])) <= 0:
            continue
        iy = base.index[YElement(i)]
        for beta in lam:
            if min(beta) < 0 or not any(beta):
                continue
            gamma = beta[: i - 1] + (beta[i - 1] - 2,) + beta[i:]  # beta - alpha_i
            if gamma in lam or (has_zero and not any(gamma)):
                out.add(iy * m + x_idx[beta])
                out.add(x_idx[tuple(map(neg, beta))] * m + iy)
    return out


def demazure_crystals(graph, opposite=False):
    """Demazure crystals of the B(theta) part of B, keyed by W.theta.

    D_theta = {x_theta}, and D_{s_i mu} = {f_i^k b : b in D_mu, k >= 0}
    whenever <h_i, mu> > 0, where s_i mu = mu - <h_i, mu> alpha_i.  With
    opposite=True the opposite crystals: D^{-theta} = {x_{-theta}}, and
    D^{s_i mu} = {e_i^k b : b in D^mu} whenever <h_i, mu> < 0.  Values are
    frozensets of element indices; the orbit is walked breadth first, so each
    set is grown along one reduced word.  Only the datum and the arrows of B
    are read.
    """
    d = graph.datum
    start = tuple(map(neg, theta(d))) if opposite else theta(d)
    sign = -1 if opposite else 1
    arrows = graph.e if opposite else graph.f
    out = {start: frozenset([graph.index[XRoot(start)]])}
    queue = deque([start])
    while queue:
        mu = queue.popleft()
        for i in range(1, d.n + 1):
            c = sum(map(mul, mu, d.cartan[i][1:]))  # twice <h_i, mu>
            if sign * c <= 0:
                continue
            nu = mu[: i - 1] + (mu[i - 1] - c,) + mu[i:]  # s_i mu
            if nu in out:
                continue
            step = arrows[i]
            members = set(out[mu])
            for k in out[mu]:
                while k in step:
                    k = step[k]
                    members.add(k)
            out[nu] = frozenset(members)
            queue.append(nu)
    return out


def _directions(graph, crystals):
    """Element index -> the mu whose crystal is the smallest one holding that
    element, for every element other than empty.

    Raises ValueError unless that crystal is unique and lies inside every
    other crystal holding the element.
    """
    by_size = sorted(crystals, key=lambda mu: len(crystals[mu]))
    out = {}
    for k, b in enumerate(graph.elements):
        if isinstance(b, EmptyElement):
            continue
        holding = [mu for mu in by_size if k in crystals[mu]]
        # a proper subset is strictly smaller, so this also rules out a tie
        if not holding or not all(crystals[holding[0]] < crystals[mu] for mu in holding[1:]):
            raise ValueError(
                f"{b.label()} has no unique smallest Demazure crystal; "
                "B is not B(theta) + B(0) as a classical crystal"
            )
        out[k] = holding[0]
    return out


def two_theta_order_indices(graph):
    """The classical component of x_theta (x) x_theta, from root data and the
    arrows of B alone (left-major pair indices l * m + r).

    For b in B(theta) let iota(b) be the mu in W.theta with the smallest
    Demazure crystal D_mu containing b (the initial direction) and kappa(b)
    the mu with the smallest opposite crystal D^mu containing b (the final
    direction); see ``demazure_crystals``.  Then b1 (x) b2 lies in the
    component B(2 theta) exactly when x_{iota(b2)} is in D_{kappa(b1)}, the
    Bruhat comparison of the two directions (Littelmann, Ann. of Math. 142,
    1995; Kashiwara, Duke Math. J. 71, 1993).  No tensor table is built and
    no component is searched.  Raises ValueError when some element has no
    unique direction, which happens only when B is not B(theta) + B(0).
    """
    down = demazure_crystals(graph)
    x_iota = {r: graph.index[XRoot(mu)] for r, mu in _directions(graph, down).items()}
    kappa = _directions(graph, demazure_crystals(graph, opposite=True))
    m = len(graph)
    return {l * m + r for l, nu in kappa.items() for r, x in x_iota.items() if x in down[nu]}


def two_theta_indices(tensor):
    """The classical component of x_theta (x) x_theta (exact), read off the
    component labels of the square."""
    top = tensor.base.index[XRoot(theta(tensor.base.datum))]
    rows, _ = tensor.component_labels()
    c = rows[top][top]
    return {k for k, label in enumerate(chain.from_iterable(rows)) if label == c}


def classify_components(tensor):
    """Label every pair of the tensor square by its component class.

    The ThetaComp(i) classes are the images of the embeddings ``build_psi``
    at every valid node i.  Pairs outside the named classes are labelled
    Generic.
    """
    base = tensor.base
    d = base.datum
    m = len(base)
    th = theta(d)
    i_empty = base.index[EMPTY]
    i_top = base.index[XRoot(th)]
    i_bot = base.index[XRoot(tuple(map(neg, th)))]
    labels = [GENERIC] * tensor.size
    labels[i_empty * m:(i_empty + 1) * m] = [LEFT_EMPTY] * m
    labels[i_empty::m] = [RIGHT_EMPTY] * m
    labels[i_empty * m + i_empty] = EMPTY_EMPTY
    labels[i_top * m + i_bot] = THETA_MINUS_THETA
    for k in two_theta_indices(tensor):
        labels[k] = TWO_THETA
    for i in valid_psi_indices(d):
        tag = theta_comp(i)
        for l, r in filter(None, build_psi(base, i)):
            labels[l * m + r] = tag
    return labels


def energy_by_classification(tensor):
    """Energy from the classical component structure alone.

    Every classical component of the tensor square holds exactly one
    maximal vector b1 (x) b2 with b1 either x_theta or empty.  The energy
    of the whole component is 0 on empty (x) empty, 1 on empty (x) x_theta,
    and eps_0(b2) otherwise.  This reproduces the seven tabulated values
    (ThetaComp heads carry y elements with eps_0 = 0, the 2-theta head
    carries x_theta with eps_0 = 2, the theta - alpha heads carry one
    incoming 0-arrow) and extends them to the components with eps_0 = 0
    heads that the named classes do not cover.  No 0-arrow of the product
    graph is traversed, but both routes read the same row kernels and
    component labels of the square, so a fault there reaches both.
    """
    base = tensor.base
    m = len(base)
    eps0 = base._eps[0]
    i_empty = base.index[EMPTY]
    rows, count = tensor.component_labels()
    heads = [[] for _ in range(count)]
    for k in tensor.maximal_indices():
        heads[rows[k // m][k % m]].append(k)
    value = []
    for found in heads:
        if len(found) != 1:
            raise ValueError(
                f"component with {len(found)} maximal vectors; not a crystal"
            )
        l, r = divmod(found[0], m)
        if l == i_empty:
            value.append(0 if r == i_empty else 1)
        else:
            value.append(eps0[r])
    return [value[c] for row in rows for c in row]


def _keys_may_coincide(labels):
    """Whether two pairs of labels can write the same '(left,right)' key.

    If "(a,b)" equals "(c,d)" with a shorter than c, then c is a followed by
    a comma; so keys can coincide only when a label repeats or a label
    begins with another label and a comma.
    """
    seen = set(labels)
    return len(seen) < len(labels) or any(
        label[:k] in seen
        for label in labels
        for k, char in enumerate(label)
        if char == ","
    )


def _pair_rows(heads, tails, h, cells):
    """Yield heads[left] + tails[right] + cells[H] over the pairs, row by row.

    ``cols[v][r]`` is ``tails[r] + cells[v]``, so each run of equal H in a
    row is one slice of a column list, and a row is one join over the runs.
    """
    m = len(tails)
    cols = {v: [tail + cell for tail in tails] for v, cell in cells.items()}
    for k, head in enumerate(heads):
        row = h[k * m:k * m + m]
        pieces = []
        a = 0
        for b in chain(compress(range(1, m), map(ne, row, row[1:])), (m,)):
            pieces += cols[row[a]][a:b]
            a = b
        yield head + head.join(pieces)


def energy_table_json(tensor, h):
    """JSON map '(left,right)' -> H, in canonical pair order.

    Written row by row, with the bytes of ``json.dumps(..., indent=2)``:
    each element label is encoded once, each distinct H value once, and
    each line is joined from the three (``_pair_rows``).  When two pairs
    can share a key (``_keys_may_coincide``) the lines go through a dict
    first, which keeps the first position and the last value, as the dict
    of pairs would.
    """
    labels = [encode_basestring_ascii(b.label())[1:-1] for b in tensor.base.elements]
    heads = [f'  "({label},' for label in labels]
    tails = [f'{label})": ' for label in labels]
    cells = {v: json.dumps(v) + ",\n" for v in set(h)}
    if _keys_may_coincide(labels):
        keys = [head + tail for head in heads for tail in tails]
        parts = list(chain.from_iterable(dict(zip(keys, map(cells.__getitem__, h))).items()))
    else:
        parts = list(_pair_rows(heads, tails, h, cells))
    if not parts:
        return "{}\n"
    parts[-1] = parts[-1][:-2] + "\n}\n"
    return "".join(["{\n", *parts])


class Box(Frozen):
    __slots__ = ("value",)

    def __hash__(self):
        return hash(self.value)

    def label(self):
        return str(self.value)


def three_box_crystal():
    """The three-element loop crystal used as the energy fixture: boxes
    1 -> 2 -> 3 under indices 1, 2 and a 0-arrow closing 3 back to 1."""
    boxes = [Box(1), Box(2), Box(3)]
    return CrystalGraph(boxes, [(1, 0, 1), (2, 1, 2), (0, 2, 0)], 3)


def fixture_energy_check():
    """Propagate energy over the three-box tensor square and compare with
    the closed form: H - H(1 (x) 1) + 1 is 1 when the left box dominates,
    0 otherwise.

    Returns (ok, mismatches).
    """
    g = three_box_crystal()
    h = energy_propagate(TensorCrystal(g))
    mismatches = []
    for k, (left, right) in enumerate(product(g.elements, repeat=2)):
        got = h[k] - h[0] + 1
        want = 1 if left.value >= right.value else 0
        if got != want:
            mismatches.append((f"{left.label()} (x) {right.label()}", got, want))
    return not mismatches, mismatches
