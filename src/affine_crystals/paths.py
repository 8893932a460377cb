"""Path realization of the level-1 highest weight crystals.

Paths are semi-infinite tensor words agreeing far out with the homogeneous
ground state b_lam (x) b_lam (x) ... of their level-1 weight lam = Lambda_i,
named by its node i; only the finite override prefix is stored.  The energy
function turns path statistics into affine weights.  Character coefficients
come from a transfer matrix over positions, which counts paths by entry,
degree and weight offset without building any: `PathModel.character` sums the
Lambda-coordinate weights wt(b) (wt(b_lam) = 0) and keys its counts by
affine weight directly, `PathModel.root_character` runs the same DP on root
offsets; both return their rows in payload order (degree, then coordinates).
The DP runs down from the ground entry at the top position; every step adds
a non-negative energy term, so it prunes on the degree alone.  Breadth-first
generation of the paths themselves is its oracle.  Coroot pairings are
column kernels over the sparse rows of the Cartan matrix.  A lattice
generating-function oracle cross-checks the simply-laced untwisted families
at every level-1 weight; `oracle_cells` reads it in one pass from a walk
that carries each point's pairings, one partition-series row per point, and
`character --oracle` also flags the rows at no lattice point.
"""

import json
from collections import deque
from operator import add, mul, sub

from ._frozen import Frozen
from .algebra import energy_propagate
from .cartan import level_one_nodes
from .perfect import minimal_elements
from .tensor import TensorCrystal


class Path(Frozen):
    """A level-1 path in canonical form: the minimal override prefix.

    ``lam`` holds the Lambda-coordinates of the dominant weight; prefix[k]
    is the path entry at position k, and beyond the prefix every entry is
    the ground element b_lam.
    """

    __slots__ = ("lam", "prefix")

    def __hash__(self):
        return hash((self.lam, self.prefix))

    def depth(self):
        return len(self.prefix)


def ground_state(graph, i):
    """The homogeneous ground state of Lambda_i in the crystal ``graph``,
    for a node i of ``graph.datum`` with comark 1: the element b_lam with
    eps(b_lam) = phi(b_lam) = Lambda_i, so that b_lam (x) b_lam (x) ... is
    the ground path."""
    d = graph.datum
    if i not in level_one_nodes(d):
        raise ValueError(f"Lambda_{i} is not a level-1 fundamental weight of {d.type.name}")
    up, down = minimal_elements(graph)[i]
    if up != down:
        raise ValueError(
            f"no homogeneous ground state for Lambda_{i}: its phi-preimage "
            f"{down.label()} is not its eps-preimage {up.label()}"
        )
    return down


class PathModel:
    """Crystal operations on the lam-paths of one family, lam = Lambda_i.

    Takes the base crystal B, ``graph``, and holds it with its datum
    ``datum`` = ``graph.datum``, the energy table of B (x) B (by default
    propagated over a square built here and then dropped; a caller may pass
    its own table as ``energy``), the homogeneous ground state ``ground`` =
    b_lam and ``lam`` = eps(b_lam) as a tuple of Lambda-coordinates; all
    path operations go through here.

    ``_window``, ``f``, ``e`` and ``stats`` fold the tensor-product rule
    over all n factors of a path at once, which the two-factor
    ``CrystalGraph.pair_f``/``pair_e`` cannot express, so the rule's tie
    is restated here: with eps_below[k] the eps_i of the word below
    position k, f_i acts at the highest k with phi_i(b_k) > eps_below[k]
    and e_i at the highest k with phi_i(b_k) >= eps_below[k].  The tests
    pin both ties: flipping the one in ``e`` fails
    ``test_path_inverse_pairs``, and flipping the one in ``f``, alone or
    with ``e``'s, fails ``test_generation_order_independence`` and
    ``test_transfer_matrix_matches_generation``.
    """

    def __init__(self, graph, i, energy=None):
        self.datum = graph.datum
        self.graph = graph
        self.ground = ground_state(graph, i)
        self.lam = graph.eps_vec(self.ground)
        if energy is None:
            energy = energy_propagate(TensorCrystal(graph))
        self.energy = energy
        self.ground_path = Path(self.lam, ())
        self._set_up_transfer()

    def _set_up_transfer(self):
        """Energy columns and zero-energy run of the transfer matrix.

        cols[u] lists, by increasing dh, the pairs (dh, b) with
        dh = H(u (x) b) - H(g (x) g), the energy of entry u over entry b
        relative to the ground pair.  Every dh must be >= 0, so that the
        degree only grows as entries are added below.  zero_run is the
        longest run of dh = 0 pairs descending from the ground entry (the
        zero-cost heads of the columns): a path of degree D has its top
        nonzero pair at or below position D - 1 and only such a run above
        it, so its override prefix ends by position D + zero_run - 1.
        """
        g, d = self.graph, self.datum
        m = len(g)
        top = g.index[self.ground]
        energy = self.energy
        base = energy[top * m + top]
        if min(energy) < base:
            raise ValueError("an energy lies below the ground pair; degrees are unbounded")
        # the Lambda-keys of `character` agree with the root keys of
        # `root_character` (and `oracle_cells`' beta -> Lambda map) only when
        # each weight is the pairing of its root; the scan names a failure
        weights = g.weights()
        roots = [g.root_weight(b) for b in g.elements]
        doubled = _pairing_columns(d, list(zip(*roots)))
        if doubled != [list(map(add, col, col)) for col in zip(*weights)]:
            for b, w, pairing in zip(g.elements, weights, zip(*doubled)):
                if any(x % 2 for x in pairing):
                    raise ArithmeticError("non-integral Cartan pairing")
                if w != tuple(x // 2 for x in pairing):
                    raise ValueError(f"the weight of {b.label()} is not the pairing of its root")
        cols = [
            sorted((h - base, b) for b, h in enumerate(energy[u * m:(u + 1) * m]))
            for u in range(m)
        ]
        depth = {}

        def run(u):
            if u in depth:
                if depth[u] is None:
                    raise ValueError(
                        f"zero-energy cycle through {g.elements[u].label()}; "
                        "path lengths are unbounded"
                    )
                return depth[u]
            depth[u] = None
            below = [b for h, b in cols[u] if h == 0 and (b, u) != (top, top)]
            depth[u] = max((1 + run(b) for b in below), default=0)
            return depth[u]

        self.zero_run = run(top)
        self._cols = cols
        self._ground_index = top
        # wt(b_lam) = phi - eps = 0, so its root is 0 by the check above
        self._root_offsets = roots
        self._weight_offsets = weights

    def _canonical(self, entries):
        n = len(entries)
        while n > 0 and entries[n - 1] == self.ground:
            n -= 1
        return Path(self.lam, tuple(entries[:n]))

    def _window(self, p, i):
        """Prefix plus one ground entry, with the running suffix stats.

        Returns (entries, eps_below, phi_below) where eps_below[k] and
        phi_below[k] are the statistics of the tensor word strictly below
        position k; index N is the appended ground slot.
        """
        g = self.graph
        entries = list(p.prefix) + [self.ground]
        eps_below = [0]
        phi_below = [0]
        for k, b in enumerate(entries[:-1]):
            e_b, p_b = g.string_stats(b, i)
            eps_below.append(e_b + max(0, eps_below[k] - p_b))
            phi_below.append(phi_below[k] + max(0, p_b - eps_below[k]))
        return entries, eps_below, phi_below

    def f(self, p, i):
        """Lowering operator on paths; None when absent."""
        g = self.graph
        entries, eps_below, _ = self._window(p, i)
        k = len(entries) - 1
        while k > 0 and not g.phi(entries[k], i) > eps_below[k]:
            k -= 1
        new = g.f_tilde(entries[k], i)
        if new is None:
            return None
        entries[k] = new
        return self._canonical(entries)

    def e(self, p, i):
        """Raising operator on paths; None when absent (in particular on
        any position at or beyond the ground tail)."""
        g = self.graph
        entries, eps_below, _ = self._window(p, i)
        top = len(entries) - 1
        k = top
        while k > 0 and not g.phi(entries[k], i) >= eps_below[k]:
            k -= 1
        if k == top:
            return None
        new = g.e_tilde(entries[k], i)
        if new is None:
            return None
        entries[k] = new
        return self._canonical(entries)

    def stats(self, p, i):
        """(eps_i, phi_i) of a path via the one-ground-entry window."""
        g = self.graph
        entries, eps_below, phi_below = self._window(p, i)
        e_g, p_g = g.string_stats(entries[-1], i)
        n = len(entries) - 1
        eps = max(eps_below[n] - p_g, 0)
        phi = phi_below[n] + max(p_g - eps_below[n], 0)
        return eps, phi

    def weight(self, p):
        """Affine weight as a `character` key: (classical Lambda-coordinates,
        energy-graded delta degree)."""
        g = self.graph
        coeffs = self.lam
        for b in p.prefix:
            coeffs = tuple(map(add, coeffs, g.weight_of(b)))
        m = len(g)
        top = self._ground_index
        h_ground = self.energy[top * m + top]
        delta = 0
        entries = list(p.prefix) + [self.ground]
        for k in range(len(p.prefix)):
            upper, lower = entries[k + 1], entries[k]
            h_path = self.energy[g.index[upper] * m + g.index[lower]]
            delta -= (k + 1) * (h_path - h_ground)
        return coeffs, delta

    def generate(self, max_depth, order=None, lifo=False):
        """All paths with delta degree down to -max_depth, breadth-first;
        the tests' oracle for the transfer matrix of `character`.

        order permutes the operator indices, and lifo switches the frontier
        discipline; the returned set must not depend on either (generation
        order independence is part of the test suite).
        """
        indices = list(order) if order is not None else list(range(self.datum.n + 1))
        start = self.ground_path
        seen = {start}
        frontier = deque([(start, 0)])
        out = []
        while frontier:
            p, depth = frontier.pop() if lifo else frontier.popleft()
            out.append(p)
            for i in indices:
                q = self.f(p, i)
                if q is None or q in seen:
                    continue
                q_depth = depth + (1 if i == 0 else 0)
                if q_depth > max_depth:
                    continue
                seen.add(q)
                frontier.append((q, q_depth))
        return out

    def character(self, max_degree):
        """Multiplicities of affine weights down to delta degree -max_degree.

        Returns a map (classical Lambda-coordinates, delta) -> multiplicity
        in payload row order, counted by `_count` over the Lambda-offsets
        wt(b) of the entries.
        """
        counts = self._count(max_degree, self._weight_offsets, self.lam)
        return {(coeffs, -degree): count for coeffs, degree, count in counts}

    def root_character(self, max_degree):
        """Multiplicities keyed by (root-lattice offset, energy degree),
        counted by `_count` over the root offsets of the entries (``twice``
        tuples, as the roots of `roots`)."""
        counts = self._count(max_degree, self._root_offsets, (0,) * self.datum.n)
        return {(twice, degree): count for twice, degree, count in counts}

    def _count(self, max_degree, offsets, base):
        """(base + summed offsets, degree, number of paths) for every path of
        degree at most max_degree, by degree and then summed offsets;
        offsets[b] is entry b's offset from the ground entry, so the sum
        over a path's entries is finite.

        A transfer matrix over positions, run down from the ground entry
        held at position L = max(max_degree + zero_run, 1): a path of degree
        at most max_degree has only ground entries from position
        max_degree + zero_run up (see `_set_up_transfer`), and L >= 1 keeps
        the last step, to position 0, which keys its states by degree alone.
        The state is (entry, degree) with a count per summed offset; putting
        entry b at position k - 1 under entry u adds k * dh(u (x) b) >= 0 to
        the degree, so a state is dropped as soon as its degree passes
        max_degree and nothing has to look ahead.
        """
        if max_degree < 0:
            raise ValueError(f"max_degree must be >= 0 (got {max_degree})")
        length = max(max_degree + self.zero_run, 1)
        cols = self._cols
        # Offsets are packed one balanced digit per coordinate, so adding an
        # entry's offset to a state is one integer addition.  Coordinate 0 is
        # the top digit, and a sum's digits stay within half the radix, so
        # integer order is the order of the coordinate tuples.
        widest = max(abs(x) for offset in offsets for x in offset)
        radix = 2 * (length + 1) * widest + 2
        half = radix // 2
        packed = [sum(x * radix**j for j, x in enumerate(reversed(t))) for t in offsets]
        layer = {(self._ground_index, 0): {0: 1}}
        for k in range(length, 0, -1):
            nxt = {}
            for (u, degree), sums in layer.items():
                for cost, b in cols[u]:
                    reached = degree + k * cost
                    if reached > max_degree:
                        break
                    shift = packed[b]
                    bucket = nxt.setdefault((b, reached) if k > 1 else reached, {})
                    for key, count in sums.items():
                        key += shift
                        bucket[key] = bucket.get(key, 0) + count
            layer = nxt
        # a sum recurs across degrees, so each is decoded once
        bias = sum(half * radix**j for j in range(len(base)))
        decoded = {}
        for degree, sums in sorted(layer.items()):
            for key in sorted(sums):
                coords = decoded.get(key)
                if coords is None:
                    digits, rest = [], key + bias
                    for c in reversed(base):
                        rest, digit = divmod(rest, radix)
                        digits.append(c + digit - half)
                    coords = decoded[key] = tuple(digits[::-1])
                yield coords, degree, sums[key]


def character_json(type_name, weight, counts, oracle):
    """The `character` payload: type, weight, one row per entry of counts
    (a `PathModel.character` map) by degree, then classical weight, and the
    oracle report.

    Written row by row, with the bytes of ``json.dumps(..., indent=2)``:
    each classical weight's block is encoded once, however many degrees it
    occurs at.  The oracle report is small and goes through ``json.dumps``.
    """
    blocks = {}
    rows = []
    for (coeffs, delta), mult in sorted(counts.items(), key=_row_order):
        block = blocks.get(coeffs)
        if block is None:
            items = ",\n        ".join(map(str, coeffs))
            listed = f"[\n        {items}\n      ]" if coeffs else "[]"
            block = blocks[coeffs] = (
                f'    {{\n      "classical_weight": {listed},\n      "delta_degree": '
            )
        rows.append(f'{block}{delta},\n      "multiplicity": {mult}\n    }}')
    listed = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    report = json.dumps(oracle, indent=2).replace("\n", "\n  ")
    return (
        f'{{\n  "type": {json.dumps(type_name)},\n  "weight": {json.dumps(weight)},\n'
        f'  "rows": {listed},\n  "oracle": {report}\n}}\n'
    )


def _row_order(item):
    (coeffs, delta), _ = item
    return -delta, coeffs


class OracleUnsupported(ValueError):
    """The lattice generating-function oracle does not cover this family."""


def partition_series(colors, max_degree):
    """Coefficients of prod_{k>=1} (1 - q^k)^(-colors) through q^max_degree."""
    c = [1] + [0] * max_degree
    for k in range(1, max_degree + 1):
        for _ in range(colors):
            for m in range(k, max_degree + 1):
                c[m] += c[m - k]
    return c


def check_lattice_node(d, node):
    """Check that the lattice oracle covers Lambda_node of d; raises
    OracleUnsupported off the simply-laced untwisted families."""
    t = d.type
    if t.twist != 1 or t.family not in ("A", "D", "E"):
        raise OracleUnsupported(f"no independent oracle for {t.name}")
    if node not in level_one_nodes(d):
        raise ValueError(f"Lambda_{node} is not a level-1 fundamental weight of {t.name}")


def _shifted_norm2(fc, coeffs, node):
    """|w + beta|^2 - |w|^2 for beta = sum coeffs[j] alpha_{j+1} and w the
    classical part of Lambda_node; (w, alpha_j) is 1 at j = node, else 0."""
    n = len(coeffs)
    norm2 = sum(coeffs[i] * coeffs[j] * fc[i][j] for i in range(n) for j in range(n))
    return norm2 + (2 * coeffs[node - 1] if node else 0)


def oracle_multiplicity(d, beta, degree, node=0):
    """Multiplicity of Lambda_node + beta at energy degree `degree`.

    Only valid for the simply-laced untwisted families at a level-1 weight
    (Frenkel-Kac): the multiplicity is the coefficient of
    q^(degree - (|w + beta|^2 - |w|^2)/2) in the rank-colored partition
    series, w the classical part of Lambda_node.
    """
    check_lattice_node(d, node)
    if any(x % 2 for x in beta):
        raise ValueError("lattice point has non-integral coefficients")
    if degree < 0:
        return 0
    coeffs = [x // 2 for x in beta]
    exponent = degree - _shifted_norm2(d.finite_cartan(), coeffs, node) // 2
    if exponent < 0:
        return 0
    return partition_series(d.n, degree)[exponent]


def oracle_cells(d, max_degree, node=0):
    """The lattice oracle in one pass, for comparison with
    `PathModel.character`: (beta, weight, wants) per lattice point beta of
    `lattice_points_up_to(d, 2 * max_degree)`, where weight is the classical
    part of Lambda_node + beta in Lambda-coordinates and wants[n] equals
    `oracle_multiplicity(d, beta, n, node)` for n = 0..max_degree.

    The points' pairings and norms are computed column by column, and each
    beta's wants are one row of the partition series shifted by half its
    norm.  No lattice point outside the ball carries a multiplicity at
    these degrees, since the shifted norm is at most twice the degree.
    """
    series = partition_series(d.n, max_degree)
    points = lattice_points_up_to(d, 2 * max_degree, node=node)
    coeffs = [[beta[k] // 2 for beta in points] for k in range(d.n)]
    pairings = _pairing_columns(d, coeffs)  # <h_j, beta>
    # (beta | alpha_j) = <h_j, beta> on these families, so the doubled shift
    # |w + beta|^2 - |w|^2 = sum_j coeffs_j <h_j, beta> + 2 (w | beta)
    norms = list(map(add, coeffs[node - 1], coeffs[node - 1])) if node else [0] * len(points)
    for col, pairing in zip(coeffs, pairings[1:]):
        norms = list(map(add, norms, map(mul, col, pairing)))
    pairings[node] = [x + 1 for x in pairings[node]]  # the weight of Lambda_node + beta
    for beta, weight, norm in zip(points, zip(*pairings), norms):
        shift = norm // 2
        yield beta, weight, [0] * shift + series[: max_degree + 1 - shift]


def _pairing_columns(d, columns):
    """The columns <h_j, .>, j = 0..n, of vectors given by their alpha-coordinate
    columns, each summed over the nonzero entries of row j of the Cartan matrix."""
    out = []
    for row in d.cartan:
        total = [0] * len(columns[0])
        for a, col in zip(row[1:], columns):
            if a:
                total = list(map(add, total, map(a.__mul__, col)))
        out.append(total)
    return out


def lattice_points_up_to(d, max_norm2, node=0):
    """Root-lattice vectors beta with |w + beta|^2 - |w|^2 <= max_norm2, w
    the classical part of Lambda_node, in ascending coefficient order."""
    check_lattice_node(d, node)
    return [tuple(2 * x for x in c) for c in sorted(_lattice_walk(d, max_norm2, node))]


def _lattice_walk(d, max_norm2, node):
    """Coefficient tuples of the points of `lattice_points_up_to`, each
    mapped to its `_shifted_norm2`.

    A walk from 0 by steps of +-alpha_i that stays in the ball.  It reaches
    every point: a simple reflection s_i is a run of such steps whose norms
    never exceed the end points', and a weight that is not minuscule has a
    Weyl conjugate with (., alpha_i) >= 2 for some i, whose step -alpha_i
    shortens it; the only minuscule weights of the coset are the orbit of w.
    The norm and the pairings p_j = (w + beta | alpha_j) are carried along
    the walk: a step s * alpha_j from beta adds 2 s p_j + (alpha_j | alpha_j)
    to the norm and s times row j of the Cartan matrix to the pairings.

    Every point has c_j^2 <= 2K (max_norm2 + 2K), K = max(n, 30): c_j is
    (beta | varpi_j) and |varpi_j|^2 is the diagonal entry (C^-1)_jj, at
    most n on A_n and D_n and at most 30 on E_6, E_7, E_8 (Bourbaki, Lie
    Groups and Lie Algebras, ch. VI, plates I, IV-VII), so
    c_j^2 <= K |beta|^2; and |beta| <= |w + beta| + |w|, with |w|^2 <= K and
    |w + beta|^2 <= max_norm2 + K, gives |beta|^2 <= 2 (max_norm2 + 2K).
    The walk raises ValueError on storing a point past that bound, so a
    matrix of no finite type, or a wrong pairing update, fails at once
    instead of walking on without end.
    """
    n = d.n
    fc = d.finite_cartan()  # symmetric on these families: row j is column j
    k = max(n, 30)
    bound = 2 * k * (max_norm2 + 2 * k)
    start = (0,) * n
    norms = {start: 0} if max_norm2 >= 0 else {}
    todo = [(start, tuple(int(j == node - 1) for j in range(n)))] if norms else []
    while todo:
        c, pairings = todo.pop()
        norm = norms[c]
        for j, row in enumerate(fc):
            for step, move in ((1, add), (-1, sub)):
                reached = norm + 2 * step * pairings[j] + row[j]
                if reached > max_norm2:
                    continue
                nxt = c[:j] + (c[j] + step,) + c[j + 1 :]
                if nxt not in norms:
                    if nxt[j] * nxt[j] > bound:
                        raise ValueError(f"lattice point {nxt} leaves the bound c_j^2 <= {bound}")
                    norms[nxt] = reached
                    todo.append((nxt, tuple(map(move, pairings, row))))
    return norms
