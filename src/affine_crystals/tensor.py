"""Tensor square of a crystal: product arrows, maximal vectors, components,
and the one enumeration of its classical heads (``classical_heads``, and
``square_heads`` and ``head_links``, which ``verify_perfect`` shares)."""

from itertools import chain, filterfalse
from operator import itemgetter


class TensorCrystal:
    """B (x) B, labelled row by row from the strings of B on construction.

    Pairs are indexed left-major, k = l * m + r, so row l holds the pairs
    l (x) r.  Under index i a pair depends on its left factor l only through
    p = phi_i(l) and whether e_i(l) exists, so the signature rule is one
    kernel per (i, p), built from data of size m (``_row_kernels``): the
    columns r that e_i moves on the right (eps_i(r) > p) and their images;
    on the other columns e_i moves the left factor, or kills the pair.  For
    a classical index the kernel also holds
    sigma(r) = e_i^max(0, eps_i(r) - p)(r).  This is the only copy of the
    rule at tensor level; ``CrystalGraph.pair_f`` and ``pair_e`` apply it
    to a single pair.

    The constructor builds the kernels of every index, labels the classical
    components (no 0-arrows, ``_classical_components``) and reads the
    0-arrows as links between them (``_link_components``); the public
    methods read the results.  The maximal vectors are the ``square_heads``
    over the ``classical_heads`` of B.  A row whose left factor is a head
    of B is labelled by a union-find over its own right moves; every other
    row l is one gather, the row of e_i(l) taken through sigma, since e_i
    carries l (x) r to e_i(l) (x) sigma(r) inside one component.  Rows are
    reached breadth first down the f-arrows from the heads; a row that no
    head reaches (a classical cycle in a hand-built graph) is labelled like
    a head row and the walk goes on from it.  A closure check then covers
    every classical arrow, row by row: row l must equal the row of e_i(l)
    taken through sigma, or, where e_i(l) is absent, keep its labels along
    the right moves, and every pair of labels that differ is merged.  So
    the labels are the exact components of any graph; for a crystal the
    check merges nothing.  It skips the comparisons that hold by
    construction: on a union-find row, the right moves under every index
    where e_i(l) is absent, which the union-find joined; on a gathered row,
    the index whose gather built it.  The labels are kept as one tuple of
    component ids per row, ids in labelling order; only when the check
    merges are they compressed to 0..count-1 by ``_union_find``, which
    numbers its classes by first appearance.  The 0-arrows become the
    distinct links between classical components (``zero_links``);
    ``connected_components`` unites the classical components over them and
    gives the count that ``verify_perfect`` falls back on where its head
    certificate does not close (only on hand-built graphs).

    The -1-marked lowering tables ``f`` are the one view derived from the
    kernels, on first read; only tests and tooling read it.
    """

    def __init__(self, base):
        self.base = base
        m = len(base)
        self.size = m * m
        self.n_indices = base.n_indices
        self._kernels = [_row_kernels(base, i) for i in range(self.n_indices)]
        self._rows, self._count, self._maximal = self._classical_components()
        self._links = self._link_components()
        self._f = None

    @property
    def f(self):
        """Lowering tables, absent arrows marked -1: f_i(u) = t for every
        raising arrow e_i(t) = u, built from the kernels on first read."""
        if self._f is None:
            m = len(self.base)
            self._f = []
            for e, kernels in zip(self.base.e, self._kernels):
                flat = [-1] * self.size
                for l, (right, raised, *_) in enumerate(kernels):
                    t = l * m
                    for r, s in zip(right, raised):
                        flat[t + s] = t + r
                    if l in e:
                        # the columns e_i does not move right go to row e_i(l)
                        u, moved = e[l] * m, set(right)
                        for r in range(m):
                            if r not in moved:
                                flat[u + r] = t + r
                self._f.append(flat)
        return self._f

    def _classical_components(self):
        """(one tuple of component ids per row, count, maximal indices)
        without 0-arrows."""
        base = self.base
        m = len(base)
        classical = range(1, self.n_indices)
        e, f = base.e, base.f
        kernels = self._kernels
        heads = classical_heads(base)
        maximal = [l * m + r for l, r in square_heads(base, heads)]
        # a start row is labelled by a union-find over its right moves,
        # its classes shifted past the ids so far; every other row is a
        # gather of the row above it, so ids follow labelling order;
        # via[l] is the index whose gather built row l (0 on a start row)
        rows = [None] * m
        via = [0] * m
        n = 0
        for start in chain(heads, range(m)):
            if rows[start] is not None:
                continue
            moves = chain.from_iterable(zip(*kernels[i][start][:2]) for i in classical)
            ids, classes = _union_find(m, moves)
            rows[start] = tuple(map(n.__add__, ids))
            n += classes
            queue = [start]
            for u in queue:  # grows while it is read
                for i in classical:
                    l = f[i].get(u)
                    if l is not None and rows[l] is None:
                        rows[l] = kernels[i][l][4](rows[u])
                        via[l] = i
                        queue.append(l)
        # every i-arrow of row l joins equal labels exactly when row l is
        # the row of e_i(l) taken through sigma, or, where e_i(l) is
        # absent, when the right moves keep the label; a start row's
        # union-find joined its right moves, and a walked row is its
        # gather under via[l], so those comparisons are skipped
        merges = []
        for l, (row, walked) in enumerate(zip(rows, via)):
            for i in classical:
                up = e[i].get(l)
                if i == walked or up is None and not walked:
                    continue
                _, _, at_right, at_raised, at_sigma = kernels[i][l]
                if up is None:
                    a, b = at_right(row), at_raised(row)
                else:
                    a, b = row, at_sigma(rows[up])
                if a != b:
                    merges += [(x, y) for x, y in zip(a, b) if x != y]
        if merges:
            dense, n = _union_find(n, merges)
            rows = [_getter(row)(dense) for row in rows]
        return rows, n, maximal

    def _link_components(self):
        """The distinct (lower, upper, step) over the 0-arrows, sorted, read
        row by row with the index-0 kernels."""
        rows = self._rows
        e0 = self.base.e[0]
        right, left = set(), set()
        for l, (row, kernel) in enumerate(zip(rows, self._kernels[0])):
            _, _, at_right, at_raised, at_left = kernel
            right.update(zip(at_right(row), at_raised(row)))
            if l in e0:
                left.update(zip(at_left(row), at_left(rows[e0[l]])))
        return sorted([(lo, hi, -1) for lo, hi in right] + [(lo, hi, 1) for lo, hi in left])

    def maximal_indices(self):
        """Pairs fixed by every raising map with index != 0."""
        return list(self._maximal)

    def component_labels(self):
        """(rows, count) without 0-arrows: a fresh list of the per-row id
        tuples, the classical component of l (x) r at ``rows[l][r]``, ids
        0..count-1 in labelling order."""
        return list(self._rows), self._count

    def per_pair(self, values):
        """The left-major per-pair list of one value per classical
        component: values[rows[l][r]] at pair l * m + r.  The one expansion
        to |B|^2 entries; the energy routes and writers read the ids."""
        return list(map(values.__getitem__, chain.from_iterable(self._rows)))

    def connected_components(self):
        """(merged, count) with 0-arrows: the classical components united
        over ``zero_links``, merged[c] the id, in 0..count-1, of classical
        component c.  No list over the pairs is built.  ``verify_perfect``
        reads the count alone, and only where its head certificate does
        not close."""
        return _union_find(self._count, [(lo, hi) for lo, hi, _ in self._links])

    def zero_links(self):
        """The distinct (lower, upper, step) over the 0-arrows t -> e_0(t):
        the classical component ids of t and e_0(t), and step -1 where e_0
        moved the right factor, 1 where it moved the left one.  Sorted."""
        return self._links


def _row_kernels(base, i):
    """The kernel of e_i on each row l of B (x) B, one per value
    p = phi_i(l), as (right, raised, at_right, at_raised, at_other).

    right holds the columns r with eps_i(r) > p, where e_i acts on the
    right factor, and raised their images e_i(r); on the other columns e_i
    acts on the left factor (a phi_i = eps_i tie sends it left) or kills
    the pair when e_i(l) is absent.  The at_ entries gather a row into a
    tuple: at right and at raised, and at_other at sigma, with
    sigma(r) = e_i^max(0, eps_i(r) - p)(r), for a classical index, or at
    the columns sent left for index 0, whose rows only the 0-arrow links
    read."""
    eps, ei, row_p = base._eps[i], base.e[i], base._phi[i]
    by_p = {}
    for p in set(row_p):
        right = [r for r, x in enumerate(eps) if x > p]
        raised = [ei[r] for r in right]
        if i:
            other = list(range(len(eps)))
            for r in right:
                s = r
                for _ in range(eps[r] - p):
                    s = ei[s]
                other[r] = s
        else:
            other = [r for r, x in enumerate(eps) if x <= p]
        by_p[p] = (right, raised, _getter(right), _getter(raised), _getter(other))
    return list(map(by_p.__getitem__, row_p))


def _getter(idx):
    """A callable that gathers (seq[k] for k in idx) into a tuple, by one
    C-level itemgetter call; itemgetter returns a bare item, not a tuple,
    for a single index, and needs at least one."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        k = idx[0]
        return lambda seq: (seq[k],)
    return lambda seq: ()


def classical_heads(graph):
    """The heads of B, the elements no e_i with i >= 1 moves, ascending."""
    raisable = set().union(*graph.e[1:])
    return [b for b in range(len(graph)) if b not in raisable]


def square_heads(graph, lefts):
    """The classical heads l (x) r of B (x) B over the heads ``lefts`` of
    B, as (l, r), left-major: all r but the ends of i-arrows (i >= 1, where
    alone eps_i(r) > 0) with eps_i(r) > phi_i(l), by the signature rule, so
    they are found from B's arrows alone."""
    e, eps, phi = graph.e, graph._eps, graph._phi
    heads = []
    for l in lefts:
        above = set()
        for i in range(1, graph.n_indices):
            top, ends, col = phi[i][l], e[i], eps[i]
            above.update([r for r in ends if col[r] > top] if top else ends)
        heads += [(l, r) for r in filterfalse(above.__contains__, range(len(graph)))]
    return heads


def head_links(graph, heads):
    """Lazily, the links (h, h') between positions in ``heads``: each
    image of head h under f_0 and e_0, raised to head h' always by the
    first classical index that acts, so each link is a path of arrows.  The
    walk ends only when the classical arrows of B have no cycle."""
    classical = range(1, graph.n_indices)
    e, eps, phi = graph.e, graph._eps, graph._phi
    index = {pair: h for h, pair in enumerate(heads)}

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
                return index[l, r]

    for h, (l, r) in enumerate(heads):
        for move in (graph.pair_f, graph.pair_e):
            pair = move(l, r, 0)
            if pair is not None:
                yield h, head_above(*pair)


def _union_find(n, links):
    """Merge the classes of nodes 0..n-1 joined by each link, reading no
    link once one class is left; returns (ids, classes), ids[k] the class
    of node k, numbered 0..classes-1 by first appearance."""
    parent = list(range(n))

    def find(k):
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    classes = n
    for a, b in links if n > 1 else ():
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
            classes -= 1
            if classes == 1:
                return [0] * n, 1
    first = {}
    return [first.setdefault(find(k), len(first)) for k in range(n)], classes
