"""Tensor square of a crystal: product arrows, maximal vectors, components."""

from itertools import compress
from operator import eq, itemgetter

from ._frozen import Frozen


class TensorElement(Frozen):
    __slots__ = ("left", "right")

    def __hash__(self):
        return hash((self.left, self.right))

    def label(self):
        return f"{self.left.label()} (x) {self.right.label()}"


class TensorCrystal:
    """B (x) B, with its raising maps built on demand.

    Pairs are indexed left-major, k = l * m + r.  The raising maps ``up``
    are built on first read, one flat list per index, in loop form:
    ``up[i][t]`` is e_i(t), or t itself where e_i kills t.  The encoding is
    unambiguous because ``CrystalGraph`` rejects every i-cycle, self-loops
    included, so e_i(t) = t never happens in a product.  One kernel builds
    each map from slices of a shared ``list(range(m * m))``: rows of left
    factors that e_i raises, then columns of right factors with eps_i > 0,
    then a small fix-up where the signature rule sends e_i left after all.
    The lowering tables ``f`` (absent arrows marked -1, the inverse of
    ``up``) are a derived view that nothing in the library reads.  A single
    arrow of one pair needs no map: ``CrystalGraph.pair_f`` and ``pair_e``
    apply the signature rule to the two factors.

    The classical components (no 0-arrows) are labelled once, on first use,
    and cached, with whole-map gathers instead of loops over pairs.  The
    classical maps are composed into one raising map, which pointer
    doubling carries to its fixpoints; the heads (maximal vectors) are the
    fixpoints that every classical map fixes.  A closure check over every
    classical map then merges heads joined by an arrow, and chains that
    never reach a head (classical cycles), so the labels are the exact
    components of any graph; for a crystal it merges nothing.
    """

    def __init__(self, base):
        self.base = base
        m = len(base)
        self.size = m * m
        self.n_indices = base.n_indices
        self._up = None
        self._f = None
        self._classical = None

    @property
    def up(self):
        """Raising maps in loop form, one flat list per index, built on
        first read."""
        if self._up is None:
            ident = list(range(self.size))
            self._up = [self._e_table(i, ident) for i in range(self.n_indices)]
        return self._up

    @property
    def f(self):
        """Lowering tables, absent arrows marked -1: f_i(u) = t for every
        raising arrow e_i(t) = u."""
        if self._f is None:
            self._f = []
            for up in self.up:
                flat = [-1] * self.size
                for t, u in enumerate(up):
                    if u != t:
                        flat[u] = t
                self._f.append(flat)
        return self._f

    def _e_table(self, i, ident):
        """The loop-form map of e_i, made of slices of ``ident`` (the
        identity map on pairs), so that only the fix-up allocates ints."""
        base = self.base
        m = len(base)
        ei = base.e[i]
        flat = ident[:]
        for l, src in ei.items():
            flat[l * m:(l + 1) * m] = ident[src * m:(src + 1) * m]
        # e_i(r) exists exactly where eps_i(r) > 0; these columns act on the
        # right unless phi_i(l) >= eps_i(r), which the fix-up restores
        for r, src in ei.items():
            flat[r::m] = ident[src::m]
        raised = [(r, eps_r) for r, eps_r in enumerate(base._eps[i]) if eps_r]
        for l, pl in enumerate(base._phi[i]):
            if pl:
                row, dst = l * m, ei.get(l, l) * m
                for r, eps_r in raised:
                    if eps_r <= pl:
                        flat[row + r] = dst + r
        return flat

    def pair_index(self, t):
        m = len(self.base)
        return self.base.index[t.left] * m + self.base.index[t.right]

    def element(self, k):
        m = len(self.base)
        return TensorElement(self.base.elements[k // m], self.base.elements[k % m])

    def _classical_components(self):
        """(labels, count, maximal indices) without 0-arrows, computed once."""
        if self._classical is None:
            ups = self.up[1:]
            top = tuple(range(self.size))
            for up in ups:
                top = _gather(up, top)
            fixed = compress(range(self.size), map(eq, top, range(self.size)))
            heads = [k for k in fixed if all(up[k] == k for up in ups)]
            # chains are shorter than size, so this many doublings reach
            # every head; only pairs led into a classical cycle stay unsettled
            for _ in range(self.size.bit_length()):
                jumped = _gather(top, top)
                if jumped == top:
                    break
                top = jumped
            merges = []
            for up in ups:
                moved = _gather(top, up)
                if moved != top:
                    merges += [(a, b) for a, b in zip(top, moved) if a != b]
            if merges:
                top = tuple(map(_union_find(self.size, merges), top))
            ids = {c: k for k, c in enumerate(dict.fromkeys(top))}
            self._classical = _gather(ids, top), len(ids), heads
        return self._classical

    def maximal_indices(self):
        """Pairs fixed by every raising map with index != 0."""
        return list(self._classical_components()[2])

    def component_labels(self, omit_zero):
        """Component id per pair index; ids follow each component's smallest
        pair index.  With 0-arrows, the classical components are merged
        along the distinct pairs of components that the 0-arrows join (a
        pair that e_0 fixes would join only its own component; the union is
        symmetric)."""
        labels, count, _ = self._classical_components()
        if omit_zero:
            return list(labels), count
        src, dst = self.zero_arrows()
        find = _union_find(count, set(zip(_gather(labels, src), _gather(labels, dst))))
        ids = {}
        merged = [ids.setdefault(find(c), len(ids)) for c in range(count)]
        return [merged[c] for c in labels], len(ids)

    def zero_arrows(self):
        """The 0-arrows t -> e_0(t), as the pairs src that ``up[0]`` moves
        and their images dst."""
        up0 = self.up[0]
        src = [t for t, u in enumerate(up0) if u != t]
        return src, _gather(up0, src)


def _gather(seq, idx):
    """(seq[k] for k in idx) as a tuple, by one C-level itemgetter call;
    itemgetter returns a bare item, not a tuple, for a single index."""
    if len(idx) > 1:
        return itemgetter(*idx)(seq)
    return tuple(seq[k] for k in idx)


def _union_find(n, links):
    """Merge the classes of nodes 0..n-1 joined by each link; returns the
    lookup node -> the smallest node of its class."""
    parent = list(range(n))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for a, b in links:
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return find
