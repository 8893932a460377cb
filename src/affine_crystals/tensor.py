"""Tensor square of a crystal: product arrows, maximal vectors, components."""

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class TensorElement:
    left: object
    right: object

    def label(self):
        return f"{self.left.label()} (x) {self.right.label()}"


class TensorCrystal:
    """B (x) B, with its arrow tables built on demand.

    Pairs are indexed left-major, k = l * m + r.  The arrow tables are flat
    lists, absent entries marked -1, one per index, and each kind is built
    on first read.  There is one row kernel, for the raising tables ``e``,
    which the classical labelling and energy propagation read: for each
    index i and left factor l, the row of pairs (l, 0..m-1) is one list
    comprehension over the right factors' eps_i and arrows, slice-assigned
    into a preallocated table.  The lowering tables ``f`` are ``e``
    inverted, so no second copy of the signature rule decides them.  The
    per-pair queries (``f_tilde``, ``e_tilde``, ``string_stats``,
    ``component_of``) apply ``CrystalGraph.pair_f`` and ``pair_e`` to the
    two factors and build no table.

    The classical components (no 0-arrows) are labelled once, on first use,
    and cached.  Each pair points up along its first raising arrow; the pairs
    with none are the maximal vectors, and pointer jumping carries every
    other pair to the head of its chain.  A closure check over every
    classical raising arrow then merges heads joined by an arrow, and chains
    that never reach a head (classical cycles), so the labels are the exact
    components of any graph; for a crystal it merges nothing.
    """

    def __init__(self, base):
        self.base = base
        m = len(base)
        self.size = m * m
        self.n_indices = base.n_indices
        self._f = None
        self._e = None
        self._classical = None

    @property
    def f(self):
        """Lowering tables, one flat list per index, built on first read:
        f_i(u) = t for every raising arrow e_i(t) = u."""
        if self._f is None:
            self._f = []
            for e_tab in self.e:
                flat = [-1] * self.size
                for t, u in enumerate(e_tab):
                    if u >= 0:
                        flat[u] = t
                self._f.append(flat)
        return self._f

    @property
    def e(self):
        """Raising tables, one flat list per index, built on first read."""
        if self._e is None:
            self._e = [self._e_table(i) for i in range(self.n_indices)]
        return self._e

    def _e_table(self, i):
        base = self.base
        m = len(base)
        ei = base.e[i]
        right = list(zip(range(m), base._eps[i], [ei.get(r, -1) for r in range(m)]))
        flat = [-1] * self.size
        for l, pl in enumerate(base._phi[i]):
            row = l * m
            # e_i acts on the right only when eps_i(r) > phi_i(l) >= 0, so
            # e_i(r) exists there
            e_left = ei[l] * m if l in ei else -1
            flat[row:row + m] = [
                row + e_r if pl < eps_r else (e_left + r if e_left >= 0 else -1)
                for r, eps_r, e_r in right
            ]
        return flat

    def pair_index(self, t):
        m = len(self.base)
        return self.base.index[t.left] * m + self.base.index[t.right]

    def element(self, k):
        m = len(self.base)
        return TensorElement(self.base.elements[k // m], self.base.elements[k % m])

    def _apply(self, op, t, i):
        base = self.base
        pair = op(base.index[t.left], base.index[t.right], i)
        if pair is None:
            return None
        return TensorElement(base.elements[pair[0]], base.elements[pair[1]])

    def f_tilde(self, t, i):
        return self._apply(self.base.pair_f, t, i)

    def e_tilde(self, t, i):
        return self._apply(self.base.pair_e, t, i)

    def string_stats(self, t, i):
        """(eps_i, phi_i) of a pair, by walking the product strings one
        signature-rule step at a time."""
        base = self.base
        start = base.index[t.left], base.index[t.right]
        lengths = []
        for op in (base.pair_e, base.pair_f):
            count = 0
            pair = op(*start, i)
            while pair is not None:
                count += 1
                pair = op(*pair, i)
            lengths.append(count)
        return tuple(lengths)

    def _classical_components(self):
        """(labels, count, maximal indices) without 0-arrows, computed once."""
        if self._classical is None:
            top = [-1] * self.size
            for e_tab in reversed(self.e[1:]):
                top = [u if u >= 0 else t for u, t in zip(e_tab, top)]
            heads = [k for k, t in enumerate(top) if t < 0]
            for k in heads:
                top[k] = k
            # chains are shorter than size, so this many doublings reach
            # every head; only pairs led into a classical cycle stay unsettled
            for _ in range(self.size.bit_length()):
                jumped = [top[t] for t in top]
                if jumped == top:
                    break
                top = jumped
            merges = [
                (t, top[u])
                for e_tab in self.e[1:]
                for t, u in zip(top, e_tab)
                if u >= 0 and t != top[u]
            ]
            if merges:
                top = list(map(_union_find(self.size, merges), top))
            ids = {}
            labels = [ids.setdefault(t, len(ids)) for t in top]
            self._classical = labels, len(ids), heads
        return self._classical

    def maximal_indices(self):
        """Pairs killed by every raising operator with index != 0."""
        return list(self._classical_components()[2])

    def component_labels(self, omit_zero):
        """Component id per pair index; ids follow each component's smallest
        pair index.  With 0-arrows, the classical components are merged
        along the distinct pairs of components that a 0-arrow joins (read
        from the raising table; the union is symmetric)."""
        labels, count, _ = self._classical_components()
        if omit_zero:
            return list(labels), count
        links = {(labels[k], labels[u]) for k, u in enumerate(self.e[0]) if u >= 0}
        find = _union_find(count, links)
        ids = {}
        merged = [ids.setdefault(find(c), len(ids)) for c in range(count)]
        return [merged[c] for c in labels], len(ids)

    def component_of(self, t):
        """Set of pair indices in the classical component of t (no
        0-arrows), searched pair by pair through the signature rule; no
        table is built."""
        base = self.base
        indices = range(1, self.n_indices)
        start = base.index[t.left], base.index[t.right]
        seen = {start}
        queue = deque([start])
        while queue:
            l, r = queue.popleft()
            for i in indices:
                for nb in (base.pair_f(l, r, i), base.pair_e(l, r, i)):
                    if nb is not None and nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
        m = len(base)
        return {l * m + r for l, r in seen}


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
