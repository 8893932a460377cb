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
    """B (x) B with eagerly materialized lowering and raising arrows.

    Pairs are indexed left-major, k = l * m + r; all arrow tables are flat
    lists, absent entries marked -1.  The signature rule is applied one row
    at a time: for each index i and left factor l, the row of pairs
    (l, 0..m-1) is one list comprehension over the right factors' eps_i and
    arrows, slice-assigned into a preallocated table.  Sizes stay below ~60k
    pairs for every family swept here, so the eager build is cheap.

    The classical components (no 0-arrows) are labelled once, on first use,
    and cached.  Each pair points up along its first raising arrow; the pairs
    with none are the maximal vectors, and pointer jumping carries every
    other pair to the head of its chain.  A closure check over every
    classical lowering arrow then merges heads joined by an arrow, and chains
    that never reach a head (classical cycles), so the labels are the exact
    components of any graph; for a crystal it merges nothing.
    """

    def __init__(self, base):
        self.base = base
        m = len(base)
        self.size = m * m
        self.n_indices = base.n_indices
        self.f = []
        self.e = []
        self._classical = None
        for i in range(self.n_indices):
            fi = base.f[i]
            ei = base.e[i]
            phi_i = base._phi[i]
            right = list(zip(
                range(m), base._eps[i],
                [fi.get(r, -1) for r in range(m)], [ei.get(r, -1) for r in range(m)],
            ))
            f_flat = [-1] * self.size
            e_flat = [-1] * self.size
            for l in range(m):
                row = l * m
                pl = phi_i[l]
                # f_i acts on the left only when phi_i(l) > 0, so f_i(l)
                # exists there; e_i acts on the right only when eps_i(r) > 0
                f_left = fi.get(l, 0) * m
                e_left = ei[l] * m if l in ei else -1
                f_flat[row:row + m] = [
                    f_left + r if pl > eps_r else (row + f_r if f_r >= 0 else -1)
                    for r, eps_r, f_r, _ in right
                ]
                e_flat[row:row + m] = [
                    row + e_r if pl < eps_r else (e_left + r if e_left >= 0 else -1)
                    for r, eps_r, _, e_r in right
                ]
            self.f.append(f_flat)
            self.e.append(e_flat)

    def pair_index(self, t):
        m = len(self.base)
        return self.base.index[t.left] * m + self.base.index[t.right]

    def element(self, k):
        m = len(self.base)
        return TensorElement(self.base.elements[k // m], self.base.elements[k % m])

    def all_elements(self):
        return [self.element(k) for k in range(self.size)]

    def f_tilde(self, t, i):
        k = self.f[i][self.pair_index(t)]
        return None if k < 0 else self.element(k)

    def e_tilde(self, t, i):
        k = self.e[i][self.pair_index(t)]
        return None if k < 0 else self.element(k)

    def string_stats(self, t, i):
        """(eps_i, phi_i) of a pair, by walking the product strings."""
        k0 = self.pair_index(t)
        eps = 0
        k = k0
        while self.e[i][k] >= 0:
            k = self.e[i][k]
            eps += 1
        phi = 0
        k = k0
        while self.f[i][k] >= 0:
            k = self.f[i][k]
            phi += 1
        return eps, phi

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
                (t, top[d])
                for f_tab in self.f[1:]
                for t, d in zip(top, f_tab)
                if d >= 0 and t != top[d]
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

    def maximal_vectors(self):
        return [self.element(k) for k in self.maximal_indices()]

    def component_labels(self, omit_zero):
        """Component id per pair index; ids follow each component's smallest
        pair index.  With 0-arrows, the classical components are merged
        along the distinct pairs of components that a 0-arrow joins."""
        labels, count, _ = self._classical_components()
        if omit_zero:
            return list(labels), count
        links = {(labels[k], labels[d]) for k, d in enumerate(self.f[0]) if d >= 0}
        find = _union_find(count, links)
        ids = {}
        merged = [ids.setdefault(find(c), len(ids)) for c in range(count)]
        return [merged[c] for c in labels], len(ids)

    def components(self, omit_zero):
        """Partition into connected components, deterministic order."""
        labels, count = self.component_labels(omit_zero)
        parts = [[] for _ in range(count)]
        for k, c in enumerate(labels):
            parts[c].append(k)
        return parts

    def component_of(self, t, omit_zero=True):
        """Set of pair indices in the component of t."""
        start = self.pair_index(t)
        indices = range(1, self.n_indices) if omit_zero else range(self.n_indices)
        tables = [(self.f[i], self.e[i]) for i in indices]
        seen = {start}
        queue = deque([start])
        while queue:
            k = queue.popleft()
            for f_tab, e_tab in tables:
                for nb in (f_tab[k], e_tab[k]):
                    if nb >= 0 and nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
        return seen

    def is_connected(self):
        _, count = self.component_labels(omit_zero=False)
        return count == 1


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


def component_report(tensor):
    """JSON-ready description of the classical components.

    Each entry carries the representative maximal vector, the size, and a
    stable label (the maximal vector's text form).
    """
    parts = tensor.components(omit_zero=True)
    maximal = set(tensor.maximal_indices())
    report = []
    for part in parts:
        reps = sorted(k for k in part if k in maximal)
        rep = tensor.element(reps[0]).label() if reps else None
        report.append(
            {"representative_maximal_vector": rep, "size": len(part), "label": rep}
        )
    return report
