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
    pairs for every family swept here, so the eager build is cheap and keeps
    component search simple.
    """

    def __init__(self, base):
        self.base = base
        m = len(base)
        self.size = m * m
        self.n_indices = base.n_indices
        self.f = []
        self.e = []
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

    def maximal_indices(self):
        """Pairs killed by every raising operator with index != 0."""
        e_tabs = self.e[1:]
        if not e_tabs:
            return list(range(self.size))
        return [k for k, col in enumerate(zip(*e_tabs)) if max(col) < 0]

    def maximal_vectors(self):
        return [self.element(k) for k in self.maximal_indices()]

    def component_labels(self, omit_zero):
        """Component id per pair index; ids follow each component's smallest
        pair index."""
        first = 1 if omit_zero else 0
        tables = self.f[first:] + self.e[first:]
        labels = [-1] * self.size
        comp = 0
        for start in range(self.size):
            if labels[start] >= 0:
                continue
            labels[start] = comp
            stack = [start]
            while stack:
                k = stack.pop()
                for tab in tables:
                    nb = tab[k]
                    if nb >= 0 and labels[nb] < 0:
                        labels[nb] = comp
                        stack.append(nb)
            comp += 1
        return labels, comp

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
