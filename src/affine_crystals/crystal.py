"""The level-1 crystal B: little adjoint crystal plus the trivial crystal.

Vertices are x_alpha for alpha in the weight set, y_i for the simple roots
in it, and a single empty element; arrows follow the subtraction rule for
classical indices and the theta-translation rule for index 0.
"""

from operator import neg, sub

from ._frozen import Frozen
from .roots import lambda_weights, root_label, theta


class XRoot(Frozen):
    __slots__ = ("root",)

    def __init__(self, root):
        object.__setattr__(self, "root", root)

    def __eq__(self, other):
        return type(other) is XRoot and other.root == self.root

    def __hash__(self):
        return hash(self.root)

    def label(self):
        return "x" + root_label(self.root)


class YElement(Frozen):
    __slots__ = ("index",)

    def __init__(self, index):
        object.__setattr__(self, "index", index)

    def __eq__(self, other):
        return type(other) is YElement and other.index == self.index

    def __hash__(self):
        return hash(self.index)

    def label(self):
        return f"y_{self.index}"


class EmptyElement(Frozen):
    __slots__ = ()

    def label(self):
        return "empty"


EMPTY = EmptyElement()


class CrystalGraph:
    """A finite edge-colored graph with the crystal query operations.

    Arrows are the lowering maps, given as (i, s, t) with s and t
    positions in ``elements``; raising maps are derived.  String
    statistics, weights in Lambda-coordinates, and exports all come from
    the arrow structure alone, so any labelled graph with the crystal
    axioms can be wrapped (the energy fixture uses this).
    """

    def __init__(self, elements, arrows, n_indices, datum=None):
        self.datum = datum
        self.elements = tuple(elements)
        self.n_indices = n_indices
        self.index = {b: k for k, b in enumerate(self.elements)}
        size = len(self.elements)
        if len(self.index) != size:
            raise ValueError("duplicate crystal elements")
        self.f = [dict() for _ in range(n_indices)]
        self.e = [dict() for _ in range(n_indices)]
        for i, s, t in arrows:
            if not (0 <= s < size and 0 <= t < size):
                raise ValueError(f"{i}-arrow {s} -> {t} has an end outside the {size} elements")
            f, e = self.f[i], self.e[i]
            if s in f or t in e:
                raise ValueError(f"parallel {i}-arrows at {self.elements[s].label()}")
            f[s] = t
            e[t] = s
        # eps_i and phi_i are read off each i-string from its top: depth
        # below the top, and length left below.  Every arrow lies on a
        # string from a top unless some i-arrows close a cycle.
        self._eps = [[0] * size for _ in range(n_indices)]
        self._phi = [[0] * size for _ in range(n_indices)]
        for i in range(n_indices):
            f, e, eps, phi = self.f[i], self.e[i], self._eps[i], self._phi[i]
            walked = 0
            for top in f.keys() - e.keys():
                string = [top]
                while string[-1] in f:
                    string.append(f[string[-1]])
                last = len(string) - 1
                for depth, k in enumerate(string):
                    eps[k] = depth
                    phi[k] = last - depth
                walked += last
            if walked != len(f):
                k = min(k for k in f if k in e and eps[k] == 0)
                raise ValueError(
                    f"{i}-arrows form a cycle through {self.elements[k].label()}"
                )

    def __len__(self):
        return len(self.elements)

    def f_tilde(self, b, i):
        """Lowering operator; None when the arrow is absent."""
        k = self.f[i].get(self.index[b])
        return None if k is None else self.elements[k]

    def e_tilde(self, b, i):
        k = self.e[i].get(self.index[b])
        return None if k is None else self.elements[k]

    def eps(self, b, i):
        return self._eps[i][self.index[b]]

    def phi(self, b, i):
        return self._phi[i][self.index[b]]

    def string_stats(self, b, i):
        k = self.index[b]
        return self._eps[i][k], self._phi[i][k]

    def pair_f(self, l, r, i):
        """f_i on the pair l (x) r of element indices, by the signature rule
        (Kashiwara, Duke Math. J. 71, 1993): it acts on the left factor when
        phi_i(l) > eps_i(r), else on the right.  Returns the image pair, or
        None when f_i kills the pair."""
        if self._phi[i][l] > self._eps[i][r]:
            return self.f[i][l], r
        k = self.f[i].get(r)
        return None if k is None else (l, k)

    def pair_e(self, l, r, i):
        """e_i on the pair l (x) r: it acts on the right factor when
        phi_i(l) < eps_i(r), else on the left, so a phi_i = eps_i tie sends
        e_i left and f_i right.  Returns the image pair or None."""
        if self._phi[i][l] < self._eps[i][r]:
            return l, self.e[i][r]
        k = self.e[i].get(l)
        return None if k is None else (k, r)

    def eps_vec(self, b):
        k = self.index[b]
        return tuple(self._eps[i][k] for i in range(self.n_indices))

    def phi_vec(self, b):
        k = self.index[b]
        return tuple(self._phi[i][k] for i in range(self.n_indices))

    def weight_of(self, b):
        """Classical weight phi(b) - eps(b) in Lambda-coordinates."""
        k = self.index[b]
        return tuple(phi[k] - eps[k] for phi, eps in zip(self._phi, self._eps))

    def weights(self):
        """The classical weights of all elements, in element order, read
        column-wise from the string statistics."""
        rows = [list(map(sub, phi, eps)) for phi, eps in zip(self._phi, self._eps)]
        return list(zip(*rows))

    def root_weight(self, b):
        """Weight as a ``twice`` tuple over the simple roots (zero for y, empty)."""
        if isinstance(b, XRoot):
            return b.root
        return (0,) * (self.n_indices - 1)

    def arrows(self):
        """All arrows as (i, s, t) on element indices, ordered by index then
        source."""
        return [(i, s, t) for i, f in enumerate(self.f) for s, t in sorted(f.items())]

    def to_dot(self):
        lines = ["digraph crystal {", "  rankdir=LR;"]
        for k, b in enumerate(self.elements):
            label = b.label().replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{k} [label="{label}"];')
        for i, s, t in self.arrows():
            lines.append(f'  n{s} -> n{t} [label="{i}"{", style=dashed" if i == 0 else ""}];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        """The bytes of ``json.dumps(..., indent=2)`` of {"elements",
        "arrows"[, "type"]}, written row by row: one template per element
        and per arrow, each distinct [num, den] root coordinate encoded once.
        An element that is neither x nor y is of kind "empty"."""
        from json.encoder import encode_basestring_ascii

        twice = {a for b in self.elements if isinstance(b, XRoot) for a in b.root}
        block = {a: _BLOCK % ((a, 2) if a % 2 else (a // 2, 1)) for a in twice}
        elems = []
        for k, b in enumerate(self.elements):
            if isinstance(b, XRoot):
                root = _json_lines([block[a] for a in b.root], 6)
                kind = f'"x",\n      "root": [{root}]'
            elif isinstance(b, YElement):
                kind = f'"y",\n      "i": {b.index}'
            else:
                kind = '"empty"'
            label = encode_basestring_ascii(b.label())
            elems.append(
                f'    {{\n      "index": {k},\n      "label": {label},\n      "kind": {kind}\n    }}'
            )
        arrows = [
            f'    {{\n      "i": {i},\n      "from": {s},\n      "to": {t}\n    }}'
            for i, s, t in self.arrows()
        ]
        fields = ['  "elements": [' + _json_lines(elems, 2) + "]"]
        fields.append('  "arrows": [' + _json_lines(arrows, 2) + "]")
        if self.datum is not None:
            fields.append('  "type": ' + encode_basestring_ascii(self.datum.type.name))
        return "{" + _json_lines(fields, 0) + "}\n"


_BLOCK = "        [\n          %d,\n          %d\n        ]"


def _json_lines(items, indent):
    """A JSON array or object body from items already encoded and indented,
    laid out as ``json.dumps(..., indent=2)`` lays out a container whose
    closing bracket sits at ``indent`` spaces: the opening bracket is the
    caller's."""
    if not items:
        return ""
    return "\n" + ",\n".join(items) + "\n" + " " * indent


def build_crystal(d):
    """Build B for an affine datum, in the canonical element order.

    Order: positive x-elements by height then lexicographically, then y_i
    by index, then the negative x-elements mirroring the positives, then
    the empty element.  Arrows are found on integer keys: ``twice`` in
    balanced radix-256 digits, coordinate 0 first, so a positive weight's
    key is its bytes; the digits of a weight, of a - alpha_i and of
    theta - a lie in [-12, 12], so keys never collide and keep tuple
    order.  Only positive keys are scanned: -b steps to -b - alpha_i where
    b + alpha_i steps to b, and only -b has a 0-arrow, to theta - b (none
    for -theta: 0 is no key).  Each ``f[i]`` lists its x-to-x arrows by
    ascending source key, ahead of those through y_i and empty.
    """
    lam_plus, has_y, _ = lambda_weights(d)
    n = d.n
    p = len(lam_plus)
    y = {i: p + k for k, i in enumerate(sorted(has_y))}
    q = p + len(y)
    empty = q + p
    minus = list(range(q, empty))  # -b's index by b's, one int shared by its arrows
    elements = [XRoot(r) for r in lam_plus] + [YElement(i) for i in y]
    elements += [XRoot(tuple(map(neg, r))) for r in lam_plus] + [EMPTY]
    keys = [int.from_bytes(bytes(r), "big") for r in lam_plus]
    at = dict(zip(keys, range(p)))
    at.update(zip(map(neg, keys), minus))
    sources = sorted(zip(keys, range(p)))
    arrows = []
    for i in range(1, n + 1):
        step = 2 << 8 * (n - i)
        down = [(s, t) for a, s in sources if (t := at.get(a - step)) is not None]
        arrows += [(i, minus[t], minus[s]) for s, t in reversed(down) if t < p]
        arrows += [(i, s, t) for s, t in down]
        if i in y:
            arrows += [(i, at[step], y[i]), (i, y[i], at[-step])]
    th = int.from_bytes(bytes(theta(d)), "big")
    arrows += [(0, minus[s], t) for a, s in reversed(sources) if (t := at.get(th - a)) is not None]
    arrows += [(0, at[-th], empty), (0, empty, at[th])]
    return CrystalGraph(elements, arrows, n + 1, datum=d)
