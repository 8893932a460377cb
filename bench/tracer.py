"""In-memory spans around the public functions of each affine_crystals module.

`Tracer.install` replaces each public function named below, wherever a
module of the package has bound it, and each listed method on its class,
with a wrapper that records a span: (id, name, start, end, parent, op) plus
the counts taken from its arguments and result.  The CLI then runs
unchanged, so the traced run calls the same functions in the same order as
the untraced one.  Counts are taken after the span has ended.

Spans opened on a worker thread (the pool of `verify --all`) measure the
thread's CPU time and hang under the operation's span: under the
interpreter lock, their wall times would overlap each other.
"""

import functools
import threading
import time


def _tensor_counts(tracer, args, result):
    tensor = args[0]
    arrows = sum(len(tab) - tab.count(-1) for tab in tensor.f)
    tracer.tensor_arrows[id(tensor)] = arrows
    return {"tensor.pairs": tensor.size, "tensor.arrows": arrows}


def _generate_counts(tracer, args, result):
    n_indices = args[0].datum.n + 1
    return {
        "paths.paths": len(result),
        "paths.max_depth": max((p.depth() for p in result), default=0),
        "paths.f_attempts": len(result) * n_indices,
    }


def _lattice_counts(tracer, args, result):
    # mirrors the coefficient box of paths.lattice_points_up_to
    d, max_norm2 = args
    bound = int((max_norm2 * (d.n + 1)) ** 0.5) + 2
    return {
        "paths.oracle_box_points": (2 * bound + 1) ** d.n,
        "paths.oracle_points": len(result),
    }


# (module, function, span name, counts)
FUNCTIONS = (
    ("cartan", "build_datum", "cartan.build_datum", None),
    ("roots", "lambda_weights", "roots.lambda_weights",
     lambda t, a, r: {"roots.roots": 2 * len(r[0])}),
    ("crystal", "build_crystal", "crystal.build_crystal",
     lambda t, a, r: {"crystal.elements": len(r), "crystal.arrows": sum(map(len, r.f))}),
    ("perfect", "verify_perfect", "perfect.verify_perfect", None),
    ("algebra", "energy_propagate", "algebra.energy_propagate",
     lambda t, a, r: {"algebra.propagate_edge_checks": 2 * t.tensor_arrows.get(id(a[0]), 0)}),
    ("algebra", "energy_by_classification", "algebra.energy_by_classification", None),
    ("algebra", "build_psi", "algebra.build_psi", None),
    ("algebra", "verify_psi", "algebra.verify_psi", None),
    ("algebra", "multiplication_table", "algebra.multiplication_table", None),
    ("algebra", "energy_table_json", "algebra.energy_table_json",
     lambda t, a, r: {"algebra.energy_table_json_bytes": len(r)}),
    ("paths", "lattice_points_up_to", "paths.oracle", _lattice_counts),
    ("paths", "oracle_multiplicity", "paths.oracle", None),
)

# (module, class, method, span name, counts)
METHODS = (
    ("crystal", "CrystalGraph", "to_dot", "crystal.export",
     lambda t, a, r: {"crystal.export_bytes": len(r)}),
    ("crystal", "CrystalGraph", "to_json", "crystal.export",
     lambda t, a, r: {"crystal.export_bytes": len(r)}),
    ("tensor", "TensorCrystal", "__init__", "tensor.build", _tensor_counts),
    ("tensor", "TensorCrystal", "component_labels", "tensor.component_labels",
     lambda t, a, r: {"tensor.components": r[1]}),
    ("tensor", "TensorCrystal", "maximal_indices", "tensor.maximal_indices", None),
    # the graph, square and energy a model builds are child spans, so the
    # self time of paths.model is the model with all three prebuilt
    ("paths", "PathModel", "__init__", "paths.model", None),
    ("paths", "PathModel", "generate", "paths.generate", _generate_counts),
    # character and root_character weigh every generated path; their self
    # time is that loop
    ("paths", "PathModel", "character", "paths.weight",
     lambda t, a, r: {"paths.keys": len(r)}),
    ("paths", "PathModel", "root_character", "paths.weight",
     lambda t, a, r: {"paths.keys": len(r)}),
)

MODULES = ("cartan", "roots", "crystal", "tensor", "perfect", "algebra", "paths", "cli")


class Tracer:
    """Collects spans of one process; install once, before any operation."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op, counts]
        self.missing = []
        self.tensor_arrows = {}
        self._local = threading.local()
        self._main = threading.get_ident()
        self._next_id = 0
        self._lock = threading.Lock()
        self._op_span = None
        self._op = None

    def install(self):
        import importlib

        modules = {m: importlib.import_module(f"affine_crystals.{m}") for m in MODULES}
        namespaces = list(modules.values()) + [importlib.import_module("affine_crystals")]
        for mod, attr, name, counts in FUNCTIONS:
            fn = getattr(modules[mod], attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapped = self._wrap(fn, name, counts)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is fn]:
                    setattr(ns, key, wrapped)
        for mod, cls, meth, name, counts in METHODS:
            klass = getattr(modules[mod], cls, None)
            fn = getattr(klass, meth, None)
            if fn is None:
                self.missing.append(f"{mod}.{cls}.{meth}")
                continue
            setattr(klass, meth, self._wrap(fn, name, counts))
        return self

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _wrap(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._op_span
            on_main = threading.get_ident() == tracer._main
            clock = time.perf_counter if on_main else time.thread_time
            sid = tracer._open()
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            tally = counts(tracer, args, result) if counts else None
            tracer.spans.append([sid, name, start, end, parent, tracer._op, tally])
            return result

        return traced

    def begin_op(self, index):
        """Open the span of operation `index`; spans opened until `end_op`
        belong to it."""
        self._op = index
        self._op_span = self._open()
        self._stack().append(self._op_span)

    def end_op(self, name, start, end, counts):
        self._stack().pop()
        self.spans.append([self._op_span, name, start, end, None, self._op, counts])
        self._op_span = None
        self.tensor_arrows.clear()

