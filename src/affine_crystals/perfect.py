"""Verification of the level-1 perfect crystal axioms.

Existence of the underlying quantum module is asserted by the uniform
construction and recorded as such; the connectivity, weight-cone, level
bound and minimal-element axioms are machine-checked with witnesses on
failure.
"""

import json
from dataclasses import dataclass, field

from .cartan import level, level_one_dominants
from .crystal import XRoot, build_crystal
from .roots import theta
from .tensor import TensorCrystal


@dataclass
class AxiomResult:
    passed: bool
    detail: str = ""
    witness: str = ""

    def to_json_dict(self):
        out = {"passed": self.passed, "detail": self.detail}
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class PerfectReport:
    type_name: str
    axioms: dict = field(default_factory=dict)
    minimal_elements: dict = field(default_factory=dict)

    @property
    def all_passed(self):
        return all(r.passed for r in self.axioms.values())

    def to_json_dict(self):
        return {
            "type": self.type_name,
            "level": 1,
            "passed": self.all_passed,
            "axioms": {k: v.to_json_dict() for k, v in self.axioms.items()},
            "minimal_elements": self.minimal_elements,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def minimal_elements(d, graph):
    """For each level-1 dominant Lambda, the unique b with eps(b) = Lambda
    and the unique b with phi(b) = Lambda.

    Raises ValueError with a witness when existence or uniqueness fails.
    """
    out = {}
    for lam in level_one_dominants(d):
        ups = [b for b in graph.elements if graph.eps_vec(b).coeffs == lam.coeffs]
        downs = [b for b in graph.elements if graph.phi_vec(b).coeffs == lam.coeffs]
        i = lam.coeffs.index(1)
        if len(ups) != 1 or len(downs) != 1:
            raise ValueError(
                f"Lambda_{i}: {len(ups)} eps-preimages, {len(downs)} phi-preimages"
            )
        out[i] = (ups[0], downs[0])
    return out


def verify_perfect(d, graph=None, tensor=None):
    """Check the machine-checkable level-1 axioms for one family."""
    if graph is None:
        graph = build_crystal(d)
    if tensor is None:
        tensor = TensorCrystal(graph)
    report = PerfectReport(type_name=d.type.name)

    report.axioms["module_asserted"] = AxiomResult(
        True, "underlying module asserted by the uniform construction, not machine-verified"
    )

    _, count = tensor.component_labels(omit_zero=False)
    report.axioms["tensor_square_connected"] = AxiomResult(
        count == 1,
        f"B(x)B has {count} component(s) over {tensor.size} pairs",
        "" if count == 1 else "multiple components",
    )

    # weights lie under theta in the (1/d0)-scaled cone, with a unique top
    th = theta(d)
    d0 = d.d0
    bad = None
    for b in graph.elements:
        diff = th - graph.root_weight(b)
        if not diff.is_nonneg():
            bad = b
            break
        if d0 == 1 and any(t % 2 != 0 for t in diff.twice):
            bad = b
            break
    top_weight = graph.weight_of(XRoot(th)).coeffs
    top_count = sum(
        1 for b in graph.elements if graph.weight_of(b).coeffs == top_weight
    )
    ok3 = bad is None and top_count == 1
    report.axioms["weight_cone"] = AxiomResult(
        ok3,
        f"lambda_0 = theta, |B_lambda0| = {top_count}",
        "" if ok3 else (bad.label() if bad else f"{top_count} top-weight elements"),
    )

    # <c, eps(b)> >= 1 everywhere
    low = [b for b in graph.elements if level(graph.eps_vec(b), d) < 1]
    report.axioms["eps_level_bound"] = AxiomResult(
        not low,
        "min <c, eps(b)> = "
        + str(min(level(graph.eps_vec(b), d) for b in graph.elements)),
        low[0].label() if low else "",
    )

    # unique minimal elements for every level-1 dominant weight
    try:
        table = minimal_elements(d, graph)
        report.minimal_elements = {
            f"Lambda_{i}": {"b_upper": up.label(), "b_lower": lo.label()}
            for i, (up, lo) in sorted(table.items())
        }
        report.axioms["minimal_elements"] = AxiomResult(
            True, f"{len(table)} level-1 dominant weight(s)"
        )
    except ValueError as err:
        report.axioms["minimal_elements"] = AxiomResult(False, str(err), str(err))

    return report
