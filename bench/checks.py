"""Correctness gate for one benchmark operation.

An operation passes when its exit code and the sha256 of its payload match
the values pinned in pins.json, and when the counts stated independently of
the program hold: the paper's |B| and pair counts for the rank-8 families,
and the lattice oracle's verdict on the untwisted ADE basic weight.
`check` never raises: every problem becomes a reason in the outcome.
"""

import hashlib
import json

# |B| as stated in the paper and in the ROADMAP baseline table.
CRYSTAL_SIZES = {"E8-1": 249, "E7-1": 134, "C8-1": 137, "A8-1": 81}

# Operations whose output shows a known defect.  They pass the gate in the
# defective form (pinned exit code, spurious oracle differences) and in the
# fixed form (exit 0, no differences), as long as their rows keep the pinned
# digest; the defective form is reported as a known defect.
KNOWN_DEFECTS = {
    "character D4-1 L1 --max-degree 3 --oracle": (
        "the lattice oracle covers Lambda_0 only, so Lambda_1 shows "
        "spurious differences and exits 1"
    ),
}

# Fields that differ between two runs of the same command; stripped before
# hashing and counted, so the defect stays visible until it is fixed.
NONDETERMINISTIC_FIELDS = ("elapsed_seconds",)


def parse_op(op):
    """(command, type name or None, argv) of an operation string."""
    argv = op.split()
    type_name = argv[1] if len(argv) > 1 and not argv[1].startswith("--") else None
    return argv[0], type_name, argv


def digest_input(op, payload):
    """(bytes to hash, number of fields stripped, parsed JSON or None).

    Raises ValueError when a payload that must be JSON is not.
    """
    cmd, _, argv = parse_op(op)
    if cmd == "character":
        data = json.loads(payload)
        return json.dumps(data["rows"]).encode(), 0, data
    if cmd == "verify" and "--json" in argv:
        reports = json.loads(payload)
        stripped = 0
        for report in reports:
            for name in NONDETERMINISTIC_FIELDS:
                if name in report:
                    del report[name]
                    stripped += 1
        return json.dumps(reports, indent=2).encode(), stripped, reports
    as_json = cmd == "multiply" or "json" in argv
    return payload.encode(), 0, json.loads(payload) if as_json else None


def size_reasons(op, payload, data):
    """Mismatches against the independently stated |B| and |B|^2."""
    cmd, type_name, argv = parse_op(op)
    size = CRYSTAL_SIZES.get(type_name)
    if size is None:
        return []
    if cmd == "energy" and data is None:
        lines = payload.splitlines()
        header = f"# {type_name}: {size * size} pairs, methods agree: True"
        if not lines or lines[0] != header:
            return [f"header is not {header!r}"]
        got = len(lines) - 1
    elif cmd == "energy":
        got = len(data)
    elif cmd == "build" and data is None:
        got = sum(1 for line in payload.splitlines() if "[label=" in line and "->" not in line)
    elif cmd == "build":
        got = len(data["elements"])
    elif cmd == "multiply":
        got = len(data["order"]) + 1  # the domain leaves out the empty element
    else:
        return []
    want = size * size if cmd == "energy" else size
    return [] if got == want else [f"{got} entries, the paper gives {want}"]


def oracle_reasons(op, rc, data, pinned_exit):
    """(reasons, known defect) from the lattice oracle's verdict."""
    _, _, argv = parse_op(op)
    if "--oracle" not in argv:
        return [], None
    oracle = data.get("oracle", {})
    if not oracle.get("supported"):
        return [], None
    diffs = oracle.get("differences")
    if op in KNOWN_DEFECTS:
        if rc == pinned_exit and diffs:
            return [], f"{KNOWN_DEFECTS[op]} ({len(diffs)} differences)"
        if rc == 0 and diffs == []:
            return [], None
        return [f"exit {rc} with {len(diffs or [])} oracle differences"], None
    if diffs != []:
        return [f"lattice oracle reports {len(diffs or [])} differences"], None
    return [], None


def check(op, rc, payload, pin):
    """Outcome of one operation: a dict with reasons (empty when it passed),
    known_defect, stripped fields, character terms and the digest."""
    outcome = {"reasons": [], "known_defect": None, "stripped": 0, "terms": 0, "digest": None}
    reasons = outcome["reasons"]
    if pin is None:
        reasons.append("no pinned exit code and digest")
        pin = {}
    pinned_exit = pin.get("exit")
    if payload is None:
        reasons.append(f"exit {rc} and no payload")
        return outcome
    try:
        raw, outcome["stripped"], data = digest_input(op, payload)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        reasons.append(f"payload does not parse: {type(err).__name__}: {err}")
        return outcome
    outcome["digest"] = hashlib.sha256(raw).hexdigest()
    if pin and outcome["digest"] != pin.get("sha256"):
        reasons.append("payload digest differs from the pinned one")
    try:
        reasons.extend(size_reasons(op, payload, data))
        if data is not None and parse_op(op)[0] == "character":
            outcome["terms"] = sum(row["multiplicity"] for row in data["rows"])
            oracle, outcome["known_defect"] = oracle_reasons(op, rc, data, pinned_exit)
            reasons.extend(oracle)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        reasons.append(f"payload has an unexpected shape: {type(err).__name__}: {err}")
    if op not in KNOWN_DEFECTS and pin and rc != pinned_exit:
        reasons.append(f"exit {rc}, pinned {pinned_exit}")
    return outcome
