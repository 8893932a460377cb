"""Command-line front end: build, verify, energy, multiply, character.

Exit codes: 0 on success, 1 on verification failure, 2 on usage errors.
All output goes to stdout unless --out is given; runs are deterministic.
"""

import argparse
import functools
import json
import os
import sys
from itertools import chain

from .algebra import (
    _pair_rows,
    build_psi,
    energy_by_classification,
    energy_propagate,
    energy_table_json,
    multiplication_table_json,
    valid_psi_indices,
    verify_psi,
)
from .cartan import MAX_RANK, build_datum, level_one_nodes, parse_type, swept_types
from .crystal import build_crystal
from .paths import (
    OracleUnsupported,
    PathModel,
    character_json,
    check_lattice_node,
    oracle_cells,
)
from .perfect import verify_perfect
from .roots import root_label
from .tensor import TensorCrystal


def _emit(chunks, out):
    """Write an iterable of string chunks to the file ``out``, or to stdout.

    A bare ``str`` is wrapped in a list: ``writelines`` would write it one
    character at a time.  When a reader closes stdout early (``| head``),
    the rest of the output is dropped: stdout's descriptor is pointed at
    ``os.devnull`` so the interpreter's final flush does not fail again,
    and the command's own exit code stands.
    """
    if isinstance(chunks, str):
        chunks = [chunks]
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    except OSError as err:
        _usage_error(f"cannot write {out}: {err.strerror}")


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _datum(type_name):
    try:
        return build_datum(parse_type(type_name))
    except ValueError as err:
        _usage_error(err)


def cmd_build(args):
    d = _datum(args.type)
    g = build_crystal(d)
    _emit(g.to_dot() if args.format == "dot" else g.to_json(), args.out)
    return 0


def cmd_verify(args):
    if args.all and args.type:
        _usage_error("give a type or --all, not both")
    if args.all:
        max_rank = 5 if args.max_rank is None else args.max_rank
        if max_rank > MAX_RANK:
            _usage_error(f"--max-rank {max_rank}: ranks above {MAX_RANK} are not built")
        types = swept_types(max_rank, with_exceptional=False)
        if not types:
            _usage_error(f"no families of rank <= {max_rank}")
        datums = map(build_datum, types)
    else:
        if args.max_rank is not None:
            _usage_error("--max-rank applies only with --all")
        if not args.type:
            _usage_error("give a type or --all")
        datums = [_datum(args.type)]
    reports = [verify_perfect(build_crystal(d)) for d in datums]
    if args.json:
        text = json.dumps(reports, indent=2) + "\n"
    else:
        text = "".join(
            f"{rep['type']}: {'pass' if rep['passed'] else 'FAIL'}\n" for rep in reports
        )
    _emit(text, args.out)
    return 0 if all(rep["passed"] for rep in reports) else 1


def cmd_energy(args):
    d = _datum(args.type)
    g = build_crystal(d)
    tensor = TensorCrystal(g)
    h1 = energy_propagate(tensor)
    h2 = energy_by_classification(tensor)
    agree = h1 == h2
    if args.format == "json":
        chunks = energy_table_json(tensor, h1)
    else:
        labels = [b.label() for b in g.elements]
        heads = [label + " (x) " for label in labels]
        tails = [label + "\t" for label in labels]
        rows = _pair_rows(heads, tails, h1, {v: f"{v}\n" for v in set(h1)})
        chunks = chain([f"# {d.type.name}: {tensor.size} pairs, methods agree: {agree}\n"], rows)
    _emit(chunks, args.out)
    return 0 if agree else 1


def cmd_multiply(args):
    d = _datum(args.type)
    g = build_crystal(d)
    choices = valid_psi_indices(g)
    if not choices:
        _usage_error(f"{d.type.name} has no node adjacent to 0 carrying a y element")
    i = args.node if args.node is not None else choices[0]
    try:
        psi = build_psi(g, i)
    except ValueError as err:
        _usage_error(err)
    ok, witness = verify_psi(g, psi, i)
    _emit(multiplication_table_json(g, psi, i, ok, witness), args.out)
    return 0 if ok else 1


def _parse_weight(text, d):
    t = text.strip().upper()
    digits = t[1:]
    if t[:1] != "L" or not (digits.isascii() and digits.isdigit()):
        _usage_error(f"weight must look like L0, L1, ... (got {text!r})")
    digits = digits.lstrip("0") or "0"
    # lengths first: int() refuses strings of 4301 digits or more
    if len(digits) > len(str(d.n)) or int(digits) > d.n:
        _usage_error(f"Lambda_{digits} is out of range for {d.type.name}")
    i = int(digits)
    if i not in level_one_nodes(d):
        _usage_error(f"Lambda_{i} is not level 1 for {d.type.name}")
    return i


def cmd_character(args):
    d = _datum(args.type)
    node = _parse_weight(args.weight, d)
    if args.max_degree < 0:
        _usage_error(f"--max-degree must be >= 0 (got {args.max_degree})")
    counts = PathModel(build_crystal(d), node).character(args.max_degree)
    try:
        check_lattice_node(d, node)
    except OracleUnsupported as err:
        oracle = {"supported": False, "reason": str(err)}
    else:
        oracle = {"supported": True, "checked": False}
    if args.oracle and oracle["supported"]:
        diffs, weights, matched = [], set(), 0
        for beta, weight, wants in oracle_cells(d, args.max_degree, node):
            weights.add(weight)
            for deg, want in enumerate(wants):
                got = counts.get((weight, -deg))
                if got is None:
                    got = 0
                else:
                    matched += 1
                if got != want:
                    diffs.append(
                        {"beta": root_label(beta), "degree": deg, "got": got, "want": want}
                    )
        # a row whose key no cell matched lies outside the ball: want 0
        if matched < len(counts):
            diffs += [
                {"weight": list(coeffs), "degree": -delta, "got": got, "want": 0}
                for (coeffs, delta), got in counts.items()
                if coeffs not in weights or not 0 <= -delta <= args.max_degree
            ]
        oracle = {"supported": True, "differences": diffs}
    _emit(character_json(d.type.name, f"L{node}", counts, oracle), args.out)
    return 1 if oracle.get("differences") else 0


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="crystal",
        description="Level-1 perfect crystals: graphs, verification, energy, "
        "crystal algebra, and path characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit the crystal graph")
    p.add_argument("type")
    p.add_argument("--format", choices=["dot", "json"], default="dot")

    p = sub.add_parser("verify", help="check the level-1 axioms")
    p.add_argument("type", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--max-rank", type=int, help="with --all (default 5)")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("energy", help="energy table by both methods")
    p.add_argument("type")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("multiply", help="crystal algebra multiplication table")
    p.add_argument("type")
    p.add_argument("--node", type=int, default=None)

    p = sub.add_parser("character", help="truncated character of a basic weight")
    p.add_argument("type")
    p.add_argument("weight", help="L0, L1, ...")
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("--oracle", action="store_true")
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv=None):
    """Run one command.  The parser is built once per process; ``cmd_*`` is
    looked up in this module at each call, so rebinding a name here works."""
    args = _parser().parse_args(argv)
    if args.out == "":
        _usage_error("--out needs a file name")
    return globals()["cmd_" + args.command](args)


if __name__ == "__main__":
    sys.exit(main())
