"""Benchmark of the `crystal` command line, end to end and layer by layer.

    python3 bench/run.py --workload square-rank8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each sample is one pass over the workload's operations (bench/spec.json) in
a fresh interpreter, because a CLI user pays every cold cost on every
invocation; the seed only permutes the order of the operations within each
sample.  Every operation runs through affine_crystals.cli.main with --out
and is checked against bench/pins.json (see checks.py).  Between passes,
set-up (import plus build_datum and build_crystal) is timed on its own in
fresh interpreters.  Times are scaled to a reference machine speed (see
PROBE_REF_S).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced samples and reports the per-layer metrics,
with spans recorded around the library calls (tracer.py) and written to
.bench_build/ at the end.  A human-readable summary comes first; the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import collections
import json
import os
import random
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
# set-ups after each pass: two until there are MIN_SETUPS, then one
MIN_SETUPS = 16
# untraced passes run the heavy operation this many times, at seeded
# positions, so its median rests on more samples; every other operation
# runs once per pass
HEAVY_REPEATS = 3
# Times are scaled by PROBE_REF_S / (the probe time measured right before
# and after them; see sample.probe).  On a shared machine the speed of
# Python code swings by up to 60% for seconds at a time, and raw medians of
# 30-second runs then disagree by 20% or more; scaled, by a few percent.
# PROBE_REF_S is the probe's typical time inside a sample on the 2-core x86
# box (Python 3.11) the benchmark was written on, so scaled times read as
# seconds there.  The summary also prints pass_s as measured.
PROBE_REF_S = 0.005
CHILD_TIMEOUT_S = 150
# families whose |B| and timings form the ROADMAP baseline table
BASELINE_FAMILIES = ("A8-1", "C8-1", "E7-1", "E8-1")


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def child(request):
    """Run sample.py on `request` in a fresh interpreter; its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "sample.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{request['mode']} sample exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def setup_families(spec):
    """Every family the workload names, explicitly or through --all."""
    names = []
    for op in spec["ops"]:
        argv = op.split()
        found = spec["implicit_families"].get(op, [argv[1]])
        names.extend(n for n in found if n not in names)
    return names


def square_families(op, spec):
    """Families whose tensor square the operation builds."""
    argv = op.split()
    if argv[0] == "build":
        return []
    return spec["implicit_families"].get(op, [argv[1]])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def sample(name, spec, pins, seed, seconds, trace):
    """Fresh-interpreter passes until `seconds` have passed, each followed
    by timed set-ups; with trace, passes alternate between traced and
    untraced.  Returns (|B| per family, set-up results, passes as (traced,
    result))."""
    deadline = time.monotonic() + seconds
    os.makedirs(BUILD, exist_ok=True)
    setup = {"mode": "setup", "families": setup_families(spec)}
    # the first interpreter compiles the bytecode, so it is not timed
    sizes = child(setup)["sizes"]
    rng = random.Random(f"{name}:{seed}")
    out = os.path.join(BUILD, f"out-{os.getpid()}.txt")
    setups, passes = [], []
    while not passes or time.monotonic() < deadline or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 0
        order = list(spec["ops"])
        if not traced:
            order += [spec["heavy_op"]] * (HEAVY_REPEATS - 1)
        rng.shuffle(order)
        result = child(
            {"mode": "pass", "ops": order, "pins": pins, "out": out, "trace": traced}
        )
        if result.get("missing"):
            print(f"not found, so not traced: {result['missing']}", file=sys.stderr)
        passes.append((traced, result))
        setups.extend(child(setup) for _ in range(2 if len(setups) < MIN_SETUPS else 1))
    return sizes, setups, passes


def factor(record):
    """Scale from a sample's measured time to the reference probe speed."""
    return PROBE_REF_S / record["probe"]


def scaled(record):
    return record["seconds"] * factor(record)


def op_times(samples, value=scaled):
    """{operation: [its time in each sample]}."""
    times = {}
    for result in samples:
        for o in result["ops"]:
            times.setdefault(o["op"], []).append(value(o))
    return times


def median_pass(samples, value=scaled):
    """Sum over the operations of each one's median time."""
    return sum(statistics.median(v) for v in op_times(samples, value).values())


def layer_values(result):
    """Per-layer metrics of one traced pass, derived from its spans."""
    spans = result["spans"]
    scale = [factor(o) for o in result["ops"]]
    child_time = {}
    for sid, name, start, end, parent, op, counts in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start) * scale[op]
    values = {}
    covered = total = 0.0
    for sid, name, start, end, parent, op, counts in spans:
        duration = (end - start) * scale[op]
        own = duration - child_time.get(sid, 0.0)
        if parent is None:
            values[f"{name}.s"] = values.get(f"{name}.s", 0.0) + duration
            values[f"{name}.other_s"] = values.get(f"{name}.other_s", 0.0) + own
            total += duration
            covered += duration - own
        else:
            values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + own
        for key, value in (counts or {}).items():
            if key == "paths.max_depth":
                values[key] = max(values.get(key, 0), value)
            else:
                values[key] = values.get(key, 0) + value
    paths = values.get("paths.paths", 0)
    box = values.get("paths.oracle_box_points", 0)
    values["paths.keys_per_path"] = values.get("paths.keys", 0) / paths if paths else 0.0
    values["paths.oracle_kept_ratio"] = values.get("paths.oracle_points", 0) / box if box else 0.0
    values["trace.coverage"] = covered / total if total else 0.0
    return values


def baseline_rows(traced):
    """ROADMAP baseline table from the traced passes: |B|, pairs, and the
    median inclusive time (ms) of each stage called by `energy F` and
    `verify F`."""
    columns = {
        "build": ("energy", "crystal.build_crystal"),
        "tensor": ("energy", "tensor.build"),
        "propagate": ("energy", "algebra.energy_propagate"),
        "classify": ("energy", "algebra.energy_by_classification"),
        "verify": ("verify", "perfect.verify_perfect"),
    }
    cells = {}
    sizes = {}
    for result in traced:
        ops = [o["op"].split() for o in result["ops"]]
        scale = [factor(o) for o in result["ops"]]
        for sid, name, start, end, parent, op, counts in result["spans"]:
            cmd, family = ops[op][:2]
            if family not in BASELINE_FAMILIES or parent is None:
                continue
            for column, want in columns.items():
                if want == (cmd, name):
                    cells.setdefault((family, column), []).append((end - start) * scale[op] * 1e3)
            if cmd == "energy":
                for key in ("crystal.elements", "tensor.pairs"):
                    if key in (counts or {}):
                        sizes.setdefault(family, {})[key] = counts[key]
    rows = []
    for family in BASELINE_FAMILIES:
        if family in sizes:
            row = [family, sizes[family].get("crystal.elements", "-"),
                   sizes[family].get("tensor.pairs", "-")]
            for column in columns:
                values = cells.get((family, column))
                row.append(f"{statistics.median(values):.1f}" if values else "-")
            rows.append(row)
    return rows


def tally(passes):
    """(attempted, failed, {(op, reason): count}, {op: known defect})."""
    attempted = failed = 0
    failures = collections.Counter()
    defects = {}
    for _, result in passes:
        for o in result["ops"]:
            attempted += 1
            if o["reasons"]:
                failed += 1
                failures[o["op"], "; ".join(o["reasons"])] += 1
            if o["known_defect"]:
                defects[o["op"]] = o["known_defect"]
    return attempted, failed, failures, defects


def end_to_end(spec, sizes, setups, plain):
    """{metric: (value, the per-sample values behind it)} from untraced passes."""
    times = op_times(plain)
    pass_s = median_pass(plain)
    per_pass = [median_pass([r]) for r in plain]
    pairs = sum(sizes[f] ** 2 for op in spec["ops"] for f in square_families(op, spec))
    rss = [r["peak_rss_mb"] for r in plain]
    heavy = spec["heavy_op"]
    return {
        "setup_s": (statistics.median(map(scaled, setups)), [scaled(s) for s in setups]),
        "pass_s": (pass_s, per_pass),
        "heavy_op_s": (statistics.median(times[heavy]), times[heavy]),
        "pairs_per_s": (pairs / pass_s, [pairs / t for t in per_pass]),
        "peak_rss_mb": (statistics.median(rss), rss),
    }


def per_layer(names, traced, pass_s, terms, one_pass, failed, attempted):
    """{metric: value} for the per-layer names, from the traced passes."""
    values = [layer_values(r) for r in traced]
    layer = {m: statistics.median(v.get(m, 0.0) for v in values) for m in names}
    layer.update({
        "terms_per_s": terms / pass_s,
        "cli.failed_frac": failed / attempted,
        "cli.known_defect_ops": sum(1 for o in one_pass if o["known_defect"]),
        "cli.nondeterministic_fields": sum(o["stripped"] for o in one_pass),
        "trace.overhead": median_pass(traced) / pass_s,
    })
    return {m: layer[m] for m in names}


def write_spans(name, seed, traced):
    path = os.path.join(BUILD, f"spans-{name}-seed{seed}.json")
    fields = ("id", "name", "start", "end", "parent", "op", "counts")
    with open(path, "w") as fh:
        json.dump(
            [
                {"ops": [o["op"] for o in r["ops"]],
                 "spans": [dict(zip(fields, span)) for span in r["spans"]]}
                for r in traced
            ],
            fh,
        )
    return os.path.relpath(path, ROOT)


def measure(name, spec, pins, units, seed, seconds, trace):
    """Run one workload; (JSON result, summary lines).

    units maps "end_to_end" and "per_layer" to {metric: unit} as declared in
    BENCHMARK.json; the result reports the per-layer set when tracing.
    """
    sizes, setups, passes = sample(name, spec, pins, seed, seconds, trace)
    plain = [r for traced, r in passes if not traced]
    traced = [r for traced, r in passes if traced]
    attempted, failed, failures, defects = tally(passes)
    e2e = end_to_end(spec, sizes, setups, plain)
    pass_s = e2e["pass_s"][0]
    one_pass = list({o["op"]: o for o in plain[0]["ops"]}.values())
    terms = sum(o["terms"] for o in one_pass)

    lines = [
        f"workload {name}: seed {seed}, {len(spec['ops'])} operations per pass, "
        f"{len(plain)} untraced and {len(traced)} traced passes and {len(setups)} "
        "set-ups, each in a fresh interpreter",
        f"  heavy operation: {spec['heavy_op']}",
        f"  {'metric':<14}{'unit':<7}{'value':>12}{'q1':>12}{'median':>12}{'q3':>12}{'n':>4}",
    ]
    for metric, (value, values) in e2e.items():
        q1, q2, q3 = quartiles(values)
        unit = units["end_to_end"][metric]
        lines.append(
            f"  {metric:<14}{unit:<7}{value:>12.4f}{q1:>12.4f}{q2:>12.4f}{q3:>12.4f}{len(values):>4}"
        )
    wall = median_pass(plain, value=lambda o: o["seconds"])
    lines.append(f"  pass_s as measured, not scaled: {wall:.4f} s")
    lines.append(f"  terms_per_s   1/s    {terms / pass_s:>12.1f}  ({terms} character terms per pass)")
    lines.append(f"  failed_frac   {failed}/{attempted} operations")
    for (op, reason), count in sorted(failures.items()):
        lines.append(f"  FAILED {op}: {reason} ({count}x)")
    for op, reason in sorted(defects.items()):
        lines.append(f"  known defect, not counted as failed: {op}: {reason}")

    if trace:
        names = units["per_layer"]
        chosen = per_layer(names, traced, pass_s, terms, one_pass, failed, attempted)
        lines.append("  per-layer metrics (median over traced passes; *_s are self times)")
        lines.extend(f"    {m:<40}{names[m]:<7}{v:>14.6g}" for m, v in chosen.items())
        rows = baseline_rows(traced)
        if rows:
            header = ["family", "|B|", "pairs", "build", "tensor", "propagate", "classify", "verify"]
            lines.append("  baseline table (ms, traced):")
            lines.extend("    " + "".join(f"{str(c):>10}" for c in row) for row in [header] + rows)
        lines.append(f"  spans written to {write_spans(name, seed, traced)}")
    else:
        names = units["end_to_end"]
        chosen = {m: value for m, (value, _) in e2e.items()}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": chosen[m], "unit": names[m]} for m in names},
    }
    return result, lines


def main(argv=None):
    spec = load_json(os.path.join(BENCH, "spec.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(spec["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=spec["reference_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "affine_crystals", "cli.py")):
        print(f"error: no src/affine_crystals in {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    declared = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    units = {kind: {m["name"]: m["unit"] for m in declared[kind]} for kind in ("end_to_end", "per_layer")}
    pins = load_json(os.path.join(BENCH, "pins.json"))
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = measure(
                name, spec["workloads"][name], pins, units, args.seed, args.seconds, args.trace
            )
            print("\n".join(lines), flush=True)
            results[name] = result
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
