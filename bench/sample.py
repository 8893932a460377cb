"""One benchmark sample, run in a fresh interpreter by run.py.

Reads one JSON request on stdin and writes one JSON result on stdout:

  {"mode": "setup", "families": [...]}
      import affine_crystals, then build_datum and build_crystal for every
      family; returns the time taken and |B| per family.
  {"mode": "pass", "ops": [...], "pins": {...}, "out": path, "trace": bool}
      run each operation through affine_crystals.cli.main(argv + ["--out",
      out]) in the order given, timing each call and checking its output;
      with trace, also return the spans recorded around the library calls.

Each timed region is preceded and followed by `probe`, and its result
carries the mean of the two probe times, so run.py can scale the time to a
reference machine speed.

The package is imported from src/ of the checkout that holds this file and
nowhere else.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


PROBE_LOOPS = 24000


def probe():
    """Seconds taken by a fixed piece of pure-Python work that touches no
    part of the program: a gauge of how fast the machine runs Python now."""
    start = time.perf_counter()
    counts = {}
    for i in range(PROBE_LOOPS):
        key = i % 977
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def _import_package():
    sys.path.insert(0, SRC)
    import affine_crystals

    where = os.path.dirname(os.path.abspath(affine_crystals.__file__))
    if where != os.path.join(SRC, "affine_crystals"):
        raise SystemExit(f"affine_crystals imported from {where}, not from {SRC}")
    return affine_crystals


def setup(families):
    before = probe()
    start = time.perf_counter()
    package = _import_package()
    sizes = {
        name: len(package.build_crystal(package.build_datum(name))) for name in families
    }
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "probe": (before + probe()) / 2, "sizes": sizes}


def _call(main, argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_pass(ops, pins, out, trace):
    _import_package()
    from affine_crystals import cli

    from checks import check

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    results = []
    before = probe()
    for index, op in enumerate(ops):
        argv = op.split() + ["--out", out]
        if os.path.exists(out):
            os.remove(out)
        if tracer:
            tracer.begin_op(index)
        error = None
        start = time.perf_counter()
        try:
            rc = _call(cli.main, argv)
        except Exception as exc:  # a crashing operation fails; the sample goes on
            rc, error = None, f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        after = probe()
        payload = None
        if os.path.exists(out):
            with open(out) as fh:
                payload = fh.read()
        if tracer:
            size = len(payload) if payload is not None else 0
            tracer.end_op(f"cli.{argv[0]}", start, end, {"cli.output_bytes": size})
        outcome = check(op, rc, payload, pins.get(op))
        if error:
            outcome["reasons"].insert(0, error)
        outcome.update(op=op, seconds=end - start, probe=(before + after) / 2, rc=rc)
        results.append(outcome)
        before = after
    if os.path.exists(out):
        os.remove(out)
    result = {
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    return result


def main():
    request = json.load(sys.stdin)
    if request["mode"] == "setup":
        result = setup(request["families"])
    else:
        result = run_pass(request["ops"], request["pins"], request["out"], request["trace"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
