"""Write bench/pins.json: the exit code and payload digest of every operation.

    python3 bench/pin.py

Runs every workload twice, in two different operation orders, each pass in
a fresh interpreter, and refuses to pin if the two passes disagree.  Run it
only when an output is meant to change, and review the diff of pins.json.
"""

import json
import os
import random
import sys

from run import BENCH, BUILD, child, load_json


def main():
    spec = load_json(os.path.join(BENCH, "spec.json"))
    os.makedirs(BUILD, exist_ok=True)
    out = os.path.join(BUILD, "pin-out.txt")
    pins = {}
    for name, workload in spec["workloads"].items():
        seen = []
        for seed in (1, 2):
            order = list(workload["ops"])
            random.Random(seed).shuffle(order)
            result = child({"mode": "pass", "ops": order, "pins": {}, "out": out, "trace": False})
            seen.append({o["op"]: {"exit": o["rc"], "sha256": o["digest"]} for o in result["ops"]})
        if seen[0] != seen[1]:
            differ = sorted(op for op in seen[0] if seen[0][op] != seen[1][op])
            sys.exit(f"{name}: outputs differ between two passes: {differ}")
        pins.update(seen[0])
    with open(os.path.join(BENCH, "pins.json"), "w") as fh:
        json.dump(dict(sorted(pins.items())), fh, indent=2)
        fh.write("\n")
    print(f"pinned {len(pins)} operations")


if __name__ == "__main__":
    main()
