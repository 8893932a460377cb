"""Every benchmark operation still writes its pinned payload.

Runs each operation of bench/pins.json through the CLI, as the benchmark
does, and passes the result to the benchmark's own gate (bench/checks.py):
exit code and sha256 as pinned, plus the independently stated crystal sizes
and lattice-oracle verdicts.  Nothing under bench/ is written.
"""

import importlib.util
import json
import os

import pytest

from affine_crystals import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_checks():
    spec = importlib.util.spec_from_file_location(
        "bench_checks", os.path.join(BENCH, "checks.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()

with open(os.path.join(BENCH, "pins.json")) as fh:
    PINS = json.load(fh)


@pytest.mark.parametrize("op", sorted(PINS))
def test_payload_matches_pin(op, tmp_path):
    out = tmp_path / "payload"
    try:
        rc = cli.main(op.split() + ["--out", str(out)])
    except SystemExit as exc:
        rc = exc.code
    payload = out.read_text() if out.exists() else None
    assert checks.check(op, rc, payload, PINS[op])["reasons"] == []
