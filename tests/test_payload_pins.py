"""Every benchmark operation still writes its pinned payload.

Runs each operation of bench/pins.json through the CLI, as the benchmark
does, and passes the result to the benchmark's own gate (bench/checks.py):
exit code and sha256 as pinned, plus the independently stated crystal sizes
and lattice-oracle verdicts.  Nothing under bench/ is written.  A few
characters outside the pins are held to their sha256 here.
"""

import hashlib
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


# Wide and deep characters that bench/pins.json does not pin yet: the
# sha256 of each full payload.  The C5-1 and A7-1 weights have the longest
# zero-energy runs below their ground entries (5 and 4).
CHARACTER_DIGESTS = {
    "character E8-1 L0 --max-degree 3":
        "2c5e6cafac824e98421cdd767f34880cca3417beac6b809b09df1241372e3150",
    "character D4-1 L0 --max-degree 10 --oracle":
        "55256587086b1ca7528d2f32220de02d92e6d64da0d9b9f45ceaee5cb8977fbd",
    "character C5-1 L5 --max-degree 4":
        "65a9be68029600eaa75eb6ba912380c47819f98f85683025cb26945acca1656b",
    "character A7-1 L4 --max-degree 4":
        "9d156ad2782f7d0be9b214e033dfe044299e03f3cc8df61fcda38173f979e2b5",
}


@pytest.mark.parametrize("op", sorted(CHARACTER_DIGESTS))
def test_character_payload_digest(op, tmp_path):
    out = tmp_path / "payload"
    assert cli.main(op.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHARACTER_DIGESTS[op]
