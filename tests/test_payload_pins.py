"""Every benchmark operation still writes its pinned payload.

Runs each operation of bench/pins.json through the CLI, as the benchmark
does, and passes the result to the benchmark's own gate (bench/checks.py):
exit code and sha256 as pinned, plus the independently stated crystal sizes
and lattice-oracle verdicts.  Nothing under bench/ is written.  A few
characters and multiplication tables outside the pins are held to their
sha256 here.
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

# Multiplication tables that bench/pins.json does not pin: the sha256 of
# each full payload at every valid node of every family of swept_types(8).
# The A<r>-1 --node r tables hold the embedding at the far end of the chain.
MULTIPLY_DIGESTS = {
    "multiply A2-1 --node 2":
        "840f0544e55d9ce045baf2d063bef9cb176e9873019370e6fbde0d1a2494d930",
    "multiply A3-1 --node 3":
        "c72cb18137fe4e232d0f201faa0fd6ea5ce51b72495c10acbd5a09b101666856",
    "multiply A4-1 --node 4":
        "31d475e012a73df84b5d43d213ed1fc69e4b472d2a6dd2df8bc4bc86439ac861",
    "multiply A5-1 --node 5":
        "6d1e1ceb38487ed5cb53441ffdb2e162ef10293a8afb5109e236980c0164e3a7",
    "multiply A6-1 --node 1":
        "fe3f0c8ca1def313f60d932c47a5f32e988d3bcf97cbf1aec4c4e99a68042087",
    "multiply A6-1 --node 6":
        "eeefbc9e7391d00c6db9dc3abd0554a9b9c3691c18e187aee67e20253a82e441",
    "multiply A7-1 --node 1":
        "93d4513af17b3c6ab8db48bfaf96245ca9dbe161b416b1b7aabb3f0db7f8b179",
    "multiply A7-1 --node 7":
        "72516c58242b7d854cef25fa8e3977761b6d5b8df85d69ca182899a8688af542",
    "multiply A8-1 --node 1":
        "78e1eb2d9956b973c86954654b8c7386b2de3aac89e9d1691bc5398d69943b55",
    "multiply A8-1 --node 8":
        "64b3147a8b1a077340964702436016688eebdb8f2dd3f224bb92501d36c3d10c",
    "multiply B6-1 --node 2":
        "1f1154bc422ab12c853a15279f9c5163e8934cd61d5522760524792c20a49972",
    "multiply B7-1 --node 2":
        "e5ec98df0ee57e77d9f64e93fc15e1e16acba9710ac7dc748b07edbcce3d7dc5",
    "multiply B8-1 --node 2":
        "ea11e25ce9b85a237f30395a8a1e429c89a6d23fc00582416bc7c1f07495c7fb",
    "multiply C6-1 --node 1":
        "12556461c53c895205194f84d58809a272448e310e5fc69092dd622b500cef55",
    "multiply C7-1 --node 1":
        "a8cbe4ec88d49378275118a3b9c50dbb64ce653e8d21470c07342b437e324a2c",
    "multiply D6-1 --node 2":
        "9a655ed17bac29f09736f4bf83c660c3a588fcff394c7be3372937152a29dfca",
    "multiply D7-1 --node 2":
        "1fef4b05403f42b6a9ac64c0118381eb6293c95d52e19fead203c19289a55f2d",
    "multiply D8-1 --node 2":
        "f19789a445b31e708167bcf47384fded834d86aff3c9d576193b628bca03d542",
    "multiply A7-2 --node 2":
        "d668ec5c0b22105e5abe7c566a3241c86ad7a5ce527fcead99b40ee6c42ab9d7",
    "multiply E6-1 --node 6":
        "d694b92dbe5c1e47e1bf7eb00ec3fc5d8f6c6f9c58fce78e56552608038105e3",
    "multiply E7-1 --node 1":
        "2f8703e9cdb0500b69b59e5902a76d5046d4448274adf3514895fb0ac32b70fb",
    "multiply E6-2 --node 1":
        "b880cde5024964e5a8c869aebeb4a020c5b8d25e895dcff5d83fd771a085fec8",
}


@pytest.mark.parametrize("op", sorted(MULTIPLY_DIGESTS))
def test_multiply_payload_digest(op, tmp_path):
    out = tmp_path / "payload"
    assert cli.main(op.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MULTIPLY_DIGESTS[op]


# `verify --all` reports that bench/pins.json does not pin: the sha256 of
# each full payload, so every detail, witness and minimal-element label of
# the sweep is held.
VERIFY_DIGESTS = {
    "verify --all --max-rank 8 --json":
        "ef3e052c203a589a804a0a35e820e812be639dd5008570e4086cb87d096cf3da",
    "verify --all --max-rank 20":
        "6f5972b5a18f472ff73ea649742490d689957abdbec85cd847ee9b9bc11976d2",
}


@pytest.mark.parametrize("op", sorted(VERIFY_DIGESTS))
def test_verify_payload_digest(op, tmp_path):
    out = tmp_path / "payload"
    assert cli.main(op.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_DIGESTS[op]
