"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from checks import check  # noqa: E402

SMALL = {
    "ops": [
        "build A2-1 --format json",
        "verify E8-1 --json",
        "energy A2-1 --format json",
        "multiply C2-1",
        "character C2-1 L0 --max-degree 6",
    ],
    "heavy_op": "verify E8-1 --json",
    "implicit_families": {},
}


def declared():
    return run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))


def units():
    spec = declared()
    return {k: {m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer")}


def bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_mode_emits_every_declared_metric(trace, kind):
    proc = bench("--workload", "family-sweep", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 65
    want = {m["name"]: m["unit"] for m in declared()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_pinned_digest_is_a_failure_not_an_error():
    pins = run.load_json(os.path.join(run.BENCH, "pins.json"))
    wrong = {op: {"exit": pins[op]["exit"], "sha256": "0" * 64} for op in SMALL["ops"]}
    result, lines = run.measure("small", SMALL, wrong, units(), 1, 0.0, False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= len(SMALL["ops"])
    assert sum("digest differs" in line for line in lines) == len(SMALL["ops"])


def test_check_never_raises_on_bad_payloads():
    pin = {"exit": 0, "sha256": "0" * 64}
    for op, payload in [
        ("energy E8-1 --format json", "not json"),
        ("character A1-1 L0 --max-degree 2 --oracle", '{"rows": 3}'),
        ("verify --all --max-rank 6 --json", "[1, 2]"),
        ("energy E8-1", ""),
        ("multiply E8-1", "{}"),
    ]:
        outcome = check(op, 0, payload, pin)
        assert outcome["reasons"], op
    assert check("build A2-1", 2, None, None)["reasons"]


def test_paper_counts_are_checked_independently_of_the_pins():
    text = "# E8-1: 62001 pairs, methods agree: True\n" + "a (x) b\t0\n" * 10
    outcome = check("energy E8-1", 0, text, {"exit": 0, "sha256": None})
    assert any("62001" in r for r in outcome["reasons"])


def test_two_seeds_give_identical_digests():
    pins = run.load_json(os.path.join(run.BENCH, "pins.json"))
    os.makedirs(run.BUILD, exist_ok=True)
    digests, orders = [], []
    for seed in (1, 2):
        [(_, result)] = run.sample("small", SMALL, pins, seed, 0.0, False)[2]
        orders.append([o["op"] for o in result["ops"]])
        digests.append({o["op"]: (o["rc"], o["digest"]) for o in result["ops"]})
        assert all(not o["reasons"] for o in result["ops"])
    assert orders[0] != orders[1]
    assert digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "characters", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
