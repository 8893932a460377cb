import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product

import pytest

from affine_crystals import cli
from affine_crystals.algebra import energy_propagate
from affine_crystals.cartan import build_datum, swept_types
from affine_crystals.cli import main
from affine_crystals.crystal import CrystalGraph, build_crystal
from affine_crystals.tensor import TensorCrystal


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_dot(capsys):
    code, out, _ = run(capsys, "build", "A2-1", "--format", "dot")
    assert code == 0
    assert out.count("label=") >= 9 + 12  # 9 vertices, 12 edges
    assert sum(1 for line in out.splitlines() if "->" in line) == 12


def test_build_json(capsys):
    code, out, _ = run(capsys, "build", "D4-3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 8
    assert len(data["arrows"]) == 10
    assert data["type"] == "D4-3"


def test_build_deterministic(capsys):
    _, first, _ = run(capsys, "build", "C2-1", "--format", "json")
    _, second, _ = run(capsys, "build", "C2-1", "--format", "json")
    assert first == second


def test_build_bad_type_exits_2(capsys):
    code, _, err = run(capsys, "build", "Z9-9")
    assert code == 2
    assert "Z9-9" in err


def test_verify_single(capsys):
    code, out, _ = run(capsys, "verify", "A4-2")
    assert code == 0
    assert "A4-2: pass" in out


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--max-rank", "3")
    assert code == 0
    assert "FAIL" not in out
    assert "A2-2: pass" in out


def test_verify_json_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--all", "--max-rank", "3", "--json")
    _, second, _ = run(capsys, "verify", "--all", "--max-rank", "3", "--json")
    assert first == second


def test_verify_fails_with_witness_on_corrupted_graph(capsys, monkeypatch):
    # drop the first classical arrow, x[1,0] -> y_1, through the public
    # constructor: y_1 is then left with eps of level 0
    d = build_datum("A2-1")
    g = build_crystal(d)
    arrows = g.arrows()
    dropped = next(a for a in arrows if a[0] >= 1)
    broken = CrystalGraph(
        g.elements, [a for a in arrows if a != dropped], g.n_indices, datum=d
    )
    monkeypatch.setattr(cli, "build_crystal", lambda datum: broken)
    code, out, _ = run(capsys, "verify", "A2-1")
    assert code == 1
    assert out == "A2-1: FAIL\n"
    code, blob, _ = run(capsys, "verify", "A2-1", "--json")
    assert code == 1
    [report] = json.loads(blob)
    assert report["passed"] is False
    failing = {k: v for k, v in report["axioms"].items() if not v["passed"]}
    assert list(failing) == ["eps_level_bound"]
    assert failing["eps_level_bound"]["witness"] == "y_1"


def test_verify_corrupt_flag_is_gone(capsys):
    code, _, err = run(capsys, "verify", "A2-1", "--corrupt")
    assert code == 2
    assert "--corrupt" in err


def test_energy(capsys):
    code, out, _ = run(capsys, "energy", "A2-1", "--format", "json")
    assert code == 0
    table = json.loads(out)
    assert len(table) == 81
    assert table["(x[1,1],x[1,1])"] == 2
    assert table["(empty,empty)"] == 0


@pytest.mark.parametrize("ty", ["A2-1", "C2-1", "A4-2", "D4-3"])
def test_energy_labels_follow_pair_order(capsys, ty):
    g = build_crystal(build_datum(ty))
    pairs = list(product(g.elements, repeat=2))
    _, text, _ = run(capsys, "energy", ty)
    lines = text.splitlines()[1:]
    assert [line.split("\t")[0] for line in lines] == [
        f"{left.label()} (x) {right.label()}" for left, right in pairs
    ]
    _, blob, _ = run(capsys, "energy", ty, "--format", "json")
    assert list(json.loads(blob)) == [
        f"({left.label()},{right.label()})" for left, right in pairs
    ]


@pytest.mark.parametrize("ty", [t.name for t in swept_types(4)])
def test_energy_text_is_one_line_per_pair(capsys, tmp_path, ty):
    g = build_crystal(build_datum(ty))
    t = TensorCrystal(g)
    h = energy_propagate(t)
    pairs = product(g.elements, repeat=2)
    lines = [f"# {ty}: {t.size} pairs, methods agree: True"]
    lines += [f"{left.label()} (x) {right.label()}\t{v}" for (left, right), v in zip(pairs, h)]
    want = "\n".join(lines) + "\n"
    _, text, _ = run(capsys, "energy", ty)
    assert text == want
    target = tmp_path / "energy.txt"
    assert run(capsys, "energy", ty, "--out", str(target)) == (0, "", "")
    assert target.read_text() == want


def test_energy_text_peak_memory_below_its_file(tmp_path):
    # the table goes to its sink row by row: it is never held whole
    target = tmp_path / "energy.txt"
    tracemalloc.start()
    try:
        assert main(["energy", "E8-1", "--out", str(target)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < target.stat().st_size


def test_multiply_table(capsys):
    code, out, _ = run(capsys, "multiply", "D4-3")
    assert code == 0
    data = json.loads(out)
    assert data["node"] == 1
    assert data["embedding_verified"] is True
    assert len(data["order"]) == 7


def test_multiply_without_node_rejected(capsys):
    code, _, err = run(capsys, "multiply", "A4-2")
    assert code == 2


def test_character_with_oracle(capsys):
    code, out, _ = run(capsys, "character", "A1-1", "L0", "--max-degree", "5", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["oracle"]["supported"] is True
    assert data["oracle"]["differences"] == []
    degree0 = [r for r in data["rows"] if r["delta_degree"] == 0]
    assert degree0 == [
        {"classical_weight": [1, 0], "delta_degree": 0, "multiplicity": 1}
    ]


def test_character_oracle_unsupported(capsys):
    code, out, _ = run(capsys, "character", "D4-3", "L0", "--max-degree", "3")
    assert code == 0
    data = json.loads(out)
    assert data["oracle"]["supported"] is False
    assert data["rows"]


def test_character_oracle_shifted_lattice(capsys):
    code, out, _ = run(capsys, "character", "D4-1", "L1", "--max-degree", "3", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["oracle"] == {"supported": True, "differences": []}
    top = {"classical_weight": [0, 1, 0, 0, 0], "delta_degree": 0, "multiplicity": 1}
    assert top in data["rows"]


def test_character_oracle_flags_rows_outside_the_ball(capsys, monkeypatch):
    # rows that no lattice cell looks up: a weight of no point in the ball,
    # and the top weight at a degree past --max-degree
    character = cli.PathModel.character

    def padded(self, max_degree):
        counts = character(self, max_degree)
        counts[((1, 40, -40, 0, 0), -1)] = 7
        counts[((1, 0, 0, 0, 0), -3)] = 2
        return counts

    monkeypatch.setattr(cli.PathModel, "character", padded)
    code, out, _ = run(capsys, "character", "D4-1", "L0", "--max-degree", "2", "--oracle")
    assert code == 1
    assert json.loads(out)["oracle"]["differences"] == [
        {"weight": [1, 40, -40, 0, 0], "degree": 1, "got": 7, "want": 0},
        {"weight": [1, 0, 0, 0, 0], "degree": 3, "got": 2, "want": 0},
    ]


def test_character_echoes_canonical_weight(capsys):
    # the weight is parsed from stripped, upper-cased text; the payload
    # names the weight that was meant, not the text that was typed
    _, canonical, _ = run(capsys, "character", "A2-1", "L0", "--max-degree", "1")
    assert json.loads(canonical)["weight"] == "L0"
    for text in (" l0", "L00", "l0 "):
        code, out, _ = run(capsys, "character", "A2-1", text, "--max-degree", "1")
        assert code == 0 and out == canonical
    _, out, _ = run(capsys, "character", "D4-1", "l03", "--max-degree", "1")
    assert json.loads(out)["weight"] == "L3"


def test_character_negative_degree_rejected(capsys):
    for degree in ("-1", "-5"):
        code, out, err = run(capsys, "character", "A1-1", "L0", "--max-degree", degree)
        assert code == 2 and out == ""
        assert "--max-degree" in err


def test_verify_all_without_families_rejected(capsys):
    code, out, err = run(capsys, "verify", "--all", "--max-rank", "0")
    assert code == 2 and out == ""
    assert "no families" in err


def test_verify_all_rank_above_cap_is_a_usage_error(capsys, monkeypatch):
    # a rank past MAX_RANK fails before any family is built, instead of
    # sweeping up to rank 100
    def refuse(*args):
        raise AssertionError("verify --all built a family")

    monkeypatch.setattr(cli, "_datum", refuse)
    monkeypatch.setattr(cli, "build_crystal", refuse)
    code, out, err = run(capsys, "verify", "--all", "--max-rank", "101")
    assert (code, out, err) == (
        2,
        "",
        "error: --max-rank 101: ranks above 100 are not built\n",
    )


def test_verify_max_rank_needs_all(capsys):
    # --max-rank selects families for --all; on one type it is a usage error
    for argv in (["A4-2", "--max-rank", "3"], ["--max-rank", "3"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == "error: --max-rank applies only with --all\n"
    # --all alone keeps the default of rank 5
    _, default, _ = run(capsys, "verify", "--all")
    _, rank5, _ = run(capsys, "verify", "--all", "--max-rank", "5")
    assert default == rank5
    assert "A5-1: pass" in default and "A6-1" not in default


def test_verify_type_with_all_rejected(capsys):
    code, out, err = run(capsys, "verify", "A2-1", "--all", "--max-rank", "3")
    assert code == 2 and out == ""
    assert "not both" in err


def test_character_bad_weight(capsys):
    code, _, _ = run(capsys, "character", "A2-1", "W9", "--max-degree", "1")
    assert code == 2
    code, _, _ = run(capsys, "character", "E8-1", "L8", "--max-degree", "1")
    assert code == 2  # comark of node 8 is not 1
    # longer than int() reads: a usage error, not a traceback
    code, out, err = run(capsys, "character", "A2-1", "L" + "1" * 4301)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "name, message",
    [
        ("A" + "5" * 5000 + "-1", "rank of 5000 digits is out of range"),
        ("A2-" + "1" * 4301, "twist of 4301 digits is out of range"),
        ("D" + "9" * 20 + "-2", "rank of 20 digits is out of range"),
    ],
)
def test_build_long_rank_or_twist(capsys, name, message):
    # longer than int() reads, or than any rank: a usage error naming the
    # part out of range, not Python's integer-conversion message
    code, out, err = run(capsys, "build", name)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_build_rank_with_leading_zeros(capsys):
    # zeros before the digits count for nothing, as in the weight L01
    _, want, _ = run(capsys, "build", "A2-1")
    code, out, _ = run(capsys, "build", "A" + "0" * 30 + "2-01")
    assert code == 0 and out == want


@pytest.mark.parametrize("text", ["L-0", "L+1", "L0_1", "L 1", "L١"])
def test_character_weight_takes_ascii_digits_only(capsys, text):
    # int() would read each of these as a node number
    code, out, err = run(capsys, "character", "A2-1", text, "--max-degree", "1")
    assert code == 2 and out == ""
    assert f"weight must look like L0, L1, ... (got {text!r})" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "build", "A2-1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("digraph")


def test_out_file_unwritable(tmp_path, capsys):
    # a missing directory and a directory in place of the file: usage
    # errors (exit 2), not a traceback or the verification-failure exit 1
    for target in (tmp_path / "missing" / "graph.dot", tmp_path):
        code, out, err = run(capsys, "build", "A2-1", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["build", "A1-1"], ["verify", "A1-1"], ["character", "A1-1", "L0"]]
)
def test_out_empty_rejected(capsys, argv):
    # an empty --out names no file; it is not the absence of --out
    code, out, err = run(capsys, *argv, "--out", "")
    assert code == 2 and out == ""
    assert err == "error: --out needs a file name\n"


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISM_OPS = [
    ["build", "A2-1", "--format", "json"],
    ["verify", "D4-3", "--json"],
    ["energy", "A2-2", "--format", "json"],
    ["multiply", "D4-3"],
    ["character", "D4-1", "L1", "--max-degree", "2", "--oracle"],
]


@pytest.mark.parametrize("argv", DETERMINISM_OPS, ids=lambda argv: argv[0])
def test_output_independent_of_hash_seed(argv):
    # "all output is deterministic": string hashing, and so the order of
    # any set or dict keyed by labels, must not reach a payload
    outputs = []
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "affine_crystals.cli", *argv],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] != b""


@pytest.mark.parametrize("argv", [["energy", "E8-1"], ["multiply", "E8-1"]], ids=" ".join)
def test_closed_stdout_pipe_exits_quietly(argv):
    # a reader that stops early (`| head -1`) is not an error of the command
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "affine_crystals.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first and (proc.returncode, err) == (0, b"")


# main builds its argparse tree on the first call and reuses it
REUSE_OPS = DETERMINISM_OPS + [
    ["build", "C2-1"],
    ["verify", "--all", "--max-rank", "3"],
    ["energy", "A2-1"],
    ["multiply", "A2-1", "--node", "2"],
]


def test_parser_reuse_keeps_every_payload(capsys):
    firsts = []
    for argv in REUSE_OPS:
        cli._parser.cache_clear()
        firsts.append(run(capsys, *argv))
    # each op again, after all the others, on the one parser of the last op
    for argv, first in zip(REUSE_OPS, firsts):
        assert first[0] == 0 and first[1]
        assert run(capsys, *argv) == first
    assert cli._parser.cache_info().misses == 1


def test_parser_survives_usage_errors_and_help(capsys):
    ok = run(capsys, "build", "A1-1")
    assert ok[0] == 0
    for argv, code, text in [
        (["build", "A1-1", "--format", "png"], 2, "invalid choice"),
        (["nosuchcommand"], 2, "invalid choice"),
        (["character", "A1-1"], 2, "required"),
        (["--help"], 0, "usage: crystal"),
        (["energy", "--help"], 0, "--format"),
    ]:
        got, out, err = run(capsys, *argv)
        assert got == code
        assert text in (err if code else out)
        assert run(capsys, "build", "A1-1") == ok


def test_rebinding_after_parser_exists(capsys, monkeypatch):
    run(capsys, "build", "A1-1")
    seen = []

    def traced(d):
        seen.append(d.type.name)
        return build_crystal(d)

    monkeypatch.setattr(cli, "build_crystal", traced)
    assert run(capsys, "build", "A2-1", "--format", "json")[0] == 0
    assert seen == ["A2-1"]
    monkeypatch.setattr(cli, "cmd_build", lambda args: 7)
    assert run(capsys, "build", "A2-1")[0] == 7


def test_parser_not_built_at_import():
    probe = "import affine_crystals.cli as c; print(c._parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"0\n"


def test_build_rank_above_cap_is_a_usage_error():
    # under a 1 GB address-space limit, set by the child itself: a rank past
    # MAX_RANK fails before any (n+1) x (n+1) Cartan matrix is allocated
    probe = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from affine_crystals.cli import main\n"
        "sys.exit(main(['build', 'A1111111111111111-1']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2,
        "",
        "error: rank 1111111111111111 is out of range for family A^(1) "
        "(ranks above 100 are not built)\n",
    )
