import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(script, cwd, text=True):
    """Run one demo in cwd (demo 01 writes a2-1.dot there)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=text,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script,line,count",
    [
        ("01_crystal_graphs.py", "Wrote a2-1.dot", 1),
        ("03_energy_function.py", "methods agree: True", 5),
        ("04_crystal_algebra.py", "verified as a crystal morphism: True", 1),
    ],
)
def test_demo_runs(script, line, count, tmp_path):
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(line) == count


def test_path_characters_demo_runs(tmp_path):
    proc = _run("05_path_characters.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "0 differences" in proc.stdout


def test_perfectness_demo_is_deterministic(tmp_path):
    runs = [_run("02_perfectness.py", tmp_path, text=False) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert b"swept 27 families" in runs[0].stdout


def _readme_python(heading):
    """The python block of the README section under ``## heading``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs_as_written(capsys):
    namespace = {}
    exec(_readme_python("Library quick start"), namespace)
    assert capsys.readouterr().out == "[0, 1, 2]\n"
    assert len(namespace["graph"]) == 11
    assert namespace["report"]["passed"] is True
    assert namespace["model"].datum is namespace["d"]
    assert namespace["coefficients"][((1, 0, 0), 0)] == 1
