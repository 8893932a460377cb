import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_path_characters_demo_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "05_path_characters.py")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "0 differences" in proc.stdout


def test_perfectness_demo_is_deterministic(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = [
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "demos", "02_perfectness.py")],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            timeout=120,
        )
        for _ in range(2)
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert b"swept 27 families" in runs[0].stdout
