import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_simulate_paths_demo_runs():
    # the demo drives the thinning sampler to t = 3000 on one path
    assert "one path at t=3000: L = [" in run_demo("simulate_paths.py")


@pytest.mark.parametrize("name, expected", [
    ("decay_curve.py", "variational ball rate: "),
    ("fixed_points.py", "autochemotaxis, closed-form check:"),
    ("rate_functions.py", "same target under the reinforcement field: "),
])
def test_demo_runs(name, expected):
    assert expected in run_demo(name)
