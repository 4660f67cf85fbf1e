import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_simulate_paths_demo_runs():
    # the demo drives the thinning sampler to t = 3000 on one path
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "simulate_paths.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "one path at t=3000: L = [" in proc.stdout
