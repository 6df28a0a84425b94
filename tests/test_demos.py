"""Every demo script runs to completion at its smallest settings."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEMOS = {
    "adra_tuning.py": ["--n-max", "19"],
    "error_vs_age.py": ["--max-age", "3"],
    "protocol_comparison.py": ["--reps", "1", "--n", "3", "--jobs", "2"],
    "pendulum_study.py": ["--reps", "1"],
    "theory_check.py": ["--reps", "1"],
}


@pytest.mark.parametrize("script, args", DEMOS.items(), ids=list(DEMOS))
def test_demo_runs(script, args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
