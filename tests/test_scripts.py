"""Smoke runs of the command-line scripts under scripts/ with tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("estimator_convergence.py", ["--n", "12", "--trials", "2"]),
        ("protocol_harness.py", ["--n", "8", "--alpha-n", "2", "--t-players", "2", "--trials", "2"]),
        ("separation_scaling.py", ["--trials", "2"]),
    ],
)
def test_script_exits_zero(script, args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
