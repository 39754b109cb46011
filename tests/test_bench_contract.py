"""The benchmark's tracer wraps qmcstream functions by name.

Renaming or removing one of them breaks traced benchmark runs; this test
makes that a tier-1 failure instead.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = sys.argv[1:]
from tracer import Tracer
Tracer(alloc=True).install()
"""


def test_tracer_installs_on_every_target():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
