"""The package's modules load in a fixed order.

The stream-weighted benchmark moves by about 10% with module load order
alone, so a change to the order should be deliberate: update ORDER here and
say why in the change's record.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORDER = [
    "qmcstream.graph",
    "qmcstream.linalg",
    "qmcstream.fourier",
    "qmcstream.rng",
    "qmcstream.oracles",
    "qmcstream.estimator",
    "qmcstream.relaxation",
    "qmcstream.dihp",
    "qmcstream.fourier_suite",
    "qmcstream",
    "qmcstream.cli",
]

PROBE = """
import sys
import qmcstream.cli
print("\\n".join(name for name in sys.modules if name.split(".")[0] == "qmcstream"))
"""


def test_cli_import_loads_modules_in_order():
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ORDER
