"""A command loads the modules it runs and nothing else.

A header-only `qmcstream estimate` runs the one-pass estimator, so it must
not pay for loading the exact oracles, the relaxation, the DIHP harness or
the Fourier toolbox. Its order is pinned too: the stream-weighted benchmark
moves by about 10% with module load order alone, so a change to the order
should be deliberate: update ORDER here and say why in the change's record.
`qmcstream relax` loads the relaxation alone, without the oracles or the
Fourier toolbox, `qmcstream exact` loads the oracles without the Fourier
toolbox or its linear algebra (the QMC operator knows its own spin sector),
and `qmcstream wexact` loads the graph module alone: the edge-list reader
lives there and does not load the estimator.

``sys.modules`` lists a module when it has finished loading, so the package
comes first, and ``qmcstream.cli`` comes before the estimator that
``cmd_estimate`` imports when it runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORDER = [
    "qmcstream",
    "qmcstream.graph",
    "qmcstream.cli",
    "qmcstream.rng",
    "qmcstream.estimator",
]

NOT_LOADED = ["oracles", "fourier", "linalg", "relaxation", "dihp", "fourier_suite"]

RELAX_LOADS = {"qmcstream", "qmcstream.graph", "qmcstream.cli", "qmcstream.rng", "qmcstream.relaxation"}

RELAX_NOT_LOADED = ["oracles", "fourier", "linalg", "dihp", "estimator"]

EXACT_LOADS = {"qmcstream", "qmcstream.graph", "qmcstream.cli", "qmcstream.rng", "qmcstream.oracles"}

WEXACT_LOADS = {"qmcstream", "qmcstream.graph", "qmcstream.cli"}

PROBE = """
import contextlib, io, sys
from qmcstream import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["{command}", "--input", "-"])
print(code)
print("\\n".join(name for name in sys.modules if name.split(".")[0] == "qmcstream"))
"""


def loaded_modules(command, stdin):
    """The qmcstream modules one `command` run loads, in the order they finished."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(command=command)],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    return loaded


def test_cli_import_loads_modules_in_order():
    loaded = loaded_modules("estimate", "n 4\n")
    assert not {f"qmcstream.{name}" for name in NOT_LOADED} & set(loaded)
    assert loaded == ORDER


def test_relax_loads_the_relaxation_alone():
    loaded = loaded_modules("relax", "n 3\n0 1\n1 2\n0 2\n")
    assert not {f"qmcstream.{name}" for name in RELAX_NOT_LOADED} & set(loaded)
    assert set(loaded) == RELAX_LOADS


def test_wexact_loads_the_graph_module_alone():
    assert set(loaded_modules("wexact", "n 3\n0 1\n1 2\n0 2 3/2\n# per line\n")) == WEXACT_LOADS


def test_exact_loads_the_oracles_alone():
    assert set(loaded_modules("exact", "n 3\n0 1\n1 2\n0 2\n")) == EXACT_LOADS
