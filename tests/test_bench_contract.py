"""The benchmark calls qmcstream functions by name and in fixed shapes.

bench/tracer.py wraps functions by name, and bench/worker.py calls them with
fixed arguments and reads fixed fields of their results. Renaming one of
them, or changing what it takes or returns, breaks benchmark runs; these
tests make that a tier-1 failure instead.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from qmcstream import dihp, estimator, graph, relaxation

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


def test_worker_call_shapes():
    # certify: parse each graph file, then copy it with from_stream.
    g = graph.WeightedGraph.from_stream(graph.parse_edge_list("n 5\n2 3 5/2\n0 1\n1 2 0.5\n"))
    assert g.n == 5
    assert [(e.u, e.v, e.w) for e in g.edges] == [(2, 3, Fraction(5, 2)), (0, 1, 1), (1, 2, Fraction(1, 2))]
    r = relaxation.solve_vector_program(g, rank=max(g.n, 2), restarts=8, seed=1)
    assert isinstance(r.best_value, float) and r.assignment.shape == (5, 5)

    # lowerbound: the reduced stream's edges as (u, v), player by player,
    # and the estimator as a protocol player through the dihp module.
    inst = dihp.DihpInstance(6, 2, 2, (((3, 2), (0, 1)), ((0, 1), (5, 4))), ((1, 1), (1, 1)), dihp.NO)
    edges = dihp.reduce_to_stream(inst).edges
    assert all(isinstance(e, graph.WeightedEdge) for e in edges)
    assert [(e.u, e.v) for e in edges] == [(3, 2), (0, 1), (5, 4)]
    assert dihp.QmcEstimateAlgorithm is estimator.QmcEstimateAlgorithm
