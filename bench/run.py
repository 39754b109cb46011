"""qmcstream benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload stream-unit --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src, and nothing needs installing. Every timed round is a fresh process
with BLAS and OpenMP pinned to one thread. Inputs are generated from --seed
before any timing. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
ops_per_s, peak_rss_mb); with --trace 1 they are the per-layer ones, taken
from a separate traced process, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

# Header-only or setup-only launches made before each timed round; setup_s
# is their median, interleaved with the rounds so both see the same host.
SETUP_REPS_PER_ROUND = 3
# A round takes about 3 s. Another one starts while it fits in --seconds with
# its set-up launches, but a run always has at least MIN_ROUNDS.
MIN_ROUNDS = 5
# The traced run alternates this many untraced and traced rounds.
TRACE_PAIRS = 3

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ["stream-unit", "stream-weighted", "certify", "lowerbound"]
TRACE_PLACEHOLDER = "{trace}"

# (metric, unit, [(traced call, field)]); fields index [count, total_s, self_s].
COUNT, TOTAL, SELF = 0, 1, 2
LAYERS = [
    ("cli.read_s", "s", [("cli.iter_stream_edges", SELF)]),
    ("graph.parse_edge_s", "s", [("graph.parse_edge_line", TOTAL)]),
    ("graph.parse_list_s", "s", [("graph.parse_edge_list", TOTAL), ("graph.WeightedGraph.from_stream", TOTAL)]),
    ("estimator.init_s", "s", [("estimator.EstimatorBank.__init__", TOTAL)]),
    ("estimator.ingest_s", "s", [("estimator.EstimatorBank.process_edge", SELF)]),
    ("estimator.flush_s", "s", [("estimator.EstimatorBank.flush", TOTAL)]),
    ("estimator.flush_calls", "count", [("estimator.EstimatorBank.flush", COUNT)]),
    ("estimator.finalize_s", "s", [("estimator.EstimatorBank.w_estimate", SELF)]),
    ("oracles.qmc_exact_s", "s", [("oracles.qmc_exact", TOTAL)]),
    ("oracles.qmc_apply_calls", "count", [("oracles.QmcOperator.apply", COUNT)]),
    ("oracles.qmc_apply_s", "s", [("oracles.QmcOperator.apply", TOTAL)]),
    ("oracles.maxcut_s", "s", [("oracles.max_cut_bruteforce", TOTAL)]),
    ("oracles.bounds_s", "s", [("oracles.qmc_bounds", TOTAL), ("oracles.constructive_energies", TOTAL)]),
    ("relaxation.solve_s", "s", [("relaxation.solve_vector_program", TOTAL)]),
    ("dihp.sample_reduce_s", "s", [("dihp.sample_instance", TOTAL), ("dihp.reduce_to_stream", TOTAL)]),
    ("dihp.protocol_s", "s", [("dihp.run_protocol", TOTAL)]),
    ("fourier_suite.verify_s", "s", [("fourier_suite.verify_fourier_lemmas", TOTAL)]),
    ("fourier.transform_calls", "count", [("fourier.transform", COUNT)]),
    ("fourier.transform_s", "s", [("fourier.transform", TOTAL)]),
]


class RoundFailed(Exception):
    """A launched process exited with a non-zero code."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in THREAD_VARIABLES:
        env[name] = "1"
    return env


def launch(cmd: list[str], stdout: Path, env: dict) -> tuple[float, float]:
    """Run one process to its end; return (wall seconds, peak RSS in MB).

    A child's ru_maxrss starts from its parent's high-water mark, so this
    process keeps to the standard library and leaves generating and checking
    to helper processes: its own peak stays below every measured child's.
    """
    stderr = stdout.with_suffix(".stderr")
    with open(stdout, "w") as out, open(stderr, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr.read_text()[-2000:]
        raise RoundFailed(f"{' '.join(cmd[:4])} ... exited {proc.returncode}:\n{tail}")
    return wall, usage.ru_maxrss / 1024.0


class Run:
    """One benchmark run: the plan, the launches, and their bookkeeping."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.work = WORK / workload
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_outputs: list[Path] = []
        self.round_outputs: list[Path] = []
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self._helper("prepare", self.work / "prepare.out")
        self.plan = json.loads((self.work / "plan.json").read_text())

    def _helper(self, action: str, out: Path, *extra: str) -> None:
        cmd = [sys.executable, str(BENCH / "workloads.py"), action, "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(self.work), *extra]
        launch(cmd, out, self.env)

    def setup_once(self) -> float:
        out = self.work / f"setup-{len(self.setup_outputs)}.out"
        self.setup_outputs.append(out)
        return launch(self.plan["setup_command"], out, self.env)[0]

    def round(self, cmd: list[str]) -> tuple[float, float] | None:
        """One whole round of the workload's operations."""
        self.attempted += self.plan["ops"]
        out = self.work / f"round-{len(self.round_outputs)}.out"
        try:
            measured = launch(cmd, out, self.env)
        except RoundFailed as exc:
            self.failed += self.plan["ops"]
            self.errors.append(str(exc))
            return None
        self.round_outputs.append(out)
        return measured

    def check(self) -> list[str]:
        """Check every output in a helper process; return the failures."""
        out = self.work / "check.out"
        self._helper("check", out, "--setup", *map(str, self.setup_outputs),
                     "--rounds", *map(str, self.round_outputs))
        return json.loads(out.read_text().splitlines()[-1])["failures"]


def timed(run: Run, seconds: float) -> dict:
    run.setup_once()  # warm-up: bytecode compiled, file cache filled
    setups: list[float] = []
    walls: list[float] = []
    rss: list[float] = []
    cycle = 0.0
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start + cycle <= seconds:
        cycle_start = time.perf_counter()
        setups += [run.setup_once() for _ in range(SETUP_REPS_PER_ROUND)]
        measured = run.round(run.plan["command"])
        if measured is None:
            break
        cycle = max(cycle, time.perf_counter() - cycle_start)
        walls.append(measured[0])
        rss.append(measured[1])
    if not walls:
        raise RoundFailed("\n".join(run.errors))
    setup_s = statistics.median(setups)
    ops = run.plan["ops"]
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": statistics.median(ops / (w - setup_s) for w in walls), "unit": "ops/s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def _round_or_fail(run: Run, cmd: list[str]) -> float:
    measured = run.round(cmd)
    if measured is None:
        raise RoundFailed("\n".join(run.errors))
    return measured[0]


def _traced_round(run: Run, key: str, trace: Path) -> tuple[float, dict]:
    cmd = [trace.as_posix() if part == TRACE_PLACEHOLDER else part for part in run.plan[key]]
    wall = _round_or_fail(run, cmd)
    return wall, json.loads(trace.read_text().splitlines()[-1])


def traced(run: Run) -> dict:
    """Per-layer medians over traced rounds; overhead against untraced rounds."""
    run.setup_once()
    plain_walls, traced_walls, layer_values = [], [], {name: [] for name, _, _ in LAYERS}
    for _ in range(TRACE_PAIRS):
        plain_walls.append(_round_or_fail(run, run.plan["command"]))
        wall, summary = _traced_round(run, "traced_command", run.work / "trace.jsonl")
        traced_walls.append(wall)
        for name, _, sources in LAYERS:
            layer_values[name].append(
                sum(summary["totals"].get(call, [0, 0.0, 0.0])[field] for call, field in sources))
    metrics = {name: {"value": statistics.median(layer_values[name]), "unit": unit}
               for name, unit, _ in LAYERS}
    alloc_mb = 0.0
    if run.plan["alloc_command"]:
        _, alloc = _traced_round(run, "alloc_command", run.work / "trace-alloc.jsonl")
        alloc_mb = alloc["alloc_peak_bytes"] / 2**20
    metrics["estimator.alloc_peak_mb"] = {"value": alloc_mb, "unit": "MB"}
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmcstream" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qmcstream sources under {ROOT / 'src'}; run from a source checkout\n")
        return 2
    try:
        run = Run(args.workload, args.seed)
        metrics = traced(run) if args.trace else timed(run, args.seconds)
        failures = run.check()
    except RoundFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    for problem in run.errors + failures:
        sys.stderr.write(f"{args.workload}: {problem}\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {run.attempted} failed = {run.failed}")
    print(json.dumps({"correct": not failures, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
