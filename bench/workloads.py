"""The four workloads: how each is prepared, launched, counted and checked.

Every check compares the program's output with something the benchmark
computed itself (exact m and W from its generator, closed forms, its own
2-colouring, numpy recomputations, stored eigsh references) or with a
property the method must have. None compares with a stored copy of the
program's own output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs
import worker
from qmcstream import fourier_suite

BENCH = Path(__file__).resolve().parent
PYTHON = sys.executable
REFERENCE_FILE = BENCH / "certify_reference.json"
TRACE_PLACEHOLDER = "{trace}"

# Each lemma's instance count in the suite's quick configuration, as the suite
# configures it: (name, runner, full count, quick count).
FOURIER_INSTANCES = {name: quick for name, _, _, quick in fourier_suite._CHECKS}


class CheckFailed(Exception):
    """The program's output contradicts an independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Workload:
    """One workload, prepared into and checked from its work directory."""

    uses_estimator = True

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work

    def prepare(self) -> dict:
        """Write the inputs; return the plan: op count and the commands."""
        raise NotImplementedError

    def check_setup(self, outputs: list[str]) -> None:
        pass

    def check_round(self, output: str) -> None:
        raise NotImplementedError

    def _worker_plan(self, ops: int) -> dict:
        base = [PYTHON, str(BENCH / "worker.py"), self.name, "--data", str(self.work),
                "--seed", str(self.seed)]
        return {
            "ops": ops,
            "command": base,
            "setup_command": base + ["--setup-only"],
            "traced_command": base + ["--trace", TRACE_PLACEHOLDER],
            "alloc_command": base + ["--trace", TRACE_PLACEHOLDER, "--alloc"] if self.uses_estimator else None,
        }


class StreamWorkload(Workload):
    """`qmcstream estimate` on a generated edge stream."""

    def __init__(self, name: str, seed: int, work: Path, weighted: bool, eps: float, delta: float):
        super().__init__(name, seed, work)
        self.weighted, self.eps, self.delta = weighted, eps, delta
        self.setup_words = None

    def prepare(self) -> dict:
        facts = inputs.write_stream(self.work, self.weighted, self.seed)
        (self.work / "facts.json").write_text(json.dumps(
            {"edges": facts.edges, "m": str(facts.m), "w": str(facts.w)}))

        def cli(path: Path) -> list[str]:
            return ["estimate", "--eps", str(self.eps), "--delta", str(self.delta),
                    "--seed", str(self.seed), "--input", str(path)]

        traced = [PYTHON, str(BENCH / "worker.py"), "cli", "--trace", TRACE_PLACEHOLDER]
        return {
            "ops": facts.edges,
            "command": [PYTHON, "-m", "qmcstream.cli", *cli(facts.path)],
            "setup_command": [PYTHON, "-m", "qmcstream.cli", *cli(facts.header_path)],
            "traced_command": traced + ["--", *cli(facts.path)],
            "alloc_command": traced + ["--alloc", "--", *cli(facts.path)],
        }

    def check_setup(self, outputs: list[str]) -> None:
        reports = [json.loads(text) for text in outputs]
        require(all(r["edges_seen"] == 0 for r in reports), "a header-only run saw edges")
        words = {r["words_used"] for r in reports}
        require(len(words) == 1, f"header-only runs report different words_used {sorted(words)}")
        self.setup_words = words.pop()

    def check_round(self, output: str) -> None:
        r = json.loads(output)
        facts = json.loads((self.work / "facts.json").read_text())
        exact_m, exact_w = Fraction(facts["m"]), Fraction(facts["w"])
        m, w = float(exact_m), float(exact_w)
        require(r["edges_seen"] == facts["edges"], f"edges_seen {r['edges_seen']} != {facts['edges']}")
        require(Fraction(r["m_exact"]) == exact_m, "m_exact differs from the exact sum of the weights")
        require(r["epsilon"] == self.eps and r["delta"] == self.delta, "report names other eps/delta")
        require(abs(r["W_hat"] - w) <= self.eps / 4 * m,
                f"|W_hat - W| = {abs(r['W_hat'] - w):.1f} exceeds eps*m/4 = {self.eps / 4 * m:.1f}")
        if self.weighted:
            mode, lo, ratio = "weighted", m / 5 + w / 10, 2.5 + self.eps
        else:
            mode, lo, ratio = "unweighted", m / 4 + w / 8, 2.0 + self.eps
        hi = ratio * (m / 2 + w / 4)
        require(r["mode"] == mode, f"mode {r['mode']} != {mode}")
        require(lo * (1 - 1e-12) <= r["value"] <= hi * (1 + 1e-12),
                f"value {r['value']} outside [{lo}, {hi}]")
        require(r["words_used"] == self.setup_words,
                f"words_used {r['words_used']} on the full stream != {self.setup_words} on no edges")


class CertifyWorkload(Workload):
    """The library calls behind `qmcstream exact` and `qmcstream relax`."""

    uses_estimator = False

    def __init__(self, name: str, seed: int, work: Path):
        super().__init__(name, seed, work)
        self.graphs = inputs.certify_graphs()
        self.references = json.loads(REFERENCE_FILE.read_text())["graphs"]
        for g in self.graphs:
            if "qmc" in g.ops:
                require(self.references.get(g.name, {}).get("digest") == g.digest(),
                        f"graph {g.name} differs from the one in {REFERENCE_FILE.name}; "
                        "recompute the references with python3 bench/reference.py")

    def prepare(self) -> dict:
        inputs.write_graphs(self.work, self.graphs)
        manifest = [{"name": g.name, "ops": list(g.ops)} for g in self.graphs]
        (self.work / "manifest.json").write_text(json.dumps(manifest))
        return self._worker_plan(sum(len(g.ops) for g in self.graphs))

    def check_round(self, output: str) -> None:
        results = json.loads(output)
        for g in self.graphs:
            try:
                self._check_graph(g, results[g.name])
            except CheckFailed as exc:
                raise CheckFailed(f"{g.name}: {exc}") from None

    def _check_graph(self, g: inputs.Graph, r: dict) -> None:
        m = g.m
        slack = 1e-7 * max(1.0, float(m))
        best: dict[int, Fraction] = {}
        for u, v, w in g.edges:
            for x in (u, v):
                best[x] = max(best.get(x, Fraction(0)), w)
        w_total = sum(best.values(), Fraction(0))
        unit = all(w == 1 for _, _, w in g.edges)
        mc = None

        if "maxcut" in r:
            mc = Fraction(r["maxcut"]["value"])
            sides = r["maxcut"]["sides"]
            require(len(sides) == g.n and set(sides) <= {0, 1}, "max-cut sides are not a 0/1 vector")
            cut = sum((w for u, v, w in g.edges if sides[u] != sides[v]), Fraction(0))
            require(cut == mc, f"cut recomputed from the sides is {cut}, reported {mc}")
            if g.family in ("bipartite", "star"):
                require(mc == m, f"bipartite max-cut {mc} != m = {m}")
            if g.family == "complete":
                require(mc == (g.n // 2) * ((g.n + 1) // 2), f"MC(K_{g.n}) = {mc}")

        if "qmc" in r:
            q = r["qmc"]["value"]
            ref = self.references[g.name]["qmc"]
            require(close(q, ref, slack), f"QMC {q} != eigsh reference {ref}")
            if g.family == "complete":
                n = g.n
                exact = n * (n + 2) / 8 if n % 2 == 0 else (n * n + 2 * n - 3) / 8
                require(close(q, exact, slack), f"QMC(K_{n}) = {q}, closed form {exact}")
            if g.family == "star":
                require(close(q, g.n / 2, slack), f"QMC of a {g.n - 1}-leaf star = {q}")
            if mc is not None:
                require(q >= float(mc) / 2 - slack, f"QMC {q} < MC/2 = {float(mc) / 2}")
            if "bounds" in r:
                b = r["bounds"]
                upper, lower_w = m / 2 + w_total / 4, m / 5 + w_total / 10
                require(Fraction(b["upper"]) == upper and Fraction(b["lower_weighted"]) == lower_w,
                        "bounds differ from m/2 + W/4 and m/5 + W/10")
                require(float(lower_w) - slack <= q <= float(upper) + slack, "QMC outside m/5+W/10 .. m/2+W/4")
                if unit:
                    require(Fraction(b["lower_unweighted"]) == m / 4 + w_total / 8, "bound differs from m/4 + W/8")
                    require(q >= float(m / 4 + w_total / 8) - slack, "QMC below m/4 + W/8")
            for value in r.get("constructive", []):
                if value is not None:
                    require(float(Fraction(value)) <= q + slack, f"constructive energy {value} above QMC {q}")

        if "relax" in r:
            a = np.array(r["relax"]["assignment"])
            best_value = r["relax"]["best_value"]
            require(a.shape[0] == g.n, "relaxation has the wrong number of rows")
            require(np.max(np.abs(np.linalg.norm(a, axis=1) - 1)) <= 1e-9, "relaxation rows are not unit vectors")
            objective = sum(-float(w) * float(a[u] @ a[v]) for u, v, w in g.edges)
            require(close(objective, best_value, 1e-9 * max(1.0, float(m))),
                    f"objective recomputed {objective} != best_value {best_value}")
            adjacency = np.zeros((g.n, g.n))
            for u, v, w in g.edges:
                adjacency[u, v] = adjacency[v, u] = float(w)
            ceiling = min(float(m), g.n * float(np.linalg.eigvalsh(-adjacency)[-1]) / 2)
            require(best_value <= ceiling + slack, f"relaxation {best_value} above its ceiling {ceiling}")
            if mc is not None:
                require(best_value >= float(2 * mc - m) - slack, f"relaxation {best_value} < 2 MC - m")
            if g.family in ("bipartite", "star"):
                require(close(best_value, float(m), 1e-6), f"bipartite relaxation {best_value} != m")
            if g.family == "complete":
                require(close(best_value, g.n / 2, 1e-6), f"relaxation of K_{g.n} = {best_value} != n/2")


def _two_colour(n: int, edges: list[list[int]]) -> bool:
    colour = [-1] * n
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root], stack = 0, [root]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


class LowerboundWorkload(Workload):
    """DIHP separation, the protocol harness, and the Fourier lemma suite."""

    def prepare(self) -> dict:
        trials = 2 * (worker.SDP_TRIALS + worker.CUT_TRIALS)
        protocols = 2 * worker.PROTOCOL_INSTANCES
        lemma_instances = worker.FOURIER_SEEDS * sum(FOURIER_INSTANCES.values())
        return self._worker_plan(trials + protocols + lemma_instances)

    def check_round(self, output: str) -> None:
        r = json.loads(output)
        with_sdp, cut_only = r["separation"]
        require([with_sdp["trials"], cut_only["trials"]] == [worker.SDP_TRIALS, worker.CUT_TRIALS],
                "separation ran another number of trials")
        for sep in (with_sdp, cut_only):
            require(sep["yes_bipartite_rate"] == 1.0 and sep["yes_maxcut_ratio_mean"] == 1.0,
                    "a YES reduction in the separation experiment is not bipartite with max-cut m")
        require(close(with_sdp["yes_sdp_over_m_mean"], 1.0, 1e-9), "YES relaxation value differs from m")
        require(cut_only["no_maxcut_ratio_mean"] < 1.0,
                f"NO mean cut ratio {cut_only['no_maxcut_ratio_mean']} is not below 1")
        runs = r["protocol_runs"]
        require(len(runs) == 2 * worker.PROTOCOL_INSTANCES, "wrong number of protocol runs")
        for run in runs:
            words = run["handoff_words"]
            require(len(words) == worker.DIHP_T and len(set(words)) == 1,
                    f"handoff words {words} are not equal at every player")
            if run["truth"] == "yes":
                require(run["m"] == len(run["edges"]), "protocol m differs from the reduced stream")
                require(_two_colour(worker.DIHP_N, run["edges"]), "YES reduction is not 2-colourable")
                require(run["decision"] == "yes", "a YES protocol run decided NO")
        require(len(r["fourier"]) == worker.FOURIER_SEEDS, "wrong number of Fourier suite runs")
        for report in r["fourier"]:
            require(report["quick"] is True and report["all_passed"] is True,
                    "the quick Fourier lemma suite did not run or reports a violation")
            require(set(report["checks"]) == set(FOURIER_INSTANCES), "the Fourier report names other lemmas")
            for lemma, instances in FOURIER_INSTANCES.items():
                rec = report["checks"][lemma]
                require(rec["violations"] == 0, f"Fourier lemma {lemma} has violations")
                # An instance records one check or more, so count >= instances.
                require(rec["count"] >= instances,
                        f"Fourier lemma {lemma} recorded {rec['count']} checks for {instances} instances")


WORKLOADS = {
    "stream-unit": lambda seed, work: StreamWorkload("stream-unit", seed, work, False, eps=0.5, delta=0.2),
    "stream-weighted": lambda seed, work: StreamWorkload("stream-weighted", seed, work, True, eps=0.25, delta=0.1),
    "certify": lambda seed, work: CertifyWorkload("certify", seed, work),
    "lowerbound": lambda seed, work: LowerboundWorkload("lowerbound", seed, work),
}


def main(argv: list[str]) -> int:
    """prepare: write inputs and plan.json. check: check outputs, print failures as JSON."""
    parser = argparse.ArgumentParser(prog="workloads.py")
    parser.add_argument("action", choices=["prepare", "check"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup", nargs="*", default=[], help="outputs of set-up launches")
    parser.add_argument("--rounds", nargs="*", default=[], help="outputs of full rounds")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work)
    if args.action == "prepare":
        (args.work / "plan.json").write_text(json.dumps(workload.prepare()))
        return 0
    failures = []
    try:
        workload.check_setup([Path(p).read_text() for p in args.setup])
    except CheckFailed as exc:
        failures.append(f"set-up: {exc}")
    for path in args.rounds:
        try:
            workload.check_round(Path(path).read_text())
        except CheckFailed as exc:
            failures.append(f"{Path(path).name}: {exc}")
    print(json.dumps({"failures": failures}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
