"""Command-line front door: dispatch, and emit reproducible reports.

Every report is JSON (CSV for separation experiments) with the seed recorded,
and identical configurations produce byte-identical output. Exit codes:
0 success, 1 invalid input, 2 infeasible size. Each command imports the
library modules it runs when it runs, so `estimate` loads the streaming
path alone. Edge lists are read by graph.py's reader alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence, TextIO

from .graph import (
    GraphParseError,
    InfeasibleSizeError,
    WeightedGraph,
    iter_stream_edges,
    max_incident_sum,
    parse_edge_list,
    total_weight,
)


def _emit(obj: dict, out: TextIO) -> None:
    out.write(json.dumps(obj, sort_keys=True, indent=2))
    out.write("\n")


def _compute_names(text: str, known: Sequence[str]) -> set[str]:
    """The names of a --compute comma list; empty means all of ``known``.

    An unknown name is a ValueError that names it.
    """
    names = set(text.split(",")) if text else set(known)
    unknown = sorted(names - set(known))
    if unknown:
        raise ValueError(f"unknown --compute name(s) {', '.join(map(repr, unknown))}; "
                         f"choose from {','.join(known)}")
    return names


def _open_input(path: str) -> TextIO:
    return sys.stdin if path == "-" else open(path, "r")


def _read_graph(path: str) -> WeightedGraph:
    handle = _open_input(path)
    try:
        text = handle.read()
    finally:
        if handle is not sys.stdin:
            handle.close()
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_estimate(args, out: TextIO) -> int:
    from .estimator import QmcEstimateAlgorithm

    handle = _open_input(args.input)
    try:
        estimator = QmcEstimateAlgorithm(args.eps, args.delta, args.seed)
        for block in iter_stream_edges(handle):
            estimator.bank.process_block(*block)
    finally:
        if handle is not sys.stdin:
            handle.close()
    q = estimator.report()
    _emit(
        {
            "schema": 1,
            "command": "estimate",
            "seed": args.seed,
            "value": q.value,
            "m": q.m,
            "m_exact": str(q.m_exact),
            "W_hat": q.w_hat,
            "epsilon": q.epsilon,
            "delta": q.delta,
            "mode": q.mode,
            "guaranteed_ratio": q.guaranteed_ratio,
            "words_used": q.words_used,
            "edges_seen": q.edges_seen,
        },
        out,
    )
    return 0


def cmd_wexact(args, out: TextIO) -> int:
    g = _read_graph(args.input)
    m = total_weight(g)
    w = max_incident_sum(g)
    _emit(
        {
            "schema": 1,
            "command": "wexact",
            "n": g.n,
            "m": float(m),
            "m_exact": str(m),
            "W": float(w),
            "W_exact": str(w),
            "edges": g.m_edges,
        },
        out,
    )
    return 0


def cmd_exact(args, out: TextIO) -> int:
    from .oracles import (
        QMC_RESIDUAL_TOL,
        constructive_energies,
        max_cut_bruteforce,
        qmc_bounds,
        qmc_exact,
    )

    compute = _compute_names(args.compute, ("maxcut", "qmc", "bounds", "constructive"))
    g = _read_graph(args.input)
    m, w = total_weight(g), max_incident_sum(g)
    report: dict = {
        "schema": 1,
        "command": "exact",
        "seed": args.seed,
        "n": g.n,
        "m": float(m),
        "m_exact": str(m),
        "W": float(w),
        "W_exact": str(w),
    }
    if "maxcut" in compute:
        cut = max_cut_bruteforce(g)
        report["maxcut"] = float(cut.value)
        report["maxcut_exact"] = str(cut.value)
        report["maxcut_sides"] = "".join(str(s) for s in cut.sides)
    if "qmc" in compute:
        res = qmc_exact(g, seed=args.seed)
        report["qmc"] = res.value
        report["qmc_residual"] = res.residual
        report["tolerances"] = {"qmc_exact_residual": QMC_RESIDUAL_TOL}
    if "bounds" in compute:
        b = qmc_bounds(g)
        report["bounds"] = {
            "upper": float(b.upper),
            "lower_weighted": float(b.lower_weighted),
            "lower_unweighted": None if b.lower_unweighted is None else float(b.lower_unweighted),
        }
    if "constructive" in compute:
        ce = constructive_energies(g)
        report["constructive"] = {
            "matching_value": float(ce.matching_value),
            "forest_cut_value": float(ce.forest_cut_value),
            "dfs_level_value": None if ce.dfs_level_value is None else float(ce.dfs_level_value),
        }
        report["lower_bound_floor"] = float(ce.floor)
    _emit(report, out)
    return 0


def cmd_relax(args, out: TextIO) -> int:
    from .relaxation import GAP_TOL, solve_vector_program

    g = _read_graph(args.input)
    rank = args.rank if args.rank else max(g.n, 2)
    result = solve_vector_program(g, rank=rank, restarts=args.restarts, seed=args.seed)
    _emit(
        {
            "schema": 1,
            "command": "relax",
            "seed": args.seed,
            "n": g.n,
            "rank": rank,
            "best_value": result.best_value,
            "upper": result.upper,
            "gap": result.upper - result.best_value,
            "converged": result.converged,
            "restarts_used": result.restarts_used,
            "tolerances": {"relaxation_bound_slack": GAP_TOL},
        },
        out,
    )
    return 0


def cmd_dihp_gen(args, out: TextIO) -> int:
    from .dihp import sample_instance, serialize_instance

    inst = sample_instance(args.n, args.alpha_n, args.t_players, args.truth, args.seed)
    out.write(serialize_instance(inst))
    return 0


def cmd_dihp_exp(args, out: TextIO) -> int:
    from .dihp import separation_experiment

    compute = _compute_names(args.compute or "maxcut", ("maxcut", "sdp", "qmc"))
    report = separation_experiment(
        args.n,
        args.alpha_n,
        args.t_players,
        args.trials,
        seed=args.seed,
        compute_maxcut="maxcut" in compute,
        compute_sdp="sdp" in compute,
        compute_qmc="qmc" in compute,
    )
    if args.format == "csv":
        cols = [
            "case", "trials", "bipartite_rate", "maxcut_ratio_mean", "maxcut_ratio_min",
            "maxcut_ratio_max", "maxcut_ratio_stderr", "sdp_over_m_mean", "qmc_ratio_mean",
        ]
        out.write(",".join(cols) + "\n")
        for case, stats in (("yes", report.yes_stats), ("no", report.no_stats)):
            row = [case, str(stats.trials), repr(stats.bipartite_rate)]
            for name in cols[3:]:
                v = getattr(stats, name)
                row.append("" if v is None else repr(v))
            out.write(",".join(row) + "\n")
        return 0
    _emit(
        {
            "schema": 1,
            "command": "dihp-exp",
            "seed": args.seed,
            "n": report.n,
            "alpha_n": report.alpha_n,
            "t_players": report.t_players,
            "trials": report.trials,
            "yes": dataclasses.asdict(report.yes_stats),
            "no": dataclasses.asdict(report.no_stats),
            "m_mean": {
                case: (sum(vals) / len(vals) if vals else 0.0)
                for case, vals in report.m_values.items()
            },
        },
        out,
    )
    return 0


def cmd_fourier_verify(args, out: TextIO) -> int:
    from .fourier_suite import verify_fourier_lemmas

    report = verify_fourier_lemmas(seed=args.seed, quick=args.quick)
    _emit(report, out)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmcstream", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("estimate", cmd_estimate, help="one-pass QMC estimate from an edge stream")
    p.add_argument("--input", default="-", help="edge list path, or - for stdin")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--delta", type=float, default=0.1)

    p = add("wexact", cmd_wexact, help="exact m and W of a graph")
    p.add_argument("--input", default="-")

    p = add("exact", cmd_exact, help="brute-force MC, exact QMC, bounds, constructions")
    p.add_argument("--input", default="-")
    p.add_argument("--compute", default="", help="comma list: maxcut,qmc,bounds,constructive")

    p = add("relax", cmd_relax, help="vector-program relaxation value")
    p.add_argument("--input", default="-")
    p.add_argument("--rank", type=int, default=0, help="0 means full rank n")
    p.add_argument("--restarts", type=int, default=8)

    p = add("dihp-gen", cmd_dihp_gen, help="sample a hidden-partition instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-n", dest="alpha_n", type=int, required=True)
    p.add_argument("--t-players", dest="t_players", type=int, required=True)
    p.add_argument("--truth", choices=["yes", "no"], required=True)

    p = add("dihp-exp", cmd_dihp_exp, help="YES/NO separation statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha-n", dest="alpha_n", type=int, required=True)
    p.add_argument("--t-players", dest="t_players", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--compute", default="maxcut", help="comma list: maxcut,sdp,qmc")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("fourier-verify", cmd_fourier_verify, help="run the Fourier lemma suite")
    p.add_argument("--quick", action="store_true")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except GraphParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except InfeasibleSizeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
