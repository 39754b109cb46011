import io
import json
import subprocess
import sys

import numpy as np
import pytest

from qmcstream import graph, oracles
from qmcstream.cli import main
from qmcstream.estimator import DEFAULT_CHUNK, QmcEstimateAlgorithm, amplification_plan
from qmcstream.graph import (
    READ_BLOCK,
    GraphParseError,
    content_lines,
    iter_stream_edges,
    parse_edge_line,
    parse_edge_list,
)
from test_graph import PARSE_ERRORS

TRIANGLE = "n 3\n0 1\n1 2\n0 2\n"

# The commands that build a WeightedGraph from their input.
OFFLINE_COMMANDS = [["wexact"], ["exact", "--compute", "bounds"], ["relax"]]


def run_cli(args, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-m", "qmcstream.cli", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(args, stdin_text, monkeypatch, capsys):
    """The JSON report of an in-process run that reads stdin_text."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    assert main(args) == 0
    return json.loads(capsys.readouterr().out)


class TestExact:
    def test_triangle_report(self):
        code, out, _ = run_cli(["exact", "--input", "-"], TRIANGLE)
        assert code == 0
        report = json.loads(out)
        assert report["maxcut"] == 2.0
        assert report["qmc"] == pytest.approx(1.5, abs=1e-8)
        assert report["bounds"]["upper"] == 2.25
        assert report["bounds"]["lower_unweighted"] == 1.125
        assert report["schema"] == 1
        assert "tolerances" in report

    def test_compute_selection(self):
        code, out, _ = run_cli(["exact", "--input", "-", "--compute", "bounds"], TRIANGLE)
        report = json.loads(out)
        assert "bounds" in report and "maxcut" not in report

    def test_tolerances_name_the_lanczos_residual(self, monkeypatch, capsys):
        report = run_main(["exact"], TRIANGLE, monkeypatch, capsys)
        assert report["tolerances"] == {"qmc_exact_residual": 1e-9}

    def test_no_tolerances_without_qmc(self, monkeypatch, capsys):
        report = run_main(["exact", "--compute", "bounds"], TRIANGLE, monkeypatch, capsys)
        assert "tolerances" not in report


class TestEstimate:
    def test_one_edge_value(self):
        code, out, _ = run_cli(
            ["estimate", "--eps", "0.1", "--delta", "0.1", "--seed", "7"], "n 2\n0 1\n"
        )
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 1.00625
        assert report["W_hat"] == 2.0
        assert report["mode"] == "unweighted"

    def test_no_tolerances(self, monkeypatch, capsys):
        report = run_main(["estimate"], TRIANGLE, monkeypatch, capsys)
        assert "tolerances" not in report

    def test_byte_identical_reports(self):
        stream = "n 6\n0 1\n1 2\n3 4\n4 5\n0 5\n"
        args = ["estimate", "--eps", "0.3", "--delta", "0.2", "--seed", "42"]
        _, out1, _ = run_cli(args, stream)
        _, out2, _ = run_cli(args, stream)
        assert out1 == out2
        _, out3, _ = run_cli(args[:-1] + ["43"], stream)
        assert json.loads(out3)["m"] == json.loads(out1)["m"]

    def test_streaming_reader_is_lazy(self):
        chunk = READ_BLOCK
        read = []

        def lines():  # one-shot: a generator cannot be rewound
            for raw in ["n 3\n"] + ["0 1\n"] * (2 * chunk) + ["1 2 x\n"]:
                read.append(raw)
                yield raw

        blocks = iter_stream_edges(lines())
        assert len(next(blocks)[0]) == chunk
        assert len(read) <= chunk + 1
        assert len(next(blocks)[0]) == chunk
        with pytest.raises(GraphParseError, match=f"line {2 * chunk + 2}: bad weight"):
            next(blocks)

    def test_chunk_boundaries_do_not_follow_the_reader(self, monkeypatch, capsys):
        # The bank flushes every DEFAULT_CHUNK edges whatever the reader's
        # block, so blocks that straddle, divide or exceed a chunk draw alike.
        rng = np.random.default_rng(23)
        count = 2 * DEFAULT_CHUNK + 17
        u = rng.integers(0, 500, size=count)
        v = (u + rng.integers(1, 500, size=count)) % 500
        w = rng.integers(1, 6, size=count)
        text = "n 500\n" + "".join(f"{a} {b} {c}\n" for a, b, c in zip(u, v, w))
        outputs = []
        for block in (999, 1024, 5000):
            monkeypatch.setattr(graph, "READ_BLOCK", block)
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            assert main(["estimate", "--eps", "0.5", "--delta", "0.2", "--seed", "6"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["edges_seen"] == count

    @pytest.mark.parametrize(
        "text,fragment",
        # The streaming path keeps no duplicate-pair set (constant memory).
        [case for case in PARSE_ERRORS if "duplicate" not in case[1]],
    )
    def test_parse_errors_match_offline_parser(self, text, fragment, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["estimate", "--eps", "0.5", "--delta", "0.5"]) == 1
        assert f"error: {fragment}" in capsys.readouterr().err

    def test_mode_is_derived_from_weights(self):
        stream = "n 4\n0 1 5\n0 2 2\n0 3 1\n"
        _, out, _ = run_cli(["estimate", "--eps", "0.5", "--delta", "0.2"], stream)
        report = json.loads(out)
        assert report["mode"] == "weighted"
        assert report["guaranteed_ratio"] == 2.5 + 0.5
        code, _, err = run_cli(["estimate", "--mode", "unweighted"], stream)
        assert code == 1
        assert "unrecognized arguments: --mode" in err


def per_line_edges(text):
    """(line number, edge) of each edge line of text, parsed one line at a
    time after the header "n <count>" on line 1."""
    numbered = content_lines(io.StringIO(text))
    _, (_, count) = next(numbered)
    return [(lineno, parse_edge_line(parts, lineno, int(count))) for lineno, parts in numbered]


def per_line_blocks(text, chunk):
    """The blocks of text as per_line_edges reads it, cut every `chunk`
    lines after the header on line 1, with integer weights as ints."""
    blocks = [[] for _ in range(0, len(io.StringIO(text).readlines()) - 1, chunk)]
    for lineno, edge in per_line_edges(text):
        blocks[(lineno - 2) // chunk].append(edge)
    return [
        (
            np.array([e.u for e in b], dtype=np.int64),
            np.array([e.v for e in b], dtype=np.int64),
            np.array([e.w.numerator if e.w.denominator == 1 else e.w for e in b], dtype=object),
        )
        for b in blocks
    ]


def outcome(read):
    """The blocks read() returns, or the message of the GraphParseError it raises."""
    try:
        return read()
    except GraphParseError as exc:
        return str(exc)


# (lines after the header "n 10", whether numpy's integer fast path keeps them)
BLOCK_CASES = [
    ("0 1\n1 2\n", True),
    ("0 1 2\n1 2 3\n", True),
    ("007 01 0003\n", True),
    ("0 1\n  \n\n2 3 4\n5 6\n", False),  # mixes 2 and 3 columns
    ("   \n\n", False),
    ("0 1 9223372036854775807\n", True),
    ("0 1 9223372036854775808\n", False),
    ("0 1 99999999999999999999999\n", False),
    ("0 9223372036854775808\n", False),
    ("0 1\t2\n", False),
    ("0 1 +5\n", False),
    ("0 1 1_0\n", False),
    ("0 1 \u0665\n", False),
    ("0 1\x0c2\n", False),
    ("0 1\x0c1 2\n", False),
    ("0 1\r\n", False),
    ("0 1\r1 2\n", False),
    ("0 1 # comment\n", False),
    ("# comment\n0 1\n", False),
    ("0\n", False),
    ("0 1 2 3\n", False),
    ("0 10\n", False),
    ("10 0 1\n", False),
    ("0 1\n1 2\n3 3\n", False),
    ("0 1 0\n", False),
    ("0 1 3/4\n", False),
    ("0 1 2.5\n", False),
]


class TestBlockReader:
    """graph's reader: the numpy fast path and the per-line path read every
    block alike, for `estimate` and for the offline commands."""

    @pytest.mark.parametrize("body,fast", BLOCK_CASES)
    @pytest.mark.parametrize("chunk", [1, 2, READ_BLOCK])
    def test_blocks_match_the_per_line_parser(self, body, fast, chunk, monkeypatch):
        assert (graph._integer_block(body, 10) is not None) == fast
        monkeypatch.setattr(graph, "READ_BLOCK", chunk)
        text = "n 10\n" + body
        got = outcome(lambda: list(iter_stream_edges(io.StringIO(text))))
        want = outcome(lambda: per_line_blocks(text, chunk))
        if isinstance(want, str):
            assert got == want
            return
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for a, b in zip(g[:2], w[:2]):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert g[2].tolist() == w[2].tolist()
            assert list(map(type, g[2].tolist())) == list(map(type, w[2].tolist()))

    @pytest.mark.parametrize("body", [body for body, _ in BLOCK_CASES])
    def test_offline_edges_match_the_per_line_parser(self, body):
        text = "n 10\n" + body
        want = outcome(lambda: tuple(edge for _, edge in per_line_edges(text)))
        assert outcome(lambda: parse_edge_list(text).edges) == want

    def test_comment_in_every_block_gives_the_same_report(self, monkeypatch, capsys):
        rng = np.random.default_rng(19)
        u = rng.integers(0, 300, size=3000)
        v = (u + rng.integers(1, 300, size=3000)) % 300
        w = rng.integers(1, 6, size=3000)
        lines = [f"{a} {b} {c}\n" for a, b, c in zip(u, v, w)]
        commented = []
        for i, line in enumerate(lines):  # a "#" line in every block forces the per-line path
            if i % 500 == 0:
                commented.append("# block\n")
            commented.append(line)
        parsed_by_line = []
        per_line = graph._parsed_block
        monkeypatch.setattr(graph, "_parsed_block", lambda *a: parsed_by_line.append(1) or per_line(*a))
        outputs = []
        for body in (lines, commented):
            monkeypatch.setattr(sys, "stdin", io.StringIO("n 300\n" + "".join(body)))
            assert main(["estimate", "--eps", "0.5", "--delta", "0.2", "--seed", "4"]) == 0
            outputs.append(capsys.readouterr().out)
            parsed_by_line.append(None)
        assert parsed_by_line == [None, 1, 1, 1, None]
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        assert report["edges_seen"] == 3000 and report["m_exact"] == str(int(w.sum()))

    def test_mixed_weights_give_the_per_edge_report(self, monkeypatch, capsys):
        # An integer block, then integer, p/q and decimal weights within
        # blocks: the bank derives m, the mode and the float weights from
        # the reader's exact columns as process_edge does from each edge.
        rng = np.random.default_rng(29)
        count = 2 * READ_BLOCK + 300
        u = rng.integers(0, 400, size=count)
        v = (u + rng.integers(1, 400, size=count)) % 400
        mixed = np.array(["3", "2/7", "0.25", "5"])[rng.integers(0, 4, size=count - READ_BLOCK)]
        w = [*map(str, rng.integers(1, 6, size=READ_BLOCK)), *mixed]
        text = "n 400\n" + "".join(f"{a} {b} {c}\n" for a, b, c in zip(u, v, w))
        args = ["estimate", "--eps", "0.5", "--delta", "0.2", "--seed", "4"]
        report = run_main(args, text, monkeypatch, capsys)
        per_edge = QmcEstimateAlgorithm(0.5, 0.2, seed=4)
        for _, e in per_line_edges(text):
            per_edge.update(e)
        q = per_edge.report()
        assert (report["m_exact"], report["edges_seen"], report["mode"]) == (str(q.m_exact), count, "weighted")
        assert (report["value"], report["W_hat"]) == (q.value, q.w_hat)


class TestWexact:
    def test_values(self):
        code, out, _ = run_cli(["wexact", "--input", "-"], "n 4\n0 1 5\n0 2 2\n0 3 1\n")
        report = json.loads(out)
        assert report["m"] == 8.0
        assert report["W"] == 13.0
        assert report["W_exact"] == "13"


class TestRelax:
    def test_triangle(self):
        code, out, _ = run_cli(["relax", "--input", "-", "--seed", "3"], TRIANGLE)
        report = json.loads(out)
        assert report["best_value"] == pytest.approx(1.5, abs=1e-5)
        assert report["upper"] >= report["best_value"]
        assert report["upper"] == pytest.approx(1.5, abs=1e-5)
        assert report["gap"] <= 1e-6 * 3

    def test_tolerances_name_the_gap(self, monkeypatch, capsys):
        report = run_main(["relax"], TRIANGLE, monkeypatch, capsys)
        assert report["tolerances"] == {"relaxation_bound_slack": 1e-6}


class TestDihp:
    def test_gen_deterministic_and_parseable(self):
        args = ["dihp-gen", "--n", "10", "--alpha-n", "3", "--t-players", "2",
                "--truth", "yes", "--seed", "4"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2
        header = out1.splitlines()[0].split()
        assert header == ["dihp", "10", "3", "2", "yes"]
        assert len(out1.splitlines()) == 1 + 2 * 2

    def test_exp_json_and_csv(self):
        args = ["dihp-exp", "--n", "16", "--alpha-n", "2", "--t-players", "4",
                "--trials", "12", "--seed", "5"]
        code, out, _ = run_cli(args)
        report = json.loads(out)
        assert report["yes"]["bipartite_rate"] == 1.0
        code, out, _ = run_cli(args + ["--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0].startswith("case,trials,bipartite_rate")
        assert len(lines) == 3


class TestFourierVerify:
    def test_quick_report(self):
        code, out, _ = run_cli(["fourier-verify", "--seed", "1", "--quick"])
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert report["seed"] == 1


class TestExitCodes:
    def test_parse_error_is_one(self):
        code, _, err = run_cli(["exact", "--input", "-"], "n 2\n0 0 1\n")
        assert code == 1
        assert "self-loop" in err

    def test_weights_scaled_past_32_bits(self):
        code, out, _ = run_cli(["exact", "--input", "-"], "n 3\n0 1 1/65537\n1 2 1/65539\n0 2 1\n")
        assert code == 0
        report = json.loads(out)
        assert (report["maxcut_exact"], report["maxcut_sides"]) == ("65538/65537", "011")

    def test_infeasible_is_two(self):
        path = "n 30\n" + "\n".join(f"{i} {i + 1}" for i in range(29)) + "\n"
        code, _, err = run_cli(["exact", "--input", "-", "--compute", "qmc"], path)
        assert code == 2
        assert "cap" in err

    def test_bad_flag_is_one(self):
        code, _, _ = run_cli(["estimate", "--eps", "nope"])
        assert code == 1

    @pytest.mark.parametrize("command", ["wexact", "estimate"])
    def test_missing_input_is_one(self, command, tmp_path):
        code, _, err = run_cli([command, "--input", str(tmp_path / "missing.edges")])
        assert code == 1
        assert err.startswith("error: ") and "No such file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["estimate", "wexact"])
    def test_vertex_count_past_int64_is_one(self, command, monkeypatch, capsys):
        # Every accepted id then fits the estimator's int64 columns.
        monkeypatch.setattr(sys, "stdin", io.StringIO("n 99999999999999999999\n0 9223372036854775808\n"))
        assert main([command, "--input", "-"]) == 1
        assert capsys.readouterr().err == "error: line 1: vertex count exceeds 2^63 - 1\n"

    @pytest.mark.parametrize("text,fragment", PARSE_ERRORS)
    @pytest.mark.parametrize("args", OFFLINE_COMMANDS, ids=" ".join)
    def test_offline_parse_errors_name_the_line(self, args, text, fragment, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(args) == 1
        assert f"error: {fragment}" in capsys.readouterr().err

    @pytest.mark.parametrize("args", OFFLINE_COMMANDS, ids=" ".join)
    def test_vertex_count_past_the_graph_cap_is_two(self, args, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("n 9223372036854775807\n0 1\n"))
        assert main(args) == 2
        cap = graph.MAX_VERTICES
        assert capsys.readouterr().err == f"error: 9223372036854775807 vertices exceed the graph cap {cap}\n"

    def test_bank_past_the_bank_cap_is_two(self, monkeypatch, capsys):
        # Refused before anything is allocated: its reservoirs would take about 72 TiB.
        monkeypatch.setattr(sys, "stdin", io.StringIO("n 2\n0 1\n"))
        assert main(["estimate", "--eps", "0.0001"]) == 2
        k, b = amplification_plan(0.0001 / 4, 0.1)
        words = 3 * k * b + 8 + 3 * DEFAULT_CHUNK
        assert capsys.readouterr().err == f"error: {words} words of estimator state exceed the bank cap {1 << 27}\n"

    def test_largest_vertex_count_streams(self, monkeypatch, capsys):
        text = "n 9223372036854775807\n0 9223372036854775806\n"
        for body in (text, text + "# the per-line path\n"):
            report = run_main(["estimate", "--eps", "0.5", "--delta", "0.5"], body, monkeypatch, capsys)
            assert report["edges_seen"] == 1

    def test_unconverged_lanczos_is_one(self, monkeypatch, capsys):
        monkeypatch.setattr(oracles, "LANCZOS_KRYLOV_CAP", 3)
        ring = "n 10\n" + "".join(f"{i} {(i + 1) % 10}\n" for i in range(10)) + "0 5\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(ring))
        assert main(["exact", "--compute", "qmc"]) == 1
        assert capsys.readouterr().err.startswith("error: Lanczos failed to converge")

    @pytest.mark.parametrize(
        "args,name",
        [
            (["exact", "--compute", "maxcutt"], "maxcutt"),
            (["exact", "--compute", "bounds,qmc,"], "''"),
            (["dihp-exp", "--n", "8", "--alpha-n", "2", "--t-players", "2", "--compute", "maxcut,sdpp"], "sdpp"),
        ],
    )
    def test_unknown_compute_name_is_one(self, args, name, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(TRIANGLE))
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unknown --compute name") and name in err

    def test_in_process_entry_point(self, capsys):
        assert main(["wexact", "--input", "/dev/null"]) == 1
