"""Span tracer wrapped around qmcstream's public functions from outside.

Each wrapped call records its name, start, end and the enclosing recorded
span. Calls made once per edge or once per operator apply (`AGGREGATED`) are
kept as a count and total instead of one span each. A call's self time is its
duration minus the time covered by wrapped calls nested inside it. Spans stay
in memory and are written out, with the per-name totals, when the run ends.

With `alloc=True` the tracer also starts tracemalloc when an EstimatorBank has
been built and reads the peak when `w_estimate` returns, so the peak covers
ingest and finalisation only. tracemalloc slows allocation-heavy code, so the
benchmark takes that peak from a separate traced process.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc

# (module path, attribute path, also rebound in these modules that import it by name)
TARGETS = [
    ("cli", "iter_stream_edges", ()),
    ("graph", "parse_edge_line", ("cli",)),
    ("graph", "parse_edge_list", ("cli",)),
    ("graph", "WeightedGraph.from_stream", ()),
    ("estimator", "EstimatorBank.__init__", ()),
    ("estimator", "EstimatorBank.process_edge", ()),
    ("estimator", "EstimatorBank.flush", ()),
    ("estimator", "EstimatorBank.w_estimate", ()),
    ("oracles", "qmc_exact", ("cli", "dihp")),
    ("oracles", "QmcOperator.apply", ()),
    ("oracles", "max_cut_bruteforce", ("cli", "dihp", "relaxation")),
    ("oracles", "qmc_bounds", ("cli",)),
    ("oracles", "constructive_energies", ("cli",)),
    ("relaxation", "solve_vector_program", ("cli", "dihp")),
    ("dihp", "sample_instance", ("cli",)),
    ("dihp", "reduce_to_stream", ()),
    ("dihp", "run_protocol", ()),
    ("dihp", "separation_experiment", ("cli",)),
    ("fourier_suite", "verify_fourier_lemmas", ("cli",)),
    ("fourier", "transform", ()),
]
AGGREGATED = {
    "cli.iter_stream_edges",
    "graph.parse_edge_line",
    "estimator.EstimatorBank.process_edge",
    "oracles.QmcOperator.apply",
    "fourier.transform",
}
GENERATORS = {"cli.iter_stream_edges"}


class Tracer:
    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.alloc_peak_bytes = 0
        self._stack: list[list] = []  # [span id or None, child seconds]

    def _enclosing_span(self):
        for span_id, _ in reversed(self._stack):
            if span_id is not None:
                return span_id
        return None

    def timed(self, name: str, fn):
        aggregated = name in AGGREGATED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None if aggregated else len(self.spans)
            parent = None if aggregated else self._enclosing_span()
            if span_id is not None:
                self.spans.append({"id": span_id, "name": name, "parent": parent})
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                if span_id is not None:
                    self.spans[span_id].update(start=start, end=end, self=duration - frame[1])

        return wrapper

    def timed_generator(self, name: str, fn):
        """Time each step of a generator as one aggregated call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self.timed(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return wrapper

    def _bank_built(self, init):
        @functools.wraps(init)
        def wrapper(bank, *args, **kwargs):
            init(bank, *args, **kwargs)
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()

        return wrapper

    def _bank_finalised(self, w_estimate):
        @functools.wraps(w_estimate)
        def wrapper(bank):
            value = w_estimate(bank)
            if tracemalloc.is_tracing():
                self.alloc_peak_bytes = max(self.alloc_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return value

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, attr_path, rebinds in TARGETS:
            module = importlib.import_module(f"qmcstream.{module_name}")
            owner_name, _, attr = attr_path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            name = f"{module_name}.{attr_path}"
            if self.alloc and attr_path == "EstimatorBank.__init__":
                fn = self._bank_built(fn)
            if self.alloc and attr_path == "EstimatorBank.w_estimate":
                fn = self._bank_finalised(fn)
            wrapped = (self.timed_generator if name in GENERATORS else self.timed)(name, fn)
            setattr(owner, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            for other in rebinds:
                setattr(importlib.import_module(f"qmcstream.{other}"), attr, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"totals": self.totals, "alloc_peak_bytes": self.alloc_peak_bytes}) + "\n")
