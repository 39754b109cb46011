"""Randomized numerical verification of the Fourier toolbox.

Each check replays one identity or inequality on freshly sampled instances
and records one entry per instance: the worst deviation of its sub-checks.
So a check's count is its configured instance count, and the suite passes
when no deviation exceeds its tolerance. The report is JSON-friendly and
fully determined by the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import fourier as fr
from .dihp import sample_partial_matching
from .linalg import (
    Superoperator,
    random_channel,
    random_density,
    random_matrix,
    random_unitary,
    trace_norm,
)
from .rng import substream


@dataclass
class CheckRecord:
    count: int = 0
    violations: int = 0
    max_deviation: float = 0.0
    tolerance: float = 0.0

    def add(self, deviation: float, tolerance: float) -> None:
        self.count += 1
        self.tolerance = tolerance
        self.max_deviation = max(self.max_deviation, float(deviation))
        if deviation > tolerance:
            self.violations += 1

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "violations": self.violations,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
        }


def _random_bit_rows(rng, k: int, n: int) -> list[int]:
    return [int(rng.integers(0, 1 << n)) for _ in range(k)]


def constant_channel(dim: int, target: int) -> Superoperator:
    kraus = []
    for i in range(dim):
        k = np.zeros((dim, dim), dtype=complex)
        k[target, i] = 1.0
        kraus.append(k)
    return Superoperator.from_kraus(kraus)


def random_toy_protocol(rng: np.random.Generator) -> fr.ToyProtocol:
    n = int(rng.integers(2, 5))
    alpha_n = int(rng.integers(1, n // 2 + 1))
    t_players = int(rng.integers(2, 4))
    beta = int(rng.integers(1, 3))
    dim = 1 << beta
    matchings = tuple(sample_partial_matching(rng, n, alpha_n) for _ in range(t_players))
    channels = []
    for _t in range(t_players):
        row = []
        for y in range(1 << alpha_n):
            kind = rng.integers(0, 5)
            if kind == 0:
                row.append(Superoperator.identity(dim))
            elif kind == 1:
                row.append(Superoperator.from_unitary(random_unitary(rng, dim)))
            elif kind == 2:
                row.append(constant_channel(dim, y % dim))
            elif kind == 3:
                row.append(Superoperator.depolarizing(dim))
            else:
                row.append(random_channel(rng, dim, 2))
        channels.append(tuple(row))
    return fr.ToyProtocol(n, beta, alpha_n, matchings, tuple(channels))


def _check_matrix_convolution(rng, rec: CheckRecord, count: int) -> None:
    for _ in range(count):
        n = int(rng.integers(1, 4))
        a, b, c = (int(rng.integers(1, 4)) for _ in range(3))
        scalar_f = rng.random() < 0.25
        scalar_g = rng.random() < 0.25
        size = 1 << n
        if scalar_f:
            f = random_matrix(rng, size, 1)[:, 0]
        else:
            f = np.array([random_matrix(rng, a, b) for _ in range(size)])
        g_rows = b if not scalar_f else int(rng.integers(1, 4))
        if scalar_g:
            g = random_matrix(rng, size, 1)[:, 0]
        else:
            g = np.array([random_matrix(rng, g_rows, c) for _ in range(size)])
        if scalar_f or scalar_g:
            prod = np.array([fx * gx for fx, gx in zip(f, g)])
        else:
            prod = f @ g
        direct = fr.transform(prod)
        viaconv = fr.convolve(fr.transform(f), fr.transform(g))
        rec.add(float(np.max(np.abs(direct - viaconv))), 1e-9)


def _check_operator_convolution(rng, rec: CheckRecord, count: int) -> None:
    for _ in range(count):
        n = int(rng.integers(1, 4))
        beta = int(rng.integers(1, 3))
        dim = 1 << beta
        size = 1 << n
        fam = np.array([random_channel(rng, dim, 2).matrix for _ in range(size)])
        tab = np.array([random_matrix(rng, dim, dim) for _ in range(size)])
        applied = np.array([(fam[x] @ tab[x].reshape(-1)).reshape(dim, dim) for x in range(size)])
        direct = fr.transform(applied)
        viaconv = fr.operator_convolve(fr.transform(fam), fr.transform(tab))
        rec.add(float(np.max(np.abs(direct - viaconv))), 1e-9)


def _check_parseval(rng, rec: CheckRecord, count: int) -> None:
    for _ in range(count):
        n = int(rng.integers(1, 9))
        vals = rng.normal(size=1 << n)
        coeffs = fr.transform(vals)
        lhs = float(np.mean(vals**2))
        rhs = float(np.sum(np.abs(coeffs) ** 2))
        rec.add(abs(lhs - rhs), 1e-10)


def _check_linear_constraints(rng, rec: CheckRecord, count: int) -> None:
    for _ in range(count):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(1, 5))
        rows = _random_bit_rows(rng, k, n)
        y = int(rng.integers(0, 1 << k))
        direct = fr.transform(fr.constraint_indicator_table(rows, y, n))
        predicted = fr.predicted_constraint_coeffs(rows, y, n)
        rec.add(float(np.max(np.abs(direct - predicted))), 1e-10)


def _matrix_factoring(rng):
    n = int(rng.integers(2, 6))
    k = int(rng.integers(1, n))
    rows = _random_bit_rows(rng, k, n)
    dim = int(rng.integers(1, 4))
    return n, rows, [random_matrix(rng, dim, dim) for _ in range(1 << k)]


def _channel_factoring(rng):
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, 3))
    rows = _random_bit_rows(rng, k, n)
    return n, rows, [random_channel(rng, 2, 2).matrix for _ in range(1 << k)]


def _check_support(draw, rng, rec: CheckRecord, count: int) -> None:
    """A table x -> images[Mx] has Fourier support in the row space of M."""
    for _ in range(count):
        n, rows, images = draw(rng)
        values = np.array(images)[fr.z2_apply(rows, np.arange(1 << n))]
        rec.add(fr.support_defect(fr.transform(values), fr.row_space(rows)), 1e-10)


def _check_schatten_hc(rng, rec: CheckRecord, count: int) -> None:
    for _ in range(count):
        n = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 5))
        raw = np.array([random_matrix(rng, dim, dim) for _ in range(1 << n)])
        # Unit-trace-norm entries: both the base^{1/p} and base^{2/p} forms
        # apply (base <= 1).
        bounded = raw / np.maximum(1.0, trace_norm(raw))[:, None, None]
        worst = 0.0
        # The raw table checks the scale-free form (exponent 2/p).
        for table, power in ((bounded, 1.0), (raw, 2.0)):
            for p in (1.25, 1.5, 2.0):
                lhs, base = fr.schatten_weighted_sum(table, p)
                worst = max(worst, lhs - base ** (power / p))
        rec.add(worst, 1e-9)


def _check_trace_hc(rng, rec: CheckRecord, count: int) -> None:
    for _ in range(count):
        beta = int(rng.integers(1, 3))
        tab = np.array([random_density(rng, 1 << beta).matrix for _ in range(16)])
        sums = fr.hypercontractivity_sums(tab, (0.0, 0.5, 1.0))
        rec.add(max(max(r.lhs - r.bound for r in sums), 0.0), 1e-9)


def _check_mass_transfer(rng, rec: CheckRecord, count: int) -> None:
    for _ in range(count):
        p = random_toy_protocol(rng)
        states = fr.protocol_states(p)
        worst = 0.0
        for t, rows in enumerate(p.rows):
            labels = fr.z2_apply(rows, np.arange(1 << p.n))
            a_hat = fr.transform(fr.channel_family_table(p.n, lambda x: p.channels[t][labels[x]]))
            f_prev_hat = fr.transform(states[t])
            f_next_hat = fr.transform(states[t + 1])
            masks = fr.row_space(rows)
            dim = p.dim
            for s_idx in range(1 << p.n):
                acc = np.zeros((dim, dim), dtype=complex)
                for mask in masks:
                    acc += (a_hat[mask] @ f_prev_hat[mask ^ s_idx].reshape(-1)).reshape(dim, dim)
                worst = max(worst, float(np.max(np.abs(acc - f_next_hat[s_idx]))))
        rec.add(worst, 1e-9)


def _check_phi_bound(rng, rec: CheckRecord, count: int) -> None:
    result = fr.phibound_experiment(fr.parity_forwarding_protocol())
    rec.add(max(result.lhs - result.rhs, 0.0), 1e-9)
    for _ in range(count - 1):
        result = fr.phibound_experiment(random_toy_protocol(rng))
        rec.add(max(result.lhs - result.rhs, 0.0), 1e-9)


_CHECKS: list[tuple[str, Callable, int, int]] = [
    # (name, runner, full count, quick count)
    ("matrix_convolution", _check_matrix_convolution, 200, 20),
    ("operator_convolution", _check_operator_convolution, 100, 10),
    ("parseval", _check_parseval, 200, 20),
    ("linear_constraints", _check_linear_constraints, 100, 10),
    ("factoring_support", partial(_check_support, _matrix_factoring), 100, 10),
    ("schatten_hypercontractivity", _check_schatten_hc, 200, 20),
    ("trace_hypercontractivity", _check_trace_hc, 1000, 30),
    ("channel_support", partial(_check_support, _channel_factoring), 100, 10),
    ("mass_transfer", _check_mass_transfer, 50, 5),
    ("phi_bound", _check_phi_bound, 50, 5),
]


def verify_fourier_lemmas(seed: int = 0, quick: bool = False) -> dict:
    """Run every check; returns a JSON-ready report keyed by check name."""
    checks = {}
    all_passed = True
    for idx, (name, runner, full, fast) in enumerate(_CHECKS):
        rec = CheckRecord()
        runner(substream(seed, 0xF0, idx), rec, fast if quick else full)
        checks[name] = rec.as_dict()
        all_passed = all_passed and rec.violations == 0
    return {
        "schema": 1,
        "seed": int(seed),
        "quick": bool(quick),
        "checks": checks,
        "all_passed": all_passed,
    }
