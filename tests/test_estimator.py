import copy
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import ReferenceFlushBank, bank_w_hat, fresh_rng, qmc_report, random_stream
from qmcstream import estimator as est
from qmcstream.graph import WeightedEdge, WeightedGraph, max_incident_sum, total_weight

E = WeightedEdge


def stream(n, *triples):
    """A graph whose edges, in the given order, are the stream."""
    return WeightedGraph(n, [E(u, v, Fraction(w)) for u, v, w in triples])


class TestReservoirReference:
    def test_first_edge_always_kept(self):
        r = est.ReservoirState()
        r.process_edge(E(0, 1, Fraction(3)), fresh_rng(60))
        assert r.candidate == E(0, 1, Fraction(3))
        assert r.weight_seen == 3

    def test_second_unit_edge_replaces_half_the_time(self):
        hits = 0
        for i in range(4000):
            r = est.ReservoirState()
            rng = fresh_rng(61, i)
            r.process_edge(E(0, 1), rng)
            r.process_edge(E(2, 3), rng)
            hits += r.candidate.pair == (2, 3)
        assert 0.46 < hits / 4000 < 0.54

    def test_superseded_by_heavier_incident_edge(self):
        r = est.ReservoirState()
        r.weight_seen = Fraction(1000000)  # make replacement essentially impossible
        r.candidate, r.endpoint = E(0, 1, Fraction(3)), 0
        r.process_edge(E(0, 2, Fraction(5)), fresh_rng(62))
        assert r.superseded and r.best_after == 5

    def test_equal_weight_zeroes_but_does_not_supersede(self):
        r = est.ReservoirState()
        r.weight_seen = Fraction(1000000)
        r.candidate, r.endpoint = E(0, 1, Fraction(3)), 0
        r.process_edge(E(0, 2, Fraction(3)), fresh_rng(63))
        assert not r.superseded
        assert est.finalize_sample(r) == 0

    def test_word_count_constant(self):
        r = est.ReservoirState()
        rng = fresh_rng(64)
        before = r.word_count()
        for i in range(200):
            r.process_edge(E(i % 7, 7 + i % 11, Fraction(1 + i % 3)), rng)
        assert r.word_count() == before


class TestFinalize:
    def test_rules(self):
        r = est.ReservoirState()
        assert est.finalize_sample(r) == 0  # empty stream
        r.candidate, r.endpoint, r.weight_seen = E(0, 1, Fraction(4)), 0, Fraction(4)
        assert est.finalize_sample(r) == 1  # nothing later
        r.best_after = Fraction(3)
        assert est.finalize_sample(r) == Fraction(1, 4)
        r.superseded = True
        assert est.finalize_sample(r) == 0


class TestExpectationOracle:
    def test_single_edge(self):
        assert est.expectation_oracle(stream(2, (0, 1, 5)).edges) == 1

    def test_unit_path(self):
        assert est.expectation_oracle(stream(3, (0, 1, 1), (1, 2, 1)).edges) == Fraction(3, 4)

    def test_weighted_example(self):
        # candidate weight 4 with a later weight-3 incident edge gives 1/4
        s = stream(3, (0, 1, 4), (0, 2, 3))
        # outcomes: (e0,u0): 1-3/4=1/4; (e0,u1): 1; (e1,*): 1 each
        expect = (Fraction(4, 7) * (Fraction(1, 4) + 1) + Fraction(3, 7) * 2) / 2
        assert est.expectation_oracle(s.edges) == expect

    def test_equals_w_over_2m_exactly(self):
        for i in range(50):
            rng = fresh_rng(65, i)
            g = random_stream(rng, int(rng.integers(2, 11)), 8, weights=(1, 2, 3, 8))
            assert est.expectation_oracle(g.edges) == max_incident_sum(g) / (2 * total_weight(g))

    def test_exhaustive_up_to_three_edges(self):
        pairs = list(itertools.combinations(range(6), 2))
        checked = 0
        for k in (1, 2, 3):
            for combo in itertools.combinations(pairs, k):
                for order in itertools.permutations(combo):
                    g = WeightedGraph(6, [E(u, v) for u, v in order])
                    assert est.expectation_oracle(g.edges) == max_incident_sum(g) / (
                        2 * total_weight(g)
                    )
                    checked += 1
        assert checked == 15 + 105 * 2 + 455 * 6  # all ordered streams, k <= 3

    def test_permutation_invariance(self):
        for i in range(10):
            rng = fresh_rng(66, i)
            s = random_stream(rng, 8, 6, weights=(1, 2, 5))
            base = est.expectation_oracle(s.edges)
            for j in range(10):
                perm = list(rng.permutation(len(s.edges)))
                assert est.expectation_oracle(s.edges[p] for p in perm) == base

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            est.expectation_oracle(E(i, i + 1) for i in range(17))

    def test_empty(self):
        assert est.expectation_oracle(()) == 0


class TestBankAgainstReference:
    """The chunked bank must match the sequential reservoir in distribution."""

    def test_sample_value_distributions_match(self, monkeypatch):
        # The second stream has ties: (0,1,2) at endpoint 1 and (1,2,2) at
        # endpoint 2 each see a later incident edge of equal weight, which
        # scores 0 without superseding.
        cases = (  # (stream, reference rng path, bank seed)
            (stream(4, (0, 1, 3), (1, 2, 1), (0, 2, 2), (2, 3, 4)), (67,), 9),
            (stream(4, (0, 1, 2), (1, 2, 2), (0, 2, 1), (2, 3, 2)), (67, 1), 10),
        )
        trials = 6000
        monkeypatch.setattr(est, "DEFAULT_CHUNK", 3)
        for s, path, seed in cases:
            ref_counts = {}
            for i in range(trials):
                r = est.ReservoirState()
                rng = fresh_rng(*path, i)
                for e in s.edges:
                    r.process_edge(e, rng)
                x = float(est.finalize_sample(r))
                ref_counts[round(x, 9)] = ref_counts.get(round(x, 9), 0) + 1
            bank = est.EstimatorBank(0.35, 0.3, seed=seed)
            bank.process_stream(s.edges)
            xs = bank.sample_values()
            bank_counts = {}
            for x in np.round(xs, 9):
                bank_counts[float(x)] = bank_counts.get(float(x), 0) + 1
            assert set(bank_counts) == set(ref_counts)
            for value, count in ref_counts.items():
                p_ref = count / trials
                p_bank = bank_counts[value] / bank.size
                # three-sigma agreement between two Monte Carlo estimates
                sigma = (p_ref * (1 - p_ref) / trials + p_bank * (1 - p_bank) / bank.size) ** 0.5
                assert abs(p_ref - p_bank) < 4 * max(sigma, 1e-3)
        # Exact law of the tie stream (m = 7): only (0,1,2) at endpoint 0
        # scores 1/2, while the tied and the superseded samples score 0.
        assert ref_counts.keys() == {0.0, 0.5, 1.0}
        assert abs(bank_counts[0.0] / bank.size - 5 / 14) < 5 * (5 / 14 * 9 / 14 / bank.size) ** 0.5

    def test_candidate_distribution_proportional_to_weight(self, monkeypatch):
        s = stream(4, (0, 1, 1), (1, 2, 2), (2, 3, 5))
        monkeypatch.setattr(est, "DEFAULT_CHUNK", 2)
        bank = est.EstimatorBank(0.2, 0.2, seed=3)
        bank.process_stream(s.edges)
        bank.flush()
        m = 8.0
        # the weights are distinct, so a candidate's weight names its edge
        for w in (1, 2, 5):
            freq = float(np.mean(bank._cand_w == w))
            sigma = (w / m * (1 - w / m) / bank.size) ** 0.5
            assert abs(freq - w / m) < 5 * sigma

    def test_chunk_boundaries_do_not_matter_statistically(self, monkeypatch):
        s = stream(5, *[(u, v, 1 + (u + v) % 3) for u in range(5) for v in range(u + 1, 5)])
        means = []
        for chunk in (1, 3, 100):
            monkeypatch.setattr(est, "DEFAULT_CHUNK", chunk)
            bank = est.EstimatorBank(0.1, 0.1, seed=8)
            bank.process_stream(s.edges)
            means.append(float(np.mean(bank.sample_values())))
        exact = float(est.expectation_oracle(s.edges))
        for m in means:
            assert abs(m - exact) < 0.02


class TestBlocks:
    """process_block draws exactly what process_edge does, however the stream is split."""

    @staticmethod
    def columns(edges):
        """The edges as the per-line reader's columns: integer weights as ints."""
        return (
            np.array([e.u for e in edges], dtype=np.int64),
            np.array([e.v for e in edges], dtype=np.int64),
            np.array([e.w.numerator if e.w.denominator == 1 else e.w for e in edges], dtype=object),
        )

    @pytest.mark.parametrize("weights", [(1,), (1, 2, 7), (1, Fraction(5, 2), Fraction(1, 3))])
    def test_every_split_gives_the_same_samples(self, weights, monkeypatch):
        chunk = 64
        monkeypatch.setattr(est, "DEFAULT_CHUNK", chunk)
        rng = fresh_rng(190, len(weights))
        n = 40
        edges = []
        for _ in range(5 * chunk + 17):
            u, v = rng.choice(n, size=2, replace=False)
            edges.append(E(int(u), int(v), Fraction(weights[int(rng.integers(len(weights)))])))
        ref = est.EstimatorBank(0.5, 0.3, seed=11)
        ref.process_stream(edges)
        splits = {
            "one block": [len(edges)],
            "chunk-sized": [chunk] * 6,
            "off by one": [chunk - 1, chunk + 1, 1, 2 * chunk + 3],
            "larger than a chunk": [3 * chunk + 5, 2 * chunk],
            "random": list(rng.integers(0, 2 * chunk, size=40)),
        }
        for name, sizes in splits.items():
            bank = est.EstimatorBank(0.5, 0.3, seed=11)
            start = 0
            for size in sizes:
                bank.process_block(*self.columns(edges[start : start + size]))
                start += size
            bank.process_stream(edges[start:])
            assert np.array_equal(bank.sample_values(), ref.sample_values()), name
            assert type(bank.m_exact) is type(ref.m_exact) and bank.m_exact == ref.m_exact
            assert (bank.edges_seen, bank.unit_weights) == (ref.edges_seen, ref.unit_weights)


class UniformRecorder:
    """A Generator stand-in that keeps every array of uniforms it hands out."""

    def __init__(self, rng):
        self.rng = rng
        self.uniforms = []

    def random(self, size):
        u = self.rng.random(size)
        self.uniforms.append(u)
        return u

    def __getattr__(self, name):
        # Not self.rng: a copy under construction has no rng yet.
        return getattr(object.__getattribute__(self, "rng"), name)


def test_uniform_recorder_survives_deepcopy():
    rec = UniformRecorder(fresh_rng(178))
    assert np.array_equal(copy.deepcopy(rec).integers(0, 9, size=4), rec.integers(0, 9, size=4))


def replay_arrivals(edges, chunk, uniforms):
    """Arrival index of each reservoir's candidate (-1 for none), replayed
    from the uniforms of each chunk's flush in exact integer arithmetic.

    A chunk's draw U picks the last replacement at position j iff the
    chunk's prefix weights satisfy before_j <= U * W_end < through_j, and
    no replacement iff U * W_end >= the chunk's total. Generator.random
    returns U = a / 2^53 for an integer a, and scaling every weight by the
    lcm d of the denominators makes the test an integer comparison.
    """
    d = math.lcm(*(e.w.denominator for e in edges))
    arrival = np.full(len(uniforms[0]), -1)
    seen = 0
    starts = range(0, len(edges), chunk)
    assert len(uniforms) == len(starts)  # one draw per flushed chunk
    for start, u in zip(starts, uniforms):
        part = edges[start : start + chunk]
        through = list(itertools.accumulate(int(e.w * d) for e in part))
        seen += through[-1]
        a = u * 2.0**53
        assert np.array_equal(a, np.floor(a))
        cat = np.searchsorted(
            np.array(through, dtype=object) * 2**53,
            a.astype(np.int64).astype(object) * seen,
            side="right",
        )
        replaced = cat < len(part)
        arrival[replaced] = start + cat[replaced].astype(np.int64)
    return arrival


def check_exact_state(edges, n, chunk, seed):
    """Stream edges through a bank and replay every reservoir's state."""
    bank = est.EstimatorBank(0.5, 0.3, seed=seed)
    assert bank.chunk_size == chunk
    bank._rng = UniformRecorder(bank._rng)
    bank.process_stream(edges)
    bank.flush()
    # later[k, v]: max weight at v over the edges after arrival k
    later = np.zeros((len(edges), n))
    for k in range(len(edges) - 2, -1, -1):
        later[k] = later[k + 1]
        e = edges[k + 1]
        for x in (e.u, e.v):
            later[k, x] = max(later[k, x], float(e.w))
    k = replay_arrivals(edges, chunk, bank._rng.uniforms)
    assert np.all(k >= 0)  # the first chunk replaces every reservoir
    us, vs = (np.array([getattr(e, x) for e in edges]) for x in "uv")
    weights = np.array([float(e.w) for e in edges])
    assert np.all((bank._cand_v == us[k]) | (bank._cand_v == vs[k]))
    assert np.array_equal(bank._cand_w, weights[k])
    assert np.array_equal(bank._best_after, later[k, bank._cand_v])


def tied_weight(rng):
    # few distinct weights, so ties between incident edges are common
    return Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 3)))


class TestFlushExact:
    """Each reservoir's state is a deterministic function of its candidate."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1024, est.DEFAULT_CHUNK])
    def test_state_is_the_later_incident_max(self, chunk, monkeypatch):
        monkeypatch.setattr(est, "DEFAULT_CHUNK", chunk)
        for trial in range(6):
            rng = fresh_rng(170, chunk, trial)
            n = int(rng.integers(8, 14))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            rng.shuffle(pairs)
            edges = [E(u, v, tied_weight(rng)) for u, v in pairs[: int(rng.integers(10, 41))]]
            check_exact_state(edges, n, chunk, seed=trial)

    def test_full_chunks_at_the_default_size(self):
        # Two full chunks of the shipped size and a partial one, so the
        # replay crosses real flush boundaries. Pairs repeat (the bank
        # keeps no duplicate set), which keeps the vertex count small.
        rng = fresh_rng(171)
        n = 12
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = rng.integers(0, len(pairs), size=2 * est.DEFAULT_CHUNK + 333)
        edges = [E(*pairs[i], tied_weight(rng)) for i in picks]
        check_exact_state(edges, n, est.DEFAULT_CHUNK, seed=5)


def check_against_reference(u, v, halves, seed):
    """Feed a bank and a ReferenceFlushBank, seeded alike, the columns one
    chunk at a time (weights Fraction(halves, 2)), and require bitwise-equal
    state after every flush. Returns how many reservoirs that kept their
    candidate had a nonzero best_after raised by a later chunk."""
    bank = est.EstimatorBank(0.5, 0.3, seed=seed)
    ref = ReferenceFlushBank(0.5, 0.3, seed=seed)
    c, raised = bank.chunk_size, 0
    for start in range(0, len(u), c):
        part = slice(start, start + c)
        cand, prior = (bank._cand_v.copy(), bank._cand_w.copy()), bank._best_after.copy()
        w = np.array([Fraction(h, 2) for h in halves[part].tolist()], dtype=object)
        for b in (bank, ref):
            b.process_block(u[part], v[part], w)
            b.flush()
        for name in ("_cand_v", "_cand_w", "_best_after"):
            assert np.array_equal(getattr(bank, name), getattr(ref, name)), (name, start)
        kept = (bank._cand_v == cand[0]) & (bank._cand_w == cand[1])
        raised += int(np.count_nonzero(kept & (prior > 0) & (bank._best_after > prior)))
    return raised


class TestFlushAgainstReference:
    """The flush leaves bitwise the state of the flush that queries every reservoir."""

    @pytest.mark.parametrize("chunk", [7, 64, est.DEFAULT_CHUNK])
    def test_state_after_every_flush(self, chunk, monkeypatch):
        # Three full chunks and a partial one over about 2c vertices, so a
        # chunk holds some kept reservoirs' endpoints and misses others, and
        # weights from {1/2, 1, 3/2}, so incident edges often tie.
        monkeypatch.setattr(est, "DEFAULT_CHUNK", chunk)
        rng = fresh_rng(175, chunk)
        count, n = 3 * chunk + chunk // 3 + 1, 2 * chunk + 3
        u = rng.integers(0, n, size=count)
        v = (u + rng.integers(1, n, size=count)) % n
        raised = check_against_reference(u, v, rng.integers(1, 4, size=count), seed=chunk)
        assert raised > 0

    def test_mask_aliases_and_large_ids(self):
        # Each chunk's edges join one family of ids: family j < 4 is the
        # base set plus j * 2^k, with 2^k the endpoint table's size at the
        # shipped C, and family 4 counts down from 2^63 - 1, which aliases
        # the base set's top. Weights rise chunk by chunk, so a kept
        # reservoir credited with an aliased vertex's maximum shows.
        c = est.DEFAULT_CHUNK
        size = 1 << est._mask_bits(c)
        base = np.concatenate([np.arange(24), size - 1 - np.arange(24)])
        families = [base + j * size for j in range(4)] + [np.iinfo(np.int64).max - np.arange(48)]
        rng = fresh_rng(176)
        us, vs, halves = [], [], []
        for t in range(6):
            ids = families[t % len(families)]
            count = c if t < 5 else c // 2 + 5
            a = rng.integers(0, len(ids), size=count)
            b = (a + rng.integers(1, len(ids), size=count)) % len(ids)
            us.append(ids[a])
            vs.append(ids[b])
            halves.append(2 * t + rng.integers(1, 4, size=count))
        raised = check_against_reference(*map(np.concatenate, (us, vs, halves)), seed=3)
        assert raised > 0

    def test_state_does_not_depend_on_vertex_ids(self):
        # The draws depend on the weights alone, so renaming the vertices
        # renames the candidates and changes nothing else. The new names
        # pair v with v + step, whose keys vertex * (c + 1) differ by 1
        # modulo 2^64 at the shipped C: the reference's keys interleave.
        c = est.DEFAULT_CHUNK
        inverse = pow(c + 1, -1, 2**64)
        step = min(inverse, 2**64 - inverse)
        n = 40
        names = np.arange(n) % (n // 2) + (np.arange(n) >= n // 2) * step
        assert names.max() < 2**63 - 1
        rng = fresh_rng(177)
        count = 2 * c + 100
        u = rng.integers(0, n, size=count)
        v = (u + rng.integers(1, n, size=count)) % n
        w = rng.integers(1, 4, size=count)
        dense = est.EstimatorBank(0.5, 0.3, seed=2)
        named = est.EstimatorBank(0.5, 0.3, seed=2)
        dense.process_block(u, v, w)
        named.process_block(names[u], names[v], w)
        dense.flush()
        named.flush()
        assert np.array_equal(named._cand_v, names[dense._cand_v])
        assert np.array_equal(named._cand_w, dense._cand_w)
        assert np.array_equal(named._best_after, dense._best_after)


class TestBoundedness:
    def test_every_sample_value_in_unit_interval(self, monkeypatch):
        monkeypatch.setattr(est, "DEFAULT_CHUNK", 5)
        for i in range(30):
            rng = fresh_rng(159, i)
            s = random_stream(rng, int(rng.integers(2, 10)), 14, weights=(1, 2, 3, 7))
            bank = est.EstimatorBank(0.5, 0.4, seed=i)
            bank.process_stream(s.edges)
            xs = bank.sample_values()
            assert float(np.min(xs)) >= 0.0 and float(np.max(xs)) <= 1.0
            ref = est.ReservoirState()
            rng2 = fresh_rng(160, i)
            for e in s.edges:
                ref.process_edge(e, rng2)
            x = est.finalize_sample(ref)
            assert 0 <= x <= 1


class TestEstimateW:
    def test_empty_stream(self):
        assert bank_w_hat((), 0.3, 0.1) == 0.0

    def test_single_edge_exact(self):
        assert bank_w_hat(stream(2, (0, 1, 5)).edges, 0.3, 0.1, seed=4) == 10.0

    def test_plan_constants(self):
        k, b = est.amplification_plan(0.1, 0.1)
        assert b == 3600
        assert k == 2 * int(np.ceil(12 * np.log(10))) + 1
        assert k % 2 == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            est.amplification_plan(0.0, 0.5)
        with pytest.raises(ValueError):
            est.amplification_plan(0.5, 1.0)

    def test_additive_guarantee_monte_carlo(self):
        rng = fresh_rng(68)
        edges = []
        for u in range(60):
            for v in range(u + 1, 60):
                if rng.random() < 0.15:
                    edges.append(E(u, v))
        g = WeightedGraph(60, edges)
        w_true = float(max_incident_sum(g))
        m = float(total_weight(g))
        hits = sum(
            abs(bank_w_hat(g.edges, 0.2, 0.1, seed=t) - w_true) <= 0.2 * m
            for t in range(40)
        )
        assert hits >= 36

    def test_clamped_to_range(self):
        s = stream(3, (0, 1, 1), (1, 2, 1))
        for t in range(10):
            assert 0.0 <= bank_w_hat(s.edges, 0.5, 0.3, seed=t) <= 2.0 * float(total_weight(s))


class TestEstimateQmc:
    def test_single_unit_edge_value(self):
        q = qmc_report(stream(2, (0, 1, 1)).edges, 0.1, 0.1, seed=7)
        assert q.value == pytest.approx(1.00625, abs=1e-12)
        assert q.mode == "unweighted"
        assert q.guaranteed_ratio == pytest.approx(2.1)

    def test_empty_stream(self):
        q = qmc_report((), 0.2, 0.1)
        assert q.value == 0.0

    def test_weighted_mode_detection(self):
        q = qmc_report(stream(2, (0, 1, 2)).edges, 0.2, 0.1)
        assert q.mode == "weighted"
        assert q.guaranteed_ratio == pytest.approx(2.7)

    def test_value_window(self):
        for i in range(15):
            rng = fresh_rng(69, i)
            s = random_stream(rng, 8, 12, weights=(1, 2, 3))
            q = qmc_report(s.edges, 0.3, 0.2, seed=i)
            m = q.m
            assert m / 2 - 1e-12 <= q.value <= m + 0.3 * m / 4 + 1e-12

    def test_deterministic_under_seed(self):
        s = stream(6, (0, 1, 1), (2, 3, 1), (1, 2, 1), (4, 5, 1))
        a = qmc_report(s.edges, 0.25, 0.1, seed=123)
        b = qmc_report(s.edges, 0.25, 0.1, seed=123)
        assert a == b
        c = qmc_report(s.edges, 0.25, 0.1, seed=124)
        assert a.m == c.m  # same exact counting regardless of seed


class TestSpaceDiscipline:
    def test_words_independent_of_stream_length(self):
        short = est.EstimatorBank(0.4, 0.2, seed=1)
        for i in range(10):
            short.process_edge(E(i, i + 10))
        long = est.EstimatorBank(0.4, 0.2, seed=1)
        n_side = 400
        for i in range(100_000):
            u = i % n_side
            v = n_side + (i // n_side) % n_side
            long.process_edge(E(u, v))
        assert short.words_used() == long.words_used()
        assert short.words_used() == 3 * short.size + 8 + 3 * short.chunk_size

    def test_words_used_counts_the_allocated_arrays(self, monkeypatch):
        monkeypatch.setattr(est, "DEFAULT_CHUNK", 16)
        bank = est.EstimatorBank(0.4, 0.2, seed=1)
        bank.process_stream(E(i, i + 1, Fraction(1 + i % 3, 2)) for i in range(50))
        bank.sample_values()
        nbytes = sum(x.nbytes for x in vars(bank).values() if isinstance(x, np.ndarray))
        assert nbytes == 8 * (3 * bank.size + 3 * bank.chunk_size)
        assert bank.words_used() == nbytes // 8 + 8

    def test_eight_scalars_besides_the_generator_and_m(self):
        bank = est.EstimatorBank(0.5, 0.5)
        scalars = {name for name, x in vars(bank).items() if not isinstance(x, np.ndarray)}
        assert scalars == {
            "epsilon", "delta", "groups", "per_group", "_weight_seen", "edges_seen",
            "unit_weights", "_fill", "_rng", "m_exact",
        }

    def test_m_is_an_int_until_the_first_rational_weight(self):
        bank = est.EstimatorBank(0.5, 0.5)
        assert type(bank.m_exact) is int
        bank.process_edge(E(0, 1, Fraction(3)))
        bank.process_block(np.array([1]), np.array([2]), np.array([2]))
        assert type(bank.m_exact) is int and bank.m_exact == 5
        bank.process_edge(E(2, 3, Fraction(1, 2)))
        assert type(bank.m_exact) is Fraction and bank.m_exact == Fraction(11, 2)

    def test_words_used_flushes_nothing(self, monkeypatch):
        bank = est.EstimatorBank(0.5, 0.5)
        bank.process_edge(E(0, 1))
        flushed = []
        monkeypatch.setattr(bank, "flush", lambda: flushed.append(True))
        bank.words_used()
        assert flushed == []

    def test_rejects_nonpositive_weight(self):
        bank = est.EstimatorBank(0.5, 0.5)
        with pytest.raises(ValueError):
            bank.process_edge(E(0, 1, Fraction(0)))
