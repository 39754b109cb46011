import pytest

from conftest import ConstantAlgorithm
from qmcstream import dihp
from qmcstream.oracles import max_cut_bruteforce


class TestSampling:
    def test_matchings_are_valid_and_sized(self):
        inst = dihp.sample_instance(20, 7, 5, "no", seed=3)
        assert len(inst.matchings) == 5
        for matching in inst.matchings:
            assert len(matching) == 7
            touched = [v for e in matching for v in e]
            assert len(touched) == len(set(touched))

    def test_yes_labels_are_partition_parities(self):
        inst = dihp.sample_instance(16, 4, 6, "yes", seed=11)
        x = inst.hidden_partition
        for matching, bits in zip(inst.matchings, inst.labels):
            for (u, v), b in zip(matching, bits):
                assert b == x[u] ^ x[v]

    def test_perfect_matching_boundary(self):
        inst = dihp.sample_instance(10, 5, 2, "no", seed=0)
        for matching in inst.matchings:
            assert sorted(v for e in matching for v in e) == list(range(10))

    @pytest.mark.parametrize("n,alpha_n,t", [(5, 3, 2), (4, 2, 0), (6, 0, 3)])
    def test_infeasible_parameters(self, n, alpha_n, t):
        with pytest.raises(ValueError):
            dihp.sample_instance(n, alpha_n, t, "no", seed=0)

    def test_deterministic_under_seed(self):
        a = dihp.sample_instance(12, 3, 4, "yes", seed=9)
        b = dihp.sample_instance(12, 3, 4, "yes", seed=9)
        assert a == b

    def test_no_labels_uniform_chi_square(self):
        # 10^4 label bits; chi-square with 1 dof at p > 0.01 means stat < 6.635
        ones = total = 0
        for i in range(500):
            inst = dihp.sample_instance(16, 4, 5, "no", seed=20_000 + i)
            for bits in inst.labels:
                ones += sum(bits)
                total += len(bits)
        assert total == 10_000
        stat = (2 * ones - total) ** 2 / total
        assert stat < 6.635


class TestSerialization:
    def test_roundtrip(self):
        for truth in ("yes", "no"):
            inst = dihp.sample_instance(14, 4, 3, truth, seed=5)
            text = dihp.parse_instance(dihp.serialize_instance(inst))
            assert text.matchings == inst.matchings
            assert text.labels == inst.labels
            assert text.truth == inst.truth

    def test_yes_roundtrip_recovers_consistent_partition(self):
        inst = dihp.sample_instance(14, 4, 3, "yes", seed=6)
        back = dihp.parse_instance(dihp.serialize_instance(inst))
        x = back.hidden_partition
        for matching, bits in zip(back.matchings, back.labels):
            for (u, v), b in zip(matching, bits):
                assert b == x[u] ^ x[v]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "expected header"),
            ("dihp 4 1 1 maybe\n0:1\n1\n", "truth must be"),
            ("dihp 6 2 1 no\n0:1 2:3\n1\n", "label bits"),
            ("dihp 6 2 1 no\n0:1\n10\n", "2 edges"),
            ("dihp 6 2 2 no\n0:1 2:3\n10\n", "2 matchings and 2 label rows"),
            ("dihp 6 2 1 no\n0:1 2:6\n10\n", "outside vertices 0..5"),
            ("dihp 6 2 1 no\n0:1 2:3\n12\n", "must be 0 or 1"),
            ("dihp 6 2 2 yes\n0:1 2:3\n10\n0:1 4:5\n01\n", "not consistent"),
            # Each pair appears once; the conflict is only around the cycle.
            ("dihp 3 1 3 yes\n0:1\n1\n1:2\n1\n0:2\n1\n", "not consistent"),
            ("dihp 4 1 1 no\n0:1\x0c1\n", "need 1 matchings and 1 label rows"),
        ],
    )
    def test_parse_rejects(self, text, message):
        with pytest.raises(ValueError, match=message):
            dihp.parse_instance(text)

    def test_constructor_checks_player_count(self):
        with pytest.raises(ValueError, match="1 matchings and 1 label rows"):
            dihp.DihpInstance(4, 1, 1, (((0, 1),), ((2, 3),)), ((1,), (0,)), "no")

    def test_constructor_checks_supplied_partition(self):
        # Labels (1, 0) are the parities of (0, 1, 1, 1), not of (0, 0, 1, 1).
        matching = ((0, 1), (2, 3))
        dihp.DihpInstance(4, 2, 1, (matching,), ((1, 0),), "yes", (0, 1, 1, 1))
        with pytest.raises(ValueError, match="inconsistent with hidden partition"):
            dihp.DihpInstance(4, 2, 1, (matching,), ((1, 0),), "yes", (0, 0, 1, 1))


class TestReduction:
    def test_single_player_keeps_label_one_edges(self):
        inst = dihp.DihpInstance(
            6, 2, 1, (((0, 1), (2, 3)),), ((1, 0),), "no", None
        )
        stream = dihp.reduce_to_stream(inst)
        assert [e.pair for e in stream.edges] == [(0, 1)]

    def test_shared_edge_appears_once_from_first_player(self):
        inst = dihp.DihpInstance(
            6,
            2,
            2,
            (((0, 1), (2, 3)), ((0, 1), (4, 5))),
            ((1, 1), (1, 1)),
            "no",
            None,
        )
        stream = dihp.reduce_to_stream(inst)
        assert [e.pair for e in stream.edges] == [(0, 1), (2, 3), (4, 5)]

    def test_earlier_matching_blocks_even_if_label_zero(self):
        inst = dihp.DihpInstance(
            4, 1, 2, (((0, 1),), ((0, 1),)), ((0,), (1,)), "no", None
        )
        assert dihp.reduce_to_stream(inst).edges == ()

    def test_reversed_pair_of_earlier_player_is_dropped(self):
        inst = dihp.parse_instance("dihp 4 1 2 no\n1:0\n1\n0:1\n1\n")
        assert [(e.u, e.v) for e in dihp.reduce_to_stream(inst).edges] == [(1, 0)]

    def test_stream_is_duplicate_free(self):
        for i in range(50):
            inst = dihp.sample_instance(18, 4, 6, "no", seed=30_000 + i)
            g = dihp.reduce_to_stream(inst)  # WeightedGraph rejects duplicates
            assert len({e.pair for e in g.edges}) == g.m_edges

    def test_yes_reduces_to_bipartite_with_full_cut(self):
        for i in range(60):
            inst = dihp.sample_instance(24, 5, 6, "yes", seed=40_000 + i)
            g = dihp.reduce_to_stream(inst)
            x = inst.hidden_partition
            assert all(x[e.u] != x[e.v] for e in g.edges)
            if g.edges:
                assert max_cut_bruteforce(g).value == len(g.edges)


class TestProtocolHarness:
    def test_threshold_mechanics(self):
        inst = dihp.sample_instance(16, 4, 4, "no", seed=1)
        m = dihp.reduce_to_stream(inst).m_edges
        assert m > 0
        above = dihp.run_protocol(inst, ConstantAlgorithm(m / 1.4), "mc", 0.5)
        assert above.decision == "yes" and above.threshold == pytest.approx(m / 1.5)
        below = dihp.run_protocol(inst, ConstantAlgorithm(m / 1.6), "mc", 0.5)
        assert below.decision == "no"
        qmc_mode = dihp.run_protocol(inst, ConstantAlgorithm(m / 3.5), "qmc", 0.5)
        assert qmc_mode.threshold == pytest.approx(m / 3.5)
        assert qmc_mode.decision == "yes"

    def test_empty_stream_decides_yes(self):
        inst = dihp.DihpInstance(4, 1, 1, (((0, 1),),), ((0,),), "no", None)
        tr = dihp.run_protocol(inst, ConstantAlgorithm(0.0), "mc", 0.5)
        assert tr.m == 0 and tr.decision == "yes"

    def test_reversed_pair_is_fed(self):
        inst = dihp.parse_instance("dihp 4 1 1 no\n1:0\n1\n")
        tr = dihp.run_protocol(inst, dihp.ExactOracleAlgorithm(4, "mc"), "mc", 0.5)
        assert tr.m == 1 and tr.reported_value == 1.0
        assert tr.handoff_words == (4,)

    def test_handoff_words_counted_per_player(self):
        inst = dihp.sample_instance(16, 4, 4, "no", seed=2)
        alg = dihp.ExactOracleAlgorithm(16, "mc")
        tr = dihp.run_protocol(inst, alg, "mc", 0.5)
        assert len(tr.handoff_words) == 4
        assert all(w >= 1 for w in tr.handoff_words)  # includes the edge counter
        assert tr.handoff_words == tuple(sorted(tr.handoff_words))

    def test_estimator_state_constant_across_handoffs(self):
        inst = dihp.sample_instance(16, 4, 4, "no", seed=3)
        alg = dihp.QmcEstimateAlgorithm(0.5, 0.2, seed=0)
        tr = dihp.run_protocol(inst, alg, "qmc", 0.5)
        assert len(set(tr.handoff_words)) == 1

    def test_exact_oracle_accepts_every_yes_instance(self):
        for i in range(25):
            inst = dihp.sample_instance(24, 4, 6, "yes", seed=50_000 + i)
            tr = dihp.run_protocol(inst, dihp.ExactOracleAlgorithm(24, "mc"), "mc", 0.5)
            assert tr.decision == "yes"  # MC = m always clears m/(2-eps)

    def test_estimator_accepts_every_yes_instance(self):
        for i in range(10):
            inst = dihp.sample_instance(64, 8, 8, "yes", seed=60_000 + i)
            alg = dihp.QmcEstimateAlgorithm(0.6, 0.1, seed=i)
            tr = dihp.run_protocol(inst, alg, "qmc", 0.6)
            assert tr.decision == "yes"

    @pytest.mark.xfail(
        strict=True,
        reason="the one-pass estimate never drops below m/2, which already clears "
        "the m/(4-eps) threshold, so NO instances are always accepted at these "
        "parameters and two-sided success stays near 1/2",
    )
    def test_estimator_protocol_distinguishes_at_desk_scale(self):
        correct = 0
        trials = 50
        for case in ("yes", "no"):
            for i in range(trials):
                inst = dihp.sample_instance(64, 8, 8, case, seed=70_000 + i)
                alg = dihp.QmcEstimateAlgorithm(0.6, 0.1, seed=i)
                tr = dihp.run_protocol(inst, alg, "qmc", 0.6)
                correct += tr.decision == case
        assert correct / (2 * trials) >= 0.9

    @pytest.mark.xfail(
        strict=True,
        reason="sparse NO instances are near-forests with max-cut close to m, "
        "far above m/(2-eps); a value threshold cannot reject them at this density",
    )
    def test_exact_oracle_rejects_most_no_instances(self):
        rejected = 0
        for i in range(30):
            inst = dihp.sample_instance(32, 4, 8, "no", seed=80_000 + i)
            tr = dihp.run_protocol(inst, dihp.ExactOracleAlgorithm(32, "mc"), "mc", 0.5)
            rejected += tr.decision == "no"
        assert rejected / 30 > 0.5


class TestSeparationExperiment:
    def test_yes_statistics_are_exact(self):
        rep = dihp.separation_experiment(24, 3, 6, 40, seed=5, compute_maxcut=True)
        assert rep.yes_stats.bipartite_rate == 1.0
        assert rep.yes_stats.maxcut_ratio_mean == 1.0
        assert rep.yes_stats.maxcut_ratio_min == 1.0

    def test_no_case_shows_deficit(self):
        rep = dihp.separation_experiment(32, 4, 8, 120, seed=0, compute_maxcut=True)
        assert rep.no_stats.maxcut_ratio_mean < 1.0
        assert rep.no_stats.maxcut_ratio_max <= 1.0

    def test_sdp_ratio_reported(self):
        rep = dihp.separation_experiment(
            16, 2, 4, 10, seed=2, compute_maxcut=False, compute_sdp=True
        )
        assert rep.no_stats.sdp_over_m_mean is not None
        # YES instances are bipartite: the relaxation reaches 2m - m = m.
        assert rep.yes_stats.sdp_over_m_mean == pytest.approx(1.0, abs=1e-5)

    def test_qmc_ratio_split_at_half(self):
        rep = dihp.separation_experiment(
            12, 6, 20, 12, seed=4, compute_maxcut=False, compute_qmc=True
        )
        assert rep.yes_stats.qmc_ratio_mean >= 0.5 - 1e-9
        assert rep.no_stats.qmc_ratio_mean < 0.5

    @pytest.mark.xfail(
        strict=True,
        reason="at fixed alpha and T the expected odd-cycle count is constant "
        "while m grows, so the NO max-cut ratio rises toward 1 with n instead "
        "of falling",
    )
    def test_no_ratio_nonincreasing_in_n(self):
        means = []
        for n in (16, 32, 64):
            rep = dihp.separation_experiment(n, n // 8, 8, 120, seed=6, compute_maxcut=True)
            means.append(rep.no_stats.maxcut_ratio_mean)
        assert means[0] >= means[1] >= means[2]

    def test_no_deficit_shrinks_with_n(self):
        # The direction the statistics actually move at fixed alpha and T.
        deficits = []
        for n in (16, 64):
            rep = dihp.separation_experiment(n, n // 8, 8, 120, seed=6, compute_maxcut=True)
            deficits.append(1.0 - rep.no_stats.maxcut_ratio_mean)
        assert deficits[0] > deficits[1] > 0
