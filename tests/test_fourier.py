import numpy as np
import pytest

from conftest import fresh_rng
from qmcstream import cli
from qmcstream import fourier as fr
from qmcstream import linalg as la
from qmcstream.fourier_suite import (
    _CHECKS,
    constant_channel,
    random_toy_protocol,
    verify_fourier_lemmas,
)


class TestTransform:
    def test_character_concentrates(self):
        s0 = 0b0110
        coeffs = fr.transform(np.array([(-1.0) ** bin(x & s0).count("1") for x in range(16)]))
        expected = np.zeros(16)
        expected[s0] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-12)

    def test_constant_matrix_table(self):
        rho = la.random_density(fresh_rng(70), 4).matrix
        coeffs = fr.transform(np.array([rho] * 4))
        assert np.allclose(coeffs[0], rho)
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_roundtrip_on_random_matrix_tables(self):
        worst = 0.0
        for i in range(100):
            rng = fresh_rng(71, i)
            n = int(rng.integers(1, 5))
            dim = int(rng.integers(1, 4))
            tab = np.array([la.random_matrix(rng, dim, dim) for _ in range(1 << n)])
            twice = fr.transform(fr.transform(tab))
            worst = max(worst, float(np.max(np.abs(twice * (1 << n) - tab))))
        assert worst <= 1e-10

    def test_size_caps(self):
        with pytest.raises(ValueError, match="capped"):
            fr.transform(np.zeros(1 << 13, dtype=complex))
        with pytest.raises(ValueError, match="power of two"):
            fr.transform(np.zeros((6, 2, 2), dtype=complex))


class TestLinearConstraints:
    def test_parity_constraint_two_vars(self):
        coeffs = fr.transform(fr.constraint_indicator_table([0b11], 0, 2))
        assert coeffs[0b00] == pytest.approx(0.5)
        assert coeffs[0b11] == pytest.approx(0.5)
        assert abs(coeffs[0b01]) + abs(coeffs[0b10]) < 1e-14

    def test_unsatisfiable_system_vanishes(self):
        coeffs = fr.transform(fr.constraint_indicator_table([0b11, 0b11], 0b01, 2))
        assert np.max(np.abs(coeffs)) < 1e-14

    def test_point_indicator(self):
        n = 3
        rows = [0b001, 0b010, 0b100]
        y = 0b101
        coeffs = fr.transform(fr.constraint_indicator_table(rows, y, n))
        assert np.allclose(np.abs(coeffs), 1 / 2**n)

    def test_closed_form_matches_direct(self):
        for i in range(60):
            rng = fresh_rng(73, i)
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 5))
            rows = [int(rng.integers(0, 1 << n)) for _ in range(k)]
            y = int(rng.integers(0, 1 << k))
            direct = fr.transform(fr.constraint_indicator_table(rows, y, n))
            assert np.max(np.abs(direct - fr.predicted_constraint_coeffs(rows, y, n))) < 1e-12


class TestZ2Apply:
    def test_matches_row_parities(self):
        for i in range(40):
            rng = fresh_rng(174, i)
            n, k = int(rng.integers(1, 9)), int(rng.integers(0, 6))
            rows = [int(rng.integers(0, 1 << n)) for _ in range(k)]
            expect = [
                sum((bin(x & row).count("1") & 1) << j for j, row in enumerate(rows))
                for x in range(1 << n)
            ]
            assert fr.z2_apply(rows, np.arange(1 << n)).tolist() == expect
        assert fr.popcounts(8).tolist() == [bin(x).count("1") for x in range(256)]

    def test_row_space_lists_masks_in_order(self):
        rows = [0b0011, 0b0110, 0b0011]
        expect = [0, 0b0011, 0b0110, 0b0101, 0b0011, 0, 0b0101, 0b0110]
        assert fr.row_space(rows).tolist() == expect
        assert fr.row_space([]).tolist() == [0]

    def test_protocol_rows_give_matched_edge_labels(self):
        for i in range(20):
            p = random_toy_protocol(fresh_rng(175, i))
            for matching, rows in zip(p.matchings, p.rows):
                expect = [
                    sum((((x >> u) ^ (x >> v)) & 1) << j for j, (u, v) in enumerate(matching))
                    for x in range(1 << p.n)
                ]
                assert fr.z2_apply(rows, np.arange(1 << p.n)).tolist() == expect


class TestChannelFourier:
    def test_constant_family(self):
        ch = la.random_channel(fresh_rng(74), 2, 2)
        coeffs = fr.transform(fr.channel_family_table(2, lambda x: ch))
        assert np.allclose(coeffs[0], ch.matrix)
        assert np.max(np.abs(coeffs[1:])) < 1e-14

    def test_bit_controlled_flip_supported_on_two_masks(self):
        x_gate = la.Superoperator.from_unitary(np.array([[0, 1], [1, 0]], dtype=complex))
        ident = la.Superoperator.identity(2)
        coeffs = fr.transform(fr.channel_family_table(3, lambda x: x_gate if x & 1 else ident))
        assert fr.support_defect(coeffs, [0b000, 0b001]) < 1e-14
        assert la.trace_norm(coeffs[1]) > 0.1

    def test_family_factoring_through_mask(self):
        rng = fresh_rng(75)
        rows = [0b0110]
        images = [la.random_channel(rng, 2, 2).matrix for _ in range(2)]
        fam = np.array([images[bin(x & rows[0]).count("1") & 1] for x in range(16)])
        assert fr.support_defect(fr.transform(fam), fr.row_space(rows)) < 1e-12


class TestToyProtocols:
    def test_identity_protocol_states_are_constant(self):
        ident = la.Superoperator.identity(2)
        p = fr.ToyProtocol(2, 1, 1, (((0, 1),), ((0, 1),)), ((ident, ident), (ident, ident)))
        states = fr.protocol_states(p)
        assert states.shape == (3, 4, 2, 2)
        for tab in states:
            assert np.allclose(tab, states[0])
        res = fr.phibound_experiment(p)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.rhs == pytest.approx(0.0, abs=1e-12)

    def test_classical_write_transform(self):
        # One player writing its label bit into the basis: coefficients
        # concentrate on the empty set and the matched pair, each of norm 1.
        write = (constant_channel(2, 0), constant_channel(2, 1))
        ident = la.Superoperator.identity(2)
        p = fr.ToyProtocol(2, 1, 1, (((0, 1),), ((0, 1),)), (write, (ident, ident)))
        f1 = fr.transform(fr.protocol_states(p)[1])
        assert la.trace_norm(f1[0b11]) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(f1[0b01], 0)
        assert np.allclose(f1[0b10], 0)

    def test_parity_forwarding_is_tight(self):
        res = fr.phibound_experiment(fr.parity_forwarding_protocol())
        assert res.lhs == pytest.approx(1.0, abs=1e-12)
        assert res.rhs == pytest.approx(1.0, abs=1e-12)

    def test_label_ignoring_player_gives_zero_lhs(self):
        write = (constant_channel(2, 0), constant_channel(2, 1))
        dep = la.Superoperator.depolarizing(2)
        p = fr.ToyProtocol(2, 1, 1, (((0, 1),), ((0, 1),)), (write, (dep, dep)))
        res = fr.phibound_experiment(p)
        assert res.lhs == pytest.approx(0.0, abs=1e-12)
        assert res.rhs >= -1e-12

    def test_random_protocols_respect_bound(self):
        for i in range(25):
            res = fr.phibound_experiment(random_toy_protocol(fresh_rng(76, i)))
            assert res.lhs <= res.rhs + 1e-9

    def test_one_channel_row_per_player(self):
        ident = la.Superoperator.identity(2)
        with pytest.raises(ValueError, match="shorter"):
            fr.ToyProtocol(2, 1, 1, (((0, 1),), ((0, 1),)), ((ident, ident),))

    def test_channel_validation(self):
        with pytest.raises(ValueError, match="not trace preserving"):
            la.Superoperator(np.eye(4) * 2)


class TestHypercontractivity:
    def _density_table(self, seed, n=4, beta=2):
        rng = fresh_rng(77, seed)
        return np.array([la.random_density(rng, 1 << beta).matrix for _ in range(1 << n)])

    def test_delta_zero_is_average_norm(self):
        tab = self._density_table(0)
        (rec,) = fr.hypercontractivity_sums(tab, [0.0])
        mean = np.mean(tab, axis=0)
        assert rec.lhs == pytest.approx(la.trace_norm(mean) ** 2, abs=1e-12)
        assert rec.lhs <= 1 + 1e-12

    def test_delta_one_bound(self):
        (rec,) = fr.hypercontractivity_sums(self._density_table(1), [1.0])
        assert rec.bound == pytest.approx(16.0)
        assert rec.lhs <= rec.bound + 1e-9

    def test_one_record_per_delta(self):
        tab = self._density_table(3)
        deltas = (0.0, 0.25, 0.5, 1.0)
        records = fr.hypercontractivity_sums(tab, deltas)
        assert [r.delta for r in records] == list(deltas)
        for rec in records:
            assert fr.hypercontractivity_sums(tab, [rec.delta]) == [rec]

    def test_precondition_enforced(self):
        tab = np.array([np.eye(2, dtype=complex) * 3] * 4)
        with pytest.raises(ValueError, match="trace norm"):
            fr.hypercontractivity_sums(tab, [0.5])


class TestVerificationSuite:
    def test_quick_run_is_clean_and_deterministic(self):
        a = verify_fourier_lemmas(seed=123, quick=True)
        b = verify_fourier_lemmas(seed=123, quick=True)
        assert a == b
        assert a["all_passed"]
        expected = {
            "matrix_convolution",
            "operator_convolution",
            "parseval",
            "linear_constraints",
            "factoring_support",
            "schatten_hypercontractivity",
            "trace_hypercontractivity",
            "channel_support",
            "mass_transfer",
            "phi_bound",
        }
        assert set(a["checks"]) == expected
        assert all(v["violations"] == 0 for v in a["checks"].values())

    def test_count_is_the_configured_instance_count(self):
        report = verify_fourier_lemmas(seed=1, quick=True)
        for name, _runner, _full, quick in _CHECKS:
            assert report["checks"][name]["count"] == quick, name

    def test_violated_bound_is_reported_not_raised(self, monkeypatch):
        # A phi-bound result with lhs > rhs must show as one violation in
        # the report and as exit status 1, not as an exception.
        sentinel = object()
        real = fr.phibound_experiment
        monkeypatch.setattr(fr, "parity_forwarding_protocol", lambda: sentinel)
        monkeypatch.setattr(
            fr,
            "phibound_experiment",
            lambda p: fr.PhiBoundResult(lhs=1.0, rhs=0.5) if p is sentinel else real(p),
        )
        report = verify_fourier_lemmas(seed=1, quick=True)
        assert report["checks"]["phi_bound"]["violations"] == 1
        assert not report["all_passed"]
        assert cli.main(["fourier-verify", "--quick"]) == 1
