"""Phase control algorithms, surface selection, and link metrics."""

import dataclasses
import math

import numpy as np
import pytest

from rislink import (PhaseAlgorithm, RisSpec, achievable_rate, baseline_phases,
                     far_field_power, pinv_phases, quantize_phases, scene_preset,
                     select_ris, siso_optimal_phases, spawn_rng, validate_config)
from rislink.campaign import Campaign, run_campaign
from rislink.errors import (DimensionMismatch, EmptyList, NonFiniteEntries,
                            SingularPinv, SingularPinvWarning)


def random_channel(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def combined(h, g, theta):
    return np.sum(g * np.exp(1j * theta) * h)


class TestSisoPhases:
    def test_positive_reals_need_no_shift(self):
        theta = siso_optimal_phases(np.array([1.0, 2.0]), np.array([3.0, 0.5]))
        assert np.allclose(theta, 0.0)

    def test_reference_case_with_grid_oracle(self):
        h = np.array([1.0, 1.0j])
        g = np.array([1.0, 1.0])
        theta = siso_optimal_phases(h, g)
        assert np.allclose(theta, [0.0, 3 * np.pi / 2])
        assert abs(combined(h, g, theta)) == pytest.approx(2.0)
        # exhaustive 16-level search over both elements cannot do better
        levels = np.arange(16) * 2 * np.pi / 16
        best = max(abs(combined(h, g, np.array([a, b])))
                   for a in levels for b in levels)
        assert best <= abs(combined(h, g, theta)) + 1e-12

    def test_invariant_under_common_rotation(self):
        rng = np.random.default_rng(0)
        h, g = random_channel(rng, 8), random_channel(rng, 8)
        base = abs(combined(h, g, siso_optimal_phases(h, g)))
        for _ in range(10):
            rot = np.exp(1j * rng.uniform(0, 2 * np.pi))
            rotated = abs(combined(h * rot, g, siso_optimal_phases(h * rot, g)))
            assert rotated == pytest.approx(base, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            siso_optimal_phases(np.ones(3), np.ones(4))


class TestQuantization:
    def test_levels(self):
        q = quantize_phases(np.array([0.1, np.pi, 5.0]), 2)
        step = np.pi / 2
        assert np.allclose(np.mod(q, step), 0.0)

    def test_never_increases_siso_magnitude(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = rng.integers(1, 40)
            h, g = random_channel(rng, n), random_channel(rng, n)
            cont = abs(combined(h, g, siso_optimal_phases(h, g)))
            for bits in (1, 2, 4):
                quant = abs(combined(h, g, siso_optimal_phases(h, g, bits=bits)))
                assert quant <= cont + 1e-12
                # each term is at most half a quantization step off the common axis
                assert quant >= math.cos(np.pi / 2 ** bits) * cont * (1 - 0.01)


class TestPinvPhases:
    def test_unit_modulus_and_determinism(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(4, 32))
            nt, nr = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            h, g = random_channel(rng, (n, nt)), random_channel(rng, (nr, n))
            theta = pinv_phases(h, g)
            assert theta.shape == (n,)
            assert np.allclose(np.abs(np.exp(1j * theta)), 1.0)
            assert np.array_equal(theta, pinv_phases(h, g))

    def test_siso_fast_path_matches_analytic(self):
        rng = np.random.default_rng(3)
        h, g = random_channel(rng, (16, 1)), random_channel(rng, (1, 16))
        via_pinv = pinv_phases(h, g)
        via_siso = siso_optimal_phases(h[:, 0], g[0, :])
        r1 = achievable_rate(combined(h[:, 0], g[0, :], via_pinv), 1.0, 1.0)
        r2 = achievable_rate(combined(h[:, 0], g[0, :], via_siso), 1.0, 1.0)
        assert abs(r1 - r2) < 1e-9

    def test_beats_random_baseline_on_reference_scene(self):
        cfg = dataclasses.replace(scene_preset("indoor"), realizations=200)
        vc = validate_config(cfg)
        adapted = run_campaign(Campaign(vc, algorithm=PhaseAlgorithm("pinv")))
        uncontrolled = run_campaign(Campaign(vc, algorithm=PhaseAlgorithm("random")))
        margin = adapted.mean[0] - uncontrolled.mean[0]
        print(f"\n  pinv-vs-random margin: {margin:.2f} bit/s/Hz "
              f"({adapted.mean[0]:.2f} vs {uncontrolled.mean[0]:.2f})")
        assert margin > 0.0

    def test_degenerate_falls_back_with_warning(self):
        dead_h = np.zeros((8, 2), complex)
        dead_g = np.zeros((2, 8), complex)
        with pytest.warns(SingularPinvWarning):
            theta = pinv_phases(dead_h, dead_g, fallback_rng=spawn_rng(0, 0, 4))
        assert theta.shape == (8,)
        with pytest.warns(SingularPinvWarning):
            with pytest.raises(SingularPinv):
                pinv_phases(dead_h, dead_g)

    def test_stacked_legs_match_each_leg_alone(self):
        rng = np.random.default_rng(6)
        h = random_channel(rng, (16, 4))
        legs = random_channel(rng, (5, 4, 16))
        stacked = pinv_phases(h, legs, bits=3)
        assert stacked.shape == (5, 16)
        for leg, row in zip(legs, stacked):
            np.testing.assert_allclose(row, pinv_phases(h, leg, bits=3), rtol=0, atol=1e-12)

    def test_stacked_fallback_hits_only_the_degenerate_leg(self):
        rng = np.random.default_rng(7)
        h = random_channel(rng, (8, 2))
        legs = random_channel(rng, (3, 2, 8))
        legs[1] = 0.0
        with pytest.warns(SingularPinvWarning):
            stacked = pinv_phases(h, legs, fallback_rng=spawn_rng(0, 0, 4))
        assert np.array_equal(stacked[0], pinv_phases(h, legs[0]))
        assert np.array_equal(stacked[2], pinv_phases(h, legs[2]))
        with pytest.warns(SingularPinvWarning):
            assert np.array_equal(stacked[1],
                                  pinv_phases(h, legs[1], fallback_rng=spawn_rng(0, 0, 4)))

    def test_warns_when_surface_smaller_than_arrays(self):
        rng = np.random.default_rng(4)
        h, g = random_channel(rng, (2, 4)), random_channel(rng, (4, 2))
        with pytest.warns(UserWarning, match="underdetermined"):
            pinv_phases(h, g)

    def test_cascade_size_mismatch(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DimensionMismatch):
            pinv_phases(random_channel(rng, (8, 2)), random_channel(rng, (2, 9)))


class TestBaselines:
    def test_zero_baseline(self):
        assert np.array_equal(baseline_phases("zero", 4), np.zeros(4))

    def test_random_deterministic_under_stream(self):
        a = baseline_phases("random", 32, spawn_rng(7, 0, 4))
        b = baseline_phases("random", 32, spawn_rng(7, 0, 4))
        assert np.array_equal(a, b)

    def test_random_phase_mean(self):
        draws = baseline_phases("random", 100_000, spawn_rng(8, 0, 4))
        assert draws.mean() == pytest.approx(np.pi, rel=0.01)

    def test_empty_surface(self):
        with pytest.raises(EmptyList):
            baseline_phases("zero", 0)


class TestSelectRis:
    def test_reference_two_surface_case(self):
        ris = (RisSpec(64, (40.0, 50.0, 2.0)), RisSpec(64, (60.0, 30.0, 2.0)))
        assert select_ris((45.0, 45.0, 1.0), ris) == 0

    def test_single_entry(self):
        assert select_ris((0, 0, 0), (RisSpec(4, (9.0, 9.0, 9.0)),)) == 0

    def test_tie_goes_to_lower_index(self):
        ris = (RisSpec(4, (1.0, 0.0, 0.0)), RisSpec(4, (-1.0, 0.0, 0.0)))
        assert select_ris((0.0, 0.0, 0.0), ris) == 0

    def test_empty_list(self):
        with pytest.raises(EmptyList):
            select_ris((0, 0, 0), ())


class TestAchievableRate:
    def test_zero_channel(self):
        assert achievable_rate(np.zeros((3, 2), complex), 1.0, 1.0) == 0.0

    def test_siso_unit_snr(self):
        assert achievable_rate(np.array([[1.0 + 0j]]), 1.0, 1.0) == pytest.approx(1.0)

    def test_reference_singular_values(self):
        c = np.diag([2.0, 1.0]).astype(complex)
        assert achievable_rate(c, 1.0, 1.0) == pytest.approx(3.3219, abs=1e-4)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteEntries):
            achievable_rate(np.array([[np.nan + 0j]]), 1.0, 1.0)

    def test_monotone_in_power(self):
        rng = np.random.default_rng(6)
        c = random_channel(rng, (4, 4))
        rates = [achievable_rate(c, p, 1e-10) for p in np.logspace(-3, 2, 30)]
        assert np.all(np.diff(rates) >= 0)

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(7)
        c = random_channel(rng, (5, 5))
        assert achievable_rate(c, 2.0, 0.5) == pytest.approx(
            achievable_rate(c.conj().T, 2.0, 0.5), rel=1e-12)

    def test_svd_matches_direct_log_det(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            nr, nt = rng.integers(1, 17, size=2)
            c = random_channel(rng, (nr, nt))
            rho = float(rng.uniform(0.1, 30.0))
            via_svd = achievable_rate(c, rho, 1.0)
            sign, logdet = np.linalg.slogdet(np.eye(nr) + rho * c @ c.conj().T)
            assert sign == pytest.approx(1.0)
            direct = logdet / np.log(2.0)
            assert abs(via_svd - direct) <= 1e-9 * max(1.0, abs(direct))


class TestFarFieldPower:
    def test_doubling_elements_quadruples_power(self):
        base = far_field_power(1.0, 100, 0.01, 20.0, 30.0)
        assert far_field_power(1.0, 200, 0.01, 20.0, 30.0) == pytest.approx(4 * base)

    def test_reference_value(self):
        got = far_field_power(1.0, 100, 1.0714e-2, 10.0, 10.0)
        assert got == pytest.approx(8.35e-11, rel=1e-2)

    def test_doubling_distance_quarters_power(self):
        base = far_field_power(1.0, 64, 0.01, 10.0, 15.0)
        assert far_field_power(1.0, 64, 0.01, 10.0, 30.0) == pytest.approx(base / 4)

    def test_never_exceeds_transmit_power_in_reference_scenes(self):
        lam = 299792458.0 / 28e9
        for n in (16, 64, 256, 1024):
            for d1, d2 in ((47.17, 7.14), (54.08, 16.76), (1.0, 1.0)):
                assert far_field_power(1.0, n, lam, d1, d2) < 1.0


class TestRateResult:
    def test_from_composite(self):
        from rislink import dbm_to_watts
        rate = achievable_rate(np.array([[1.0 + 0j]]), dbm_to_watts(-70.0), dbm_to_watts(-100.0))
        assert rate == pytest.approx(math.log2(1 + 1000.0))
        assert rate >= 0.0
