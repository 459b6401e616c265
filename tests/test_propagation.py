"""Large-scale propagation: LOS probability, path loss, cluster generation."""

import dataclasses
import math

import numpy as np
import pytest

from rislink import ENVIRONMENTS, LinkTag, draw_clusters, draw_link_state, los_probability, spawn_rng
from rislink.config import PathLossTable
from rislink.errors import ModelValidityWarning, NonPositiveDistance
from rislink.propagation import draw_cluster_variates, place_clusters, shadowed_attenuation

INH = ENVIRONMENTS["inh"]
UMI = ENVIRONMENTS["umi"]
INH_NOSHADOW = dataclasses.replace(
    INH,
    pl_los=dataclasses.replace(INH.pl_los, shadow_sigma_db=0.0),
    pl_nlos=dataclasses.replace(INH.pl_nlos, shadow_sigma_db=0.0))


def path_loss(d, f_hz, env, los, rng):
    """`shadowed_attenuation` with one standard-normal shadowing draw per path from `rng`."""
    return shadowed_attenuation(d, f_hz, env, los, rng.standard_normal(np.shape(d)))


class TestLosProbability:
    def test_umi_at_18m_is_certain(self):
        assert los_probability(18.0, UMI) == pytest.approx(1.0)

    def test_umi_at_36m(self):
        assert los_probability(36.0, UMI) == pytest.approx(0.6839, abs=1e-4)

    def test_inh_pieces(self):
        assert los_probability(1.0, INH) == 1.0
        assert los_probability(3.0, INH) == pytest.approx(math.exp(-1.8 / 4.7))
        assert los_probability(6.5, INH) == pytest.approx(0.32)

    @pytest.mark.parametrize("env", [INH, UMI])
    def test_nonincreasing_and_bounded(self, env):
        d = np.linspace(1.0, 500.0, 2000)
        p = np.array([los_probability(x, env) for x in d])
        assert np.all(np.diff(p) <= 1e-12)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert los_probability(1e5, env) < 1e-3

    def test_nonpositive_distance(self):
        with pytest.raises(NonPositiveDistance):
            los_probability(0.0, INH)


class TestPathLoss:
    def test_reference_inh_los_value(self):
        rng = spawn_rng(0, 0, LinkTag.TX_RIS)
        lin = path_loss(10.0, 28e9, INH_NOSHADOW, los=True, rng=rng)
        assert -10 * math.log10(lin) == pytest.approx(78.64, abs=0.01)
        assert lin == pytest.approx(1.37e-8, rel=1e-2)

    def test_deterministic_without_shadowing(self):
        a = path_loss(25.0, 28e9, INH_NOSHADOW, False, spawn_rng(1, 0, 0))
        b = path_loss(25.0, 28e9, INH_NOSHADOW, False, spawn_rng(2, 9, 1))
        assert a == b

    def test_doubling_distance_adds_b_log2(self):
        rng = spawn_rng(0, 0, 0)
        for d in (2.0, 10.0, 73.0):
            a = path_loss(d, 28e9, INH_NOSHADOW, True, rng)
            b = path_loss(2 * d, 28e9, INH_NOSHADOW, True, rng)
            delta_db = -10 * (math.log10(b) - math.log10(a))
            assert delta_db == pytest.approx(INH.pl_los.distance_coeff_db * math.log10(2), rel=1e-12)

    def test_strictly_decreasing_in_d_and_f(self):
        rng = spawn_rng(0, 0, 0)
        d = np.linspace(1.0, 300.0, 500)
        lin = path_loss(d, 28e9, INH_NOSHADOW, False, rng)
        assert np.all(np.diff(lin) < 0)
        at_28 = path_loss(40.0, 28e9, INH_NOSHADOW, False, rng)
        at_73 = path_loss(40.0, 73e9, INH_NOSHADOW, False, rng)
        assert at_73 < at_28

    def test_never_amplifies(self):
        # extreme shadowing draws must still stay within (0, 1]
        env = dataclasses.replace(INH, pl_los=PathLossTable(0.0, 1.0, 0.0, 30.0))
        rng = spawn_rng(5, 0, 0)
        lin = path_loss(np.full(2000, 1.0), 1e9, env, True, rng)
        assert np.all(lin <= 1.0)
        assert np.all(lin > 0.0)

    def test_validity_floor_clamps_with_warning(self):
        rng = spawn_rng(0, 0, 0)
        with pytest.warns(ModelValidityWarning):
            near = path_loss(0.2, 28e9, INH_NOSHADOW, True, rng)
        assert near == path_loss(1.0, 28e9, INH_NOSHADOW, True, rng)


class TestLinkState:
    def test_certain_los_at_short_range(self):
        for i in range(64):
            state = draw_link_state(1.0, 28e9, INH, spawn_rng(3, i, LinkTag.DIRECT))
            assert state.los

    def test_forced_states(self):
        rng = spawn_rng(0, 0, 0)
        off = draw_link_state(5.0, 28e9, INH, rng, force_los=False)
        assert (off.los, off.attenuation, off.phase) == (False, 0.0, 0.0)
        on = draw_link_state(500.0, 28e9, INH, spawn_rng(0, 1, 0), force_los=True)
        assert on.los and 0 < on.attenuation <= 1.0 and 0 <= on.phase < 2 * np.pi

    def test_empirical_frequency_matches_formula(self):
        d = 10.0
        p = los_probability(d, INH)
        n = 10_000
        hits = sum(draw_link_state(d, 28e9, INH, spawn_rng(11, i, LinkTag.DIRECT)).los
                   for i in range(n))
        se = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 2 * se


class TestClusters:
    def test_deterministic_per_stream(self):
        a = draw_clusters((0, 25, 2), (40, 50, 2), INH, 28e9, spawn_rng(9, 4, LinkTag.TX_RIS))
        b = draw_clusters((0, 25, 2), (40, 50, 2), INH, 28e9, spawn_rng(9, 4, LinkTag.TX_RIS))
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.attenuations, b.attenuations)

    def test_at_least_one_cluster_and_bounded_sizes(self):
        for i in range(300):
            cs = draw_clusters((0, 0, 1), (10, 0, 1), INH, 28e9, spawn_rng(2, i, 0))
            assert cs.cluster_count >= 1
            assert np.all((cs.sizes >= INH.scatterers_min) & (cs.sizes <= INH.scatterers_max))
            assert cs.total_paths == cs.sizes.sum()

    def test_scatterers_above_ground(self):
        for i in range(100):
            cs = draw_clusters((0, 0, 1), (30, 0, 1), UMI, 28e9, spawn_rng(8, i, 0))
            assert np.all(cs.positions[:, 2] >= 0.0)

    def test_attenuations_in_unit_interval(self):
        for i in range(50):
            cs = draw_clusters((0, 25, 2), (40, 50, 2), INH, 28e9, spawn_rng(4, i, 0))
            assert np.all((cs.attenuations > 0.0) & (cs.attenuations <= 1.0))

    def test_clamped_poisson_mean(self):
        # oracle: E[max(1, Poisson(lam))] = sum_k max(1, k) pmf(k)
        lam = INH.cluster_intensity
        pmf = [math.exp(-lam)]
        for k in range(1, 80):
            pmf.append(pmf[-1] * lam / k)
        expected = sum(max(1, k) * p for k, p in enumerate(pmf))
        assert expected == pytest.approx(1.9653, abs=1e-4)

        fast_env = dataclasses.replace(INH, scatterers_min=1, scatterers_max=1)
        n = 20_000
        counts = [draw_clusters((0, 0, 1), (5, 0, 1), fast_env, 28e9,
                                spawn_rng(13, i, 0)).cluster_count
                  for i in range(n)]
        assert np.mean(counts) == pytest.approx(expected, rel=0.01)

    def test_shared_geometry_redraws_gains(self):
        first = draw_clusters((0, 25, 2), (40, 50, 2), INH, 28e9, spawn_rng(6, 0, 0))
        shared = draw_clusters((40, 50, 2), (45, 45, 1), INH, 28e9, spawn_rng(6, 0, 1),
                               geometry_from=first)
        assert np.array_equal(shared.positions, first.positions)
        assert np.array_equal(shared.sizes, first.sizes)
        assert not np.array_equal(shared.gains, first.gains)
        assert not np.array_equal(shared.attenuations, first.attenuations)

    def test_gains_standard_complex_gaussian(self):
        gains = np.concatenate([
            draw_clusters((0, 0, 1), (20, 0, 1), INH, 28e9, spawn_rng(21, i, 0)).gains
            for i in range(400)])
        assert abs(gains.mean()) < 0.02
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_one_draw_placed_at_many_far_ends(self):
        near = np.array([40.0, 50.0, 2.0])
        far = np.array([[45.0, 45.0, 1.0], [40.3, 49.6, 2.0], [10.0, 5.0, 1.5]])
        variates = draw_cluster_variates(INH, spawn_rng(3, 1, 1))
        placed = place_clusters(variates, near, far[:, None, :], INH, 28e9)
        assert placed.positions.shape == (3, placed.total_paths, 3)
        assert placed.attenuations.shape == (3, placed.total_paths)
        for i, end in enumerate(far):
            alone = draw_clusters(near, end, INH, 28e9, spawn_rng(3, 1, 1))
            assert np.array_equal(placed.sizes, alone.sizes)
            assert np.array_equal(placed.gains, alone.gains)
            assert np.array_equal(placed.positions[i], alone.positions)
            np.testing.assert_allclose(placed.attenuations[i], alone.attenuations,
                                       rtol=1e-12, atol=0)
