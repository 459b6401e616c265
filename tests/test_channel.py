"""Channel assembly: link matrices, phase matrix, composite channel."""

import dataclasses

import numpy as np
import pytest

from rislink import (ArraySpec, ChannelTriple, RisSpec, SimConfig, assemble_direct_channel,
                     assemble_link_channel, build_scene, composite_channel,
                     composite_multi, phase_matrix, realize_channels, scene_preset,
                     validate_config)
from rislink.channel import PhaseVector
from rislink.errors import DimensionMismatch
from rislink.geometry import element_gain
from rislink.propagation import ClusterSet, LinkState


def los_only_scene(nt=1, nr=1, n=16):
    """Surface at the origin facing +x, terminals on the +x axis (broadside)."""
    cfg = SimConfig(
        environment=scene_preset("indoor").environment,
        frequency_hz=28e9,
        tx=ArraySpec("ula", nt, (4.0, 0.0, 1.0)),
        rx=ArraySpec("ula", nr, (8.0, 0.0, 1.0)),
        ris=(RisSpec(n, (0.0, 0.0, 1.0), plane="yz"),),
        scatter_paths=False,
        direct_mode="blocked",
        realizations=1,
    )
    return validate_config(cfg)


def single_path_clusters(position, gain=1.0, attenuation=1.0):
    return ClusterSet(sizes=np.array([1]), centers=np.array([position], float),
                      positions=np.array([position], float),
                      gains=np.array([gain], complex),
                      attenuations=np.array([attenuation]))


class TestAssembly:
    def test_single_broadside_scatterer(self):
        # one unit path broadside to both apertures: matrix = sqrt(Ge(0)) * ones
        vc = los_only_scene(nt=2, nr=1, n=9)
        scene = build_scene(vc)
        clusters = single_path_clusters((2.0, 0.0, 1.0))
        mat = assemble_link_channel("tx-ris", clusters, LinkState(False, 0.0, 0.0), scene)
        q = vc.config.ris[0].gain_exponent
        assert mat.shape == (9, 2)
        assert np.allclose(mat, np.sqrt(element_gain(0.0, q)) * np.ones((9, 2)))

    def test_scatterer_behind_aperture_contributes_zero(self):
        vc = los_only_scene(n=9)
        scene = build_scene(vc)
        behind = single_path_clusters((-3.0, 0.0, 1.0))  # behind the +x-facing surface
        mat = assemble_link_channel("tx-ris", behind, LinkState(False, 0.0, 0.0), scene)
        assert np.all(mat == 0.0)

    def test_empty_clusters_without_los_is_exactly_zero(self):
        vc = los_only_scene(nt=3, nr=2, n=4)
        scene = build_scene(vc)
        off = LinkState(False, 0.0, 0.0)
        assert np.all(assemble_link_channel("tx-ris", ClusterSet.empty(), off, scene) == 0.0)
        assert np.all(assemble_link_channel("ris-rx", ClusterSet.empty(), off, scene) == 0.0)
        assert np.all(assemble_direct_channel(ClusterSet.empty(), off, scene) == 0.0)

    def test_los_term_magnitude(self):
        vc = los_only_scene(nt=1, nr=1, n=4)
        scene = build_scene(vc)
        link = LinkState(True, 0.25, 0.0)
        mat = assemble_link_channel("tx-ris", ClusterSet.empty(), link, scene)
        q = vc.config.ris[0].gain_exponent
        assert np.allclose(np.abs(mat), np.sqrt(element_gain(0.0, q) * 0.25))

    def test_direct_channel_has_no_element_pattern(self):
        vc = los_only_scene(nt=2, nr=2)
        scene = build_scene(vc)
        mat = assemble_direct_channel(ClusterSet.empty(), LinkState(True, 1.0, 0.0), scene)
        assert np.allclose(np.abs(mat), 1.0)  # unit attenuation, unit steering entries

    def test_deterministic_realization(self):
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), realizations=1))
        a = realize_channels(vc, 3)
        b = realize_channels(vc, 3)
        assert np.array_equal(a.tx_ris[0], b.tx_ris[0])
        assert np.array_equal(a.ris_rx[0], b.ris_rx[0])
        assert np.array_equal(a.direct, b.direct)

    def test_shared_cluster_flag_reuses_geometry(self):
        base = dataclasses.replace(scene_preset("indoor"), realizations=1)
        split = realize_channels(validate_config(base), 0)
        joint = realize_channels(
            validate_config(dataclasses.replace(base, shared_clusters=True)), 0)
        assert not np.array_equal(split.clusters["ris_rx_0"].positions,
                                  split.clusters["tx_ris_0"].positions)
        assert np.array_equal(joint.clusters["ris_rx_0"].positions,
                              joint.clusters["tx_ris_0"].positions)
        # the transmitter-side link is untouched by the flag
        assert np.array_equal(joint.tx_ris[0], split.tx_ris[0])

    @pytest.mark.parametrize("overrides", [
        {},
        {"ris_links": "auto", "direct_mode": "auto"},
        {"ris_links": "auto", "direct_mode": "present", "shared_clusters": True},
        {"direct_mode": "blocked", "blocked_keeps_scatter": True, "scatter_paths": False},
    ])
    def test_stacked_positions_match_each_position_alone(self, overrides):
        cfg = dataclasses.replace(scene_preset("indoor"), realizations=1, **overrides)
        vc = validate_config(cfg)
        positions = np.array([(x, y, 1.0) for x in (36.0, 41.0, 55.0, 70.0)
                              for y in (5.0, 30.0, 46.0)])
        los_mixed = False
        for r in range(6):
            stacked = realize_channels(vc, r, rx_position=positions)
            alone = [realize_channels(vc, r, rx_position=pos) for pos in positions]
            assert np.array_equal(stacked.tx_ris[0], alone[0].tx_ris[0])
            for i, single in enumerate(alone):
                np.testing.assert_allclose(stacked.ris_rx[0][i], single.ris_rx[0],
                                           rtol=1e-12, atol=1e-300)
                np.testing.assert_allclose(stacked.direct[i], single.direct,
                                           rtol=1e-12, atol=1e-300)
            los_mixed |= len({single.los["ris_rx_0"] for single in alone}) == 2
        # with a live LOS coin, some realization splits the stack
        assert los_mixed == (cfg.ris_links == "auto")

    def test_surface_subset_places_legs_at_given_positions(self):
        second = RisSpec(64, (60.0, 30.0, 2.0), plane="yz")
        base = dataclasses.replace(scene_preset("indoor"), realizations=1)
        vc = validate_config(dataclasses.replace(base, ris=(base.ris[0], second)))
        positions = np.array([(40.0, 40.0, 1.0), (65.0, 30.0, 1.0), (45.0, 45.0, 1.0)])
        full = realize_channels(vc, 2, rx_position=positions)
        part = realize_channels(vc, 2, rx_position=positions,
                                surfaces={1: np.array([1])})
        assert part.tx_ris[0] is None and part.ris_rx[0] is None
        assert part.ris_rx[1].shape == (1, 4, 64)
        assert np.array_equal(part.ris_rx[1][0], full.ris_rx[1][1])
        assert np.array_equal(part.tx_ris[1], full.tx_ris[1])

    def test_realization_order_independent(self):
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), realizations=4))
        forward = [realize_channels(vc, r).tx_ris[0] for r in range(4)]
        shuffled = {r: realize_channels(vc, r).tx_ris[0] for r in (2, 0, 3, 1)}
        for r in range(4):
            assert np.array_equal(forward[r], shuffled[r])

    def test_entry_second_moment_matches_path_mean(self):
        # with the LOS term off, E|H_ij|^2 equals the mean of Ge*L over paths
        cfg = dataclasses.replace(
            scene_preset("indoor"), ris_links="auto", realizations=1,
            environment=dataclasses.replace(scene_preset("indoor").environment,
                                            los_model="never"))
        vc = validate_config(cfg)
        from rislink.propagation import draw_clusters
        from rislink.rng import LinkTag, spawn_rng
        from rislink.geometry import element_gain_from_cos, local_directions

        scene = build_scene(vc)
        surface = scene.ris[0]
        moments, references = [], []
        for r in range(4000):
            rng = spawn_rng(17, r, LinkTag.TX_RIS)
            clusters = draw_clusters(scene.tx.position, surface.position,
                                     cfg.environment, cfg.frequency_hz, rng,
                                     near_frame=scene.tx.frame)
            mat = assemble_link_channel("tx-ris", clusters, LinkState(False, 0, 0), scene)
            moments.append(np.mean(np.abs(mat) ** 2))
            u, _ = local_directions(surface.position, clusters.positions, surface.frame)
            ge = element_gain_from_cos(u[:, 0], surface.gain_exponent)
            references.append(np.mean(ge * clusters.attenuations))
        assert np.mean(moments) == pytest.approx(np.mean(references), rel=0.05)

    def test_entries_zero_mean_without_los(self):
        cfg = dataclasses.replace(scene_preset("indoor"), realizations=1)
        vc = validate_config(cfg)
        scene = build_scene(vc)
        from rislink.propagation import draw_clusters
        from rislink.rng import LinkTag, spawn_rng
        entries = []
        for r in range(1500):
            rng = spawn_rng(19, r, LinkTag.TX_RIS)
            clusters = draw_clusters(scene.tx.position, scene.ris[0].position,
                                     cfg.environment, cfg.frequency_hz, rng,
                                     near_frame=scene.tx.frame)
            mat = assemble_link_channel("tx-ris", clusters, LinkState(False, 0, 0), scene)
            entries.append(mat.ravel())
        entries = np.concatenate(entries)
        rms = np.sqrt(np.mean(np.abs(entries) ** 2))
        assert np.abs(entries.mean()) < 0.01 * rms


class TestPhaseMatrix:
    def test_zero_phases_identity(self):
        assert np.allclose(phase_matrix(np.zeros(5)), np.eye(5))

    def test_unitary(self):
        rng = np.random.default_rng(0)
        phi = phase_matrix(rng.uniform(0, 2 * np.pi, 8))
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.linalg.norm(phi @ x) == pytest.approx(np.linalg.norm(x), rel=1e-12)
        assert np.allclose(phi @ phi.conj().T, np.eye(8), atol=1e-12)

    def test_pi_phase(self):
        assert np.allclose(phase_matrix(np.array([np.pi])), [[-1.0]])

    def test_phase_vector_wraps(self):
        pv = PhaseVector(np.array([2 * np.pi + 0.5, -0.5]))
        assert np.allclose(pv.phases, [0.5, 2 * np.pi - 0.5])


class TestComposite:
    def test_zero_cascade_reduces_to_direct(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        triple = ChannelTriple(np.zeros((4, 3), complex), np.zeros((2, 4), complex), d)
        assert np.allclose(composite_channel(triple, np.zeros(4)), d)

    def test_scalar_case(self):
        h, g, d, theta = 0.3 + 0.1j, -0.2 + 0.7j, 0.05j, 1.1
        triple = ChannelTriple(np.array([[h]]), np.array([[g]]), np.array([[d]]))
        expected = g * np.exp(1j * theta) * h + d
        assert composite_channel(triple, np.array([theta]))[0, 0] == pytest.approx(expected)

    def test_against_naive_triple_loop(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        g = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        d = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        theta = rng.uniform(0, 2 * np.pi, 4)
        expected = np.array(d, copy=True)
        for i in range(2):
            for j in range(3):
                for n in range(4):
                    expected[i, j] += g[i, n] * np.exp(1j * theta[n]) * h[n, j]
        got = composite_channel(ChannelTriple(h, g, d), theta)
        assert np.allclose(got, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        triple = ChannelTriple(np.zeros((4, 2), complex), np.zeros((2, 4), complex),
                               np.zeros((2, 2), complex))
        with pytest.raises(DimensionMismatch):
            composite_channel(triple, np.zeros(5))

    def test_multi_surface_reduces_to_single(self):
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), realizations=1))
        channels = realize_channels(vc, 0)
        theta = np.linspace(0, 1, channels.tx_ris[0].shape[0])
        via_multi = composite_multi(channels, [theta])
        via_triple = composite_channel(channels.triple(0), theta)
        assert np.allclose(via_multi, via_triple, atol=1e-14)

    def test_absent_surface_skipped(self):
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), realizations=1))
        channels = realize_channels(vc, 0)
        assert np.allclose(composite_multi(channels, [None]), channels.direct)

    def test_unitary_phase_preserves_cascade_singulars(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        phi = phase_matrix(rng.uniform(0, 2 * np.pi, 6))
        assert np.allclose(np.linalg.svd(g @ phi, compute_uv=False),
                           np.linalg.svd(g, compute_uv=False))
