"""Channel assembly: link matrices, surface phase response, composite channel."""

import copy
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislink import (ArraySpec, RealizationChannels, RisSpec, SimConfig,
                     assemble_direct_channel, assemble_link_channel, build_scene,
                     composite_multi, quantize_phases, realize_channels,
                     scene_preset, validate_config)
import rislink.channel as channel_module
from rislink.campaign import _run_block
from rislink.channel import realize_block, surface_cascade
from rislink.errors import CoincidentPoints, ConfigError, DimensionMismatch
from rislink.geometry import element_gain, element_gain_from_cos, local_directions, steering_matrix
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


def composite(tx_ris, ris_rx, direct, phases):
    """The end-to-end matrix of one single-surface realization."""
    return composite_multi(RealizationChannels((tx_ris,), (ris_rx,), direct, 0), [phases])


def phase_matrix(phases):
    """diag(exp(j*phases)), the surface's response, as `surface_cascade` applies it."""
    eye = np.eye(len(phases))
    return surface_cascade(eye, eye, phases)


def single_path_clusters(position, gain=1.0, attenuation=1.0):
    return ClusterSet(sizes=np.array([1]), positions=np.array([position], float),
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

    @pytest.mark.parametrize("side, device", [("tx-ris", "tx"), ("tx-ris", "ris"),
                                              ("ris-rx", "rx"), ("ris-rx", "ris")])
    def test_scatterer_on_a_device_is_rejected(self, side, device):
        # a zero near-end or far-end length has no direction
        scene = build_scene(los_only_scene(n=9))
        at = scene.ris[0] if device == "ris" else getattr(scene, device)
        on_device = single_path_clusters(at.position)
        with pytest.raises(CoincidentPoints):
            assemble_link_channel(side, on_device, LinkState(False, 0.0, 0.0), scene)

    def test_los_term_between_coincident_devices_is_rejected(self):
        scene = build_scene(los_only_scene(n=9))
        scene = dataclasses.replace(scene, rx=dataclasses.replace(scene.rx,
                                                                  position=scene.tx.position))
        with pytest.raises(CoincidentPoints):
            assemble_direct_channel(ClusterSet.empty(), LinkState(True, 1.0, 0.0), scene)

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

    def test_shared_cluster_flag_reuses_geometry(self, monkeypatch):
        base = dataclasses.replace(scene_preset("indoor"), realizations=1)
        positions = {}
        for shared in (False, True):
            vc = validate_config(dataclasses.replace(base, shared_clusters=shared))
            calls = placed_legs(vc, range(1), None, monkeypatch)
            # the Tx-surface leg ends at the surface, the surface-Rx leg leaves it
            tx = next(leg for row, _, leg, _ in calls if row.gain_exponent is not None)
            rx = next(leg for _, col, leg, _ in calls if col.gain_exponent is not None)
            positions[shared] = tx.clusters.positions, rx.clusters.positions
        assert not np.array_equal(*positions[False])
        assert np.array_equal(*positions[True])
        # the transmitter-side link is untouched by the flag
        split = realize_channels(validate_config(base), 0)
        joint = realize_channels(
            validate_config(dataclasses.replace(base, shared_clusters=True)), 0)
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

    @pytest.mark.parametrize("overrides", [
        {},
        {"rx_orientation": "fixed"},
        {"ris_links": "auto", "direct_mode": "auto"},
        {"ris_links": "auto", "direct_mode": "present", "shared_clusters": True},
        {"direct_mode": "blocked", "blocked_keeps_scatter": True, "scatter_paths": False},
        {"second": True},
    ])
    def test_block_matches_each_realization_alone(self, overrides):
        overrides = dict(overrides)
        cfg = dataclasses.replace(scene_preset("indoor"), realizations=1)
        if overrides.pop("second", False):
            overrides["ris"] = (cfg.ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz"))
        vc = validate_config(dataclasses.replace(cfg, **overrides))
        block = range(5, 25)   # several placement chunks on the 64-element legs
        stacked = realize_block(vc, block)
        assert stacked.realization == block
        for i, r in enumerate(block):
            alone = realize_channels(vc, r)
            pairs = [(stacked.direct[i, 0], alone.direct)]
            for k in range(len(vc.config.ris)):
                pairs += [(stacked.tx_ris[k][i, 0], alone.tx_ris[k]),
                          (stacked.ris_rx[k][i, 0], alone.ris_rx[k])]
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)

    def test_block_does_not_depend_on_its_placement_chunks(self, monkeypatch):
        vc = validate_config(dataclasses.replace(
            scene_preset("indoor"), realizations=1, ris_links="auto", direct_mode="present"))
        whole = realize_block(vc, range(12))
        monkeypatch.setattr(channel_module, "PLACEMENT_BUDGET", 1)   # one realization a chunk
        chunked = realize_block(vc, range(12))
        assert np.array_equal(whole.tx_ris[0], chunked.tx_ris[0])
        assert np.array_equal(whole.ris_rx[0], chunked.ris_rx[0])
        assert np.array_equal(whole.direct, chunked.direct)

    def test_block_realizes_only_the_listed_surfaces(self):
        base = dataclasses.replace(scene_preset("indoor"), realizations=1)
        vc = validate_config(dataclasses.replace(
            base, ris=(base.ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz"))))
        part = realize_block(vc, range(3), surfaces={1: None})
        assert part.tx_ris[0] is None and part.ris_rx[0] is None
        assert part.tx_ris[1][:, 0].shape == (3, 64, 4) and part.ris_rx[1][:, 0].shape == (3, 4, 64)
        assert np.array_equal(part.ris_rx[1], realize_block(vc, range(3)).ris_rx[1])

    @pytest.mark.parametrize("key", [1, -1, True])
    def test_surface_key_must_index_a_surface(self, key):
        vc = validate_config(scene_preset("indoor"))
        message = re.escape(f"surface key {key!r} is not a surface index in [0, 1)")
        with pytest.raises(ValueError, match=message):
            realize_channels(vc, 0, surfaces={key: None})
        with pytest.raises(ValueError, match=message):
            next(channel_module.realize_chunks(vc, range(4), {key: None}, None, (2, 2)))

    def test_empty_block_rejected(self):
        vc = validate_config(scene_preset("indoor"))
        with pytest.raises(ValueError, match="at least one realization"):
            realize_block(vc, range(0))

    def test_empty_receiver_stack_rejected(self):
        vc = validate_config(scene_preset("indoor"))
        with pytest.raises(ValueError, match="at least one receiver position"):
            realize_block(vc, range(2), None, np.zeros((0, 3)))
        with pytest.raises(ValueError, match="at least one receiver position"):
            realize_channels(vc, 0, np.zeros((0, 3)))

    @pytest.mark.parametrize("ris_links", ["los", "auto"])
    def test_surface_without_cells_rejected(self, ris_links):
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), ris_links=ris_links))
        positions = np.array([[30.0, 20.0, 1.0], [40.0, 20.0, 1.0]])
        with pytest.raises(ValueError, match="surface 0 is realized at no cell"):
            realize_block(vc, range(2), {0: np.array([], dtype=int)}, positions)

    @pytest.mark.parametrize("cells", [[5], [1.5], [True], [-1], [1, 0], [0, 0]],
                             ids=["beyond", "fractional", "boolean", "negative", "decreasing",
                                  "repeated"])
    def test_surface_cells_must_be_increasing_stack_indices(self, cells):
        vc = validate_config(scene_preset("indoor"))
        positions = np.array([[30.0, 20.0, 1.0], [40.0, 20.0, 1.0]])
        message = "surface 0 is realized at no cell, or at cells that are not strictly " \
                  "increasing whole numbers in [0, 2)"
        with pytest.raises(ValueError, match=re.escape(message)):
            realize_block(vc, range(2), {0: np.array(cells)}, positions)

    @pytest.mark.parametrize("realizations, sizes, chunks", [
        (range(4), (4, 2), [range(0, 2), range(2, 4)]),
        (range(5), (3, 2), [range(0, 2), range(2, 3), range(3, 5)]),
    ], ids=["one_group", "two_groups"])
    def test_each_chunk_of_a_split_group_has_its_own_los(self, realizations, sizes, chunks):
        """A group split into chunks gives each chunk the LOS states of that
        chunk realized alone: its slice of the group's Tx-surface states."""
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), ris_links="auto",
                                                 direct_mode="auto"))
        got = list(channel_module.realize_chunks(vc, realizations, None, None, sizes))
        assert [chunk.realization for chunk in got] == chunks
        for chunk in got:
            alone = realize_block(vc, chunk.realization)
            assert chunk.los.keys() == alone.los.keys()
            for key, los in alone.los.items():
                assert np.array_equal(chunk.los[key], los)

    @pytest.mark.parametrize("overrides", [
        {"ris_links": "auto", "direct_mode": "auto"},
        {"ris_links": "auto", "direct_mode": "present", "shared_clusters": True},
        {"direct_mode": "present"},
        {"direct_mode": "blocked", "blocked_keeps_scatter": True, "scatter_paths": False},
        {"second": True, "ris_links": "auto", "direct_mode": "auto"},
    ])
    def test_stacked_block_matches_each_realization_and_position_alone(self, overrides):
        overrides = dict(overrides)
        cfg = dataclasses.replace(scene_preset("indoor"), realizations=1)
        surfaces = None
        if overrides.pop("second", False):
            overrides["ris"] = (cfg.ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz"))
            surfaces = {0: np.array([0, 2, 3, 7, 11]), 1: None}
        vc = validate_config(dataclasses.replace(cfg, **overrides))
        positions = np.array([(x, y, 1.0) for x in (36.0, 41.0, 55.0, 70.0)
                              for y in (5.0, 30.0, 46.0)])
        block = range(3, 9)
        stacked = realize_block(vc, block, surfaces=surfaces, rx_position=positions)
        cells = {k: np.arange(len(positions)) if surfaces is None or surfaces[k] is None
                 else surfaces[k] for k in range(len(vc.config.ris))}
        los_mixed = False
        for i, r in enumerate(block):
            alone = [realize_channels(vc, r, rx_position=pos) for pos in positions]
            pairs = [(stacked.direct[i, c], alone[c].direct) for c in range(len(positions))]
            for k, placed in cells.items():
                pairs += [(stacked.tx_ris[k][i, 0], alone[0].tx_ris[k])]
                pairs += [(stacked.ris_rx[k][i, j], alone[c].ris_rx[k])
                          for j, c in enumerate(placed)]
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)
            los_mixed |= len({single.los["ris_rx_0"] for single in alone}) == 2
        # with a live LOS coin, some realization splits the stack
        assert los_mixed == (vc.config.ris_links == "auto")

    def test_stacked_block_does_not_depend_on_its_placement_chunks(self, monkeypatch):
        vc = validate_config(dataclasses.replace(
            scene_preset("indoor"), realizations=1, ris_links="auto", direct_mode="present"))
        positions = np.array([(x, y, 1.0) for x in (36.0, 55.0, 70.0) for y in (5.0, 46.0)])
        whole = realize_block(vc, range(6), rx_position=positions)
        monkeypatch.setattr(channel_module, "PLACEMENT_BUDGET", 1)   # one path set a chunk
        chunked = realize_block(vc, range(6), rx_position=positions)
        assert np.array_equal(whole.tx_ris[0], chunked.tx_ris[0])
        assert np.array_equal(whole.ris_rx[0], chunked.ris_rx[0])
        assert np.array_equal(whole.direct, chunked.direct)

    @pytest.mark.parametrize("position, message", [
        ((0.0, 25.0, 2.0), "lies on the transmitter"),
        ((40.0, 50.0, 2.0), "lies on ris[0]"),
        ([(30.0, 20.0, 1.0), (40.0, 50.0, 2.0)], "lies on ris[0]"),
        ((float("nan"), 10.0, 1.0), "receiver position (nan, 10.0, 1.0) must be three finite"),
        ((10.0, 10.0, -5.0), "receiver position (10.0, 10.0, -5.0) must be three finite"),
        ([(30.0, 20.0, 1.0), (30.0, 20.0, float("inf"))], "(30.0, 20.0, inf) must be"),
        ((10.0, 10.0), "must be three coordinates"),
    ], ids=["on-tx", "on-surface", "stack", "nan", "below-ground", "stack-inf", "two-coords"])
    def test_explicit_receiver_position_is_checked(self, position, message):
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), realizations=1))
        with pytest.raises(ConfigError, match=re.escape(message)):
            realize_channels(vc, 0, rx_position=position)

    def test_realization_index_beyond_the_seeded_range_rejected(self):
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), realizations=1))
        assert realize_channels(vc, 2**32 - 1).direct.shape == (4, 4)
        with pytest.raises(ValueError):
            realize_channels(vc, 2**32)

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


LINKS = {"tx_ris_0", "ris_rx_0", "tx_ris_1", "ris_rx_1", "direct"}
SHAPE_POSITIONS = np.array([(40.0, 40.0, 1.0), (65.0, 30.0, 1.0), (45.0, 45.0, 1.0)])
SHAPE_SURFACES = {0: np.array([0, 2]), 1: np.array([1])}


def two_surface_config():
    base = scene_preset("indoor")
    return validate_config(dataclasses.replace(
        base, realizations=1, ris_links="auto", direct_mode="auto",
        ris=(base.ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz"))))


class TestBlockShape:
    """Every block keeps its (realization, cell) axes; only `realize_channels` drops them."""

    @pytest.mark.parametrize("where", ["point", "stack", "channels-unit"])
    def test_every_block_keeps_its_realization_and_cell_axes(self, where):
        vc = two_surface_config()
        block = range(2, 7)
        if where == "channels-unit":
            blocks = _run_block(("channels", vc, block, None, None, None))
        elif where == "stack":
            blocks = [realize_block(vc, block, SHAPE_SURFACES, SHAPE_POSITIONS)]
        else:
            blocks = [realize_block(vc, block, rx_position=SHAPE_POSITIONS[0])]
        cells = len(SHAPE_POSITIONS) if where == "stack" else 1
        for channels in blocks:
            b = len(channels.realization)
            assert channels.direct.ndim == 4 and channels.direct.shape[:2] == (b, cells)
            for k in range(2):
                placed = len(SHAPE_SURFACES[k]) if where == "stack" else 1
                assert channels.tx_ris[k].shape[:2] == (b, 1)
                assert channels.ris_rx[k].shape[:2] == (b, placed)

    def test_only_realize_channels_drops_the_axes(self):
        vc = two_surface_config()
        one = realize_channels(vc, 3)
        assert one.direct.shape == (4, 4) and one.cells == {}
        assert all(m.shape == (64, 4) for m in one.tx_ris)
        assert all(m.shape == (4, 64) for m in one.ris_rx)
        assert set(one.los) == LINKS
        assert all(type(v) is bool for v in one.los.values())
        stacked = realize_channels(vc, 3, SHAPE_POSITIONS, SHAPE_SURFACES)
        assert stacked.direct.shape == (3, 4, 4) and stacked.cells == SHAPE_SURFACES
        assert all(m.shape == (64, 4) for m in stacked.tx_ris)
        assert [m.shape for m in stacked.ris_rx] == [(2, 4, 64), (1, 4, 64)]
        block = realize_block(vc, range(3, 4), SHAPE_SURFACES, SHAPE_POSITIONS)
        assert np.array_equal(stacked.direct, block.direct[0])
        assert np.array_equal(stacked.ris_rx[1], block.ris_rx[1][0])


CONTRACT_POSITIONS = np.array([(36.0, 5.0, 1.0), (55.0, 46.0, 1.0), (70.0, 5.0, 1.0),
                               (45.0, 45.0, 1.0), (65.0, 30.0, 1.0), (41.0, 30.0, 1.0)])


def same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def contract_scenes(draw):
    """A scene on the indoor preset, its receiver stack, block and (group, chunk) sizes."""
    base = scene_preset("indoor")
    second = RisSpec(64, (60.0, 30.0, 2.0), plane="yz")
    vc = validate_config(dataclasses.replace(
        base, realizations=1, ris_links=draw(st.sampled_from(["los", "auto"])),
        direct_mode=draw(st.sampled_from(["blocked", "auto", "present"])),
        shared_clusters=draw(st.booleans()), scatter_paths=draw(st.booleans()),
        blocked_keeps_scatter=draw(st.booleans()),
        rx_orientation=draw(st.sampled_from(["random-azimuth", "fixed"])),
        ris=(base.ris[0], second) if draw(st.booleans()) else base.ris))
    cells = draw(st.lists(st.integers(0, len(CONTRACT_POSITIONS) - 1), min_size=1, max_size=4,
                          unique=True))
    start, count = draw(st.integers(0, 99)), draw(st.integers(1, 9))
    group = draw(st.integers(1, count))
    return vc, CONTRACT_POSITIONS[cells], range(start, start + count), (
        group, draw(st.integers(1, group)))


class TestEngineContract:
    @settings(max_examples=32, deadline=None, derandomize=True)
    @given(scene=contract_scenes())
    def test_chunks_positions_and_surfaces_draw_what_each_would_alone(self, scene):
        """Bit for bit: a block's chunks at any sizes are the whole block;
        each (realization, position) is that one realized alone; a second
        surface leaves the first surface's legs and the direct matrix alone."""
        vc, positions, block, sizes = scene
        whole = realize_block(vc, block, rx_position=positions)
        chunks = list(channel_module.realize_chunks(vc, block, None, positions, sizes))
        for name in ("tx_ris", "ris_rx"):
            for k, matrix in enumerate(getattr(whole, name)):
                same_bits(np.concatenate([getattr(c, name)[k] for c in chunks]), matrix)
        same_bits(np.concatenate([c.direct for c in chunks]), whole.direct)
        assert all(c.los.keys() == whole.los.keys() for c in chunks)
        for key, los in whole.los.items():
            same_bits(np.concatenate([c.los[key] for c in chunks]), los)
        for i, r in enumerate(block):
            for c, position in enumerate(positions):
                alone = realize_block(vc, range(r, r + 1), rx_position=position[None])
                same_bits(whole.direct[i, c], alone.direct[0, 0])
                for k in range(len(vc.config.ris)):
                    same_bits(whole.tx_ris[k][i, 0], alone.tx_ris[k][0, 0])
                    same_bits(whole.ris_rx[k][i, c], alone.ris_rx[k][0, 0])
                for key, los in whole.los.items():
                    at = c if len(los) > len(block) else 0
                    assert los.reshape(len(block), -1)[i, at] == alone.los[key][0]
        if len(vc.config.ris) == 2:
            first = realize_block(validate_config(dataclasses.replace(
                vc.config, ris=vc.config.ris[:1])), block, rx_position=positions)
            for got, want in ((first.tx_ris[0], whole.tx_ris[0]),
                              (first.ris_rx[0], whole.ris_rx[0]), (first.direct, whole.direct)):
                same_bits(got, want)
            for key in ("tx_ris_0", "ris_rx_0", "direct"):
                same_bits(first.los[key], whole.los[key])


def leg_calls(vc, realizations, rx_position, monkeypatch):
    """Every (row, col, leg) the engine assembles in one `realize_block`."""
    calls, original = [], channel_module._leg_matrices

    def spy(row, col, leg):
        calls.append((row, col, leg))
        return original(row, col, leg)

    monkeypatch.setattr(channel_module, "_leg_matrices", spy)
    realize_block(vc, realizations, rx_position=rx_position)
    monkeypatch.setattr(channel_module, "_leg_matrices", original)
    return calls


def term_bounds(leg):
    """(S + 1,) offsets of each set's terms: its scattered paths and LOS term."""
    return np.concatenate([[0], np.cumsum(np.diff(leg.bounds) + leg.los)])


def reference_leg_matrices(row, col, leg):
    """Set by set, sum w * a_row * a_col^T over the set's terms (its scattered
    paths, then its LOS term) with full `steering_matrix` responses."""

    def response(device, u):
        return steering_matrix(device.grid.vert, device.grid.horiz, u.T)

    out, bounds = [], term_bounds(leg)
    for s in range(len(leg.los)):
        lo, hi = bounds[s], bounds[s + 1]
        m = np.zeros((row.count, col.count), dtype=complex)
        for t in range(lo, hi):
            m += leg.weights[t] * np.outer(response(row, leg.u_row[:, t:t + 1])[:, 0],
                                           response(col, leg.u_col[:, t:t + 1])[:, 0])
        out.append(m)
    return np.array(out).reshape(-1, len(row.position), row.count, col.count)


def one_set(row, col, leg, s):
    """Set `s` of a leg as a leg of its own: a run and a chunk of one."""
    lo, hi = leg.bounds[s], leg.bounds[s + 1]
    first, last = term_bounds(leg)[s:s + 2]
    los_index = int(np.count_nonzero(leg.los[:s]))
    los = leg.los[s:s + 1]
    alone = channel_module._Leg(los, leg.los_attenuation[los_index:los_index + los.sum()],
                                leg.los_phase[los_index:los_index + los.sum()], None,
                                np.array([0, hi - lo]), leg.u_row[:, first:last],
                                leg.u_col[:, first:last], leg.weights[first:last])
    # sets run in row-major (realization, far point) order
    at = dataclasses.replace(row, position=row.position[s % len(row.position)][None])
    return channel_module._leg_matrices(at, col, alone)[0, 0]


# Overrides on the indoor preset: the golden grids (8x8, 4x16 and 1x67 surfaces,
# 2x2 and ULA terminals, SISO), LOS-only and path-free sets, a live LOS coin.
LEG_CASES = {
    "surface_8x8": {},
    "surface_4x16": {"surface": {"shape": (4, 16)}},
    "surface_1x67": {"surface": {"count": 67}},
    "ula_terminals": {"terminal": {"layout": "ula"}},
    "siso": {"terminal": {"count": 1}},
    "los_only": {"scatter_paths": False},
    "no_paths": {"scatter_paths": False, "ris_links": "auto", "direct_mode": "auto",
                 "blocked_keeps_scatter": True},
    "mixed_los": {"ris_links": "auto", "direct_mode": "auto", "blocked_keeps_scatter": True},
}
LEG_POSITIONS = np.array([(x, y, 1.0) for x in (36.0, 55.0, 70.0) for y in (5.0, 46.0)])


def leg_case_config(name):
    overrides = {"direct_mode": "present", **LEG_CASES[name]}
    cfg = dataclasses.replace(scene_preset("indoor"), realizations=1)
    terminal = overrides.pop("terminal", {})
    surface = dataclasses.replace(cfg.ris[0], **overrides.pop("surface", {}))
    return validate_config(dataclasses.replace(
        cfg, ris=(surface,), tx=dataclasses.replace(cfg.tx, **terminal),
        rx=dataclasses.replace(cfg.rx, **terminal), **overrides))


def placed_legs(vc, realizations, rx_position, monkeypatch):
    """Every (row, col, leg, row_frames) the engine places in one `realize_block`,
    each leg as `_place_links` returns it."""
    calls, original = [], channel_module._place_links

    def spy(vc, links):
        pairs = original(vc, links)
        calls.extend((link.row, link.col, leg, link.row_frames) for link, leg in pairs)
        return pairs

    monkeypatch.setattr(channel_module, "_place_links", spy)
    realize_block(vc, realizations, rx_position=rx_position)
    monkeypatch.setattr(channel_module, "_place_links", original)
    return calls


def reference_terms(row, col, leg, row_frames):
    """A leg's terms as they were formed on (P, 3) rows: each path's placed
    position (`place_clusters`, which `TestStreamContract` checks per far
    point) gathered per term, both directions by `local_directions`, the
    row device's frame gathered per term, weights as `_leg_matrices` states."""
    clusters, scattered, los = leg.clusters, np.diff(leg.bounds), leg.los
    at = row.position[np.arange(len(los)) % len(row.position)]   # each set's row end
    counts = scattered + los
    owner = np.repeat(np.arange(len(los)), counts)
    total, terms = leg.bounds[-1], len(leg.los_phase)
    order = np.arange(total + terms) - np.repeat(np.cumsum(los) - los, counts)
    order[np.cumsum(counts)[los] - 1] = total + np.arange(terms)

    def slots(paths, los_terms):
        return np.concatenate([paths, los_terms]).take(order, axis=0)

    def gain(device, u):
        q = device.gain_exponent
        return 1.0 if q is None else element_gain_from_cos(u[:, 0], q)

    positions = np.ascontiguousarray(clusters.positions)
    # sets run in row-major (realization, far point) order
    frame = row.frame if row_frames is None else row_frames[owner // len(row.position)]
    u_row = local_directions(at[owner], slots(positions, np.broadcast_to(col.position, (terms, 3))),
                             frame)[0]
    u_col = local_directions(col.position, slots(positions, at[los]), col.frame)[0]
    amplitude = slots(clusters.gains / np.sqrt(np.repeat(scattered, scattered)),
                      np.exp(1j * leg.los_phase))
    power = slots(clusters.attenuations, leg.los_attenuation)
    return u_row, u_col, amplitude * np.sqrt(gain(row, u_row) * gain(col, u_col) * power)


TERM_CASES = {   # config, receiver positions (None: the config's one)
    "indoor": (lambda: validate_config(scene_preset("indoor")), None),
    "outdoor": (lambda: validate_config(scene_preset("outdoor")), None),
    "shared_clusters": (lambda: validate_config(dataclasses.replace(
        scene_preset("indoor"), shared_clusters=True)), LEG_POSITIONS),
    "mixed_los": (lambda: leg_case_config("mixed_los"), LEG_POSITIONS),
    "fixed_rx": (lambda: validate_config(dataclasses.replace(
        scene_preset("outdoor"), rx_orientation="fixed", ris_links="auto")), LEG_POSITIONS[:2]),
}


class TestPathTerms:
    @pytest.mark.filterwarnings("ignore::rislink.errors.NearFieldWarning")
    @pytest.mark.parametrize("name", sorted(TERM_CASES))
    def test_terms_equal_the_row_formula_bit_for_bit(self, name, monkeypatch):
        make, positions = TERM_CASES[name]
        calls = placed_legs(make(), range(3, 11), positions, monkeypatch)
        rotated = split = False
        for row, col, leg, frames in calls:
            u_row, u_col, weights = reference_terms(row, col, leg, frames)
            for got, want in ((leg.u_row, u_row), (leg.u_col, u_col)):
                assert got.shape == (3, len(want))
                assert got.T.copy().tobytes() == want.tobytes()
            assert leg.weights.dtype == weights.dtype
            assert leg.weights.tobytes() == weights.tobytes()
            rotated |= frames is not None
            coins = leg.los.reshape(len(frames) if frames is not None else -1, len(row.position))
            split |= bool(np.any(coins.any(axis=1) & ~coins.all(axis=1)))
        assert rotated == (name != "fixed_rx")   # random-azimuth receivers
        if name == "mixed_los":
            assert split   # some realization's LOS coin splits its receiver positions


def placement_passes(vc, realizations, rx_position, monkeypatch, sizes=None):
    """Every placement pass of one block (`realize_block`, or `realize_chunks`
    in `sizes`): its links on copies of their substreams as the pass found
    them, and the legs it returned, each with its link."""
    passes, original = [], channel_module._place_links

    def spy(vc, links):
        found = copy.deepcopy(links)
        pairs = original(vc, links)
        passes.append((found, pairs))
        return pairs

    monkeypatch.setattr(channel_module, "_place_links", spy)
    if sizes is None:
        realize_block(vc, realizations, rx_position=rx_position)
    else:
        list(channel_module.realize_chunks(vc, realizations, None, rx_position, sizes))
    monkeypatch.setattr(channel_module, "_place_links", original)
    return passes


def assert_same_leg(got, want):
    """Two legs equal array for array: dtype, shape and bits."""
    pairs = [(getattr(got.clusters, f), getattr(want.clusters, f))
             for f in ("sizes", "positions", "gains", "attenuations")]
    pairs += [(getattr(got, f), getattr(want, f)) for f in got._fields if f != "clusters"]
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def two_surfaces_direct(shared):
    base = two_surface_config().config
    return validate_config(dataclasses.replace(base, direct_mode="present",
                                               shared_clusters=shared))


class TestPlacementPass:
    @pytest.mark.filterwarnings("ignore::rislink.errors.NearFieldWarning")
    @pytest.mark.parametrize("name", sorted(LEG_CASES) + ["two_surfaces", "two_surfaces_shared"])
    def test_each_leg_of_a_pass_is_its_link_placed_alone(self, name, monkeypatch):
        vc = (two_surfaces_direct(name.endswith("shared")) if name.startswith("two")
              else leg_case_config(name))
        passes = placement_passes(vc, range(4, 10), LEG_POSITIONS, monkeypatch)
        # each surface's Tx-surface and surface-Rx (K = 6 positions) legs, then the direct link
        expected = {"two_surfaces": [5], "two_surfaces_shared": [3, 2]}.get(name, [3])
        assert [len(links) for links, _ in passes] == expected
        for links, pairs in passes:
            for found, (_, leg) in zip(links, pairs, strict=True):
                ((_, alone),) = channel_module._place_links(vc, [copy.deepcopy(found)])
                assert_same_leg(leg, alone)

    def test_a_shared_clusters_chunk_makes_two_passes(self, monkeypatch):
        """Under shared clusters each chunk places the links drawing their own
        geometry (with the group's first chunk, its Tx-surface legs), then the
        surface-Rx legs, which borrow the Tx-surface legs' geometry."""
        vc = two_surfaces_direct(shared=True)
        passes = placement_passes(vc, range(4, 10), LEG_POSITIONS, monkeypatch, (6, 3))
        kinds = [[(link.row.count, link.col.count, link.lender is not None) for link in links]
                 for links, _ in passes]
        tx, rx, direct = (64, 4, False), (4, 64, True), (4, 4, False)
        assert kinds == [[tx, tx, direct], [rx, rx], [direct], [rx, rx]]

    @pytest.mark.parametrize("sizes", [(6, 3), (6, 2)])
    def test_a_borrowing_leg_holds_its_chunks_cluster_sizes(self, sizes, monkeypatch):
        """A surface-Rx leg borrowing its geometry in a split group holds the
        sizes of the lender's clusters in its chunk: they sum to its paths,
        and the chunks' sizes run as the unsplit group's."""
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), shared_clusters=True))

        def borrowers(sizes):
            return [leg.clusters for links, pairs
                    in placement_passes(vc, range(6), None, monkeypatch, sizes)
                    for link, (_, leg) in zip(links, pairs) if link.lender is not None]

        (whole,), split = borrowers((6, 6)), borrowers(sizes)
        assert len(split) == 6 // sizes[1]
        for clusters in [whole, *split]:
            assert clusters.sizes.sum() == len(clusters.positions)
        assert np.concatenate([c.sizes for c in split]).tolist() == whole.sizes.tolist()


class TestLegMatrices:
    @pytest.mark.filterwarnings("ignore::rislink.errors.NearFieldWarning")
    @pytest.mark.parametrize("name", sorted(LEG_CASES))
    def test_matches_the_per_path_reference(self, name, monkeypatch):
        vc = leg_case_config(name)
        calls = leg_calls(vc, range(4, 10), LEG_POSITIONS, monkeypatch)
        assert len(calls) == 3   # Tx-surface, surface-Rx (K = 6 positions), direct
        kinds = set()
        for row, col, leg in calls:
            got = channel_module._leg_matrices(row, col, leg)
            want = reference_leg_matrices(row, col, leg)
            assert got.shape == want.shape
            for g, w in zip(got.reshape(-1, *got.shape[2:]), want.reshape(-1, *want.shape[2:])):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w), initial=0.0)
            paths = np.diff(leg.bounds)
            kinds |= {("los" if los else "nlos", "paths" if p else "no paths")
                      for los, p in zip(leg.los.tolist(), paths.tolist())}
        expected = {"los_only": {("los", "no paths")}, "no_paths": {("nlos", "no paths")},
                    "mixed_los": {("los", "paths"), ("nlos", "paths")}}
        assert kinds >= expected.get(name, {("los", "paths")})

    @pytest.mark.filterwarnings("ignore::rislink.errors.NearFieldWarning")
    @pytest.mark.parametrize("name", sorted(LEG_CASES))
    def test_a_set_does_not_depend_on_its_run_or_chunk(self, name, monkeypatch):
        vc = leg_case_config(name)
        calls = leg_calls(vc, range(4, 10), LEG_POSITIONS, monkeypatch)
        for row, col, leg in calls:
            whole = channel_module._leg_matrices(row, col, leg)
            flat = whole.reshape(-1, *whole.shape[2:])
            for s in range(len(leg.los)):
                assert np.array_equal(flat[s], one_set(row, col, leg, s))
            monkeypatch.setattr(channel_module, "PLACEMENT_BUDGET", 1)   # one set a chunk
            assert np.array_equal(whole, channel_module._leg_matrices(row, col, leg))
            monkeypatch.undo()


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
        phases = quantize_phases(np.array([2 * np.pi + 0.5, -0.5]), None)
        assert np.allclose(phases, [0.5, 2 * np.pi - 0.5])


class TestComposite:
    def test_zero_cascade_reduces_to_direct(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        assert np.allclose(composite(np.zeros((4, 3), complex), np.zeros((2, 4), complex), d,
                                     np.zeros(4)), d)

    def test_scalar_case(self):
        h, g, d, theta = 0.3 + 0.1j, -0.2 + 0.7j, 0.05j, 1.1
        expected = g * np.exp(1j * theta) * h + d
        got = composite(np.array([[h]]), np.array([[g]]), np.array([[d]]), np.array([theta]))
        assert got[0, 0] == pytest.approx(expected)

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
        got = composite(h, g, d, theta)
        assert np.allclose(got, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            composite(np.zeros((4, 2), complex), np.zeros((2, 4), complex),
                      np.zeros((2, 2), complex), np.zeros(5))
        with pytest.raises(DimensionMismatch):
            surface_cascade(np.zeros((4, 2), complex), np.zeros((2, 5), complex), np.zeros(4))

    def test_multi_surface_reduces_to_single(self):
        vc = validate_config(dataclasses.replace(scene_preset("indoor"), realizations=1))
        channels = realize_channels(vc, 0)
        theta = np.linspace(0, 1, channels.tx_ris[0].shape[0])
        via_multi = composite_multi(channels, [theta])
        via_cascade = surface_cascade(channels.tx_ris[0], channels.ris_rx[0],
                                      theta) + channels.direct
        assert np.allclose(via_multi, via_cascade, atol=1e-14)

    def test_cascades_enter_only_the_cells_their_legs_were_placed_at(self):
        base = dataclasses.replace(scene_preset("indoor"), realizations=1)
        vc = validate_config(dataclasses.replace(
            base, ris=(base.ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz"))))
        positions = np.array([(40.0, 40.0, 1.0), (65.0, 30.0, 1.0), (45.0, 45.0, 1.0)])
        placed = {0: np.array([0, 2]), 1: np.array([1])}
        channels = realize_block(vc, range(2), surfaces=placed, rx_position=positions)
        assert channels.cells == placed
        assert realize_block(vc, range(2), rx_position=positions).cells == {}
        phases = [np.linspace(0.0, 6.0, 2 * 2 * 64).reshape(2, 2, 64), np.ones((2, 1, 64))]
        got = composite_multi(channels, phases)
        want = channels.direct.copy()
        for k, cells in placed.items():
            for b in range(2):
                for j, c in enumerate(cells):
                    response = np.diag(np.exp(1j * phases[k][b, j]))
                    want[b, c] += channels.ris_rx[k][b, j] @ response @ channels.tx_ris[k][b, 0]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_one_phase_set_per_surface(self):
        base = dataclasses.replace(scene_preset("indoor"), realizations=1)
        vc = validate_config(dataclasses.replace(
            base, ris=(base.ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz"))))
        channels = realize_channels(vc, 0)
        phases = np.zeros(64)
        for phase_sets in ([phases], [phases, phases, phases]):
            with pytest.raises(DimensionMismatch, match="phase sets for 2 surfaces"):
                composite_multi(channels, phase_sets)

    def test_phases_for_a_surface_left_out_rejected(self):
        base = dataclasses.replace(scene_preset("indoor"), realizations=1)
        vc = validate_config(dataclasses.replace(
            base, ris=(base.ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz"))))
        channels = realize_channels(vc, 0, surfaces={1: None})
        assert np.array_equal(composite_multi(channels, [None, np.zeros(64)]),
                              composite_multi(realize_channels(vc, 0), [None, np.zeros(64)]))
        with pytest.raises(DimensionMismatch, match="surface 0"):
            composite_multi(channels, [np.zeros(64), np.zeros(64)])

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
