"""Geometry layer: angles, frames, steering vectors, element pattern."""

from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rislink import ArraySpec, RisSpec, scene_preset, validate_config
from rislink.channel import build_scene
from rislink.config import MAX_ARRAY_ELEMENTS
from rislink.errors import CoincidentPoints, DimensionMismatch
from rislink.geometry import (GLOBAL_FRAME, RESTART, GridAxes, azimuth_rotation_frame,
                              direction_unit, element_gain, element_gain_from_cos,
                              frame_from_plane, grid_factors, local_directions, steering_matrix)

from reference import element_positions

WAVELENGTH = 299792458.0 / 28e9


class Relation(NamedTuple):
    azimuth: float
    elevation: float
    distance: float


def geometry_relation(frm, to, frame=GLOBAL_FRAME) -> Relation:
    """Distance and local-frame (azimuth, elevation) of `to` as seen from `frm`."""
    u, dist = local_directions(np.asarray(frm, float), np.asarray(to, float), frame)
    x, y, z = u[0]
    return Relation(np.arctan2(y, x), np.arctan2(z, np.hypot(x, y)), dist[0])


def steering_vector(spec, azimuth, elevation):
    """Array response of `spec` towards one local direction."""
    k = 2.0 * np.pi / WAVELENGTH
    vert, horiz = spec.grid_axes(WAVELENGTH)
    return steering_matrix(k * vert, k * horiz, direction_unit(azimuth, elevation)[None])[:, 0]


class TestGeometryRelation:
    def test_reference_tx_to_ris(self):
        rel = geometry_relation((0, 25, 2), (40, 50, 2))
        assert rel.distance == pytest.approx(47.17, abs=0.01)
        assert np.degrees(rel.azimuth) == pytest.approx(32.01, abs=0.01)
        assert rel.elevation == 0.0

    def test_vertical(self):
        rel = geometry_relation((0, 0, 0), (0, 0, 5))
        assert np.degrees(rel.elevation) == pytest.approx(90.0)
        assert rel.distance == pytest.approx(5.0)

    def test_reference_ris_to_rx(self):
        rel = geometry_relation((40, 50, 2), (45, 45, 1))
        assert rel.distance == pytest.approx(np.sqrt(51), rel=1e-12)
        assert np.degrees(rel.elevation) == pytest.approx(-8.05, abs=0.01)

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            geometry_relation((1, 2, 3), (1, 2, 3))

    def test_distance_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3)
            assert geometry_relation(p, q).distance == pytest.approx(
                geometry_relation(q, p).distance, rel=1e-12)

    def test_scaling_leaves_angles(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, q = rng.uniform(0.1, 50, 3), rng.uniform(0.1, 50, 3)
            s = rng.uniform(0.1, 10)
            a, b = geometry_relation(p, q), geometry_relation(p * s, q * s)
            assert b.azimuth == pytest.approx(a.azimuth, abs=1e-9)
            assert b.elevation == pytest.approx(a.elevation, abs=1e-9)
            assert b.distance == pytest.approx(a.distance * s, rel=1e-9)


class TestFrames:
    @pytest.mark.parametrize("plane,facing,normal", [
        ("xz", 1, [0, 1, 0]), ("xz", -1, [0, -1, 0]),
        ("yz", 1, [1, 0, 0]), ("yz", -1, [-1, 0, 0]),
    ])
    def test_wall_frames(self, plane, facing, normal):
        frame = frame_from_plane(plane, facing)
        assert np.allclose(frame @ frame.T, np.eye(3))
        assert np.allclose(frame[0], normal)
        # in-plane vertical axis stays the global vertical for wall mounts
        assert np.allclose(frame[2], [0, 0, 1])

    def test_azimuth_rotation(self):
        frame = azimuth_rotation_frame(np.pi / 2)
        assert np.allclose(frame @ frame.T, np.eye(3))
        assert np.allclose(frame[0], [0, 1, 0], atol=1e-12)

    def test_azimuth_rotation_stack_equals_scalar_calls(self):
        alpha = 2 * np.pi * np.random.default_rng(3).random(17)
        stacked = azimuth_rotation_frame(alpha)
        assert stacked.shape == (17, 3, 3)
        one_by_one = np.stack([azimuth_rotation_frame(a) for a in alpha.tolist()])
        assert stacked.tobytes() == one_by_one.tobytes()
        # the form the scalar call had before it took arrays
        alone = [np.array([[np.cos(a), np.sin(a), 0.0], [-np.sin(a), np.cos(a), 0.0],
                           [0.0, 0.0, 1.0]]) for a in alpha.tolist()]
        assert stacked.tobytes() == np.stack(alone).tobytes()

    def test_broadside_angles_in_own_frame(self):
        # a point straight along the broadside has zero local azimuth/elevation
        frame = frame_from_plane("xz", -1)
        rel = geometry_relation((40, 50, 2), (40, 30, 2), frame)
        assert rel.azimuth == pytest.approx(0.0, abs=1e-12)
        assert rel.elevation == pytest.approx(0.0, abs=1e-12)


class TestSteering:
    def test_broadside_gives_all_ones(self):
        spec = ArraySpec("upa", 16, (0, 0, 0))
        vec = steering_vector(spec, 0.0, 0.0)
        assert np.allclose(vec, np.ones(16))

    def test_two_element_endfire(self):
        # half-wavelength ULA along local y, azimuth 90 deg -> opposite phases
        spec = ArraySpec("ula", 2, (0, 0, 0), spacing_wl=0.5)
        vec = steering_vector(spec, np.pi / 2, 0.0)
        assert np.allclose(vec, [1.0, -1.0], atol=1e-12)

    def test_upa_unit_modulus_and_norm(self):
        spec = ArraySpec("upa", 4, (0, 0, 0))
        vec = steering_vector(spec, 0.7, -0.3)
        assert np.allclose(np.abs(vec), 1.0)
        assert np.linalg.norm(vec) == pytest.approx(2.0, rel=1e-12)

    def test_random_directions_unit_modulus(self):
        rng = np.random.default_rng(11)
        spec = RisSpec(36, (0, 0, 0))
        vert, horiz = spec.grid_axes(WAVELENGTH)
        u = direction_unit(rng.uniform(-np.pi, np.pi, 40), rng.uniform(-np.pi / 2, np.pi / 2, 40))
        mat = steering_matrix(2 * np.pi / WAVELENGTH * vert, 2 * np.pi / WAVELENGTH * horiz, u)
        assert mat.shape == (36, 40)
        assert np.allclose(np.abs(mat), 1.0)
        assert np.allclose(np.linalg.norm(mat, axis=0) ** 2, 36.0)

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           spacing=st.floats(0.05, 2.0), centered=st.booleans(),
           stack=st.lists(st.integers(1, 3), max_size=2), paths=st.integers(0, 5),
           seed=st.integers(0, 2**32 - 1))
    @example(rows=8, cols=8, spacing=0.5, centered=True, stack=[], paths=0, seed=0)
    @example(rows=4, cols=16, spacing=0.25, centered=True, stack=[3], paths=1, seed=1)
    @example(rows=1, cols=4, spacing=0.5, centered=False, stack=[2, 3], paths=1, seed=2)
    def test_separable_response_matches_element_sum(self, rows, cols, spacing, centered,
                                                    stack, paths, seed):
        # centered grids come from a surface of any shape, corner-referenced
        # ones from a terminal array (near-square, or one row for a ULA)
        if centered:
            spec = RisSpec(rows * cols, (0, 0, 0), spacing_wl=spacing, shape=(rows, cols))
        else:
            spec = ArraySpec("ula" if rows == 1 else "upa", rows * cols, (0, 0, 0),
                             spacing_wl=spacing)
        rng = np.random.default_rng(seed)
        shape = tuple(stack) + (paths,)
        u = direction_unit(rng.uniform(-np.pi, np.pi, shape),
                           rng.uniform(-np.pi / 2, np.pi / 2, shape))
        k = 2 * np.pi / WAVELENGTH
        vert, horiz = spec.grid_axes(WAVELENGTH)
        got = steering_matrix(k * vert, k * horiz, u)
        elements = element_positions(spec, WAVELENGTH)
        expected = np.exp(1j * k * (elements @ u.swapaxes(-1, -2)))
        assert got.shape == tuple(stack) + (rows * cols, paths)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_single_direction_without_a_path_axis(self):
        vert, horiz = RisSpec(6, (0, 0, 0), shape=(2, 3)).grid_axes(WAVELENGTH)
        u = direction_unit(0.3, 0.2)
        assert np.array_equal(steering_matrix(vert, horiz, u),
                              steering_matrix(vert, horiz, u[None, :]))
        assert steering_matrix(vert, horiz, u).shape == (6, 1)

    def test_directions_must_be_3d(self):
        with pytest.raises(DimensionMismatch):
            steering_matrix(np.zeros(2), np.zeros(2), np.zeros((4, 2)))

    def test_ula_layout_has_single_axis(self):
        assert ArraySpec("ula", 5, (0, 0, 0)).grid_shape == (1, 5)
        assert RisSpec(128, (0, 0, 0)).grid_shape == (8, 16)

    def test_ris_grid_centered(self):
        elements = element_positions(RisSpec(16, (0, 0, 0)), WAVELENGTH)
        assert np.allclose(elements.mean(axis=0), 0.0, atol=1e-15)
        assert np.allclose(elements[:, 0], 0.0)


def scaled_axes(spec):
    k = 2 * np.pi / WAVELENGTH
    vert, horiz = spec.grid_axes(WAVELENGTH)
    return k * vert, k * horiz


def powers_pairs(coords) -> int:
    """cos/sin pairs of an evenly spaced axis that is centred or starts at 0:
    one per RESTART entries of the computed half (or of the entries after 0)."""
    run = coords.size // 2 if coords[0] == -coords[-1] else coords.size - 1
    return -(-run // RESTART)


class TestGridFactors:
    @pytest.mark.parametrize("spec", [
        RisSpec(64, (0, 0, 0)),                                   # centred, even
        RisSpec(15 * 17, (0, 0, 0), shape=(15, 17)),              # centred, odd
        RisSpec(16 * 33, (0, 0, 0), shape=(16, 33), spacing_wl=0.3),
        RisSpec(16, (0, 0, 0), shape=(1, 16)),                    # one row
        ArraySpec("upa", 4, (0, 0, 0)),                           # corner-referenced
        ArraySpec("upa", 15 * 17, (0, 0, 0), spacing_wl=0.7),
        ArraySpec("ula", 33, (0, 0, 0)),
        ArraySpec("ula", 16, (0, 0, 0), spacing_wl=1.3),
        ArraySpec("ula", 1, (0, 0, 0)),
    ])
    @pytest.mark.parametrize("stack", [(), (3,), (2, 2)])
    def test_powers_match_direct_trig(self, spec, stack):
        vert, horiz = scaled_axes(spec)
        rng = np.random.default_rng(len(stack) + vert.size * horiz.size)
        shape = stack + (37,)
        u = direction_unit(rng.uniform(-np.pi, np.pi, shape),
                           rng.uniform(-np.pi / 2, np.pi / 2, shape))
        grid = GridAxes(vert, horiz)
        assert grid.trig_pairs == powers_pairs(vert) + powers_pairs(horiz)
        got = grid.factors(u)
        assert got.shape == stack + (vert.size + horiz.size, 37)
        np.testing.assert_allclose(got, grid_factors(vert, horiz, u), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("coords", [
        np.array([0.0, 1.0, 3.0]), np.array([-2.0, 0.5, 2.0]),
        np.array([-3.0, -1.0, 0.0, 1.0, 3.0]), 1.9 * np.arange(20.0) ** 1.01,
        0.7 + 1.9 * np.arange(9)])
    def test_uneven_axis_is_direct_trig(self, coords):
        # the reference takes any axis, each entry's cos/sin of its own phase
        rng = np.random.default_rng(5)
        u = direction_unit(rng.uniform(-np.pi, np.pi, (2, 20)), rng.uniform(-1.5, 1.5, (2, 20)))
        phase = np.concatenate([coords[:, None] * u[..., None, :, 2],
                                coords[::-1, None] * u[..., None, :, 1]], axis=-2)
        got = grid_factors(coords, coords[::-1], u)
        assert got.real.tobytes() == np.cos(phase).tobytes()
        assert got.imag.tobytes() == np.sin(phase).tobytes()

    def test_zero_entries_equal_trig_bit_for_bit(self):
        rng = np.random.default_rng(6)
        u = direction_unit(rng.uniform(-np.pi, np.pi, 50), rng.uniform(-1.5, 1.5, 50))
        vert, horiz = scaled_axes(RisSpec(15, (0, 0, 0), shape=(3, 5)))
        corner = scaled_axes(ArraySpec("ula", 4, (0, 0, 0)))
        for v, h in ((vert, horiz), corner):
            got, expected = GridAxes(v, h).factors(u), grid_factors(v, h, u)
            at = np.concatenate([v, h]) == 0.0
            assert got[at].tobytes() == expected[at].tobytes()

    def test_axis_neither_centred_nor_from_zero_is_refused(self):
        for coords in (0.7 + 1.9 * np.arange(9), np.array([0.5])):
            for axes in ((coords, np.zeros(1)), (np.zeros(1), coords)):
                with pytest.raises(ValueError, match="centred or start at 0"):
                    GridAxes(*axes)

    @pytest.mark.parametrize("spec", [
        ArraySpec("ula", MAX_ARRAY_ELEMENTS, (0, 0, 0)),
        RisSpec(MAX_ARRAY_ELEMENTS, (0, 0, 0), shape=(1, MAX_ARRAY_ELEMENTS))])
    def test_longest_axis_stays_within_phase_rounding(self, spec):
        # the phases x * u themselves round by up to half a unit of max|x * u|
        # (~5e-10 here); restarting the powers keeps their drift within a few
        # such units and their modulus within 1e-13 of 1 (2^20 steps unbroken
        # would drift it by ~4e-11)
        vert, horiz = scaled_axes(spec)
        u = direction_unit(np.array([0.4, -2.0, 1.1]), np.array([0.3, -0.2, 0.0]))
        got = GridAxes(vert, horiz).factors(u)
        bound = 4 * np.spacing(np.max(np.abs(horiz[:, None] * u[:, 1]))) + 1e-13
        assert np.max(np.abs(got - grid_factors(vert, horiz, u))) <= bound
        assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-13

    def test_benchmark_scene_paths_take_four_pairs(self):
        # 8x8 surface: one pair per half-axis; 2x2 terminals: one per axis
        scene = build_scene(validate_config(scene_preset("indoor")))
        assert scene.ris[0].grid.trig_pairs == 2
        assert scene.tx.grid.trig_pairs == scene.rx.grid.trig_pairs == 2


class TestElementGain:
    def test_zero_along_the_plane(self):
        assert element_gain(np.pi / 2, 0.285) == 0.0

    def test_reference_broadside_value(self):
        assert element_gain(0.0, 0.285) == pytest.approx(3.14, abs=1e-12)

    @pytest.mark.parametrize("q", [0.0, 0.285, 1.0, 2.0])
    def test_hemisphere_integral_is_4pi(self, q):
        # solid-angle integral over the front hemisphere, psi measured off broadside
        val, _ = quad(lambda psi: element_gain(psi, q) * np.sin(psi), 0.0, np.pi / 2)
        assert 2 * np.pi * val == pytest.approx(4 * np.pi, abs=1e-3)

    def test_even_and_monotone(self):
        theta = np.linspace(0, np.pi / 2 - 1e-9, 200)
        for q in (0.285, 1.0, 3.0):
            gains = element_gain(theta, q)
            assert np.all(np.diff(gains) <= 1e-12)
            assert np.allclose(element_gain(-theta, q), gains)

    def test_behind_aperture_from_cosine(self):
        assert np.all(element_gain_from_cos(np.array([-0.5, -1e-9, 0.0]), 0.285) == 0.0)
        assert element_gain_from_cos(np.array([1.0]), 0.285)[0] == pytest.approx(3.14)
