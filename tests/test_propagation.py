"""Large-scale propagation: LOS probability, path loss, cluster generation."""

import dataclasses
import math

import numpy as np
import pytest

from rislink import (ENVIRONMENTS, ClusterSet, LinkTag, draw_clusters, draw_link_state,
                     los_probability, scene_preset, spawn_rng, validate_config)
from rislink.channel import _Link, _place_links, build_scene
from rislink.config import PathLossTable
from rislink.errors import ModelValidityWarning, NonPositiveDistance
from rislink.propagation import (ClusterVariates, draw_cluster_units, place_clusters,
                                 shadowed_attenuation, stack_cluster_variates)
from rislink.rng import block_rngs

INH = ENVIRONMENTS["inh"]
UMI = ENVIRONMENTS["umi"]
INH_NOSHADOW = dataclasses.replace(
    INH,
    pl_los=dataclasses.replace(INH.pl_los, shadow_sigma_db=0.0),
    pl_nlos=dataclasses.replace(INH.pl_nlos, shadow_sigma_db=0.0))


def draw_leg(vc, rngs, near, far, geometry_from=None):
    """The link from device `near` to the far points (K, 3), its LOS coin
    live, every realization of `rngs` drawn and placed as one leg."""
    ((_, leg),) = _place_links(vc, [_Link("ris_rx", rngs, dataclasses.replace(near, position=far),
                                          near, None, geometry_from)])
    return leg


def path_loss(d, f_hz, env, los, rng):
    """`shadowed_attenuation` with one standard-normal shadowing draw per path from `rng`."""
    return shadowed_attenuation(d, f_hz, env, los, rng.standard_normal(np.shape(d)))


def scalar_los_probability(d: float, env) -> float:
    """The one-distance form `los_probability` had before it took arrays."""
    if env.los_model in ("always", "never"):
        return 1.0 if env.los_model == "always" else 0.0
    if env.los_model == "inh":
        if d <= 1.2:
            return 1.0
        if d < 6.5:
            return float(np.exp(-(d - 1.2) / 4.7))
        return float(0.32 * np.exp(-(d - 6.5) / 32.6))
    frac = min(18.0 / d, 1.0)
    return float(frac + np.exp(-d / 36.0) * (1.0 - frac))


def around(*points: float) -> list[float]:
    """Each point and its two neighbouring floats."""
    return [x for p in points for x in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]


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

    @pytest.mark.parametrize("model", ["inh", "umi", "always", "never"])
    def test_array_equals_scalar_form(self, model):
        env = dataclasses.replace(INH, los_model=model)
        d = np.array(around(1.2, 6.5, 18.0, 36.0) + list(np.linspace(1e-3, 400.0, 997)) + [1e5])
        expected = np.array([scalar_los_probability(x, env) for x in d.tolist()])
        assert los_probability(d, env).tobytes() == expected.tobytes()
        assert los_probability(d.reshape(-1, 5), env).tobytes() == expected.tobytes()
        for x, p in zip(d.tolist(), expected.tolist()):
            got = los_probability(x, env)
            assert type(got) is float and got == p

    @pytest.mark.parametrize("model", ["inh", "umi", "always", "never"])
    @pytest.mark.parametrize("d", [0.0, -1.0, [3.0, 0.0], [[2.0], [-0.5]]])
    def test_nonpositive_distance_in_any_model(self, model, d):
        with pytest.raises(NonPositiveDistance):
            los_probability(np.array(d), dataclasses.replace(INH, los_model=model))


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
            assert len(cs.sizes) >= 1
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
                                spawn_rng(13, i, 0)).sizes.size
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


def reference_cluster_variates(env, rng, shared_paths=None) -> ClusterVariates:
    """One stream's clusters drawn with a call per variate, mapped as each call maps."""
    sizes = cluster = az = el = radial = d_az = d_el = None
    total = shared_paths
    if shared_paths is None:
        count = max(1, int(rng.poisson(env.cluster_intensity)))
        sizes = rng.integers(env.scatterers_min, env.scatterers_max + 1, size=count)
        az_sup = np.deg2rad(env.cluster_azimuth_deg)
        el_sup = np.deg2rad(env.cluster_elevation_deg)
        az = rng.uniform(-az_sup, az_sup, count)
        el = rng.uniform(-el_sup, el_sup, count)
        radial = rng.random(count)
        cluster = np.repeat(np.arange(count), sizes)
        total = len(cluster)
        spread = np.deg2rad(env.scatter_spread_deg)
        d_az = rng.uniform(-spread, spread, total)
        d_el = rng.uniform(-spread, spread, total)
    gains = (rng.standard_normal(total) + 1j * rng.standard_normal(total)) / np.sqrt(2.0)
    return ClusterVariates(sizes, cluster, az, el, radial, d_az, d_el, gains,
                           rng.standard_normal(total))


def reference_far_point(env, rng, p_los: float, shared_paths=None):
    """One far point's draws with a call per variate: the LOS coin, the LOS
    shadowing and phase if the coin falls LOS, then the clusters."""
    los = bool(rng.uniform() < p_los)
    shadow, phase = (rng.standard_normal(()), rng.uniform(0.0, 2 * np.pi)) if los else (0, 0)
    return los, shadow, phase, reference_cluster_variates(env, rng, shared_paths)


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_variates_equal(got: ClusterVariates, expected: ClusterVariates):
    for name in ClusterVariates._fields:
        a, b = getattr(got, name), getattr(expected, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert_same_bits(a, b)


class TestStreamContract:
    """Unit draws per stream, mapped once per block, equal the per-variate
    calls bit for bit and leave each stream where those calls leave it."""

    @pytest.mark.parametrize("env", [INH, UMI], ids=["inh", "umi"])
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    @pytest.mark.parametrize("streams", [1, 9])
    def test_block_map_equals_per_stream_calls(self, env, shared, streams):
        realizations = range(40, 40 + streams)
        shared_paths = [4 + 3 * i if shared else None for i in realizations]
        rngs = block_rngs(5, realizations, LinkTag.TX_RIS, 0)
        mapped = stack_cluster_variates(
            env, [draw_cluster_units(env, rng, p) for rng, p in zip(rngs, shared_paths)])
        ref_rngs = block_rngs(5, realizations, LinkTag.TX_RIS, 0)
        refs = [reference_cluster_variates(env, rng, p) for rng, p in zip(ref_rngs, shared_paths)]
        expected = {name: np.concatenate([getattr(r, name) for r in refs])
                    for name in ("gains", "shadow")}
        if not shared:
            expected.update({name: np.concatenate([getattr(r, name) for r in refs])
                             for name in ("sizes", "azimuth", "elevation", "radial",
                                          "d_az", "d_el")})
            offsets = np.cumsum([0] + [len(r.sizes) for r in refs[:-1]])
            expected["cluster"] = np.concatenate([r.cluster + o for r, o in zip(refs, offsets)])
        assert_variates_equal(mapped, ClusterVariates(
            **{**dict.fromkeys(ClusterVariates._fields), **expected}))
        for rng, ref in zip(rngs, ref_rngs):
            assert rng.bit_generator.state == ref.bit_generator.state
        one = draw_cluster_units(env, spawn_rng(5, 40, 0, 0), shared_paths[0])
        assert_variates_equal(stack_cluster_variates(env, [one]),
                              reference_cluster_variates(env, spawn_rng(5, 40, 0, 0),
                                                         shared_paths[0]))

    @pytest.mark.parametrize("preset, distances", [("outdoor", (12.0, 30.0, 60.0, 150.0)),
                                                   ("indoor", (1.0, 3.0, 6.0, 20.0))])
    @pytest.mark.parametrize("shared", [False, True], ids=["own", "shared"])
    def test_split_leg_equals_each_far_point_alone(self, preset, distances, shared):
        """A leg whose LOS coin splits a realization's far points (its NLOS
        group reads on from a copy of the stream) gives every far point the
        draws the per-variate calls give it alone."""
        vc = validate_config(dataclasses.replace(scene_preset(preset), ris_links="auto"))
        env, f_hz = vc.config.environment, vc.config.frequency_hz
        near = build_scene(vc).ris[0]
        far = near.position + np.outer(distances, near.frame[0] + [0.0, 0.0, -0.05])
        realizations = range(12)
        geometry_from = None
        if shared:   # each realization lends its geometry from a leg to one far point
            geometry_from = draw_leg(vc, block_rngs(9, realizations, LinkTag.TX_RIS, 0),
                                     near, far[:1])
        leg = draw_leg(vc, block_rngs(9, realizations, LinkTag.RIS_RX, 0), near, far,
                       geometry_from)
        coins = leg.los.reshape(len(realizations), len(far))
        assert np.any(coins.any(axis=1) & ~coins.all(axis=1))   # some coin splits
        los_draws = {}   # LOS set -> its distance and shadowing normal
        for k, point in enumerate(far):
            d = float(np.linalg.norm(point[None] - near.position, axis=-1)[0])
            for i, rng in enumerate(block_rngs(9, realizations, LinkTag.RIS_RX, 0)):
                geometry = shared_paths = None
                if shared:
                    lo, hi = geometry_from.bounds[i:i + 2]
                    shared_paths = int(hi - lo)
                    geometry = ClusterSet(geometry_from.clusters.sizes,
                                          geometry_from.clusters.positions[lo:hi], None, None)
                los, shadow, phase, variates = reference_far_point(
                    env, rng, scalar_los_probability(d, env), shared_paths)
                s = i * len(far) + k
                assert leg.los[s] == los
                if los:
                    los_draws[s] = (d, shadow, phase)
                alone, _ = place_clusters(variates, near.position, point, env, f_hz, near.frame,
                                          geometry)
                paths = slice(leg.bounds[s], leg.bounds[s + 1])
                assert_same_bits(leg.clusters.gains[paths], alone.gains)
                assert_same_bits(leg.clusters.positions[paths], alone.positions)
                assert_same_bits(leg.clusters.attenuations[paths], alone.attenuations)
        assert sorted(los_draws) == np.flatnonzero(leg.los).tolist()
        d, shadow, phase = np.array([los_draws[s] for s in sorted(los_draws)], dtype=float).T
        assert_same_bits(leg.los_phase, phase)
        # evaluated over the leg's LOS sets at once, as the leg evaluates it
        assert_same_bits(leg.los_attenuation, shadowed_attenuation(d, f_hz, env, True, shadow))
        # placed in uneven slices of its substreams, the link gives the whole leg's sets
        rngs = block_rngs(9, realizations, LinkTag.RIS_RX, 0)
        parts = [draw_leg(vc, rngs[a:b], near, far, None if geometry_from is None else
                          geometry_from._replace(bounds=geometry_from.bounds[a:b + 1]))
                 for a, b in ((0, 5), (5, 6), (6, 12))]
        assert_same_bits(np.concatenate([p.los for p in parts]), leg.los)
        for name in ("positions", "gains", "attenuations"):
            assert_same_bits(np.concatenate([getattr(p.clusters, name) for p in parts]),
                             getattr(leg.clusters, name))
        assert_same_bits(np.concatenate([p.los_attenuation for p in parts]), leg.los_attenuation)
        for name in ("u_row", "u_col", "weights"):   # and each set's terms
            assert_same_bits(np.concatenate([getattr(p, name) for p in parts], axis=-1),
                             getattr(leg, name))
