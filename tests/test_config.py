"""Configuration model: validation, derived values, RNG streams, file round-trips."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislink import (ENVIRONMENTS, ArraySpec, Environment, LinkTag, PathLossTable, RisSpec,
                     SimConfig, config_hash, parse_config_text, scene_preset,
                     serialize_config, spawn_rng, validate_config)
from rislink.config import (MAX_ARRAY_ELEMENTS, config_from_mapping, dbm_to_watts,
                            near_square_grid, watts_to_dbm)
from rislink.errors import (ConfigError, EmptySweep, NearFieldViolation,
                            NearFieldWarning, NonPositiveCount, UnknownEnvironment)


def small_config(**overrides) -> SimConfig:
    base = dataclasses.replace(scene_preset("indoor"), realizations=4)
    return dataclasses.replace(base, **overrides) if overrides else base


class TestValidation:
    def test_reference_indoor_scene_accepted(self):
        vc = validate_config(scene_preset("indoor"))
        assert vc.config.tx.position == (0.0, 25.0, 2.0)
        assert vc.config.ris[0].facing == -1  # auto-resolved towards the Tx side

    def test_wavelength_derivation(self):
        vc = validate_config(small_config())
        assert vc.wavelength == pytest.approx(1.0714e-2, rel=1e-3)
        assert vc.wavelength * vc.config.frequency_hz == pytest.approx(2.998e8, rel=1e-3)

    def test_zero_elements_rejected(self):
        cfg = small_config(ris=(RisSpec(0, (40.0, 50.0, 2.0)),))
        with pytest.raises(NonPositiveCount):
            validate_config(cfg)

    def test_element_count_above_the_maximum_rejected(self):
        # a large prime: near_square_grid would trial-divide up to ~1e7
        cfg = config_from_mapping({"n_elements": "100000000000031"})
        with pytest.raises(ConfigError, match="exceeds the maximum"):
            validate_config(cfg)
        with pytest.raises(ConfigError, match="exceeds the maximum"):
            validate_config(small_config(tx=ArraySpec("upa", MAX_ARRAY_ELEMENTS + 1,
                                                      (0.0, 25.0, 2.0))))

    def test_element_count_at_the_maximum_accepted(self):
        cfg = small_config(ris=(RisSpec(MAX_ARRAY_ELEMENTS, (40.0, 50.0, 2.0)),))
        with pytest.warns(NearFieldWarning):
            assert validate_config(cfg).config.ris[0].grid_shape == (1024, 1024)

    def test_zero_realizations_rejected(self):
        with pytest.raises(NonPositiveCount):
            validate_config(small_config(realizations=0))

    def test_realization_count_capped_at_the_seeded_index_range(self):
        # realization indices are seeded as one 32-bit word each
        assert validate_config(small_config(realizations=2**32)).config.realizations == 2**32
        with pytest.raises(ConfigError, match="exceeds the maximum"):
            validate_config(small_config(realizations=2**32 + 1))
        with pytest.raises(ConfigError, match="whole number"):
            validate_config(small_config(realizations=2.5))

    def test_empty_sweep_rejected(self):
        with pytest.raises(EmptySweep):
            validate_config(small_config(pt_dbm=()))

    def test_below_ground_rejected(self):
        cfg = small_config(rx=ArraySpec("upa", 4, (45.0, 45.0, -1.0)))
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_no_ris_with_blocked_direct_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(small_config(ris=()))

    def test_revalidation_idempotent(self):
        first = validate_config(small_config())
        second = validate_config(first)
        assert second.config == first.config
        assert second.config_hash == first.config_hash

    def test_near_field_warns_then_raises(self):
        # 1024 elements put the Fraunhofer distance beyond a 2 m link
        cfg = small_config(ris=(RisSpec(1024, (44.0, 45.0, 2.0)),))
        with pytest.warns(NearFieldWarning):
            validate_config(cfg)
        with pytest.raises(NearFieldViolation):
            validate_config(dataclasses.replace(cfg, strict_near_field=True))

    @pytest.mark.parametrize("terminal, position, message", [
        ("rx", (0.0, 25.0, 2.0), "receiver position (0.0, 25.0, 2.0) lies on the transmitter"),
        ("rx", (40.0, 50.0, 2.0), "receiver position (40.0, 50.0, 2.0) lies on ris[0]"),
        ("tx", (40.0, 50.0, 2.0), "transmitter position (40.0, 50.0, 2.0) lies on ris[0]"),
    ])
    def test_terminal_on_another_device_rejected(self, terminal, position, message):
        cfg = small_config()
        moved = dataclasses.replace(getattr(cfg, terminal), position=position)
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(dataclasses.replace(cfg, **{terminal: moved}))

    @pytest.mark.parametrize("tx, rx, who", [
        ((0.0, 25.0, 2.0), (44.0, 45.0, 2.0), "1 of 1 receiver positions lie"),
        ((44.0, 45.0, 2.0), (0.0, 25.0, 2.0), "the transmitter lies"),
        ((36.0, 45.0, 2.0), (44.0, 45.0, 2.0), "the transmitter and 1 of 1 receiver positions lie"),
    ])
    def test_near_field_terminals_warn_once(self, recwarn, tx, rx, who):
        # 1024 elements put the Fraunhofer distance at 10.29 m
        cfg = small_config(tx=ArraySpec("upa", 4, tx), rx=ArraySpec("upa", 4, rx),
                           ris=(RisSpec(1024, (40.0, 50.0, 2.0)),))
        validate_config(cfg)
        near = [w for w in recwarn.list if issubclass(w.category, NearFieldWarning)]
        assert len(near) == 1
        assert str(near[0].message).startswith(f"{who} inside a surface's Fraunhofer distance, "
                                               "the nearest 6.40 m from its surface")
        with pytest.raises(NearFieldViolation, match=re.escape(who)):
            validate_config(dataclasses.replace(cfg, strict_near_field=True))

    def test_rx_mount_orientation_rejected_under_random_azimuth(self):
        """The random azimuth frame replaces the mount orientation, so a
        non-global one would change the hash and nothing else."""
        cfg = small_config(rx=dataclasses.replace(small_config().rx, orientation="xz+"))
        with pytest.raises(ConfigError, match="random azimuth"):
            validate_config(cfg)
        fixed = validate_config(dataclasses.replace(cfg, rx_orientation="fixed"))
        assert fixed.config.rx.orientation == "xz+"

    def test_environment_invariants(self):
        env = dataclasses.replace(ENVIRONMENTS["inh"], cluster_intensity=0.0)
        with pytest.raises(ConfigError):
            validate_config(small_config(environment=env))

    def test_units(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert watts_to_dbm(dbm_to_watts(-100.0)) == pytest.approx(-100.0)

    def test_near_square_grid(self):
        assert near_square_grid(64) == (8, 8)
        assert near_square_grid(128) == (8, 16)
        assert near_square_grid(8) == (2, 4)
        assert near_square_grid(7) == (1, 7)


class TestRngStreams:
    def test_same_key_same_draws(self):
        a = spawn_rng(42, 0, LinkTag.TX_RIS).uniform(size=100)
        b = spawn_rng(42, 0, LinkTag.TX_RIS).uniform(size=100)
        assert np.array_equal(a, b)

    def test_realization_separation(self):
        a = spawn_rng(42, 0, LinkTag.TX_RIS).uniform(size=100)
        b = spawn_rng(42, 1, LinkTag.TX_RIS).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_link_tag_separation(self):
        a = spawn_rng(42, 0, LinkTag.TX_RIS).uniform(size=100)
        b = spawn_rng(42, 0, LinkTag.RIS_RX).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_extra_key_separation(self):
        a = spawn_rng(42, 0, LinkTag.TX_RIS, 0).uniform(size=20)
        b = spawn_rng(42, 0, LinkTag.TX_RIS, 1).uniform(size=20)
        assert not np.array_equal(a, b)


class TestConfigFiles:
    def test_round_trip(self):
        cfg = validate_config(scene_preset("indoor")).config
        again = parse_config_text(serialize_config(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_parse_reference_file(self):
        text = """
        # reference indoor scenario
        environment = inh
        frequency_ghz = 28
        tx_position = 0, 25, 2
        rx_position = 45, 45, 1
        ris_position = 40, 50, 2 ; 60, 30, 2
        ris_plane = xz ; yz
        n_elements = 64
        nt = 4
        nr = 4
        pt_dbm = 20, 30, 40
        realizations = 100
        seed = 7
        direct_path = blocked
        ris_links = los
        """
        cfg = parse_config_text(text)
        assert len(cfg.ris) == 2
        assert cfg.ris[1].plane == "yz"
        assert cfg.pt_dbm == (20.0, 30.0, 40.0)
        assert cfg.seed == 7
        validate_config(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("freqency_ghz = 28")

    def test_unknown_environment_rejected(self):
        with pytest.raises(UnknownEnvironment):
            config_from_mapping({"environment": "lunar"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("shared_clusters = maybe")

    def test_environment_override_keys(self):
        cfg = parse_config_text("environment = inh\ncluster_intensity = 2.5\n"
                                "pl_los = 30, 20, 20, 0")
        assert cfg.environment.cluster_intensity == 2.5
        assert cfg.environment.pl_los.intercept_db == 30.0
        assert cfg.environment.pl_nlos == ENVIRONMENTS["inh"].pl_nlos

    def test_hash_changes_with_any_field(self):
        base = scene_preset("indoor")
        h0 = config_hash(base)
        variants = [
            dataclasses.replace(base, seed=2),
            dataclasses.replace(base, noise_dbm=-90.0),
            dataclasses.replace(base, pt_dbm=(41.0,)),
            dataclasses.replace(base, tx=dataclasses.replace(base.tx, count=8)),
            dataclasses.replace(base, ris=(dataclasses.replace(base.ris[0], count=128),)),
            dataclasses.replace(base, environment=dataclasses.replace(
                base.environment, cluster_intensity=2.0)),
            dataclasses.replace(base, shared_clusters=True),
        ]
        hashes = [config_hash(v) for v in variants]
        assert h0 not in hashes
        assert len(set(hashes)) == len(hashes)
        assert config_hash(dataclasses.replace(base)) == h0

    @pytest.mark.parametrize("make, expected", [
        (lambda: scene_preset("indoor"), "cb1b6fb22706a5d7"),
        (lambda: scene_preset("outdoor"), "81baf3437b5bd6b4"),
        (lambda: parse_config_text(""), "7f28036ff3eea498"),
    ], ids=["indoor", "outdoor", "empty-text"])
    def test_preset_and_default_hashes_pinned(self, make, expected):
        """The scenes and the key defaults hash as they always have: every
        stored output and golden file is tagged with these hashes."""
        assert config_hash(make()) == expected


class TestConfigKeys:
    @pytest.mark.parametrize("text", [
        "nt = 4\nnt = 4",          # duplicate key
        "nt = 4.5",                # non-integral count
        "realizations = 1e2.5",
        "noise_dbm = loud",
        "seed = true",
        "ris_spacing = 0.5 ; 0.4",  # two entries for one surface
    ])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_integral_counts_and_surface_lists(self):
        cfg = parse_config_text("nt = 8.0\nris_position = 40, 50, 2 ; 60, 30, 2\n"
                                "ris_spacing = 0.5 ; 0.25\nris_gain_exponent = 0.3")
        assert cfg.tx.count == 8
        assert [r.spacing_wl for r in cfg.ris] == [0.5, 0.25]
        assert [r.gain_exponent for r in cfg.ris] == [0.3, 0.3]

    def test_ris_spacing_follows_element_spacing(self):
        assert parse_config_text("element_spacing = 0.4").ris[0].spacing_wl == 0.4

    def test_override_replaces_either_frequency_spelling(self):
        cfg = parse_config_text("frequency_hz = 2.8e10", ["frequency_ghz = 30"])
        assert cfg.frequency_hz == 30e9
        assert parse_config_text("", ["frequency_ghz=30", "frequency_hz=1e9"]).frequency_hz == 1e9

    @pytest.mark.parametrize("field, value", [
        ("tx", ArraySpec("upa", 4, (0.0, 25.0, 2.0), orientation="xz+")),
        ("rx", ArraySpec("upa", 4, (45.0, 45.0, 1.0), spacing_wl=0.25)),
    ])
    def test_serialize_rejects_what_no_key_expresses(self, field, value):
        with pytest.raises(ConfigError, match="no config key"):
            serialize_config(small_config(**{field: value}))

    @pytest.mark.parametrize("line", [
        "frequency_ghz = nan", "noise_dbm = nan", "pt_dbm = inf",
        "ris_gain_exponent = nan", "cluster_intensity = inf",
        "pl_los = nan, 20, 20, 1", "footprint = nan, 1", "seed = -1",
    ])
    def test_non_finite_or_negative_seed_rejected(self, line):
        cfg = parse_config_text(line)
        with pytest.raises(ConfigError):
            validate_config(cfg)


    @pytest.mark.parametrize("line", [
        "pt_dbm = 4000", "pt_dbm = 20, 4000", "pt_dbm = -4000",
        "noise_dbm = 4000", "noise_dbm = -4000",
    ])
    def test_power_without_finite_positive_watts_rejected(self, line):
        with pytest.raises(ConfigError, match="finite positive power"):
            validate_config(parse_config_text(line))

    def test_extreme_but_representable_powers_accepted(self):
        vc = validate_config(parse_config_text("pt_dbm = 3000\nnoise_dbm = -3000"))
        assert np.isfinite(vc.pt_watts[0]) and vc.noise_watts > 0.0


# File-expressible configs: every value has a key, tx and rx share a spacing
# and orientation is global.  Integral floats are drawn often, so the
# int/float equality property has something to fold.
_numbers = st.one_of(st.floats(allow_nan=False), st.integers(-10**6, 10**6).map(float))
_counts = st.integers(-2**64, 2**64)
_points = st.tuples(_numbers, _numbers, _numbers)


def _configs(min_surfaces=0):
    surface = st.builds(
        RisSpec, count=_counts, position=_points, plane=st.sampled_from(["xz", "yz"]),
        facing=st.sampled_from([None, 1, -1]), gain_exponent=_numbers, spacing_wl=_numbers,
        shape=st.none() | st.tuples(_counts, _counts))
    environment = st.builds(
        Environment, name=st.sampled_from(sorted(ENVIRONMENTS)), cluster_intensity=_numbers,
        pl_los=st.builds(PathLossTable, _numbers, _numbers, _numbers, _numbers),
        pl_nlos=st.builds(PathLossTable, _numbers, _numbers, _numbers, _numbers),
        los_model=st.sampled_from(["inh", "umi", "always", "never"]),
        scatterers_min=_counts, scatterers_max=_counts, cluster_azimuth_deg=_numbers,
        cluster_elevation_deg=_numbers, scatter_spread_deg=_numbers,
        footprint=st.none() | st.tuples(_numbers, _numbers))

    def build(spacing, **fields):
        tx, rx = (ArraySpec(layout, count, position, spacing)
                  for layout, count, position in (fields.pop("tx"), fields.pop("rx")))
        return SimConfig(tx=tx, rx=rx, **fields)

    array = st.tuples(st.sampled_from(["ula", "upa"]), _counts, _points)
    return st.builds(
        build, spacing=_numbers, environment=environment, frequency_hz=_numbers,
        tx=array, rx=array,
        ris=st.lists(surface, min_size=min_surfaces, max_size=3).map(tuple),
        pt_dbm=st.lists(_numbers, min_size=1, max_size=3).map(tuple),
        noise_dbm=_numbers, realizations=_counts, seed=_counts,
        direct_mode=st.sampled_from(["auto", "blocked", "present"]),
        blocked_keeps_scatter=st.booleans(), ris_links=st.sampled_from(["auto", "los"]),
        shared_clusters=st.booleans(), scatter_paths=st.booleans(),
        rx_orientation=st.sampled_from(["random-azimuth", "fixed"]),
        algorithm=st.sampled_from(["pinv", "siso", "random", "zero"]),
        phase_bits=st.none() | _counts, idle_ris=st.sampled_from(["absent", "random"]),
        strict_near_field=st.booleans())


def _field_paths(obj, prefix=()):
    """Paths to every field that is not itself a dataclass or a tuple of them."""
    items = (enumerate(obj) if isinstance(obj, tuple)
             else ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    for name, value in items:
        nested = dataclasses.is_dataclass(value) or (
            isinstance(value, tuple) and value and dataclasses.is_dataclass(value[0]))
        yield from _field_paths(value, prefix + (name,)) if nested else [prefix + (name,)]


def _replace_at(obj, path, value):
    head, *rest = path
    if rest:
        value = _replace_at(obj[head] if isinstance(obj, tuple) else getattr(obj, head),
                            rest, value)
    if isinstance(obj, tuple):
        return obj[:head] + (value,) + obj[head + 1:]
    return dataclasses.replace(obj, **{head: value})


def _other_values(old):
    if isinstance(old, bool):
        return st.just(not old)
    if isinstance(old, str):
        return st.text(max_size=4).filter(lambda v: v != old)
    if isinstance(old, tuple):
        return st.lists(_numbers, max_size=3).map(tuple).filter(lambda v: v != old)
    return (st.none() | _counts | _numbers).filter(lambda v: v != old)


def _retyped(obj):
    """An equal config with integral floats as ints, ints as floats and zeros sign-flipped."""
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{f.name: _retyped(getattr(obj, f.name))
                                           for f in dataclasses.fields(obj)})
    if isinstance(obj, tuple):
        return tuple(_retyped(v) for v in obj)
    if isinstance(obj, float):
        return -obj if obj == 0 else int(obj) if obj.is_integer() else obj
    if isinstance(obj, int) and not isinstance(obj, bool) and abs(obj) <= 2**53:
        return float(obj)
    return obj


# Every key, plus value text built from the characters the parsers care about.
_KEY_NAMES = [line.split(" = ")[0] for line in
              serialize_config(scene_preset("indoor")).splitlines()] + ["frequency_ghz"]
_value_text = st.text(max_size=12) | st.text(alphabet="0123456789 .,;-+exnaiftruo#=",
                                             max_size=16)


class TestConfigProperties:
    @settings(max_examples=150, deadline=None)
    @given(_configs())
    def test_round_trip(self, cfg):
        assert parse_config_text(serialize_config(cfg)) == cfg

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_any_field_change_changes_hash(self, data):
        cfg = data.draw(_configs(min_surfaces=2))
        h0 = config_hash(cfg)
        for path in _field_paths(cfg):
            old = cfg
            for step in path:
                old = old[step] if isinstance(old, tuple) else getattr(old, step)
            changed = _replace_at(cfg, path, data.draw(_other_values(old)))
            assert config_hash(changed) != h0, path

    @settings(max_examples=100, deadline=None)
    @given(_configs())
    def test_equal_configs_hash_equal(self, cfg):
        again = _retyped(cfg)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    @settings(max_examples=300, deadline=None)
    @given(st.text() | st.lists(st.tuples(st.sampled_from(_KEY_NAMES), _value_text),
                                max_size=6).map(
        lambda items: "\n".join(f"{k} = {v}" for k, v in items)))
    def test_parser_returns_config_or_raises_config_error(self, text):
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        assert isinstance(cfg, SimConfig)
