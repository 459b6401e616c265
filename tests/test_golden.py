"""Pinned outputs: small coverage maps and pt campaigns across config variants.

`tests/data/golden.npz` holds, per variant, a 6x4-cell coverage map at 4
realizations (mean rates and serving surfaces) over the 75x50 m indoor
footprint (an explicit grid over the same extent where the environment has
no footprint) and the raw paired rates of an 8-realization pt campaign.
`tests/data/golden_blocks.npz` holds the raw rates of 70-realization
campaigns (pt, n and ntnr sweeps), which span two full campaign blocks and
a partial one.  Any rewrite of the rate path must reproduce them: surface
indices exactly, rates within 1e-12 relative.

Regenerate (only when the model itself changes, never to absorb a
rewrite's drift) with `PYTHONPATH=src python tests/test_golden.py`.  Pin
new variants with `--append`: it computes only the variants the file lacks
and keeps every stored array as it is.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rislink as rl

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.npz"
BLOCK_GOLDEN = GOLDEN.with_name("golden_blocks.npz")
REL_TOL = 1e-12
SECOND_SURFACE = rl.RisSpec(64, (60.0, 30.0, 2.0), plane="yz")

# name -> SimConfig field overrides on the indoor preset (or on the preset
# named by "preset")
VARIANTS = {
    "indoor": {},
    "los_coin": {"ris_links": "auto", "direct_mode": "auto"},
    "direct_present": {"direct_mode": "present"},
    "blocked_keeps_scatter": {"blocked_keeps_scatter": True},
    "shared_clusters": {"shared_clusters": True},
    "no_scatter": {"scatter_paths": False},
    "rx_fixed": {"rx_orientation": "fixed"},
    "two_surfaces_absent": {"second": True, "idle_ris": "absent"},
    "two_surfaces_random": {"second": True, "idle_ris": "random"},
    "two_surfaces_los_coin": {"second": True, "ris_links": "auto", "direct_mode": "auto"},
    "siso": {"terminal": {"count": 1}, "algorithm": "siso"},
    "siso_pinv": {"terminal": {"count": 1}},
    "random": {"algorithm": "random"},
    "zero": {"algorithm": "zero"},
    "phase_bits_2": {"phase_bits": 2},
    # array grids beyond the 2x2 terminals and the 8x8 surface
    "ula_terminals": {"terminal": {"layout": "ula"}},
    "surface_4x16": {"surface": {"shape": (4, 16)}},
    "surface_1x67": {"surface": {"count": 67}},
    "spacing_quarter": {"terminal": {"spacing_wl": 0.25}, "surface": {"spacing_wl": 0.25}},
    # the paper's street canyon, its second band, and settings no variant above reaches
    "outdoor": {"preset": "outdoor"},
    "freq_73ghz": {"frequency_hz": 73e9},
    "facing_explicit_yz": {"surface": {"plane": "yz", "facing": -1}},
    "freespace": {"environment": rl.ENVIRONMENTS["freespace"]},
}


# Multi-block campaigns: name -> (SimConfig field overrides, sweep axis, values).
BLOCK_REALIZATIONS = 70
BLOCK_VARIANTS = {
    "indoor": ({}, "pt", ()),
    "los_coin_direct_present": ({"ris_links": "auto", "direct_mode": "present"}, "pt", ()),
    "shared_clusters": ({"shared_clusters": True}, "pt", ()),
    "two_surfaces_random": ({"second": True, "idle_ris": "random"}, "pt", ()),
    "siso": ({"terminal": {"count": 1}, "algorithm": "siso"}, "pt", ()),
    "n_sweep": ({}, "n", (32, 64, 128)),
    "ntnr_sweep": ({"ris_links": "auto"}, "ntnr", (2, 4)),
}


# Coverage maps over several cell blocks: name -> SimConfig field overrides.
# 10 m cells on the 75x50 m footprint give 8x5 = 40 cells.
COVERAGE_REALIZATIONS = 33
COVERAGE_CELL = 10.0
COVERAGE_VARIANTS = {
    "indoor": {},
    "two_surfaces_los_coin": VARIANTS["two_surfaces_los_coin"],
    "two_surfaces_random_shared": {"second": True, "idle_ris": "random",
                                   "shared_clusters": True},
}

# The pinned channel dump: a live LOS coin on every link, two surfaces.
DUMP_REALIZATIONS = 3
DUMP_OVERRIDES = {"second": True, "ris_links": "auto", "direct_mode": "present"}


def variant_config(name: str, realizations: int, pt_dbm=(40.0,),
                   overrides: dict | None = None) -> rl.ValidatedConfig:
    overrides = dict(VARIANTS[name] if overrides is None else overrides)
    cfg = dataclasses.replace(rl.scene_preset(overrides.pop("preset", "indoor")),
                              realizations=realizations, pt_dbm=pt_dbm, seed=17)
    # "terminal" / "surface": field overrides on both terminals / the first surface
    terminal = overrides.pop("terminal", {})
    first = dataclasses.replace(cfg.ris[0], **overrides.pop("surface", {}))
    overrides["ris"] = (first, SECOND_SURFACE) if overrides.pop("second", False) else (first,)
    overrides["tx"] = dataclasses.replace(cfg.tx, **terminal)
    overrides["rx"] = dataclasses.replace(cfg.rx, **terminal)
    return rl.validate_config(dataclasses.replace(cfg, **overrides))


def small_grid(vc: rl.ValidatedConfig) -> rl.GridSpec:
    """The 6x4-cell map: the room footprint, or the same extent at the receiver's height."""
    if vc.config.environment.footprint is None:
        return rl.GridSpec(0.0, 75.0, 0.0, 50.0, cell=12.5, z=vc.config.rx.position[2])
    return rl.default_grid(vc, cell=12.5)


def variant_outputs(name: str) -> dict:
    vc = variant_config(name, realizations=4)
    grid = rl.coverage_map(rl.Campaign(vc), small_grid(vc))
    stats = rl.run_campaign(rl.Campaign(
        variant_config(name, realizations=8, pt_dbm=(20.0, 30.0, 40.0))))
    return {"mean_rate": grid.mean_rate, "ris_index": grid.ris_index,
            "pt_rates": stats.rates}


def coverage_outputs(name: str, workers: int = 1) -> dict:
    vc = variant_config(name, COVERAGE_REALIZATIONS, overrides=COVERAGE_VARIANTS[name])
    grid = rl.coverage_map(rl.Campaign(vc, workers=workers),
                           rl.default_grid(vc, cell=COVERAGE_CELL))
    return {"mean_rate": grid.mean_rate, "ris_index": grid.ris_index}


def dump_outputs(out_dir, realizations: int = DUMP_REALIZATIONS, workers: int = 1) -> dict:
    """Every dumped matrix, keyed `r<realization>/<matrix>[<surface>]`."""
    vc = variant_config("dump", realizations, overrides=DUMP_OVERRIDES)
    rl.dump_channels(vc, out_dir, workers=workers)
    _, arrays = rl.load_channel_dump(out_dir)
    return {f"r{r}/{matrix}{'' if ris is None else ris}": value
            for (r, matrix, ris), value in arrays.items()}


def block_campaign(name: str, workers: int = 1) -> rl.RateStatistics:
    overrides, axis, values = BLOCK_VARIANTS[name]
    pt_dbm = (20.0, 30.0, 40.0) if axis == "pt" else (30.0,)
    vc = variant_config(name, BLOCK_REALIZATIONS, pt_dbm, overrides)
    return rl.run_campaign(rl.Campaign(vc, sweep_axis=axis, sweep_values=values,
                                       workers=workers))


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_matches_golden(name, golden):
    got = variant_outputs(name)
    assert got["mean_rate"].shape == (4, 6)
    assert np.array_equal(got["ris_index"], golden[f"{name}/ris_index"])
    for key in ("mean_rate", "pt_rates"):
        np.testing.assert_allclose(got[key], golden[f"{name}/{key}"],
                                   rtol=REL_TOL, atol=0.0, err_msg=f"{name}/{key}")


def test_golden_covers_every_variant(golden):
    assert {k.split("/")[0] for k in golden} == set(VARIANTS) | {"coverage_blocks", "dump"}
    assert {k.split("/")[1] for k in golden if k.startswith("coverage_blocks/")} == set(
        COVERAGE_VARIANTS)


@pytest.mark.parametrize("name", sorted(COVERAGE_VARIANTS))
def test_coverage_blocks_match_golden(name, golden):
    got = coverage_outputs(name)
    assert got["mean_rate"].shape == (5, 8)
    key = f"coverage_blocks/{name}"
    assert np.array_equal(got["ris_index"], golden[f"{key}/ris_index"])
    np.testing.assert_allclose(got["mean_rate"], golden[f"{key}/mean_rate"],
                               rtol=REL_TOL, atol=0.0, err_msg=key)


def test_channel_dump_matches_golden(golden, tmp_path):
    got = dump_outputs(tmp_path / "dump")
    want = {k.split("/", 1)[1]: v for k, v in golden.items() if k.startswith("dump/")}
    assert got.keys() == want.keys()
    assert len(want) == DUMP_REALIZATIONS * 5   # two surfaces, two legs each, and direct
    for key, expected in want.items():
        assert got[key].shape == expected.shape
        assert np.max(np.abs(got[key] - expected)) <= REL_TOL * np.max(np.abs(expected)), key


def test_channel_dump_bytes_do_not_depend_on_workers(tmp_path):
    # two dump payloads, the second partial
    one = dump_outputs(tmp_path / "w1", realizations=35)
    for workers in (2, 4):
        got = dump_outputs(tmp_path / f"w{workers}", realizations=35, workers=workers)
        assert got.keys() == one.keys()
        assert all(got[k].tobytes() == one[k].tobytes() for k in one)


@pytest.fixture(scope="module")
def block_golden():
    with np.load(BLOCK_GOLDEN, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def test_block_golden_covers_every_variant(block_golden):
    assert set(block_golden) == set(BLOCK_VARIANTS)


@pytest.mark.parametrize("name", sorted(BLOCK_VARIANTS))
def test_multi_block_campaign_matches_golden(name, block_golden):
    rates = block_campaign(name).rates
    assert rates.shape[1] == BLOCK_REALIZATIONS
    np.testing.assert_allclose(rates, block_golden[name], rtol=REL_TOL, atol=0.0,
                               err_msg=name)


@pytest.mark.parametrize("name", ["n_sweep", "siso", "two_surfaces_random"])
def test_multi_block_campaign_bytes_do_not_depend_on_workers(name):
    one = block_campaign(name).rates.tobytes()
    for workers in (2, 4):
        assert block_campaign(name, workers=workers).rates.tobytes() == one


# Scenes the translation property moves: name -> overrides, as in VARIANTS.
TRANSLATED = {
    "indoor": {},
    "los_coin_direct_present": {"ris_links": "auto", "direct_mode": "present"},
    "outdoor": VARIANTS["outdoor"],
    "shared_clusters": VARIANTS["shared_clusters"],
}


def translated(vc: rl.ValidatedConfig, dx: float, dy: float) -> rl.ValidatedConfig:
    """The scene with every device moved horizontally by (dx, dy)."""
    cfg = vc.config

    def move(spec):
        x, y, z = spec.position
        return dataclasses.replace(spec, position=(x + dx, y + dy, z))

    return rl.validate_config(dataclasses.replace(
        cfg, tx=move(cfg.tx), rx=move(cfg.rx), ris=tuple(move(r) for r in cfg.ris)))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(TRANSLATED)), seed=st.integers(0, 2**32 - 1))
def test_horizontal_translation_moves_no_rate(name, seed):
    vc = variant_config(name, 4, (20.0, 40.0), TRANSLATED[name])
    vc = rl.validate_config(dataclasses.replace(vc.config, seed=seed))
    here = rl.run_campaign(rl.Campaign(vc)).rates
    there = rl.run_campaign(rl.Campaign(translated(vc, 1000.0, -500.0))).rates
    np.testing.assert_allclose(there, here, rtol=REL_TOL, atol=0.0)


def append_variants() -> None:
    """Add the variants `golden.npz` lacks; every stored array stays as it is."""
    with np.load(GOLDEN, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    missing = sorted(set(VARIANTS) - {k.split("/")[0] for k in arrays})
    for name in missing:
        arrays.update({f"{name}/{key}": value for key, value in variant_outputs(name).items()})
    np.savez_compressed(GOLDEN, **arrays)
    print(f"appended {missing} to {GOLDEN}")


if __name__ == "__main__" and sys.argv[1:] == ["--append"]:
    append_variants()
elif __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    arrays = {f"{name}/{key}": value for name in sorted(VARIANTS)
              for key, value in variant_outputs(name).items()}
    arrays.update({f"coverage_blocks/{name}/{key}": value for name in sorted(COVERAGE_VARIANTS)
                   for key, value in coverage_outputs(name).items()})
    with tempfile.TemporaryDirectory() as tmp:
        arrays.update({f"dump/{key}": value for key, value in dump_outputs(tmp).items()})
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN}")
    blocks = {name: block_campaign(name).rates for name in sorted(BLOCK_VARIANTS)}
    np.savez_compressed(BLOCK_GOLDEN, **blocks)
    print(f"wrote {len(blocks)} arrays to {BLOCK_GOLDEN}")
