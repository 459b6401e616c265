"""Pinned outputs: small coverage maps and pt campaigns across config variants.

`tests/data/golden.npz` holds, per variant, a 6x4-cell coverage map at 4
realizations (mean rates and serving surfaces) and the raw paired rates of
an 8-realization pt campaign.  Any rewrite of the rate path must reproduce
them: surface indices exactly, rates within 1e-12 relative.

Regenerate (only when the model itself changes, never to absorb a
rewrite's drift) with `PYTHONPATH=src python tests/test_golden.py`.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import rislink as rl

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.npz"
REL_TOL = 1e-12
SECOND_SURFACE = rl.RisSpec(64, (60.0, 30.0, 2.0), plane="yz")

# name -> SimConfig field overrides on the indoor preset
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
    "siso": {"siso": True, "algorithm": "siso"},
    "siso_pinv": {"siso": True},
    "random": {"algorithm": "random"},
    "zero": {"algorithm": "zero"},
    "phase_bits_2": {"phase_bits": 2},
}


def variant_config(name: str, realizations: int, pt_dbm=(40.0,)) -> rl.ValidatedConfig:
    overrides = dict(VARIANTS[name])
    cfg = dataclasses.replace(rl.scene_preset("indoor"), realizations=realizations,
                              pt_dbm=pt_dbm, seed=17)
    if overrides.pop("second", False):
        overrides["ris"] = (cfg.ris[0], SECOND_SURFACE)
    if overrides.pop("siso", False):
        overrides["tx"] = dataclasses.replace(cfg.tx, count=1)
        overrides["rx"] = dataclasses.replace(cfg.rx, count=1)
    return rl.validate_config(dataclasses.replace(cfg, **overrides))


def variant_outputs(name: str) -> dict:
    vc = variant_config(name, realizations=4)
    grid = rl.coverage_map(rl.Campaign(vc), rl.default_grid(vc, cell=12.5))
    stats = rl.run_campaign(rl.Campaign(
        variant_config(name, realizations=8, pt_dbm=(20.0, 30.0, 40.0))))
    return {"mean_rate": grid.mean_rate, "ris_index": grid.ris_index,
            "pt_rates": stats.rates}


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
    assert {k.split("/")[0] for k in golden} == set(VARIANTS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    arrays = {f"{name}/{key}": value for name in sorted(VARIANTS)
              for key, value in variant_outputs(name).items()}
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDEN}")
