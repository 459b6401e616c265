"""Campaign harness: sweeps, statistics, coverage, exports, determinism."""

import dataclasses

import numpy as np
import pytest

from rislink import (Campaign, GridSpec, PhaseAlgorithm, RisSpec, coverage_map,
                     default_grid, dump_channels, export_coverage, export_statistics,
                     load_channel_dump, read_csv_table, run_campaign, scene_preset,
                     validate_config)
from rislink.campaign import COVERAGE_BLOCK
from rislink.errors import ConfigError, EmptySweep


def quick_vc(realizations=8, **overrides):
    cfg = dataclasses.replace(scene_preset("indoor"), realizations=realizations, **overrides)
    return validate_config(cfg)


class TestRunCampaign:
    def test_repeat_run_identical(self):
        vc = quick_vc(realizations=3)
        a = run_campaign(Campaign(vc))
        b = run_campaign(Campaign(vc))
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.mean, b.mean)

    def test_pt_sweep_shapes_and_order(self):
        vc = quick_vc(pt_dbm=(40.0, 20.0, 30.0))
        stats = run_campaign(Campaign(vc))
        assert stats.sweep_values == (20.0, 30.0, 40.0)
        assert stats.rates.shape == (3, 8)
        assert stats.count == 8
        assert np.all(stats.p5 <= stats.p95)

    def test_rates_monotone_in_power_per_seed(self):
        vc = quick_vc(pt_dbm=(20.0, 30.0, 40.0, 50.0))
        stats = run_campaign(Campaign(vc))
        assert np.all(np.diff(stats.rates, axis=0) >= -1e-12)
        assert np.all(np.diff(stats.mean) >= 0)

    def test_worker_counts_do_not_change_results(self):
        vc = quick_vc(pt_dbm=(20.0, 40.0))
        rates = [run_campaign(Campaign(vc, workers=w)).rates for w in (1, 4, 8)]
        assert np.array_equal(rates[0], rates[1])
        assert np.array_equal(rates[0], rates[2])

    def test_element_sweep(self):
        vc = quick_vc(realizations=4)
        stats = run_campaign(Campaign(vc, sweep_axis="n", sweep_values=(16, 32)))
        assert stats.sweep_values == (16, 32)
        assert stats.rates.shape == (2, 4)

    def test_non_pt_sweep_needs_single_power(self):
        vc = quick_vc(pt_dbm=(20.0, 40.0))
        with pytest.raises(EmptySweep):
            Campaign(vc, sweep_axis="n", sweep_values=(16, 32))

    def test_sweep_needs_values(self):
        with pytest.raises(EmptySweep):
            Campaign(quick_vc(), sweep_axis="ntnr")

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            Campaign(quick_vc(), sweep_axis="bandwidth")

    def test_siso_algorithm_requires_siso_arrays(self):
        vc = quick_vc(realizations=2)
        with pytest.raises(Exception):
            run_campaign(Campaign(vc, algorithm=PhaseAlgorithm("siso")))


class TestCoverage:
    def test_single_cell_matches_run_at_that_position(self):
        vc = quick_vc(realizations=5)
        grid = GridSpec(29.5, 30.5, 19.5, 20.5, cell=1.0, z=1.0)
        cell = coverage_map(Campaign(vc), grid)
        assert cell.mean_rate.shape == (1, 1)

        moved = dataclasses.replace(
            vc.config, rx=dataclasses.replace(vc.config.rx, position=(30.0, 20.0, 1.0)))
        stats = run_campaign(Campaign(validate_config(moved)))
        assert cell.mean_rate[0, 0] == pytest.approx(stats.mean[0], rel=1e-12)

    def test_grid_shapes_and_selection(self):
        second = RisSpec(64, (60.0, 30.0, 2.0), plane="yz")
        vc = quick_vc(realizations=2)
        vc2 = validate_config(dataclasses.replace(vc.config, ris=(vc.config.ris[0], second)))
        grid = GridSpec(0.0, 75.0, 0.0, 50.0, cell=15.0, z=1.0)
        result = coverage_map(Campaign(vc2), grid)
        assert result.mean_rate.shape == (3, 5)
        # cells nearest each surface are assigned to it
        x_idx = np.argmin(np.abs(result.x - 37.5))
        assert result.ris_index[np.argmin(np.abs(result.y - 42.5)), x_idx] == 0
        assert result.ris_index[np.argmin(np.abs(result.y - 27.5)),
                                np.argmin(np.abs(result.x - 62.5))] == 1

    @pytest.mark.parametrize("surfaces", [1, 2])
    def test_coverage_csv_identical_across_workers(self, tmp_path, surfaces):
        vc = quick_vc(realizations=2)
        if surfaces == 2:
            second = RisSpec(64, (60.0, 30.0, 2.0), plane="yz")
            vc = validate_config(dataclasses.replace(vc.config, ris=(vc.config.ris[0], second)))
        grid = GridSpec(0.0, 75.0, 0.0, 50.0, cell=5.0, z=1.0)
        x, y = grid.centers()
        # several blocks for the workers to share, the last one partial
        assert len(x) * len(y) > 2 * COVERAGE_BLOCK
        assert len(x) * len(y) % COVERAGE_BLOCK != 0
        blobs = []
        for w in (1, 2, 4):
            path = tmp_path / f"grid_w{w}.csv"
            export_coverage(coverage_map(Campaign(vc, workers=w), grid), path, vc.config_hash)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_default_grid_uses_footprint(self):
        grid = default_grid(quick_vc(), cell=5.0)
        assert (grid.x_max, grid.y_max) == (75.0, 50.0)
        x, y = grid.centers()
        assert len(x) == 15 and len(y) == 10

    def test_no_footprint_requires_extent(self):
        cfg = dataclasses.replace(scene_preset("outdoor"), realizations=2)
        with pytest.raises(ConfigError):
            default_grid(validate_config(cfg))


class TestExports:
    def test_statistics_round_trip(self, tmp_path):
        vc = quick_vc(pt_dbm=(20.0, 30.0))
        stats = run_campaign(Campaign(vc))
        path = tmp_path / "stats.csv"
        export_statistics(stats, path, vc.config_hash)
        got_hash, cols = read_csv_table(path)
        assert got_hash == vc.config_hash
        assert len(cols["sweep_value"]) == 2
        assert np.allclose(cols["mean_rate"], stats.mean, rtol=0, atol=1e-12)
        assert np.allclose(cols["p95"], stats.p95, rtol=0, atol=1e-12)

    def test_coverage_round_trip(self, tmp_path):
        vc = quick_vc(realizations=2)
        grid = GridSpec(0.0, 20.0, 0.0, 10.0, cell=5.0, z=1.0)
        result = coverage_map(Campaign(vc), grid)
        path = tmp_path / "grid.csv"
        export_coverage(result, path, vc.config_hash)
        _, cols = read_csv_table(path)
        assert len(cols["x"]) == result.mean_rate.size
        assert np.allclose(cols["mean_rate"].reshape(result.mean_rate.shape),
                           result.mean_rate, rtol=0, atol=1e-12)

    def test_csv_identical_across_workers(self, tmp_path):
        vc = quick_vc(realizations=6, pt_dbm=(20.0, 40.0))
        blobs = []
        for w in (1, 4, 8):
            path = tmp_path / f"stats_w{w}.csv"
            export_statistics(run_campaign(Campaign(vc, workers=w)), path, vc.config_hash)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_channel_dump_round_trip(self, tmp_path):
        vc = quick_vc(realizations=2)
        manifest = dump_channels(vc, tmp_path / "dump", realizations=2)
        assert manifest["config_hash"] == vc.config_hash
        loaded_manifest, arrays = load_channel_dump(tmp_path / "dump")
        assert loaded_manifest["realizations"] == 2

        from rislink import realize_channels
        reference = realize_channels(vc, 1)
        assert np.array_equal(arrays[(1, "tx_ris", 0)], reference.tx_ris[0])
        assert np.array_equal(arrays[(1, "ris_rx", 0)], reference.ris_rx[0])
        assert np.array_equal(arrays[(1, "direct", None)], reference.direct)

    def test_dump_identical_across_workers(self, tmp_path):
        vc = quick_vc(realizations=3)
        digests = []
        for w in (1, 4):
            out = tmp_path / f"dump_w{w}"
            dump_channels(vc, out, workers=w)
            blob = b"".join(sorted(p.read_bytes() for p in out.glob("*.bin")))
            digests.append(blob)
        assert digests[0] == digests[1]
