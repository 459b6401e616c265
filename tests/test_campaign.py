"""Campaign harness: sweeps, statistics, coverage, exports, determinism."""

import dataclasses
import json
import os
import platform
import re
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from rislink import (Campaign, GridSpec, RisSpec, coverage_map,
                     default_grid, dump_channels, export_coverage, export_statistics,
                     load_channel_dump, read_csv_table, run_campaign, scene_preset,
                     validate_config)
import rislink.campaign as campaign_module
import rislink.channel as channel_module
from rislink import LinkTag, baseline_phases, composite_singular_values, spawn_rng
from rislink.campaign import BLOCK_SIZE, compute_phase_sets
from rislink.channel import realize_block
from rislink.control import pinv_phases, rate_from_singular_values
from rislink.errors import (ConfigError, EmptySweep, NearFieldViolation, NearFieldWarning,
                            SingularPinvWarning)
from rislink.geometry import GridAxes


def quick_vc(realizations=8, **overrides):
    cfg = dataclasses.replace(scene_preset("indoor"), realizations=realizations, **overrides)
    return validate_config(cfg)


def fresh_python(code: str) -> str:
    """The stripped stdout of `code` run in a fresh interpreter that imports
    rislink from this tree."""
    src = Path(campaign_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def cell_positions(grid: GridSpec) -> np.ndarray:
    """The (K, 3) cell centres of a grid with an explicit height, in map order."""
    xs, ys = np.meshgrid(*grid.centers())
    return np.stack([xs.ravel(), ys.ravel(), np.full(xs.size, grid.z)], axis=-1)


def warm_block_peak(job: str, vc, positions: np.ndarray) -> int:
    """The traced peak bytes of a block of all of `vc`'s realizations at
    `positions` (`_run_block`'s job `job`), run once before to warm up."""
    args = (job, vc, range(vc.config.realizations), positions,
            campaign_module.serving_surface(vc, positions), np.asarray(vc.pt_watts[:1]))
    campaign_module._run_block(args)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        campaign_module._run_block(args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestCampaignBlocks:
    @pytest.mark.parametrize("overrides", [
        {},
        {"ris_links": "auto", "direct_mode": "present"},
        {"ris": (scene_preset("indoor").ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz")),
         "idle_ris": "random"},
        {"algorithm": "random"},
    ])
    def test_realization_rates_do_not_depend_on_the_block(self, overrides):
        vc = quick_vc(realizations=BLOCK_SIZE + 7, pt_dbm=(30.0,), **overrides)
        campaign = Campaign(vc)
        alone = [rate_from_singular_values(composite_singular_values(vc, r),
                                           vc.pt_watts[0], vc.noise_watts)
                 for r in range(vc.config.realizations)]
        assert np.array_equal(run_campaign(campaign).rates[0], alone)

    def test_degenerate_realization_falls_back_alone(self):
        vc = quick_vc()
        block = range(8, 16)
        position = np.asarray(vc.config.rx.position, float)[None]
        selected = campaign_module.serving_surface(vc, position)
        channels = realize_block(vc, block, rx_position=position)
        intact = compute_phase_sets(vc, channels, selected)[0]
        dead = channels.ris_rx[0].copy()
        dead[3] = 0.0
        with pytest.warns(SingularPinvWarning):
            phases = compute_phase_sets(
                vc, dataclasses.replace(channels, ris_rx=(dead,)), selected)[0]
        alone = realize_block(vc, range(11, 12), rx_position=position)
        with pytest.warns(SingularPinvWarning):
            expected = compute_phase_sets(
                vc, dataclasses.replace(alone, ris_rx=(np.zeros_like(alone.ris_rx[0]),)),
                selected)[0][0, 0]
        assert np.array_equal(phases[3, 0], expected)
        # the fallback draws from realization 11's own phase substream
        assert np.array_equal(expected, baseline_phases(
            "random", 64, spawn_rng(vc.config.seed, 11, LinkTag.PHASES, 0)))
        others = [i for i in range(len(block)) if i != 3]
        assert np.array_equal(phases[others], intact[others])

    def test_degenerate_cell_falls_back_alone(self):
        vc = quick_vc()
        block = range(8, 11)
        positions = np.array([(30.0, 20.0, 1.0), (45.0, 45.0, 1.0), (60.0, 10.0, 1.0),
                              (20.0, 40.0, 1.0)])
        channels = realize_block(vc, block, rx_position=positions)
        served = np.ones(len(positions), dtype=bool)
        intact = campaign_module._surface_phases(vc, channels, 0, served)
        dead = channels.ris_rx[0].copy()
        dead[1, 2] = 0.0
        with pytest.warns(SingularPinvWarning):
            phases = campaign_module._surface_phases(
                vc, dataclasses.replace(channels, ris_rx=(dead,)), 0, served)
        # the fallback draws from realization 9's own phase substream
        assert np.array_equal(phases[1, 2], baseline_phases(
            "random", 64, spawn_rng(vc.config.seed, 9, LinkTag.PHASES, 0)))
        others = np.ones(phases.shape[:2], dtype=bool)
        others[1, 2] = False
        assert np.array_equal(phases[others], intact[others])

    def test_pinv_spawns_no_phase_stream_without_fallback(self, monkeypatch):
        tags = []

        def counting_spawn(seed, realization, tag, *extra):
            tags.append(LinkTag(tag))
            return spawn_rng(seed, realization, tag, *extra)

        monkeypatch.setattr(campaign_module, "spawn_rng", counting_spawn)
        stats = run_campaign(Campaign(quick_vc()))
        assert np.all(np.isfinite(stats.rates))
        assert LinkTag.PHASES not in tags


class TestRunCampaign:
    def test_repeat_run_identical(self):
        vc = quick_vc(realizations=3)
        a = run_campaign(Campaign(vc))
        b = run_campaign(Campaign(vc))
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.mean, b.mean)

    @pytest.mark.parametrize("realizations", [1, 2, 3, 32])
    def test_statistics_percentiles_equal_separate_calls(self, realizations):
        rates = np.random.default_rng(realizations).exponential(5.0, (3, realizations))
        stats = campaign_module._statistics("pt_dbm", [20.0, 30.0, 40.0], rates)
        assert stats.p5.tobytes() == np.percentile(rates, 5.0, axis=1).tobytes()
        assert stats.p95.tobytes() == np.percentile(rates, 95.0, axis=1).tobytes()

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

    def test_pt_sweep_takes_its_values_from_the_config(self):
        with pytest.raises(ConfigError, match="pt_dbm"):
            Campaign(quick_vc(), sweep_axis="pt", sweep_values=(10, 20))

    @pytest.mark.parametrize("values", [(64.5, 64), (64, 64), (64, 64.0), (float("nan"),),
                                        ("64",), (True, 64)])
    def test_sweep_points_must_be_distinct_whole_numbers(self, values):
        with pytest.raises(ConfigError, match="distinct whole numbers"):
            Campaign(quick_vc(), sweep_axis="n", sweep_values=values)

    def test_whole_sweep_points_run_as_integers(self):
        campaign = Campaign(quick_vc(), sweep_axis="ntnr", sweep_values=(8.0, 4))
        assert campaign.sweep_values == (4, 8)
        assert all(type(v) is int for v in campaign.sweep_values)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            Campaign(quick_vc(), sweep_axis="bandwidth")

    @pytest.mark.parametrize("idle_ris", ["absent", "random"])
    def test_campaign_without_surfaces_rates_the_direct_link(self, idle_ris):
        vc = quick_vc(realizations=3, ris=(), idle_ris=idle_ris, direct_mode="present")
        stats = run_campaign(Campaign(vc))
        direct = realize_block(vc, range(3)).direct[:, 0]
        expected = rate_from_singular_values(np.linalg.svd(direct, compute_uv=False),
                                             vc.pt_watts[0], vc.noise_watts)
        assert np.all(stats.rates[0] > 0)
        assert np.array_equal(stats.rates[0], expected)

    def test_pool_is_capped_at_the_work_units(self, monkeypatch):
        pools = []

        class SerialPool:
            """Records the requested pool size and runs the payloads in-process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads, chunksize=1):
                return map(fn, payloads)

        vc = quick_vc(realizations=BLOCK_SIZE + 1)   # two campaign blocks
        expected = run_campaign(Campaign(vc)).rates
        monkeypatch.setattr(campaign_module, "_process_pool", SerialPool)
        assert np.array_equal(run_campaign(Campaign(vc, workers=5000)).rates, expected)
        assert pools == [2]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError):
            run_campaign(Campaign(quick_vc(realizations=2), workers=workers))

    @pytest.mark.parametrize("job", ["run_campaign", "dump_channels"])
    @pytest.mark.parametrize("workers", [1.5, True, "2", 2.0])
    def test_workers_meet_the_count_rule(self, monkeypatch, tmp_path, job, workers):
        """A worker count is a whole number like any config count, checked
        before a pool starts: 1.5 and True used to run, "2" raised TypeError."""
        def no_pool(max_workers):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(campaign_module, "_process_pool", no_pool)
        vc = quick_vc(realizations=BLOCK_SIZE + 1)   # two work units
        with pytest.raises(ConfigError, match="workers must be a whole number"):
            if job == "run_campaign":
                run_campaign(Campaign(vc, workers=workers))
            else:
                dump_channels(vc, tmp_path / "dump", workers=workers)

    def test_rejected_dump_leaves_no_directory(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="workers must be a whole number"):
            dump_channels(quick_vc(realizations=2), out, workers=1.5)
        assert not out.exists()

    def test_import_and_validate_load_no_process_pool(self):
        """The pool's modules load only when a job starts one, and the heap's
        trim threshold is set only when a block runs: a fresh interpreter
        that imports rislink and validates a config has not imported
        `concurrent.futures` or `multiprocessing`, nor set the threshold."""
        code = ("import sys, rislink; rislink.validate_config(rislink.scene_preset('indoor')); "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing')), "
                "rislink.campaign._keep_freed_heap.cache_info().currsize)")
        assert fresh_python(code) == "[] 0"

    def test_loading_the_engine_starts_no_process_pool(self):
        """Importing every engine module and validating a config still leaves
        `concurrent.futures` and `multiprocessing` unloaded: the public names
        load their modules on first use, so a bare import alone would not
        show a pool import at module level."""
        code = ("import sys, rislink.campaign, rislink.channel, rislink.control, "
                "rislink.propagation, rislink.rng; "
                "rislink.validate_config(rislink.scene_preset('indoor')); "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        assert fresh_python(code) == "[]"

    def test_trim_threshold_is_a_no_op_off_glibc(self, monkeypatch):
        def no_libc(name):
            raise AssertionError("the C library was loaded")

        monkeypatch.setattr(campaign_module.platform, "libc_ver", lambda: ("musl", "1.2"))
        monkeypatch.setattr(campaign_module.ctypes, "CDLL", no_libc)
        assert campaign_module._keep_freed_heap.__wrapped__() is False

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the trim threshold is a glibc setting")
    def test_warm_batches_keep_their_heap_mapped(self):
        """Once a block has set the trim threshold, a warm batch finds its
        freed heap still mapped: after one warm-up batch each, further
        benchmark-shaped batches (the indoor preset's 12.5 m map at 16
        realizations and a 32-realization campaign at 20/30/40 dBm) take
        under 100 minor page faults a batch on average, where a heap trimmed
        after every chunk took ~1,700 and ~450.  So does the campaign with a
        256-element surface, whose arrays exceed the mmap threshold glibc
        froze when the trim threshold alone was set (~300 faults)."""
        code = textwrap.dedent("""
            import dataclasses, resource, rislink as rl
            def coverage(seed):
                vc = rl.validate_config(dataclasses.replace(
                    rl.scene_preset("indoor"), pt_dbm=(40.0,), realizations=16, seed=seed))
                rl.coverage_map(rl.Campaign(vc), rl.default_grid(vc, 12.5))
            def campaign(seed, **overrides):
                vc = rl.validate_config(dataclasses.replace(
                    rl.scene_preset("indoor"), pt_dbm=(20.0, 30.0, 40.0), realizations=32,
                    seed=seed, **overrides))
                rl.run_campaign(rl.Campaign(vc))
            def large_campaign(seed):
                surface = rl.scene_preset("indoor").ris[0]
                campaign(seed, ris=(dataclasses.replace(surface, count=256, shape=None),))
            coverage(1), campaign(1), large_campaign(1)
            faults = []
            for batch in (coverage, campaign, large_campaign):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                for seed in range(2, 6):
                    batch(seed)
                faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
            print(rl.campaign._keep_freed_heap(), *faults)""")
        applied, *faults = fresh_python(code).split()
        assert applied == "True"
        assert max(map(float, faults)) < 100, (
            f"faults per batch (map, campaign, 256-element campaign): {faults}")

    def test_siso_algorithm_requires_siso_arrays(self):
        with pytest.raises(ConfigError, match="Nt = Nr = 1"):
            quick_vc(realizations=2, algorithm="siso")


# rislink's public names, by the module that defines each
PUBLIC_NAMES = {
    "campaign": ("Campaign", "CoverageGrid", "GridSpec", "RateStatistics",
                 "composite_singular_values", "compute_phase_sets", "coverage_map",
                 "default_grid", "dump_channels", "export_coverage", "export_statistics",
                 "load_channel_dump", "read_csv_table", "run_campaign"),
    "channel": ("RealizationChannels", "Scene", "assemble_direct_channel",
                "assemble_link_channel", "build_scene", "composite_multi", "realize_channels"),
    "config": ("ENVIRONMENTS", "SCENE_PRESETS", "ArraySpec", "Environment", "PathLossTable",
               "RisSpec", "SimConfig", "ValidatedConfig", "config_hash", "dbm_to_watts",
               "load_config", "parse_config_text", "scene_preset", "serialize_config",
               "validate_config", "watts_to_dbm"),
    "control": ("achievable_rate", "baseline_phases", "far_field_power", "pinv_phases",
                "quantize_phases", "select_ris", "siso_optimal_phases"),
    "geometry": ("azimuth_rotation_frame", "element_gain", "frame_from_plane"),
    "propagation": ("ClusterSet", "LinkState", "draw_clusters", "draw_link_state",
                    "los_probability"),
    "rng": ("LinkTag", "spawn_rng"),
}
CONFIG_LAYER = ["rislink", "rislink.config", "rislink.errors", "rislink.geometry"]
LOADED = "print(*sorted(m for m in sys.modules if m.startswith('rislink') or m == 'hashlib'))"


class TestLazyNames:
    """Each public name loads its module on first use, so validating a
    scenario, from the library or the command line, loads only the config
    layer."""

    def test_import_and_validate_load_only_the_config_layer(self):
        code = "import sys, rislink; rislink.validate_config(rislink.scene_preset('indoor')); "
        assert fresh_python(code + LOADED).split() == CONFIG_LAYER

    def test_cli_validate_loads_only_the_config_layer(self):
        code = "import sys, rislink.cli; rislink.cli.main(['validate', '--preset', 'indoor']); "
        loaded = fresh_python(code + LOADED).splitlines()[-1].split()
        assert sorted(set(loaded) - {"hashlib"}) == sorted(CONFIG_LAYER + ["rislink.cli"])

    def test_every_public_name_is_its_modules_object(self):
        """From a bare import each name resolves to the object its module
        defines and stays in the package namespace."""
        code = textwrap.dedent("""
            import importlib, json, rislink
            listed, listing = sorted(rislink.__all__), dir(rislink)
            wrong = [name for module, name in MODULE_NAMES
                     if not getattr(rislink, name) is vars(rislink)[name]
                     is getattr(importlib.import_module("rislink." + module), name)]
            print(json.dumps([listed, [n for n in listed if n not in listing], wrong]))
            """).replace("MODULE_NAMES", repr(
            [(module, name) for module, names in PUBLIC_NAMES.items() for name in names]))
        listed, unlisted, wrong = json.loads(fresh_python(code))
        assert listed == sorted(n for names in PUBLIC_NAMES.values() for n in names)
        assert unlisted == [] and wrong == []

    def test_unknown_name_raises_attribute_error(self):
        import rislink
        with pytest.raises(AttributeError, match="no_such_name"):
            rislink.no_such_name


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
        assert len(x) * len(y) > 2 * BLOCK_SIZE
        assert len(x) * len(y) % BLOCK_SIZE != 0
        blobs = []
        for w in (1, 2, 4):
            path = tmp_path / f"grid_w{w}.csv"
            export_coverage(coverage_map(Campaign(vc, workers=w), grid), path, vc.config_hash)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    @pytest.mark.parametrize("overrides", [
        {},
        {"ris_links": "auto", "direct_mode": "present"},
        {"ris": (scene_preset("indoor").ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz")),
         "idle_ris": "random"},
        {"shared_clusters": True},   # each chunk's receiver leg borrows its group's geometry
    ])
    def test_cell_rates_do_not_depend_on_the_realization_chunk(self, overrides, monkeypatch,
                                                               tmp_path):
        """Bit for bit the realization-order sum of each realization alone, in
        groups of one realization, an uneven split (2 + 3) and the whole
        block, each run as one chunk a realization, an uneven split or whole.
        A campaign's rates and a dump's files are those of the unpatched run."""
        vc = quick_vc(realizations=5, **overrides)
        grid = GridSpec(0.0, 75.0, 0.0, 50.0, cell=12.5, z=1.0)
        positions = cell_positions(grid)
        selected = campaign_module.serving_surface(vc, positions)
        alone = np.zeros(len(positions))   # each realization realized alone, summed in order
        for r in range(5):
            alone += campaign_module._run_block(("rates", vc, range(r, r + 1), positions,
                                                 selected, np.asarray(vc.pt_watts[:1])))[0, 0]

        def dump_files(out):
            dump_channels(vc, out)
            return {path.name: path.read_bytes() for path in sorted(out.iterdir())}

        rates = run_campaign(Campaign(vc)).rates
        files = dump_files(tmp_path / "whole")
        for group, chunk in [(1, 1), (3, 1), (3, 3), (5, 1), (5, 3), (5, 5)]:
            monkeypatch.setattr(campaign_module, "block_sizes", lambda vc, cells: (group, chunk))
            chunked = coverage_map(Campaign(vc), grid)
            assert np.array_equal(chunked.mean_rate.ravel(), alone / 5), (group, chunk)
            assert np.array_equal(chunked.ris_index.ravel(), selected)
            assert np.array_equal(run_campaign(Campaign(vc)).rates, rates), (group, chunk)
            assert dump_files(tmp_path / f"g{group}c{chunk}") == files, (group, chunk)

    def test_benchmark_block_draws_once_per_group(self, monkeypatch):
        """One benchmark-shaped block (24 cells, 16 realizations, set to 4
        chunks in one group) seeds each link's substreams once and places
        and contracts its Tx-surface leg once, not once per chunk: one
        placement pass per chunk, the first also placing the Tx-surface leg.
        The budget runs the block as 2 chunks of 8, and a benchmark campaign
        block (32 realizations) as one chunk: one pass."""
        vc = quick_vc(realizations=16)
        positions = cell_positions(default_grid(vc, 12.5))
        assert len(positions) == 24
        budget_sizes = campaign_module.block_sizes
        monkeypatch.setattr(campaign_module, "block_sizes", lambda vc, cells: (
            (BLOCK_SIZE, 5) if cells == 24 else budget_sizes(vc, cells)))
        group, chunk = campaign_module.block_sizes(vc, len(positions))
        assert (group, chunk) == (BLOCK_SIZE, 5)   # so one group of 16 in 4 chunks of 4
        seeded, placed, legs = [], [], []
        block_rngs, leg_matrices = channel_module.block_rngs, channel_module._leg_matrices
        place_links = channel_module._place_links

        def counting_rngs(seed, realizations, tag, *extra):
            seeded.append((LinkTag(tag), *extra))
            return block_rngs(seed, realizations, tag, *extra)

        def counting_passes(vc, links):
            placed.append([(link.row.count, link.col.count) for link in links])
            return place_links(vc, links)

        def counting_legs(row, col, leg):
            legs.append((row.count, col.count))
            return leg_matrices(row, col, leg)

        monkeypatch.setattr(channel_module, "block_rngs", counting_rngs)
        monkeypatch.setattr(channel_module, "_place_links", counting_passes)
        monkeypatch.setattr(channel_module, "_leg_matrices", counting_legs)
        coverage_map(Campaign(vc), default_grid(vc, 12.5))
        # the indoor preset's direct path is blocked without scattered paths
        assert sorted(seeded) == [(LinkTag.TX_RIS, 0), (LinkTag.RIS_RX, 0),
                                  (LinkTag.RX_FRAME,)]
        assert legs.count((64, 4)) == 1   # the Tx-surface leg, once for the group
        assert legs.count((4, 64)) == 4   # the surface-Rx leg, once per chunk
        # placed as often as contracted, in one pass per chunk
        assert placed == [[(64, 4), (4, 64)]] + [[(4, 64)]] * 3
        placed.clear()
        run_campaign(Campaign(quick_vc(realizations=32)))
        assert placed == [[(64, 4), (4, 64)]]
        # the budget: the map's 16 realizations as one group in 2 chunks of 8 (chunks of
        # at most 10 split evenly), so 2 passes, then the campaign's 32 as one chunk
        monkeypatch.setattr(campaign_module, "block_sizes", budget_sizes)
        placed.clear()
        coverage_map(Campaign(vc), default_grid(vc, 12.5))
        run_campaign(Campaign(quick_vc(realizations=32)))
        assert (budget_sizes(vc, 24), budget_sizes(vc, 1), placed) == (
            (BLOCK_SIZE, 10), (BLOCK_SIZE, BLOCK_SIZE),
            [[(64, 4), (4, 64)], [(4, 64)], [(64, 4), (4, 64)]])

    def test_coverage_sizes(self):
        """Chunks fill the receiver-side budget, groups the Tx-side one; a
        group holds at least one chunk, so over-budget arrays run one
        realization a group and a chunk."""
        budget = campaign_module.CHUNK_BUDGET
        indoor = quick_vc()
        # receiver side 24 x 4 x 64 entries a realization, Tx side 64 x 4
        assert campaign_module.block_sizes(indoor, 24) == (
            min(BLOCK_SIZE, budget // (64 * 4)), budget // (24 * 4 * 64))
        assert campaign_module.block_sizes(indoor, 1) == (BLOCK_SIZE, BLOCK_SIZE)
        two = quick_vc(ris=(RisSpec(256, (37.5, 50.0, 2.0)), RisSpec(64, (60.0, 30.0, 2.0),
                                                                     plane="yz")))
        # the largest surface sizes the chunk, both surfaces the group
        assert campaign_module.block_sizes(two, 8) == (
            min(BLOCK_SIZE, budget // ((256 + 64) * 4)), budget // (8 * 4 * 256))
        none = quick_vc(ris=(), direct_mode="present")
        # no surface: the direct link's Nr x Nt entries size the chunk
        assert campaign_module.block_sizes(none, 1024) == (BLOCK_SIZE, budget // (1024 * 4 * 4))
        cfg = scene_preset("indoor")
        with pytest.warns(NearFieldWarning):   # a 4096-element surface is large at 2 m
            large = validate_config(dataclasses.replace(
                cfg, ris=(dataclasses.replace(cfg.ris[0], count=4096, shape=None),),
                tx=dataclasses.replace(cfg.tx, count=64), rx=dataclasses.replace(cfg.rx, count=64)))
        assert 4096 * 64 > budget
        assert campaign_module.block_sizes(large, 24) == (1, 1)

    @pytest.mark.parametrize("realizations", [1, 2, 5, 16, 17, 33, 100])
    @pytest.mark.parametrize("most", [1, 2, 3, 5, 32])
    def test_realization_chunks_split_evenly(self, realizations, most):
        chunks = channel_module.realization_chunks(range(realizations), most)
        sizes = [len(c) for c in chunks]
        assert [r for c in chunks for r in c] == list(range(realizations))
        assert len(chunks) == -(-realizations // most)
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("job", ["means", "rates"])
    def test_coverage_block_memory_is_bounded_by_its_chunk(self, job):
        """One block of the benchmark's map (24 cells, 16 realizations) peaks
        under 6x its chunk's surface-Rx leg: the leg itself, the pinv
        product and conjugate copy, plus the contraction's fixed workspace
        (`channel.PLACEMENT_BUDGET`).  A 4-realization campaign block of a
        4096-element surface with 64-antenna terminals runs one realization
        a chunk, and so peaks under 6x one realization's surface leg."""
        if job == "means":
            vc = quick_vc(realizations=16, seed=1000)
            positions = cell_positions(default_grid(vc, 12.5))
            most = min(BLOCK_SIZE, campaign_module.CHUNK_BUDGET // (24 * 4 * 64))
            chunk = max(len(c) for c in channel_module.realization_chunks(range(16), most))
            assert chunk > 2   # larger than the chunks of two the shared budget allowed
            ris_rx_bytes = chunk * 24 * 4 * 64 * 16
        else:
            cfg = scene_preset("indoor")
            with pytest.warns(NearFieldWarning):   # a 4096-element surface is large at 2 m
                vc = validate_config(dataclasses.replace(
                    cfg, realizations=4, ris=(dataclasses.replace(cfg.ris[0], count=4096,
                                                                  shape=None),),
                    tx=dataclasses.replace(cfg.tx, count=64),
                    rx=dataclasses.replace(cfg.rx, count=64)))
            positions = np.asarray(cfg.rx.position, float)[None]
            ris_rx_bytes = 64 * 4096 * 16
        peak = warm_block_peak(job, vc, positions)
        assert peak < 6 * ris_rx_bytes

    def test_benchmark_map_block_peak_is_pinned(self):
        """A block of the benchmark's map (24 cells, 16 realizations in 2
        chunks of 8) peaks under 2.7 MB on seeds 1000-1007: 2.27-2.40 MB, at
        most in the contraction of a first chunk, plus ~10%.  The bound above
        grows with the chunk, so it does not see the chunk's arrays outlive
        their use; held as long as their pass, its placed paths and per-path
        ends had it peak at 2.84 MB."""
        peaks = []
        for seed in range(1000, 1008):
            vc = quick_vc(realizations=16, seed=seed)
            peaks.append(warm_block_peak("means", vc, cell_positions(default_grid(vc, 12.5))))
        assert max(peaks) < 2_700_000, peaks

    def test_contraction_workspace_is_bounded_by_the_placement_budget(self, monkeypatch):
        """Each leg's contraction in a block of the benchmark's map (seeds
        1000-1007) allocates beyond its matrices at most 1.5x what its path
        chunks count (`channel.PLACEMENT_BUDGET` entries, 16 bytes each):
        both devices' grid factors and the Khatri-Rao sides, each chunk's
        released before the next is formed.  Counting only prefix + suffix
        entries a path, with a chunk's arrays alive while the next chunk's
        are formed, takes 3.3-3.5x."""
        original, workspace = channel_module._leg_matrices, {}

        def spy(row, col, leg):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            matrix = original(row, col, leg)
            kind = "surface-Rx" if len(row.position) > 1 else "Tx-surface"
            workspace.setdefault(kind, []).append(
                tracemalloc.get_traced_memory()[1] - entry - matrix.nbytes)
            return matrix

        monkeypatch.setattr(channel_module, "_leg_matrices", spy)
        for seed in range(1000, 1008):
            vc = quick_vc(realizations=16, seed=seed)
            positions = cell_positions(default_grid(vc, 12.5))
            tracemalloc.start()
            try:
                campaign_module._run_block(("means", vc, range(16), positions,
                                            campaign_module.serving_surface(vc, positions),
                                            np.asarray(vc.pt_watts[:1])))
            finally:
                tracemalloc.stop()
        # a Tx-surface leg a block, a surface-Rx leg a chunk of 8
        assert {kind: len(v) for kind, v in workspace.items()} == {"Tx-surface": 8,
                                                                    "surface-Rx": 16}
        bound = 1.5 * channel_module.PLACEMENT_BUDGET * 16
        assert max(max(v) for v in workspace.values()) <= bound, workspace

    def test_contraction_chunks_fill_the_placement_budget(self, monkeypatch):
        """Every path chunk of a leg's contraction but its last holds at least
        700 paths, in a block of the benchmark's map and one of its campaign:
        the benchmark legs count 60 entries a path (both devices' 4 + 16
        factors, then 40 on the Khatri-Rao sides), 819 paths to a chunk."""
        original, factors, calls = channel_module._leg_matrices, GridAxes.factors, []

        def spy(row, col, leg):
            calls.append([])   # each chunk's row device's, then column device's factors
            return original(row, col, leg)

        def counting(grid, u):
            calls[-1].append(len(u))
            return factors(grid, u)

        monkeypatch.setattr(channel_module, "_leg_matrices", spy)
        monkeypatch.setattr(GridAxes, "factors", counting)
        vc = quick_vc(realizations=16, seed=1000)
        coverage_map(Campaign(vc), default_grid(vc, 12.5))
        run_campaign(Campaign(quick_vc(realizations=32)))
        chunks = [paths[::2] for paths in calls]
        assert all(paths[::2] == paths[1::2] for paths in calls)
        assert len(chunks) == 3 + 2   # the map's legs (2 chunks of 8), then the campaign's
        assert max(map(len, chunks)) > 1
        assert all(min(leg[:-1], default=700) >= 700 for leg in chunks), chunks

    def test_each_chunk_is_released_before_the_next_is_contracted(self, monkeypatch):
        """A "means" block of the benchmark's map (24 cells, 16 realizations,
        set to 4 chunks) holds no earlier chunk's surface-Rx matrices while it
        contracts the next one.  A name left holding the last chunk (the loop
        name of a comprehension over the chunks) keeps one chunk more alive,
        which the tracemalloc bound above does not see."""
        vc = quick_vc(realizations=16, seed=1000)
        positions = cell_positions(default_grid(vc, 12.5))
        monkeypatch.setattr(campaign_module, "block_sizes", lambda vc, cells: (BLOCK_SIZE, 5))
        original, matrices, alive = channel_module._leg_matrices, [], []

        def spy(row, col, leg):
            receiver_side = len(row.position) > 1   # a Tx-surface leg has one far point
            if receiver_side:
                alive.append(sum(m() is not None for m in matrices))
            matrix = original(row, col, leg)
            if receiver_side:
                matrices.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(channel_module, "_leg_matrices", spy)
        campaign_module._run_block(("means", vc, range(16), positions,
                                    campaign_module.serving_surface(vc, positions),
                                    np.asarray(vc.pt_watts[:1])))
        assert alive == [0, 0, 0, 0]

    def test_random_idle_surfaces_control_only_the_cells_they_serve(self, monkeypatch):
        legs = []

        def counting_pinv(tx_ris, ris_rx, **kwargs):
            legs.append(int(np.prod(np.broadcast_shapes(tx_ris.shape[:-2], ris_rx.shape[:-2]))))
            return pinv_phases(tx_ris, ris_rx, **kwargs)

        vc = quick_vc(realizations=4, idle_ris="random", ris=(
            scene_preset("indoor").ris[0], RisSpec(64, (60.0, 30.0, 2.0), plane="yz")))
        grid = GridSpec(0.0, 75.0, 0.0, 50.0, cell=10.0, z=1.0)
        expected = coverage_map(Campaign(vc), grid)
        monkeypatch.setattr(campaign_module, "pinv_phases", counting_pinv)
        counted = coverage_map(Campaign(vc), grid)
        assert set(expected.ris_index.ravel().tolist()) == {0, 1}
        # every cell is served by one surface, once per realization
        assert sum(legs) == expected.ris_index.size * vc.config.realizations
        assert np.array_equal(counted.mean_rate, expected.mean_rate)

    @pytest.mark.parametrize("idle_ris", ["absent", "random"])
    def test_map_without_surfaces_draws_the_direct_link(self, idle_ris):
        vc = quick_vc(realizations=3, ris=(), idle_ris=idle_ris, direct_mode="present")
        grid = GridSpec(29.5, 30.5, 19.5, 20.5, cell=1.0, z=1.0)
        cell = coverage_map(Campaign(vc), grid)
        moved = dataclasses.replace(
            vc.config, rx=dataclasses.replace(vc.config.rx, position=(30.0, 20.0, 1.0)))
        stats = run_campaign(Campaign(validate_config(moved)))
        assert cell.mean_rate[0, 0] > 0
        assert cell.mean_rate[0, 0] == pytest.approx(stats.mean[0], rel=1e-12)
        assert cell.ris_index[0, 0] == -1      # no surface serves the cell

    @pytest.mark.parametrize("grid, on", [
        (GridSpec(30.0, 50.0, 40.0, 60.0, cell=20.0, z=2.0), "ris[0]"),   # centre (40, 50, 2)
        (GridSpec(-10.0, 10.0, 15.0, 35.0, cell=20.0, z=2.0), "the transmitter"),
    ])
    def test_cell_on_a_device_is_a_config_error(self, grid, on):
        with pytest.raises(ConfigError, match=f"lies on {re.escape(on)}"):
            coverage_map(Campaign(quick_vc(realizations=1)), grid)

    def near_field_vc(self, **overrides):
        """A 1024-element surface (Fraunhofer distance 10.29 m) and a receiver
        30.4 m from it: the config itself validates without a warning."""
        cfg = scene_preset("indoor")
        cfg = dataclasses.replace(cfg, realizations=1, **overrides,
                                  ris=(dataclasses.replace(cfg.ris[0], count=1024),),
                                  rx=dataclasses.replace(cfg.rx, position=(45.0, 20.0, 1.0)))
        return validate_config(cfg)

    def test_near_field_cells_warn_once_with_count_and_distance(self, recwarn):
        vc = self.near_field_vc()
        assert not recwarn.list
        grid = GridSpec(30.0, 50.0, 40.0, 60.0, cell=2.0)
        coverage_map(Campaign(vc), grid)
        near = [w for w in recwarn.list if issubclass(w.category, NearFieldWarning)]
        assert len(near) == 1
        assert "80 of 100 receiver positions" in str(near[0].message)
        assert "1.73 m" in str(near[0].message)

    def test_near_field_cells_raise_under_strict_checking(self):
        vc = self.near_field_vc(strict_near_field=True)
        with pytest.raises(NearFieldViolation, match="80 of 100"):
            coverage_map(Campaign(vc), GridSpec(30.0, 50.0, 40.0, 60.0, cell=2.0))

    def test_cell_just_off_a_surface_runs_with_a_near_field_warning(self):
        grid = GridSpec(30.0, 50.0, 40.0, 60.0, cell=20.0, z=2.0001)
        with pytest.warns(NearFieldWarning, match="1 of 1 receiver positions"):
            cell = coverage_map(Campaign(quick_vc(realizations=1)), grid)
        assert np.isfinite(cell.mean_rate[0, 0])

    def test_default_grid_uses_footprint(self):
        grid = default_grid(quick_vc(), cell=5.0)
        assert (grid.x_max, grid.y_max) == (75.0, 50.0)
        x, y = grid.centers()
        assert len(x) == 15 and len(y) == 10

    @pytest.mark.parametrize("fields", [
        {"cell": 0.0}, {"cell": -5.0}, {"cell": float("nan")}, {"cell": float("inf")},
        {"x_max": -1.0}, {"x_max": 0.0}, {"y_min": 50.0}, {"y_max": float("inf")},
        {"x_min": float("nan")}, {"z": -1.0}, {"z": float("nan")}, {"z": float("inf")},
        {"cell": 1e-4}, {"cell": 5e-324},      # 3.75e11 cells; a count that overflows
        {"cell": "1"}, {"x_min": None}, {"cell": True},   # a number, as in config keys
    ])
    def test_grid_spec_rejects_bad_fields(self, fields):
        good = dict(x_min=0.0, x_max=75.0, y_min=0.0, y_max=50.0, cell=12.5, z=1.0)
        GridSpec(**good)
        with pytest.raises(ConfigError):
            GridSpec(**{**good, **fields})
        with pytest.raises(ConfigError):
            dataclasses.replace(GridSpec(**good), **fields)

    @pytest.mark.parametrize("overrides, sweep", [
        ({}, {"sweep_axis": "n", "sweep_values": (32, 64)}),
        ({}, {"sweep_axis": "ntnr", "sweep_values": (2, 4)}),
        ({"pt_dbm": (20.0, 40.0)}, {}),
    ], ids=["n-sweep", "ntnr-sweep", "two-powers"])
    def test_map_rejects_a_sweep_or_several_powers(self, overrides, sweep):
        """A map runs at the config's own array sizes and one power, so it
        would ignore the sweep or all powers but one."""
        campaign = Campaign(quick_vc(realizations=2, **overrides), **sweep)
        with pytest.raises(ConfigError, match="one transmit power"):
            coverage_map(campaign, GridSpec(38.0, 42.0, 44.0, 46.0, cell=2.0))

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

    def test_header_only_csv_reads_empty_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# config_hash=abc\nx,y,mean_rate,ris_index\n", encoding="utf-8")
        got_hash, cols = read_csv_table(path)
        assert got_hash == "abc"
        assert list(cols) == ["x", "y", "mean_rate", "ris_index"]
        for column in cols.values():
            assert column.dtype == float and column.shape == (0,)

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
        manifest = dump_channels(vc, tmp_path / "dump")
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
