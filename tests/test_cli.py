"""Command-line interface: exit codes and help text, through `main`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rislink import parse_config_text, validate_config
from rislink.cli import EXIT_BROKEN_PIPE, build_parser, main
from rislink.config import SCENE_TEXT
from rislink.errors import NearFieldWarning


def test_non_integer_sweep_value_is_a_config_error(capsys):
    assert main(["run", "--preset", "indoor", "--sweep", "n=abc"]) == 1
    assert "config error" in capsys.readouterr().err


def test_whole_sweep_points_may_be_written_as_decimals(capsys):
    """`--sweep` reads numbers as `n_elements = 64.0` does; `Campaign` wants whole ones."""
    outputs = []
    for sweep in ("n=64.0,128", "n=64,128"):
        assert main(["run", "--preset", "indoor", "--set", "realizations=2", "--sweep", sweep]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "\n64," in outputs[0]
    assert main(["run", "--preset", "indoor", "--set", "realizations=2", "--sweep", "n=64.5"]) == 1
    assert "whole numbers" in capsys.readouterr().err


def test_explicit_pt_sweep_values_are_a_config_error(capsys):
    assert main(["run", "--preset", "indoor", "--set", "realizations=4",
                 "--sweep", "pt=10,20"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "pt_dbm" in err


@pytest.mark.parametrize("args", [
    ["--sweep", "n=64,64"],
    ["--set", "pt_dbm=20,20"],
], ids=["n-sweep", "pt-list"])
def test_repeated_sweep_point_is_a_config_error(args, capsys):
    assert main(["run", "--preset", "indoor", "--set", "realizations=2", *args]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and "distinct" in captured.err
    assert "sweep_value" not in captured.out


def test_reader_closing_early_ends_quietly():
    """Like a Unix tool under `| head -1`: no error line, and not exit status 2."""
    read_end, write_end = os.pipe()
    os.close(read_end)   # the reader is gone before the first write
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run([sys.executable, "-m", "rislink.cli", "validate", "--preset",
                               "indoor"], stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_BROKEN_PIPE
    assert done.stderr == b""


def test_non_numeric_extent_is_a_config_error(capsys):
    assert main(["coverage", "--preset", "indoor", "--extent", "0,1,a,b"]) == 1
    assert "config error" in capsys.readouterr().err


def test_extent_needs_four_values(capsys):
    assert main(["coverage", "--preset", "indoor", "--extent", "0,1,2"]) == 1
    assert "config error" in capsys.readouterr().err


def test_small_coverage_map_succeeds(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(["coverage", "--preset", "indoor", "--set", "realizations=2",
                 "--extent", "38,42,44,46", "--cell", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text().count("\n") == 2 + 2 * 1
    assert "coverage 2x1 cells" in capsys.readouterr().out


def test_coverage_cell_on_a_surface_is_a_config_error(capsys):
    # one 20 m cell, centred on the indoor surface at (40, 50, 2)
    assert main(["coverage", "--preset", "indoor", "--extent", "30,50,40,60",
                 "--cell", "20", "--z", "2"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "lies on ris[0]" in err


def test_coverage_cell_just_off_a_surface_warns(capsys):
    with pytest.warns(NearFieldWarning, match="1 of 1 receiver positions"):
        assert main(["coverage", "--preset", "indoor", "--set", "realizations=2",
                     "--extent", "30,50,40,60", "--cell", "20", "--z", "2.0001"]) == 0
    assert "coverage 1x1 cells" in capsys.readouterr().out


def test_coverage_near_field_cells_fail_under_strict_checking(capsys):
    assert main(["coverage", "--preset", "indoor", "--set", "n_elements=1024",
                 "--set", "rx_position=45,20,1", "--set", "strict_near_field=true",
                 "--extent", "30,50,40,60", "--cell", "2"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "80 of 100 receiver positions" in err


@pytest.mark.parametrize("command", ["run", "coverage", "dump-channels"])
def test_workers_help_names_processes(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    text = sub.format_help()
    assert "worker processes" in text and "threads" not in text


def test_validate_has_no_workers_option():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["validate", "--preset", "indoor", "--workers", "2"])


def test_set_frequency_ghz_on_a_preset(capsys):
    assert main(["validate", "--preset", "indoor", "--set", "frequency_ghz=30"]) == 0
    assert "wavelength: 0.00999308 m" in capsys.readouterr().out


@pytest.mark.parametrize("override", ["nt=abc", "scatterers_min=abc", "nt=4.5", "seed=-1",
                                      "realizations=4294967297", "scatterers_max=100000000",
                                      "cluster_intensity=1e12", "phase_bits=1100"])
def test_bad_override_is_a_config_error(override, capsys):
    assert main(["validate", "--preset", "indoor", "--set", override]) == 1
    assert "config error" in capsys.readouterr().err


def test_set_keeps_derived_defaults(tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("element_spacing = 0.4\n")
    assert main(["validate", str(scene), "--set", "element_spacing=0.3"]) == 0
    edited = validate_config(parse_config_text("element_spacing = 0.3\n"))
    assert edited.config.ris[0].spacing_wl == 0.3
    assert f"hash {edited.config_hash}" in capsys.readouterr().out


@pytest.mark.parametrize("override", ["pt_dbm=4000", "noise_dbm=-4000"])
def test_power_without_finite_positive_watts_is_a_config_error(override, capsys):
    assert main(["validate", "--preset", "indoor", "--set", override]) == 1
    assert main(["run", "--preset", "indoor", "--set", "realizations=2",
                 "--set", override]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "finite positive power" in err


@pytest.mark.parametrize("args", [
    ["--cell", "0"], ["--cell", "-5"], ["--cell", "nan"],
    ["--extent", "75,0,0,50"], ["--extent", "0,75,50,50"], ["--extent", "0,inf,0,50"],
    ["--z", "-1"], ["--z", "nan"], ["--cell", "1e-4"], ["--cell", "5e-324"],
], ids=" ".join)
def test_bad_grid_is_a_config_error(args, capsys):
    assert main(["coverage", "--preset", "indoor", "--set", "realizations=1", *args]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "coverage"])
def test_scene_without_surfaces_runs(command, tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    scene.write_text("ris_position = none\ndirect_path = present\nrealizations = 2\n")
    extra = ["--extent", "38,42,44,46", "--cell", "2"] if command == "coverage" else []
    assert main([command, str(scene), *extra]) == 0
    assert "error" not in capsys.readouterr().err


def test_workers_below_one_is_a_config_error(capsys):
    assert main(["run", "--preset", "indoor", "--set", "realizations=2", "--workers", "0"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, override, message", [
    ("run", "rx_position=0,25,2", "receiver position (0.0, 25.0, 2.0) lies on the transmitter"),
    ("run", "rx_position=40,50,2", "receiver position (40.0, 50.0, 2.0) lies on ris[0]"),
    ("run", "tx_position=40,50,2", "transmitter position (40.0, 50.0, 2.0) lies on ris[0]"),
    ("validate", "rx_position=40,50,2", "receiver position (40.0, 50.0, 2.0) lies on ris[0]"),
], ids=["run-rx-on-tx", "run-rx-on-surface", "run-tx-on-surface", "validate-rx-on-surface"])
def test_terminal_on_another_device_is_a_config_error(command, override, message, capsys):
    assert main([command, "--preset", "indoor", "--set", "realizations=2",
                 "--set", override]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and message in captured.err
    assert "config ok" not in captured.out and "sweep_value" not in captured.out


def test_dump_of_a_receiver_on_a_surface_is_a_config_error_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "dump"
    assert main(["dump-channels", "--preset", "indoor", "--set", "realizations=2",
                 "--set", "rx_position=40,50,2", "--out-dir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_near_field_terminal_fails_validation_under_strict_checking(capsys):
    # 1024 elements put the surface's Fraunhofer distance at 10.29 m; the receiver is 5.2 m off
    scene = ["--preset", "indoor", "--set", "n_elements=1024", "--set", "rx_position=45,49,1"]
    with pytest.warns(NearFieldWarning, match="1 of 1 receiver positions"):
        assert main(["validate", *scene]) == 0
    assert main(["validate", *scene, "--set", "strict_near_field=true"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "1 of 1 receiver positions" in err


def test_validate_has_no_strict_flag():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["validate", "--preset", "indoor", "--strict"])


@pytest.mark.parametrize("command", ["validate", "run"])
def test_siso_on_array_terminals_is_a_config_error(command, capsys):
    assert main([command, "--preset", "indoor", "--set", "realizations=2",
                 "--set", "algorithm=siso"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Nt = Nr = 1" in err


def test_coverage_at_several_powers_is_a_config_error(capsys):
    assert main(["coverage", "--preset", "indoor", "--set", "realizations=2",
                 "--set", "pt_dbm=20,40", "--extent", "38,42,44,46", "--cell", "2"]) == 1
    assert "one transmit power" in capsys.readouterr().err


@pytest.mark.parametrize("preset, override, command", [
    ("indoor", "environment=umi", ["validate"]),
    ("outdoor", "environment=inh", ["coverage", "--cell", "25", "--set", "realizations=2"]),
    ("indoor", "element_spacing=0.4", ["validate"]),
    ("indoor", "frequency_ghz=73", ["validate"]),
], ids=["indoor-environment-umi", "outdoor-environment-inh-coverage", "element-spacing",
        "frequency-73"])
def test_set_on_a_preset_edits_it_like_a_file_of_its_text(preset, override, command,
                                                         tmp_path, capsys):
    """--set on a preset edits its config text: a new environment brings its
    own values (InH's footprint for the outdoor map) and `ris_spacing` follows
    `element_spacing`, exactly as in a file holding that text."""
    scene = tmp_path / "scene.txt"
    scene.write_text(SCENE_TEXT[preset])
    outputs = []
    for source in (["--preset", preset], [str(scene)]):
        assert main([command[0], *source, *command[1:], "--set", override]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "hash" in outputs[0]


@pytest.mark.parametrize("content", [None, b"nt = 4\xff\n"], ids=["missing", "not-utf8"])
def test_unreadable_config_file_is_a_config_error(content, tmp_path, capsys):
    scene = tmp_path / "scene.txt"
    if content is not None:
        scene.write_bytes(content)
    assert main(["validate", str(scene)]) == 1
    assert "cannot read config file" in capsys.readouterr().err
