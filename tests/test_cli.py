"""Command-line interface: exit codes and help text, through `main`."""

import pytest

from rislink import parse_config_text, validate_config
from rislink.cli import build_parser, main


def test_non_integer_sweep_value_is_a_config_error(capsys):
    assert main(["run", "--preset", "indoor", "--sweep", "n=abc"]) == 1
    assert "config error" in capsys.readouterr().err


def test_explicit_pt_sweep_values_are_a_config_error(capsys):
    assert main(["run", "--preset", "indoor", "--set", "realizations=4",
                 "--sweep", "pt=10,20"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "pt_dbm" in err


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


@pytest.mark.parametrize("command", ["validate", "run", "coverage", "dump-channels"])
def test_workers_help_names_processes(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    text = sub.format_help()
    assert "worker processes" in text and "threads" not in text


def test_set_frequency_ghz_on_a_preset(capsys):
    assert main(["validate", "--preset", "indoor", "--set", "frequency_ghz=30"]) == 0
    assert "wavelength: 0.00999308 m" in capsys.readouterr().out


@pytest.mark.parametrize("override", ["nt=abc", "scatterers_min=abc", "nt=4.5", "seed=-1",
                                      "realizations=4294967297"])
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
