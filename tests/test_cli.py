"""Command-line interface: exit codes and help text, through `main`."""

import dataclasses

import pytest

from rislink import parse_config_text, scene_preset, validate_config
from rislink.cli import build_parser, main
from rislink.errors import NearFieldWarning


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


def test_set_on_a_preset_edits_its_full_text(capsys):
    """A preset is written out in full before --set edits it, so the surface
    keeps its own spacing when the terminals' spacing changes."""
    assert main(["validate", "--preset", "indoor", "--set", "element_spacing=0.4"]) == 0
    preset = scene_preset("indoor")
    edited = dataclasses.replace(preset, tx=dataclasses.replace(preset.tx, spacing_wl=0.4),
                                 rx=dataclasses.replace(preset.rx, spacing_wl=0.4))
    assert edited.ris[0].spacing_wl == 0.5
    assert f"hash {validate_config(edited).config_hash}" in capsys.readouterr().out
