"""Command-line interface: exit codes and help text, through `main`."""

import pytest

from rislink.cli import build_parser, main


def test_non_integer_sweep_value_is_a_config_error(capsys):
    assert main(["run", "--preset", "indoor", "--sweep", "n=abc"]) == 1
    assert "config error" in capsys.readouterr().err


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
