"""Command-line interface: validate scenarios, run sweeps, map coverage, dump channels."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .campaign import (Campaign, GridSpec, coverage_map, default_grid, dump_channels,
                       export_coverage, export_statistics, run_campaign)
from .config import SCENE_TEXT, SimConfig, load_config, parse_config_text, validate_config
from .errors import ConfigError


def _add_scenario_args(parser: argparse.ArgumentParser, workers: bool = True) -> None:
    parser.add_argument("config", nargs="?", help="scenario config file")
    parser.add_argument("--preset", choices=SCENE_TEXT,
                        help="use a built-in scene instead of a config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override any config key (repeatable)")
    if workers:   # validate starts no processes
        parser.add_argument("--workers", type=int, default=1,
                            help="worker processes (results are identical for any count)")


def _build_config(args) -> SimConfig:
    if args.config and args.preset:
        raise ConfigError("give either a config file or --preset, not both")
    if args.config:
        return load_config(args.config, args.overrides)
    if args.preset:   # edited like a file holding the preset's text
        return parse_config_text(SCENE_TEXT[args.preset], args.overrides)
    raise ConfigError("a config file or --preset is required")


def _cmd_validate(args) -> int:
    vc = validate_config(_build_config(args))
    cfg = vc.config
    print(f"config ok (hash {vc.config_hash})")
    print(f"wavelength: {vc.wavelength:.6g} m")
    print(f"tx: {cfg.tx.count} ({cfg.tx.layout}), rx: {cfg.rx.count} ({cfg.rx.layout}), "
          f"surfaces: {[r.count for r in cfg.ris]}")
    print(f"pt sweep: {list(cfg.pt_dbm)} dBm, noise: {cfg.noise_dbm} dBm, "
          f"realizations: {cfg.realizations}, seed: {cfg.seed}")
    return 0


def _parse_sweep(text: str | None):
    if text is None or text.strip() == "pt":
        return "pt", ()
    if "=" not in text:
        raise ConfigError(f"--sweep expects 'pt' or 'axis=v1,v2,...', got {text!r}")
    axis, raw = text.split("=", 1)
    try:   # numbers here; `Campaign` requires distinct whole ones
        values = tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"--sweep values must be numbers, got {raw!r}") from exc
    return axis.strip().lower(), values


def _cmd_run(args) -> int:
    vc = validate_config(_build_config(args))
    axis, values = _parse_sweep(args.sweep)
    campaign = Campaign(vc, sweep_axis=axis, sweep_values=values, workers=args.workers)
    stats = run_campaign(campaign)
    print(f"# sweep={stats.sweep_axis} realizations={stats.count} hash={vc.config_hash}")
    print("sweep_value,mean_rate,std,p5,p95,n")
    for i, value in enumerate(stats.sweep_values):
        print(f"{value:g},{stats.mean[i]:.4f},{stats.std[i]:.4f},"
              f"{stats.p5[i]:.4f},{stats.p95[i]:.4f},{stats.count}")
    if args.out:
        export_statistics(stats, args.out, vc.config_hash)
        print(f"wrote {args.out}")
    return 0


def _cmd_coverage(args) -> int:
    vc = validate_config(_build_config(args))
    campaign = Campaign(vc, workers=args.workers)
    if args.extent:
        try:
            parts = [float(v) for v in args.extent.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--extent values must be numbers, got {args.extent!r}") from exc
        if len(parts) != 4:
            raise ConfigError("--extent expects 'x_min,x_max,y_min,y_max'")
        grid = GridSpec(*parts, cell=args.cell, z=args.z)
    else:
        grid = dataclasses.replace(default_grid(vc, cell=args.cell), z=args.z)
    result = coverage_map(campaign, grid)
    print(f"# coverage {len(result.x)}x{len(result.y)} cells at z={result.z:g}, "
          f"hash={vc.config_hash}")
    print(f"mean rate over map: {result.mean_rate.mean():.4f} bit/s/Hz "
          f"(best cell {result.mean_rate.max():.4f})")
    if args.out:
        export_coverage(result, args.out, vc.config_hash)
        print(f"wrote {args.out}")
    return 0


def _cmd_dump(args) -> int:
    vc = validate_config(_build_config(args))
    manifest = dump_channels(vc, args.out_dir, workers=args.workers)
    print(f"wrote {len(manifest['files'])} matrices for {manifest['realizations']} "
          f"realizations to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="Channel simulator for surface-assisted mmWave MIMO links")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario and print derived values")
    _add_scenario_args(p, workers=False)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="run a rate campaign over a sweep")
    _add_scenario_args(p)
    p.add_argument("--sweep", help="'pt' (default) or 'n=64,128,256' or 'ntnr=4,8,16'")
    p.add_argument("--out", help="write the statistics CSV here")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("coverage", help="map mean rate over receiver positions")
    _add_scenario_args(p)
    p.add_argument("--cell", type=float, default=1.0, help="cell size in meters")
    p.add_argument("--extent", help="grid extent 'x_min,x_max,y_min,y_max' "
                                    "(default: the environment footprint)")
    p.add_argument("--z", type=float, default=None, help="receiver height (default: config)")
    p.add_argument("--out", help="write the coverage CSV here")
    p.set_defaults(fn=_cmd_coverage)

    p = sub.add_parser("dump-channels", help="export raw channel matrices")
    _add_scenario_args(p)
    p.add_argument("--out-dir", required=True, help="output directory")
    p.set_defaults(fn=_cmd_dump)
    return parser


EXIT_BROKEN_PIPE = 141   # 128 + SIGPIPE: a Unix tool's status when its reader closes early


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()   # a closed reader shows here rather than at interpreter exit
        return status
    except BrokenPipeError:   # stop quietly, the flush at interpreter exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
