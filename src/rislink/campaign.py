"""Monte Carlo campaign driver: sweeps, coverage maps, exports.

Work units are dispatched to a process pool and collected in submission
order, so results are byte-identical for any worker count.  A campaign's
unit is one realization; a coverage map's unit is a fixed block of cells
with all its realizations.  All randomness comes from per-unit substreams
keyed by (seed, realization, link), never from execution order or receiver
position, so a coverage block draws each realization once and places the
receiver-side legs for all of its cells together.  Processes rather than
threads: one unit is a burst of small numpy calls that never release the
interpreter lock long enough for threads to overlap.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import (RealizationChannels, composite_multi, realize_channels,
                      surface_cascade)
from .config import SimConfig, ValidatedConfig, validate_config
from .control import (PhaseAlgorithm, baseline_phases, pinv_phases,
                      rate_from_singular_values, select_ris, siso_optimal_phases)
from .errors import ConfigError, DimensionMismatch, EmptySweep
from .rng import LinkTag, spawn_rng

_SWEEP_AXES = ("pt", "n", "ntnr")


@dataclass(frozen=True)
class Campaign:
    """A validated scenario plus the sweep to run over it."""

    config: ValidatedConfig
    sweep_axis: str = "pt"
    sweep_values: tuple = ()     # ignored for the pt axis (taken from the config)
    algorithm: PhaseAlgorithm | None = None  # None = the config's algorithm
    workers: int = 1

    def __post_init__(self):
        if self.sweep_axis not in _SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {_SWEEP_AXES}, got {self.sweep_axis!r}")
        if self.sweep_axis == "pt":
            object.__setattr__(self, "sweep_values",
                               tuple(sorted(self.config.config.pt_dbm)))
        else:
            if not self.sweep_values:
                raise EmptySweep(f"sweep over {self.sweep_axis!r} needs explicit values")
            object.__setattr__(self, "sweep_values", tuple(sorted(self.sweep_values)))
            if len(self.config.config.pt_dbm) != 1:
                raise EmptySweep("a non-pt sweep needs a single transmit power")

    def resolved_algorithm(self) -> PhaseAlgorithm:
        if self.algorithm is not None:
            return self.algorithm
        cfg = self.config.config
        return PhaseAlgorithm(cfg.algorithm, cfg.phase_bits)


@dataclass(frozen=True)
class RateStatistics:
    """Aggregated rates per sweep point; `rates` keeps the raw paired samples."""

    sweep_axis: str
    sweep_values: tuple
    mean: np.ndarray
    std: np.ndarray
    p5: np.ndarray
    p95: np.ndarray
    count: int
    rates: np.ndarray            # (n_points, realizations)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular cell grid for coverage maps, at a fixed receiver height."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    cell: float = 1.0
    z: float | None = None       # None = the config's receiver height

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        nx = max(1, int(round((self.x_max - self.x_min) / self.cell)))
        ny = max(1, int(round((self.y_max - self.y_min) / self.cell)))
        x = self.x_min + (np.arange(nx) + 0.5) * self.cell
        y = self.y_min + (np.arange(ny) + 0.5) * self.cell
        return x, y


@dataclass(frozen=True)
class CoverageGrid:
    """Per-cell mean rate and selected surface over a receiver-position grid."""

    x: np.ndarray                # (nx,) cell center abscissae
    y: np.ndarray                # (ny,)
    z: float
    mean_rate: np.ndarray        # (ny, nx)
    ris_index: np.ndarray        # (ny, nx) int


def default_grid(vc: ValidatedConfig, cell: float = 1.0) -> GridSpec:
    """Grid over the environment's room footprint at the receiver's height."""
    footprint = vc.config.environment.footprint
    if footprint is None:
        raise ConfigError("environment has no room footprint; give an explicit grid extent")
    return GridSpec(0.0, footprint[0], 0.0, footprint[1], cell=cell,
                    z=vc.config.rx.position[2])


# Cells per coverage work unit.  Fixed, so a map's blocks (and its bytes) do
# not depend on the worker count.  Each realization's receiver-free work
# (Tx-side leg, its pinv, the variate draws) is shared by a block's cells;
# the placement memory is bounded separately (channel.PLACEMENT_BUDGET).
COVERAGE_BLOCK = 32


def serving_surface(vc: ValidatedConfig, rx_position) -> int:
    """Index of the surface a receiver position is served by."""
    ris = vc.config.ris
    return select_ris(rx_position, ris) if len(ris) > 1 else 0


def _realized_surfaces(vc: ValidatedConfig, selected: np.ndarray) -> dict:
    """Surface -> cells whose rates its legs enter (None = all cells).

    With absent idle surfaces a surface enters only the cells it serves.
    """
    if vc.config.idle_ris == "absent":
        return {k: np.flatnonzero(selected == k) for k in sorted(set(selected.tolist()))}
    return dict.fromkeys(range(len(vc.config.ris)))


def _idle_phases(vc: ValidatedConfig, realization: int, k: int):
    """Phases of a surface that does not serve the receiver (None = absent)."""
    cfg = vc.config
    if cfg.idle_ris == "random":
        return baseline_phases("random", cfg.ris[k].count,
                               spawn_rng(cfg.seed, realization, LinkTag.PHASES, k))
    return None


def _serving_phases(vc: ValidatedConfig, algorithm: PhaseAlgorithm, realization: int,
                    k: int, tx_ris: np.ndarray, ris_rx: np.ndarray) -> np.ndarray:
    """The campaign algorithm's phases for serving surface k.

    `ris_rx` may be a (K, Nr, N) stack of receiver positions; the phases are
    then (K, N), or (N,) when they do not depend on the receiver.
    """
    cfg = vc.config
    if algorithm.kind == "pinv":
        return pinv_phases(tx_ris, ris_rx, bits=algorithm.bits,
                           fallback_rng=spawn_rng(cfg.seed, realization, LinkTag.PHASES, k))
    if algorithm.kind == "siso":
        if cfg.tx.count != 1 or cfg.rx.count != 1:
            raise DimensionMismatch("the siso algorithm requires Nt = Nr = 1")
        return siso_optimal_phases(tx_ris[:, 0], ris_rx[..., 0, :], bits=algorithm.bits)
    if algorithm.kind in ("random", "zero"):
        return baseline_phases(algorithm.kind, tx_ris.shape[0],
                               spawn_rng(cfg.seed, realization, LinkTag.PHASES, k),
                               bits=algorithm.bits)
    raise ConfigError(f"unknown phase algorithm {algorithm.kind!r}")


def compute_phase_sets(vc: ValidatedConfig, channels: RealizationChannels,
                       algorithm: PhaseAlgorithm, realization: int,
                       rx_position=None) -> list:
    """Phases per surface: the one nearest the receiver is controlled by the
    campaign algorithm, the others follow the idle-surface policy."""
    rx_pos = vc.config.rx.position if rx_position is None else rx_position
    selected = serving_surface(vc, rx_pos)
    return [_serving_phases(vc, algorithm, realization, k, tx_ris, ris_rx) if k == selected
            else _idle_phases(vc, realization, k)
            for k, (tx_ris, ris_rx) in enumerate(zip(channels.tx_ris, channels.ris_rx))]


def composite_singular_values(vc: ValidatedConfig, realization: int,
                              algorithm: PhaseAlgorithm,
                              rx_position=None) -> np.ndarray:
    """Singular values of the end-to-end channel of one realization."""
    rx_pos = vc.config.rx.position if rx_position is None else rx_position
    surfaces = None if vc.config.idle_ris == "random" else (serving_surface(vc, rx_pos),)
    channels = realize_channels(vc, realization, rx_position=rx_position, surfaces=surfaces)
    phases = compute_phase_sets(vc, channels, algorithm, realization, rx_position)
    composite = composite_multi(channels, phases)
    return np.linalg.svd(composite, compute_uv=False)


def _parallel_map(fn, payloads: list, workers: int) -> list:
    """Apply a module-level function over payloads, preserving order."""
    if workers <= 1 or len(payloads) <= 1:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


def _statistics(sweep_axis: str, values, rates: np.ndarray) -> RateStatistics:
    count = rates.shape[1]
    return RateStatistics(
        sweep_axis=sweep_axis,
        sweep_values=tuple(values),
        mean=rates.mean(axis=1),
        std=rates.std(axis=1, ddof=1) if count > 1 else np.zeros(rates.shape[0]),
        p5=np.percentile(rates, 5.0, axis=1),
        p95=np.percentile(rates, 95.0, axis=1),
        count=count,
        rates=rates,
    )


def _config_for_point(cfg: SimConfig, axis: str, value) -> SimConfig:
    if axis == "n":
        ris = tuple(dataclasses.replace(r, count=int(value), shape=None) for r in cfg.ris)
        return dataclasses.replace(cfg, ris=ris)
    if axis == "ntnr":
        return dataclasses.replace(
            cfg,
            tx=dataclasses.replace(cfg.tx, count=int(value)),
            rx=dataclasses.replace(cfg.rx, count=int(value)))
    raise ConfigError(f"no per-point config for axis {axis!r}")


def _rates_over_powers(args) -> np.ndarray:
    vc, algorithm, r, pt_watts = args
    s = composite_singular_values(vc, r, algorithm)
    return rate_from_singular_values(s, pt_watts, vc.noise_watts)


def _block_mean_rates(args) -> np.ndarray:
    """Mean rate of each cell of one coverage block.

    Each realization is drawn once for the whole block: the receiver-free
    legs (and the pseudoinverse of the Tx-side leg) once, the receiver-side
    legs placed for every cell as stacks, each surface's only at the cells
    it enters.  Rates are summed per cell in realization order.
    """
    vc, algorithm, positions, selected, realizations, pt = args
    surfaces = _realized_surfaces(vc, selected)
    totals = np.zeros(len(positions))
    for r in range(realizations):
        channels = realize_channels(vc, r, rx_position=positions, surfaces=surfaces)
        composite = channels.direct.copy()
        for k, cells in surfaces.items():
            tx_ris, ris_rx = channels.tx_ris[k], channels.ris_rx[k]
            phases = _serving_phases(vc, algorithm, r, k, tx_ris, ris_rx)
            if cells is None:   # every cell, served or idle
                served = selected == k
                if not served.all():
                    phases = np.where(served[:, None], phases, _idle_phases(vc, r, k))
                composite += surface_cascade(tx_ris, ris_rx, phases)
            else:
                composite[cells] += surface_cascade(tx_ris, ris_rx, phases)
        s = np.linalg.svd(composite, compute_uv=False)
        totals += rate_from_singular_values(s, pt, vc.noise_watts)
    return totals / realizations


def _realize_for_dump(args) -> RealizationChannels:
    vc, r = args
    return realize_channels(vc, r)


def run_campaign(campaign: Campaign) -> RateStatistics:
    """Run the Monte Carlo sweep and aggregate rate statistics per point.

    The channel draws do not depend on the transmit power, so a pt sweep
    reuses each realization's channels across all power points; the other
    axes revalidate a per-point scenario but share the same substreams,
    keeping realizations paired across sweep points.
    """
    vc = campaign.config
    cfg = vc.config
    algorithm = campaign.resolved_algorithm()
    realizations = cfg.realizations

    if campaign.sweep_axis == "pt":
        pt_watts = np.asarray(sorted(vc.pt_watts))
        rows = _parallel_map(_rates_over_powers,
                             [(vc, algorithm, r, pt_watts) for r in range(realizations)],
                             campaign.workers)
        rates = np.asarray(rows).T
        return _statistics("pt", campaign.sweep_values, rates)

    point_configs = [validate_config(_config_for_point(cfg, campaign.sweep_axis, v))
                     for v in campaign.sweep_values]
    payloads = [(vc_point, algorithm, r, np.asarray([vc_point.pt_watts[0]]))
                for vc_point in point_configs for r in range(realizations)]
    flat = _parallel_map(_rates_over_powers, payloads, campaign.workers)
    rates = np.asarray(flat).reshape(len(point_configs), realizations)
    return _statistics(campaign.sweep_axis, campaign.sweep_values, rates)


def coverage_map(campaign: Campaign, grid: GridSpec | None = None) -> CoverageGrid:
    """Mean rate per grid cell with the receiver moved cell by cell.

    Realization substreams do not depend on the receiver position, so all
    cells see the same environment draws per realization and maps from
    scenes sharing a seed are paired cell by cell.  Cells are evaluated in
    fixed blocks of `COVERAGE_BLOCK` (row-major order) that share each
    realization's draws; the serving surface of each cell is chosen once.
    """
    vc = campaign.config
    cfg = vc.config
    if grid is None:
        grid = default_grid(vc)
    algorithm = campaign.resolved_algorithm()
    x, y = grid.centers()
    z = cfg.rx.position[2] if grid.z is None else grid.z
    positions = np.array([(x[ix], y[iy], z) for iy in range(len(y)) for ix in range(len(x))],
                         dtype=float)
    selected = np.array([serving_surface(vc, pos) for pos in positions], dtype=int)
    payloads = [(vc, algorithm, positions[i:i + COVERAGE_BLOCK],
                 selected[i:i + COVERAGE_BLOCK], cfg.realizations, vc.pt_watts[0])
                for i in range(0, len(positions), COVERAGE_BLOCK)]
    means = _parallel_map(_block_mean_rates, payloads, campaign.workers)
    mean_rate = np.concatenate(means).reshape(len(y), len(x))
    return CoverageGrid(x=x, y=y, z=float(z), mean_rate=mean_rate,
                        ris_index=selected.reshape(len(y), len(x)))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_statistics(stats: RateStatistics, path, config_hash: str) -> None:
    """Statistics CSV: one row per sweep point, config hash in the header."""
    lines = [f"# config_hash={config_hash}",
             "sweep_value,mean_rate,std,p5,p95,n"]
    for i, value in enumerate(stats.sweep_values):
        lines.append(f"{value:.17g},{stats.mean[i]:.17g},{stats.std[i]:.17g},"
                     f"{stats.p5[i]:.17g},{stats.p95[i]:.17g},{stats.count}")
    _write_lines(path, lines)


def export_coverage(grid: CoverageGrid, path, config_hash: str) -> None:
    """Coverage CSV: one row per cell (x, y, mean_rate, ris_index)."""
    lines = [f"# config_hash={config_hash}", "x,y,mean_rate,ris_index"]
    for iy in range(len(grid.y)):
        for ix in range(len(grid.x)):
            lines.append(f"{grid.x[ix]:.17g},{grid.y[iy]:.17g},"
                         f"{grid.mean_rate[iy, ix]:.17g},{grid.ris_index[iy, ix]}")
    _write_lines(path, lines)


def read_csv_table(path) -> tuple[str, dict[str, np.ndarray]]:
    """Parse back a CSV written by the exporters (round-trip checks, plotting)."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    config_hash = ""
    rows = []
    header = None
    for line in text:
        if line.startswith("#"):
            if "config_hash=" in line:
                config_hash = line.split("config_hash=", 1)[1].strip()
            continue
        if header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows)
    columns = {name: data[:, i] for i, name in enumerate(header or [])}
    return config_hash, columns


def dump_channels(vc: ValidatedConfig, out_dir, realizations: int | None = None,
                  workers: int = 1) -> dict:
    """Write per-realization channel matrices and a manifest.

    Each matrix goes to its own binary file as row-major complex128
    (interleaved real/imag float64).  The manifest records dimensions,
    seed, and the config hash so dumps are self-describing.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = vc.config
    count = cfg.realizations if realizations is None else realizations

    results = _parallel_map(_realize_for_dump, [(vc, r) for r in range(count)], workers)

    files = []
    for r, channels in enumerate(results):
        parts = [(f"r{r:05d}_txris{k}.bin", m, {"matrix": "tx_ris", "ris": k})
                 for k, m in enumerate(channels.tx_ris)]
        parts += [(f"r{r:05d}_risrx{k}.bin", m, {"matrix": "ris_rx", "ris": k})
                  for k, m in enumerate(channels.ris_rx)]
        parts.append((f"r{r:05d}_direct.bin", channels.direct, {"matrix": "direct"}))
        for name, matrix, info in parts:
            np.ascontiguousarray(matrix, dtype=np.complex128).tofile(out / name)
            files.append({"path": name, "realization": r,
                          "shape": list(matrix.shape), **info})

    manifest = {
        "config_hash": vc.config_hash,
        "seed": cfg.seed,
        "frequency_hz": cfg.frequency_hz,
        "nt": cfg.tx.count,
        "nr": cfg.rx.count,
        "n_elements": [r.count for r in cfg.ris],
        "realizations": count,
        "dtype": "complex128 row-major (interleaved float64 re/im)",
        "files": files,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True),
                                       encoding="utf-8")
    return manifest


def load_channel_dump(out_dir) -> tuple[dict, dict]:
    """Read a dump directory back into {(realization, matrix, ris): array}."""
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    arrays = {}
    for entry in manifest["files"]:
        data = np.fromfile(out / entry["path"], dtype=np.complex128)
        key = (entry["realization"], entry["matrix"], entry.get("ris"))
        arrays[key] = data.reshape(entry["shape"])
    return manifest, arrays
