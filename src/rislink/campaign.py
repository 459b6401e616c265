"""Monte Carlo campaign driver: sweeps, coverage maps, exports.

Work units are dispatched to a process pool of at most one process per
unit and collected in submission order, so results are byte-identical for
any worker count.  A campaign's unit is a fixed block of consecutive
realizations at one sweep point; a coverage map's unit is a fixed block of
cells with all its realizations; a channel dump's unit is a fixed block of
realizations.  All randomness comes from substreams keyed by (seed,
realization, link), never from execution order or receiver position.
Every block runs through one driver, `_run_block`, on the chunks
`channel.realize_chunks` yields: the block's realizations run in groups
and each group in chunks, both sized by `block_sizes`; every link, the
receiver frames and the Tx-surface legs are drawn once per group, the
receiver-side legs placed and contracted per chunk.  So every rate takes
one path, `_block_singular_values`: a chunk's channels, then
`compute_phase_sets`, `composite_multi` and an SVD.  Processes rather than
threads: one unit is a burst of small numpy calls that never release the
interpreter lock long enough for threads to overlap; the pool's modules
are imported only when a job starts one.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import json
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import RealizationChannels, composite_multi, realize_block, realize_chunks
# no caller left here; the benchmark's tracer wraps this name (ROADMAP item 5)
from .channel import realize_channels  # noqa: F401
from .config import (SimConfig, ValidatedConfig, check_positions, is_count, is_real,
                     validate_config)
from .control import baseline_phases, pinv_phases, rate_from_singular_values, select_ris
from .errors import ConfigError, DimensionMismatch, EmptySweep
from .rng import LinkTag, block_rngs, spawn_rng

_SWEEP_AXES = ("pt", "n", "ntnr")


@dataclass(frozen=True)
class Campaign:
    """A validated scenario plus the sweep to run over it.  The config (and so
    its hash) alone sets the phase algorithm, phase bits, realization count
    and transmit powers: a pt sweep runs over its `pt_dbm` list."""

    config: ValidatedConfig
    sweep_axis: str = "pt"
    sweep_values: tuple = ()     # the n or ntnr values, distinct and whole; empty for pt
    workers: int = 1

    def __post_init__(self):
        if self.sweep_axis not in _SWEEP_AXES:
            raise ConfigError(f"sweep axis must be one of {_SWEEP_AXES}, got {self.sweep_axis!r}")
        if self.sweep_axis == "pt":
            if self.sweep_values:
                raise ConfigError("a pt sweep runs over the config's pt_dbm list; set pt_dbm "
                                  f"instead of sweep values {self.sweep_values}")
            return
        values = self.sweep_values
        if not values:
            raise EmptySweep(f"sweep over {self.sweep_axis!r} needs explicit values")
        if len(set(values)) != len(values) or not all(
                is_real(v) and float(v).is_integer() for v in values):
            raise ConfigError(f"sweep values must be distinct whole numbers, got {values}")
        object.__setattr__(self, "sweep_values", tuple(sorted(int(v) for v in values)))
        if len(self.config.config.pt_dbm) != 1:
            raise EmptySweep("a non-pt sweep needs a single transmit power")


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


# Most cells a coverage grid may hold, checked before any array is built.
MAX_GRID_CELLS = 1 << 20


@dataclass(frozen=True)
class GridSpec:
    """Rectangular cell grid for coverage maps, at a fixed receiver height."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    cell: float = 1.0
    z: float | None = None       # None = the config's receiver height

    def __post_init__(self):
        extent = (self.x_min, self.x_max, self.y_min, self.y_max)
        if not all(map(is_real, extent)) or not (
                self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigError("grid extent must be finite numbers with x_min < x_max and "
                              f"y_min < y_max, got {extent}")
        if not (is_real(self.cell) and self.cell > 0):
            raise ConfigError(f"grid cell must be a finite size > 0, got {self.cell!r}")
        if self.z is not None and not (is_real(self.z) and self.z >= 0):
            raise ConfigError(f"grid height must be finite and >= 0, got z={self.z!r}")
        nx, ny = self._counts()
        if not nx * ny <= MAX_GRID_CELLS:       # also rejects an infinite count
            raise ConfigError(f"a grid of {nx:g} x {ny:g} cells exceeds the maximum of "
                              f"{MAX_GRID_CELLS} cells; give a larger cell")

    def _counts(self) -> tuple[float, float]:   # floats: a tiny cell overflows to inf
        return (max(1.0, round((self.x_max - self.x_min) / self.cell, 0)),
                max(1.0, round((self.y_max - self.y_min) / self.cell, 0)))

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        nx, ny = (int(n) for n in self._counts())
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
    ris_index: np.ndarray        # (ny, nx) serving surface; -1 in a scene without any


def default_grid(vc: ValidatedConfig, cell: float = 1.0) -> GridSpec:
    """Grid over the environment's room footprint at the receiver's height."""
    footprint = vc.config.environment.footprint
    if footprint is None:
        raise ConfigError("environment has no room footprint; give an explicit grid extent")
    return GridSpec(0.0, footprint[0], 0.0, footprint[1], cell=cell,
                    z=vc.config.rx.position[2])


# Cells per coverage work unit and realizations per campaign or dump work
# unit (and at most per group or chunk).  Fixed, so the blocks (and the
# output bytes) do not depend on the worker count.  A coverage block's
# cells share each realization's receiver-free work (the draws, the
# Tx-surface leg); `channel.realize_chunks` draws every link and the
# Tx-surface legs once per group and yields the group's chunks, whose
# realizations share the placement, steering, pinv and SVD calls.  Memory
# is bounded by two budgets: `CHUNK_BUDGET` sizes every block's groups and
# chunks (`block_sizes`), `channel.PLACEMENT_BUDGET` the path chunks each
# leg is contracted in.
BLOCK_SIZE = 32

# Most matrix entries (16 bytes each) a chunk realizes on the receiver side
# (cells x Nr x N) and a group holds on the Tx side (N x Nt per surface).
# A chunk's arrays that grow with it (the surface-Rx legs, their
# phase-control products and cascades) are a few times this; 32768 lets
# the 24-cell, 4x4-by-64 benchmark map realize 4 realizations a chunk where
# 16384 allowed 2 and draw its 16 realizations as one group, and a campaign
# block with the same arrays run its 32 realizations as one chunk.
CHUNK_BUDGET = 32768

# Bytes of freed heap glibc keeps mapped (M_TRIM_THRESHOLD) and the largest
# request it serves from that heap (M_MMAP_THRESHOLD), 8 MiB: a few times a
# chunk's working set, so chunks stop page-faulting it back in.
TRIM_THRESHOLD = 16 * CHUNK_BUDGET * 16


@functools.cache
def _keep_freed_heap() -> bool:
    """Set glibc's trim and mmap thresholds once per process (a no-op off
    glibc); run by the first block, so importing and validating leave them
    alone.  The trim threshold alone froze the mmap threshold where it
    stood (mallopt(3)), and larger arrays were still mapped afresh."""
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # -1 = M_TRIM_THRESHOLD, -3 = M_MMAP_THRESHOLD
    return [mallopt(option, TRIM_THRESHOLD) for option in (-1, -3)] == [1, 1]


def serving_surface(vc: ValidatedConfig, positions: np.ndarray) -> np.ndarray:
    """Index of the surface serving each of a (K, 3) stack of receiver
    positions: the nearest one, or -1 in a scene without surfaces."""
    ris = vc.config.ris
    return select_ris(positions, ris) if ris else np.full(len(positions), -1)


def _realized_surfaces(vc: ValidatedConfig, selected: np.ndarray) -> dict:
    """The surfaces a block realizes, each with the cells its legs enter
    (None = all): with absent idle surfaces only the cells it serves, so a
    scene without surfaces (whose cells read surface -1) realizes none."""
    if vc.config.idle_ris == "absent":
        return {k: np.flatnonzero(selected == k) for k in sorted(set(selected.tolist()) - {-1})}
    return dict.fromkeys(range(len(vc.config.ris)))


def _phase_draws(vc: ValidatedConfig, realizations: range, k: int, kind: str,
                 bits: int | None = None) -> np.ndarray:
    """(B, N) baseline phases of surface k, each from its realization's own substream."""
    cfg = vc.config
    return np.stack([baseline_phases(kind, cfg.ris[k].count, rng, bits)
                     for rng in block_rngs(cfg.seed, realizations, LinkTag.PHASES, k)])


def _surface_phases(vc: ValidatedConfig, channels: RealizationChannels, k: int,
                    served: np.ndarray):
    """Phases of surface k over a block at the cells its receiver leg was
    placed at, with the block's realization and cell axes: the config's
    algorithm at the cells it serves (`served`), random idle phases at the
    others.  A pinv fallback draws from the failing leg's own realization's
    substream, spawned only when a fallback runs."""
    cfg = vc.config
    realizations, tx_ris = channels.realization, channels.tx_ris[k]
    idle = None if served.all() else np.repeat(
        _phase_draws(vc, realizations, k, "random")[:, None], len(served), axis=1)
    if not served.any():
        return idle
    ris_rx = channels.ris_rx[k] if idle is None else channels.ris_rx[k][:, served]
    # siso runs at Nt = Nr = 1 (validation), where pinv_phases takes its closed form
    if cfg.algorithm in ("pinv", "siso"):
        phases = pinv_phases(tx_ris, ris_rx, bits=cfg.phase_bits, fallback_rng=lambda i: spawn_rng(
            cfg.seed, realizations[i // ris_rx.shape[1]], LinkTag.PHASES, k))
    else:   # random | zero: validation admits no other algorithm
        phases = _phase_draws(vc, realizations, k, cfg.algorithm, cfg.phase_bits)[:, None]
    if idle is not None:
        idle[:, served] = phases
    return phases if idle is None else idle


def compute_phase_sets(vc: ValidatedConfig, channels: RealizationChannels,
                       selected: np.ndarray) -> list:
    """The phase rule: phases per surface, with the realization and cell axes
    of a block realized at K receiver positions (`realize_block`), position
    i served by surface `selected[i]`.  A surface takes the config's
    algorithm where it serves and random idle phases at the other cells its
    leg was placed at (`channels.cells`; absent idle surfaces are not placed
    there, see `_realized_surfaces`), and None if left out of the realization."""
    if channels.direct.ndim != 4:
        raise DimensionMismatch("phase sets need a block realized at a (K, 3) position stack")
    return [None if tx_ris is None else
            _surface_phases(vc, channels, k, selected[channels.cells.get(k, slice(None))] == k)
            for k, tx_ris in enumerate(channels.tx_ris)]


def _block_singular_values(vc: ValidatedConfig, channels: RealizationChannels,
                           selected: np.ndarray) -> np.ndarray:
    """(B, K, min(Nr, Nt)) singular values of a block of realizations realized
    at K receiver positions, position i served by surface `selected[i]`,
    each surface's legs placed only where they enter (`_realized_surfaces`)."""
    composite = composite_multi(channels, compute_phase_sets(vc, channels, selected))
    return np.linalg.svd(composite, compute_uv=False)


def composite_singular_values(vc: ValidatedConfig, realization: int) -> np.ndarray:
    """Singular values of the end-to-end channel of one realization at the
    config's receiver position, the realization's index in [0, 2**32) (see
    `realize_block`)."""
    rx_pos = np.asarray(vc.config.rx.position, float)[None]
    selected = serving_surface(vc, rx_pos)
    channels = realize_block(vc, range(realization, realization + 1),
                             _realized_surfaces(vc, selected), rx_pos)
    return _block_singular_values(vc, channels, selected)[0, 0]


def _parallel_map(fn, payloads: list, workers: int) -> list:
    """Apply a module-level function over payloads, preserving order, in
    at most one process per payload."""
    if not (is_count(workers) and workers >= 1):   # the count rule of config keys
        raise ConfigError(f"workers must be a whole number >= 1, got {workers!r}")
    workers = min(workers, len(payloads))
    if workers <= 1:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (workers * 8))
    with _process_pool(workers) as pool:
        return list(pool.map(fn, payloads, chunksize=chunk))


def _process_pool(workers: int):
    """A process pool of `workers` processes.  Its module (and with it
    `multiprocessing`) is imported only here, so that importing rislink, or
    a job at one worker, does not load it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _statistics(sweep_axis: str, values, rates: np.ndarray) -> RateStatistics:
    count = rates.shape[1]
    p5, p95 = np.percentile(rates, [5.0, 95.0], axis=1)
    return RateStatistics(
        sweep_axis=sweep_axis,
        sweep_values=tuple(values),
        mean=rates.mean(axis=1),
        std=rates.std(axis=1, ddof=1) if count > 1 else np.zeros(rates.shape[0]),
        p5=p5,
        p95=p95,
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


def block_sizes(vc: ValidatedConfig, cells: int) -> tuple[int, int]:
    """The most realizations a block at `cells` receiver positions draws as
    one group and realizes as one chunk, each at most `BLOCK_SIZE`.

    A chunk's receiver-side matrices (cells x Nr x N for the largest
    surface, or Nt without surfaces) hold at most `CHUNK_BUDGET` entries, a
    group's Tx-side ones (N x Nt summed over the surfaces) too; a group
    holds at least one chunk, so arrays too large for the budget run one
    realization a group.
    """
    cfg = vc.config
    rx_entries = cells * cfg.rx.count * max((r.count for r in cfg.ris), default=cfg.tx.count)
    tx_entries = cfg.tx.count * sum(r.count for r in cfg.ris)
    chunk = min(BLOCK_SIZE, max(1, CHUNK_BUDGET // rx_entries))
    group = min(BLOCK_SIZE, CHUNK_BUDGET // max(1, tx_entries))
    return max(chunk, group), chunk


def _run_block(args):
    """Run one work unit, a block of realizations, on the chunks
    `channel.realize_chunks` yields in the groups and chunks `block_sizes`
    gives, each chunk bit for bit its part of the whole block.

    Jobs "rates" and "means" rate the block at a (K, 3) stack of receiver
    positions, position i served by surface `selected[i]`, releasing each
    chunk's channels before the next is realized: "rates" returns the
    (len(pt_watts), B, K) rates, "means" each position's mean rate at the
    first power, summed in realization order.  Job "channels" (`positions`
    None) returns each chunk's channels, without `clusters`, every surface
    realized at the config's receiver position.
    """
    _keep_freed_heap()
    job, vc, realizations, positions, selected, pt_watts = args
    sizes = block_sizes(vc, 1 if positions is None else len(positions))
    surfaces = None if positions is None else _realized_surfaces(vc, selected)

    def keep(channels: RealizationChannels):
        return channels if job == "channels" else rate_from_singular_values(
            _block_singular_values(vc, channels, selected), pt_watts, vc.noise_watts)

    # map, not a comprehension: its loop name would keep each chunk alive into the next
    chunks = list(map(keep, realize_chunks(vc, realizations, surfaces, positions, sizes)))
    if job == "channels":
        return chunks
    rates = np.concatenate(chunks, axis=1)
    # the builtin sum adds one realization's rates after another, in order
    return rates if job == "rates" else sum(rates[0]) / len(realizations)


def run_campaign(campaign: Campaign) -> RateStatistics:
    """Run the Monte Carlo sweep and aggregate rate statistics per point.

    The channel draws do not depend on the transmit power, so a pt sweep
    reuses each realization's channels across all power points; the other
    axes revalidate a per-point scenario but share the same substreams,
    keeping realizations paired across sweep points.  Realizations are
    evaluated in fixed blocks of `BLOCK_SIZE`, each a stack at the one
    receiver position, whose serving surface is chosen once, run in groups
    and chunks like every block (`_run_block`).
    """
    vc = campaign.config
    cfg = vc.config
    realizations = cfg.realizations
    position = np.asarray(cfg.rx.position, float)[None]
    selected = serving_surface(vc, position)

    if campaign.sweep_axis == "pt":
        values = tuple(sorted(cfg.pt_dbm))
        points = [(vc, np.asarray(sorted(vc.pt_watts)))]
    else:
        values = campaign.sweep_values
        point_configs = [validate_config(_config_for_point(cfg, campaign.sweep_axis, v))
                         for v in values]
        points = [(vc_point, np.asarray(vc_point.pt_watts[:1])) for vc_point in point_configs]
    payloads = [("rates", vc_point, range(i, min(i + BLOCK_SIZE, realizations)), position,
                 selected, pt_watts)
                for vc_point, pt_watts in points for i in range(0, realizations, BLOCK_SIZE)]
    blocks = _parallel_map(_run_block, payloads, campaign.workers)
    rates = np.concatenate(blocks, axis=1).reshape(len(values), realizations)
    return _statistics(campaign.sweep_axis, values, rates)


def coverage_map(campaign: Campaign, grid: GridSpec | None = None) -> CoverageGrid:
    """Mean rate per grid cell with the receiver moved cell by cell.

    A map runs at the config's one transmit power and its own array sizes:
    a campaign with a sweep, or a config listing several powers, is a
    ConfigError.  Realization substreams do not depend on the receiver
    position, so all cells see the same environment draws per realization
    and maps from scenes sharing a seed are paired cell by cell.  The cell
    centres are checked first (`config.check_positions`).  Cells are
    evaluated in fixed blocks of `BLOCK_SIZE` (row-major order) that share
    each realization's draws, run in groups and chunks like every block
    (`_run_block`); the serving surface of each cell is chosen once.
    """
    vc = campaign.config
    cfg = vc.config
    if campaign.sweep_axis != "pt" or len(cfg.pt_dbm) != 1:
        raise ConfigError("a coverage map runs at the config's values and one transmit power, "
                          f"got a {campaign.sweep_axis} sweep at pt_dbm {cfg.pt_dbm}")
    if grid is None:
        grid = default_grid(vc)
    x, y = grid.centers()
    z = cfg.rx.position[2] if grid.z is None else grid.z
    xs, ys = np.meshgrid(x, y)                   # (ny, nx): cells in row-major order
    positions = np.stack([xs.ravel(), ys.ravel(), np.full(xs.size, float(z))], axis=-1)
    check_positions(cfg, vc.wavelength, positions)
    selected = serving_surface(vc, positions)
    payloads = [("means", vc, range(cfg.realizations), positions[i:i + BLOCK_SIZE],
                 selected[i:i + BLOCK_SIZE], np.asarray(vc.pt_watts))
                for i in range(0, len(positions), BLOCK_SIZE)]
    means = _parallel_map(_run_block, payloads, campaign.workers)
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
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header or []))
    columns = {name: data[:, i] for i, name in enumerate(header or [])}
    return config_hash, columns


def dump_channels(vc: ValidatedConfig, out_dir, workers: int = 1) -> dict:
    """Write per-realization channel matrices and a manifest.

    Each matrix goes to its own binary file as row-major complex128
    (interleaved real/imag float64).  The manifest records dimensions,
    seed, and the config hash so dumps are self-describing.  The config's
    realizations are drawn in fixed blocks of `BLOCK_SIZE`, run in groups
    and chunks like every block (`_run_block`), each chunk's channels kept
    in realization order.
    """
    cfg = vc.config
    count = cfg.realizations
    payloads = [("channels", vc, range(i, min(i + BLOCK_SIZE, count)), None, None, None)
                for i in range(0, count, BLOCK_SIZE)]
    blocks = _parallel_map(_run_block, payloads, workers)
    out = Path(out_dir)   # made only once the blocks are realized: a failed run makes none
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for block in (chunk for chunks in blocks for chunk in chunks):
        for i, r in enumerate(block.realization):
            parts = [(f"r{r:05d}_txris{k}.bin", m[i, 0], {"matrix": "tx_ris", "ris": k})
                     for k, m in enumerate(block.tx_ris)]
            parts += [(f"r{r:05d}_risrx{k}.bin", m[i, 0], {"matrix": "ris_rx", "ris": k})
                      for k, m in enumerate(block.ris_rx)]
            parts.append((f"r{r:05d}_direct.bin", block.direct[i, 0], {"matrix": "direct"}))
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
