"""Channel matrix assembly from geometry and cluster draws.

The three matrices of a scene are built from the same primitive: a sum of
outer products of array responses over scattered paths, plus an optional
LOS rank-one term.  The surface's element radiation pattern multiplies the
surface-side leg of each path; transmitter and receiver elements are
isotropic.  Paths leaving behind a surface's aperture get zero gain rather
than raising an error.

One engine draws every matrix (`realize_block`): a block of realizations
towards one receiver position or a stack of them.  Each realization reads
its own substreams, once per link; the block's paths are then placed at
their far ends and summed together, a LOS term as one more path.  The sum
never forms an array response: each path's per-axis grid factors
(`geometry.grid_factors`) are contracted in two small groups, so an 8x8
surface leg costs 8 + 32 factor entries per path instead of 64 + 4.
"""

from __future__ import annotations

import bisect
import copy
import dataclasses
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ValidatedConfig, check_positions
from .errors import DimensionMismatch
from .geometry import (azimuth_rotation_frame, element_gain_from_cos, grid_factors,
                       local_directions)
# no caller left here; the benchmark's tracer wraps this name (ROADMAP item 5)
from .geometry import steering_matrix  # noqa: F401
from .propagation import (ClusterSet, LinkState, draw_cluster_variates, draw_los_variates,
                          los_probability, place_clusters, shadowed_attenuation,
                          stack_cluster_variates)
# no caller left here; the benchmark's tracer wraps these names (ROADMAP item 5)
from .propagation import draw_clusters, draw_link_state  # noqa: F401
from .rng import LinkTag, block_rngs
from .rng import spawn_rng  # noqa: F401  (wrapped by the benchmark's tracer, ROADMAP item 5)


@dataclass(frozen=True)
class DeviceView:
    """One terminal or surface as the assembler sees it."""

    position: np.ndarray
    frame: np.ndarray
    vert: np.ndarray    # (rows,) local vertical coordinate of each element row, times 2*pi/lambda
    horiz: np.ndarray   # (cols,) local horizontal coordinate of each column, times 2*pi/lambda
    gain_exponent: float | None = None  # None = isotropic elements

    @property
    def count(self) -> int:
        return self.vert.size * self.horiz.size


@dataclass(frozen=True)
class Scene:
    """All device views of one realization, sharing one wavelength."""

    wavelength: float
    tx: DeviceView
    rx: DeviceView
    ris: tuple[DeviceView, ...]


def build_scene(vc: ValidatedConfig, rx_position=None) -> Scene:
    """Device views of the config's scene; `rx_position` overrides the receiver's."""
    cfg = vc.config
    lam = vc.wavelength
    k = 2.0 * np.pi / lam

    def view(spec, position, frame, gain_exponent=None) -> DeviceView:
        vert, horiz = spec.grid_axes(lam)
        return DeviceView(np.asarray(position, float), frame, k * vert, k * horiz,
                          gain_exponent)

    tx = view(cfg.tx, cfg.tx.position, cfg.tx.frame)
    rx = view(cfg.rx, cfg.rx.position if rx_position is None else rx_position, cfg.rx.frame)
    ris = tuple(view(r, r.position, r.frame, r.gain_exponent) for r in cfg.ris)
    return Scene(lam, tx, rx, ris)


def _gain(device: DeviceView, u: np.ndarray):
    """Element-pattern gain of each local direction `u` at `device` (1 if isotropic)."""
    return 1.0 if device.gain_exponent is None else element_gain_from_cos(
        u[..., 0], device.gain_exponent)


# A leg's paths are contracted in chunks of at most this many (factor
# entry, path) pairs, counting the prefix + suffix factor entries of each
# path: 16-24 bytes each, whatever the number of positions or
# realizations.  How many realizations a coverage block realizes at once
# is its own budget (`campaign.COVERAGE_CHUNK_BUDGET`).
PLACEMENT_BUDGET = 16384


class _Leg(NamedTuple):
    """One link drawn for a block of realizations towards K far points: one
    *path set* per (realization, far point), in that (row-major) order."""

    realization: np.ndarray      # (S,) block index of each path set
    cell: np.ndarray             # (S,) its far point
    los: np.ndarray              # (S,) bool
    los_attenuation: np.ndarray  # (L,) per LOS set, in order
    los_phase: np.ndarray        # (L,)
    clusters: ClusterSet         # every set's paths, placed, concatenated in order; its
                                 # sizes are the drawn groups' (`place_clusters`' paths)
    bounds: np.ndarray           # (S + 1,) offsets of each set's paths


def _draw_leg(vc: ValidatedConfig, rngs: list, near: DeviceView, far: np.ndarray,
              force_los: bool | None, geometry_from: _Leg | None = None) -> _Leg:
    """The link from device `near` to each far point (K, 3), one substream per realization.

    The LOS coin splits a realization's far points into an NLOS and a LOS
    group, each reading its own variates: the NLOS group reads on from the
    coin (from a copy of the stream when both groups exist), the LOS group
    after the LOS variates.  Each far point so sees exactly the draws it
    would see alone.  `geometry_from`, a leg to one far point, lends each
    realization its cluster geometry.
    """
    cfg = vc.config
    env, f_hz = cfg.environment, cfg.frequency_hz
    d = np.linalg.norm(far - near.position, axis=-1)
    p_los = None if force_los is not None else np.array([los_probability(x, env) for x in d])
    shared = ([None] * len(rngs) if geometry_from is None
              else np.diff(geometry_from.bounds).tolist())
    everywhere = np.full(len(d), bool(force_los))   # the forced coin's outcome
    coins, first, mixed, los_draws, variates = [], [], [], [], []   # variates per group
    for i, rng in enumerate(rngs):
        los = everywhere if p_los is None else rng.uniform() < p_los
        split = p_los is not None and los.any() and not los.all()
        coins.append(los)
        first.append(len(los_draws))
        mixed.append(split)
        for branch in (False, True) if split else (bool(los[0]),):
            # the NLOS group reads on from the coin, ahead of the LOS draws
            stream = copy.deepcopy(rng) if split and not branch else rng
            los_draws.append(draw_los_variates(stream) if branch else (0.0, 0.0))
            if cfg.scatter_paths:
                variates.append(draw_cluster_variates(env, stream, shared[i]))

    los = np.concatenate(coins)
    group = np.repeat(first, len(d)) + (los & np.repeat(mixed, len(d)))
    realization = np.repeat(np.arange(len(rngs)), len(d))
    cell = np.tile(np.arange(len(d)), len(rngs))
    shadow, phase = np.array(los_draws, dtype=float)[group[los]].T
    attenuation = shadowed_attenuation(d[cell[los]], f_hz, env, True, shadow)
    if variates:
        drawn = np.array([len(v.gains) for v in variates])
        per_set = drawn[group]
        # each set's paths are its group's draws, placed at its own far point
        paths = _ranges(np.cumsum(drawn)[group] - per_set, per_set)
        geometry = None
        if geometry_from is not None:   # each set takes its realization's positions
            source, b = geometry_from.clusters, geometry_from.bounds
            geometry = dataclasses.replace(
                source, positions=source.positions[_ranges(b[realization], per_set)])
        clusters = place_clusters(stack_cluster_variates(variates), near.position,
                                  far[np.repeat(cell, per_set)], env, f_hz, near.frame,
                                  geometry, paths)
    else:
        clusters, per_set = ClusterSet.empty(), np.zeros(len(cell), dtype=int)
    return _Leg(realization, cell, los, attenuation, phase, clusters,
                np.concatenate([[0], np.cumsum(per_set)]))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length) of each pair, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def _path_terms(row: DeviceView, col: DeviceView, leg: _Leg,
                row_frames: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every path of a leg's sets in order, a LOS set's LOS term after its
    scattered paths: its local direction at the row and at the column
    device, and its weight (see `_leg_matrices`).  The per-path arrays
    built on the way are released on return, before the contraction."""
    clusters, scattered, los = leg.clusters, np.diff(leg.bounds), leg.los
    at = row.position[leg.cell]   # each set's row end
    los_at = leg.bounds[1:][los]
    owner = np.repeat(np.arange(len(los)), scattered + los)   # set of each path
    u_row, _ = local_directions(at[owner], np.insert(clusters.positions, los_at, col.position, 0),
                                row.frame if row_frames is None else row_frames,
                                None if row_frames is None else leg.realization[owner])
    u_col, _ = local_directions(col.position, np.insert(clusters.positions, los_at, at[los], 0),
                                col.frame)
    # normalization keeps total scattered power independent of the path count
    amplitude = np.insert(clusters.gains / np.sqrt(np.repeat(scattered, scattered)), los_at,
                          np.exp(1j * leg.los_phase))
    power = np.insert(clusters.attenuations, los_at, leg.los_attenuation)
    return u_row, u_col, amplitude * np.sqrt(_gain(row, u_row) * _gain(col, u_col) * power)


def _leg_matrices(row: DeviceView, col: DeviceView, leg: _Leg,
                  row_frames: np.ndarray | None = None) -> np.ndarray:
    """The (B, K, row.count, col.count) matrices of a leg drawn from `col` to
    the K positions `row.position`: each set sums w * a_row * a_col^T over
    its paths, w weighted by both devices' element patterns and by
    1/sqrt(P) for its P scattered paths, plus its LOS term as one more path.

    Directions are evaluated from each device in its own frame, the row
    device's per realization with `row_frames` (B, 3, 3).  No response is
    formed: the four grid factors of a path (row device's vertical and
    horizontal, then the column device's), the weight folded into the
    first, are split where prefix size + suffix size is least (8 | 32 for
    an 8x8 surface and a 2x2 array), each side's factors are outer-multiplied
    per path, and every set is one (prefix, P) @ (P, suffix) product.  Sets
    with equal path counts run as one stacked product, a lone set too, so a
    set's matrix does not depend on the run or chunk it lands in.  Chunks
    hold at most `PLACEMENT_BUDGET` (prefix + suffix) x path entries.
    """
    u_row, u_col, weights = _path_terms(row, col, leg, row_frames)
    counts = (np.diff(leg.bounds) + leg.los).tolist()

    dims = (row.vert.size, row.horiz.size, col.vert.size, col.horiz.size)
    split = min(range(1, 4), key=lambda k: math.prod(dims[:k]) + math.prod(dims[k:]))
    prefix, suffix = math.prod(dims[:split]), math.prod(dims[split:])
    matrix = np.zeros((len(counts), prefix, suffix), dtype=complex)
    bounds = np.cumsum([0] + counts).tolist()
    per_chunk = max(1, PLACEMENT_BUDGET // (prefix + suffix))
    start = 0
    while start < len(counts):
        stop = max(start + 1, bisect.bisect_right(bounds, bounds[start] + per_chunk) - 1)
        first, last = bounds[start], bounds[stop]
        at_row = grid_factors(row.vert, row.horiz, u_row[first:last])
        at_col = grid_factors(col.vert, col.horiz, u_col[first:last])
        factors = [at_row[:dims[0]] * weights[first:last], at_row[dims[0]:],
                   at_col[:dims[2]], at_col[dims[2]:]]
        left, right = _outer(factors[:split]), _outer(factors[split:])
        lo = start
        while lo < stop:   # each run of sets with equal path counts is one stacked product
            paths, hi = counts[lo], lo + 1
            while hi < stop and counts[hi] == paths:
                hi += 1
            own = slice(bounds[lo] - first, bounds[hi] - first)
            matrix[lo:hi] = (left[:, own].reshape(prefix, hi - lo, paths).transpose(1, 0, 2)
                             @ right[:, own].reshape(suffix, hi - lo, paths).transpose(1, 2, 0))
            lo = hi
        start = stop
    return matrix.reshape(-1, len(row.position), row.count, col.count)


def _outer(factors: list[np.ndarray]) -> np.ndarray:
    """Per-path outer product of (d_i, P) factors: the (prod d_i, P) Khatri-Rao product."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(len(out) * len(f), out.shape[-1])
    return out


def _one_link(row: DeviceView, col: DeviceView, clusters: ClusterSet,
              link: LinkState) -> np.ndarray:
    """The matrix of one link, given its clusters and LOS state."""
    los = np.array([link.los])
    leg = _Leg(np.zeros(1, dtype=int), np.zeros(1, dtype=int), los,
               np.array([link.attenuation])[los], np.array([link.phase])[los], clusters,
               np.array([0, clusters.total_paths]))
    row = dataclasses.replace(row, position=np.atleast_2d(row.position))
    return _leg_matrices(row, col, leg)[0, 0]


def assemble_link_channel(side: str, clusters: ClusterSet, link: LinkState,
                          scene: Scene, ris_index: int = 0) -> np.ndarray:
    """One surface leg: 'tx-ris' gives the (N, Nt) matrix, 'ris-rx' the (Nr, N) one."""
    surface = scene.ris[ris_index]
    if side == "tx-ris":
        return _one_link(surface, scene.tx, clusters, link)
    if side == "ris-rx":
        return _one_link(scene.rx, surface, clusters, link)
    raise ValueError(f"side must be 'tx-ris' or 'ris-rx', got {side!r}")


def assemble_direct_channel(clusters: ClusterSet, link: LinkState,
                            scene: Scene) -> np.ndarray:
    """The (Nr, Nt) terminal-to-terminal matrix; no element pattern applies."""
    return _one_link(scene.rx, scene.tx, clusters, link)


@dataclass(frozen=True)
class RealizationChannels:
    """The channel matrices of a block of realizations (`realize_block`), or of
    one (`realize_channels`, without the realization axis).

    Every matrix of a block carries a leading realization axis; realized
    for a stack of K receiver positions, `ris_rx` (at its `cells`) and
    `direct` carry a cell axis after it.  Surfaces left out have None matrices.
    """

    tx_ris: tuple[np.ndarray | None, ...]   # per surface, (B, N_k, Nt)
    ris_rx: tuple[np.ndarray | None, ...]   # per surface, (B, [K_k,] Nr, N_k)
    direct: np.ndarray                      # (B, [K,] Nr, Nt)
    realization: int | range
    los: dict = field(default_factory=dict)
    clusters: dict = field(default_factory=dict)  # ClusterSet per link key, one position only
    cells: dict = field(default_factory=dict)     # surface -> its legs' cell indices; absent = all


def surface_cascade(tx_ris: np.ndarray, ris_rx: np.ndarray, phases) -> np.ndarray:
    """One surface's term ris_rx @ diag(exp(j*phases)) @ tx_ris of the composite.

    `tx_ris` (..., N, Nt), `ris_rx` (..., Nr, N) and `phases` (..., N) may
    carry leading stack axes that broadcast.
    """
    phases = np.asarray(phases, float)
    n = tx_ris.shape[-2]
    if ris_rx.shape[-1] != n or phases.shape[-1:] != (n,):
        raise DimensionMismatch(f"{phases.shape[-1:]} phases and a {ris_rx.shape[-1]}-column "
                                f"surface-Rx leg do not match the {n}-element surface")
    return (ris_rx * np.exp(1j * phases)[..., None, :]) @ tx_ris


def composite_multi(channels: RealizationChannels,
                    phase_sets: list[np.ndarray | None]) -> np.ndarray:
    """Sum the cascades of all active surfaces plus the direct term.

    `phase_sets[k] is None` models surface k as absent.  A stacked cascade
    enters only the cells its leg was placed at (`channels.cells`), its one
    Tx-side leg broadcast over them.
    """
    total = channels.direct.astype(complex, copy=True)
    for k, phases in enumerate(phase_sets):
        if phases is not None:
            tx_ris, ris_rx = channels.tx_ris[k], channels.ris_rx[k]
            tx_ris = tx_ris[..., None, :, :] if ris_rx.ndim > tx_ris.ndim else tx_ris
            at = (..., channels.cells[k], slice(None), slice(None)) if k in channels.cells else ...
            total[at] += surface_cascade(tx_ris, ris_rx, phases)
    return total


def realize_block(vc: ValidatedConfig, realizations: range, surfaces=None,
                  rx_position=None) -> RealizationChannels:
    """Draw the channel matrices of a block of realizations.

    Each realization reads its own substreams, keyed by (seed, realization,
    link) and seeded for the whole block by `block_rngs`, so its index lies
    in [0, 2**32).  The receiver's random orientation is shared by every
    link arriving at it; each surface has its own links, so scenes with
    different surface counts stay paired on the surfaces they share.

    `rx_position` may be a stack (K, 3): each position sees the draws it
    would see alone, and receiver-side matrices carry a cell axis.
    `surfaces` maps each surface to realize (others get None matrices) to
    the stack cells its receiver leg is placed at (None = all), recorded in
    `cells`; None realizes every surface at every position.
    `los` records each link's LOS state per (realization, position).  For
    one receiver position (not a stack), `clusters` records each link's
    placed paths; a stack's paths grow with it and are released once its
    matrices are assembled.
    """
    cfg = vc.config
    seed = cfg.seed
    rx_frames = None
    if cfg.rx_orientation == "random-azimuth":
        rx_frames = np.stack([azimuth_rotation_frame(rng.uniform(0.0, 2.0 * np.pi))
                              for rng in block_rngs(seed, realizations, LinkTag.RX_FRAME)])
    scene = build_scene(vc, rx_position=rx_position)
    tx = scene.tx
    one = scene.rx.position.ndim == 1
    rx = dataclasses.replace(scene.rx, position=np.atleast_2d(scene.rx.position))
    los, clusters = {}, {}

    def link(key: str, row: DeviceView, col: DeviceView, force_los, tag: LinkTag, *extra: int,
             geometry_from=None, frames=None):
        leg = _draw_leg(vc, block_rngs(seed, realizations, tag, *extra), col, row.position,
                        force_los, geometry_from)
        los[key] = leg.los
        if one:
            clusters[key] = leg.clusters
        return leg, _leg_matrices(row, col, leg, frames)

    force = True if cfg.ris_links == "los" else None
    tx_ris, ris_rx = [None] * len(scene.ris), [None] * len(scene.ris)
    if surfaces is None:
        surfaces = dict.fromkeys(range(len(scene.ris)))
    for k, cells in surfaces.items():
        surface = scene.ris[k]
        fixed = dataclasses.replace(surface, position=surface.position[None])
        leg_h, h = link(f"tx_ris_{k}", fixed, tx, force, LinkTag.TX_RIS, k)
        tx_ris[k] = h[:, 0]
        at = rx if cells is None else dataclasses.replace(rx, position=rx.position[cells])
        _, ris_rx[k] = link(f"ris_rx_{k}", at, surface, force, LinkTag.RIS_RX, k,
                            geometry_from=leg_h if cfg.shared_clusters else None,
                            frames=rx_frames)

    if cfg.direct_mode == "blocked" and not cfg.blocked_keeps_scatter:
        direct = np.zeros((len(realizations), len(rx.position), rx.count, tx.count), complex)
        los["direct"] = np.zeros(direct.shape[0] * direct.shape[1], dtype=bool)
    else:
        force_d = {"blocked": False, "present": True}.get(cfg.direct_mode)
        _, direct = link("direct", rx, tx, force_d, LinkTag.DIRECT, frames=rx_frames)

    if one:   # one receiver position: no cell axis
        ris_rx = [None if m is None else m[:, 0] for m in ris_rx]
        direct = direct[:, 0]
    return RealizationChannels(tuple(tx_ris), tuple(ris_rx), direct, realizations, los,
                               clusters, {k: c for k, c in surfaces.items()
                                          if c is not None and not one})


def realize_channels(vc: ValidatedConfig, realization: int, rx_position=None,
                     surfaces=None) -> RealizationChannels:
    """`realize_block` for the one realization `realization` (in [0, 2**32)),
    without the realization axis.  An explicit `rx_position` is checked
    like the config's (`config.check_positions`).  For one receiver
    position, `los` maps each link to its LOS indicator and `clusters` to
    its `ClusterSet`."""
    if rx_position is not None:
        check_positions(vc.config, vc.wavelength, np.atleast_2d(rx_position))
    block = realize_block(vc, range(realization, realization + 1), surfaces, rx_position)
    one = block.direct.ndim == 3

    def first(matrices):
        return tuple(None if m is None else m[0] for m in matrices)

    return RealizationChannels(first(block.tx_ris), first(block.ris_rx), block.direct[0],
                               realization, {k: bool(v[0]) for k, v in block.los.items()}
                               if one else {}, block.clusters, block.cells)
