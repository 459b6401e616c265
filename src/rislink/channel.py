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
their far ends, steered and summed together.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ValidatedConfig
from .errors import DimensionMismatch
from .geometry import (azimuth_rotation_frame, element_gain_from_cos, local_directions,
                       steering_matrix)
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


# Steering runs over at most this many (element, path) entries at a time,
# and a coverage block realizes at most this many receiver-side matrix
# entries per chunk of realizations: 16-24 bytes each, whatever the number
# of positions or realizations.
PLACEMENT_BUDGET = 16384


class _Leg(NamedTuple):
    """One link drawn for a block of realizations towards K far points: one
    *path set* per (realization, far point), in that (row-major) order."""

    realization: np.ndarray      # (S,) block index of each path set
    cell: np.ndarray             # (S,) its far point
    los: np.ndarray              # (S,) bool
    los_attenuation: np.ndarray  # (L,) per LOS set, in order
    los_phase: np.ndarray        # (L,)
    clusters: ClusterSet         # every set's paths, placed, concatenated in order
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
        per_set = np.array([len(v.gains) for v in variates])[group]
        # each set's paths are its group's, placed at its own far point
        stacked = stack_cluster_variates([variates[g] for g in group])
        geometry = None
        if geometry_from is not None:   # each set takes its realization's positions
            source, b = geometry_from.clusters, geometry_from.bounds.tolist()
            geometry = dataclasses.replace(source, positions=np.concatenate(
                [source.positions[b[r]:b[r + 1]] for r in realization.tolist()]))
        clusters = place_clusters(stacked, near.position, far[np.repeat(cell, per_set)], env,
                                  f_hz, near.frame, geometry)
    else:
        clusters, per_set = ClusterSet.empty(), np.zeros(len(cell), dtype=int)
    return _Leg(realization, cell, los, attenuation, phase, clusters,
                np.concatenate([[0], np.cumsum(per_set)]))


def _leg_matrices(row: DeviceView, col: DeviceView, leg: _Leg,
                  row_frames: np.ndarray | None = None) -> np.ndarray:
    """The (B, K, row.count, col.count) matrices of a leg drawn from `col` to
    the K positions `row.position`: each set's path outer-products a_row *
    a_col^T, weighted by both devices' element patterns, plus its LOS term.

    Directions are evaluated from each device in its own frame, the row
    device's per realization with `row_frames` (B, 3, 3).  Steering runs in
    chunks of at most `PLACEMENT_BUDGET` entries.
    """
    matrix = np.zeros((len(leg.cell), row.count, col.count), dtype=complex)
    clusters, bounds = leg.clusters, leg.bounds.tolist()

    def frames(sets: np.ndarray) -> np.ndarray:
        return row.frame if row_frames is None else row_frames[leg.realization[sets]]

    if clusters.total_paths:
        owner = np.repeat(np.arange(len(leg.cell)), np.diff(leg.bounds))   # set of each path
        u_row, _ = local_directions(row.position[leg.cell[owner]], clusters.positions,
                                    frames(owner))
        u_col, _ = local_directions(col.position, clusters.positions, col.frame)
        weights = clusters.gains * np.sqrt(_gain(row, u_row) * _gain(col, u_col)
                                           * clusters.attenuations)
        # consecutive sets of one group share their paths: each run's end
        ends = np.flatnonzero(np.diff(2 * leg.realization + leg.los, append=-1)) + 1
        run_end = np.repeat(ends, np.diff(ends, prepend=0)).tolist()
        rc, cc = row.count, col.count
        per_chunk = max(1, PLACEMENT_BUDGET // max(rc, cc))
        start = 0
        while start < len(leg.cell):
            stop = max(start + 1, int(np.searchsorted(leg.bounds, bounds[start] + per_chunk,
                                                      side="right")) - 1)
            first = bounds[start]
            a_row = steering_matrix(row.vert, row.horiz, u_row[first:bounds[stop]])
            a_col = steering_matrix(col.vert, col.horiz, u_col[first:bounds[stop]])
            lo = start
            while lo < stop:
                hi = min(run_end[lo], stop)
                sets, paths = hi - lo, bounds[lo + 1] - bounds[lo]
                own = slice(bounds[lo] - first, bounds[hi] - first)
                # normalization keeps total scattered power independent of the path count
                matrix[lo:hi] = (
                    (a_row[:, own].reshape(rc, sets, paths).transpose(1, 0, 2)
                     * weights[bounds[lo]:bounds[hi]].reshape(sets, 1, paths))
                    @ a_col[:, own].reshape(cc, sets, paths).transpose(1, 2, 0)
                    / np.sqrt(paths))
                lo = hi
            start = stop

    if leg.los.any():
        sets = np.flatnonzero(leg.los)
        far = row.position[leg.cell[sets]]
        u_row = local_directions(far, col.position, frames(sets))[0]
        u_col = local_directions(col.position, far, col.frame)[0]
        amp = np.sqrt(_gain(row, u_row) * _gain(col, u_col) * leg.los_attenuation)
        matrix[sets] += (steering_matrix(row.vert, row.horiz, u_row).T[:, :, None]
                         * steering_matrix(col.vert, col.horiz, u_col).T[:, None, :]
                         * (amp * np.exp(1j * leg.los_phase))[:, None, None])
    return matrix.reshape(-1, len(row.position), row.count, col.count)


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


def phase_matrix(phases: np.ndarray) -> np.ndarray:
    """Diagonal unit-modulus response matrix induced by the phase vector."""
    return np.diag(np.exp(1j * np.asarray(phases, float)))


@dataclass(frozen=True)
class RealizationChannels:
    """The channel matrices of a block of realizations (`realize_block`), or of
    one (`realize_channels`, without the realization axis).

    Every matrix of a block carries a leading realization axis; realized
    for a stack of K receiver positions, `ris_rx` and `direct` carry a cell
    axis after it.  Surfaces left out of the realization have None matrices.
    """

    tx_ris: tuple[np.ndarray | None, ...]   # per surface, (B, N_k, Nt)
    ris_rx: tuple[np.ndarray | None, ...]   # per surface, (B, [K,] Nr, N_k)
    direct: np.ndarray                      # (B, [K,] Nr, Nt)
    realization: int | range
    los: dict = field(default_factory=dict)
    clusters: dict = field(default_factory=dict)  # ClusterSet per link key


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

    `phase_sets[k] is None` models surface k as absent.
    """
    total = channels.direct.astype(complex, copy=True)
    for tx_ris, ris_rx, phases in zip(channels.tx_ris, channels.ris_rx, phase_sets):
        if phases is not None:
            total += surface_cascade(tx_ris, ris_rx, phases)
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
    `surfaces` lists the surfaces to realize (others get None matrices), or
    maps each to the positions its receiver leg is placed at (None = all).
    `los` and `clusters` record each link's LOS state per (realization,
    position) and its placed paths.
    """
    cfg = vc.config
    seed = cfg.seed
    rx_frames = None
    if cfg.rx_orientation == "random-azimuth":
        rx_frames = np.stack([azimuth_rotation_frame(rng.uniform(0.0, 2.0 * np.pi))
                              for rng in block_rngs(seed, realizations, LinkTag.RX_FRAME)])
    scene = build_scene(vc, rx_position=rx_position)
    tx = scene.tx
    rx = dataclasses.replace(scene.rx, position=np.atleast_2d(scene.rx.position))
    los, clusters = {}, {}

    def link(key: str, row: DeviceView, col: DeviceView, force_los, tag: LinkTag, *extra: int,
             geometry_from=None, frames=None):
        leg = _draw_leg(vc, block_rngs(seed, realizations, tag, *extra), col, row.position,
                        force_los, geometry_from)
        los[key], clusters[key] = leg.los, leg.clusters
        return leg, _leg_matrices(row, col, leg, frames)

    force = True if cfg.ris_links == "los" else None
    tx_ris, ris_rx = [None] * len(scene.ris), [None] * len(scene.ris)
    if surfaces is None:
        surfaces = range(len(scene.ris))
    for k in surfaces:
        surface = scene.ris[k]
        fixed = dataclasses.replace(surface, position=surface.position[None])
        leg_h, h = link(f"tx_ris_{k}", fixed, tx, force, LinkTag.TX_RIS, k)
        tx_ris[k] = h[:, 0]
        cells = surfaces[k] if isinstance(surfaces, dict) else None
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

    if scene.rx.position.ndim == 1:   # one receiver position: no cell axis
        ris_rx = [None if m is None else m[:, 0] for m in ris_rx]
        direct = direct[:, 0]
    return RealizationChannels(tuple(tx_ris), tuple(ris_rx), direct, realizations, los,
                               clusters)


def realize_channels(vc: ValidatedConfig, realization: int, rx_position=None,
                     surfaces=None) -> RealizationChannels:
    """`realize_block` for the one realization `realization` (in [0, 2**32)),
    without the realization axis.  For one receiver position, `los` maps
    each link to its LOS indicator and `clusters` to its `ClusterSet`."""
    block = realize_block(vc, range(realization, realization + 1), surfaces, rx_position)
    one = block.direct.ndim == 3

    def first(matrices):
        return tuple(None if m is None else m[0] for m in matrices)

    return RealizationChannels(first(block.tx_ris), first(block.ris_rx), block.direct[0],
                               realization, {k: bool(v[0]) for k, v in block.los.items()}
                               if one else {}, block.clusters if one else {})
