"""Channel matrix assembly from geometry and cluster draws.

The three matrices of a scene are built from the same primitive: a sum of
outer products of array responses over scattered paths, plus an optional
LOS rank-one term.  The surface's element radiation pattern multiplies the
surface-side leg of each path; transmitter and receiver elements are
isotropic.  Paths leaving behind a surface's aperture get zero gain rather
than raising an error.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .config import ValidatedConfig
from .errors import DimensionMismatch
from .geometry import (GLOBAL_FRAME, azimuth_rotation_frame, element_gain_from_cos,
                       local_directions, steering_matrix)
from .propagation import (ClusterSet, LinkState, draw_cluster_variates, draw_clusters,
                          draw_link_state, draw_los_variates, los_probability,
                          place_clusters, place_los, shadowed_attenuation,
                          stack_cluster_variates)
from .rng import LinkTag, block_rngs, spawn_rng


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


@dataclass(frozen=True)
class PhaseVector:
    """Per-element surface phases in [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phases", np.mod(np.asarray(self.phases, float), 2.0 * np.pi))

    def __len__(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class ChannelTriple:
    """The three matrices of a single-surface realization."""

    tx_ris: np.ndarray    # (N, Nt)
    ris_rx: np.ndarray    # (Nr, N)
    direct: np.ndarray    # (Nr, Nt)
    meta: dict = field(default_factory=dict)


def build_scene(vc: ValidatedConfig, rx_position=None,
                rx_frame: np.ndarray | None = None) -> Scene:
    """Device views for one realization; `rx_position`/`rx_frame` override the config."""
    cfg = vc.config
    lam = vc.wavelength
    k = 2.0 * np.pi / lam

    def view(spec, position, frame, gain_exponent=None) -> DeviceView:
        vert, horiz = spec.grid_axes(lam)
        return DeviceView(np.asarray(position, float), frame, k * vert, k * horiz,
                          gain_exponent)

    tx = view(cfg.tx, cfg.tx.position, cfg.tx.frame)
    rx = view(cfg.rx, cfg.rx.position if rx_position is None else rx_position,
              cfg.rx.frame if rx_frame is None else rx_frame)
    ris = tuple(view(r, r.position, r.frame, r.gain_exponent) for r in cfg.ris)
    return Scene(lam, tx, rx, ris)


def _pattern(row: DeviceView, col: DeviceView, gain_side: str | None,
             u_row: np.ndarray, u_col: np.ndarray) -> np.ndarray:
    """Element-pattern gain of each direction at the `gain_side` device ("row"/"col"/None)."""
    if gain_side is None:
        return np.ones(u_row.shape[:-1])
    device, u = (row, u_row) if gain_side == "row" else (col, u_col)
    return element_gain_from_cos(u[..., 0], device.gain_exponent)


def _link_matrix(row: DeviceView, col: DeviceView, gain_side: str | None,
                 clusters: ClusterSet, link: LinkState) -> np.ndarray:
    """Sum of path outer-products a_row * a_col^T with the LOS term added.

    `gain_side` names the device ("row"/"col"/None) whose element pattern
    weights each path; directions are always evaluated from each device
    towards the path point in that device's own frame.  `row.position` may
    be a stack of K positions (K, 3), with `clusters` and `link` placed for
    each of them (`place_clusters`, `place_los`); the result is then a
    (K, row.count, col.count) stack.
    """
    stack = row.position.shape[:-1]
    matrix = np.zeros(stack + (row.count, col.count), dtype=complex)

    if clusters.total_paths:
        u_row, _ = local_directions(row.position[..., None, :], clusters.positions, row.frame)
        u_col, _ = local_directions(col.position, clusters.positions, col.frame)
        weights = clusters.gains * np.sqrt(_pattern(row, col, gain_side, u_row, u_col)
                                           * clusters.attenuations)
        a_row = steering_matrix(row.vert, row.horiz, u_row)
        a_col = steering_matrix(col.vert, col.horiz, u_col)
        # normalization keeps total scattered power independent of the path count
        matrix += ((a_row * weights[..., None, :]) @ a_col.swapaxes(-1, -2)
                   / np.sqrt(clusters.total_paths))

    if link.los:
        u_row, _ = local_directions(row.position[..., None, :], col.position, row.frame)
        u_col, _ = local_directions(col.position, row.position[..., None, :], col.frame)
        a_row = steering_matrix(row.vert, row.horiz, u_row)[..., 0]
        a_col = steering_matrix(col.vert, col.horiz, u_col)[..., 0]
        amp = np.sqrt(_pattern(row, col, gain_side, u_row, u_col)[..., 0] * link.attenuation)
        matrix += ((amp * np.exp(1j * link.phase))[..., None, None]
                   * (a_row[..., :, None] * a_col[..., None, :]))

    return matrix


def assemble_link_channel(side: str, clusters: ClusterSet, link: LinkState,
                          scene: Scene, ris_index: int = 0) -> np.ndarray:
    """One surface leg: 'tx-ris' gives the (N, Nt) matrix, 'ris-rx' the (Nr, N) one."""
    surface = scene.ris[ris_index]
    if side == "tx-ris":
        return _link_matrix(surface, scene.tx, "row", clusters, link)
    if side == "ris-rx":
        return _link_matrix(scene.rx, surface, "col", clusters, link)
    raise ValueError(f"side must be 'tx-ris' or 'ris-rx', got {side!r}")


def assemble_direct_channel(clusters: ClusterSet, link: LinkState,
                            scene: Scene) -> np.ndarray:
    """The (Nr, Nt) terminal-to-terminal matrix; no element pattern applies."""
    return _link_matrix(scene.rx, scene.tx, None, clusters, link)


def phase_matrix(phases: PhaseVector | np.ndarray) -> np.ndarray:
    """Diagonal unit-modulus response matrix induced by the phase vector."""
    if isinstance(phases, PhaseVector):
        phases = phases.phases
    return np.diag(np.exp(1j * np.asarray(phases, float)))


def composite_channel(triple: ChannelTriple, phases: PhaseVector | np.ndarray) -> np.ndarray:
    """End-to-end matrix: surface cascade with the given phases plus the direct term."""
    if isinstance(phases, PhaseVector):
        phases = phases.phases
    phases = np.asarray(phases, float)
    n = triple.tx_ris.shape[0]
    if triple.ris_rx.shape[1] != n or len(phases) != n:
        raise DimensionMismatch(
            f"phase vector of length {len(phases)} does not match the {n}-element surface")
    return surface_cascade(triple.tx_ris, triple.ris_rx, phases) + triple.direct


@dataclass(frozen=True)
class RealizationChannels:
    """All channel matrices of one realization, possibly with several surfaces.

    Realized for a stack of K receiver positions, `ris_rx` and `direct`
    carry a leading K axis; realized for a block of realizations
    (`realize_block`), every matrix carries a leading realization axis and
    `realization` is the block's range.  Surfaces left out of the
    realization have None matrices.
    """

    tx_ris: tuple[np.ndarray | None, ...]   # per surface, (N_k, Nt)
    ris_rx: tuple[np.ndarray | None, ...]   # per surface, (Nr, N_k)
    direct: np.ndarray               # (Nr, Nt)
    realization: int | range
    los: dict = field(default_factory=dict)
    clusters: dict = field(default_factory=dict)  # ClusterSet per link key

    def triple(self, ris_index: int = 0) -> ChannelTriple:
        return ChannelTriple(self.tx_ris[ris_index], self.ris_rx[ris_index],
                             self.direct, meta={"realization": self.realization,
                                                "los": dict(self.los)})


def surface_cascade(tx_ris: np.ndarray, ris_rx: np.ndarray, phases) -> np.ndarray:
    """One surface's term ris_rx @ diag(exp(j*phases)) @ tx_ris of the composite.

    `ris_rx` (..., Nr, N) and `phases` (..., N) may carry leading stack axes.
    """
    if isinstance(phases, PhaseVector):
        phases = phases.phases
    return (ris_rx * np.exp(1j * np.asarray(phases, float))[..., None, :]) @ tx_ris


def composite_multi(channels: RealizationChannels,
                    phase_sets: list[Optional[np.ndarray]]) -> np.ndarray:
    """Sum the cascades of all active surfaces plus the direct term.

    `phase_sets[k] is None` models surface k as absent.  With one surface
    this reduces exactly to `composite_channel`.
    """
    total = channels.direct.astype(complex, copy=True)
    for tx_ris, ris_rx, phases in zip(channels.tx_ris, channels.ris_rx, phase_sets):
        if phases is not None:
            total += surface_cascade(tx_ris, ris_rx, phases)
    return total


# Receiver-side legs are placed and assembled for at most this many
# (position, element, path) entries at a time, and a block's legs for at
# most this many (element, path) entries over its realizations.  The
# stacked steering arrays take about 24 bytes per entry, so this bounds
# their memory whatever the number of positions or realizations.
PLACEMENT_BUDGET = 16384


def _draw_leg(rng: np.random.Generator, near: DeviceView, far: np.ndarray,
              vc: ValidatedConfig, force_los: bool | None,
              geometry_from: ClusterSet | None = None) -> tuple[LinkState, ClusterSet]:
    """LOS state and clusters of the link from device `near` to the point `far`."""
    cfg = vc.config
    env, f_hz = cfg.environment, cfg.frequency_hz
    link = draw_link_state(float(np.linalg.norm(far - near.position)), f_hz, env, rng,
                           force_los)
    clusters = (draw_clusters(near.position, far, env, f_hz, rng, near_frame=near.frame,
                              geometry_from=geometry_from)
                if cfg.scatter_paths else ClusterSet.empty())
    return link, clusters


def _receiver_leg(rng: np.random.Generator, near: DeviceView, scene: Scene,
                  vc: ValidatedConfig, force_los: bool | None, assemble,
                  geometry_from: ClusterSet | None = None):
    """Draw and assemble the leg from `near` to the receiver.

    Returns the matrix and, for a single receiver position, its
    (LinkState, ClusterSet).  For a stack of positions every variate is
    drawn once and placed for each position, in chunks of at most
    `PLACEMENT_BUDGET` entries.  A live LOS coin can split the stack in
    two, since the substream branches at the coin: NLOS positions draw
    their clusters right after it, LOS ones after the LOS draws.  Each
    position thus sees exactly the draws it would see alone.
    """
    far = scene.rx.position
    if far.ndim == 1:
        link, clusters = _draw_leg(rng, near, far, vc, force_los, geometry_from)
        return assemble(clusters, link, scene), (link, clusters)

    cfg = vc.config
    env, f_hz = cfg.environment, cfg.frequency_hz
    d = np.linalg.norm(far - near.position, axis=-1)
    if force_los is None:
        coin = rng.uniform()
        los = np.array([coin < los_probability(x, env) for x in d])
    else:
        los = np.full(len(d), force_los)
    shared = None if geometry_from is None else geometry_from.total_paths
    matrix = np.empty(far.shape[:-1] + (scene.rx.count, near.count), dtype=complex)
    for branch in (False, True):
        index = np.flatnonzero(los == branch)
        if not len(index):
            continue
        # the NLOS branch reads on from the coin, ahead of the LOS draws
        stream = copy.deepcopy(rng) if not branch and los.any() else rng
        los_variates = draw_los_variates(stream) if branch else None
        variates = draw_cluster_variates(env, stream, shared) if cfg.scatter_paths else None
        paths = 0 if variates is None else len(variates.gains)
        step = max(1, PLACEMENT_BUDGET // max(1, max(near.count, scene.rx.count) * paths))
        for start in range(0, len(index), step):
            sub = index[start:start + step]
            link = (place_los(los_variates, d[sub], f_hz, env) if branch
                    else LinkState(False, 0.0, 0.0))
            clusters = (ClusterSet.empty() if variates is None else
                        place_clusters(variates, near.position, far[sub], env, f_hz,
                                       near.frame, geometry_from))
            matrix[sub] = assemble(clusters, link, _receiver_at(scene, sub))
    return matrix, None


def _receiver_at(scene: Scene, index) -> Scene:
    """The scene with its receiver stack cut down to the positions `index`."""
    return dataclasses.replace(scene, rx=dataclasses.replace(
        scene.rx, position=scene.rx.position[index]))


def realize_channels(vc: ValidatedConfig, realization: int, rx_position=None,
                     surfaces=None) -> RealizationChannels:
    """Draw one full channel realization from the config's seeded substreams.

    The receiver's random orientation (when enabled) is drawn once and
    shared by every link that arrives at it.  Each surface gets its own
    link substreams so scenes with different surface counts stay paired
    on the surfaces they share.

    `rx_position` may be a stack of receiver positions (K, 3): every
    position then sees the same draws, as it would alone, and the
    receiver-side matrices carry a leading K axis.  `surfaces` lists the
    surfaces to realize (default: all); the others get None matrices.  For
    a stack it may instead map each surface to the positions (indices into
    the stack, None = all) its receiver-side leg is placed at, one `ris_rx`
    row each.
    The `los` and `clusters` records are kept for a single position only.
    """
    cfg = vc.config
    seed = cfg.seed

    rx_frame = None
    if cfg.rx_orientation == "random-azimuth":
        rng = spawn_rng(seed, realization, LinkTag.RX_FRAME)
        rx_frame = azimuth_rotation_frame(rng.uniform(0.0, 2.0 * np.pi))
    scene = build_scene(vc, rx_position=rx_position, rx_frame=rx_frame)
    tx, rx = scene.tx, scene.rx
    los_meta, cluster_meta = {}, {}

    def record(key: str, drawn) -> None:
        if drawn is not None:
            los_meta[key], cluster_meta[key] = drawn[0].los, drawn[1]

    force = True if cfg.ris_links == "los" else None
    tx_ris, ris_rx = [None] * len(scene.ris), [None] * len(scene.ris)
    if surfaces is None:
        surfaces = range(len(scene.ris))
    for k in surfaces:
        surface = scene.ris[k]
        index = surfaces[k] if isinstance(surfaces, dict) else None
        leg_scene = scene if index is None else _receiver_at(scene, index)
        rng_h = spawn_rng(seed, realization, LinkTag.TX_RIS, k)
        link_h, clusters_h = _draw_leg(rng_h, tx, surface.position, vc, force)
        tx_ris[k] = assemble_link_channel("tx-ris", clusters_h, link_h, scene, k)
        record(f"tx_ris_{k}", (link_h, clusters_h))

        rng_g = spawn_rng(seed, realization, LinkTag.RIS_RX, k)
        ris_rx[k], drawn = _receiver_leg(
            rng_g, surface, leg_scene, vc, force,
            lambda clusters, link, sc, k=k: assemble_link_channel("ris-rx", clusters, link,
                                                                  sc, k),
            geometry_from=clusters_h if cfg.shared_clusters else None)
        record(f"ris_rx_{k}", drawn)

    if cfg.direct_mode == "blocked" and not cfg.blocked_keeps_scatter:
        direct = np.zeros(rx.position.shape[:-1] + (rx.count, tx.count), dtype=complex)
        los_meta["direct"] = False
    else:
        rng_d = spawn_rng(seed, realization, LinkTag.DIRECT)
        force_d = {"blocked": False, "present": True}.get(cfg.direct_mode)
        direct, drawn = _receiver_leg(rng_d, tx, scene, vc, force_d,
                                      assemble_direct_channel)
        record("direct", drawn)

    return RealizationChannels(tx_ris=tuple(tx_ris), ris_rx=tuple(ris_rx),
                               direct=direct, realization=realization, los=los_meta,
                               clusters=cluster_meta)


class _BlockLeg(NamedTuple):
    """One link drawn for every realization of a block, at fixed ends."""

    los: np.ndarray              # (B,) bool: the realizations whose link is LOS
    los_attenuation: np.ndarray  # (L,) per LOS realization, in order
    los_phase: np.ndarray        # (L,)
    clusters: ClusterSet         # every realization's paths, concatenated in order
    bounds: np.ndarray           # (B + 1,) offsets of each realization's paths


def _draw_block_leg(vc: ValidatedConfig, rngs: list, near: DeviceView, far: np.ndarray,
                    force_los: bool | None, geometry_from: _BlockLeg | None = None) -> _BlockLeg:
    """The link from device `near` to the point `far`, one substream per realization.

    Each substream is read as `_draw_leg` reads it (the LOS coin, the LOS
    variates when LOS, the cluster variates); then the block's clusters are
    placed together and its LOS attenuations evaluated together.
    """
    cfg = vc.config
    env, f_hz = cfg.environment, cfg.frequency_hz
    d = float(np.linalg.norm(far - near.position))
    p_los = los_probability(d, env) if force_los is None else None
    shared = None if geometry_from is None else np.diff(geometry_from.bounds)
    los, los_draws, variates = [], [], []
    for i, rng in enumerate(rngs):
        los.append(bool(rng.uniform() < p_los) if force_los is None else force_los)
        if los[-1]:
            los_draws.append(draw_los_variates(rng))
        if cfg.scatter_paths:
            variates.append(draw_cluster_variates(env, rng, None if shared is None
                                                  else int(shared[i])))
    shadow, phase = np.array(los_draws, dtype=float).reshape(-1, 2).T
    attenuation = shadowed_attenuation(d, f_hz, env, True, shadow) if los_draws else shadow
    if variates:
        clusters = place_clusters(stack_cluster_variates(variates), near.position, far, env,
                                  f_hz, near.frame,
                                  None if geometry_from is None else geometry_from.clusters)
        paths = [len(v.gains) for v in variates]
    else:
        clusters, paths = ClusterSet.empty(), [0] * len(rngs)
    return _BlockLeg(np.array(los), attenuation, phase, clusters,
                     np.concatenate([[0], np.cumsum(paths)]))


def _directions(origin: np.ndarray, points: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Unit directions origin -> points in `frame`, which may instead be a
    stack of frames (..., 3, 3) broadcasting against the points."""
    if frame.ndim == 2:
        return local_directions(origin, points, frame)[0]
    unit, _ = local_directions(origin, points, GLOBAL_FRAME)
    return np.einsum("...j,...kj->...k", unit, frame)


def _block_link_matrices(row: DeviceView, col: DeviceView, gain_side: str | None,
                         leg: _BlockLeg, row_frames: np.ndarray | None = None) -> np.ndarray:
    """`_link_matrix` for every realization of a block: (B, row.count, col.count).

    The devices are fixed; `row_frames` (B, 3, 3), when given, is the row
    device's frame per realization.  Directions, pattern and steering run
    once over the block's concatenated paths (in chunks of at most
    `PLACEMENT_BUDGET` entries), but each realization's matrix is summed
    over its own paths only, as `_link_matrix` sums it.  The LOS direction
    is evaluated once, or once per LOS realization with `row_frames`.
    """
    count = len(leg.los)
    matrix = np.zeros((count, row.count, col.count), dtype=complex)
    clusters, bounds = leg.clusters, leg.bounds
    if clusters.total_paths:
        frames = row.frame if row_frames is None else row_frames[
            np.repeat(np.arange(count), np.diff(bounds))]
        u_row = _directions(row.position, clusters.positions, frames)
        u_col, _ = local_directions(col.position, clusters.positions, col.frame)
        weights = clusters.gains * np.sqrt(_pattern(row, col, gain_side, u_row, u_col)
                                           * clusters.attenuations)
        per_chunk = max(1, PLACEMENT_BUDGET // max(row.count, col.count))
        start = 0
        while start < count:
            stop = max(start + 1, int(np.searchsorted(bounds, bounds[start] + per_chunk,
                                                      side="right")) - 1)
            first, last = bounds[start], bounds[stop]
            a_row = steering_matrix(row.vert, row.horiz, u_row[first:last])
            a_col = steering_matrix(col.vert, col.horiz, u_col[first:last])
            for i in range(start, stop):
                own = slice(bounds[i] - first, bounds[i + 1] - first)
                # normalization keeps total scattered power independent of the path count
                matrix[i] = ((a_row[:, own] * weights[bounds[i]:bounds[i + 1]])
                             @ a_col[:, own].T / np.sqrt(bounds[i + 1] - bounds[i]))
            start = stop

    if leg.los.any():
        los = np.flatnonzero(leg.los)
        frames = row.frame if row_frames is None else row_frames[los]
        u_row = _directions(row.position, col.position, frames)
        u_col, _ = local_directions(col.position, row.position, col.frame)
        a_row = steering_matrix(row.vert, row.horiz, u_row).T   # (L or 1, row.count)
        a_col = steering_matrix(col.vert, col.horiz, u_col)[:, 0]
        amp = np.sqrt(_pattern(row, col, gain_side, u_row, u_col) * leg.los_attenuation)
        matrix[los] += ((amp * np.exp(1j * leg.los_phase))[:, None, None]
                        * (a_row[:, :, None] * a_col[None, None, :]))
    return matrix


def realize_block(vc: ValidatedConfig, realizations: range, surfaces=None,
                  rx_position=None) -> RealizationChannels:
    """`realize_channels` for a block of realizations at one receiver position.

    Every realization reads its own substreams (seeded for the whole block
    by `block_rngs`) in the order `realize_channels` does, so each sees
    exactly its own draws; the matrices carry a leading realization axis.
    Each leg's paths are placed, steered and weighted once for the whole
    block (`_block_link_matrices`).  `surfaces` lists the surfaces to realize
    (default: all); the others get None matrices.  No `los`/`clusters`
    records are kept.
    """
    cfg = vc.config
    seed = cfg.seed

    rx_frames = None
    if cfg.rx_orientation == "random-azimuth":
        rx_frames = np.stack([azimuth_rotation_frame(rng.uniform(0.0, 2.0 * np.pi))
                              for rng in block_rngs(seed, realizations, LinkTag.RX_FRAME)])
    scene = build_scene(vc, rx_position=rx_position)
    tx, rx = scene.tx, scene.rx

    def streams(tag: LinkTag, *extra: int) -> list:
        return block_rngs(seed, realizations, tag, *extra)

    force = True if cfg.ris_links == "los" else None
    tx_ris, ris_rx = [None] * len(scene.ris), [None] * len(scene.ris)
    for k in range(len(scene.ris)) if surfaces is None else surfaces:
        surface = scene.ris[k]
        leg_h = _draw_block_leg(vc, streams(LinkTag.TX_RIS, k), tx, surface.position, force)
        tx_ris[k] = _block_link_matrices(surface, tx, "row", leg_h)
        leg_g = _draw_block_leg(vc, streams(LinkTag.RIS_RX, k), surface, rx.position, force,
                                geometry_from=leg_h if cfg.shared_clusters else None)
        ris_rx[k] = _block_link_matrices(rx, surface, "col", leg_g, rx_frames)

    if cfg.direct_mode == "blocked" and not cfg.blocked_keeps_scatter:
        direct = np.zeros((len(realizations), rx.count, tx.count), dtype=complex)
    else:
        force_d = {"blocked": False, "present": True}.get(cfg.direct_mode)
        leg_d = _draw_block_leg(vc, streams(LinkTag.DIRECT), tx, rx.position, force_d)
        direct = _block_link_matrices(rx, tx, None, leg_d, rx_frames)

    return RealizationChannels(tx_ris=tuple(tx_ris), ris_rx=tuple(ris_rx), direct=direct,
                               realization=realizations)
