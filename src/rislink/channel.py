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
from typing import Optional

import numpy as np

from .config import ValidatedConfig
from .errors import DimensionMismatch
from .geometry import (azimuth_rotation_frame, element_gain_from_cos,
                       local_directions, steering_matrix)
from .propagation import (ClusterSet, LinkState, draw_cluster_variates, draw_clusters,
                          draw_link_state, draw_los_variates, los_probability,
                          place_clusters, place_los)
from .rng import LinkTag, spawn_rng


@dataclass(frozen=True)
class DeviceView:
    """One terminal or surface as the assembler sees it."""

    position: np.ndarray
    frame: np.ndarray
    elements: np.ndarray            # local element coordinates (n, 3), meters
    gain_exponent: float | None = None  # None = isotropic elements

    @property
    def count(self) -> int:
        return len(self.elements)


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
    tx = DeviceView(np.asarray(cfg.tx.position, float), cfg.tx.frame,
                    cfg.tx.element_positions(lam))
    rx = DeviceView(
        np.asarray(cfg.rx.position if rx_position is None else rx_position, float),
        cfg.rx.frame if rx_frame is None else rx_frame,
        cfg.rx.element_positions(lam))
    ris = tuple(DeviceView(np.asarray(r.position, float), r.frame,
                           r.element_positions(lam), r.gain_exponent)
                for r in cfg.ris)
    return Scene(lam, tx, rx, ris)


def _link_matrix(row: DeviceView, col: DeviceView, gain_side: str | None,
                 clusters: ClusterSet, link: LinkState, wavelength: float) -> np.ndarray:
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

    def pattern(u_row: np.ndarray, u_col: np.ndarray) -> np.ndarray:
        if gain_side is None:
            return np.ones(u_row.shape[:-1])
        device, u = (row, u_row) if gain_side == "row" else (col, u_col)
        return element_gain_from_cos(u[..., 0], device.gain_exponent)

    if clusters.total_paths:
        u_row, _ = local_directions(row.position[..., None, :], clusters.positions, row.frame)
        u_col, _ = local_directions(col.position, clusters.positions, col.frame)
        weights = clusters.gains * np.sqrt(pattern(u_row, u_col) * clusters.attenuations)
        a_row = steering_matrix(row.elements, u_row, wavelength)
        a_col = steering_matrix(col.elements, u_col, wavelength)
        # normalization keeps total scattered power independent of the path count
        matrix += ((a_row * weights[..., None, :]) @ a_col.swapaxes(-1, -2)
                   / np.sqrt(clusters.total_paths))

    if link.los:
        u_row, _ = local_directions(row.position[..., None, :], col.position, row.frame)
        u_col, _ = local_directions(col.position, row.position[..., None, :], col.frame)
        a_row = steering_matrix(row.elements, u_row, wavelength)[..., 0]
        a_col = steering_matrix(col.elements, u_col, wavelength)[..., 0]
        amp = np.sqrt(pattern(u_row, u_col)[..., 0] * link.attenuation)
        matrix += ((amp * np.exp(1j * link.phase))[..., None, None]
                   * (a_row[..., :, None] * a_col[..., None, :]))

    return matrix


def assemble_link_channel(side: str, clusters: ClusterSet, link: LinkState,
                          scene: Scene, ris_index: int = 0) -> np.ndarray:
    """One surface leg: 'tx-ris' gives the (N, Nt) matrix, 'ris-rx' the (Nr, N) one."""
    surface = scene.ris[ris_index]
    if side == "tx-ris":
        return _link_matrix(surface, scene.tx, "row", clusters, link, scene.wavelength)
    if side == "ris-rx":
        return _link_matrix(scene.rx, surface, "col", clusters, link, scene.wavelength)
    raise ValueError(f"side must be 'tx-ris' or 'ris-rx', got {side!r}")


def assemble_direct_channel(clusters: ClusterSet, link: LinkState,
                            scene: Scene) -> np.ndarray:
    """The (Nr, Nt) terminal-to-terminal matrix; no element pattern applies."""
    return _link_matrix(scene.rx, scene.tx, None, clusters, link, scene.wavelength)


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
    carry a leading K axis.  Surfaces left out of the realization have None
    matrices.
    """

    tx_ris: tuple[np.ndarray | None, ...]   # per surface, (N_k, Nt)
    ris_rx: tuple[np.ndarray | None, ...]   # per surface, (Nr, N_k)
    direct: np.ndarray               # (Nr, Nt)
    realization: int
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
# (position, element, path) entries at a time.  The stacked steering
# arrays take about 24 bytes per entry, so this bounds their memory
# whatever the number of positions.
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
