"""Channel matrix assembly from geometry and cluster draws.

The three matrices of a scene are built from the same primitive: a sum of
outer products of array responses over scattered paths, plus an optional
LOS rank-one term.  The surface's element radiation pattern multiplies the
surface-side leg of each path; transmitter and receiver elements are
isotropic.  Paths leaving behind a surface's aperture get zero gain rather
than raising an error.

One engine draws every matrix (`realize_chunks`): a block of realizations
towards a stack of receiver positions, each matrix with its (realization,
cell) axes (only `realize_channels` drops them), yielded chunk by chunk.
Once per group of realizations it does what depends neither on the
receiver nor on the chunks: it seeds each link's substreams and reads its
draws (`_draw_link`), draws the receiver frames, and draws, places and
contracts each Tx-surface leg.  Per chunk it places (`_place_link`) and
contracts the receiver-side legs and slices the Tx-side matrices;
`realize_block` is the block as one group and one chunk.  Placing a
leg forms its *terms* (a LOS term one more path) in one pass on (3, P)
component arrays: each path's deltas and lengths once (`place_clusters`),
then each term's directions and weight (`_path_terms`).  The sum never
forms an array response: each path's per-axis grid factors
(`geometry.GridAxes`, built once per device in `build_scene`) are
contracted in two small groups, so an 8x8 surface leg costs 8 + 32 factor
entries per path instead of 64 + 4.
"""

from __future__ import annotations

import bisect
import copy
import dataclasses
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ValidatedConfig, check_positions
from .errors import CoincidentPoints, DimensionMismatch
from .geometry import GridAxes, azimuth_rotation_frame, element_gain_from_cos, rotate
# no caller left here; the benchmark's tracer wraps these names (ROADMAP item 5)
from .geometry import local_directions, steering_matrix  # noqa: F401
from .propagation import (TWO_PI, ClusterSet, LinkState, draw_cluster_units, draw_los_variates,
                          los_probability, path_ends, place_clusters, shadowed_attenuation,
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
    grid: GridAxes      # element rows' and columns' local coordinates, times 2*pi/lambda
    gain_exponent: float | None = None  # None = isotropic elements

    @property
    def count(self) -> int:
        return math.prod(self.grid.shape)


@dataclass(frozen=True)
class Scene:
    """All device views of one realization."""

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
        return DeviceView(np.asarray(position, float), frame, GridAxes(k * vert, k * horiz),
                          gain_exponent)

    tx = view(cfg.tx, cfg.tx.position, cfg.tx.frame)
    rx = view(cfg.rx, cfg.rx.position if rx_position is None else rx_position, cfg.rx.frame)
    ris = tuple(view(r, r.position, r.frame, r.gain_exponent) for r in cfg.ris)
    return Scene(tx, rx, ris)


def _gain(device: DeviceView, u: np.ndarray):
    """Element-pattern gain of each local direction `u` (3, P) at `device` (1 if isotropic)."""
    return 1.0 if device.gain_exponent is None else element_gain_from_cos(
        u[0], device.gain_exponent)


# A leg's paths are contracted in chunks of at most this many (factor
# entry, path) pairs, prefix + suffix entries a path, 16-24 bytes each; a
# path set is never split (its matrix is one product wherever it lands), so
# one set's paths bound the workspace from below.  How many realizations a
# block realizes at once is its own budget (`campaign.CHUNK_BUDGET`).
PLACEMENT_BUDGET = 16384


class _Leg(NamedTuple):
    """One link drawn for a block of realizations towards K far points: one
    *path set* per (realization, far point), in that (row-major) order, and
    its *terms*: its scattered paths, then its LOS term (`_path_terms`)."""

    cell: np.ndarray             # (S,) each path set's far point
    los: np.ndarray              # (S,) bool
    los_attenuation: np.ndarray  # (L,) per LOS set, in order
    los_phase: np.ndarray        # (L,)
    clusters: ClusterSet | None  # every set's paths, placed, concatenated in order; its
                                 # sizes are the drawn groups' (`place_clusters`' paths)
    bounds: np.ndarray           # (S + 1,) offsets of each set's paths
    u_row: np.ndarray | None = None    # (3, T), T = P + L, at the row device
    u_col: np.ndarray | None = None    # (3, T) at the column device
    weights: np.ndarray | None = None  # (T,) complex


class _Draws(NamedTuple):
    """One link's unit draws for a group of realizations towards K far points
    (`_draw_link`), in the order its substreams gave them; `_place_link`
    places any consecutive slice of its realizations.  A realization reads
    one *branch* of draws, or two when its LOS coin splits its far points."""

    row: DeviceView              # the far device, its (K, 3) positions
    col: DeviceView              # the near device
    geometry_from: _Leg | None   # the leg lending each realization its cluster geometry
    distance: np.ndarray         # (K,) near-to-far lengths, each set's placement length
    los: np.ndarray              # (G, K) bool
    first: np.ndarray            # (G + 1,) each realization's first branch, then the count
    mixed: np.ndarray            # (G,) bool: the realization reads an NLOS and a LOS branch
    los_variates: np.ndarray     # (branches, 2) LOS shadowing normal and phase uniform
    units: list                  # ClusterUnits per branch; empty without scattered paths


def _draw_link(vc: ValidatedConfig, rngs: list, row: DeviceView, col: DeviceView,
               force_los: bool | None, geometry_from: _Leg | None = None) -> _Draws:
    """The draws of the link from device `col` to each far point `row.position`
    (K, 3), one substream per realization.

    The LOS coin splits a realization's far points into an NLOS and a LOS
    branch, each reading its own variates: the NLOS branch reads on from
    the coin (from a copy of the stream when both branches exist), the LOS
    branch after the LOS variates.  Each far point so sees exactly the
    draws it would see alone.  `geometry_from`, a leg of the same
    realizations to one far point, lends each realization its cluster
    geometry, so only its paths' normals are drawn.  The loop over the
    streams only draws; `_place_link` maps the draws.
    """
    cfg = vc.config
    env = cfg.environment
    d = np.linalg.norm(row.position - col.position, axis=-1)
    if force_los is None:   # a coin below p_los[k] puts far point k in LOS
        p_los = los_probability(d, env)
        p_any, p_all = float(p_los.max()), float(p_los.min())
    shared = ([None] * len(rngs) if geometry_from is None
              else np.diff(geometry_from.bounds).tolist())
    coins, first, mixed, los_draws, units = [], [], [], [], []   # units per branch
    for i, rng in enumerate(rngs):
        if force_los is None:
            coin = rng.random()
            coins.append(coin)
            any_los, split = coin < p_any, p_all <= coin < p_any
        else:
            any_los, split = force_los, False
        first.append(len(los_draws))
        mixed.append(split)
        for branch in (False, True) if split else (any_los,):
            # the NLOS branch reads on from the coin, ahead of the LOS draws
            stream = copy.deepcopy(rng) if split and not branch else rng
            los_draws.append(draw_los_variates(stream) if branch else (0.0, 0.0))
            if cfg.scatter_paths:
                units.append(draw_cluster_units(env, stream, shared[i]))
    first.append(len(los_draws))
    los = (np.full((len(rngs), len(d)), bool(force_los)) if force_los is not None
           else np.array(coins)[:, None] < p_los)
    return _Draws(row, col, geometry_from, d, los, np.array(first), np.array(mixed, dtype=bool),
                  np.array(los_draws, dtype=float).reshape(-1, 2), units)


def _place_link(vc: ValidatedConfig, draws: _Draws, start: int, stop: int,
                row_frames: np.ndarray | None = None) -> _Leg:
    """Realizations start .. stop - 1 of a link's draws, mapped and placed at
    their far points as one leg with its terms (`_path_terms`); a slice
    places exactly as the whole."""
    cfg = vc.config
    env, f_hz = cfg.environment, cfg.frequency_hz
    cells = len(draws.distance)
    los = draws.los[start:stop].ravel()
    base = draws.first[start]
    # each set's branch among the slice's
    branch = (np.repeat(draws.first[start:stop] - base, cells)
              + (los & np.repeat(draws.mixed[start:stop], cells)))
    realization = np.repeat(np.arange(stop - start), cells)
    cell = np.tile(np.arange(cells), stop - start)
    shadow, phase = draws.los_variates[base + branch[los]].T
    attenuation = shadowed_attenuation(draws.distance[cell[los]], f_hz, env, True, shadow)
    units = draws.units[base:draws.first[stop]]
    drawn = np.array([len(u.normals) for u in units], dtype=int) // 3
    per_set = drawn[branch] if units else np.zeros(len(cell), dtype=int)
    leg = _Leg(cell, los, attenuation, TWO_PI * phase, ClusterSet.empty(),
               np.concatenate([[0], np.cumsum(per_set)]))
    lender = draws.geometry_from   # lends each set its realization's positions
    geometry = None if lender is None else dataclasses.replace(lender.clusters, positions=(
        lender.clusters.positions[_ranges(lender.bounds[start + realization], per_set)]))
    # each set's paths: its branch's draws at its own far point (unnamed: `_path_terms` frees them)
    return _path_terms(draws.row, draws.col, leg, row_frames, place_clusters(
        stack_cluster_variates(env, units), draws.col.position,
        draws.row.position.T[:, np.repeat(cell, per_set)].T, env, f_hz, draws.col.frame, geometry,
        _ranges(np.cumsum(drawn)[branch] - per_set, per_set),
        np.repeat(draws.distance[cell], per_set)) if units else None)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length) of each pair, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def _path_terms(row: DeviceView, col: DeviceView, leg: _Leg, row_frames: np.ndarray | None,
                placed: tuple | None = None) -> _Leg:
    """`leg` with its paths `placed` (`place_clusters`' result, else its own and
    their `path_ends`) and its terms: each one's local direction at the row and
    the column device, in its frame (the row device's per realization with
    `row_frames` (B, 3, 3)), and weight.  Coincident ends raise CoincidentPoints."""
    scattered, los = np.diff(leg.bounds), leg.los
    clusters, (u_col, out_length, u_row, back_length) = placed or (leg.clusters, path_ends(
        leg.clusters.positions.T, col.position, row.position[np.repeat(leg.cell, scattered)]))
    del placed   # each delta is released as its terms are formed, its name reused
    counts = scattered + los
    # from the scattered paths followed by the LOS terms to each set's terms in turn
    total, terms = leg.bounds[-1], len(leg.los_phase)
    order = np.arange(total + terms) - np.repeat(np.cumsum(los) - los, counts)
    order[np.cumsum(counts)[los] - 1] = total + np.arange(terms)

    def slots(paths, los_terms):
        return np.concatenate([paths, los_terms], axis=-1).take(order, axis=-1)

    near, far = col.position[:, None], row.position[leg.cell[los]].T   # (3, 1), (3, L)
    length = np.linalg.norm(far - near, axis=0)
    if not (out_length.all() and back_length.all() and length.all()):
        raise CoincidentPoints("cannot take a direction between coincident points")
    u_row = slots(u_row, near - far)   # the deltas from the row end, then unit, rotated
    u_row /= slots(back_length, length)
    u_row = rotate(u_row.T, row.frame if row_frames is None else row_frames,   # per realization
                   None if row_frames is None else counts.reshape(len(row_frames), -1).sum(1)).T
    u_col = slots(u_col, far - near)
    u_col /= slots(out_length, length)
    u_col = rotate(u_col.T, col.frame).T
    # normalization keeps total scattered power independent of the path count
    amplitude = slots(clusters.gains / np.sqrt(np.repeat(scattered, scattered)),
                      np.exp(1j * leg.los_phase))
    power = slots(clusters.attenuations, leg.los_attenuation)
    return leg._replace(clusters=clusters, u_row=u_row, u_col=u_col,
                        weights=amplitude * np.sqrt(_gain(row, u_row) * _gain(col, u_col) * power))


def _leg_matrices(row: DeviceView, col: DeviceView, leg: _Leg) -> np.ndarray:
    """The (B, K, row.count, col.count) matrices of a leg drawn from `col` to
    the K positions `row.position`: each set sums w * a_row * a_col^T over
    its terms (`_path_terms`), w weighted by both devices' element patterns
    and by 1/sqrt(P) for its P scattered paths, its LOS term one more path.

    No response is formed: the four grid factors of a path (row device's vertical and
    horizontal, then the column device's), the weight folded into the
    first, are split where prefix size + suffix size is least (8 | 32 for
    an 8x8 surface and a 2x2 array), each side's factors are outer-multiplied
    per path, and every set is one (prefix, P) @ (P, suffix) product.  Sets
    with equal path counts run as one stacked product, a lone set too, so a
    set's matrix does not depend on the run or chunk it lands in.  Chunks
    hold at most `PLACEMENT_BUDGET` (prefix + suffix) x path entries or one set.
    """
    counts = (np.diff(leg.bounds) + leg.los).tolist()

    dims = row.grid.shape + col.grid.shape
    split = min(range(1, 4), key=lambda k: math.prod(dims[:k]) + math.prod(dims[k:]))
    prefix, suffix = math.prod(dims[:split]), math.prod(dims[split:])
    matrix = np.zeros((len(counts), prefix, suffix), dtype=complex)
    bounds = np.cumsum([0] + counts).tolist()
    per_chunk = max(1, PLACEMENT_BUDGET // (prefix + suffix))
    start = 0
    while start < len(counts):
        stop = max(start + 1, bisect.bisect_right(bounds, bounds[start] + per_chunk) - 1)
        first, last = bounds[start], bounds[stop]
        at_row = row.grid.factors(leg.u_row[:, first:last].T)
        at_col = col.grid.factors(leg.u_col[:, first:last].T)
        factors = [at_row[:dims[0]] * leg.weights[first:last], at_row[dims[0]:],
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
    leg = _Leg(np.zeros(1, dtype=int), los, np.array([link.attenuation])[los],
               np.array([link.phase])[los], clusters, np.array([0, clusters.total_paths]))
    row = dataclasses.replace(row, position=np.atleast_2d(row.position))
    return _leg_matrices(row, col, _path_terms(row, col, leg, None))[0, 0]


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
    one (`realize_channels`, which drops the axes it names).

    Every matrix of a block carries a realization axis, then a cell axis:
    the K receiver positions for `direct`, the K_k at its `cells` for
    `ris_rx`, one for `tx_ris`.  Surfaces left out have None matrices.
    """

    tx_ris: tuple[np.ndarray | None, ...]   # per surface, (B, 1, N_k, Nt)
    ris_rx: tuple[np.ndarray | None, ...]   # per surface, (B, K_k, Nr, N_k)
    direct: np.ndarray                      # (B, K, Nr, Nt)
    realization: int | range
    los: dict = field(default_factory=dict)
    clusters: dict = field(default_factory=dict)  # ClusterSet per link key, if recorded
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

    `phase_sets` holds one entry per surface; `phase_sets[k] is None`
    models surface k as absent, and a surface the channels left out must
    be.  A cascade enters only the cells its leg was placed at
    (`channels.cells`), its Tx-side leg broadcast over them.
    """
    if len(phase_sets) != len(channels.tx_ris):
        raise DimensionMismatch(f"{len(phase_sets)} phase sets for "
                                f"{len(channels.tx_ris)} surfaces")
    total = channels.direct.astype(complex, copy=True)
    for k, phases in enumerate(phase_sets):
        if phases is not None:
            tx_ris, ris_rx = channels.tx_ris[k], channels.ris_rx[k]
            if tx_ris is None:
                raise DimensionMismatch(f"phases given for surface {k}, which was left out")
            at = (..., channels.cells[k], slice(None), slice(None)) if k in channels.cells else ...
            total[at] += surface_cascade(tx_ris, ris_rx, phases)
    return total


def realize_block(vc: ValidatedConfig, realizations: range, surfaces=None,
                  rx_position=None) -> RealizationChannels:
    """Draw the channel matrices of a block of realizations: `realize_chunks`
    with the whole block as one group and one chunk, recording `clusters`.

    Each realization reads its own substreams, keyed by (seed, realization,
    link) and seeded for the whole block by `block_rngs`, so its index lies
    in [0, 2**32).  The receiver's random orientation is shared by every
    link arriving at it; each surface has its own links, so scenes with
    different surface counts stay paired on the surfaces they share.

    `rx_position` (None = the config's receiver) is one position or a
    (K, 3) stack, each position seeing the draws it would see alone; every
    matrix has the shapes `RealizationChannels` gives, one position a
    stack of one.  `surfaces` maps each surface to realize (others get None
    matrices) to the stack cells its receiver leg is placed at (None =
    all), recorded in `cells`; None realizes every surface at every
    position.  `los` records each link's LOS state per (realization,
    position), `clusters` each link's placed paths.
    """
    whole = len(realizations)
    return next(realize_chunks(vc, realizations, surfaces, rx_position, (whole, whole),
                               record=True))


def realization_chunks(realizations: range, most: int) -> list[range]:
    """Split a range of realizations into the fewest consecutive chunks of
    at most `most` realizations, their sizes differing by at most one."""
    count = -(-len(realizations) // most)
    bounds = [len(realizations) * i // count for i in range(count + 1)]
    return [realizations[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def realize_chunks(vc: ValidatedConfig, realizations: range, surfaces, rx_position,
                   sizes: tuple[int, int], record=False) -> Iterator[RealizationChannels]:
    """The channel matrices of a block (`realize_block`'s arguments), yielded
    chunk by chunk in realization order, each chunk bit for bit its part of
    the whole block's.  The block runs in evenly split groups of at most
    `sizes[0]` realizations, each group in evenly split chunks of at most
    `sizes[1]` (`realization_chunks`).

    Once per group it does what depends neither on the receiver nor on the
    chunks: it draws the receiver frames, seeds and reads every link's
    substreams (`_draw_link`), and draws, places and contracts each
    Tx-surface leg.  Per chunk it places (`_place_link`) and contracts the
    receiver-side legs and slices the group's Tx-side matrices; no name
    holds a chunk once it is yielded.  With `record` (asked only for a
    group of one chunk, whose paths the Tx-side legs hold), `clusters`
    keeps each link's placed paths; else they are released before the
    contraction.
    """
    cfg = vc.config
    seed = cfg.seed
    scene = build_scene(vc, rx_position=rx_position)
    tx = scene.tx
    rx = dataclasses.replace(scene.rx, position=np.atleast_2d(scene.rx.position))
    if surfaces is None:
        surfaces = dict.fromkeys(range(len(scene.ris)))
    cells = {k: c for k, c in surfaces.items() if c is not None}
    force = True if cfg.ris_links == "los" else None
    for group in realization_chunks(realizations, sizes[0]):
        def draw(row: DeviceView, col: DeviceView, force_los, tag: LinkTag, *extra: int,
                 geometry_from=None) -> _Draws:
            return _draw_link(vc, block_rngs(seed, group, tag, *extra), row, col, force_los,
                              geometry_from)

        rx_frames = None
        if cfg.rx_orientation == "random-azimuth":
            # uniform(0, 2 pi) bit for bit, mapped once for the group
            rx_frames = azimuth_rotation_frame(TWO_PI * np.array(
                [rng.random() for rng in block_rngs(seed, group, LinkTag.RX_FRAME)]))
        tx_legs, tx_ris, rx_draws = {}, [None] * len(scene.ris), {}
        for k, at in surfaces.items():
            surface = scene.ris[k]
            fixed = dataclasses.replace(surface, position=surface.position[None])
            leg = _place_link(vc, draw(fixed, tx, force, LinkTag.TX_RIS, k), 0, len(group))
            tx_ris[k] = _leg_matrices(fixed, tx, leg)
            tx_legs[k] = leg = leg._replace(u_row=None, u_col=None, weights=None)   # terms spent
            far = rx if at is None else dataclasses.replace(rx, position=rx.position[at])
            rx_draws[k] = draw(far, surface, force, LinkTag.RIS_RX, k,
                               geometry_from=leg if cfg.shared_clusters else None)
        direct_draws = None   # blocked, without scattered paths
        if cfg.direct_mode != "blocked" or cfg.blocked_keeps_scatter:
            direct_draws = draw(rx, tx, {"blocked": False, "present": True}.get(cfg.direct_mode),
                                LinkTag.DIRECT)

        def realize(chunk: range) -> RealizationChannels:
            a = chunk.start - group.start
            b = a + len(chunk)
            frames = None if rx_frames is None else rx_frames[a:b]
            los, clusters, ris_rx = {}, {}, [None] * len(scene.ris)

            def place(key: str, draws: _Draws) -> np.ndarray:
                leg = _place_link(vc, draws, a, b, frames)
                los[key] = leg.los
                if record:
                    clusters[key] = leg.clusters
                leg = leg._replace(clusters=None)   # the terms hold what the contraction reads
                return _leg_matrices(draws.row, draws.col, leg)

            for k in surfaces:
                los[f"tx_ris_{k}"] = tx_legs[k].los[a:b]
                if record:
                    clusters[f"tx_ris_{k}"] = tx_legs[k].clusters
                ris_rx[k] = place(f"ris_rx_{k}", rx_draws[k])
            if direct_draws is None:
                direct = np.zeros((b - a, len(rx.position), rx.count, tx.count), complex)
                los["direct"] = np.zeros((b - a) * len(rx.position), dtype=bool)
            else:
                direct = place("direct", direct_draws)
            return RealizationChannels(tuple(None if m is None else m[a:b] for m in tx_ris),
                                       tuple(ris_rx), direct, chunk, los, clusters, cells)

        yield from map(realize, realization_chunks(group, sizes[1]))


def realize_channels(vc: ValidatedConfig, realization: int, rx_position=None,
                     surfaces=None) -> RealizationChannels:
    """`realize_block` for the one realization `realization` (in [0, 2**32)),
    the one engine entry that drops axes: the realization axis and the cell
    axis of `tx_ris` always; at one receiver position (not a (K, 3) stack)
    also every other cell axis and `cells`, and `los` maps each link to its
    LOS indicator.  An explicit `rx_position` is checked like the config's
    (`config.check_positions`)."""
    if rx_position is not None:
        check_positions(vc.config, vc.wavelength, np.atleast_2d(rx_position))
    block = realize_block(vc, range(realization, realization + 1), surfaces, rx_position)
    stack = np.ndim(rx_position) == 2
    cell = slice(None) if stack else 0

    def first(matrices, at=cell):
        return tuple(None if m is None else m[0, at] for m in matrices)

    los = {k: v if stack else bool(v[0]) for k, v in block.los.items()}
    return RealizationChannels(first(block.tx_ris, 0), first(block.ris_rx), block.direct[0, cell],
                               realization, los, block.clusters, block.cells if stack else {})
