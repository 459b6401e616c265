"""Channel matrix assembly from geometry and cluster draws.

The three matrices of a scene are built from the same primitive: a sum of
outer products of array responses over scattered paths, plus an optional
LOS rank-one term.  The surface's element radiation pattern multiplies the
surface-side leg of each path; transmitter and receiver elements are
isotropic.  Paths leaving behind a surface's aperture get zero gain rather
than raising an error.

One engine draws every matrix (`realize_chunks`): a block of realizations
towards a stack of receiver positions, each matrix with its (realization,
cell) axes (only `realize_channels` drops them), yielded chunk by chunk;
`realize_block` is the block as one group and one chunk.  Once per group
of realizations it seeds each link's substreams and draws the receiver
frames, each link one record (`_Link`).  Each chunk is then placed
(`_place_chunk`: in one pass, `_place_links`, every link drawing its own
geometry, with the group's first chunk its Tx-surface links) and its legs
contracted (`_contract_chunk`, the group's Tx-side matrices sliced).  A
pass forms its legs' *terms* (a LOS term one more path) on (3, P)
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
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ValidatedConfig, check_positions, is_count
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


# A leg's paths are contracted in chunks of at most this many (entry, path)
# pairs, 16 bytes each, counting every entry a chunk forms a path: both
# devices' grid factors (rows + cols each) and the two Khatri-Rao sides
# (prefix + suffix), 60 for an 8x8 surface and a 2x2 array, 819 paths a
# chunk.  Freed chunk by chunk, the benchmark map's legs allocate 0.85-0.98
# MB beyond their matrices against the 0.79 MB counted (`_outer`'s
# intermediate is not).  A path set is never split (its matrix is one
# product wherever it lands), so one set's paths bound the workspace from
# below.  How many realizations a block realizes at once is its own budget
# (`campaign.CHUNK_BUDGET`).
PLACEMENT_BUDGET = 49152


class _Leg(NamedTuple):
    """One link drawn for a block of realizations towards K far points: one
    *path set* per (realization, far point), in that (row-major) order, and
    its *terms*: its scattered paths, then its LOS term (`_path_terms`)."""

    los: np.ndarray              # (S,) bool
    los_attenuation: np.ndarray  # (L,) per LOS set, in order
    los_phase: np.ndarray        # (L,)
    clusters: ClusterSet | None  # every set's paths, placed, concatenated in order; its
                                 # sizes are the drawn groups' (`place_clusters`' paths)
    bounds: np.ndarray           # (S + 1,) offsets of each set's paths
    u_row: np.ndarray | None = None    # (3, T), T = P + L, at the row device
    u_col: np.ndarray | None = None    # (3, T) at the column device
    weights: np.ndarray | None = None  # (T,) complex


class _Link(NamedTuple):
    """A link of a block from device `col` to each far point `row.position`
    (K, 3): one substream a realization, its LOS state if forced, the
    `lender` of its cluster geometry under shared clusters (in a group the
    Tx-surface link's key, in a pass that link's leg over the same
    realizations) and a randomly oriented receiver's frames (B, 3, 3)."""

    role: str   # "tx_ris" (placed and contracted once per group), "ris_rx" or "direct"
    rngs: list
    row: DeviceView
    col: DeviceView
    force_los: bool | None = None
    lender: str | _Leg | None = None
    row_frames: np.ndarray | None = None

    def matrix(self, clusters: ClusterSet, state: LinkState) -> np.ndarray:
        """The link's matrix towards one far point, given its clusters and LOS state."""
        los = np.array([state.los])
        leg = _Leg(los, np.array([state.attenuation])[los],
                   np.array([state.phase])[los], clusters, np.array([0, clusters.total_paths]))
        row = dataclasses.replace(self.row, position=np.atleast_2d(self.row.position))
        placed = clusters, path_ends(clusters.positions.T, self.col.position, row.position)
        ends = self.col.position[None], row.position
        return _leg_matrices(row, self.col, _path_terms([self], [0, 1], leg, placed, ends))[0, 0]


def _place_links(vc: ValidatedConfig, links: list[_Link]) -> list[tuple[_Link, _Leg]]:
    """Each link with its leg: its draws, one substream a realization,
    placed at its far points with the leg's terms (`_path_terms`).

    The LOS coin splits a realization's far points into an NLOS and a LOS
    branch, each reading its own variates: the NLOS branch reads on from
    the coin (from a copy of the stream when both branches exist), the LOS
    branch after the LOS variates.  Each far point so sees exactly the
    draws it would see alone, and any slice of the streams places exactly
    as the whole.  A `lender` lends each realization its cluster geometry,
    so only its paths' normals are drawn.  The links, all drawing or all
    borrowing their geometry, are placed in one pass, each leg its run of
    it bit for bit.
    """
    env, f_hz = vc.config.environment, vc.config.frequency_hz
    # per branch of every link: its LOS draws and units; per link: its sets and clusters' sizes
    los_draws, units, runs, sizes = [], [], [], []
    for link in links:
        d = np.linalg.norm(link.row.position - link.col.position, axis=-1)
        if link.force_los is None:   # a coin below p_los[k] puts far point k in LOS
            p_los = los_probability(d, env)
            p_any, p_all = float(p_los.max()), float(p_los.min())
        shared = ([None] * len(link.rngs) if link.lender is None
                  else np.diff(link.lender.bounds).tolist())
        coins, first, mixed, first_unit = [], [], [], len(units)
        for i, rng in enumerate(link.rngs):
            if link.force_los is None:
                coin = rng.random()
                coins.append(coin)
                any_los, split = coin < p_any, p_all <= coin < p_any
            else:
                any_los, split = link.force_los, False
            first.append(len(los_draws))
            mixed.append(split)
            for branch in (False, True) if split else (any_los,):
                # the NLOS branch reads on from the coin, ahead of the LOS draws
                stream = copy.deepcopy(rng) if split and not branch else rng
                los_draws.append(draw_los_variates(stream) if branch else (0.0, 0.0))
                if vc.config.scatter_paths:
                    units.append(draw_cluster_units(env, stream, shared[i]))
        cells = len(d)
        los = (np.full(len(link.rngs) * cells, bool(link.force_los))
               if link.force_los is not None else (np.array(coins)[:, None] < p_los).ravel())
        cell = np.tile(np.arange(cells), len(link.rngs))
        # each set's LOS state, branch, link length, near and far point
        runs.append((los, np.repeat(first, cells) + (los & np.repeat(mixed, cells)), d[cell],
                     np.broadcast_to(link.col.position, (len(cell), 3)), link.row.position[cell]))
        sizes.append(np.array([n for u in units[first_unit:] for n in u.sizes], dtype=int)
                     if link.lender is None else _lent_sizes(link.lender))
    los, branch, d, near, far = map(np.concatenate, zip(*runs))
    shadow, phase = np.array(los_draws, dtype=float).reshape(-1, 2)[branch[los]].T
    attenuation = shadowed_attenuation(d[los], f_hz, env, True, shadow)
    unit_paths = np.array([len(u.normals) for u in units], dtype=int) // 3
    per_set = unit_paths[branch] if units else np.zeros(len(los), dtype=int)
    leg = _Leg(los, attenuation, TWO_PI * phase, None,
               np.concatenate([[0], np.cumsum(per_set)]))
    starts = np.cumsum([0] + [len(run[0]) for run in runs])   # each link's first set

    def placed() -> tuple:
        """Each set's paths: its branch's draws at its own ends, each link's
        from its device (a call, so that no name here holds them, or their
        per-path ends, while `_path_terms` spends them)."""
        if not units:
            return ClusterSet.empty(), (np.zeros((3, 0)), np.zeros(0), np.zeros((3, 0)),
                                        np.zeros(0))
        geometry = None if links[0].lender is None else ClusterSet(   # each set its realization's
            np.concatenate(sizes), np.concatenate([link.lender.clusters.positions[_ranges(
                np.repeat(link.lender.bounds[:-1], len(link.row.position)), per_set[a:b])]
                for link, a, b in zip(links, starts, starts[1:])]), None, None)
        at = np.repeat(np.arange(len(los)), per_set)
        return place_clusters(stack_cluster_variates(env, units),
                              np.array([link.col.position for link in links]), far[at], env, f_hz,
                              np.array([link.col.frame for link in links]), geometry,
                              _ranges(np.cumsum(unit_paths)[branch] - per_set, per_set),
                              d[at], [s.sum() for s in sizes], np.diff(leg.bounds[starts]).tolist())

    leg = _path_terms(links, starts, leg, placed(), (near, far))
    c, pairs = leg.clusters, []
    # each link's first set, LOS draw, path and term
    firsts = [starts] + [np.concatenate([[0], np.cumsum(n)])[starts]
                         for n in (los, per_set, per_set + los)]
    for i, link in enumerate(links):
        s, ls, p, t = (slice(first[i], first[i + 1]) for first in firsts)
        pairs.append((link, _Leg(
            leg.los[s], leg.los_attenuation[ls], leg.los_phase[ls],
            ClusterSet(sizes[i], c.positions[p], c.gains[p], c.attenuations[p]),
            leg.bounds[s.start:s.stop + 1] - p.start, leg.u_row[:, t], leg.u_col[:, t],
            leg.weights[t])))
    return pairs


def _lent_sizes(lender: _Leg) -> np.ndarray:
    """The sizes of a lender's clusters whose paths lie within its `bounds`,
    which a chunk slices to its own realizations."""
    sizes = lender.clusters.sizes
    first = np.cumsum(sizes) - sizes   # each cluster's first path; no cluster is empty
    return sizes[(first >= lender.bounds[0]) & (first < lender.bounds[-1])]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [start, start + length) of each pair, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + lengths, lengths)


def _path_terms(links: list[_Link], starts, leg: _Leg, placed: tuple, ends: tuple) -> _Leg:
    """`leg` with its paths `placed` (`place_clusters`' result) and its terms:
    each one's local direction at the row and the column device of its link
    (the sets `starts[i]:starts[i + 1]` its link `links[i]`'s), in its frame
    (the row device's per realization with `row_frames`), and weight, a LOS
    term between its set's `ends` (near, far) (S, 3).  Coincident ends raise
    CoincidentPoints."""
    scattered, los = np.diff(leg.bounds), leg.los
    clusters, (u_col, out_length, u_row, back_length) = placed
    del placed   # each delta is released as its terms are formed, its name reused
    counts = scattered + los
    # from the scattered paths followed by the LOS terms to each set's terms in turn
    total, terms = leg.bounds[-1], len(leg.los_phase)
    order = np.arange(total + terms) - np.repeat(np.cumsum(los) - los, counts)
    order[np.cumsum(counts)[los] - 1] = total + np.arange(terms)

    def slots(paths, los_terms):
        """A (3, T) array one component at a time, so only one is ever copied
        twice; "clip" (every index is in range) lets `take` write into the
        result unbuffered."""
        if paths.ndim == 1:
            return np.concatenate([paths, los_terms]).take(order)
        out = np.empty((len(paths), total + terms), np.result_type(paths, los_terms))
        for row, p, q in zip(out, paths, los_terms):
            np.concatenate([p, q]).take(order, out=row, mode="clip")
        return out

    near, far = (end[los].T for end in ends)   # each LOS term's, (3, L)
    length = np.linalg.norm(far - near, axis=0)
    if not (out_length.all() and back_length.all() and length.all()):
        raise CoincidentPoints("cannot take a direction between coincident points")
    u_row = slots(u_row, near - far)   # the deltas from the row end, then unit, rotated
    u_row /= slots(back_length, length)
    u_col = slots(u_col, far - near)
    u_col /= slots(out_length, length)
    gain = np.empty(total + terms)   # both devices' element patterns, per link
    bounds = np.concatenate([[0], np.cumsum(counts)])
    for link, a, b in zip(links, starts, starts[1:]):
        at, frames = slice(bounds[a], bounds[b]), link.row_frames
        u_row[:, at] = rotate(u_row[:, at].T, link.row.frame if frames is None else frames,
                              None if frames is None   # per realization
                              else counts[a:b].reshape(len(frames), -1).sum(1)).T
        u_col[:, at] = rotate(u_col[:, at].T, link.col.frame).T
        gain[at] = _gain(link.row, u_row[:, at]) * _gain(link.col, u_col[:, at])
    # normalization keeps total scattered power independent of the path count
    amplitude = slots(clusters.gains / np.sqrt(np.repeat(scattered, scattered)),
                      np.exp(1j * leg.los_phase))
    power = slots(clusters.attenuations, leg.los_attenuation)
    return leg._replace(clusters=clusters, u_row=u_row, u_col=u_col,
                        weights=amplitude * np.sqrt(gain * power))


def _leg_matrices(row: DeviceView, col: DeviceView, leg: _Leg) -> np.ndarray:
    """The (B, K, row.count, col.count) matrices of a leg drawn from `col` to
    the K positions `row.position`: each set sums w * a_row * a_col^T over
    its terms (`_path_terms`), w weighted by both devices' element patterns
    and by 1/sqrt(P) for its P scattered paths, its LOS term one more path.

    No response is formed: the four grid factors of a path (row device's vertical and
    horizontal, then the column device's), the weight folded into the
    first in place, are split where prefix size + suffix size is least (8 |
    32 for an 8x8 surface and a 2x2 array), each side's factors are
    outer-multiplied per path, and every set is one (prefix, P) @ (P, suffix)
    product.  Sets with equal path counts run as one stacked product, a lone
    set too, so a set's matrix does not depend on the run or chunk it lands
    in.  A chunk holds at most `PLACEMENT_BUDGET` entries, counting per path
    both devices' factors and both sides (20 + 40 for those devices), or
    one set; its arrays are released before the next chunk forms its own.
    """
    counts = (np.diff(leg.bounds) + leg.los).tolist()

    dims = row.grid.shape + col.grid.shape
    split = min(range(1, 4), key=lambda k: math.prod(dims[:k]) + math.prod(dims[k:]))
    prefix, suffix = math.prod(dims[:split]), math.prod(dims[split:])
    matrix = np.zeros((len(counts), prefix, suffix), dtype=complex)
    bounds = np.cumsum([0] + counts).tolist()
    per_chunk = max(1, PLACEMENT_BUDGET // (sum(dims) + prefix + suffix))
    start = 0
    while start < len(counts):
        stop = max(start + 1, bisect.bisect_right(bounds, bounds[start] + per_chunk) - 1)
        first, last = bounds[start], bounds[stop]
        at_row = row.grid.factors(leg.u_row[:, first:last].T)
        at_col = col.grid.factors(leg.u_col[:, first:last].T)
        at_row[:dims[0]] *= leg.weights[first:last]
        factors = [at_row[:dims[0]], at_row[dims[0]:], at_col[:dims[2]], at_col[dims[2]:]]
        left, right = _outer(factors[:split]), _outer(factors[split:])
        lo = start
        while lo < stop:   # each run of sets with equal path counts is one stacked product
            paths, hi = counts[lo], lo + 1
            while hi < stop and counts[hi] == paths:
                hi += 1
            own = slice(bounds[lo] - first, bounds[hi] - first)
            if hi - lo == 1:   # the same product, without the stacking views
                np.matmul(left[:, own], right[:, own].T, out=matrix[lo])
            else:
                np.matmul(left[:, own].reshape(prefix, hi - lo, paths).transpose(1, 0, 2),
                          right[:, own].reshape(suffix, hi - lo, paths).transpose(1, 2, 0),
                          out=matrix[lo:hi])
            lo = hi
        del at_row, at_col, factors, left, right   # before the next chunk forms its own
        start = stop
    return matrix.reshape(-1, len(row.position), row.count, col.count)


def _outer(factors: list[np.ndarray]) -> np.ndarray:
    """Per-path outer product of (d_i, P) factors: the (prod d_i, P) Khatri-Rao product."""
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(len(out) * len(f), out.shape[-1])
    return out


def assemble_link_channel(side: str, clusters: ClusterSet, link: LinkState,
                          scene: Scene, ris_index: int = 0) -> np.ndarray:
    """One surface leg: 'tx-ris' gives the (N, Nt) matrix, 'ris-rx' the (Nr, N) one."""
    surface = scene.ris[ris_index]
    if side == "tx-ris":
        return _Link("tx_ris", [], surface, scene.tx).matrix(clusters, link)
    if side == "ris-rx":
        return _Link("ris_rx", [], scene.rx, surface).matrix(clusters, link)
    raise ValueError(f"side must be 'tx-ris' or 'ris-rx', got {side!r}")


def assemble_direct_channel(clusters: ClusterSet, link: LinkState,
                            scene: Scene) -> np.ndarray:
    """The (Nr, Nt) terminal-to-terminal matrix; no element pattern applies."""
    return _Link("direct", [], scene.rx, scene.tx).matrix(clusters, link)


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
    with the whole block as one group and one chunk.

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
    all; an empty list is a ValueError), recorded in `cells`; None realizes
    every surface at every position.  `los` records each link's LOS state
    per (realization, position).
    """
    whole = len(realizations)
    return next(realize_chunks(vc, realizations, surfaces, rx_position, (whole, whole)))


def realization_chunks(realizations: range, most: int) -> list[range]:
    """Split a range of realizations into the fewest consecutive chunks of
    at most `most` realizations, their sizes differing by at most one."""
    count = -(-len(realizations) // most)
    bounds = [len(realizations) * i // count for i in range(count + 1)]
    return [realizations[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def realize_chunks(vc: ValidatedConfig, realizations: range, surfaces, rx_position,
                   sizes: tuple[int, int]) -> Iterator[RealizationChannels]:
    """The channel matrices of a block (`realize_block`'s arguments), yielded
    chunk by chunk in realization order, each chunk bit for bit its part of
    the whole block's.  The block, which may not be empty, runs in evenly
    split groups of at most `sizes[0]` realizations, each group in evenly
    split chunks of at most `sizes[1]` (`realization_chunks`).

    Once per group it seeds every link's substreams (`block_rngs`) and draws
    the receiver frames, each link a record (`_Link`); each chunk is placed
    (`_place_chunk`), then contracted (`_contract_chunk`), and no name holds
    it once it is yielded.  A `surfaces` key that is not a surface's index,
    or cells that are not strictly increasing indices into the receiver
    stack, are a ValueError.
    """
    if not realizations:
        raise ValueError(f"a block needs at least one realization, got {realizations}")
    cfg = vc.config
    scene = build_scene(vc, rx_position=rx_position)
    rx = dataclasses.replace(scene.rx, position=np.atleast_2d(scene.rx.position))
    scene, stack = dataclasses.replace(scene, rx=rx), len(rx.position)
    if not stack:
        raise ValueError("a block needs at least one receiver position, got an empty stack")
    if surfaces is None:
        surfaces = dict.fromkeys(range(len(scene.ris)))
    for k, at in surfaces.items():
        if not (is_count(k) and 0 <= k < len(scene.ris)):
            raise ValueError(f"surface key {k!r} is not a surface index in [0, {len(scene.ris)})")
        if at is not None and not (len(at) and all(map(is_count, at)) and 0 <= at[0]
                                   and at[-1] < stack and (np.diff(at) > 0).all()):
            raise ValueError(f"surface {k} is realized at no cell, or at cells that are not "
                             f"strictly increasing whole numbers in [0, {stack}), got {at!r}; "
                             "leave a surface realized nowhere out of `surfaces`")
    cells = {k: c for k, c in surfaces.items() if c is not None}
    force = True if cfg.ris_links == "los" else None
    for group in realization_chunks(realizations, sizes[0]):
        rx_frames = None
        if cfg.rx_orientation == "random-azimuth":
            # uniform(0, 2 pi) bit for bit, mapped once for the group
            rx_frames = azimuth_rotation_frame(TWO_PI * np.array(
                [rng.random() for rng in block_rngs(cfg.seed, group, LinkTag.RX_FRAME)]))
        # every link by key, its substreams the group's
        links, rngs = {}, functools.partial(block_rngs, cfg.seed, group)
        for k, at in surfaces.items():
            surface = scene.ris[k]
            links[f"tx_ris_{k}"] = _Link("tx_ris", rngs(LinkTag.TX_RIS, k), dataclasses.replace(
                surface, position=surface.position[None]), scene.tx, force)
            links[f"ris_rx_{k}"] = _Link(
                "ris_rx", rngs(LinkTag.RIS_RX, k),
                rx if at is None else dataclasses.replace(rx, position=rx.position[at]), surface,
                force, f"tx_ris_{k}" if cfg.shared_clusters else None, rx_frames)
        if cfg.direct_mode != "blocked" or cfg.blocked_keeps_scatter:   # else no paths
            links["direct"] = _Link("direct", rngs(LinkTag.DIRECT), rx, scene.tx, {
                "blocked": False, "present": True}.get(cfg.direct_mode), None, rx_frames)
        lenders, tx_side = {}, {}   # the group's lending Tx-surface legs; each one's channels
        for chunk in realization_chunks(group, sizes[1]):
            at = slice(chunk.start - group.start, chunk.stop - group.start)
            yield _contract_chunk(scene, _place_chunk(vc, links, lenders, at), tx_side,
                                  chunk, at, cells)


def _place_chunk(vc: ValidatedConfig, links: dict, lenders: dict, at: slice) -> dict:
    """A chunk's legs by key, each with the record it was placed for: the
    realizations `at` of its group's `links`, a Tx-surface one's for the
    whole group with its first chunk.  One pass places those drawing their
    own geometry, a second those borrowing it from `lenders`, the group's
    lending legs; their paths are released but for a lender's copy."""
    legs = {}
    for lent in (False, True):   # the links drawing their own geometry, then the others
        batch = {key: link if link.role == "tx_ris" else link._replace(
            rngs=link.rngs[at], row_frames=None if link.row_frames is None else link.row_frames[at],
            lender=lenders[link.lender]._replace(bounds=lenders[link.lender].bounds[
                at.start:at.stop + 1]) if lent else None)
            for key, link in links.items()
            if (link.lender is not None) == lent and not (at.start and link.role == "tx_ris")}
        for key, (link, leg) in zip(batch, _place_links(vc, list(batch.values())) if batch else ()):
            if link.role == "tx_ris" and vc.config.shared_clusters:
                # a lender outlives the pass, which a view of its paths would pin
                lenders[key] = leg._replace(clusters=copy.deepcopy(leg.clusters), u_row=None,
                                            u_col=None, weights=None)
            legs[key] = link, leg._replace(clusters=None)   # the terms suffice
    return legs


def _contract_chunk(scene: Scene, legs: dict, tx_side: dict, chunk: range, at: slice,
                    cells: dict) -> RealizationChannels:
    """A chunk's channels from its legs (`_place_chunk`) at the receiver
    stack of `scene`: each leg's LOS states and matrices, a Tx-surface leg's
    kept in `tx_side` for its group, which each chunk slices to `at`."""
    channels = {key: (leg.los, _leg_matrices(link.row, link.col, leg))
                for key, (link, leg) in legs.items()}
    tx_side.update((key, channels[key]) for key, (link, _) in legs.items() if link.role == "tx_ris")
    channels.update((key, (los[at], matrix[at])) for key, (los, matrix) in tx_side.items())
    if "direct" not in channels:
        shape = len(chunk), len(scene.rx.position)
        channels["direct"] = (np.zeros(math.prod(shape), dtype=bool),
                              np.zeros((*shape, scene.rx.count, scene.tx.count), complex))
    matrices = {key: matrix for key, (_, matrix) in channels.items()}
    ris = range(len(scene.ris))
    return RealizationChannels(tuple(matrices.get(f"tx_ris_{k}") for k in ris),
                               tuple(matrices.get(f"ris_rx_{k}") for k in ris), matrices["direct"],
                               chunk, {key: los for key, (los, _) in channels.items()}, cells)


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
                               realization, los, block.cells if stack else {})
