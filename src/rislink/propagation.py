"""Stochastic large-scale propagation: LOS state, path loss, cluster draws.

Everything here is pure given an RNG substream, so realizations can run in
parallel with per-realization generators and reproduce bit-identically.

A link's substream yields *unit draws* in a fixed order: the LOS coin,
then the LOS shadowing normal and phase uniform (`draw_los_variates`), then
the cluster count, the scatterer counts, the cluster and scatterer angle
uniforms and the normals of the gains and shadowing (`draw_cluster_units`),
each kind in one generator call.  The maps to model values (`low + (high -
low) * u`, which is `Generator.uniform` bit for bit, the complex gains, the
cluster index, the phase) run once over a whole block's draws
(`stack_cluster_variates`, `channel._place_link`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Environment
from .errors import ModelValidityWarning, NonPositiveDistance
from .geometry import direction_unit, rotate

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LinkState:
    """LOS component of one link: indicator, linear attenuation, carrier phase."""

    los: bool
    attenuation: float   # linear, 0 when the LOS component is absent
    phase: float         # radians in [0, 2*pi)


@dataclass(frozen=True)
class ClusterSet:
    """Random clusters and their scatterers for one link.

    `sizes` holds the per-cluster scatterer counts; the flat per-path arrays
    (positions, gains, attenuations) are ordered cluster by cluster.
    """

    sizes: np.ndarray        # (C,) int
    positions: np.ndarray    # (P, 3) scatterer positions, P = sum(sizes)
    gains: np.ndarray        # (P,) complex path gains ~ CN(0, 1)
    attenuations: np.ndarray  # (P,) linear path attenuation incl. shadowing

    @property
    def total_paths(self) -> int:
        return len(self.gains)

    @classmethod
    def empty(cls) -> "ClusterSet":
        return cls(sizes=np.zeros(0, dtype=int), positions=np.zeros((0, 3)),
                   gains=np.zeros(0, dtype=complex), attenuations=np.zeros(0))


class ClusterVariates(NamedTuple):
    """The draws of one link's clusters that do not depend on its far end.

    The geometry fields are None when the geometry is shared from another
    link (only gains and shadowing are drawn then).
    """

    sizes: np.ndarray | None    # (C,) scatterers per cluster
    cluster: np.ndarray | None  # (P,) cluster index of each path
    azimuth: np.ndarray | None  # (C,) cluster departure angles, local frame
    elevation: np.ndarray | None
    radial: np.ndarray | None   # (C,) uniforms on [0, 1) scaling [1, link length]
    d_az: np.ndarray | None     # (P,) per-scatterer angle offsets
    d_el: np.ndarray | None
    gains: np.ndarray           # (P,) complex path gains ~ CN(0, 1)
    shadow: np.ndarray          # (P,) standard normals of the path shadowing


def los_probability(d, env: Environment):
    """Probability that a link of length `d` meters is line-of-sight.

    `d` may be an array of lengths, giving an array; a scalar gives a float.
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance(f"distance must be > 0, got {d}")
    model = env.los_model
    if model in ("always", "never"):
        p = np.full(d.shape, 1.0 if model == "always" else 0.0)
    elif model == "inh":
        p = np.select([d <= 1.2, d < 6.5],
                      [1.0, np.exp(-(d - 1.2) / 4.7)], 0.32 * np.exp(-(d - 6.5) / 32.6))
    else:   # street canyon
        frac = np.minimum(18.0 / d, 1.0)
        p = frac + np.exp(-d / 36.0) * (1.0 - frac)
    return float(p) if p.ndim == 0 else p


def shadowed_attenuation(d, f_hz: float, env: Environment, los: bool, shadow):
    """Linear attenuation(s) for path length(s) `d`, including shadow fading.

    Accepts a scalar or an array of distances; `shadow` holds the
    standard-normal shadowing draws, broadcast against `d`.  Distances below
    the 1 m validity floor are clamped with a warning.  Returned values are
    capped at 1 (a passive channel never amplifies).
    """
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("path length must be > 0")
    if np.any(d < 1.0):
        warnings.warn("path length below 1 m clamped to the model validity floor",
                      ModelValidityWarning, stacklevel=3)
        d = np.maximum(d, 1.0)
    table = env.pl_los if los else env.pl_nlos
    pl_db = (table.intercept_db
             + table.distance_coeff_db * np.log10(d)
             + table.frequency_coeff_db * np.log10(f_hz / 1e9))
    pl_db = pl_db + shadow * table.shadow_sigma_db
    lin = np.minimum(10.0 ** (-pl_db / 10.0), 1.0)
    return float(lin) if lin.ndim == 0 else lin


def draw_link_state(d: float, f_hz: float, env: Environment,
                    rng: np.random.Generator,
                    force_los: bool | None = None) -> LinkState:
    """Draw the LOS component of a link; `force_los` overrides the coin flip."""
    if force_los is None:
        los = bool(rng.uniform() < los_probability(d, env))
    else:
        los = force_los
    if not los:
        return LinkState(False, 0.0, 0.0)
    shadow, phase = draw_los_variates(rng)
    return LinkState(True, shadowed_attenuation(d, f_hz, env, True, shadow), TWO_PI * phase)


def draw_los_variates(rng: np.random.Generator) -> tuple[float, float]:
    """The unit draws of a LOS component, which do not depend on the link length.

    They follow the LOS coin in the link's substream: the shadowing normal,
    then a uniform u on [0, 1) that gives the carrier phase `TWO_PI * u`
    (`uniform(0, TWO_PI)` bit for bit); the channel engine maps the phases
    of a whole block at once.
    """
    return rng.standard_normal(), rng.random()


def draw_clusters(near: np.ndarray, far: np.ndarray, env: Environment,
                  f_hz: float, rng: np.random.Generator,
                  near_frame: np.ndarray | None = None,
                  geometry_from: ClusterSet | None = None) -> ClusterSet:
    """Draw the scattering clusters for the link `near` -> `far`.

    The cluster count is Poisson (clamped to >= 1), scatterer counts per
    cluster are uniform over the configured range.  Cluster anchors are
    placed by departure angles around the near end's broadside and a radial
    distance uniform on [1, link length]; scatterers jitter the cluster
    direction within the configured spread.  Scatterers that land below
    ground are mirrored back above it.

    Per-path attenuation is always evaluated with the non-LOS coefficient
    table at the unfolded near->scatterer->far length, and per-path gains
    are standard complex Gaussian.

    When `geometry_from` is given, its cluster/scatterer geometry is reused
    (shared-cluster mode) and only gains and attenuations are redrawn for
    this link.
    """
    variates = draw_cluster_variates(
        env, rng, None if geometry_from is None else geometry_from.total_paths)
    return place_clusters(variates, near, far, env, f_hz, near_frame, geometry_from)[0]


class ClusterUnits(NamedTuple):
    """One substream's cluster draws as its generator returns them, in stream order.

    The geometry fields are None when the geometry is shared from another
    link (only the normals are drawn then).
    """

    sizes: list[int] | None     # (C,) scatterers per cluster
    angles: np.ndarray | None   # (3C,) uniforms: cluster azimuths, elevations, radials
    offsets: np.ndarray | None  # (2P,) uniforms: scatterer azimuth, elevation offsets
    normals: np.ndarray         # (3P,) standard normals: gain real and imaginary parts, shadowing


def draw_cluster_units(env: Environment, rng: np.random.Generator,
                       shared_paths: int | None = None) -> ClusterUnits:
    """The unit draws of one link's clusters: one generator call per kind.

    With `shared_paths` (shared-cluster mode) only that many paths' normals
    are drawn.  `stack_cluster_variates` maps them to `ClusterVariates`.
    """
    if shared_paths is not None:
        return ClusterUnits(None, None, None, rng.standard_normal(3 * shared_paths))
    count = max(1, int(rng.poisson(env.cluster_intensity)))
    # scalar calls cost less than one sized call here and read the same values
    # and the same stream (tests/test_rng.py pins it)
    sizes = [int(rng.integers(env.scatterers_min, env.scatterers_max + 1)) for _ in range(count)]
    angles = rng.random(3 * count)
    paths = sum(sizes)
    return ClusterUnits(sizes, angles, rng.random(2 * paths), rng.standard_normal(3 * paths))


def draw_cluster_variates(env: Environment, rng: np.random.Generator,
                          shared_paths: int | None = None) -> ClusterVariates:
    """The draws of `draw_clusters` that do not depend on the link's ends.

    With `shared_paths` (shared-cluster mode) only that many gains and
    shadowing normals are drawn.
    """
    return stack_cluster_variates(env, [draw_cluster_units(env, rng, shared_paths)])


def stack_cluster_variates(env: Environment, units: list[ClusterUnits]) -> ClusterVariates:
    """Several substreams' unit draws mapped to their links' variates at once.

    The links' paths are concatenated in order and every map runs once over
    the whole block: `low + (high - low) * u` for each uniform (what
    `Generator.uniform(low, high)` returns for the same stream), gains
    `(re + 1j * im) / sqrt(2)` and the cluster index of each path, so that
    every path keeps its own link's cluster.  Placing the result places each
    link's paths exactly as alone.  All links must share their geometry or
    all draw their own.
    """
    sizes, angles, offsets, normals = zip(*units)
    paths = np.fromiter(map(len, normals), int) // 3
    re, im, shadow = _runs(np.concatenate(normals), paths, 3)
    gains = (re + 1j * im) / np.sqrt(2.0)
    if sizes[0] is None:   # shared geometry: only gains and shadowing
        return ClusterVariates(None, None, None, None, None, None, None, gains, shadow)
    az, el, radial = _runs(np.concatenate(angles), np.fromiter(map(len, sizes), int), 3)
    d_az, d_el = _runs(np.concatenate(offsets), paths, 2)
    sizes = np.concatenate(sizes)
    az_sup = np.deg2rad(env.cluster_azimuth_deg)
    el_sup = np.deg2rad(env.cluster_elevation_deg)
    spread = np.deg2rad(env.scatter_spread_deg)
    # radial stays a unit draw, so one draw serves every link length
    # (`place_clusters` maps it to uniform(1, hi))
    return ClusterVariates(sizes, np.repeat(np.arange(len(sizes)), sizes),
                           _uniform(-az_sup, az_sup, az), _uniform(-el_sup, el_sup, el), radial,
                           _uniform(-spread, spread, d_az), _uniform(-spread, spread, d_el),
                           gains, shadow)


def _uniform(low, high, u: np.ndarray) -> np.ndarray:
    """`Generator.uniform(low, high)` of the stream that gave the unit draws `u`."""
    return low + (high - low) * u


def _runs(values: np.ndarray, lengths: np.ndarray, parts: int) -> list[np.ndarray]:
    """Split streams' concatenated draws, each stream `parts` consecutive runs
    of its `lengths[i]` values, into `parts` arrays over every stream in order."""
    starts = np.cumsum(lengths) - lengths
    index = np.arange(len(values) // parts) + np.repeat((parts - 1) * starts, lengths)
    step = np.repeat(lengths, lengths)   # from a value to the next run's
    out = [values[index]]
    for _ in range(parts - 1):
        index += step
        out.append(values[index])
    return out


def path_ends(positions: np.ndarray, near, far) -> tuple[np.ndarray, ...]:
    """The deltas of scatterers (3, ..., P), stored by component, from the
    point `near` (3,) and from `far` (..., 3), each with its lengths: norms
    over the component axis, the rows' norms bit for bit (tests/test_rng.py)."""
    out = positions - np.expand_dims(near, tuple(range(1, positions.ndim)))
    back = positions - np.moveaxis(np.atleast_2d(far), -1, 0)
    return out, np.linalg.norm(out, axis=0), back, np.linalg.norm(back, axis=0)


def place_clusters(variates: ClusterVariates, near, far, env: Environment, f_hz: float,
                   near_frame: np.ndarray | None = None,
                   geometry_from: ClusterSet | None = None,
                   paths: np.ndarray | None = None, length=None) -> tuple:
    """Place drawn clusters on the link `near` -> `far` (see `draw_clusters`);
    returns them and their `path_ends`, each delta and length taken once.

    `far` (..., 3) broadcasts against the (P,) paths: one point (3,) gets
    every path, a stack (K, 1, 3) gets every path at each far end, and
    (P, 3) gives each path its own far end, so that the paths of several
    links' variates (`stack_cluster_variates`) are placed at once.  Radials
    span the link `length`, |far - near| if not given.

    `paths` (P,) picks the drawn paths to place, in order and possibly
    repeated: path i is drawn path `paths[i]`, so one link's draws are
    placed at several far ends without copying them per end.  Each path's
    departure direction is evaluated once per drawn path.  The result's
    `sizes` are then the drawn clusters' sizes.
    """
    near, far = np.asarray(near, dtype=float), np.asarray(far, dtype=float)
    gains, shadow = variates.gains, variates.shadow
    if paths is not None:
        gains, shadow = gains[paths], shadow[paths]
    sizes = (variates if geometry_from is None else geometry_from).sizes
    if geometry_from is not None:
        positions = geometry_from.positions.T
    else:
        near_frame = np.eye(3) if near_frame is None else near_frame
        hi = np.maximum(np.linalg.norm(far - near, axis=-1) if length is None else length, 1 + 1e-9)
        rep = variates.cluster
        unit = variates.radial[rep]
        dirs = rotate(direction_unit(variates.azimuth[rep] + variates.d_az,
                                     variates.elevation[rep] + variates.d_el), near_frame.T).T
        if paths is not None:
            unit, dirs = unit[paths], dirs[:, paths]
        radial = _uniform(1.0, hi, unit)
        positions = np.stack([n + radial * d for n, d in zip(near, dirs)])
        positions[2] = np.abs(positions[2])

    ends = path_ends(positions, near, far)
    attenuations = shadowed_attenuation(ends[1] + ends[3], f_hz, env, False, shadow)
    return ClusterSet(sizes=np.asarray(sizes, dtype=int), positions=np.moveaxis(positions, 0, -1),
                      gains=gains, attenuations=np.atleast_1d(attenuations)), ends
