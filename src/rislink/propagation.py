"""Stochastic large-scale propagation: LOS state, path loss, cluster draws.

Everything here is pure given an RNG substream, so realizations can run in
parallel with per-realization generators and reproduce bit-identically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Environment
from .errors import ModelValidityWarning, NonPositiveDistance
from .geometry import direction_unit

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LinkState:
    """LOS component of one link: indicator, linear attenuation, carrier phase.

    Placed for a stack of far ends (see `place_los`), `attenuation` holds one
    value per far end; they all share the indicator and the phase.
    """

    los: bool
    attenuation: float   # linear, 0 when the LOS component is absent
    phase: float         # radians in [0, 2*pi)


@dataclass(frozen=True)
class ClusterSet:
    """Random clusters and their scatterers for one link.

    `sizes` holds the per-cluster scatterer counts; the flat per-path arrays
    (positions, gains, attenuations) are ordered cluster by cluster.  Placed
    for a stack of K far ends, `centers`, `positions` and `attenuations` gain
    a leading K axis (`positions` keeps (P, 3) when the geometry is shared
    from another link); `sizes` and `gains` never depend on the far end.
    """

    sizes: np.ndarray        # (C,) int
    centers: np.ndarray      # (C, 3) cluster anchor points
    positions: np.ndarray    # (P, 3) scatterer positions, P = sum(sizes)
    gains: np.ndarray        # (P,) complex path gains ~ CN(0, 1)
    attenuations: np.ndarray  # (P,) linear path attenuation incl. shadowing

    @property
    def cluster_count(self) -> int:
        return len(self.sizes)

    @property
    def total_paths(self) -> int:
        return len(self.gains)

    @classmethod
    def empty(cls) -> "ClusterSet":
        return cls(sizes=np.zeros(0, dtype=int), centers=np.zeros((0, 3)),
                   positions=np.zeros((0, 3)), gains=np.zeros(0, dtype=complex),
                   attenuations=np.zeros(0))


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


def los_probability(d: float, env: Environment) -> float:
    """Probability that a link of length `d` meters is line-of-sight."""
    if d <= 0:
        raise NonPositiveDistance(f"distance must be > 0, got {d}")
    model = env.los_model
    if model == "always":
        return 1.0
    if model == "never":
        return 0.0
    if model == "inh":
        if d <= 1.2:
            return 1.0
        if d < 6.5:
            return float(np.exp(-(d - 1.2) / 4.7))
        return float(0.32 * np.exp(-(d - 6.5) / 32.6))
    # street canyon
    frac = min(18.0 / d, 1.0)
    return float(frac + np.exp(-d / 36.0) * (1.0 - frac))


def path_loss(d, f_hz: float, env: Environment, los: bool,
              rng: np.random.Generator):
    """Linear attenuation(s) for path length(s) `d`, including shadow fading.

    Accepts a scalar or an array of distances; one independent shadowing
    draw is consumed per path.  Distances below the 1 m validity floor are
    clamped with a warning.  Returned values are capped at 1 (a passive
    channel never amplifies).
    """
    return shadowed_attenuation(d, f_hz, env, los, rng.standard_normal(np.shape(d)))


def shadowed_attenuation(d, f_hz: float, env: Environment, los: bool, shadow):
    """`path_loss` with its standard-normal shadowing draws given (broadcast against d)."""
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
    return place_los(draw_los_variates(rng), d, f_hz, env)


def draw_los_variates(rng: np.random.Generator) -> tuple:
    """The draws of a LOS component that do not depend on the link length.

    They follow the LOS coin in the link's substream: the shadowing normal,
    then the carrier phase.
    """
    return rng.standard_normal(()), float(rng.uniform(0.0, TWO_PI))


def place_los(variates: tuple, d, f_hz: float, env: Environment) -> LinkState:
    """The LOS component of `draw_los_variates` at link length(s) `d`."""
    shadow, phase = variates
    return LinkState(True, shadowed_attenuation(d, f_hz, env, True, shadow), phase)


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
    return place_clusters(variates, near, far, env, f_hz, near_frame, geometry_from)


def draw_cluster_variates(env: Environment, rng: np.random.Generator,
                          shared_paths: int | None = None) -> ClusterVariates:
    """The draws of `draw_clusters` that do not depend on the link's ends.

    With `shared_paths` (shared-cluster mode) only that many gains and
    shadowing normals are drawn.
    """
    sizes = rep = az = el = radial = d_az = d_el = None
    if shared_paths is None:
        count = max(1, int(rng.poisson(env.cluster_intensity)))
        sizes = rng.integers(env.scatterers_min, env.scatterers_max + 1, size=count)
        az_sup = np.deg2rad(env.cluster_azimuth_deg)
        el_sup = np.deg2rad(env.cluster_elevation_deg)
        az = rng.uniform(-az_sup, az_sup, size=count)
        el = rng.uniform(-el_sup, el_sup, size=count)
        # uniform(1, hi) is 1 + (hi - 1) * random() bit for bit; keeping the
        # unit draw lets one draw serve every link length
        radial = rng.random(count)
        rep = np.repeat(np.arange(count), sizes)
        spread = np.deg2rad(env.scatter_spread_deg)
        d_az = rng.uniform(-spread, spread, size=len(rep))
        d_el = rng.uniform(-spread, spread, size=len(rep))
        total = len(rep)
    else:
        total = shared_paths
    gains = (rng.standard_normal(total) + 1j * rng.standard_normal(total)) / np.sqrt(2.0)
    shadow = rng.standard_normal(total)
    return ClusterVariates(sizes, rep, az, el, radial, d_az, d_el, gains, shadow)


def place_clusters(variates: ClusterVariates, near, far, env: Environment, f_hz: float,
                   near_frame: np.ndarray | None = None,
                   geometry_from: ClusterSet | None = None) -> ClusterSet:
    """Place drawn clusters on the link `near` -> `far`, where `far` is one
    point (3,) or a stack of far ends (K, 3); see `draw_clusters`."""
    near = np.asarray(near, dtype=float)
    far = np.asarray(far, dtype=float)
    if geometry_from is not None:
        sizes = geometry_from.sizes
        centers = geometry_from.centers
        positions = geometry_from.positions
    else:
        if near_frame is None:
            near_frame = np.eye(3)
        sizes = variates.sizes
        link_len = np.linalg.norm(far - near, axis=-1)
        hi = np.maximum(link_len, 1.0 + 1e-9)
        radial = 1.0 + (hi - 1.0)[..., None] * variates.radial
        centers = near + radial[..., None] * (
            direction_unit(variates.azimuth, variates.elevation) @ near_frame)

        rep = variates.cluster
        dirs = direction_unit(variates.azimuth[rep] + variates.d_az,
                              variates.elevation[rep] + variates.d_el) @ near_frame
        positions = near + radial[..., rep, None] * dirs
        positions[..., 2] = np.abs(positions[..., 2])

    if len(variates.gains):
        unfolded = (np.linalg.norm(positions - near, axis=-1)
                    + np.linalg.norm(far[..., None, :] - positions, axis=-1))
        attenuations = shadowed_attenuation(unfolded, f_hz, env, False, variates.shadow)
    else:
        attenuations = np.zeros(far.shape[:-1] + (0,))
    return ClusterSet(sizes=np.asarray(sizes, dtype=int), centers=centers,
                      positions=positions, gains=variates.gains,
                      attenuations=np.atleast_1d(attenuations))
