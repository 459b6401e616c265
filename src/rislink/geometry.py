"""Deterministic 3D geometry: local frames, angles, steering vectors, element gain.

Conventions used by every module:

* A device frame is a 3x3 array whose ROWS are the local axes expressed in
  global coordinates.  Row 0 is the broadside (aperture normal), rows 1-2
  span the aperture plane (horizontal, then vertical).
* Azimuth is measured in the local horizontal plane from the broadside
  axis (atan2), elevation from the local horizontal towards the local
  vertical.  In the global frame this gives azimuth = atan2(dy, dx) and
  elevation = atan2(dz, hypot(dx, dy)).
* The propagation direction for angles (az, el) in local coordinates is
  u = (cos el * cos az, cos el * sin az, sin el).
* Every array is a planar (rows, cols) element grid in its local y-z plane,
  numbered row-major (element r * cols + c).  Its response to a direction
  u therefore factors as a_vert(u_z) (x) a_horiz(u_y), the Kronecker product
  of one exponential per row and one per column.  `grid_factors` returns
  those rows + cols exponentials; `steering_matrix` takes their outer
  product, and the channel engine contracts them without ever forming it.
* A grid axis is evenly spaced, either centred (a surface) or starting at
  0 (a terminal array).  `grid_factors` is the cos/sin reference; the
  channel engine forms the same factors with `GridAxes` as geometric
  sequences: an 8x8 surface or a 2x2 array costs 2 cos/sin pairs per
  direction, instead of 16 and 4.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CoincidentPoints, DimensionMismatch

GLOBAL_FRAME = np.eye(3)
GLOBAL_FRAME.flags.writeable = False


@lru_cache(maxsize=None)
def frame_from_plane(plane: str, facing: int) -> np.ndarray:
    """Local frame of an aperture mounted on a vertical global plane.

    plane "xz" puts the broadside along +/-y, plane "yz" along +/-x;
    `facing` (+1/-1) selects the half-space the aperture radiates into.
    """
    if plane == "xz":
        normal = np.array([0.0, float(facing), 0.0])
    elif plane == "yz":
        normal = np.array([float(facing), 0.0, 0.0])
    else:
        raise ValueError(f"unknown mounting plane {plane!r} (expected 'xz' or 'yz')")
    horiz = np.cross([0.0, 0.0, 1.0], normal)
    horiz /= np.linalg.norm(horiz)
    vert = np.cross(normal, horiz)
    frame = np.array([normal, horiz, vert])
    frame.flags.writeable = False
    return frame


def azimuth_rotation_frame(alpha) -> np.ndarray:
    """Global frame rotated by `alpha` about the vertical axis (level tilt);
    an array of angles (B,) gives a stack of frames (B, 3, 3)."""
    alpha = np.asarray(alpha, dtype=float)
    c, s = np.cos(alpha), np.sin(alpha)
    frame = np.zeros(alpha.shape + (3, 3))
    frame[..., 0, 0] = frame[..., 1, 1] = c
    frame[..., 0, 1], frame[..., 1, 0] = s, -s
    frame[..., 2, 2] = 1.0
    return frame


def local_directions(origin: np.ndarray, points: np.ndarray,
                     frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions origin->points in `frame` coordinates, plus distances.

    `points` has shape (P, 3); returns (P, 3) unit vectors and (P,) distances.
    Leading axes of `origin` (..., 1, 3) or `points` (..., P, 3) broadcast,
    and so may those of a stack of frames (..., 3, 3).
    """
    delta = np.atleast_2d(points) - np.asarray(origin, dtype=float)
    dist = np.linalg.norm(delta, axis=-1)
    if np.any(dist == 0.0):
        raise CoincidentPoints("cannot take a direction between coincident points")
    return rotate(delta / dist[..., None], frame), dist


def rotate(vectors: np.ndarray, matrix: np.ndarray,
           repeats: np.ndarray | None = None) -> np.ndarray:
    """`matrix @ v` for each (..., 3) vector v, stored by component (a (..., 3) view
    of (3, ...)); `matrix` may be a stack (..., 3, 3), or with `repeats` (M,) a
    stack (M, 3, 3) whose matrix m turns the next repeats[m] of (P, 3) vectors.

    Three products per component, not a matmul (which rounds a lone vector
    differently from a stack), so a vector's result does not depend on its
    stack.  A repeated stack is expanded one entry at a time, never whole.
    """
    x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]

    def entry(k, j):
        return matrix[..., k, j] if repeats is None else np.repeat(matrix[:, k, j], repeats)

    return np.moveaxis(np.stack([x * entry(k, 0) + y * entry(k, 1) + z * entry(k, 2)
                                 for k in range(3)]), 0, -1)


def direction_unit(azimuth, elevation) -> np.ndarray:
    """Local-frame unit vector(s) for the given angles, stored as `rotate`'s are."""
    azimuth = np.asarray(azimuth, float)
    elevation = np.asarray(elevation, float)
    ce = np.cos(elevation)
    return np.moveaxis(np.stack([ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)]),
                       0, -1)


# The powers along an axis restart from a direct exponential every RESTART
# entries, so their rounding drift stays that of at most RESTART - 1 steps.
RESTART = 16


class _AxisForm(NamedTuple):
    """How `GridAxes.factors` forms the n factors exp(j * x[i] * u) of one axis.

    The *run*, entries start..n-1, is evenly spaced: every `block`-th entry
    of it is a direct cos/sin (a *seed*), each entry between is the one
    before it times the step, the first seed (squared if there is no zero
    entry: an even centred axis's run starts half a step from 0).  Before
    the run sit the `mirror` entries, exact conjugates of its entries, and
    the `zero` entry at coordinate +0, whose 1 + j(0 * u) is cos/sin bit for bit.
    """

    seeds: np.ndarray      # coordinate of each seed
    start: int             # first entry of the run
    block: int             # run entries per seed
    mirror: int            # entries 0..mirror-1 are conj of entries n-1..n-mirror
    zero: int | None       # entry at coordinate 0

    @classmethod
    def of(cls, x: np.ndarray) -> _AxisForm:
        """The form of axis `x` (n,), read off its ends: centred, or starting at 0."""
        n = x.size
        if x[0] == -x[-1]:
            mirror, zero = n // 2, n // 2 if n % 2 else None
        elif x[0] == 0.0:
            mirror, zero = 0, 0
        else:
            raise ValueError("a grid axis must be centred or start at 0")
        start = mirror + (zero is not None)
        block = min(n - start, RESTART) or 1
        return cls(x[start::block], start, block, mirror, zero)

    def fill(self, out: np.ndarray, component: np.ndarray) -> None:
        """Write the (..., n, P) factors into `out` for the direction
        component (..., 1, P) that the coordinates multiply."""
        run, block = out[..., self.start:, :], self.block
        seeds = run[..., ::block, :]
        np.multiply(self.seeds[:, None], component, out=seeds.imag)
        np.cos(seeds.imag, out=seeds.real)
        np.sin(seeds.imag, out=seeds.imag)
        if block > 1:
            first = run[..., :1, :]
            step = first if self.zero is not None else first * first
            for i in range(1, block):
                rows = run[..., i::block, :]
                np.multiply(run[..., i - 1::block, :][..., :rows.shape[-2], :], step, out=rows)
        if self.mirror:
            np.conjugate(out[..., -self.mirror:, :], out=out[..., self.mirror - 1::-1, :])
        if self.zero is not None:
            out.real[..., self.zero, :] = 1.0
            np.multiply(0.0, component[..., 0, :], out=out.imag[..., self.zero, :])


class GridAxes:
    """The row and column coordinates of a planar (rows, cols) element grid,
    scaled by 2*pi/lambda, with the form of each axis's factors decided once.

    `vert` (rows,) and `horiz` (cols,) are as for `grid_factors`.  Each axis
    must be evenly spaced in one of the two layouts `config` builds:
    centred (x[0] == -x[-1], a surface) or starting at +0 (a terminal
    array); an axis that is neither raises ValueError.  It costs one cos/sin
    pair per direction and per `RESTART` entries of its computed half (or
    of its entries after 0).  Each factor lies within a few rounding units
    of max|x * u| plus 1e-13 of `grid_factors`, its modulus within 1e-13 of 1.
    """

    def __init__(self, vert: np.ndarray, horiz: np.ndarray):
        self.vert, self.horiz = vert, horiz
        self._forms = (_AxisForm.of(vert), _AxisForm.of(horiz))

    @property
    def shape(self) -> tuple[int, int]:
        return self.vert.size, self.horiz.size

    @property
    def trig_pairs(self) -> int:
        """cos/sin pairs `factors` takes per direction."""
        return sum(form.seeds.size for form in self._forms)

    def factors(self, u_local: np.ndarray) -> np.ndarray:
        """The (..., rows + cols, P) factors towards each direction (see `grid_factors`)."""
        u = np.atleast_2d(u_local)
        if u.shape[-1] != 3:
            raise DimensionMismatch("directions must be 3D")
        (vert, horiz), rows = self._forms, self.vert.size
        factor = np.empty(u.shape[:-2] + (rows + self.horiz.size, u.shape[-2]), dtype=complex)
        vert.fill(factor[..., :rows, :], u[..., None, :, 2])
        horiz.fill(factor[..., rows:, :], u[..., None, :, 1])
        return factor


def grid_factors(vert: np.ndarray, horiz: np.ndarray, u_local: np.ndarray) -> np.ndarray:
    """Per-axis responses of a planar (rows, cols) element grid for each local direction.

    `vert` (rows,) and `horiz` (cols,) are the local vertical coordinate of
    each element row and the horizontal one of each column, scaled by
    2*pi/lambda; every element lies in the aperture plane (local x = 0).
    `u_local` is (P, 3), or a stack (..., P, 3).  Returns the (..., rows +
    cols, P) complex stack of exp(j * vert[r] * u_z) (first `rows` entries)
    and exp(j * horiz[c] * u_y) (the rest): element r * cols + c responds
    with the product of row factor r and column factor c.

    Each factor is cos/sin of its own phase, entry by entry, whatever the
    axes: the reference for the channel engine's `GridAxes`.
    """
    u = np.atleast_2d(u_local)
    if u.shape[-1] != 3:
        raise DimensionMismatch("directions must be 3D")
    phase = np.concatenate([vert[:, None] * u[..., None, :, 2],
                            horiz[:, None] * u[..., None, :, 1]], axis=-2)
    factor = np.empty(phase.shape, dtype=complex)
    factor.real, factor.imag = np.cos(phase), np.sin(phase)
    return factor


def steering_matrix(vert: np.ndarray, horiz: np.ndarray, u_local: np.ndarray) -> np.ndarray:
    """Response of a planar (rows, cols) element grid for each local direction.

    Arguments as for `grid_factors`.  Element r * cols + c (the row-major
    order of `element_positions`) responds with
    exp(j * 2*pi/lambda * <u, r_n>) = exp(j * vert[r] * u_z) * exp(j * horiz[c] * u_y),
    the outer product of the grid factors.  Returns the (..., rows * cols, P)
    complex matrix (stack).
    """
    factor = grid_factors(vert, horiz, u_local)
    rows = vert.size
    response = factor[..., :rows, None, :] * factor[..., None, rows:, :]
    return response.reshape(response.shape[:-3] + (rows * horiz.size, factor.shape[-1]))


def element_gain(theta, q: float):
    """Radiation gain of one reflecting element at angle `theta` off broadside.

    The cos^(2q) pattern with normalization 2(2q+1) integrates to 4*pi over
    the front hemisphere; the back hemisphere (|theta| >= pi/2) gets zero.
    """
    theta = np.asarray(theta, float)
    # cos(pi/2) rounds to 6e-17 > 0, so the hemisphere test is on theta itself
    gain = element_gain_from_cos(np.where(np.abs(theta) < np.pi / 2, np.cos(theta), 0.0), q)
    return float(gain) if gain.ndim == 0 else gain


def element_gain_from_cos(cos_broadside: np.ndarray, q: float) -> np.ndarray:
    """The pattern of `element_gain`, taking cos of the broadside angle directly.

    For a local-frame unit direction u the broadside cosine is u[0]; values
    <= 0 mean the path leaves behind the aperture and contribute zero gain.
    """
    c = np.clip(np.asarray(cos_broadside, float), -1.0, 1.0)
    return np.where(c > 0.0, 2.0 * (2.0 * q + 1.0) * np.maximum(c, 0.0) ** (2.0 * q), 0.0)
