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
"""

from __future__ import annotations

from functools import lru_cache

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


def azimuth_rotation_frame(alpha: float) -> np.ndarray:
    """Global frame rotated by `alpha` about the vertical axis (level tilt)."""
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


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


def rotate(vectors: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """`matrix @ v` for each (..., 3) vector v; `matrix` may be a stack (..., 3, 3).

    Summed as three products per component rather than a matmul, which
    rounds a lone vector differently from a stack: each vector's result
    does not depend on the stack it comes in.
    """
    x, y, z = vectors[..., 0], vectors[..., 1], vectors[..., 2]
    return np.stack([x * matrix[..., k, 0] + y * matrix[..., k, 1] + z * matrix[..., k, 2]
                     for k in range(3)], axis=-1)


def direction_unit(azimuth, elevation) -> np.ndarray:
    """Local-frame unit vector(s) for the given angles; stacks on the last axis."""
    azimuth = np.asarray(azimuth, float)
    elevation = np.asarray(elevation, float)
    ce = np.cos(elevation)
    return np.stack([ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)],
                    axis=-1)


def grid_factors(vert: np.ndarray, horiz: np.ndarray, u_local: np.ndarray) -> np.ndarray:
    """Per-axis responses of a planar (rows, cols) element grid for each local direction.

    `vert` (rows,) and `horiz` (cols,) are the local vertical coordinate of
    each element row and the horizontal one of each column, scaled by
    2*pi/lambda; every element lies in the aperture plane (local x = 0).
    `u_local` is (P, 3), or a stack (..., P, 3).  Returns the (..., rows +
    cols, P) complex stack of exp(j * vert[r] * u_z) (first `rows` entries)
    and exp(j * horiz[c] * u_y) (the rest): element r * cols + c responds
    with the product of row factor r and column factor c.
    """
    u = np.atleast_2d(u_local)
    if u.shape[-1] != 3:
        raise DimensionMismatch("directions must be 3D")
    phase = np.concatenate([vert[:, None] * u[..., None, :, 2],
                            horiz[:, None] * u[..., None, :, 1]], axis=-2)
    factor = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=factor.real)
    np.sin(phase, out=factor.imag)
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
