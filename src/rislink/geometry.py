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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CoincidentPoints, DimensionMismatch

GLOBAL_FRAME = np.eye(3)
GLOBAL_FRAME.flags.writeable = False


@dataclass(frozen=True)
class AngleSet:
    """Direction of one point seen from another, in the observer's frame."""

    azimuth: float     # radians
    elevation: float   # radians, in [-pi/2, pi/2]
    distance: float    # meters


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
    Leading axes of `origin` (..., 1, 3) or `points` (..., P, 3) broadcast.
    """
    delta = np.atleast_2d(points) - np.asarray(origin, dtype=float)
    dist = np.linalg.norm(delta, axis=-1)
    if np.any(dist == 0.0):
        raise CoincidentPoints("cannot take a direction between coincident points")
    return (delta / dist[..., None]) @ frame.T, dist


def geometry_relation(frm, to, frame: np.ndarray | None = None) -> AngleSet:
    """Distance and local-frame (azimuth, elevation) of `to` as seen from `frm`."""
    if frame is None:
        frame = GLOBAL_FRAME
    u, dist = local_directions(np.asarray(frm, float), np.asarray(to, float), frame)
    u = u[0]
    azimuth = np.arctan2(u[1], u[0])
    elevation = np.arctan2(u[2], np.hypot(u[0], u[1]))
    return AngleSet(float(azimuth), float(elevation), float(dist[0]))


def direction_unit(azimuth, elevation) -> np.ndarray:
    """Local-frame unit vector(s) for the given angles; stacks on the last axis."""
    azimuth = np.asarray(azimuth, float)
    elevation = np.asarray(elevation, float)
    ce = np.cos(elevation)
    return np.stack([ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)],
                    axis=-1)


def steering_matrix(element_positions: np.ndarray, u_local: np.ndarray,
                    wavelength: float) -> np.ndarray:
    """Array response for each local direction in `u_local`.

    `element_positions` is (n, 3) in meters, local coordinates;
    `u_local` is (P, 3).  Returns an (n, P) complex matrix of unit-modulus
    entries exp(j * 2*pi/lambda * <u, r_n>); a stack of directions
    (..., P, 3) gives a stack of matrices (..., n, P).
    """
    if element_positions.shape[-1] != 3 or u_local.shape[-1] != 3:
        raise DimensionMismatch("element positions and directions must be 3D")
    phase = (2.0 * np.pi / wavelength) * (
        element_positions @ np.atleast_2d(u_local).swapaxes(-1, -2))
    response = 1j * phase
    return np.exp(response, out=response)   # in place: one complex array, not two


def steering_vector(spec, angles: AngleSet, wavelength: float) -> np.ndarray:
    """Array response of `spec` (ArraySpec or RisSpec) for one direction."""
    u = direction_unit(angles.azimuth, angles.elevation)
    return steering_matrix(spec.element_positions(wavelength), u[None, :],
                           wavelength)[:, 0]


def element_gain(theta, q: float):
    """Radiation gain of one reflecting element at angle `theta` off broadside.

    The cos^(2q) pattern with normalization 2(2q+1) integrates to 4*pi over
    the front hemisphere; the back hemisphere (|theta| >= pi/2) gets zero.
    """
    theta = np.asarray(theta, float)
    front = np.abs(theta) < np.pi / 2
    gain = np.where(front, 2.0 * (2.0 * q + 1.0) * np.cos(np.where(front, theta, 0.0)) ** (2.0 * q), 0.0)
    if gain.ndim == 0:
        return float(gain)
    return gain


def element_gain_from_cos(cos_broadside: np.ndarray, q: float) -> np.ndarray:
    """Same pattern as `element_gain`, taking cos of the broadside angle directly.

    For a local-frame unit direction u the broadside cosine is u[0]; values
    <= 0 mean the path leaves behind the aperture and contribute zero gain.
    """
    c = np.clip(np.asarray(cos_broadside, float), -1.0, 1.0)
    return np.where(c > 0.0, 2.0 * (2.0 * q + 1.0) * np.maximum(c, 0.0) ** (2.0 * q), 0.0)
