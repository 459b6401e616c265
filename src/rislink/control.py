"""Surface phase-shift selection, surface handover, and link metrics."""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EmptyList, NonFiniteEntries, SingularPinv,
                     SingularPinvWarning)

LOG2 = np.log(2.0)
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhaseAlgorithm:
    """Named phase-control strategy plus optional quantization depth."""

    kind: str              # pinv | siso | random | zero
    bits: int | None = None  # None = continuous phases


@dataclass(frozen=True)
class RateResult:
    """One achievable-rate evaluation with the powers that produced it."""

    rate: float            # bit/s/Hz, >= 0
    pt_dbm: float
    noise_dbm: float
    meta: dict | None = None

    @classmethod
    def from_composite(cls, composite, pt_dbm: float, noise_dbm: float,
                       meta: dict | None = None) -> "RateResult":
        pt = 10.0 ** ((pt_dbm - 30.0) / 10.0)
        noise = 10.0 ** ((noise_dbm - 30.0) / 10.0)
        return cls(achievable_rate(composite, pt, noise), pt_dbm, noise_dbm, meta)


def quantize_phases(phases: np.ndarray, bits: int | None) -> np.ndarray:
    """Snap each phase to the nearest of 2**bits uniformly spaced levels."""
    phases = np.mod(np.asarray(phases, float), TWO_PI)
    if bits is None:
        return phases
    step = TWO_PI / (2 ** bits)
    return np.mod(np.round(phases / step) * step, TWO_PI)


def siso_optimal_phases(h: np.ndarray, g: np.ndarray,
                        bits: int | None = None) -> np.ndarray:
    """Phases that co-phase every element's cascade for a SISO link.

    With theta_n = -(arg h_n + arg g_n) all N terms add in phase, so the
    combined magnitude reaches its maximum sum(|g_n| |h_n|).  The last axis
    runs over the elements; leading (stack) axes broadcast.
    """
    h = np.atleast_1d(np.asarray(h))
    g = np.atleast_1d(np.asarray(g))
    if h.shape[-1] != g.shape[-1]:
        raise DimensionMismatch(f"h and g must have equal length, got {h.shape} vs {g.shape}")
    return quantize_phases(-(np.angle(h) + np.angle(g)), bits)


def pinv_phases(tx_ris: np.ndarray, ris_rx: np.ndarray, direct=None,
                target="identity", bits: int | None = None,
                rcond: float = 0.3,
                fallback_rng: np.random.Generator | None = None) -> np.ndarray:
    """One-shot surface phases from a pseudoinverse sandwich, no iterations.

    Computes X = pinv(ris_rx) @ M @ pinv(tx_ris) for a target effective
    matrix M (default: the identity pattern padded to Nr x Nt) and takes
    the phase of X's diagonal, projecting the response onto unit modulus.
    The direct matrix is accepted for interface completeness; the cascade
    target does not use it.

    `rcond` truncates singular values below that fraction of the largest
    one: without it, a strongly LOS-dominated (near rank-one) link's
    pseudoinverse is dominated by the reciprocals of its weakest modes and
    the extracted phases align noise instead of the dominant path.

    SISO inputs delegate to the closed-form alignment.  Numerical failure
    falls back to a random phase draw (warning) when `fallback_rng` is
    given, otherwise raises SingularPinv.

    `ris_rx` may be a stack (K, Nr, N) of receiver-side legs sharing one
    `tx_ris`, whose pseudoinverse is then taken once; the result is (K, N),
    each row as if computed alone.
    """
    tx_ris = np.atleast_2d(np.asarray(tx_ris))
    ris_rx = np.atleast_2d(np.asarray(ris_rx))
    n, nt = tx_ris.shape
    nr, n2 = ris_rx.shape[-2:]
    if n2 != n:
        raise DimensionMismatch(f"cascade mismatch: tx side is {n}-element, rx side {n2}")
    if nt == 1 and nr == 1:
        return siso_optimal_phases(tx_ris[:, 0], ris_rx[..., 0, :], bits)
    if n < max(nt, nr):
        warnings.warn(f"{n} surface elements for a {nr}x{nt} link; the pseudoinverse "
                      "target is underdetermined", stacklevel=2)
    if isinstance(target, str):
        if target != "identity":
            raise ValueError(f"unknown phase target {target!r}")
        m = np.eye(nr, nt)
    else:
        m = np.asarray(target)
        if m.shape != (nr, nt):
            raise DimensionMismatch(f"target must be {nr}x{nt}, got {m.shape}")
    try:
        # only the diagonal of pinv(ris_rx) @ m @ pinv(tx_ris) is needed
        diag = np.einsum("...ij,ji->...i", np.linalg.pinv(ris_rx, rcond=rcond) @ m,
                         np.linalg.pinv(tx_ris, rcond=rcond))
        if not np.all(np.isfinite(diag)) or not np.all(np.any(diag, axis=-1)):
            raise np.linalg.LinAlgError("degenerate pseudoinverse diagonal")
    except np.linalg.LinAlgError as exc:
        if ris_rx.ndim > 2:
            # redo the stack leg by leg, so only the failing legs fall back,
            # each with the fallback draws it would get alone
            return np.stack([pinv_phases(tx_ris, leg, target=target, bits=bits, rcond=rcond,
                                         fallback_rng=copy.deepcopy(fallback_rng))
                             for leg in ris_rx])
        warnings.warn(f"pseudoinverse phase computation failed ({exc}); "
                      "falling back to random phases", SingularPinvWarning, stacklevel=2)
        if fallback_rng is None:
            raise SingularPinv(str(exc)) from exc
        return baseline_phases("random", n, fallback_rng, bits)
    return quantize_phases(np.angle(diag), bits)


def baseline_phases(kind: str, n: int, rng: np.random.Generator | None = None,
                    bits: int | None = None) -> np.ndarray:
    """Non-adaptive references: an uncontrolled ('random') or static ('zero') surface."""
    if n < 1:
        raise EmptyList("surface must have at least one element")
    if kind == "zero":
        return np.zeros(n)
    if kind == "random":
        if rng is None:
            raise ValueError("random baseline needs an RNG stream")
        return quantize_phases(rng.uniform(0.0, TWO_PI, size=n), bits)
    raise ValueError(f"unknown baseline {kind!r}")


def select_ris(rx_position, ris_list) -> int:
    """Index of the surface closest to the receiver; ties go to the lowest index."""
    if len(ris_list) == 0:
        raise EmptyList("no surfaces to select from")
    rx = np.asarray(rx_position, float)
    positions = [getattr(r, "position", r) for r in ris_list]
    dists = [float(np.linalg.norm(np.asarray(p, float) - rx)) for p in positions]
    return int(np.argmin(dists))


def rate_from_singular_values(singular_values: np.ndarray, pt_watts,
                              noise_watts: float):
    """Achievable rate in bit/s/Hz from the composite channel's singular values."""
    s2 = np.asarray(singular_values, float) ** 2
    rho = np.asarray(pt_watts, float) / noise_watts
    rates = np.sum(np.log1p(np.multiply.outer(rho, s2)), axis=-1) / LOG2
    return float(rates) if rates.ndim == 0 else rates


def achievable_rate(composite: np.ndarray, pt_watts: float,
                    noise_watts: float) -> float:
    """log2 det(I + Pt/sigma^2 * C C^H), evaluated through singular values.

    The SVD route is overflow-safe for large element counts where the raw
    determinant of the Gram matrix is not.
    """
    composite = np.atleast_2d(np.asarray(composite))
    if not np.all(np.isfinite(composite)):
        raise NonFiniteEntries("composite channel contains non-finite entries")
    if noise_watts <= 0:
        raise ValueError("noise power must be positive")
    s = np.linalg.svd(composite, compute_uv=False)
    return float(rate_from_singular_values(s, pt_watts, noise_watts))


def far_field_power(pt_watts: float, n: int, wavelength: float,
                    d1: float, d2: float) -> float:
    """Upper-bound received power of an N-element surface at far-field ranges.

    Phase-coherent combining of all elements gives the N^2 scaling:
    P = Pt * N^2 * lambda^4 / ((4*pi)^2 * d1^2 * d2^2), with antenna and
    element gains taken as unity.
    """
    return pt_watts * n ** 2 * wavelength ** 4 / ((4.0 * np.pi) ** 2 * d1 ** 2 * d2 ** 2)
