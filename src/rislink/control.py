"""Surface phase-shift selection, surface handover, and link metrics."""

from __future__ import annotations

import warnings
from collections.abc import Callable

import numpy as np

from .errors import (DimensionMismatch, EmptyList, NonFiniteEntries, SingularPinv,
                     SingularPinvWarning)

LOG2 = np.log(2.0)
TWO_PI = 2.0 * np.pi


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


PINV_RCOND = 0.3   # `pinv_phases` truncates singular values below this fraction of the largest


def pinv_phases(tx_ris: np.ndarray, ris_rx: np.ndarray, bits: int | None = None,
                fallback_rng: Callable[[int], np.random.Generator] | None = None) -> np.ndarray:
    """One-shot surface phases from a pseudoinverse sandwich, no iterations.

    Computes X = pinv(ris_rx) @ M @ pinv(tx_ris) for the target effective
    matrix M, the identity pattern padded to Nr x Nt, and takes the phase
    of X's diagonal, projecting the response onto unit modulus.

    rcond (`PINV_RCOND`) truncates singular values below that fraction of
    the largest one: without it, a strongly LOS-dominated (near rank-one)
    link's pseudoinverse is dominated by the reciprocals of its weakest modes
    and the extracted phases align noise instead of the dominant path.

    No N-sized decomposition is taken: with G = ris_rx and H = tx_ris,
    pinv(G) = G^H A and pinv(H) = B H^H, where A and B are the truncated
    inverses of the Nr x Nr Gram matrix G G^H and the Nt x Nt one H^H H, so
    X's diagonal is that of G^H (A M B) H^H.  Truncation rule: eigenvalues
    lambda of a Gram matrix (`eigh`) are kept when lambda > rcond**2 *
    lambda_max.  They are the squared singular values, and squaring keeps
    the order of nonnegative numbers, so this is numpy's pinv rule s >
    rcond * s_max: the same modes are kept unless a ratio s / s_max lies
    within rounding of rcond.  The kept eigenvalues are at least rcond**2 *
    lambda_max, so A and B are well conditioned and the phases match the
    SVD pseudoinverse's to rounding (rcond must stay well above 1e-8 for
    the squares to resolve the cut).

    SISO inputs delegate to the closed-form alignment.  Legs whose diagonal
    is not finite or all zero (an all-zero leg, say) warn once and fall back
    to a random phase draw, or raise SingularPinv without `fallback_rng`,
    which maps a failing leg's flat stack index (0 for an unstacked call)
    to the generator it draws from, so the fallback stream need only exist
    when a fallback runs.

    `tx_ris` (..., N, Nt) and `ris_rx` (..., Nr, N) may carry leading stack
    axes that broadcast against each other, e.g. one Tx-side leg for a
    stack of receiver positions, or one of each per realization of a block.
    Each Gram inverse is taken once per matrix given; the result is
    (..., N), each row bit for bit as if computed alone.
    """
    tx_ris = np.atleast_2d(np.asarray(tx_ris))
    ris_rx = np.atleast_2d(np.asarray(ris_rx))
    n, nt = tx_ris.shape[-2:]
    nr, n2 = ris_rx.shape[-2:]
    if n2 != n:
        raise DimensionMismatch(f"cascade mismatch: tx side is {n}-element, rx side {n2}")
    if nt == 1 and nr == 1:
        return siso_optimal_phases(tx_ris[..., 0], ris_rx[..., 0, :], bits)
    if n < max(nt, nr):
        warnings.warn(f"{n} surface elements for a {nr}x{nt} link; the pseudoinverse "
                      "target is underdetermined", stacklevel=2)
    h_h = np.swapaxes(tx_ris.conj(), -1, -2)   # H^H
    inner = (_gram_pinv(ris_rx @ np.swapaxes(ris_rx.conj(), -1, -2)) @ np.eye(nr, nt)
             @ _gram_pinv(h_h @ tx_ris))
    # diagonal n of G^H (A M B) H^H: sum over i of (A M B H^H)[i, n] conj(G[i, n]),
    # taken in place as conj(sum(conj(A M B H^H) G)), bit for bit the same while the
    # product stays the first operand (numpy rounds complex a * b and b * a apart),
    # so no conjugate copy of G outlives the Gram matrix.
    prod = inner @ h_h
    diag = np.sum(np.multiply(np.conj(prod, out=prod), ris_rx, out=prod), axis=-2).conj()
    del prod
    phases = quantize_phases(np.angle(diag), bits)
    failed = ~(np.all(np.isfinite(diag), axis=-1) & np.any(diag, axis=-1))
    if failed.any():
        warnings.warn(f"pseudoinverse phases degenerate on {np.count_nonzero(failed)} of "
                      f"{failed.size} legs; falling back to random phases",
                      SingularPinvWarning, stacklevel=2)
        if fallback_rng is None:
            raise SingularPinv("degenerate pseudoinverse diagonal")
        for leg in np.flatnonzero(failed):
            phases.reshape(-1, n)[leg] = baseline_phases("random", n, fallback_rng(int(leg)), bits)
    return phases


def _gram_pinv(gram: np.ndarray) -> np.ndarray:
    """Truncated inverse of a stack of Hermitian PSD Gram matrices: eigenvalues
    up to PINV_RCOND**2 of the largest are dropped, the rest inverted."""
    lam, vec = np.linalg.eigh(gram)                 # ascending: lam[..., -1] is the largest
    keep = lam > PINV_RCOND ** 2 * lam[..., -1:]
    inverse = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return (vec * inverse[..., None, :]) @ np.swapaxes(vec.conj(), -1, -2)


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


def select_ris(rx_position, ris_list):
    """Index of the surface closest to the receiver, ties going to the lowest
    index: an int for one point (3,), an index array for a (..., 3) stack."""
    if len(ris_list) == 0:
        raise EmptyList("no surfaces to select from")
    rx = np.asarray(rx_position, float)
    surfaces = np.array([getattr(r, "position", r) for r in ris_list], float)
    nearest = np.argmin(np.linalg.norm(rx[..., None, :] - surfaces, axis=-1), axis=-1)
    return int(nearest) if nearest.ndim == 0 else nearest


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
