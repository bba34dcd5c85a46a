"""Frequency-domain split of a lookback window into two complementary parts.

Frequencies are ranked by amplitude averaged over the variates of a
window; the top fraction forms the cross-time component and the remainder
the cross-variate component. The split is lossless by linearity of the
FFT. Leading batch axes hold independent windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError


@dataclass
class SpectralSplit:
    cross_time: np.ndarray     # [..., N, T]
    cross_variate: np.ndarray  # [..., N, T]
    # sorted frequency indices kept in cross_time; one tuple per window,
    # nested like the leading axes for a batch of windows
    selected: tuple
    theta: float


def _spectrum(window: np.ndarray) -> np.ndarray:
    """Half spectrum [..., N, T//2 + 1] of windows [..., N, T]."""
    window = np.atleast_2d(np.asarray(window, dtype=np.float64))
    if window.shape[-1] < 2:
        raise ContractError("spectral split needs a window length >= 2, "
                            f"got {window.shape[-1]}")
    return np.fft.rfft(window, axis=-1)


def _top_bins(spec: np.ndarray, theta: float) -> np.ndarray:
    """Mask [..., n_bins] of the strongest bins, amplitude averaged over N.

    Keeps ceil(theta * n_bins) bins (at least one) per window. Ties break
    toward the lower frequency index.
    """
    if theta <= 0 or theta > 1:
        raise ConfigError(f"theta must be in (0, 1], got {theta}")
    amp = np.abs(spec).mean(axis=-2)
    count = max(1, math.ceil(theta * amp.shape[-1]))
    # stable sort on -amp keeps lower indices first among ties
    order = np.argsort(-amp, axis=-1, kind="stable")[..., :count]
    mask = np.zeros(amp.shape, dtype=bool)
    np.put_along_axis(mask, order, True, axis=-1)
    return mask


def _indices(mask: np.ndarray) -> tuple:
    if mask.ndim == 1:
        return tuple(int(i) for i in np.flatnonzero(mask))
    return tuple(_indices(m) for m in mask)


def amplitude_rank(window: np.ndarray, theta: float) -> tuple:
    """Indices of the strongest frequencies of each window [..., N, T].

    Amplitudes are averaged over the N variates of a window; see
    :func:`_top_bins` for the count and the tie-break.
    """
    return _indices(_top_bins(_spectrum(window), theta))


def decompose(window: np.ndarray, theta: float) -> SpectralSplit:
    """Split windows [..., N, T] into kept- and residual-frequency parts.

    Each window keeps its own strongest frequencies; one FFT covers the
    whole batch.
    """
    spec = _spectrum(window)
    mask = _top_bins(spec, theta)[..., None, :]
    T_len = np.shape(window)[-1]
    return SpectralSplit(
        cross_time=np.fft.irfft(spec * mask, n=T_len, axis=-1),
        cross_variate=np.fft.irfft(spec * ~mask, n=T_len, axis=-1),
        selected=_indices(mask[..., 0, :]),
        theta=theta,
    )


def support_overlap(u: np.ndarray, v: np.ndarray, basis: np.ndarray) -> bool:
    """Whether u and v have intersecting coefficient supports on `basis`.

    `basis` holds one basis vector per row; rows must be pairwise
    orthogonal and nonzero.
    """
    tol = 1e-12              # relative to its scale, a value below is 0
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    gram = basis @ basis.T
    norms = np.diag(gram)
    if np.any(norms <= 0):
        raise ContractError("basis contains a zero vector")
    off = gram - np.diag(norms)
    if np.max(np.abs(off)) > tol * np.max(norms):
        raise ContractError("basis vectors are not pairwise orthogonal")
    a = basis @ u / norms
    b = basis @ v / norms
    scale_a = max(np.max(np.abs(a)), 1.0)
    scale_b = max(np.max(np.abs(b)), 1.0)
    sup_a = np.abs(a) > tol * scale_a
    sup_b = np.abs(b) > tol * scale_b
    return bool(np.any(sup_a & sup_b))
