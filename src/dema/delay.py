"""Cross-correlation delay priors between variate pairs.

For each ordered pair (a, b) we search lags t in [-max_lag, max_lag] for
the Pearson-correlation peak between a shifted copy of series a and
series b. Positive t means a's pattern shows up in b t steps later. The
lag is also mapped to the patch-token scale by round-half-away-from-zero.

:func:`xcorr_delay` (one pair) and :func:`token_shift` (one lag) are the
oracles. :func:`delay_matrix` applies the same rules to every pair of a
window [N, T], or of a batch of windows [..., N, T], at once: one loop over
the lags, and per lag the correlations of all pairs of centred overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError

MIN_OVERLAP = 4  # correlations over fewer points are treated as zero


class LagEstimate(NamedTuple):
    tau: int
    rho: float
    degenerate: bool


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    # pairwise sums, as in delay_matrix: equal |rho| from two different
    # overlaps (rotations of one period) then tie in both to the last bit
    denom = math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * yc)) / denom


def _lag_order(max_lag: int) -> list:
    """Lags in tie-break order: smallest |t| first, negative before positive."""
    return sorted(range(-max_lag, max_lag + 1), key=lambda t: (abs(t), t > 0))


def _check_lag(n: int, max_lag: int):
    if n < MIN_OVERLAP:
        raise ContractError(f"series too short (need >= {MIN_OVERLAP} points)")
    if max_lag >= n:
        raise ContractError("max_lag must be smaller than the series length")


def xcorr_delay(a: np.ndarray, b: np.ndarray, max_lag: int) -> LagEstimate:
    """Peak-correlation lag between two equal-length series."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ContractError("xcorr_delay expects two equal-length 1-D series")
    n = a.size
    _check_lag(n, max_lag)
    best_tau, best_rho = 0, 0.0
    any_valid = False
    # peak is strongest |correlation|; the signed value is reported
    for t in _lag_order(max_lag):
        if t >= 0:
            xa, xb = a[: n - t], b[t:]
        else:
            xa, xb = a[-t:], b[: n + t]
        if xa.size < MIN_OVERLAP:
            continue
        # constant: std is not 0 where the mean rounds (0.1 over 96 points)
        if xa.max() == xa.min() or xb.max() == xb.min():
            continue
        rho = _pearson(xa, xb)
        if not any_valid or abs(rho) > abs(best_rho):
            best_tau, best_rho = t, rho
        any_valid = True
    if not any_valid:
        return LagEstimate(0, 0.0, True)
    return LagEstimate(best_tau, best_rho, False)


def token_shift(tau: int, P: int) -> int:
    """Map a time-point lag to an integer token shift (half away from zero)."""
    if P < 1:
        raise ContractError("patch length must be >= 1")
    q = tau / P
    return int(math.copysign(math.floor(abs(q) + 0.5), q)) if q != 0 else 0


@dataclass
class DelayPriors:
    """Priors of one window ([N, N] arrays) or of a batch ([..., N, N])."""

    tau: np.ndarray        # int [..., N, N]
    rho: np.ndarray        # float [..., N, N] in [-1, 1]
    delta_tok: np.ndarray  # int [..., N, N]
    max_lag: int

    @property
    def n_variates(self) -> int:
        return self.tau.shape[-1]

    def rho_weights(self) -> np.ndarray:
        """Attention weights: rho clamped to [0, 1]."""
        return np.clip(self.rho, 0.0, 1.0)

    @staticmethod
    def identity(n: int, max_lag: int = 0) -> "DelayPriors":
        """No cross-variate coupling: rho is the identity, all lags zero."""
        return DelayPriors(
            tau=np.zeros((n, n), dtype=np.int64),
            rho=np.eye(n),
            delta_tok=np.zeros((n, n), dtype=np.int64),
            max_lag=max_lag,
        )


def delay_matrix(window: np.ndarray, max_lag: int, patch_len: int) -> DelayPriors:
    """Delay priors of all ordered variate pairs of a window [N, T].

    A batch [..., N, T] gives priors [..., N, N], window by window. Each
    pair gets what :func:`xcorr_delay` gives it: per lag, in the same
    order, a constant overlap (max == min) or one under MIN_OVERLAP points
    is skipped, and a lag replaces the best one only if its |rho| is
    strictly greater. The diagonal is tau = 0, rho = 1.
    """
    x = np.atleast_2d(np.asarray(window, dtype=np.float64))
    n, T_len = x.shape[-2:]
    _check_lag(T_len, max_lag)
    if patch_len < 1:
        raise ContractError("patch length must be >= 1")
    shape = x.shape[:-1] + (n,)
    tau = np.zeros(shape, dtype=np.int64)
    rho = np.zeros(shape)
    seen = np.zeros(shape, dtype=bool)   # some lag of the pair was valid
    for t in _lag_order(max_lag):
        xa, xb = ((x[..., :T_len - t], x[..., t:]) if t >= 0
                  else (x[..., -t:], x[..., :T_len + t]))
        if xa.shape[-1] < MIN_OVERLAP:
            continue
        # every dot product is one pairwise sum of the same length, so
        # identical overlaps give rho = 1 exactly, as in the oracle; in a
        # matrix product the cross terms and the norms would be summed in
        # different orders, and tied peaks would go to rounding
        ca = xa - xa.mean(axis=-1, keepdims=True)
        cb = xb - xb.mean(axis=-1, keepdims=True)
        denom = np.sqrt(np.sum(ca * ca, axis=-1)[..., :, None]
                        * np.sum(cb * cb, axis=-1)[..., None, :])
        num = np.sum(ca[..., :, None, :] * cb[..., None, :, :], axis=-1)
        r = np.divide(num, denom, out=np.zeros_like(num), where=denom != 0)
        valid = ((xa.max(axis=-1) != xa.min(axis=-1))[..., :, None]
                 & (xb.max(axis=-1) != xb.min(axis=-1))[..., None, :])
        better = valid & (~seen | (np.abs(r) > np.abs(rho)))
        tau[better] = t
        rho[better] = r[better]
        seen |= valid
    eye = np.eye(n, dtype=bool)
    tau[..., eye] = 0
    rho[..., eye] = 1.0
    q = tau / patch_len   # token shift, rounded half away from zero
    delta = np.copysign(np.floor(np.abs(q) + 0.5), q).astype(np.int64)
    return DelayPriors(tau=tau, rho=rho, delta_tok=delta, max_lag=max_lag)


def default_max_lag(T_len: int) -> int:
    """Default lag search bound: a quarter of the window."""
    return max(1, min(T_len // 4, T_len - MIN_OVERLAP))
