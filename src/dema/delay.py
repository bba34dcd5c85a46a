"""Cross-correlation delay priors between variate pairs.

For each ordered pair (a, b) we search lags t in [-max_lag, max_lag] for
the Pearson-correlation peak between a shifted copy of series a and
series b. Positive t means a's pattern shows up in b t steps later. The
lag is also mapped to the patch-token scale by round-half-away-from-zero.

:func:`xcorr_delay` (one pair) and :func:`token_shift` (one lag) are the
oracles. :func:`delay_matrix` gives every pair of a window [N, T], or of a
batch of windows [..., N, T], what the oracle gives it, in two stages. A
screen puts every pair's |rho| at every lag within a proven rounding
bound, from one rfft per series and one irfft per pair (the
Wiener-Khinchin route of Autoformer's Auto-Correlation, Wu et al.,
arXiv:2106.13008) and prefix sums. Then only the lags that the bound
cannot rule out, about one per pair on noisy data, are recomputed with the
oracle's sums, so ties go the oracle's way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ContractError, NumericError

MIN_OVERLAP = 4  # correlations over fewer points are treated as zero


class LagEstimate(NamedTuple):
    tau: int
    rho: float


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
    return LagEstimate(best_tau, best_rho)


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
    def identity(n: int) -> "DelayPriors":
        """No cross-variate coupling: rho is the identity, all lags zero."""
        return DelayPriors(
            tau=np.zeros((n, n), dtype=np.int64),
            rho=np.eye(n),
            delta_tok=np.zeros((n, n), dtype=np.int64),
            max_lag=0,
        )


_U = 2.0 ** -53      # unit roundoff of float64
_TAME = 2.0 ** 200   # the oracle's sums neither overflow nor underflow on
                     # rows with max |x| <= _TAME and spread >= 1 / _TAME


def _screen(x, lags):
    """The oracle's |rho| of every off-diagonal pair at every lag, bounded.

    For windows x [G, N, T] and lags [K] with overlaps of at least
    MIN_OVERLAP points, returns `valid` [G, N, N, K] (both overlaps vary:
    the oracle's rule, decided exactly), r [G, N, N, K] and a width w
    such that the oracle's |rho| lies in [r - w, r + w]; w is inf where
    the bound below does not hold.

    Pearson rho is unchanged by centring a row and scaling it, so each is
    taken to y with max |y| = 1. An rfft per row and an irfft per pair,
    of nfft >= T + max |t| points (a power of two, so nothing wraps),
    give the cross sums S = sum y_a y_b of every overlap of k points;
    prefix sums give each overlap's sum s and sum of squares q, and
    cov = S - s_a s_b / k, v = q - s^2 / k. With u = 2^-53, |y| <= 1 and
    first-order terms:

    * y is within 2u |y| of an exact affine image of x, which moves S, s
      and q by at most 4.1 u T;
    * the FFT: Thm 24.2 of Higham, Accuracy and Stability of Numerical
      Algorithms (radix 2, twiddles within 2u) gives
      ||fl(Fy) - Fy||_2 <= alpha ||Fy||_2 with alpha = 8 u log2(nfft).
      Through the product and the inverse, with ||Fy||_inf <= ||y||_1
      <= T and ||y||_2 <= sqrt(T), S is within (3 alpha + 3u) T^1.5;
    * a prefix sum of j terms is within (j - 1) u T, so s is within
      (2T + 1) u T and q within (2T + 2) u T; s_a s_b / k and s^2 / k
      add twice that, plus a few u T of rounding.

    Together cov and v are within E = u T (26 log2(nfft) sqrt(T) + 7 T +
    16). Where v_a, v_b >= 2E, the relative errors E / v are at most 1/2
    and |r - |rho|| <= E (1/sqrt(v_a v_b) + 1/v_a + 1/v_b) + 4u, which
    is at most 1.5 E (1/v_a + 1/v_b) + 4u. The oracle's own rho is off
    by its rounding: numpy's pairwise sums (8 accumulators of <= 16
    terms, a 3-level tree, <= 7 tail terms, one add per halving above
    128 terms) are within g = (log2(T) + 30) u of the sum of |terms|, so
    its overlap mean is off by e <= (g + u) max|x|, which adds k e^2 to
    its sums of squares, and its rho is within r_a + r_b + 2g + 8u of
    rho, r = k e^2 / V for the overlap's sum of squares V >= v - E (in y
    units). w is the sum of both. A row beyond _TAME in magnitude or
    below 1/_TAME in spread could overflow or underflow the oracle's
    sums: its pairs get w = inf.
    """
    G, n, T_len = x.shape
    k = T_len - np.abs(lags)
    a0, b0 = np.maximum(-lags, 0), np.maximum(lags, 0)   # overlap starts
    steps = np.zeros((G, n, T_len + 1), dtype=np.int64)
    np.cumsum(x[..., 1:] != x[..., :-1], axis=-1, out=steps[..., 2:])

    def varies(start):       # some point differs from the one before it
        return steps[..., start + k] > steps[..., start + 1]

    valid = varies(a0)[:, :, None] & varies(b0)[:, None]
    valid[:, np.eye(n, dtype=bool)] = False
    big = np.abs(x).max(axis=-1, keepdims=True)
    y = np.where(big <= _TAME, x, 0.0)
    y = y - y.mean(axis=-1, keepdims=True)
    spread = np.abs(y).max(axis=-1, keepdims=True)
    tame = (big <= _TAME) & (spread >= 1 / _TAME)
    spread = np.where(tame, spread, 1.0)
    y /= spread
    nfft = 1 << int(T_len + lags[-1] - 1).bit_length()
    f = np.fft.rfft(y, nfft)
    # one irfft per pair a < b: (b, a) at lag t is (a, b) at -t
    ia, ib = np.triu_indices(n, 1)
    S = np.zeros(valid.shape)
    S[:, ia, ib] = np.fft.irfft(f[:, ia].conj() * f[:, ib], nfft)[
        ..., lags % nfft]
    S[:, ib, ia] = S[:, ia, ib, ::-1]
    p = np.zeros((2, G, n, T_len + 1))
    np.cumsum([y, y * y], axis=-1, out=p[..., 1:])
    E = _U * T_len * (26 * np.log2(nfft) * np.sqrt(T_len) + 7 * T_len + 16)
    g = (np.log2(T_len) + 30) * _U
    e = (g + _U) * big / spread

    def overlap(start):      # sum and sum of squares v, r's share of w
        s, q = p[..., start + k] - p[..., start]
        v = q - s * s / k
        tight = tame & (v >= 2 * E)
        v = np.maximum(v, 2 * E)
        return s, v, tight, 1.5 * E / v + k * e * e / (v - E)

    s_a, v_a, tight_a, w_a = overlap(a0)
    s_b, v_b, tight_b, w_b = overlap(b0)
    r = np.abs(S - s_a[:, :, None] * s_b[:, None] / k) / np.sqrt(
        v_a[:, :, None] * v_b[:, None])
    w = np.where(tight_a[:, :, None] & tight_b[:, None],
                 w_a[:, :, None] + w_b[:, None] + 2 * g + 12 * _U, np.inf)
    return valid, r, w


def check_finite(x: np.ndarray, name: str) -> None:
    """A NumericError from `name` naming the window, variate and time step
    of the first non-finite value of windows x [..., N, T]."""
    bad = np.argwhere(~np.isfinite(x))
    if len(bad):
        *w, a, t = bad[0]
        g = int(np.ravel_multi_index(w, x.shape[:-2])) if w else 0
        raise NumericError(
            f"{name}: non-finite value {x[tuple(bad[0])]} in window {g}, "
            f"variate {a}, time step {t}")


def delay_matrix(window: np.ndarray, max_lag: int, patch_len: int) -> DelayPriors:
    """Delay priors of all ordered variate pairs of a window [N, T].

    A batch [..., N, T] gives priors [..., N, N], window by window. Each
    pair gets what :func:`xcorr_delay` gives it: per lag, in the same
    order, a constant overlap (max == min) or one under MIN_OVERLAP points
    is skipped, and a lag replaces the best one only if its |rho| is
    strictly greater. The diagonal is tau = 0, rho = 1.

    :func:`_screen` bounds every pair's |rho| at every lag; only the lags
    whose bound reaches the pair's best lower bound are recomputed, with
    the oracle's sums, and the rule above is applied to those. The lag
    the oracle takes is always among them, so nothing else is needed: a
    pair whose lags the screen cannot tell apart has all of them
    recomputed.
    """
    x = np.atleast_2d(np.asarray(window, dtype=np.float64))
    n, T_len = x.shape[-2:]
    _check_lag(T_len, max_lag)
    if patch_len < 1:
        raise ContractError("patch length must be >= 1")
    check_finite(x, "delay_matrix")
    shape = x.shape[:-1] + (n,)
    x = x.reshape((-1, n, T_len))
    tau = np.zeros(x.shape[:-1] + (n,), dtype=np.int64)
    rho = np.zeros(tau.shape)
    # lags with fewer than MIN_OVERLAP points are never valid
    lags = np.arange(-max_lag, max_lag + 1)
    lags = lags[T_len - np.abs(lags) >= MIN_OVERLAP]
    if n > 1 and lags.size:
        valid, r, width = _screen(x, lags)
        lo = np.where(valid, r - width, -np.inf)
        g, a, b, li = np.nonzero(
            valid & (r + width >= lo.max(axis=-1, keepdims=True)))
        # the candidates in runs of one overlap length k = T - |t|
        by_k = np.argsort(np.abs(lags[li]), kind="stable")
        g, a, b, t = g[by_k], a[by_k], b[by_k], lags[li[by_k]]
        k = T_len - np.abs(t)
        rows = x.reshape(-1, T_len)
        # the overlaps as rows of [first k points of every row; last k
        # points of every row]: a's is a last one if t < 0, b's if t > 0
        ia = (t < 0) * len(rows) + g * n + a
        ib = (t > 0) * len(rows) + g * n + b
        rc = np.empty(t.size)
        bounds = np.flatnonzero(np.diff(k, prepend=-1, append=-1))
        for i, j in zip(bounds, bounds[1:]):
            # the oracle's sums: per overlap, one pairwise sum of its k
            # points, as in a row of any array of overlaps of length k
            kk = k[i]
            ends = np.concatenate((rows[:, :kk], rows[:, T_len - kk:]))
            c = ends - ends.mean(axis=-1, keepdims=True)
            ss = np.sum(c * c, axis=-1)
            sa, sb = ia[i:j], ib[i:j]
            num = np.sum(c[sa] * c[sb], axis=-1)
            denom = np.sqrt(ss[sa] * ss[sb])
            rc[i:j] = np.divide(num, denom, out=np.zeros_like(num),
                                where=denom != 0)
        # the oracle keeps the first lag in _lag_order unless a later one
        # has a strictly greater |rho|: the earliest of the largest. Nothing
        # compares greater than NaN, so a NaN first lag stays and a later
        # NaN never replaces (overflowing rows, where every lag is taken)
        pair = (g * n + a) * n + b
        rank = 2 * np.abs(t) - (t < 0)
        by = np.lexsort((rank, pair))
        first = by[np.unique(pair[by], return_index=True)[1]]
        score = np.where(np.isnan(rc), -1.0, np.abs(rc))
        score[first[np.isnan(rc[first])]] = np.inf
        by = np.lexsort((rank, -score, pair))
        win = by[np.unique(pair[by], return_index=True)[1]]
        tau[g[win], a[win], b[win]] = t[win]
        rho[g[win], a[win], b[win]] = rc[win]
    tau, rho = tau.reshape(shape), rho.reshape(shape)
    eye = np.eye(n, dtype=bool)
    tau[..., eye] = 0
    rho[..., eye] = 1.0
    q = tau / patch_len   # token shift, rounded half away from zero
    delta = np.copysign(np.floor(np.abs(q) + 0.5), q).astype(np.int64)
    return DelayPriors(tau=tau, rho=rho, delta_tok=delta, max_lag=max_lag)


def default_max_lag(T_len: int) -> int:
    """Default lag search bound: a quarter of the window."""
    return max(1, min(T_len // 4, T_len - MIN_OVERLAP))
