"""Instance normalization, patch tokenization and patch embedding.

Windows are [N, T] (optionally with leading batch axes). Patch tokens are
plain tensors [..., N, L, D]: one token stream per variate, the layout
both the temporal and the variate path work on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError

REVIN_EPS = 1e-5


@dataclass
class InstanceStats:
    mean: np.ndarray  # [..., N]
    std: np.ndarray   # [..., N], >= REVIN_EPS


def revin_normalize(window: np.ndarray):
    """Per-variate zero-mean/unit-std normalization over the window."""
    window = np.asarray(window, dtype=np.float64)
    mean = window.mean(axis=-1)
    std = np.maximum(window.std(axis=-1), REVIN_EPS)
    normalized = (window - mean[..., None]) / std[..., None]
    return normalized, InstanceStats(mean=mean, std=std)


def revin_denormalize(y, stats: InstanceStats):
    """Invert :func:`revin_normalize` on values aligned per variate.

    `y` is [..., N, M] (numpy array or Tensor); the trailing axis is free.
    """
    if isinstance(y, T.Tensor):
        return T.add(T.mul(y, stats.std[..., None]), stats.mean[..., None])
    return y * stats.std[..., None] + stats.mean[..., None]


def patch_count(T_len: int, P: int, S: int) -> int:
    """Token count after the right-replication padding policy."""
    if P < 1 or S < 1:
        raise ConfigError("patch length and stride must be >= 1")
    if P > T_len:
        raise ConfigError(f"patch length {P} exceeds window length {T_len}")
    return (T_len - P + S - 1) // S + 1


def patchify(window: np.ndarray, P: int, S: int) -> np.ndarray:
    """Slice a window into patches [..., N, L, P].

    When (T - P) is not a stride multiple the window is right-padded by
    replicating the last value so every patch is full length.
    """
    window = np.asarray(window, dtype=np.float64)
    T_len = window.shape[-1]
    L = patch_count(T_len, P, S)
    T_padded = (L - 1) * S + P
    if T_padded > T_len:
        pad = np.repeat(window[..., -1:], T_padded - T_len, axis=-1)
        window = np.concatenate([window, pad], axis=-1)
    idx = np.arange(L)[:, None] * S + np.arange(P)[None, :]
    return window[..., idx]


@dataclass
class PatchEncoder:
    """Linear map from a length-P patch to a D-dim embedding."""

    weight: T.Tensor  # [P, D]
    bias: T.Tensor    # [D]

    @staticmethod
    def init(P: int, D: int, rng: np.random.Generator) -> "PatchEncoder":
        return PatchEncoder(weight=T.dense(rng, P, D), bias=T.bias(D))


def embed_patches(patches: np.ndarray, encoder: PatchEncoder) -> T.Tensor:
    """Embed patches [..., N, L, P] into tokens [..., N, L, D]."""
    return T.linear(T.Tensor(patches), encoder.weight, encoder.bias)
