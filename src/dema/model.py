"""Dual-path block composition, backbone, task heads and checkpoints.

Tokens are plain tensors [..., N, L, D] throughout. One block runs the
temporal path on the cross-time tokens and the variate path on the
cross-variate tokens, feeds each path's residual (input minus output) to
the next block, and fuses the two outputs into the block representation.
The backbone output is the sum of block representations.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .dala import DalaParams, mamba_dala_forward
from .delay import (DelayPriors, check_finite, clamp_lag, default_max_lag,
                    delay_matrix)
from .embedding import (InstanceStats, PatchEncoder, embed_patches,
                        patch_count, patchify, revin_denormalize,
                        revin_normalize)
from .errors import ConfigError, ContractError, FormatError
from .spectral import decompose
from .ssd import SsdParams, mamba_ssd_forward

CHECKPOINT_VERSION = 1
# JSON values each ModelConfig field type accepts (bools only as "bool")
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}

TASKS = ("forecast", "impute", "anomaly", "classify")


@dataclass
class ModelConfig:
    task: str = "forecast"
    lookback: int = 96
    horizon: int = 96
    n_classes: int = 0
    d_model: int = 32
    d_state: int = 16
    expand: int = 2
    n_blocks: int = 2
    patch_len: int = 8
    stride: int = 8
    theta: float = 0.4
    alpha: float = 0.6
    beta: float = 0.4
    chunk: int = T.CHUNK
    conv_size: int = 4
    kernel_power: int = 3
    rotated_denominator: bool = False
    max_lag: int = 0  # 0 -> lookback // 4
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {', '.join(TASKS)}, "
                              f"got {self.task!r}")
        if self.task == "classify" and self.n_classes < 2:
            raise ConfigError("n_classes must be >= 2 for classification, "
                              f"got {self.n_classes}")
        if self.task == "forecast" and self.horizon < 1:
            raise ConfigError("horizon must be >= 1 for forecasting, "
                              f"got {self.horizon}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        for name in ("alpha", "beta"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"fusion weight {name} must lie in [0, 1], "
                                  f"got {getattr(self, name)}")
        for name in ("d_model", "expand", "n_blocks", "patch_len", "stride",
                     "chunk", "d_state", "kernel_power", "conv_size"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_inner % 2:
            raise ConfigError(f"d_inner = expand * d_model must be even "
                              f"for the rotary encoding, got {self.d_inner}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_lag < 0:
            raise ConfigError(f"max_lag must be >= 0 (0 means lookback // 4), "
                              f"got {self.max_lag}")
        if self.patch_len > self.lookback:
            raise ConfigError(f"patch_len {self.patch_len} exceeds lookback "
                              f"{self.lookback}")

    @property
    def d_inner(self) -> int:
        return self.expand * self.d_model

    @property
    def n_tokens(self) -> int:
        return patch_count(self.lookback, self.patch_len, self.stride)

    def lag_bound(self) -> int:
        return self.max_lag if self.max_lag > 0 else default_max_lag(self.lookback)


@dataclass
class LayerNormParams:
    gamma: T.Tensor
    beta: T.Tensor

    @staticmethod
    def init(D: int) -> "LayerNormParams":
        return LayerNormParams(T.Tensor(np.ones(D), requires_grad=True),
                               T.bias(D))


@dataclass
class FfnParams:
    w1: T.Tensor
    b1: T.Tensor
    w2: T.Tensor
    b2: T.Tensor

    @staticmethod
    def init(D: int, rng: np.random.Generator) -> "FfnParams":
        return FfnParams(w1=T.dense(rng, D, 4 * D), b1=T.bias(4 * D),
                         w2=T.dense(rng, 4 * D, D), b2=T.bias(D))

    def __call__(self, x):
        return T.ffn(x, self.w1, self.b1, self.w2, self.b2)


@dataclass
class DuoMNetBlockParams:
    ssd: SsdParams
    dala: DalaParams
    ln_time: LayerNormParams
    ln_var: LayerNormParams
    ln_out: LayerNormParams
    ffn: FfnParams
    alpha: float
    beta: float

    @staticmethod
    def init(cfg: ModelConfig, rng: np.random.Generator) -> "DuoMNetBlockParams":
        D, Du, Dh = cfg.d_model, cfg.d_inner, cfg.d_state
        return DuoMNetBlockParams(
            ssd=SsdParams.init(D, Du, Dh, rng, conv_size=cfg.conv_size,
                               chunk=cfg.chunk),
            dala=DalaParams.init(D, Du, rng, kernel_power=cfg.kernel_power,
                                 rotated_denominator=cfg.rotated_denominator),
            ln_time=LayerNormParams.init(D),
            ln_var=LayerNormParams.init(D),
            ln_out=LayerNormParams.init(D),
            ffn=FfnParams.init(D, rng),
            alpha=cfg.alpha,
            beta=cfg.beta,
        )


def duomnet_block(x_time: T.Tensor, x_var: T.Tensor, priors: DelayPriors,
                  params: DuoMNetBlockParams):
    """One dual-path layer on tokens [..., N, L, D].

    Returns (next cross-time tokens, next cross-variate tokens, Z_b).
    """
    y_time = mamba_ssd_forward(x_time, params.ssd)
    y_var = mamba_dala_forward(x_var, priors, params.dala, params.ssd.chunk)
    # alpha LN(Y_time) + beta LN(Y_var), then LN(U + FFN(U)): one node each,
    # so no normalized, weighted or summed copy is kept for the backward
    lt, lv, lo = params.ln_time, params.ln_var, params.ln_out
    mixed = T.layer_norm_sum([(y_time, lt.gamma, lt.beta, params.alpha),
                              (y_var, lv.gamma, lv.beta, params.beta)])
    z_b = T.add_layer_norm(mixed, params.ffn(mixed), lo.gamma, lo.beta)
    return T.sub(x_time, y_time), T.sub(x_var, y_var), z_b


@dataclass
class ModelState:
    config: ModelConfig
    encoder_time: PatchEncoder
    encoder_var: PatchEncoder
    blocks: list
    head_w: T.Tensor
    head_b: T.Tensor

    @staticmethod
    def init(config: ModelConfig) -> "ModelState":
        rng = np.random.default_rng(config.seed)
        D = config.d_model
        # the forecast head reads every token, the classify head their mean
        n_in = D if config.task == "classify" else config.n_tokens * D
        n_out = {"forecast": config.horizon, "classify": config.n_classes}.get(
            config.task, config.lookback)           # impute and anomaly
        return ModelState(
            config=config,
            encoder_time=PatchEncoder.init(config.patch_len, D, rng),
            encoder_var=PatchEncoder.init(config.patch_len, D, rng),
            blocks=[DuoMNetBlockParams.init(config, rng)
                    for _ in range(config.n_blocks)],
            head_w=T.dense(rng, n_in, n_out),
            head_b=T.bias(n_out),
        )

    def parameters(self):
        """(name, Tensor) in checkpoint order: each module's field paths."""
        return [*T.parameters(self.encoder_time, "encoder_time"),
                *T.parameters(self.encoder_var, "encoder_var"),
                *(p for i, blk in enumerate(self.blocks)
                  for p in T.parameters(blk, f"block{i}")),
                ("head.w", self.head_w), ("head.b", self.head_b)]

    def zero_grad(self):
        for _, p in self.parameters():
            p.zero_grad()


@dataclass
class BackboneOutput:
    Z: T.Tensor                    # [..., N, L, D]
    stats: InstanceStats
    per_block: list | None = None  # Z^b when tracing
    priors: DelayPriors | None = None


def _tokenize(window: np.ndarray, state: ModelState):
    """RevIN -> spectral split -> patchify -> embed both components."""
    cfg = state.config
    normalized, stats = revin_normalize(window)
    split = decompose(normalized, cfg.theta)
    P, S = cfg.patch_len, cfg.stride
    x_time = embed_patches(patchify(split.cross_time, P, S), state.encoder_time)
    x_var = embed_patches(patchify(split.cross_variate, P, S), state.encoder_var)
    return x_time, x_var, stats


def backbone_forward(window: np.ndarray, state: ModelState,
                     priors: DelayPriors | None = None,
                     trace: bool = False) -> BackboneOutput:
    """Run the stacked blocks on one window [N, T] or a batch [G, N, T].

    Without `priors`, each window's delay priors are estimated from its raw
    values, in one :func:`delay_matrix` call for the whole batch; the
    forward then takes the per-window priors [G, N, N] as one batch. A
    precomputed `priors` [N, N] is shared across the whole batch.
    """
    window = np.asarray(window, dtype=np.float64)
    cfg = state.config
    if window.shape[-1] != cfg.lookback:
        raise ContractError(
            f"window length {window.shape[-1]} != lookback {cfg.lookback}")
    check_finite(window, "backbone_forward")   # before RevIN spreads a NaN
    if priors is None:
        priors = delay_matrix(window, clamp_lag(cfg.lag_bound(), cfg.lookback),
                              cfg.patch_len)
    x_time, x_var, stats = _tokenize(window, state)
    z_sum = None
    per_block = [] if trace else None
    for blk in state.blocks:
        x_time, x_var, z_b = duomnet_block(x_time, x_var, priors, blk)
        z_sum = z_b if z_sum is None else T.add(z_sum, z_b)
        if trace:
            per_block.append(z_b)
    return BackboneOutput(Z=z_sum, stats=stats, per_block=per_block,
                          priors=priors)


# ----------------------------------------------------------------------
# task heads
# ----------------------------------------------------------------------

def head_forecast(Z: T.Tensor, stats: InstanceStats, state: ModelState):
    """[..., N, L, D] -> denormalized [..., N, S].

    Imputation and anomaly detection use it too, with S = lookback.
    """
    flat = T.reshape(Z, Z.shape[:-2] + (Z.shape[-2] * Z.shape[-1],))
    pred = T.linear(flat, state.head_w, state.head_b)
    return revin_denormalize(pred, stats)


def head_classify(Z: T.Tensor, state: ModelState):
    """[..., N, L, D] -> class probabilities [..., C]."""
    pooled = T.tmean(T.tmean(Z, axis=-2), axis=-2)  # over L then N
    return T.softmax(T.linear(pooled, state.head_w, state.head_b), axis=-1)


def model_forward(window: np.ndarray, state: ModelState,
                  priors: DelayPriors | None = None):
    """Backbone plus the task head configured in `state`."""
    out = backbone_forward(window, state, priors=priors)
    if state.config.task == "classify":
        return head_classify(out.Z, state)
    return head_forecast(out.Z, out.stats, state)


# ----------------------------------------------------------------------
# anomaly criterion
# ----------------------------------------------------------------------

def anomaly_score(x: np.ndarray, x_recon: np.ndarray) -> np.ndarray:
    """Per-timestep mean squared reconstruction error over variates."""
    x = np.asarray(x, dtype=np.float64)
    x_recon = np.asarray(x_recon, dtype=np.float64)
    if x.shape != x_recon.shape:
        raise ContractError("score inputs must have identical shapes")
    return ((x - x_recon) ** 2).mean(axis=-2)


def select_threshold(scores_train: np.ndarray, ratio: float) -> float:
    """(1 - ratio)-quantile of training scores."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError("anomaly ratio must lie in (0, 1)")
    return float(np.quantile(np.asarray(scores_train, dtype=np.float64).ravel(),
                             1.0 - ratio))


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def save_checkpoint(state: ModelState, path) -> None:
    """Write config + all parameter tensors to a .npz container."""
    arrays = {f"param/{name}": p.data for name, p in state.parameters()}
    arrays["__version__"] = np.array(CHECKPOINT_VERSION)
    arrays["__config__"] = np.frombuffer(
        json.dumps(asdict(state.config)).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> ModelState:
    try:
        z = np.load(path)
    except OSError as exc:
        raise FormatError(f"checkpoint {path}: cannot read "
                          f"({exc.strerror})") from None
    except (ValueError, EOFError, zipfile.BadZipFile):  # numpy's format guess
        z = None
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise FormatError(f"checkpoint {path}: not an .npz file")
    with z:
        for key in ("__version__", "__config__"):
            if key not in z:
                raise FormatError(f"checkpoint {path}: no {key} entry")
        version = int(z["__version__"])
        if version != CHECKPOINT_VERSION:
            raise ContractError(f"checkpoint {path}: unsupported version "
                                f"{version}")
        try:
            cfg = json.loads(bytes(z["__config__"]).decode())
        except ValueError as e:   # bad UTF-8 or JSON
            raise ContractError(f"checkpoint {path}: __config__ is not "
                                f"valid JSON ({e})") from None
        unknown = sorted(set(cfg) - set(ModelConfig.__dataclass_fields__)) \
            if isinstance(cfg, dict) else "(not a JSON object)"
        if unknown:
            raise ContractError(f"checkpoint {path}: __config__ has unknown "
                                f"field(s) {unknown}")
        for name, value in cfg.items():
            kind = ModelConfig.__dataclass_fields__[name].type
            if not isinstance(value, _JSON_TYPES[kind]) or (
                    isinstance(value, bool) and kind != "bool"):
                raise ContractError(f"checkpoint {path}: __config__ field "
                                    f"{name} must be {kind}, got {value!r}")
        try:
            config = ModelConfig(**cfg)
        except ConfigError as e:    # well-typed but out of range
            raise ConfigError(f"checkpoint {path}: __config__ {e}") from None
        state = ModelState.init(config)
        for name, p in state.parameters():
            key = f"param/{name}"
            if key not in z:
                raise ContractError(
                    f"checkpoint {path} is missing parameter {name}")
            if z[key].shape != p.shape:
                raise ContractError(
                    f"checkpoint {path}: parameter {name} has shape "
                    f"{z[key].shape}, its config gives {p.shape}")
            p.data = np.array(z[key], dtype=np.float64)
            if not np.all(np.isfinite(p.data)):
                raise ContractError(f"checkpoint {path}: parameter {name} "
                                    "has non-finite values")
    return state
