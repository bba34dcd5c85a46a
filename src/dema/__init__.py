"""Dual-path delay-aware state-space backbone for multivariate time series."""

from .delay import DelayPriors, delay_matrix, token_shift, xcorr_delay
from .embedding import patchify, revin_denormalize, revin_normalize
from .model import (BackboneOutput, ModelConfig, ModelState, anomaly_score,
                    backbone_forward, load_checkpoint, model_forward,
                    save_checkpoint, select_threshold)
from .pipeline import (DatasetSpec, TrainConfig, bench_scaling, evaluate,
                       load_csv_dataset, train)
from .spectral import SpectralSplit, amplitude_rank, decompose
from .tensor import Tensor, backward, no_grad

__all__ = [
    "BackboneOutput", "DatasetSpec", "DelayPriors", "ModelConfig",
    "ModelState", "SpectralSplit", "Tensor", "TrainConfig",
    "amplitude_rank", "anomaly_score", "backbone_forward", "backward",
    "bench_scaling", "decompose", "delay_matrix", "evaluate",
    "load_checkpoint", "load_csv_dataset", "model_forward", "no_grad",
    "patchify", "revin_denormalize", "revin_normalize", "save_checkpoint",
    "select_threshold", "token_shift", "train", "xcorr_delay",
]

__version__ = "0.1.0"
