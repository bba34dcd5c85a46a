"""Train a small forecaster on a synthetic delayed-pair dataset.

Variate 2 is variate 1 delayed by four steps plus noise, so cross-variate
delay priors carry real signal. The trained model is compared against the
last-value-repeat baseline on the held-out test split.
"""

import time

import numpy as np

from dema.model import ModelConfig
from dema.pipeline import (DatasetSpec, DatasetSplits, TrainConfig, evaluate,
                           make_windows, train)

rng = np.random.default_rng(0)
n_steps, delay = 1000, 4
t = np.arange(n_steps + delay, dtype=np.float64)
det = np.sin(2 * np.pi * t / 24) + 0.5 * np.sin(2 * np.pi * t / 60)
drift = np.convolve(rng.standard_normal(n_steps + delay + 24),
                    np.ones(24) / 24, mode="same")[: n_steps + delay]
base = det + 1.5 * drift
v1 = base[delay:] + 0.05 * rng.standard_normal(n_steps)
v2 = base[:-delay] + 0.05 * rng.standard_normal(n_steps)
data = np.stack([v1, v2])

n_train, n_val = 600, 200
mean = data[:, :n_train].mean(axis=1, keepdims=True)
std = np.maximum(data[:, :n_train].std(axis=1, keepdims=True), 1e-8)
z = (data - mean) / std
splits = DatasetSplits(train=z[:, :n_train],
                       val=z[:, n_train:n_train + n_val],
                       test=z[:, n_train + n_val:],
                       scaler_mean=mean[:, 0], scaler_std=std[:, 0],
                       columns=["v1", "v2"])

spec = DatasetSpec()
model = ModelConfig(task="forecast", lookback=96, horizon=24, d_model=32,
                    n_blocks=2, seed=0)
cfg = TrainConfig(epochs=10, model=model)

t0 = time.time()
result = train(cfg, spec, splits=splits)
print(f"trained {cfg.epochs} epochs in {time.time() - t0:.1f}s "
      f"(best epoch {result.best_epoch})")
epochs = [e for e in result.log if "event" not in e]  # skip a divergence entry
for entry in epochs[:: max(1, cfg.epochs // 5)]:
    print(f"  epoch {entry['epoch']}: train {entry['train_loss']:.4f} "
          f"val {entry['val_loss']:.4f}")

metrics = evaluate(result.state, spec, splits=splits, config=cfg)
pairs = make_windows(splits.test, model.lookback, model.horizon, "forecast")
baseline = float(np.mean([
    np.mean((np.repeat(x[:, -1:], model.horizon, axis=1) - y) ** 2)
    for x, y in pairs]))
print(f"test MSE {metrics['mse']:.4f}, MAE {metrics['mae']:.4f}")
print(f"last-value baseline MSE {baseline:.4f} "
      f"-> model is {100 * (1 - metrics['mse'] / baseline):.0f}% better")
