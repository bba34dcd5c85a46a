"""Seeded synthetic data and the benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. The program only sees the generated
arrays, through its public API (`ModelState.init`, `make_windows`,
`shared_priors`, `model_forward`, `tensor.backward`, `Adam`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dema import model, pipeline
from dema import tensor as T

LR = 1e-3  # TrainConfig default
# Initial weights: the ModelConfig default seed, the same for every run
# seed, so the run seed only draws the data and the batch order.
MODEL_SEED = model.ModelConfig.seed


@dataclass(frozen=True)
class Workload:
    # "train": Adam steps with priors shared by all windows, computed at
    # set-up; "infer": no_grad forecasts with priors per window
    kind: str
    n_variates: int
    lookback: int
    batch: int
    warmup_ops: int
    horizon: int = 24
    val_every: int = 4   # training steps between validation passes
    n_windows: int = 16  # inference windows the batches cycle over

    def config(self, model_seed=MODEL_SEED):
        return model.ModelConfig(task="forecast", lookback=self.lookback,
                                 horizon=self.horizon, d_model=32, n_blocks=2,
                                 seed=model_seed)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "train-n7": Workload("train", 7, 96, 32, 3),
    "train-n21": Workload("train", 21, 96, 8, 2),
    "infer-long": Workload("infer", 7, 720, 2, 1),
}


def generate(rng, n, length, max_lag):
    """[n, length]: noisy, lagged, partly sign-flipped copies of one base.

    The base is two sinusoids plus a smoothed random-walk drift. Each
    variate gets its own lag in [-max_lag/2, max_lag/2], so every pair lag
    is within the search range; about one variate in seven (at least one
    when n > 1) is negated, so its pairs with the others have rho < 0 and
    get zero attention weight.
    """
    pad = max_lag // 2
    span = length + 2 * pad
    t = np.arange(span)
    base = (np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi))
            + 0.5 * np.sin(2 * np.pi * t / 7.3 + rng.uniform(0, 2 * np.pi)))
    drift = np.convolve(np.cumsum(rng.standard_normal(span)), np.ones(9) / 9,
                        mode="same")
    base = base + 1.5 * (drift - drift.mean()) / drift.std()
    lags = rng.integers(-pad, pad + 1, n)
    sign = np.ones(n)
    if n > 1:
        sign[rng.choice(np.arange(1, n), max(1, n // 7), replace=False)] = -1.0
    out = np.stack([sign[i] * base[pad - lags[i]:pad - lags[i] + length]
                    for i in range(n)])
    return out + 0.3 * rng.standard_normal(out.shape)


def make_splits(wl: Workload, seed: int) -> pipeline.DatasetSplits:
    """Train and validation splits (train) or a test split (infer)."""
    rng = np.random.default_rng(seed)
    max_lag = wl.config().lag_bound()
    if wl.kind == "train":
        # shared_priors reads the last 4 lookbacks of the train split
        n_train = 4 * wl.lookback + wl.horizon
        n_val = wl.lookback + wl.horizon + wl.batch - 1
        series = generate(rng, wl.n_variates, n_train + n_val, max_lag)
        train, val, test = series[:, :n_train], series[:, n_train:], None
    else:
        n_test = wl.lookback + wl.horizon + wl.n_windows - 1
        train = val = None
        test = generate(rng, wl.n_variates, n_test, max_lag)
    n = wl.n_variates
    return pipeline.DatasetSplits(train=train, val=val, test=test,
                                  scaler_mean=np.zeros(n), scaler_std=np.ones(n))


class Run:
    """The set-up of one workload: model, optimizer, windows and priors."""

    def __init__(self, wl: Workload, splits: pipeline.DatasetSplits, seed: int,
                 model_seed: int = MODEL_SEED):
        self.wl = wl
        cfg = wl.config(model_seed)
        self.state = model.ModelState.init(cfg)
        self.opt = pipeline.Adam(self.state.parameters(), lr=LR)
        if wl.kind == "train":
            self.windows = pipeline.make_windows(splits.train, cfg.lookback,
                                                 cfg.horizon, "forecast")
            self.val_windows = pipeline.make_windows(splits.val, cfg.lookback,
                                                     cfg.horizon, "forecast")
            self.priors = pipeline.shared_priors(splits, cfg)
        else:
            self.windows = pipeline.make_windows(splits.test, cfg.lookback,
                                                 cfg.horizon, "forecast")
            self.val_windows = []
            self.priors = None
        self.order = np.random.default_rng(seed).permutation(len(self.windows))
        self.initial = {n: p.data.copy() for n, p in self.state.parameters()}

    def restore(self):
        """Set the weights back to their set-up values and restart Adam.

        The benchmark calls this before every training step, so each step
        does the work of a first step from the same weights. Training on
        from step to step would let the weights drift, and the step times
        with them; from some initial weights the drift reaches the A_bar
        underflow that makes ssd_blocked return NaN (see README.md).
        """
        for name, p in self.state.parameters():
            p.data = self.initial[name].copy()
        self.opt = pipeline.Adam(self.state.parameters(), lr=LR)

    def batch(self, k):
        """Window indices of operation k; batches cycle over a permutation."""
        B, n = self.wl.batch, len(self.order)
        return [int(self.order[(k * B + i) % n]) for i in range(B)]

    def _stack(self, windows, idx):
        return (np.stack([windows[i][0] for i in idx]),
                np.stack([windows[i][1] for i in idx]))

    def train_step(self, idx, inspect=None):
        """One Adam step on the MSE of a batch; returns (loss, finite)."""
        x, y = self._stack(self.windows, idx)
        self.opt.zero_grad()
        pred = model.model_forward(x, self.state, self.priors)
        diff = T.sub(pred, y)
        loss = T.tmean(T.mul(diff, diff))
        T.backward(loss)
        self.opt.step()
        if inspect is not None:
            inspect(loss)
        value = float(loss.data)
        return value, bool(np.isfinite(value) and np.all(np.isfinite(pred.data)))

    def forecast(self, idx, windows=None):
        """no_grad forecast of a batch; returns (mse, finite)."""
        x, y = self._stack(self.windows if windows is None else windows, idx)
        with T.no_grad():
            pred = model.model_forward(x, self.state, self.priors).data
        mse = float(np.mean((pred - y) ** 2))
        return mse, bool(np.isfinite(mse) and pred.shape == y.shape)
