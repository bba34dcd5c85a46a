"""Data ingestion, windowing, training loop, metrics and scaling benchmark.

CSV convention: header row, first column is a timestamp (ignored), the
remaining columns are numeric variates. A final column whose header is
``label`` is split off and used as per-timestep labels for the anomaly
and classification tasks.
"""

from __future__ import annotations

import csv
import json
import math
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .delay import MIN_OVERLAP, delay_matrix
from .errors import ConfigError, ContractError, FormatError, NumericError
from .model import (ModelConfig, ModelState, anomaly_score, backbone_forward,
                    model_forward, select_threshold)

LABEL_COLUMN = "label"


@dataclass
class DatasetSpec:
    """Where the data lives and how it is split and masked.

    The test split is whatever follows the train and val splits.
    """
    path: str = ""
    train_ratio: float = 0.7
    val_ratio: float = 0.1
    mask_ratio: float = 0.25
    anomaly_ratio: float = 0.01

    def __post_init__(self):
        for name, ok, bounds in (
                ("train_ratio", 0.0 < self.train_ratio <= 1.0, "(0, 1]"),
                ("val_ratio", 0.0 <= self.val_ratio < 1.0, "[0, 1)"),
                ("mask_ratio", 0.0 <= self.mask_ratio < 1.0, "[0, 1)"),
                ("anomaly_ratio", 0.0 < self.anomaly_ratio < 1.0, "(0, 1)")):
            if not ok:
                raise ConfigError(f"{name} must lie in {bounds}, "
                                  f"got {getattr(self, name)}")
        if self.train_ratio + self.val_ratio > 1.0:
            raise ConfigError(f"train_ratio + val_ratio must be <= 1, got "
                              f"{self.train_ratio} + {self.val_ratio}")


@dataclass
class TrainConfig:
    """Optimiser and run settings; every model setting lives in `model`."""
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    global_priors: bool = True
    point_adjust: bool = False
    n_variates: int = 7  # bench only
    checkpoint: str = ""
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(
                f"lr must be a positive finite number, got {self.lr}")
        for name in ("batch_size", "epochs", "n_variates"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"{name} must be positive, got {getattr(self, name)}")


# ----------------------------------------------------------------------
# config file: flat key=value text
# ----------------------------------------------------------------------

def parse_config_file(path) -> tuple[TrainConfig, DatasetSpec]:
    """Parse a flat key=value file; unknown keys are an error.

    Each key goes to the one class that declares it: `ModelConfig`,
    `TrainConfig` or `DatasetSpec`.
    """
    classes = (ModelConfig, TrainConfig, DatasetSpec)
    owner = {f.name: cls for cls in classes for f in fields(cls)
             if f.name != "model"}
    kwargs = {cls: {} for cls in classes}
    with _open(path, "config file") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in owner:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cls = owner[key]
            where = f"{path}:{lineno}: {key}"
            kwargs[cls][key] = _coerce(value, cls, key, where)
    try:
        model = ModelConfig(**kwargs[ModelConfig])
        return (TrainConfig(model=model, **kwargs[TrainConfig]),
                DatasetSpec(**kwargs[DatasetSpec]))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _open(path, what, **kw):
    """open(path), with a missing or unreadable file as a FormatError."""
    try:
        return open(path, **kw)
    except OSError as exc:
        raise FormatError(f"{path}: cannot read {what} ({exc.strerror})") \
            from None


def _coerce(value: str, cls, key, where):
    default = next(f.default for f in fields(cls) if f.name == key)
    if isinstance(default, bool):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{where}: expected a boolean, got {value!r}")
    kind = type(default)
    if kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            expected = "an integer" if kind is int else "a number"
            raise ConfigError(
                f"{where}: expected {expected}, got {value!r}") from None
    return value


# ----------------------------------------------------------------------
# dataset loading and windowing
# ----------------------------------------------------------------------

@dataclass
class DatasetSplits:
    train: np.ndarray  # [N, T_train], z-scored with train statistics
    val: np.ndarray
    test: np.ndarray
    scaler_mean: np.ndarray  # per-variate, raw units
    scaler_std: np.ndarray
    labels: dict | None = None  # split -> [T_split] when a label column exists
    columns: list | None = None


def read_csv(path) -> tuple[np.ndarray, np.ndarray | None, list]:
    """Parse and validate a variate CSV: its values [N, T] as written, its
    integer labels [T] (None without a label column) and its variate
    column names."""
    if not path:
        raise ConfigError("no dataset: pass --data or set path in the config")
    with _open(path, "dataset", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise FormatError(f"{path}: " + ("no data rows, only the header"
                                         if rows else "empty file"))
    header = rows[0]
    if len(header) < 2:
        raise FormatError(f"{path}: need a timestamp column plus at "
                          "least one variate column")
    width = len(header)
    has_labels = header[-1].strip().lower() == LABEL_COLUMN
    values = []
    labels = []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise FormatError(
                f"{path}: row {r} has {len(row)} cells, expected {width}")
        parsed = []
        for c, cell in enumerate(row[1:], start=2):
            try:
                x = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: non-numeric value at row {r}, col {c}")
            if not math.isfinite(x):
                raise FormatError(
                    f"{path}: non-finite value {cell.strip()!r} at "
                    f"row {r}, col {c}")
            parsed.append(x)
        if has_labels:
            label = parsed.pop()
            if label != int(label):
                raise FormatError(f"{path}: label {row[-1].strip()!r} "
                                  f"at row {r}, col {width} is not an integer")
            labels.append(int(label))
        values.append(parsed)
    data = np.asarray(values, dtype=np.float64).T  # [N, T]
    if data.shape[0] < 1:
        raise FormatError(f"{path}: no variate columns")
    return (data, np.asarray(labels, dtype=np.int64) if has_labels else None,
            [h for h in header[1:] if h.strip().lower() != LABEL_COLUMN])


def load_csv_dataset(spec: DatasetSpec) -> DatasetSplits:
    """Load, validate, chronologically split and z-score a variate CSV."""
    data, labels, columns = read_csv(spec.path)
    total = data.shape[1]
    n_train = int(total * spec.train_ratio)
    n_val = int(total * spec.val_ratio)
    if n_train < 1 or total - n_train - n_val < 1:
        raise FormatError(f"{spec.path}: too few rows for the split ratios")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = data[:, :n_train].mean(axis=1)
        std = np.maximum(data[:, :n_train].std(axis=1), 1e-8)
        z = (data - mean[:, None]) / std[:, None]
    bad = ~(np.isfinite(std) & np.isfinite(z).all(axis=1))
    if bad.any():          # finite cells whose sums or squares overflow
        raise FormatError(f"{spec.path}: column {columns[bad.argmax()]!r} "
                          "is too large in magnitude to z-score")
    parts = {"train": slice(0, n_train),
             "val": slice(n_train, n_train + n_val),
             "test": slice(n_train + n_val, None)}
    return DatasetSplits(
        **{name: z[:, part] for name, part in parts.items()},
        scaler_mean=mean,
        scaler_std=std,
        labels=(None if labels is None else
                {name: labels[part] for name, part in parts.items()}),
        columns=columns,
    )


def make_windows(split: np.ndarray, lookback: int, horizon: int, task: str,
                 labels: np.ndarray | None = None):
    """Stride-1 sliding (input, target) pairs for one split.

    Empty when the split is shorter than one window; :func:`train` and
    :func:`evaluate` reject that with :func:`split_windows`.
    """
    split = np.atleast_2d(np.asarray(split, dtype=np.float64))
    total = split.shape[1]
    need = lookback + (horizon if task == "forecast" else 0)
    out = []
    for i in range(total - need + 1):
        x = split[:, i:i + lookback]
        if task == "forecast":
            y = split[:, i + lookback:i + lookback + horizon]
        elif task in ("impute", "anomaly"):
            y = x
        elif task == "classify":
            if labels is None:
                raise ContractError("classification windows need labels")
            y = int(labels[i + lookback - 1])
        else:
            raise ConfigError(f"unknown task {task!r}")
        out.append((x, y))
    return out


def split_windows(name: str, splits: DatasetSplits, cfg: ModelConfig):
    """`make_windows` of one split, rejecting a split shorter than one
    window and, for classification, a label outside [0, n_classes)."""
    labels = (splits.labels or {}).get(name)
    if cfg.task == "classify" and labels is not None:
        bad = labels[(labels < 0) | (labels >= cfg.n_classes)]
        if bad.size:
            raise ContractError(f"{name} split has class label {bad[0]}, "
                                f"outside [0, {cfg.n_classes})")
    split = getattr(splits, name)
    windows = make_windows(split, cfg.lookback, cfg.horizon, cfg.task, labels)
    if not windows:
        need, span = ((cfg.lookback + cfg.horizon, "lookback + horizon")
                      if cfg.task == "forecast" else (cfg.lookback, "lookback"))
        raise ContractError(f"{name} split yields no windows: it has "
                            f"{split.shape[1]} rows and a window needs "
                            f"{span} = {need}")
    return windows


def tiled_windows(split: np.ndarray, lookback: int) -> np.ndarray:
    """The non-overlapping lookback windows [G, N, lookback] of a split,
    from its start; a ContractError when it is shorter than one."""
    starts = range(0, split.shape[1] - lookback + 1, lookback)
    if not starts:
        raise ContractError("split shorter than one lookback window")
    return np.stack([split[:, s:s + lookback] for s in starts])


def apply_mask(window: np.ndarray, ratio: float, seed: int):
    """Zero a seeded uniform random subset of points; return (masked, mask)."""
    window = np.asarray(window, dtype=np.float64)
    n_mask = int(ratio * window.size)
    rng = np.random.default_rng(seed)
    flat_idx = rng.choice(window.size, size=n_mask, replace=False)
    mask = np.zeros(window.size, dtype=bool)
    mask[flat_idx] = True
    mask = mask.reshape(window.shape)
    masked = np.where(mask, 0.0, window)
    return masked, mask


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------

class Adam:
    def __init__(self, params, lr=1e-3):
        self.params = list(params)  # [(name, Tensor)]
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in self.params}
        self.v = {n: np.zeros_like(p.data) for n, p in self.params}

    def step(self):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + eps)

    def zero_grad(self):
        for _, p in self.params:
            p.zero_grad()


# ----------------------------------------------------------------------
# training and evaluation
# ----------------------------------------------------------------------

@dataclass
class TrainResult:
    state: ModelState
    log: list  # per-epoch dicts: losses, wall time, rate, gradient norm;
               # a diverged run ends with its event: a non-finite loss,
               # parameter or forward, with where it happened
    best_epoch: int
    diverged: bool = False


def _batches(windows, size, order=None):
    """(start, inputs, targets) for consecutive batches of (x, y) pairs,
    taken in `order` (window indices) when given."""
    if order is None:
        order = range(len(windows))
    for start in range(0, len(windows), size):
        batch = [windows[i] for i in order[start:start + size]]
        yield start, [w[0] for w in batch], [w[1] for w in batch]


def _mask_batch(xs, ratio, seed):
    """`apply_mask` each window with seeds seed, seed + 1, ...; stacked."""
    pairs = [apply_mask(x, ratio, seed + i) for i, x in enumerate(xs)]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def _batch_loss(state: ModelState, xs, ys, priors, mask_seed, mask_ratio):
    task = state.config.task
    if task in ("forecast", "anomaly"):
        pred = model_forward(np.stack(xs), state, priors)
        diff = T.sub(pred, np.stack(ys))
        return T.tmean(T.mul(diff, diff))
    if task == "impute":
        masked, mask = _mask_batch(xs, mask_ratio, mask_seed)
        pred = model_forward(masked, state, priors)
        mask = mask.astype(np.float64)
        diff = T.mul(T.sub(pred, np.stack(ys)), mask)
        denom = max(mask.sum(), 1.0)
        return T.div(T.tsum(T.mul(diff, diff)), denom)
    probs = model_forward(np.stack(xs), state, priors)
    onehot = np.zeros(probs.shape)
    for i, yi in enumerate(ys):
        onehot[i, int(yi)] = 1.0
    diff = T.sub(probs, onehot)
    return T.tmean(T.mul(diff, diff))


def shared_priors(splits: DatasetSplits, cfg: ModelConfig):
    """Delay priors estimated once from the train split (global cache)."""
    if splits.train.shape[1] < MIN_OVERLAP:
        raise ContractError(f"train split has {splits.train.shape[1]} rows; "
                            f"the shared delay priors need {MIN_OVERLAP}")
    window = splits.train[:, -cfg.lookback * 4:]
    max_lag = min(cfg.lag_bound(), window.shape[1] - MIN_OVERLAP)
    return delay_matrix(window, max_lag, cfg.patch_len)


def choose_priors(splits: DatasetSplits, cfg: ModelConfig,
                  global_priors: bool, override=None):
    """The priors a run uses: `override` if given, else priors shared from
    the train split if `global_priors`, else None (each window estimates
    its own)."""
    if override is not None:
        return override
    return shared_priors(splits, cfg) if global_priors else None


def train(config: TrainConfig, spec: DatasetSpec,
          splits: DatasetSplits | None = None,
          priors_override=None) -> TrainResult:
    """Adam/MSE training with best-validation checkpoint selection."""
    if splits is None:
        splits = load_csv_dataset(spec)
    cfg = config.model
    state = ModelState.init(cfg)
    rng = np.random.default_rng(cfg.seed)
    train_windows = split_windows("train", splits, cfg)
    val_windows = split_windows("val", splits, cfg)
    priors = choose_priors(splits, cfg, config.global_priors, priors_override)
    initial = {name: p.data.copy() for name, p in state.parameters()}
    opt = Adam(state.parameters(), lr=config.lr)
    log = []
    best_val = np.inf
    best_params = None
    best_epoch = -1
    diverged = None   # the log entry of the event that ended the run
    n = len(train_windows)

    def forward_or_event(where, fn, *args, **kw):
        # once Adam has stepped, a NumericError in a forward means finite
        # weights too large for it (exp(A_log) overflows first), so it ends
        # the run; before the first step it is the data's or the config's
        try:
            return fn(*args, **kw), None
        except NumericError as exc:
            if opt.t == 0:
                raise
            return None, {**where, "event": "non-finite forward",
                          "error": str(exc)}

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        train_losses = []
        grad_norms = []
        for start, xs, ys in _batches(train_windows, config.batch_size, order):
            opt.zero_grad()
            where = {"epoch": epoch, "batch_start": start}
            loss, diverged = forward_or_event(
                where, _batch_loss, state, xs, ys, priors,
                mask_seed=cfg.seed * 100003 + epoch * 1009 + start,
                mask_ratio=spec.mask_ratio)
            if diverged:
                break
            if not np.isfinite(loss.data):
                diverged = {**where, "event": "non-finite loss"}
                break
            T.backward(loss)
            grad_norms.append(_grad_norm(opt.params))
            opt.step()
            if not all(np.all(np.isfinite(p.data)) for _, p in opt.params):
                diverged = {**where, "event": "non-finite parameters"}
                break
            train_losses.append(float(loss.data))
        if not diverged:
            val_loss, diverged = forward_or_event(
                {"epoch": epoch, "split": "val"}, _epoch_loss, state,
                val_windows, priors, config.batch_size, cfg.seed * 7919,
                spec.mask_ratio)
        if diverged:
            log.append(diverged)
            kept = "best-validation" if best_params is not None else "initial"
            warnings.warn(f"training diverged at epoch {epoch} "
                          f"({diverged['event']}); keeping the {kept} weights",
                          stacklevel=2)
            if best_params is None:
                best_params = initial
            break
        seconds = time.perf_counter() - t0
        entry = {"epoch": epoch,
                 "train_loss": float(np.mean(train_losses)),
                 "val_loss": val_loss,
                 "epoch_seconds": seconds,
                 "windows_per_s": n / seconds,
                 "grad_norm": float(np.mean(grad_norms))}
        log.append(entry)
        if val_loss <= best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = {name: p.data.copy() for name, p in state.parameters()}
    if best_params is not None:
        for name, p in state.parameters():
            p.data = best_params[name]
    return TrainResult(state=state, log=log, best_epoch=best_epoch,
                       diverged=diverged is not None)


def _grad_norm(params) -> float:
    """Global L2 norm of the parameter gradients that are set."""
    return math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                         for _, p in params if p.grad is not None))


def _epoch_loss(state, windows, priors, batch_size, mask_seed, mask_ratio):
    weighted = 0.0  # sum of batch losses times batch sizes
    with T.no_grad():
        for start, xs, ys in _batches(windows, batch_size):
            loss = _batch_loss(state, xs, ys, priors,
                               mask_seed=mask_seed + start,
                               mask_ratio=mask_ratio)
            weighted += float(loss.data) * len(xs)
    return weighted / len(windows)


def evaluate(state: ModelState, spec: DatasetSpec,
             splits: DatasetSplits | None = None,
             config: TrainConfig | None = None,
             priors_override=None) -> dict:
    """Task metrics on the test split, as a flat numeric map.

    The task and every model setting come from `state.config`.
    """
    if splits is None:
        splits = load_csv_dataset(spec)
    config = config or TrainConfig()
    cfg = state.config
    priors = choose_priors(splits, cfg, config.global_priors, priors_override)
    if cfg.task == "anomaly":
        return detect(state, spec, splits, config, priors)[0]
    test_windows = split_windows("test", splits, cfg)
    with T.no_grad():
        err_sq, err_abs, count, correct = 0.0, 0.0, 0, 0
        for start, xs, ys in _batches(test_windows, config.batch_size):
            if cfg.task == "impute":
                x, mask = _mask_batch(xs, spec.mask_ratio, 10_000 + start)
            else:
                x = np.stack(xs)
            pred = model_forward(x, state, priors).data
            if cfg.task == "classify":
                correct += int((pred.argmax(axis=-1) == np.asarray(ys)).sum())
                continue
            d = pred - np.stack(ys)
            if cfg.task == "impute":
                d = d[mask]
            err_sq += float((d ** 2).sum())
            err_abs += float(np.abs(d).sum())
            count += d.size
    if cfg.task == "classify":
        return {"accuracy": correct / len(test_windows)}
    return {"mse": err_sq / max(count, 1), "mae": err_abs / max(count, 1)}


def detect(state: ModelState, spec: DatasetSpec, splits: DatasetSplits,
           config: TrainConfig, priors) -> tuple[dict, np.ndarray]:
    """Anomaly metrics, and the reconstructions [G, N, lookback] of the
    non-overlapping test windows that they score.

    The threshold is the (1 - `spec.anomaly_ratio`)-quantile of the
    train-split scores; flags, and F1 where there are labels, are on the
    test split.
    """
    for name in ("train", "test"):           # long enough for one window
        split_windows(name, splits, state.config)
    windows = tiled_windows(splits.test, state.config.lookback)
    threshold = select_threshold(_reconstruction_scores(
        state, splits.train, priors, config.batch_size), spec.anomaly_ratio)
    recon = predict_windows(state, windows, priors, config.batch_size)
    flags = anomaly_score(windows, recon).ravel() > threshold
    out = {"threshold": threshold, "flagged_fraction": float(flags.mean())}
    truth = (splits.labels or {}).get("test")
    if truth is not None:
        truth = truth[:flags.size].astype(bool)
        if config.point_adjust:
            flags = _point_adjust(flags, truth)
        out.update(_prf(flags, truth))
    return out, recon


def predict_windows(state, windows, priors, batch_size):
    """The model's outputs for windows [G, N, lookback], one forward with
    no graph per `batch_size` windows."""
    with T.no_grad():
        return np.concatenate([
            model_forward(windows[i:i + batch_size], state, priors).data
            for i in range(0, len(windows), batch_size)])


def _reconstruction_scores(state, split, priors, batch_size):
    """Anomaly scores over a split via non-overlapping lookback windows."""
    windows = tiled_windows(split, state.config.lookback)
    return anomaly_score(windows, predict_windows(state, windows, priors,
                                                  batch_size)).ravel()


def _point_adjust(flags: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Mark a whole true anomaly segment detected if any point inside is."""
    seg = np.cumsum(np.diff(truth, prepend=False) & truth)  # 1, 2, ... inside
    hit = np.bincount(seg[flags & truth], minlength=seg.max() + 1) > 0
    return flags | (truth & hit[seg])


def _prf(flags: np.ndarray, truth: np.ndarray) -> dict:
    tp = float((flags & truth).sum())
    fp = float((flags & ~truth).sum())
    fn = float((~flags & truth).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {"precision": precision, "recall": recall, "f1": f1}


# ----------------------------------------------------------------------
# scaling benchmark
# ----------------------------------------------------------------------

def bench_scaling(lengths, config: TrainConfig, repeats: int = 5):
    """Median forward wall time and peak allocation per lookback length.

    Models, windows and delay priors are built for every length before
    anything is timed, so the measurement isolates the backbone forward
    pass. The timed runs go round-robin over the lengths (repeat r of every
    length before repeat r + 1), so a drift in machine speed spreads over
    all lengths instead of landing on one.
    """
    lengths = list(lengths)
    if lengths != sorted(lengths):
        raise ContractError("lengths must be ascending")
    rng = np.random.default_rng(config.model.seed)
    runs = []  # (length, state, window, priors)
    for T_len in lengths:
        cfg = replace(config.model, lookback=T_len,
                      horizon=config.model.patch_len, task="forecast")
        window = rng.standard_normal((config.n_variates, T_len))
        max_lag = cfg.max_lag if cfg.max_lag > 0 else cfg.patch_len * 12
        priors = delay_matrix(window, min(max_lag, T_len - MIN_OVERLAP),
                              cfg.patch_len)
        runs.append((T_len, ModelState.init(cfg), window, priors))
    times = [[] for _ in runs]
    rows = []
    with T.no_grad():
        for _, state, window, priors in runs:
            backbone_forward(window, state, priors)  # warm-up
        for _ in range(repeats):
            for ms, (_, state, window, priors) in zip(times, runs):
                t0 = time.perf_counter()
                backbone_forward(window, state, priors)
                ms.append((time.perf_counter() - t0) * 1000.0)
        for ms, (T_len, state, window, priors) in zip(times, runs):
            tracemalloc.start()
            backbone_forward(window, state, priors)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            rows.append({"T": T_len, "ms": float(np.median(ms)),
                         "bytes": int(peak)})
    return rows


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------

def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_metrics(metrics: dict, path) -> None:
    write_json({k: float(v) for k, v in metrics.items()}, path)


def write_predictions(pred: np.ndarray, path, columns=None) -> None:
    """One row per timestep, one column per variate; pred is [N, T]."""
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if columns:
            writer.writerow(columns)
        for t in range(pred.shape[1]):
            writer.writerow([f"{v:.10g}" for v in pred[:, t]])


def write_bench(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "ms", "bytes"])
        for row in rows:
            writer.writerow([row["T"], f"{row['ms']:.3f}", row["bytes"]])
