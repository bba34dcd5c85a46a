"""CSV ingestion, windowing, masking, optimizer, training, and metrics."""

import re
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import coupled_splits
from dema import pipeline
from dema import tensor as T
from dema.delay import DelayPriors
from dema.errors import ConfigError, ContractError, FormatError, NumericError
from dema.model import ModelConfig, ModelState, anomaly_score, model_forward
from dema.pipeline import (Adam, DatasetSpec, TrainConfig, _point_adjust,
                           _prf, apply_mask, detect, evaluate,
                           load_csv_dataset, make_windows, parse_config_file,
                           shared_priors, train, write_bench, write_metrics,
                           write_predictions)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(c) for c in row) for row in rows)
                    + "\n")


def numeric_csv(path, n_rows=10, n_vars=2, seed=0):
    rng = np.random.default_rng(seed)
    rows = [["ts"] + [f"v{i}" for i in range(n_vars)]]
    for t in range(n_rows):
        rows.append([t] + [f"{x:.6f}" for x in rng.standard_normal(n_vars)])
    write_csv(path, rows)
    return path


# ----------------------------------------------------------------------
# config files
# ----------------------------------------------------------------------

def test_parse_config_roundtrip(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("# comment\n\nlr = 0.01\nepochs=3\nlookback = 48\n"
                 "task = impute\nglobal_priors = false\n")
    cfg, spec = parse_config_file(p)
    assert cfg.lr == 0.01 and cfg.epochs == 3
    assert cfg.global_priors is False
    assert cfg.model.lookback == 48 and cfg.model.task == "impute"
    assert spec == DatasetSpec()


def test_parse_config_unknown_key(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("learning_rate = 0.01\n")
    with pytest.raises(ConfigError):
        parse_config_file(p)
    p.write_text("lr = 0.01\ntest_ratio = 0.2\n")  # the test split is the rest
    with pytest.raises(ConfigError, match=r"run.conf:2: unknown key "
                                          r"'test_ratio'"):
        parse_config_file(p)


def test_parse_config_bad_syntax(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("lr 0.01\n")
    with pytest.raises(FormatError):
        parse_config_file(p)


def readme_config_keys():
    """Backticked keys of the bullet lines in README's "Config file"."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config file", 1)[1].split("\n### ", 1)[0]
    keys = set()
    for bullet in re.findall(r"^- .*?(?=\n(?! ))", section, re.M | re.S):
        keys.update(re.findall(r"`(\w+)`", bullet.split(":", 1)[1]))
    return keys


def test_readme_lists_exactly_the_config_keys(tmp_path):
    classes = (ModelConfig, TrainConfig, DatasetSpec)
    declared = {f.name for cls in classes for f in fields(cls)} - {"model"}
    assert readme_config_keys() == declared
    defaults = {**asdict(ModelConfig()), **asdict(DatasetSpec())}
    defaults.update((f.name, f.default) for f in fields(TrainConfig)
                    if f.name != "model")
    p = tmp_path / "run.conf"
    for key in sorted(declared):
        p.write_text(f"{key} = {defaults[key]}\n")
        parse_config_file(p)  # each documented key is accepted


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)


def test_parse_config_routes_each_key_to_its_class(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("d_model = 24\ntheta = 0.3\nconv_size = 2\nseed = 5\n"
                 "batch_size = 4\nmask_ratio = 0.5\npath = d.csv\n")
    cfg, spec = parse_config_file(p)
    assert cfg.model == ModelConfig(d_model=24, theta=0.3, conv_size=2,
                                    seed=5)
    assert cfg.batch_size == 4
    assert spec == DatasetSpec(path="d.csv", mask_ratio=0.5)


@pytest.mark.parametrize("line, field", [
    ("d_model = 0", "d_model"),
    ("stride = 0", "stride"),
    ("task = segment", "task"),
    ("mask_ratio = 1.5", "mask_ratio"),
    ("epochs = 0", "epochs"),
    ("lr = nan", "lr"),
    ("lr = inf", "lr"),
])
def test_parse_config_invalid_value_names_file_and_field(tmp_path, line,
                                                         field):
    p = tmp_path / "run.conf"
    p.write_text(line + "\n")
    with pytest.raises(ConfigError, match=rf"run.conf: {field}"):
        parse_config_file(p)


@pytest.mark.parametrize("kw, field", [
    (dict(train_ratio=0.0), "train_ratio"),
    (dict(train_ratio=1.2), "train_ratio"),
    (dict(val_ratio=-0.1), "val_ratio"),
    (dict(val_ratio=1.0), "val_ratio"),
    (dict(train_ratio=0.8, val_ratio=0.3), "train_ratio \\+ val_ratio"),
    (dict(mask_ratio=1.5), "mask_ratio"),
    (dict(mask_ratio=-0.1), "mask_ratio"),
    (dict(anomaly_ratio=0.0), "anomaly_ratio"),
    (dict(anomaly_ratio=1.0), "anomaly_ratio"),
])
def test_dataset_spec_validation(kw, field):
    with pytest.raises(ConfigError, match=field):
        DatasetSpec(**kw)


# ----------------------------------------------------------------------
# CSV loading
# ----------------------------------------------------------------------

def test_load_shapes(tmp_path):
    spec = DatasetSpec(path=str(numeric_csv(tmp_path / "d.csv", 10, 2)))
    splits = load_csv_dataset(spec)
    total = (splits.train.shape[1] + splits.val.shape[1]
             + splits.test.shape[1])
    assert splits.train.shape[0] == 2 and total == 10
    assert splits.columns == ["v0", "v1"]


def test_load_split_ratios(tmp_path):
    spec = DatasetSpec(path=str(numeric_csv(tmp_path / "d.csv", 100, 1)))
    splits = load_csv_dataset(spec)
    assert splits.train.shape[1] == 70
    assert splits.val.shape[1] == 10
    assert splits.test.shape[1] == 20


def test_load_train_split_is_zscored(tmp_path):
    spec = DatasetSpec(path=str(numeric_csv(tmp_path / "d.csv", 200, 3)))
    splits = load_csv_dataset(spec)
    assert np.max(np.abs(splits.train.mean(axis=1))) <= 1e-9
    np.testing.assert_allclose(splits.train.std(axis=1), 1.0, atol=1e-9)


def test_load_nan_names_position(tmp_path):
    p = tmp_path / "d.csv"
    rows = [["ts", "a", "b"]] + [[t, 1.0 + t, 2.0 + t] for t in range(8)]
    rows[4][1] = "NaN"  # data row 4 -> file row 5, col 2
    write_csv(p, rows)
    with pytest.raises(FormatError, match=r"row 5, col 2"):
        load_csv_dataset(DatasetSpec(path=str(p)))


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
def test_load_rejects_infinite_cells(tmp_path, cell):
    p = tmp_path / "d.csv"
    rows = [["ts", "a", "b"]] + [[t, 1.0 + t, 2.0 + t] for t in range(8)]
    rows[3][2] = cell  # data row 3 -> file row 4, col 3
    write_csv(p, rows)
    with pytest.raises(FormatError, match=r"non-finite .* row 4, col 3"):
        load_csv_dataset(DatasetSpec(path=str(p)))


def test_parse_config_bad_number_names_line_and_key(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("lr = 0.01\nepochs = 1.5\n")
    with pytest.raises(ConfigError, match=r"run.conf:2: epochs: expected an "
                                          r"integer, got '1.5'"):
        parse_config_file(p)
    p.write_text("lr = fast\n")
    with pytest.raises(ConfigError, match=r"run.conf:1: lr: expected a "
                                          r"number"):
        parse_config_file(p)
    p.write_text("global_priors = maybe\n")
    with pytest.raises(ConfigError, match=r"run.conf:1: global_priors: "
                                          r"expected a boolean, got 'maybe'"):
        parse_config_file(p)


def test_load_rejects_ragged_and_nonnumeric(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, [["ts", "a"], [0, 1.0], [1]])
    with pytest.raises(FormatError, match="row 3"):
        load_csv_dataset(DatasetSpec(path=str(p)))
    write_csv(p, [["ts", "a"], [0, "oops"]])
    with pytest.raises(FormatError, match="non-numeric"):
        load_csv_dataset(DatasetSpec(path=str(p)))
    p.write_text("")
    with pytest.raises(FormatError, match="empty"):
        load_csv_dataset(DatasetSpec(path=str(p)))
    for rows, named in (([["ts"], [0]], "need a timestamp column"),
                        ([["t", "label"], [0, 1]], "no variate columns"),
                        ([["ts", "a"], [0, 1.0]], "too few rows for the split")):
        write_csv(p, rows)
        with pytest.raises(FormatError, match=named):
            load_csv_dataset(DatasetSpec(path=str(p)))


def test_load_header_only_says_no_data_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("ts,a,b\n")
    with pytest.raises(FormatError, match=r"d\.csv: no data rows"):
        pipeline.read_csv(str(p))


@pytest.mark.parametrize("value", [
    lambda t: 1e306 * (1 + t % 3),          # the train sums overflow
    lambda t: 1e200 * (-1) ** t,            # the squares overflow
], ids=["sums", "squares"])
def test_load_rejects_values_too_large_to_zscore(tmp_path, value):
    # finite cells whose z-score overflows: a FormatError naming the file
    # and the column, and no numpy warning on the way
    p = tmp_path / "d.csv"
    write_csv(p, [["ts", "a", "b"]] + [[t, 1.0 + t, value(t)]
                                       for t in range(200)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError,
                           match=r"d\.csv: column 'b' is too large"):
            load_csv_dataset(DatasetSpec(path=str(p)))


def test_load_label_column(tmp_path):
    p = tmp_path / "d.csv"
    rows = [["ts", "a", "label"]]
    for t in range(20):
        rows.append([t, float(t), int(t % 2)])
    write_csv(p, rows)
    splits = load_csv_dataset(DatasetSpec(path=str(p)))
    assert splits.train.shape[0] == 1  # the label column is not a variate
    assert splits.labels is not None
    assert splits.labels["train"].size == 14
    assert splits.columns == ["a"]


@pytest.mark.parametrize("cell", ["1.5", "-0.25"])
def test_load_rejects_non_integer_label(tmp_path, cell):
    p = tmp_path / "d.csv"
    rows = [["ts", "a", "label"]] + [[t, float(t), t % 2] for t in range(20)]
    rows[6][2] = cell
    write_csv(p, rows)
    with pytest.raises(FormatError,
                       match=f"label '{cell}' at row 7, col 3 is not an "
                             "integer"):
        load_csv_dataset(DatasetSpec(path=str(p)))


def test_load_missing_file_names_it(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(FormatError, match=re.escape(str(missing))):
        load_csv_dataset(DatasetSpec(path=str(missing)))
    with pytest.raises(ConfigError, match="--data"):
        load_csv_dataset(DatasetSpec())
    with pytest.raises(FormatError, match=re.escape(str(missing))):
        parse_config_file(missing)


# ----------------------------------------------------------------------
# windowing and masking
# ----------------------------------------------------------------------

def test_windows_counting(rng):
    assert len(make_windows(rng.standard_normal((1, 100)), 96, 4,
                            "forecast")) == 1
    assert len(make_windows(rng.standard_normal((1, 200)), 96, 96,
                            "forecast")) == 9


def test_windows_anomaly_target_is_input(rng):
    pairs = make_windows(rng.standard_normal((2, 40)), 32, 0, "anomaly")
    for x, y in pairs:
        np.testing.assert_array_equal(x, y)


def test_windows_too_short_is_empty(rng):
    # no warning: train and evaluate raise a ContractError for an empty split
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = make_windows(rng.standard_normal((1, 50)), 96, 24, "forecast")
    assert out == []


def test_windows_classify_labels(rng):
    labels = np.arange(40)
    pairs = make_windows(rng.standard_normal((1, 40)), 32, 0, "classify",
                         labels)
    assert [y for _, y in pairs] == [31, 32, 33, 34, 35, 36, 37, 38, 39]
    with pytest.raises(ContractError):
        make_windows(rng.standard_normal((1, 40)), 32, 0, "classify")
    with pytest.raises(ConfigError, match="unknown task 'segment'"):
        make_windows(rng.standard_normal((1, 40)), 32, 0, "segment")


def test_mask_count_and_determinism(rng):
    window = rng.standard_normal((2, 96))
    masked, mask = apply_mask(window, 0.5, seed=7)
    assert int(mask.sum()) == 96
    np.testing.assert_array_equal(masked[mask], 0.0)
    np.testing.assert_array_equal(masked[~mask], window[~mask])
    masked2, mask2 = apply_mask(window, 0.5, seed=7)
    np.testing.assert_array_equal(mask, mask2)


def test_mask_zero_ratio(rng):
    window = rng.standard_normal((2, 48))
    masked, mask = apply_mask(window, 0.0, seed=0)
    np.testing.assert_array_equal(masked, window)
    assert mask.sum() == 0


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------

def test_adam_zero_lr_freezes_params(rng):
    p = T.Tensor(rng.standard_normal(4), requires_grad=True)
    before = p.data.copy()
    opt = Adam([("p", p)], lr=0.0)
    for _ in range(3):
        opt.zero_grad()
        T.backward(T.tsum(T.mul(p, p)))
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_descends_quadratic():
    # a parameter outside the loss gets no gradient and is left alone
    p = T.Tensor(np.array([5.0, -3.0]), requires_grad=True)
    unused = T.Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("p", p), ("unused", unused)], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        T.backward(T.tsum(T.mul(p, p)))
        opt.step()
    assert np.max(np.abs(p.data)) < 0.1
    assert unused.grad is None and unused.data.tolist() == [1.0]


# ----------------------------------------------------------------------
# training loop
# ----------------------------------------------------------------------

def tiny_setup(**model):
    splits = coupled_splits(n_steps=420, n_train=280, n_val=60)
    mc = dict(lookback=48, horizon=8, task="forecast", d_model=8, d_state=4,
              n_blocks=1, chunk=4, seed=0)
    mc.update(model)
    cfg = TrainConfig(epochs=3, batch_size=32, model=ModelConfig(**mc))
    return cfg, DatasetSpec(), splits


def test_training_reduces_loss():
    cfg, spec, splits = tiny_setup()
    result = train(cfg, spec, splits=splits)
    assert not result.diverged
    assert result.log[-1]["train_loss"] < result.log[0]["train_loss"]


def test_training_is_deterministic():
    cfg, spec, splits = tiny_setup()
    log1 = train(cfg, spec, splits=splits).log
    log2 = train(cfg, spec, splits=splits).log
    assert [e["train_loss"] for e in log1] == [e["train_loss"] for e in log2]


def test_training_logs_a_non_finite_loss(monkeypatch):
    # 225 train windows make 8 batches of up to 32 per epoch; the loss of
    # the second batch of epoch 1 (training call 10) goes non-finite
    cfg, spec, splits = tiny_setup()
    batch_loss = pipeline._batch_loss
    calls = []

    def loss_going_nan(state, xs, *args, **kw):
        loss = batch_loss(state, xs, *args, **kw)
        if T._grad_enabled:
            calls.append(len(xs))
            if len(calls) == 10:
                return T.mul(loss, np.nan)
        return loss

    monkeypatch.setattr(pipeline, "_batch_loss", loss_going_nan)
    with pytest.warns(UserWarning, match="diverged at epoch 1"):
        result = train(cfg, spec, splits=splits)
    assert calls == [32] * 7 + [1] + [32] * 2
    assert result.diverged and result.best_epoch == 0
    assert result.log[-1] == {"epoch": 1, "batch_start": 32,
                              "event": "non-finite loss"}
    assert len(result.log) == 2 and "train_loss" in result.log[0]


@pytest.mark.parametrize("batch_size, where", [
    (32, {"batch_start": 32}),
    (256, {"split": "val"}),     # one batch per epoch: validation comes next
])
def test_training_logs_a_forward_that_overflows(batch_size, where):
    # lr = 1e3 leaves the weights finite (|w| up to about 1e3) after the
    # first step, but exp(A_log) overflows in the next forward, and the
    # error names discretize, where it starts; the run ends with the
    # initial weights
    cfg, spec, _ = tiny_setup()
    cfg.lr, cfg.batch_size = 1e3, batch_size
    splits = coupled_splits(n_steps=400, n_train=250, n_val=80)
    with pytest.warns(UserWarning, match="diverged at epoch 0 \\(non-finite "
                      "forward\\); keeping the initial weights"):
        with np.errstate(all="ignore"):
            result = train(cfg, spec, splits=splits)
    assert result.diverged and result.best_epoch == -1
    assert result.log == [{"epoch": 0, **where,
                           "event": "non-finite forward",
                           "error": "discretize: exp(A_log) is not finite "
                                    "(A_log max 1002)"}]
    initial = ModelState.init(cfg.model)
    for (name, p), (_, p0) in zip(result.state.parameters(),
                                  initial.parameters()):
        np.testing.assert_array_equal(p.data, p0.data, err_msg=name)


def test_training_raises_a_forward_error_before_the_first_step(monkeypatch):
    # before Adam has stepped, a NumericError is the data's or the
    # config's: it propagates instead of ending the run with a log entry
    cfg, spec, splits = tiny_setup()

    def failing(*args, **kw):
        raise NumericError("conv1d: non-finite input")

    monkeypatch.setattr(pipeline, "_batch_loss", failing)
    with pytest.raises(NumericError, match="conv1d"):
        train(cfg, spec, splits=splits)


def test_train_loads_the_csv_without_splits(tmp_path):
    # without splits, train loads and splits spec.path itself: the same run
    spec = DatasetSpec(path=str(numeric_csv(tmp_path / "d.csv", 200, 2)))
    cfg = TrainConfig(epochs=1, model=ModelConfig(
        lookback=16, horizon=4, d_model=8, d_state=4, n_blocks=1, seed=0))
    own = train(cfg, spec).log
    given = train(cfg, spec, splits=load_csv_dataset(spec)).log
    assert [e["train_loss"] for e in own] == [e["train_loss"] for e in given]


def test_training_logs_non_finite_parameters(monkeypatch):
    # the third step of epoch 1 (step 11) leaves a weight at inf; the run
    # ends there with the best-validation weights, which are finite
    cfg, spec, splits = tiny_setup()
    step = Adam.step
    steps = []

    def step_to_inf(self):
        step(self)
        steps.append(self.t)
        if self.t == 11:
            self.params[0][1].data[0] = np.inf

    monkeypatch.setattr(Adam, "step", step_to_inf)
    with pytest.warns(UserWarning, match="diverged at epoch 1 \\(non-finite "
                      "parameters\\); keeping the best-validation weights"):
        result = train(cfg, spec, splits=splits)
    assert steps == list(range(1, 12))
    assert result.diverged and result.best_epoch == 0
    assert result.log[-1] == {"epoch": 1, "batch_start": 64,
                              "event": "non-finite parameters"}
    assert all(np.all(np.isfinite(p.data))
               for _, p in result.state.parameters())


def test_training_empty_split_raises():
    cfg, spec, splits = tiny_setup()
    splits.train = splits.train[:, :10]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="train split yields no "
                           "windows: it has 10 rows"):
            train(cfg, spec, splits=splits)


def test_evaluate_empty_test_split_names_rows_and_need():
    cfg, spec, splits = tiny_setup()
    cfg.epochs = 1
    result = train(cfg, spec, splits=splits)
    splits.test = splits.test[:, :10]
    need = cfg.model.lookback + cfg.model.horizon
    with pytest.raises(ContractError) as err:
        evaluate(result.state, spec, splits=splits, config=cfg)
    assert str(err.value) == (
        "test split yields no windows: it has 10 rows and a window needs "
        f"lookback + horizon = {need}")


@pytest.mark.parametrize("split, label", [("train", 3), ("val", -1),
                                          ("test", 2)])
def test_class_labels_outside_range_name_split_and_value(split, label):
    cfg, spec, splits = tiny_setup(task="classify", n_classes=2)
    cfg.epochs = 1
    splits.labels = {k: np.arange(getattr(splits, k).shape[1]) % 2
                     for k in ("train", "val", "test")}
    state = ModelState.init(cfg.model)
    splits.labels[split][50] = label
    with pytest.raises(ContractError,
                       match=fr"{split} split has class label {label}, "
                             r"outside \[0, 2\)"):
        if split == "test":
            evaluate(state, spec, splits=splits, config=cfg)
        else:
            train(cfg, spec, splits=splits)


def test_evaluate_forecast_metrics():
    cfg, spec, splits = tiny_setup()
    result = train(cfg, spec, splits=splits)
    metrics = evaluate(result.state, spec, splits=splits, config=cfg)
    assert set(metrics) == {"mse", "mae"}
    assert metrics["mse"] >= 0 and metrics["mae"] >= 0


@pytest.mark.parametrize("task", ["impute", "classify"])
@pytest.mark.parametrize("global_priors", [True, False])
def test_evaluate_batches_match_per_window(task, global_priors):
    """Batched impute/classify evaluation equals one window at a time."""
    cfg, spec, splits = tiny_setup(task=task, n_classes=2)
    cfg.epochs, cfg.batch_size = 1, 4
    cfg.global_priors = global_priors
    rng = np.random.default_rng(0)
    splits.labels = {k: rng.integers(0, 2, getattr(splits, k).shape[1])
                     for k in ("train", "val", "test")}
    splits.test = splits.test[:, :56]  # 9 windows: two full batches and one
    state = train(cfg, spec, splits=splits).state
    metrics = evaluate(state, spec, splits=splits, config=cfg)
    priors = shared_priors(splits, cfg.model) if global_priors else None
    windows = make_windows(splits.test, 48, 8, task, splits.labels["test"])
    if task == "classify":
        correct = [np.argmax(model_forward(x, state, priors).data) == y
                   for x, y in windows]
        assert metrics == {"accuracy": np.mean(correct)}
        return
    d = []
    for i, (x, y) in enumerate(windows):
        masked, mask = apply_mask(x, spec.mask_ratio, 10_000 + i)
        d.append((model_forward(masked, state, priors).data - y)[mask])
    d = np.concatenate(d)
    assert metrics["mse"] == pytest.approx(np.mean(d ** 2), rel=1e-12)
    assert metrics["mae"] == pytest.approx(np.mean(np.abs(d)), rel=1e-12)


def test_evaluate_priors_override_changes_nothing_structural():
    cfg, spec, splits = tiny_setup()
    result = train(cfg, spec, splits=splits)
    mc = result.state.config
    m_id = evaluate(result.state, spec, splits=splits, config=cfg,
                    priors_override=DelayPriors.identity(2))
    m_est = evaluate(result.state, spec, splits=splits, config=cfg,
                     priors_override=shared_priors(splits, mc))
    assert set(m_id) == set(m_est) == {"mse", "mae"}


def test_detect_point_adjust_credits_whole_segments():
    # the whole test split is one true segment: with point_adjust one hit
    # detects all of it, without it recall is the flagged fraction
    cfg = TrainConfig(model=ModelConfig(task="anomaly", lookback=32,
                                        d_model=8, d_state=4, n_blocks=1))
    state = ModelState.init(cfg.model)
    splits = coupled_splits(n_steps=400, n_train=250, n_val=50)
    splits.labels = {"test": np.ones(splits.test.shape[1], dtype=int)}
    spec = DatasetSpec(anomaly_ratio=0.5)
    priors = shared_priors(splits, cfg.model)
    plain, recon = detect(state, spec, splits, cfg, priors)
    cfg.point_adjust = True
    adjusted, again = detect(state, spec, splits, cfg, priors)
    np.testing.assert_array_equal(recon, again)
    assert 0 < plain["recall"] == plain["flagged_fraction"] < 1
    assert adjusted["recall"] == adjusted["precision"] == 1.0


def test_prf_perfect_detector():
    truth = np.zeros(50, dtype=bool)
    truth[[5, 17, 31]] = True
    metrics = _prf(truth.copy(), truth)
    assert metrics == {"precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_prf_no_positives():
    metrics = _prf(np.zeros(10, dtype=bool), np.zeros(10, dtype=bool))
    assert metrics["f1"] == 0.0


def test_point_adjust_marks_whole_segments(rng):
    truth = np.array([0, 1, 1, 1, 0, 1, 1, 0, 1], dtype=bool)
    flags = np.array([1, 0, 1, 0, 0, 0, 0, 0, 1], dtype=bool)
    np.testing.assert_array_equal(
        _point_adjust(flags, truth),
        np.array([1, 1, 1, 1, 0, 0, 0, 0, 1], dtype=bool))
    for _ in range(200):
        truth, flags = rng.random((2, 25)) < rng.random((2, 1))
        want = flags.copy()
        for start in range(25):       # each segment, from its first point
            if truth[start] and (start == 0 or not truth[start - 1]):
                end = start + np.argmin(np.append(truth[start:], False))
                want[start:end] |= flags[start:end].any()
        np.testing.assert_array_equal(_point_adjust(flags, truth), want)


# ----------------------------------------------------------------------
# output files
# ----------------------------------------------------------------------

def test_write_metrics(tmp_path):
    path = tmp_path / "metrics.json"
    write_metrics({"mse": 0.5, "mae": np.float64(0.25)}, path)
    import json
    assert json.loads(path.read_text()) == {"mse": 0.5, "mae": 0.25}


def test_write_predictions_layout(tmp_path):
    path = tmp_path / "pred.csv"
    pred = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    write_predictions(pred, path, columns=["a", "b"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,4"  # one row per timestep, one column per variate
    assert len(lines) == 4


def test_write_bench(tmp_path):
    path = tmp_path / "bench.csv"
    write_bench([{"T": 384, "ms": 12.5, "bytes": 1000}], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "T,ms,bytes"
    assert lines[1] == "384,12.500,1000"


def test_batches_follow_the_order():
    windows = [(i, -i) for i in range(5)]
    assert list(pipeline._batches(windows, 2)) == [
        (0, [0, 1], [0, -1]), (2, [2, 3], [-2, -3]), (4, [4], [-4])]
    assert list(pipeline._batches(windows, 3, np.array([4, 0, 3, 1, 2]))) == [
        (0, [4, 0, 3], [-4, 0, -3]), (3, [1, 2], [-1, -2])]


def test_tiled_windows(rng):
    split = rng.standard_normal((2, 70))
    windows = pipeline.tiled_windows(split, 32)
    assert windows.shape == (2, 2, 32)
    np.testing.assert_array_equal(windows[1], split[:, 32:64])
    with pytest.raises(ContractError, match="shorter than one lookback"):
        pipeline.tiled_windows(split[:, :31], 32)


@pytest.mark.parametrize("shared", [True, False])
def test_reconstruction_scores_match_window_by_window(shared):
    # one batched forward per slice of batch_size windows gives the scores
    # of one forward per window; 7 windows in slices of 3 leave a ragged one
    cfg = ModelConfig(task="anomaly", lookback=32, horizon=0, d_model=8,
                      d_state=4, n_blocks=1, patch_len=8, stride=8, seed=0)
    state = ModelState.init(cfg)
    split = coupled_splits(n_steps=7 * 32 + 5, n_train=7 * 32 + 5,
                           n_val=0).train
    priors = shared_priors(coupled_splits(), cfg) if shared else None
    with T.no_grad():
        loop = np.concatenate([
            anomaly_score(x, model_forward(x, state, priors).data)
            for x in (split[:, s:s + 32] for s in range(0, 7 * 32, 32))])
        batched = pipeline._reconstruction_scores(state, split, priors, 3)
    assert batched.shape == loop.shape == (7 * 32,)
    np.testing.assert_allclose(batched, loop, rtol=0, atol=1e-12)
