"""End-to-end runs of every CLI subcommand on a tiny dataset."""

import csv
import json
from collections import Counter

import numpy as np
import pytest

from conftest import coupled_series
from dema import cli, model, pipeline
from dema import tensor as T
from dema.cli import main
from dema.delay import default_max_lag, delay_matrix
from dema.model import (ModelState, load_checkpoint, model_forward,
                        save_checkpoint)
from dema.pipeline import (DatasetSpec, choose_priors, load_csv_dataset,
                           make_windows, parse_config_file)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = coupled_series(n_steps=400, seed=3)
    rng = np.random.default_rng(9)
    labels = (rng.random(400) < 0.05).astype(int)
    spiked = data.copy()
    spiked[:, labels.astype(bool)] += 4.0
    with open(root / "plain.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ts", "v1", "v2"])
        for t in range(400):
            w.writerow([t, f"{data[0, t]:.6f}", f"{data[1, t]:.6f}"])
    with open(root / "labeled.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ts", "v1", "v2", "label"])
        for t in range(400):
            w.writerow([t, f"{spiked[0, t]:.6f}", f"{spiked[1, t]:.6f}",
                        labels[t]])
    base = ("epochs = 2\nd_model = 8\nd_state = 4\nn_blocks = 1\n"
            "chunk = 4\nlookback = 24\nhorizon = 8\nbatch_size = 32\n")
    (root / "forecast.conf").write_text(base + "task = forecast\n")
    (root / "impute.conf").write_text(base + "task = impute\n")
    (root / "anomaly.conf").write_text(base + "task = anomaly\n"
                                       "anomaly_ratio = 0.05\n")
    (root / "classify.conf").write_text(base + "task = classify\n"
                                        "n_classes = 2\n")
    return root


def run(args):
    assert main([str(a) for a in args]) == 0


def test_train_and_evaluate_forecast(workspace):
    out = workspace / "run_forecast"
    run(["train", "--config", workspace / "forecast.conf",
         "--data", workspace / "plain.csv", "--seed", "0", "--out", out])
    assert (out / "checkpoint.npz").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"mse", "mae"}
    log = json.loads((out / "train_log.json").read_text())
    assert len(log["log"]) == 2
    for entry in log["log"]:
        assert set(entry) == {"epoch", "train_loss", "val_loss",
                              "epoch_seconds", "windows_per_s", "grad_norm"}
        assert entry["epoch_seconds"] > 0 and entry["windows_per_s"] > 0
        assert np.isfinite(entry["grad_norm"]) and entry["grad_norm"] > 0
    run(["evaluate", "--config", workspace / "forecast.conf",
         "--data", workspace / "plain.csv", "--out", out])
    again = json.loads((out / "metrics.json").read_text())
    assert again == pytest.approx(metrics)


def test_forecast_writes_predictions(workspace):
    out = workspace / "run_forecast"
    run(["forecast", "--config", workspace / "forecast.conf",
         "--data", workspace / "plain.csv", "--out", out,
         "--checkpoint", out / "checkpoint.npz"])
    rows = (out / "predictions.csv").read_text().strip().splitlines()
    assert rows[0] == "v1,v2"
    assert len(rows) > 1 and len(rows[1].split(",")) == 2


def predict_in_batches_of_two(workspace, monkeypatch, task, global_priors):
    """What `dema <task>` writes at batch_size 2, below the test split's
    3 tiled windows; its window-by-window reference; and the windows each
    backbone forward of the command saw."""
    conf = workspace / f"{task}_{global_priors}.conf"
    conf.write_text((workspace / f"{task}.conf").read_text().replace(
        "batch_size = 32", "batch_size = 2")
        + f"global_priors = {global_priors}\n")
    cfg, _ = parse_config_file(conf)
    ckpt = workspace / f"{task}_init.npz"
    save_checkpoint(ModelState.init(cfg.model), ckpt)
    written, seen = [], []
    monkeypatch.setattr(cli, "write_predictions",
                        lambda pred, *_: written.append(pred))
    forward = model.backbone_forward
    monkeypatch.setattr(model, "backbone_forward", lambda x, *args, **kw: (
        seen.append(len(x) if np.ndim(x) == 3 else 1) or forward(x, *args,
                                                                  **kw)))
    run([task, "--config", conf, "--data", workspace / "plain.csv",
         "--out", workspace / f"run_{task}_batched", "--checkpoint", ckpt])
    monkeypatch.undo()                  # the reference's forwards are not seen
    state = load_checkpoint(ckpt)
    splits = load_csv_dataset(DatasetSpec(path=str(workspace / "plain.csv")))
    priors = choose_priors(splits, state.config, cfg.global_priors)
    L = state.config.lookback
    with T.no_grad():
        ref = np.concatenate(
            [model_forward(splits.test[:, s:s + L], state, priors).data
             for s in range(0, splits.test.shape[1] - L + 1, L)], axis=1)
    assert len(written) == 1
    return written[0], ref, seen


@pytest.mark.parametrize("global_priors", ["true", "false"])
def test_forecast_predictions_match_window_by_window(workspace, monkeypatch,
                                                     global_priors):
    # forwards of batch_size windows give what one forward per test window
    # gives, and no forward sees more than batch_size windows
    got, ref, seen = predict_in_batches_of_two(workspace, monkeypatch,
                                               "forecast", global_priors)
    assert got.shape == ref.shape and max(seen) == 2
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("global_priors", ["true", "false"])
def test_impute_predictions_match_window_by_window(workspace, monkeypatch,
                                                   global_priors):
    got, ref, seen = predict_in_batches_of_two(workspace, monkeypatch,
                                               "impute", global_priors)
    assert got.shape == ref.shape and max(seen) == 2
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("command, conf, data", [
    ("forecast", "forecast.conf", "plain.csv"),
    ("detect", "anomaly.conf", "labeled.csv"),
])
def test_prediction_command_estimates_priors_once_and_forwards_once(
        workspace, monkeypatch, command, conf, data):
    # the shared priors are estimated once per command, every forward goes
    # through the pipeline in batches, and detect writes the reconstructions
    # its metrics scored instead of forwarding the test windows again
    cfg, spec = parse_config_file(workspace / conf)
    ckpt = workspace / f"{command}_counted.npz"
    save_checkpoint(ModelState.init(cfg.model), ckpt)
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)

        monkeypatch.setattr(module, name, counted)

    for module in (pipeline, model):
        count(module, "delay_matrix")
    count(pipeline, "model_forward")
    written = []
    monkeypatch.setattr(cli, "write_predictions",
                        lambda pred, *_: written.append(pred))
    run([command, "--config", workspace / conf, "--data", workspace / data,
         "--out", workspace / f"run_{command}_counted", "--checkpoint", ckpt])
    spec.path = str(workspace / data)
    splits = load_csv_dataset(spec)
    L, H, batch = cfg.model.lookback, cfg.model.horizon, cfg.batch_size
    tiles = splits.test.shape[1] // L
    if command == "forecast":
        # the test windows, then the tiled ones, in batches
        n = len(make_windows(splits.test, L, H, "forecast"))
        forwards, width = -(-n // batch) - (-tiles // batch), tiles * H
    else:
        # the tiled train windows, then the tiled test windows, in batches
        forwards = sum(-(-n // batch)
                       for n in (splits.train.shape[1] // L, tiles))
        width = tiles * L
    assert calls == {"delay_matrix": 1, "model_forward": forwards}
    assert len(written) == 1 and written[0].shape == (2, width)


def test_impute_roundtrip(workspace):
    out = workspace / "run_impute"
    run(["train", "--config", workspace / "impute.conf",
         "--data", workspace / "plain.csv", "--out", out])
    run(["impute", "--config", workspace / "impute.conf",
         "--data", workspace / "plain.csv", "--out", out])
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"mse", "mae"}
    assert (out / "predictions.csv").exists()


def test_detect_flags_anomalies(workspace):
    out = workspace / "run_anomaly"
    run(["train", "--config", workspace / "anomaly.conf",
         "--data", workspace / "labeled.csv", "--out", out])
    run(["detect", "--config", workspace / "anomaly.conf",
         "--data", workspace / "labeled.csv", "--out", out])
    metrics = json.loads((out / "metrics.json").read_text())
    assert {"threshold", "flagged_fraction", "precision", "recall",
            "f1"} <= set(metrics)


def test_classify_reports_accuracy(workspace):
    out = workspace / "run_classify"
    run(["train", "--config", workspace / "classify.conf",
         "--data", workspace / "labeled.csv", "--out", out])
    run(["classify", "--config", workspace / "classify.conf",
         "--data", workspace / "labeled.csv", "--out", out])
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["accuracy"] <= 1.0


def test_decompose_outputs_are_lossless(workspace):
    out = workspace / "run_decompose"
    run(["decompose", "--data", workspace / "plain.csv", "--out", out])
    ct = np.genfromtxt(out / "cross_time.csv", delimiter=",", skip_header=1)
    cv = np.genfromtxt(out / "cross_var.csv", delimiter=",", skip_header=1)
    sel = json.loads((out / "selected.json").read_text())
    assert sel["theta"] == 0.4 and len(sel["selected"]) >= 1
    raw = np.genfromtxt(workspace / "plain.csv", delimiter=",",
                        skip_header=1)[:, 1:]
    assert np.max(np.abs(ct + cv - raw)) <= 1e-6


def test_priors_outputs(workspace):
    out = workspace / "run_priors"
    run(["priors", "--data", workspace / "plain.csv", "--out", out])
    tau = np.loadtxt(out / "tau.csv", delimiter=",")
    rho = np.loadtxt(out / "rho.csv", delimiter=",")
    delta = np.loadtxt(out / "delta.csv", delimiter=",")
    assert tau.shape == rho.shape == delta.shape == (2, 2)
    np.testing.assert_array_equal(np.diag(tau), 0)
    np.testing.assert_array_equal(np.diag(rho), 1.0)
    # variate 2 lags variate 1 by 4 steps
    assert tau[0, 1] == 4 and tau[1, 0] == -4


def test_priors_are_those_of_the_csv_values(tmp_path):
    # tau.csv and rho.csv are delay_matrix of the values the CSV holds, bit
    # for bit: no z-score and back in between
    rng = np.random.default_rng(4)
    data = np.cumsum(rng.standard_normal((3, 120)), axis=1) * 3.7 + 11.0
    path = tmp_path / "d.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ts", "a", "b", "c"])
        w.writerows([t, *data[:, t].tolist()] for t in range(120))
    run(["priors", "--data", path, "--out", tmp_path])
    with open(path, newline="") as fh:
        window = np.array([[float(x) for x in row[1:]]
                           for row in list(csv.reader(fh))[1:]]).T
    priors = delay_matrix(window, default_max_lag(120),
                          model.ModelConfig().patch_len)
    for name in ("tau", "rho"):
        with open(tmp_path / f"{name}.csv", newline="") as fh:
            got = np.array([[float(x) for x in row] for row in csv.reader(fh)])
        np.testing.assert_array_equal(got, getattr(priors, name))


@pytest.mark.parametrize("command, named", [
    ("priors", "series too short"), ("decompose", "window length >= 2")])
def test_csv_too_short_exits_with_one_error_line(tmp_path, capsys, command,
                                                named):
    path = tmp_path / "d.csv"
    path.write_text("ts,a,b\n0,1.5,2.5\n")
    assert main([command, "--data", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]


def test_bench_writes_table(workspace):
    out = workspace / "run_bench"
    run(["bench", "--config", workspace / "forecast.conf", "--out", out,
         "--lengths", "32,64"])
    rows = (out / "bench.csv").read_text().strip().splitlines()
    assert rows[0] == "T,ms,bytes"
    assert len(rows) == 3


def test_bad_config_returns_error(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense_key = 1\n")
    assert main(["evaluate", "--config", str(conf),
                 "--out", str(tmp_path)]) == 1


def test_malformed_config_value_exits_cleanly(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("d_model = 8\nepochs = 1.5\n")
    assert main(["train", "--config", str(conf),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{conf}:2: epochs" in err


def small_csv(path, n_rows=160):
    data = coupled_series(n_steps=n_rows, seed=1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ts", "a", "b"])
        for t in range(n_rows):
            w.writerow([t, f"{data[0, t]:.6f}", f"{data[1, t]:.6f}"])
    return path


@pytest.mark.parametrize("line, field", [
    ("task = impute\nmask_ratio = 1.5", "mask_ratio"),
    ("val_ratio = -0.1", "val_ratio"),
    ("d_model = 0", "d_model"),
    ("max_lag = -3", "max_lag"),
])
def test_invalid_config_value_exits_cleanly(tmp_path, capsys, line, field):
    conf = tmp_path / "bad.conf"
    conf.write_text("epochs = 1\nd_model = 8\nlookback = 24\nhorizon = 8\n"
                    + line + "\n")
    assert main(["train", "--config", str(conf),
                 "--data", str(small_csv(tmp_path / "d.csv")),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {conf}: {field}")


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_non_finite_lr_exits_with_one_error_line(tmp_path, capsys, lr):
    conf = tmp_path / "bad.conf"
    conf.write_text(f"epochs = 1\nd_model = 8\nlr = {lr}\n")
    assert main(["train", "--config", str(conf),
                 "--data", str(small_csv(tmp_path / "d.csv")),
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {conf}: lr must be a positive finite number, got {lr}"]
    assert not (tmp_path / "train_log.json").exists()


def test_empty_val_split_exits_cleanly(tmp_path, capsys):
    # 160 rows at the default ratios leave a 16-row val split
    conf = tmp_path / "short.conf"
    conf.write_text("epochs = 1\nd_model = 8\nlookback = 24\nhorizon = 8\n")
    assert main(["train", "--config", str(conf),
                 "--data", str(small_csv(tmp_path / "d.csv")),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("error: val split yields no windows: it has 16 rows and a "
            "window needs lookback + horizon = 32") in err
    assert not (tmp_path / "train_log.json").exists()


def test_short_test_split_exits_before_training(tmp_path, capsys):
    # 130 rows at the ratios 0.6 / 0.35 leave a 7-row test split: no
    # epoch runs and nothing is written
    conf = tmp_path / "short.conf"
    conf.write_text("epochs = 1\nd_model = 8\nlookback = 32\nhorizon = 8\n"
                    "train_ratio = 0.6\nval_ratio = 0.35\n")
    out = tmp_path / "out"
    assert main(["train", "--config", str(conf),
                 "--data", str(small_csv(tmp_path / "d.csv", 130)),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: test split yields no windows: it has 7 rows and "
                   "a window needs lookback + horizon = 40"]
    assert not (out / "checkpoint.npz").exists()
    assert not (out / "train_log.json").exists()


@pytest.mark.parametrize("command, conf, data, ratio, error", [
    # 2 train rows: too few to estimate the shared priors from
    ("forecast", "forecast.conf", "plain.csv", 0.005,
     "train split has 2 rows; the shared delay priors need 4"),
    ("evaluate", "forecast.conf", "plain.csv", 0.005,
     "train split has 2 rows; the shared delay priors need 4"),
    # 10 train rows: enough for the priors, too few for the threshold's
    # tiled lookback windows
    ("detect", "anomaly.conf", "labeled.csv", 0.025,
     "train split yields no windows: it has 10 rows and a window needs "
     "lookback = 24"),
    ("evaluate", "anomaly.conf", "labeled.csv", 0.025,
     "train split yields no windows: it has 10 rows and a window needs "
     "lookback = 24"),
])
def test_short_train_split_is_named_by_prediction_commands(
        workspace, tmp_path, capsys, command, conf, data, ratio, error):
    short = tmp_path / "short.conf"
    short.write_text((workspace / conf).read_text()
                     + f"train_ratio = {ratio}\n")
    ckpt = tmp_path / "init.npz"
    save_checkpoint(ModelState.init(parse_config_file(short)[0].model), ckpt)
    assert main([command, "--config", str(short), "--checkpoint", str(ckpt),
                 "--data", str(workspace / data), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


def test_train_reads_the_csv_once(workspace, monkeypatch):
    calls = []
    read = pipeline.read_csv
    monkeypatch.setattr(pipeline, "read_csv",
                        lambda path: calls.append(path) or read(path))
    run(["train", "--config", workspace / "forecast.conf",
         "--data", workspace / "plain.csv", "--out", workspace / "run_once"])
    assert calls == [str(workspace / "plain.csv")]


def test_train_estimates_the_shared_priors_once(workspace, monkeypatch):
    # train and evaluate read one estimate of the train split's priors
    calls = []
    estimate = pipeline.delay_matrix
    monkeypatch.setattr(pipeline, "delay_matrix",
                        lambda *args: calls.append(args) or estimate(*args))
    run(["train", "--config", workspace / "forecast.conf",
         "--data", workspace / "plain.csv", "--out", workspace / "run_priors"])
    assert len(calls) == 1


@pytest.mark.parametrize("args, named", [
    (["train", "--config", "ok.conf"], "--data"),
    (["train", "--config", "missing.conf", "--data", "d.csv"], "missing.conf"),
    (["evaluate", "--checkpoint", "missing.npz"], "missing.npz"),
    (["evaluate", "--checkpoint", "d.csv"], "d.csv"),
    (["evaluate", "--checkpoint", "other.npz"], "other.npz"),
    (["bench", "--lengths", "384,abc"], "--lengths"),
    (["bench", "--lengths", "64,32"], "ascending"),
    (["train", "--config", "ok.conf", "--data", "d.csv", "--seed", "-1"],
     "seed"),
], ids=["no --data", "missing --config", "missing checkpoint",
        "non-npz checkpoint", "npz without __version__", "bad --lengths",
        "descending --lengths", "negative --seed"])
def test_bad_file_or_flag_exits_with_one_error_line(tmp_path, capsys,
                                                    monkeypatch, args, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.conf").write_text("epochs = 1\nd_model = 8\n")
    small_csv(tmp_path / "d.csv")
    np.savez(tmp_path / "other.npz", weights=np.zeros(3))
    assert main(args + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert named in err[0]


def test_task_command_rejects_other_task_checkpoint(workspace, capsys):
    ckpt = workspace / "run_forecast" / "checkpoint.npz"
    if not ckpt.exists():
        run(["train", "--config", workspace / "forecast.conf",
             "--data", workspace / "plain.csv", "--out", ckpt.parent])
    assert main(["impute", "--data", str(workspace / "plain.csv"),
                 "--checkpoint", str(ckpt),
                 "--out", str(workspace / "run_mismatch")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: ") and "'forecast'" in err
    assert "'impute'" in err
