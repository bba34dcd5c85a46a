"""Dual-path blocks, backbone, heads, anomaly scoring, and checkpoints."""

import json
import re
import warnings

import numpy as np
import pytest

from dema import dala, model
from dema import tensor as T
from dema.delay import DelayPriors, delay_matrix
from dema.embedding import InstanceStats
from dema.errors import ConfigError, ContractError, NumericError
from dema.model import (BackboneOutput, DuoMNetBlockParams, ModelConfig,
                        ModelState, anomaly_score, backbone_forward,
                        duomnet_block, head_classify, head_forecast,
                        load_checkpoint, model_forward, save_checkpoint,
                        select_threshold)


def small_config(**kw):
    defaults = dict(task="forecast", lookback=32, horizon=8, d_model=8,
                    d_state=4, expand=2, n_blocks=2, patch_len=8, stride=8,
                    theta=0.5, conv_size=4, chunk=4, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


def make_tokens(rng, cfg):
    tokens = rng.standard_normal((2, cfg.n_tokens, cfg.d_model))
    return T.Tensor(tokens), T.Tensor(tokens.copy())


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

def test_config_chunk_sets_dala_chunk(rng, monkeypatch):
    # the config's chunk reaches DALA as it reaches the SSD: the 12 tokens
    # of a 96-step lookback run as 3 chunks of 4 in each block
    state = ModelState.init(small_config(lookback=96))
    plans, plan = [], dala._plan
    monkeypatch.setattr(dala, "_plan",
                        lambda *args: plans.append(args[-2:]) or plan(*args))
    model_forward(rng.standard_normal((2, 3, 96)), state,
                  DelayPriors.identity(3))
    assert plans == [(12, 4)] * 2


def test_config_rejects_unknown_task():
    with pytest.raises(ConfigError):
        small_config(task="segment")


def test_config_classify_needs_classes():
    with pytest.raises(ConfigError):
        small_config(task="classify", n_classes=1)


def test_config_fusion_weights_bounded():
    with pytest.raises(ConfigError):
        small_config(alpha=1.5)


@pytest.mark.parametrize("field, kw", [
    ("d_inner", dict(d_model=5, expand=1)),
    ("chunk", dict(chunk=0)),
    ("d_state", dict(d_state=0)),
    ("kernel_power", dict(kernel_power=0)),
    ("conv_size", dict(conv_size=0)),
    ("patch_len", dict(patch_len=40)),
    ("patch_len", dict(patch_len=0)),
    ("d_model", dict(d_model=0)),
    ("expand", dict(expand=0)),
    ("n_blocks", dict(n_blocks=0)),
    ("stride", dict(stride=0)),
    ("horizon", dict(horizon=0)),
    ("theta", dict(theta=1.5)),
    ("beta", dict(beta=-0.1)),
    ("max_lag", dict(max_lag=-3)),
    ("seed", dict(seed=-1)),
])
def test_config_rejects_bad_sizes(field, kw):
    with pytest.raises(ConfigError, match=field):
        small_config(**kw)


def test_config_derived_quantities():
    cfg = small_config()
    assert cfg.d_inner == 16
    assert cfg.n_tokens == 4
    assert cfg.lag_bound() == 8
    assert small_config(max_lag=3).lag_bound() == 3


# ----------------------------------------------------------------------
# block
# ----------------------------------------------------------------------

def test_block_fusion_alpha_one_beta_zero(rng):
    cfg = small_config(alpha=1.0, beta=0.0)
    blk = DuoMNetBlockParams.init(cfg, np.random.default_rng(0))
    # silence the feed-forward tail so Z_b = LN_out(U) with U = LN(Y_time)
    blk.ffn.w1.data[:] = 0.0
    blk.ffn.w2.data[:] = 0.0
    x_time, x_var = make_tokens(rng, cfg)
    from dema.ssd import mamba_ssd_forward
    y_time = mamba_ssd_forward(x_time, blk.ssd)
    _, _, z_b = duomnet_block(x_time, x_var, DelayPriors.identity(2), blk)
    expect = T.layer_norm(T.layer_norm(y_time, blk.ln_time.gamma,
                                       blk.ln_time.beta),
                          blk.ln_out.gamma, blk.ln_out.beta)
    np.testing.assert_allclose(z_b.data, expect.data, atol=1e-12)


def test_block_zeroed_paths_pass_inputs_through(rng):
    cfg = small_config()
    blk = DuoMNetBlockParams.init(cfg, np.random.default_rng(1))
    for p in (blk.ssd.w_out, blk.ssd.b_out, blk.dala.w_out, blk.dala.b_out):
        p.data[:] = 0.0
    x_time, x_var = make_tokens(rng, cfg)
    next_time, next_var, _ = duomnet_block(x_time, x_var,
                                           DelayPriors.identity(2), blk)
    np.testing.assert_array_equal(next_time.data, x_time.data)
    np.testing.assert_array_equal(next_var.data, x_var.data)


def test_block_output_shape(rng):
    cfg = small_config()
    blk = DuoMNetBlockParams.init(cfg, np.random.default_rng(2))
    x_time, x_var = make_tokens(rng, cfg)
    _, _, z_b = duomnet_block(x_time, x_var, DelayPriors.identity(2), blk)
    assert z_b.shape == (2, cfg.n_tokens, cfg.d_model)


# ----------------------------------------------------------------------
# backbone
# ----------------------------------------------------------------------

def test_backbone_single_block_equals_trace(rng):
    state = ModelState.init(small_config(n_blocks=1))
    window = rng.standard_normal((2, 32))
    out = backbone_forward(window, state, trace=True)
    assert len(out.per_block) == 1
    np.testing.assert_array_equal(out.Z.data, out.per_block[0].data)


def test_backbone_sums_blocks(rng):
    state = ModelState.init(small_config(n_blocks=3))
    window = rng.standard_normal((2, 32))
    out = backbone_forward(window, state, trace=True)
    assert len(out.per_block) == 3
    total = sum(z.data for z in out.per_block)
    np.testing.assert_allclose(out.Z.data, total, atol=1e-12)


def test_backbone_deterministic(rng):
    state = ModelState.init(small_config())
    window = rng.standard_normal((2, 32))
    a = backbone_forward(window, state).Z.data
    b = backbone_forward(window, state).Z.data
    np.testing.assert_array_equal(a, b)


def test_backbone_rejects_wrong_length(rng):
    state = ModelState.init(small_config())
    with pytest.raises(ContractError):
        backbone_forward(rng.standard_normal((2, 33)), state)


def test_backbone_batched_matches_per_window(rng):
    state = ModelState.init(small_config())
    windows = rng.standard_normal((3, 2, 32))
    priors = DelayPriors.identity(2)
    batched = backbone_forward(windows, state, priors).Z.data
    for g in range(3):
        single = backbone_forward(windows[g], state, priors).Z.data
        np.testing.assert_allclose(batched[g], single, atol=1e-12)


def test_backbone_batched_per_window_priors_matches_single(rng):
    """A batch with priors=None estimates each window's priors itself."""
    state = ModelState.init(small_config())
    windows = rng.standard_normal((3, 2, 32))
    windows[1, 1] = np.roll(windows[1, 0], 3)  # priors differ per window
    batched = backbone_forward(windows, state, trace=True)
    for g in range(3):
        single = backbone_forward(windows[g], state, trace=True)
        np.testing.assert_allclose(batched.Z.data[g], single.Z.data,
                                   rtol=0, atol=1e-12)
        for zb, zs in zip(batched.per_block, single.per_block, strict=True):
            np.testing.assert_allclose(zb.data[g], zs.data, rtol=0,
                                       atol=1e-12)


def test_backbone_per_window_priors_gradients_match_stitched(rng,
                                                             monkeypatch):
    """One batched forward with per-window priors gives the outputs and the
    parameter gradients of forwarding each window alone and stacking the
    results, as the backbone used to."""
    state = ModelState.init(small_config())
    windows = rng.standard_normal((3, 2, 32))
    windows[1, 1] = np.roll(windows[1, 0], 3)
    windows[2, 1] = np.roll(windows[2, 0], -6)  # another shift
    target = rng.standard_normal((3, 2, 8))

    def step(forward):
        state.zero_grad()
        pred = forward()
        diff = T.sub(pred, target)
        T.backward(T.tmean(T.mul(diff, diff)))
        return pred.data, {n: p.grad.copy() for n, p in state.parameters()}

    def stitched():
        outs = [backbone_forward(w, state) for w in windows]
        # stack the windows' representations: window w times the w-th
        # unit vector, summed, is exact in values and gradients
        Z = None
        for w, o in enumerate(outs):
            term = T.mul(T.reshape(o.Z, (1,) + o.Z.shape),
                         np.eye(len(outs))[w].reshape((-1,) + (1,) * o.Z.ndim))
            Z = term if Z is None else T.add(Z, term)
        stats = InstanceStats(mean=np.stack([o.stats.mean for o in outs]),
                              std=np.stack([o.stats.std for o in outs]))
        return head_forecast(Z, stats, state)

    calls = []
    delay_matrix = model.delay_matrix
    monkeypatch.setattr(model, "delay_matrix",
                        lambda *a: calls.append(a) or delay_matrix(*a))
    pred, grads = step(lambda: model_forward(windows, state))
    assert len(calls) == 1     # one call for the whole batch
    ref_pred, ref_grads = step(stitched)
    np.testing.assert_allclose(pred, ref_pred, rtol=0, atol=1e-12)
    for name, g in grads.items():
        np.testing.assert_allclose(g, ref_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)


def test_backbone_estimates_priors_when_absent(rng):
    state = ModelState.init(small_config())
    out = backbone_forward(rng.standard_normal((2, 32)), state)
    assert out.priors is not None
    assert out.priors.n_variates == 2


def test_per_window_forwards_keep_one_plan(rng, monkeypatch):
    # per-window priors change from batch to batch, so a batch's DALA plan
    # is read by its own blocks only: ten forwards keep one plan
    monkeypatch.setattr(dala, "_PLANS", {})
    state = ModelState.init(small_config())
    with T.no_grad():
        for _ in range(10):
            windows = rng.standard_normal((2, 2, 32))
            # a noisy lagged copy: an active pair, its rho new each batch
            windows[:, 1] += 3 * np.roll(windows[:, 0], 3, axis=-1)
            model_forward(windows, state)
    assert len(dala._PLANS) == 1


def test_per_window_lag_bound_is_cut_to_the_window(rng):
    # max_lag 40 > lookback 32: each window searches the lags that leave
    # MIN_OVERLAP = 4 points, as at max_lag 28
    window = rng.standard_normal((2, 32))
    got = backbone_forward(window, ModelState.init(small_config(max_lag=40)))
    want = delay_matrix(window, 28, 8)
    assert got.priors.max_lag == 28
    np.testing.assert_array_equal(got.priors.tau, want.tau)
    np.testing.assert_array_equal(got.priors.rho, want.rho)


# ----------------------------------------------------------------------
# heads
# ----------------------------------------------------------------------

def test_forecast_head_shapes(rng):
    state = ModelState.init(small_config())
    pred = model_forward(rng.standard_normal((2, 32)), state)
    assert pred.shape == (2, 8)
    batch = model_forward(rng.standard_normal((4, 2, 32)), state,
                          DelayPriors.identity(2))
    assert batch.shape == (4, 2, 8)


def test_pointwise_head_shape(rng):
    state = ModelState.init(small_config(task="impute", horizon=0))
    pred = model_forward(rng.standard_normal((2, 32)), state)
    assert pred.shape == (2, 32)


def test_classify_head_is_distribution(rng):
    state = ModelState.init(small_config(task="classify", n_classes=5))
    probs = model_forward(rng.standard_normal((2, 32)), state)
    assert probs.shape == (5,)
    assert abs(float(probs.data.sum()) - 1.0) <= 1e-9
    assert np.all(probs.data >= 0)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_classify_head_matches_matmul_chain(lead, rng):
    # the fused head against the reshape -> product -> reshape chain it
    # replaced, on one window and on a batch
    state = ModelState.init(small_config(task="classify", n_classes=4))
    Z = rng.standard_normal(lead + (2, 4, 8))
    cot = rng.standard_normal(lead + (4,))

    def chain(Z):
        pooled = T.tmean(T.tmean(Z, axis=-2), axis=-2)
        logits = T.add(T.linear(T.reshape(pooled, pooled.shape[:-1] + (1, 8)),
                                state.head_w), state.head_b)
        return T.softmax(T.reshape(logits, lead + (4,)), axis=-1)

    results = []
    for head in (chain, lambda Z: head_classify(Z, state)):
        state.zero_grad()
        Zt = T.Tensor(Z, requires_grad=True)
        probs = head(Zt)
        T.backward(T.tsum(T.mul(probs, cot)))
        results.append((probs.data, state.head_w.grad, state.head_b.grad,
                        Zt.grad))
    for old, new in zip(*results):
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-15)


def test_model_tape_has_no_matmul_node(rng):
    # every dense layer is a fused linear node: no matmul closure (and so
    # no separate bias add) is left on a training tape
    for task in ("forecast", "classify"):
        state = ModelState.init(small_config(task=task, n_classes=3))
        out = model_forward(rng.standard_normal((2, 3, 32)), state)
        seen, stack, ops = {id(out)}, [out], set()
        while stack:
            node = stack.pop()
            ops.add(node._backward.__qualname__.split(".")[0])
            for p in node._parents:
                if p._backward is not None and id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        assert "matmul" not in ops, task
        assert {"linear", "gated_linear"} <= ops, task


def test_forecast_head_zero_backbone_constant_bias(rng):
    state = ModelState.init(small_config())
    state.head_w.data[:] = 0.0
    state.head_b.data[:] = 2.0
    stats = InstanceStats(mean=np.array([1.0, -1.0]), std=np.array([3.0, 0.5]))
    Z = T.Tensor(np.zeros((2, 4, 8)))
    pred = head_forecast(Z, stats, state)
    np.testing.assert_allclose(pred.data[0], 2.0 * 3.0 + 1.0, atol=1e-12)
    np.testing.assert_allclose(pred.data[1], 2.0 * 0.5 - 1.0, atol=1e-12)


# ----------------------------------------------------------------------
# anomaly criterion
# ----------------------------------------------------------------------

def test_score_zero_on_perfect_reconstruction(rng):
    x = rng.standard_normal((3, 20))
    np.testing.assert_array_equal(anomaly_score(x, x), 0.0)


def test_score_spike_localized(rng):
    x = rng.standard_normal((2, 50)) * 0.01
    recon = x.copy()
    x = x.copy()
    x[:, 23] += 5.0  # injected spike
    assert int(np.argmax(anomaly_score(x, recon))) == 23


def test_threshold_quantile_fraction(rng):
    scores = rng.random(1000)
    thr = select_threshold(scores, 0.01)
    exceed = int((scores > thr).sum())
    assert abs(exceed - 10) <= 1


def test_threshold_rejects_bad_ratio():
    for ratio in (0.0, 1.0, -0.1):
        with pytest.raises(ConfigError):
            select_threshold(np.ones(10), ratio)


def test_score_shape_contract(rng):
    with pytest.raises(ContractError):
        anomaly_score(np.ones((2, 5)), np.ones((2, 6)))


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, rng):
    state = ModelState.init(small_config())
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    assert loaded.config == state.config
    for (name, p), (name2, q) in zip(state.parameters(), loaded.parameters()):
        assert name == name2
        np.testing.assert_array_equal(p.data, q.data)
    window = rng.standard_normal((2, 32))
    np.testing.assert_array_equal(model_forward(window, state).data,
                                  model_forward(window, loaded).data)


# checkpoint names are the dataclass field paths; renaming a field breaks
# every saved checkpoint
BLOCK_PARAMETERS = [
    "ssd.w_content", "ssd.b_content", "ssd.w_gate", "ssd.b_gate",
    "ssd.conv_kernel", "ssd.w_delta", "ssd.b_delta", "ssd.w_B", "ssd.b_B",
    "ssd.w_C", "ssd.b_C", "ssd.A_log", "ssd.w_out", "ssd.b_out",
    "dala.w_content", "dala.b_content", "dala.w_gate", "dala.b_gate",
    "dala.w_q", "dala.w_k", "dala.w_v", "dala.w_out", "dala.b_out",
    "ln_time.gamma", "ln_time.beta", "ln_var.gamma", "ln_var.beta",
    "ln_out.gamma", "ln_out.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2"]


@pytest.mark.parametrize("task", ["forecast", "classify"])
def test_checkpoint_parameter_names(task):
    state = ModelState.init(small_config(task=task, n_classes=3))
    names = [name for name, _ in state.parameters()]
    assert len(BLOCK_PARAMETERS) == 33 and len(names) == 72
    assert names == (["encoder_time.weight", "encoder_time.bias",
                      "encoder_var.weight", "encoder_var.bias"]
                     + [f"block{i}.{n}" for i in range(2)
                        for n in BLOCK_PARAMETERS]
                     + ["head.w", "head.b"])
    assert state.parameters()[-2][1] is state.head_w
    assert state.parameters()[4][1] is state.blocks[0].ssd.w_content


def test_checkpoint_rejects_bad_version(tmp_path):
    state = ModelState.init(small_config())
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    data = dict(np.load(path))
    data["__version__"] = np.array(99)
    np.savez(path, **data)
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_shape(tmp_path):
    state = ModelState.init(small_config())
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    data = dict(np.load(path))
    data["param/head.b"] = np.zeros(1)  # broadcasts silently against [8]
    np.savez(path, **data)
    with pytest.raises(ContractError, match="head.b"):
        load_checkpoint(path)


def test_checkpoint_errors_name_the_file(tmp_path):
    state = ModelState.init(small_config())
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    data = dict(np.load(path))
    for change in ({"param/head.b": np.zeros(1)}, {"param/head.b": None}):
        broken = {**data, **change}
        np.savez(path, **{k: v for k, v in broken.items() if v is not None})
        with pytest.raises(ContractError,
                           match=f"{re.escape(str(path))}.*head.b"):
            load_checkpoint(path)


def test_checkpoint_rejects_non_finite_parameter(tmp_path):
    state = ModelState.init(small_config())
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    data = dict(np.load(path))
    data["param/encoder_time.weight"][0, 0] = np.inf
    np.savez(path, **data)
    name = re.escape(str(path))
    with pytest.raises(ContractError,
                       match=f"{name}.*encoder_time.weight.*non-finite"):
        load_checkpoint(path)


def checkpoint_with_config(tmp_path, field, value):
    """A checkpoint of small_config() whose __config__ has field: value."""
    state = ModelState.init(small_config())
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    data = dict(np.load(path))
    cfg = json.loads(bytes(data["__config__"]).decode())
    data["__config__"] = np.frombuffer(
        json.dumps({**cfg, field: value}).encode(), dtype=np.uint8)
    np.savez(path, **data)
    return path


def test_checkpoint_rejects_unknown_config_field(tmp_path):
    path = checkpoint_with_config(tmp_path, "n_layers", 3)
    with pytest.raises(ContractError,
                       match=f"{re.escape(str(path))}.*n_layers"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [
    ("kernel_power", 3.0), ("d_model", 8.0), ("rotated_denominator", "yes"),
    ("n_blocks", True)])
def test_checkpoint_rejects_config_value_of_wrong_type(tmp_path, field, value):
    # a float where an int belongs failed at the first forward, and a
    # string where a bool belongs loaded as true
    path = checkpoint_with_config(tmp_path, field, value)
    with pytest.raises(ContractError,
                       match=f"{re.escape(str(path))}.*{field}"):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [
    ("d_model", 0), ("theta", 1.5), ("task", "regress"), ("patch_len", 1000)])
def test_checkpoint_rejects_config_value_out_of_range(tmp_path, field, value):
    # a well-typed value that ModelConfig refuses names the file and field
    path = checkpoint_with_config(tmp_path, field, value)
    with pytest.raises(ConfigError,
                       match=f"{re.escape(str(path))}.*{field}"):
        load_checkpoint(path)


@pytest.mark.parametrize("raw", [b'{"lookback": 32,', b"\xff\xfe", b"[1, 2]"])
def test_checkpoint_rejects_bad_config_json(tmp_path, raw):
    state = ModelState.init(small_config())
    path = tmp_path / "ckpt.npz"
    save_checkpoint(state, path)
    data = dict(np.load(path))
    data["__config__"] = np.frombuffer(raw, dtype=np.uint8)
    np.savez(path, **data)
    with pytest.raises(ContractError,
                       match=f"{re.escape(str(path))}.*__config__"):
        load_checkpoint(path)


def test_overflowing_a_log_is_named_in_discretize(rng):
    # exp(1e3) overflows: the error names the op and the parameter where
    # it starts, not a later op that meets the non-finite values
    state = ModelState.init(small_config())
    state.blocks[0].ssd.A_log.data = np.full_like(
        state.blocks[0].ssd.A_log.data, 1e3)
    with pytest.raises(NumericError, match="discretize: exp\\(A_log\\)"):
        model_forward(rng.standard_normal((2, 3, 32)), state)


def test_non_finite_window_is_named_where_priors_are_estimated(rng):
    # without priors, each window's priors come from its raw values: a NaN
    # there is named by window, variate and time step, not two stages later
    # by the temporal path's conv1d; with shared priors the backbone names
    # it before RevIN, with no numpy warning on the way
    state = ModelState.init(small_config())
    batch = rng.standard_normal((3, 2, 32))
    batch[1, 0, 5] = np.nan
    with pytest.raises(NumericError,
                       match="window 1, variate 0, time step 5"):
        backbone_forward(batch, state, priors=None)
    with pytest.raises(NumericError,
                       match="window 1, variate 0, time step 5"):
        model_forward(batch, state)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="window 1, variate 0, time "
                                               "step 5"):
            model_forward(batch, state, DelayPriors.identity(2))
