"""Acceptance gate: one check per shipping criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. The heavier criteria (scaling benchmark, training runs)
dominate the runtime; the whole gate stays well inside its stated budgets.
"""

import time

import numpy as np
import pytest

from conftest import chirp, coupled_splits
from dema import tensor as T
from dema.dala import (DalaInputs, RotaryTable, _rope_apply, dala_attention,
                       naive_dala_oracle)
from dema.delay import DelayPriors, token_shift, xcorr_delay
from dema.model import ModelConfig, ModelState, model_forward
from dema.pipeline import (DatasetSpec, TrainConfig, bench_scaling, evaluate,
                           make_windows, shared_priors, train)
from dema.spectral import decompose, support_overlap
from dema.ssd import DiscreteSSM, mamba_ssd_forward, ssd_blocked, \
    ssm_scan_reference


def report(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {tag}" + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"{tag}: {detail}"


# ----------------------------------------------------------------------
# 1. blocked scan equals the step recurrence
# ----------------------------------------------------------------------

def test_criterion_1_ssd_equivalence():
    rng = np.random.default_rng(10)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        N = int(rng.integers(1, 5))
        L = int(rng.integers(1, 65))
        Dh = int(rng.integers(1, 9))
        Du = int(rng.integers(1, 5))
        chunk = int(rng.choice([1, 8, 16]))
        d = DiscreteSSM(A_bar=T.Tensor(rng.uniform(0.02, 0.98, (N, L, Dh))),
                        B_bar=T.Tensor(rng.standard_normal((N, L, Dh))))
        C = T.Tensor(rng.standard_normal((N, L, Dh)))
        x = T.Tensor(rng.standard_normal((N, L, Du)))
        ref = ssm_scan_reference(d, C, x)
        out = ssd_blocked(d, C, x, chunk).data
        worst = max(worst, float(np.max(np.abs(out - ref))))
    elapsed = time.perf_counter() - t0
    report("criterion 1: SSD blocked scan == recurrence (100 instances)",
           worst <= 1e-8 and elapsed < 10.0,
           f"max diff {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. prefix-sum attention equals the literal double sum
# ----------------------------------------------------------------------

def test_criterion_2_dala_oracle_equivalence():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        L = int(rng.integers(1, 9))
        N = int(rng.integers(1, 5))
        Du = 2 * int(rng.integers(1, 5))
        delta = rng.integers(-3, 4, (N, N))
        np.fill_diagonal(delta, 0)
        rho = rng.uniform(0.0, 1.0, (N, N))
        np.fill_diagonal(rho, 1.0)
        priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta,
                             max_lag=24)
        inp = DalaInputs(q=T.Tensor(rng.standard_normal((L, N, Du))),
                         k=T.Tensor(rng.standard_normal((L, N, Du))),
                         v=T.Tensor(rng.standard_normal((L, N, Du))),
                         priors=priors, p=3)
        out = dala_attention(inp).data
        ref = naive_dala_oracle(inp)
        worst = max(worst, float(np.max(np.abs(out - ref))))
    elapsed = time.perf_counter() - t0
    report("criterion 2: DALA == naive oracle (100 instances)",
           worst <= 1e-9 and elapsed < 10.0,
           f"max diff {worst:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 3. spectral split is lossless
# ----------------------------------------------------------------------

def test_criterion_3_spectral_losslessness():
    rng = np.random.default_rng(12)
    worst = 0.0
    thetas = [round(0.1 * i, 1) for i in range(1, 11)]
    for theta in thetas:
        for _ in range(10):
            x = rng.standard_normal((int(rng.integers(1, 6)), 96)) * 3.0
            split = decompose(x, theta)
            worst = max(worst, float(np.max(np.abs(
                split.cross_time + split.cross_variate - x))))
            if theta == 1.0:
                worst = max(worst, float(np.max(np.abs(split.cross_variate))))
    report("criterion 3: spectral split lossless over theta grid",
           worst <= 1e-9, f"max residual {worst:.2e}")


# ----------------------------------------------------------------------
# 4. exact delay recovery on chirps + rounding table
# ----------------------------------------------------------------------

def test_criterion_4_delay_recovery():
    n = 160
    c = chirp(n + 16)
    a = c[8:8 + n]
    bad = []
    for s in range(-8, 9):
        b = c[8 - s:8 - s + n]  # b[t] = a[t - s]
        est = xcorr_delay(a, b, 8)
        if est.tau != s or abs(est.rho) < 0.999:
            bad.append((s, est.tau, est.rho))
    rng = np.random.default_rng(13)
    table_ok = True
    for _ in range(50):
        tau = int(rng.integers(-48, 49))
        P = int(rng.integers(1, 13))
        q = tau / P
        ref = int(np.sign(q) * np.floor(abs(q) + 0.5))
        if token_shift(tau, P) != ref:
            table_ok = False
    report("criterion 4: exact chirp delay recovery and token rounding",
           not bad and table_ok, f"misses {bad}")


# ----------------------------------------------------------------------
# 5. both paths are causal
# ----------------------------------------------------------------------

def test_criterion_5_causality():
    from dema.ssd import SsdParams
    worst_ssd = 0.0
    worst_dala = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        # temporal path
        params = SsdParams.init(8, 16, 4, rng, chunk=4)
        tokens = rng.standard_normal((2, 12, 8))
        full = mamba_ssd_forward(T.Tensor(tokens), params).data
        cut = int(rng.integers(0, 11))
        trunc = tokens.copy()
        trunc[:, cut + 1:] = 0.0
        out = mamba_ssd_forward(T.Tensor(trunc), params).data
        worst_ssd = max(worst_ssd, float(np.max(np.abs(
            out[:, : cut + 1] - full[:, : cut + 1]))))
        # variate path
        L, N, Du = 10, 3, 4
        delta = rng.integers(-2, 3, (N, N))
        np.fill_diagonal(delta, 0)
        rho = rng.uniform(0.1, 1.0, (N, N))
        np.fill_diagonal(rho, 1.0)
        priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta,
                             max_lag=16)
        q = rng.standard_normal((L, N, Du))
        k = rng.standard_normal((L, N, Du))
        v = rng.standard_normal((L, N, Du))
        inp = DalaInputs(q=T.Tensor(q), k=T.Tensor(k), v=T.Tensor(v),
                         priors=priors, p=3)
        full_d = dala_attention(inp).data
        cut = int(rng.integers(4, 9))
        qz, kz, vz = q.copy(), k.copy(), v.copy()
        qz[cut + 1:] = kz[cut + 1:] = vz[cut + 1:] = 0.0
        out_d = dala_attention(DalaInputs(q=T.Tensor(qz), k=T.Tensor(kz),
                                          v=T.Tensor(vz), priors=priors,
                                          p=3)).data
        safe = cut - int(np.max(np.abs(delta)))
        if safe >= 0:
            worst_dala = max(worst_dala, float(np.max(np.abs(
                out_d[: safe + 1] - full_d[: safe + 1]))))
    report("criterion 5: causality of both paths (50 seeds)",
           worst_ssd <= 1e-10 and worst_dala <= 1e-9,
           f"ssd {worst_ssd:.2e}, dala {worst_dala:.2e}")


# ----------------------------------------------------------------------
# 6. rotary logits depend only on relative position
# ----------------------------------------------------------------------

def test_criterion_6_rope_relative_property():
    rng = np.random.default_rng(14)
    table = RotaryTable(dim=16)
    worst_rel = 0.0
    worst_id = 0.0
    for _ in range(100):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        pu = int(rng.integers(0, 500))
        pv = int(rng.integers(0, 500))
        off = int(rng.integers(1, 500))

        def logit(x, y, px, py):
            rx = _rope_apply(x, table.rotation(px))
            ry = _rope_apply(y, table.rotation(py))
            return float(rx @ ry)

        worst_rel = max(worst_rel, abs(logit(u, v, pu, pv)
                                       - logit(u, v, pu + off, pv + off)))
        ident = _rope_apply(u, table.rotation(0))
        worst_id = max(worst_id, float(np.max(np.abs(ident - u))))
    report("criterion 6: rotary offset invariance and identity at 0",
           worst_rel <= 1e-10 and worst_id <= 1e-12,
           f"offset {worst_rel:.2e}, identity {worst_id:.2e}")


# ----------------------------------------------------------------------
# 7. gradients agree with finite differences
# ----------------------------------------------------------------------

def _fd_rel_err(value_fn, p, grad, h=1e-6):
    worst = 0.0
    flat = p.data.ravel()
    gflat = grad.ravel()
    idx = range(flat.size) if flat.size <= 8 else \
        np.random.default_rng(0).choice(flat.size, 8, replace=False)
    for i in idx:
        old = flat[i]
        flat[i] = old + h
        fp = value_fn()
        flat[i] = old - h
        fm = value_fn()
        flat[i] = old
        fd = (fp - fm) / (2 * h)
        rel = abs(gflat[i] - fd) / max(abs(fd), abs(gflat[i]), 1e-6)
        worst = max(worst, rel)
    return worst


def test_criterion_7_gradient_checks():
    rng = np.random.default_rng(15)
    # per-op: composite layer_norm -> softmax -> weighted sum
    x = T.Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    w = rng.standard_normal((3, 6))

    def op_value():
        return float(np.sum(
            T.softmax(T.layer_norm(T.Tensor(x.data))).data * w))

    T.backward(T.tsum(T.mul(T.softmax(T.layer_norm(x)), w)))
    per_op = _fd_rel_err(op_value, x, x.grad)

    # end to end: tiny full model, every parameter tensor probed
    cfg = ModelConfig(task="forecast", lookback=16, horizon=4, d_model=4,
                      d_state=2, expand=2, n_blocks=1, patch_len=4, stride=4,
                      theta=0.5, chunk=2, conv_size=2, seed=0)
    state = ModelState.init(cfg)
    window = rng.standard_normal((2, 16))
    target = rng.standard_normal((2, 4))
    priors = DelayPriors.identity(2)

    def loss_value():
        with T.no_grad():
            pred = model_forward(window, state, priors)
        return float(np.mean((pred.data - target) ** 2))

    state.zero_grad()
    pred = model_forward(window, state, priors)
    diff = T.sub(pred, target)
    T.backward(T.tmean(T.mul(diff, diff)))
    end_to_end = 0.0
    for name, p in state.parameters():
        if p.grad is None:
            continue
        end_to_end = max(end_to_end, _fd_rel_err(loss_value, p, p.grad))
    report("criterion 7: finite-difference gradient agreement",
           per_op <= 1e-4 and end_to_end <= 1e-3,
           f"per-op {per_op:.2e}, end-to-end {end_to_end:.2e}")


# ----------------------------------------------------------------------
# 8. runtime and memory scale linearly with the window length
# ----------------------------------------------------------------------

CRITERION_8_LENGTHS = [384, 768, 1536, 3072]


def test_criterion_8_linear_scaling():
    t0 = time.perf_counter()
    cfg = TrainConfig(n_variates=7,
                      model=ModelConfig(d_model=256, n_blocks=2, seed=0))
    rows = bench_scaling(CRITERION_8_LENGTHS, cfg, repeats=5)
    elapsed = time.perf_counter() - t0
    time_ratios = [rows[i + 1]["ms"] / rows[i]["ms"] for i in range(3)]
    mem_ratios = [rows[i + 1]["bytes"] / rows[i]["bytes"] for i in range(3)]
    ok = (max(time_ratios) <= 2.5 and max(mem_ratios) <= 2.5
          and elapsed < 300.0)
    report("criterion 8: per-doubling runtime/memory ratios <= 2.5",
           ok, f"time {['%.2f' % r for r in time_ratios]}, "
               f"mem {['%.2f' % r for r in mem_ratios]}, {elapsed:.0f}s")


def test_criterion_8_lengths_run_several_chunks():
    # the doublings are timed against each other, so the chunked schedules
    # of the SSD and of DALA, both split by the config's one chunk, already
    # run at the first length: with at least 3 chunks per length, a
    # doubling adds chunks, not a new kind of work
    tokens = [ModelConfig(lookback=n).n_tokens for n in CRITERION_8_LENGTHS]
    assert tokens == [48, 96, 192, 384]
    assert min(T._chunks(n, ModelConfig().chunk)[0] for n in tokens) >= 3


# ----------------------------------------------------------------------
# 9. a small model learns the synthetic coupled pair
# ----------------------------------------------------------------------

def test_criterion_9_learning_sanity():
    t0 = time.perf_counter()
    splits = coupled_splits(n_steps=1000, seed=0, n_train=600, n_val=200)
    spec = DatasetSpec()
    cfg = TrainConfig(epochs=50, model=ModelConfig(
        task="forecast", lookback=96, horizon=24, d_model=32, n_blocks=2,
        seed=0))
    result = train(cfg, spec, splits=splits)
    metrics = evaluate(result.state, spec, splits=splits, config=cfg)
    pairs = make_windows(splits.test, 96, 24, "forecast")
    baseline = float(np.mean([
        np.mean((np.repeat(x[:, -1:], 24, axis=1) - y) ** 2)
        for x, y in pairs]))
    elapsed = time.perf_counter() - t0
    ok = metrics["mse"] <= 0.8 * baseline and elapsed < 600.0
    report("criterion 9: trained model beats last-value baseline by >= 20%",
           ok, f"mse {metrics['mse']:.4f} vs baseline {baseline:.4f}, "
               f"{elapsed:.0f}s")


# ----------------------------------------------------------------------
# 10. delay priors help on the delayed-pair dataset
# ----------------------------------------------------------------------

def test_criterion_10_delay_ablation():
    spec = DatasetSpec()
    wins = 0
    details = []
    for seed in (0, 1, 2):
        splits = coupled_splits(n_steps=1000, seed=seed,
                                n_train=600, n_val=200)
        cfg = TrainConfig(epochs=8, model=ModelConfig(
            task="forecast", lookback=96, horizon=24, d_model=16, n_blocks=2,
            seed=seed))
        full = train(cfg, spec, splits=splits)
        m_full = evaluate(full.state, spec, splits=splits, config=cfg)
        identity = DelayPriors.identity(2)
        ablated = train(cfg, spec, splits=splits, priors_override=identity)
        m_abl = evaluate(ablated.state, spec, splits=splits, config=cfg,
                         priors_override=identity)
        details.append(f"s{seed}: {m_full['mse']:.4f}<{m_abl['mse']:.4f}")
        if m_full["mse"] < m_abl["mse"]:
            wins += 1
    report("criterion 10: delay priors beat the identity ablation (3 seeds)",
           wins == 3, "; ".join(details))


# ----------------------------------------------------------------------
# 11. non-orthogonality implies shared spectral support
# ----------------------------------------------------------------------

def test_criterion_11_support_overlap_property():
    rng = np.random.default_rng(16)
    basis = np.eye(8)
    overlap_ok = True
    for _ in range(200):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        if abs(u @ v) < 1e-8:
            v = v + 0.1 * u
        if not support_overlap(u, v, basis):
            overlap_ok = False
    disjoint_ok = True
    for _ in range(200):
        support_u = rng.choice(8, size=int(rng.integers(1, 5)), replace=False)
        rest = np.setdiff1d(np.arange(8), support_u)
        support_v = rng.choice(rest, size=int(rng.integers(1, rest.size + 1)),
                               replace=False)
        u = np.zeros(8)
        v = np.zeros(8)
        u[support_u] = rng.standard_normal(support_u.size)
        v[support_v] = rng.standard_normal(support_v.size)
        if u @ v != 0.0 or support_overlap(u, v, basis):
            disjoint_ok = False
    report("criterion 11: overlap iff non-orthogonal (200 + 200 cases)",
           overlap_ok and disjoint_ok)
