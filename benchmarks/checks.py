"""Correctness checks run before timing: fast paths against their oracles.

Each check draws a small instance from the run's seed and returns a list
of failure messages (empty when it passes). Tolerances are 1e-8 relative
to the magnitude of the reference, in float64.
"""

from __future__ import annotations

import numpy as np

from dema import tensor as T
from dema.dala import DalaInputs, RotaryTable, dala_attention, naive_dala_oracle
from dema.delay import DelayPriors, delay_matrix, token_shift, xcorr_delay
from dema.spectral import decompose
from dema.ssd import (SsdParams, discretize, selective_params, ssd_blocked,
                      ssm_scan_reference)

import workloads

TOL = 1e-8

# Loss trajectory of the train-n7 model on the check data below, recorded
# from the seed code with one BLAS thread. Float64 runs of the same
# arithmetic agree to ~1e-13; the tolerance admits reordered sums in later
# fast paths but not a changed model.
CHECK_SEED = 20260117
CHECK_STEPS = 4
CHECK_BATCH = 8
LOSS_RTOL = 1e-6
LOSS_REFERENCE = (2.601506019862018, 2.2915340691548387, 1.90363120298648,
                  1.7850125059429267)


def _max_err(fast, ref):
    fast, ref = np.asarray(fast), np.asarray(ref)
    if fast.shape != ref.shape:
        return np.inf
    if not np.all(np.isfinite(fast)):
        return np.inf
    scale = max(1.0, float(np.max(np.abs(ref))) if ref.size else 1.0)
    return float(np.max(np.abs(fast - ref))) / scale if ref.size else 0.0


def check_ssd(rng):
    """ssd_blocked against the step-by-step recurrence, model-drawn inputs."""
    fails = []
    params = SsdParams.init(4, 6, 5, rng)
    u = T.Tensor(rng.standard_normal((2, 3, 37, 6)))
    sel = selective_params(u, params)
    disc = discretize(sel)
    ref = ssm_scan_reference(disc, sel.C, u)
    for chunk in (1, 5, 16, 64):
        err = _max_err(ssd_blocked(disc, sel.C, u, chunk).data, ref)
        if not err <= TOL:
            fails.append(f"ssd_blocked vs ssm_scan_reference (chunk={chunk}): "
                         f"max rel err {err:.3g}")
    return fails


def _random_priors(rng, n, L):
    """Shifts up to beyond the token count and rho of either sign."""
    delta = rng.integers(-(L + 1), L + 2, (n, n))
    np.fill_diagonal(delta, 0)
    rho = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(rho, 1.0)
    return DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=8 * L)


def check_dala(rng):
    """dala_attention against the literal double sum."""
    fails = []
    L, N, Du = 7, 4, 6
    series = workloads.generate(rng, N, 64, 16)
    cases = [("structured priors", delay_matrix(series, 16, 8)),
             ("random priors", _random_priors(rng, N, L))]
    for label, priors in cases:
        inp = DalaInputs(q=T.Tensor(rng.standard_normal((L, N, Du))),
                         k=T.Tensor(rng.standard_normal((L, N, Du))),
                         v=T.Tensor(rng.standard_normal((L, N, Du))),
                         priors=priors, p=3)
        table = RotaryTable(dim=Du)
        for rotated in (False, True):
            fast = dala_attention(inp, table, rotated_denominator=rotated,
                                  chunk=3).data
            ref = naive_dala_oracle(inp, table, rotated_denominator=rotated)
            err = _max_err(fast, ref)
            if not err <= TOL:
                fails.append(f"dala_attention vs naive_dala_oracle ({label}, "
                             f"rotated_denominator={rotated}): max rel err "
                             f"{err:.3g}")
    return fails


def check_delay(rng):
    """delay_matrix against pairwise xcorr_delay, tie-break included."""
    fails = []
    P, max_lag = 8, 12
    for label, window in (("structured", workloads.generate(rng, 5, 80, max_lag)),
                          ("noise", rng.standard_normal((3, 48))),
                          ("single variate", rng.standard_normal((1, 32)))):
        got = delay_matrix(window, max_lag, P)
        n = window.shape[0]
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                est = xcorr_delay(window[a], window[b], max_lag)
                if (got.tau[a, b] != est.tau
                        or not abs(got.rho[a, b] - est.rho) <= TOL
                        or got.delta_tok[a, b] != token_shift(est.tau, P)):
                    fails.append(
                        f"delay_matrix vs xcorr_delay ({label}, pair {a},{b}): "
                        f"got tau={got.tau[a, b]} rho={got.rho[a, b]:.12g}, "
                        f"want tau={est.tau} rho={est.rho:.12g}")
        if not np.allclose(np.diag(got.rho), 1.0, rtol=0, atol=TOL):
            fails.append(f"delay_matrix ({label}): diagonal rho is not 1")
    return fails


def check_decompose(rng):
    """The spectral split must add back to its input."""
    fails = []
    window = workloads.generate(rng, 5, 96, 24)
    for theta in (0.1, 0.4, 1.0):
        split = decompose(window, theta)
        err = _max_err(split.cross_time + split.cross_variate, window)
        if not err <= TOL:
            fails.append(f"decompose(theta={theta}) is not lossless: max rel "
                         f"err {err:.3g}")
    return fails


def loss_trajectory(seed=CHECK_SEED):
    """Losses of CHECK_STEPS Adam steps of the train-n7 model."""
    wl = workloads.WORKLOADS["train-n7"]
    run = workloads.Run(wl, workloads.make_splits(wl, seed), seed,
                        model_seed=seed)
    losses = []
    for k in range(CHECK_STEPS):
        idx = list(range(k * CHECK_BATCH, (k + 1) * CHECK_BATCH))
        losses.append(run.train_step(idx)[0])
    return losses


def check_loss_trajectory(_rng):
    got = loss_trajectory()
    bad = [(i, g, r) for i, (g, r) in enumerate(zip(got, LOSS_REFERENCE))
           if not abs(g - r) <= LOSS_RTOL * abs(r)]
    return [f"train-n7 loss trajectory step {i}: {g!r} vs reference {r!r}"
            for i, g, r in bad]


CHECKS = [("ssd", check_ssd), ("dala", check_dala), ("delay", check_delay),
          ("decompose", check_decompose), ("loss", check_loss_trajectory)]


def run_checks(seed):
    """Run every check; returns {name: [failure messages]}."""
    results = {}
    for i, (name, fn) in enumerate(CHECKS):
        rng = np.random.default_rng([seed, i])
        try:
            results[name] = fn(rng)
        except Exception as exc:  # a crash is a failed check, not a crash
            results[name] = [f"{name} check raised {type(exc).__name__}: {exc}"]
    return results
