"""Rotary encoding, kernel feature map, and delay-aware linear attention."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dema import tensor as T
from dema import dala
from dema.dala import (DalaInputs, DalaParams, RotaryTable, _phi, _phi_np,
                       _rope_apply, dala_attention, dala_core,
                       mamba_dala_forward, naive_dala_oracle)
from dema.delay import DelayPriors
from dema.errors import ConfigError, ContractError


def make_priors(rng, N, max_shift=2):
    delta = rng.integers(-max_shift, max_shift + 1, (N, N))
    np.fill_diagonal(delta, 0)
    rho = rng.uniform(0.1, 1.0, (N, N))
    np.fill_diagonal(rho, 1.0)
    return DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=16)


def make_inputs(rng, L=6, N=3, Du=4, priors=None, p=3):
    if priors is None:
        priors = make_priors(rng, N)
    return DalaInputs(q=T.Tensor(rng.standard_normal((L, N, Du))),
                      k=T.Tensor(rng.standard_normal((L, N, Du))),
                      v=T.Tensor(rng.standard_normal((L, N, Du))),
                      priors=priors, p=p)


# ----------------------------------------------------------------------
# rotary encoding
# ----------------------------------------------------------------------

def test_rope_position_zero_is_identity(rng):
    table = RotaryTable(dim=8)
    x = rng.standard_normal((5, 8))
    out = _rope_apply(x, table.rotation(0))
    assert np.max(np.abs(out - x)) <= 1e-12


def test_rope_preserves_norm(rng):
    table = RotaryTable(dim=8)
    x = rng.standard_normal((7, 8))
    out = _rope_apply(x, table.rotation(np.arange(7)))
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1),
                               np.linalg.norm(x, axis=-1), atol=1e-12)


def test_rope_relative_offset_invariance(rng):
    table = RotaryTable(dim=8)
    u = rng.standard_normal(8)
    v = rng.standard_normal(8)

    def logit(pu, pv):
        ru = _rope_apply(u, table.rotation(pu))
        rv = _rope_apply(v, table.rotation(pv))
        return float(ru @ rv)

    assert abs(logit(5, 3) - logit(2, 0)) <= 1e-10
    for off in (1, 17, 100):
        assert abs(logit(9 + off, 4 + off) - logit(9, 4)) <= 1e-10


def test_rope_rejects_odd_dim():
    with pytest.raises(ConfigError):
        RotaryTable(dim=7)


def test_core_rejects_a_table_of_another_dim(rng):
    x = T.Tensor(rng.standard_normal((3, 5, 8)))
    with pytest.raises(ConfigError, match="rotary table dim 4 does not "
                                          "match input 8"):
        dala_core(x, x, x, make_priors(rng, 3), table=RotaryTable(dim=4))


def test_rope_backward_is_inverse_rotation(rng):
    # the gradient of sum(rotate(x) * w) in x, column by column (the map
    # is linear), is w rotated backwards: the VJP of dala_core relies on it
    table = RotaryTable(dim=4)
    rot = table.rotation(np.arange(3))
    w = rng.standard_normal((3, 4))
    grad = np.zeros((3, 4))
    for i in np.ndindex(3, 4):
        e = np.zeros((3, 4))
        e[i] = 1.0
        grad[i] = np.sum(_rope_apply(e, rot) * w)
    back = _rope_apply(w, rot.conj())
    np.testing.assert_allclose(grad, back, atol=1e-12)
    np.testing.assert_allclose(back, _rope_apply(
        w, table.rotation(-np.arange(3))), atol=1e-12)


# ----------------------------------------------------------------------
# kernel feature map
# ----------------------------------------------------------------------

def test_phi_all_negative_gives_zero(rng):
    x = -np.abs(rng.standard_normal((4, 6))) - 0.1
    out, _ = _phi(x, 3)
    np.testing.assert_array_equal(out, 0.0)


def test_phi_preserves_relu_norm(rng):
    x = rng.standard_normal((10, 6))
    out, _ = _phi(x, 3)
    ref = np.linalg.norm(np.maximum(x, 0.0), axis=-1)
    np.testing.assert_allclose(np.linalg.norm(out, axis=-1), ref,
                               atol=1e-10)


def test_phi_p_one_is_relu(rng):
    x = rng.standard_normal((5, 4))
    out, _ = _phi(x, 1)
    np.testing.assert_array_equal(out, np.maximum(x, 0.0))


def test_phi_rejects_bad_power():
    with pytest.raises(ConfigError):
        _phi(np.ones(4), 0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_phi_propagates_nan(p):
    # a NaN input is not zeroed into a plausible feature
    out, _ = _phi(np.array([[np.nan, 1.0], [2.0, 1.0]]), p)
    assert np.all(np.isnan(out[0])) and np.all(np.isfinite(out[1]))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_phi_exact_on_small_rows(p, rng):
    # exact norms: |phi| = |ReLU(x)| and phi equals the oracle's map at
    # every scale, also where |r^p|^2 is far below 1e-30
    x = rng.standard_normal((8, 6))
    for scale in (1.0, 1e-3, 1e-6, 1e-8):
        out, _ = _phi(x * scale, p)
        np.testing.assert_allclose(out, _phi_np(x * scale, p), rtol=1e-12,
                                   atol=0)
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=-1),
            np.linalg.norm(np.maximum(x * scale, 0.0), axis=-1),
            rtol=1e-12, atol=0)


def test_phi_nonnegative(rng):
    out, _ = _phi(rng.standard_normal((20, 8)), 3)
    assert np.all(out >= 0)


# ----------------------------------------------------------------------
# delay-aware attention
# ----------------------------------------------------------------------

def test_single_token_identity(rng):
    # one variate, one token: the only key is the token itself
    inp = make_inputs(rng, L=1, N=1, priors=DelayPriors.identity(1))
    inp.q.data = np.abs(inp.q.data) + 0.5  # keep the kernel away from zero
    inp.k.data = np.abs(inp.k.data) + 0.5
    out = dala_attention(inp).data
    np.testing.assert_allclose(out[0, 0], inp.v.data[0, 0], atol=1e-9)


def test_matches_naive_oracle(rng):
    for _ in range(20):
        L = int(rng.integers(1, 9))
        N = int(rng.integers(1, 5))
        Du = 2 * int(rng.integers(1, 5))
        inp = make_inputs(rng, L, N, Du)
        out = dala_attention(inp).data
        ref = naive_dala_oracle(inp)
        assert np.max(np.abs(out - ref)) <= 1e-9


def test_matches_oracle_rotated_denominator(rng):
    inp = make_inputs(rng, L=7, N=3, Du=4)
    out = dala_attention(inp, rotated_denominator=True).data
    ref = naive_dala_oracle(inp, rotated_denominator=True)
    assert np.max(np.abs(out - ref)) <= 1e-9


def test_causality_under_truncation(rng):
    for _ in range(5):
        inp = make_inputs(rng, L=10, N=3, Du=4)
        full = dala_attention(inp).data
        m = int(np.max(np.abs(inp.priors.delta_tok)))
        for cut in (4, 7):
            q = inp.q.data.copy()
            k = inp.k.data.copy()
            v = inp.v.data.copy()
            k[cut + 1:] = 0.0
            v[cut + 1:] = 0.0
            q[cut + 1:] = 0.0
            trunc = DalaInputs(q=T.Tensor(q), k=T.Tensor(k), v=T.Tensor(v),
                               priors=inp.priors, p=inp.p)
            out = dala_attention(trunc).data
            safe = cut - m
            if safe >= 0:
                assert np.max(np.abs(out[: safe + 1] - full[: safe + 1])) <= 1e-9


def test_identity_priors_reduce_to_self_attention(rng):
    L, N, Du = 8, 3, 4
    inp = make_inputs(rng, L, N, Du, priors=DelayPriors.identity(N))
    out = dala_attention(inp).data
    # each variate alone must give the same answer
    for n in range(N):
        single = DalaInputs(
            q=T.Tensor(inp.q.data[:, n:n + 1]),
            k=T.Tensor(inp.k.data[:, n:n + 1]),
            v=T.Tensor(inp.v.data[:, n:n + 1]),
            priors=DelayPriors.identity(1), p=inp.p)
        ref = dala_attention(single).data
        np.testing.assert_allclose(out[:, n], ref[:, 0], atol=1e-10)


def test_variate_permutation_equivariance(rng):
    inp = make_inputs(rng, L=6, N=3, Du=4)
    out = dala_attention(inp).data
    perm = [2, 0, 1]
    priors_p = DelayPriors(
        tau=inp.priors.tau[np.ix_(perm, perm)],
        rho=inp.priors.rho[np.ix_(perm, perm)],
        delta_tok=inp.priors.delta_tok[np.ix_(perm, perm)],
        max_lag=inp.priors.max_lag)
    inp_p = DalaInputs(q=T.Tensor(inp.q.data[:, perm]),
                       k=T.Tensor(inp.k.data[:, perm]),
                       v=T.Tensor(inp.v.data[:, perm]),
                       priors=priors_p, p=inp.p)
    out_p = dala_attention(inp_p).data
    np.testing.assert_allclose(out_p, out[:, perm], atol=1e-12)


def test_uniform_rho_scale_invariance(rng):
    # scaling every weight uniformly cancels between the numerator and
    # denominator, as long as the scaled weights stay within the clamp
    L, N, Du = 6, 3, 4
    delta = rng.integers(-1, 2, (N, N))
    np.fill_diagonal(delta, 0)
    q = np.abs(rng.standard_normal((L, N, Du))) + 0.1
    k = np.abs(rng.standard_normal((L, N, Du))) + 0.1
    v = rng.standard_normal((L, N, Du))
    outs = []
    for scale in (0.4, 0.8):
        priors = DelayPriors(tau=delta * 8, rho=np.full((N, N), scale),
                             delta_tok=delta, max_lag=8)
        inp = DalaInputs(q=T.Tensor(q), k=T.Tensor(k), v=T.Tensor(v),
                         priors=priors, p=3)
        outs.append(dala_attention(inp).data)
    assert np.max(np.abs(outs[0] - outs[1])) <= 1e-9


def test_priors_size_mismatch(rng):
    inp = make_inputs(rng, L=4, N=3, Du=4, priors=DelayPriors.identity(2))
    with pytest.raises(ContractError):
        dala_attention(inp)


@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 2, 2), (4, 4), (1, 2, 3, 3)])
def test_priors_batch_mismatch_names_both_shapes(rng, shape):
    # tokens [2, 3, L, Du]: priors must be [3, 3] or [2, 3, 3]
    q = T.Tensor(rng.standard_normal((2, 3, 5, 4)))
    priors = DelayPriors(tau=np.zeros(shape, dtype=np.int64),
                         rho=np.ones(shape),
                         delta_tok=np.zeros(shape, dtype=np.int64), max_lag=8)
    with pytest.raises(ContractError) as err:
        dala_core(q, q, q, priors)
    assert str(shape) in str(err.value) and "(2, 3, 5, 4)" in str(err.value)


def test_oracle_zero_rho_offdiagonal_fallback(rng):
    # shifts so large that no key is in range for early positions
    N = 2
    delta = np.array([[0, 5], [5, 0]])
    rho = np.array([[0.0, 1.0], [1.0, 0.0]])  # only the shifted cross pair
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=8)
    inp = make_inputs(rng, L=4, N=N, Du=4, priors=priors)
    out = dala_attention(inp).data
    ref = naive_dala_oracle(inp)
    assert np.max(np.abs(out - ref)) <= 1e-9
    # all keys out of range: the oracle falls back to the own-token value
    np.testing.assert_allclose(out, inp.v.data, atol=1e-12)


@st.composite
def dala_cases(draw):
    """Shapes, priors and flags for the batched path against the oracle.

    Shifts reach beyond the token count, weights can be zero or negative,
    chunks need not divide L, and inputs may carry leading batch axes.
    """
    L = draw(st.integers(1, 7))
    N = draw(st.integers(1, 4))
    Du = 2 * draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (2,), (2, 1)]))
    chunk = draw(st.integers(1, L + 2))
    rotated = draw(st.booleans())
    delta = np.array(draw(st.lists(st.integers(-(L + 1), L + 1),
                                   min_size=N * N, max_size=N * N)))
    rho = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-1.0, -0.01), st.floats(0.05, 1.0)),
        min_size=N * N, max_size=N * N)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return L, N, Du, lead, chunk, rotated, delta.reshape(N, N), \
        rho.reshape(N, N), seed


def oracle_rel_err(case):
    """Largest error of the batched path against the oracle, relative to
    max(1, max |oracle|) per window."""
    L, N, Du, lead, chunk, rotated, delta, rho, seed = case
    rng = np.random.default_rng(seed)
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    q, k, v = (rng.standard_normal(lead + (L, N, Du)) for _ in range(3))
    out = dala_attention(DalaInputs(q=T.Tensor(q), k=T.Tensor(k),
                                    v=T.Tensor(v), priors=priors),
                         rotated_denominator=rotated, chunk=chunk).data
    assert out.shape == q.shape
    worst = 0.0
    for idx in np.ndindex(*lead):
        ref = naive_dala_oracle(
            DalaInputs(q=q[idx], k=k[idx], v=v[idx], priors=priors),
            rotated_denominator=rotated)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(out[idx] - ref))) / scale)
    return worst


@settings(max_examples=80, deadline=None)
@given(dala_cases())
def test_batched_path_matches_oracle_property(case):
    assert oracle_rel_err(case) <= 1e-8


# Draws of dala_cases that missed the 1e-8 bound while the kernel map added
# 1e-30 under its norms: a key with |r^3|^2 near 1e-23 met a query whose
# denominator against it is exactly 0, so the output showed that error
# divided by eps.
KNOWN_DRAWS = [
    (6, 2, 2, (), 1, False, np.array([[-5, 0], [0, 0]]),
     np.array([[1.0, 0.0], [0.0, 0.0]]), 8),
    (6, 4, 4, (2,), 7, True,
     np.array([[5, 5, -2, 1], [7, 1, 4, 4], [0, -6, -2, -2],
               [-6, -1, 6, 1]]),
     np.array([[0.0, 0.0, 0.0, 0.12680442],
               [0.93653435, -0.01974159, 0.715616, 0.0],
               [0.0, 0.0, 0.0, -1.0],
               [0.0, 0.0, 0.93653435, -0.20504659]]), 5),
]


@pytest.mark.parametrize("case", KNOWN_DRAWS, ids=["unrotated", "rotated"])
def test_batched_path_matches_oracle_known_draws(case):
    assert oracle_rel_err(case) <= 1e-12


def test_gradient_finite_difference_with_shifts(rng):
    # several shifts of both signs, one beyond L, one zero weight, a row
    # whose first token has no key in range (own-token fallback), and
    # shifts shared by pairs with the same query or the same key variate
    L, N, Du = 5, 3, 4
    delta = np.array([[0, 2, -1], [1, 1, 9], [-2, 2, 0]])
    rho = np.array([[1.0, 0.6, 0.3], [0.5, 0.8, 0.4], [0.7, 0.9, 0.0]])
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    # q and k mostly positive keep the denominators well above eps
    datas = [rng.standard_normal((L, N, Du)) + 1.0 for _ in range(3)]
    w = rng.standard_normal((L, N, Du))

    def value(q, k, v):
        inp = DalaInputs(q=q, k=k, v=v, priors=priors)
        return dala_attention(inp, chunk=2)

    args = [T.Tensor(d, requires_grad=True) for d in datas]
    T.backward(T.tsum(T.mul(value(*args), w)))
    h = 1e-6
    for i, arg in enumerate(args):
        for j in range(arg.data.size):
            bumped = []
            for step in (h, -h):
                ds = [d.copy() for d in datas]
                ds[i].ravel()[j] += step
                bumped.append(float(np.sum(value(*ds).data * w)))
            fd = (bumped[0] - bumped[1]) / (2 * h)
            g = arg.grad.ravel()[j]
            assert abs(g - fd) <= 1e-5 * max(abs(fd), abs(g), 1e-3), (i, j)


@pytest.mark.parametrize("chunk", [3, 8])
def test_shift_with_one_key_per_query_matches_oracle(rng, chunk):
    # at shift 2 every query variate has one key variate, and two of them
    # share key variate 2, so one key variate's state serves two queries
    delta = np.array([[2, -1, 5, 0], [3, 0, 1, -2],
                      [1, -3, 2, 4], [0, 6, 2, -1]])
    rho = np.array([[0.9, 0.5, 0.0, 0.3], [0.6, 1.0, 0.2, 0.4],
                    [0.5, 0.7, 0.8, 0.1], [0.3, 0.2, 0.6, 1.0]])
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    inp = make_inputs(rng, L=8, N=4, Du=4, priors=priors)
    for rotated in (False, True):
        out = dala_attention(inp, rotated_denominator=rotated,
                             chunk=chunk).data
        ref = naive_dala_oracle(inp, rotated_denominator=rotated)
        # a rotated denominator can sit at eps, so scale as the property
        # test does
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(out - ref)) <= 1e-9 * scale


@pytest.mark.parametrize("rotated", [False, True])
def test_gradient_finite_difference_multi_chunk(rotated):
    # L = 9 in chunks of 2, so bands and prefix states cross chunks: shifts
    # of both signs beyond the chunk, one at L or beyond, zero weights, a
    # query variate whose only key pair starts at l = 5 (own-token fallback
    # before that), a shift whose query variates have one key each and
    # shifts that mix several keys into one query, hidden keys included
    L, N, Du = 9, 4, 4
    delta = np.array([[0, 4, -3, -3], [5, 0, 9, 2],
                      [0, 4, 0, -5], [-3, -1, 1, 0]])
    rho = np.array([[1.0, 0.6, 0.3, 0.5], [0.5, 0.0, 0.4, 0.0],
                    [0.7, 0.9, 0.8, 0.6], [0.4, 0.5, 0.6, 1.0]])
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    rng = np.random.default_rng(5)
    # q and k mostly positive keep the denominators well above eps
    datas = [rng.standard_normal((L, N, Du)) * 0.5 + 1.0 for _ in range(3)]
    w = rng.standard_normal((L, N, Du))

    def value(q, k, v):
        inp = DalaInputs(q=q, k=k, v=v, priors=priors)
        return dala_attention(inp, rotated_denominator=rotated, chunk=2)

    ref = naive_dala_oracle(DalaInputs(*datas, priors=priors),
                            rotated_denominator=rotated)
    assert np.max(np.abs(value(*datas).data - ref)) <= 1e-10
    np.testing.assert_array_equal(ref[:5, 1], datas[2][:5, 1])
    args = [T.Tensor(d, requires_grad=True) for d in datas]
    T.backward(T.tsum(T.mul(value(*args), w)))
    h = 1e-6
    for i, arg in enumerate(args):
        for j in range(arg.data.size):
            bumped = []
            for step in (h, -h):
                ds = [d.copy() for d in datas]
                ds[i].ravel()[j] += step
                bumped.append(float(np.sum(value(*ds).data * w)))
            fd = (bumped[0] - bumped[1]) / (2 * h)
            g = arg.grad.ravel()[j]
            assert abs(g - fd) <= 1e-5 * max(abs(fd), abs(g), 1e-3), (i, j)


def test_active_pairs_need_positive_weight_and_shift_below_l(rng):
    # a shift of exactly L and a negative weight leave only the own pair
    L, N = 4, 2
    delta = np.array([[0, L], [-1, 0]])
    rho = np.array([[1.0, 1.0], [-0.5, 1.0]])
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    inp = make_inputs(rng, L=L, N=N, Du=4, priors=priors)
    out = dala_attention(inp).data
    alone = dala_attention(DalaInputs(q=inp.q, k=inp.k, v=inp.v,
                                      priors=DelayPriors.identity(N))).data
    np.testing.assert_allclose(out, alone, atol=1e-12)


def window_priors():
    """Priors [3, 3, 3] that differ per window: shifts of both signs, one
    beyond L = 7, zero and negative weights, a shift only one window uses,
    and a window with no cross pair at all."""
    delta = np.array([[[0, 2, -3], [1, 0, 9], [-2, 2, 0]],
                      [[0, 4, 1], [-1, 0, 2], [3, -4, 0]],
                      [[0, 1, 1], [2, 0, -1], [0, 1, 0]]])
    rho = np.array([[[1.0, 0.6, 0.3], [0.5, 1.0, 0.4], [0.7, 0.9, 0.0]],
                    [[1.0, 0.2, -0.4], [0.8, 1.0, 0.5], [0.0, 0.6, 1.0]],
                    [[1.0, -0.1, 0.0], [-0.5, 1.0, 0.0], [-1.0, 0.0, 1.0]]])
    return DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)


def one_window(priors, g):
    return DelayPriors(tau=priors.tau[g], rho=priors.rho[g],
                       delta_tok=priors.delta_tok[g], max_lag=priors.max_lag)


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("chunk", [2, 7])
def test_per_window_priors_match_oracle(rotated, chunk):
    priors = window_priors()
    rng = np.random.default_rng(11)
    q, k, v = (rng.standard_normal((3, 3, 7, 4)) for _ in range(3))
    out = dala_core(q, k, v, priors, rotated_denominator=rotated,
                    chunk=chunk).data
    for g in range(3):
        ref = naive_dala_oracle(
            DalaInputs(*(np.swapaxes(x[g], 0, 1) for x in (q, k, v)),
                       priors=one_window(priors, g)),
            rotated_denominator=rotated)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(np.swapaxes(out[g], 0, 1) - ref)) <= 1e-9 * scale


@pytest.mark.parametrize("rotated", [False, True])
def test_per_window_priors_gradients_match_single_windows(rotated):
    priors = window_priors()
    rng = np.random.default_rng(12)
    datas = [rng.standard_normal((3, 3, 7, 4)) * 0.5 + 1.0 for _ in range(3)]
    w = rng.standard_normal((3, 3, 7, 4))

    def grads(ds, pri, wg):
        args = [T.Tensor(d, requires_grad=True) for d in ds]
        y = dala_core(*args, pri, rotated_denominator=rotated, chunk=3)
        T.backward(T.tsum(T.mul(y, wg)))
        return y.data, [np.zeros_like(a.data) if a.grad is None else a.grad
                        for a in args]

    y, g = grads(datas, priors, w)
    for i in range(3):
        yi, gi = grads([d[i] for d in datas], one_window(priors, i), w[i])
        scale = max(1.0, float(np.max(np.abs(yi))))
        assert np.max(np.abs(y[i] - yi)) <= 1e-12 * scale
        for a, b in zip(g, gi):
            scale = max(1.0, float(np.max(np.abs(b))))
            assert np.max(np.abs(a[i] - b)) <= 1e-12 * scale


def test_shared_priors_keep_unbatched_weights(rng):
    # priors [N, N] shared by a batch plan 2-D weights and masks: nothing
    # is broadcast over the batch
    priors = make_priors(rng, 3)
    q, k, v = (T.Tensor(rng.standard_normal((4, 3, 6, 4)),
                        requires_grad=True) for _ in range(3))
    T.backward(T.tsum(dala_core(q, k, v, priors, chunk=2)))
    rho = priors.rho_weights()
    active = (rho > 0) & (np.abs(priors.delta_tok) < 6)
    _, shifts, schedule = dala._plan_shifts(rho, priors.delta_tok, active,
                                            6, 2)
    masks = [m for bands, _ in schedule for *_, blocks in bands
             for _, _, m in blocks]
    assert masks and all(m.ndim == 2 for m in masks)
    weights = [wb for _, reads in schedule for _, rs in reads
               for *_, wb in rs]
    assert weights and all(wb.ndim == 1 for wb in weights)
    for sh in shifts:
        assert sh.w.ndim == 2 and all(w.ndim == 2 for _, _, w in sh.blocks)


def block_pairs(shifts):
    """Sum over the blocks of |A_g| |B_g|, and the blocks' (shift, query,
    key) triples in the planner's variate numbering."""
    n, triples = 0, set()
    for sh in shifts:
        for a, b, _ in sh.blocks:
            qs, ks = np.arange(64)[a], np.arange(64)[b]
            n += len(qs) * len(ks)
            triples |= {(sh.d, x, y) for x in qs for y in ks}
    return n, triples


def test_blocks_hold_exactly_the_active_pairs(rng):
    # shared priors: the blocks tile the active pairs, each block a
    # complete biclique of pairs with a positive weight at its shift
    N, L = 7, 6
    delta = rng.integers(-7, 8, (N, N))
    rho = np.where(rng.random((N, N)) < 0.2, 0.0, rng.uniform(0.1, 1, (N, N)))
    active = (rho > 0) & (np.abs(delta) < L)
    order, shifts, _ = dala._plan_shifts(rho, delta, active, L, 4)
    n, triples = block_pairs(shifts)
    d, r = delta[np.ix_(order, order)], rho[np.ix_(order, order)]
    assert n == active.sum() == len(triples)
    assert all(d[a, b] == s and r[a, b] > 0 for s, a, b in triples)
    for sh in shifts:
        for _, _, w in sh.blocks:
            assert np.all(w > 0)


def test_blocks_hold_the_union_of_windows_pairs():
    # batched priors: a block pair is active in some window, and the
    # blocks hold each such (shift, query, key) once
    priors = window_priors()
    rho, delta = priors.rho_weights(), priors.delta_tok
    active = (rho > 0) & (np.abs(delta) < 7)
    order, shifts, _ = dala._plan_shifts(rho, delta, active, 7, 3)
    n, triples = block_pairs(shifts)
    sel = active[:, order[:, None], order]
    union = {(int(delta[g, order[a], order[b]]), a, b)
             for g, a, b in zip(*np.nonzero(sel))}
    assert n == len(union) == len(triples) and triples == union


@pytest.mark.parametrize("L, c, lead", [
    (17, 9, ()), (40, 14, ()), (90, 15, (2,)), (13, 3, (3,))],
    ids=["17 tokens", "40 tokens", "90 tokens, 2 windows",
         "13 tokens, 3 windows"])
def test_schedule_runs_each_shift_in_its_chunks(L, c, lead):
    # each shift runs a band in the chunks its query rows m = l - d meet,
    # and reads the states there exactly when chunk I starts past its
    # hidden keys (I c > h), with every pair it has; a chunk reads each
    # key variate's state once
    rng = np.random.default_rng(L)
    N = 5
    delta = rng.integers(-L, L + 1, lead + (N, N)) // rng.integers(
        1, 4, lead + (N, N))
    rho = np.where(rng.random(lead + (N, N)) < 0.3, 0.0,
                   rng.uniform(0.1, 1, lead + (N, N)))
    active = (rho > 0) & (np.abs(delta) < L)
    _, shifts, schedule = dala._plan_shifts(rho, delta, active, L, c)
    nb = -(-L // c)
    assert len(schedule) == nb
    for sh in shifts:
        runs = [I for I, (bands, _) in enumerate(schedule)
                if any(band[0] is sh for band in bands)]
        assert runs == list(range(sh.h // c, min(nb, -(-(L - sh.d) // c))))
    reading = 0
    for I, (bands, reads) in enumerate(schedule):
        keys = [b for b, _ in reads]
        assert len(set(keys)) == len(keys)
        readers = [(sh, a, b) for b, rs in reads for sh, a, *_ in rs]
        assert {id(sh) for sh, _, _ in readers} == {
            id(sh) for sh, *_ in bands if I * c > sh.h}
        got = {(sh.d, x, b) for sh, a, b in readers
               for x in np.arange(64)[a]}
        n, want = block_pairs([sh for sh, *_ in bands if I * c > sh.h])
        assert got == want and sum(
            len(np.arange(64)[a]) for _, a, _ in readers) == n
        reading += bool(reads)
    assert 0 < reading < nb


@pytest.mark.parametrize("sort, delta, rho", [
    # in the given order the key sets {0, 2} and {1, 3} are no runs; the
    # order by mean shift (1, 0, 2, 3) turns {0, 2} into the run {1, 2}
    (True, [[0, 1, 0, -1], [-1, 0, -2, -2], [-2, 2, 0, 2], [0, 1, 2, 0]],
     [[1.0, 0.5, 0.5, 0.0], [0.5, 1.0, 0.5, 0.0], [0.5, 0.5, 1.0, 0.5],
      [0.0, 0.0, 0.5, 1.0]]),
    # the given order has the runs {0, 1}, {1, 2} and {2, 3}; the order by
    # mean shift (0, 2, 1, 3) keeps two of them
    (False, [[0, 1, 1, -1], [0, 0, 2, 2], [-1, 1, 0, 1], [2, 1, 1, 0]],
     [[1.0, 0.5, 0.5, 0.5], [0.5, 1.0, 0.5, 0.5], [0.5, 0.5, 1.0, 0.5],
      [0.5, 0.5, 0.0, 1.0]]),
], ids=["sorted", "given order"])
def test_plan_sorts_variates_only_when_it_makes_more_runs(sort, delta, rho):
    delta, rho = np.array(delta), np.array(rho)
    N, L = delta.shape[0], 6
    active = (rho > 0) & (np.abs(delta) < L)
    by_shift = np.argsort(np.where(active, delta, 0).sum(axis=1)
                          / active.sum(axis=1), kind="stable")
    assert not np.array_equal(by_shift, np.arange(N))
    order, _, _ = dala._plan_shifts(rho, delta, active, L, 3)
    np.testing.assert_array_equal(order, by_shift if sort else np.arange(N))
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    rng = np.random.default_rng(5)
    q, k, v = (rng.standard_normal((N, L, 4)) + 0.5 for _ in range(3))
    out = dala_core(q, k, v, priors, chunk=3).data
    ref = naive_dala_oracle(DalaInputs(*(np.swapaxes(x, 0, 1)
                                         for x in (q, k, v)), priors=priors))
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(np.swapaxes(out, 0, 1) - ref)) <= 1e-8 * scale


@pytest.mark.parametrize("ix", [[0, 2, 1, 3], [3, 2, 1, 0], [1, 2, 3], [4],
                                [0, 1, 3], [2, 0, 1]])
def test_run_is_a_view_only_of_consecutive_indices(ix):
    # a shift lists its query variates block by block, e.g. [0, 2, 1, 3]:
    # first and last lie as far apart as in a run, but it is none
    ix = np.array(ix)
    got = dala._run(ix)
    np.testing.assert_array_equal(np.arange(8)[got], ix)
    assert isinstance(got, slice) == bool(np.all(np.diff(ix) == 1))


def edge_cases():
    """(name, L, chunk, lead, delta, rho) for the planner's edge cases."""
    # windows that give query variate 0 the key set {1} at shift 1 in the
    # first window and {1, 2} in the second
    two = (np.array([[[0, 1, 3], [0, 0, 0], [0, 0, 0]],
                     [[0, 1, 1], [0, 0, -1], [2, 1, 0]]]),
           np.array([[[1.0, 0.5, 0.4], [0.3, 1.0, 0.2], [0.1, 0.6, 1.0]],
                     [[1.0, 0.8, 0.9], [0.2, 1.0, 0.7], [0.5, 0.4, 1.0]]]))
    return [
        ("windows differ", 7, 3, (2,)) + two,
        ("zero weights", 6, 4, (),
         np.array([[0, 1, -1], [1, 0, 2], [-2, 1, 0]]),
         np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.0], [0.4, 0.0, 1.0]])),
        ("shifts >= L", 5, 2, (),
         np.array([[0, 5, -7], [2, 0, 9], [-5, 1, 0]]),
         np.array([[1.0, 0.9, 0.8], [0.7, 1.0, 0.6], [0.5, 0.4, 1.0]])),
        ("one variate", 6, 4, (3,), np.array([[0]]), np.array([[1.0]])),
        ("L not a multiple", 11, 4, (),
         np.array([[0, 2, 1], [-1, 0, 3], [1, -2, 0]]),
         np.array([[1.0, 0.5, 0.3], [0.6, 1.0, 0.2], [0.4, 0.7, 1.0]])),
        ("chunks, negative shifts", 13, 3, (2,),
         np.array([[0, -5, -4, 2], [-5, 0, 1, -7], [3, -4, 0, -2],
                   [-5, 4, -4, 0]]),
         np.array([[1.0, 0.6, 0.3, 0.5], [0.5, 1.0, 0.4, 0.9],
                   [0.7, 0.9, 1.0, 0.6], [0.4, 0.5, 0.6, 1.0]])),
    ]


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("case", edge_cases(), ids=lambda c: c[0])
def test_block_edge_cases_match_oracle(case, rotated):
    _, L, chunk, lead, delta, rho = case
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    N = delta.shape[-1]
    rng = np.random.default_rng(3)
    q, k, v = (rng.standard_normal(lead + (N, L, 4)) + 0.5 for _ in range(3))
    out = dala_core(q, k, v, priors, rotated_denominator=rotated,
                    chunk=chunk).data
    for idx in np.ndindex(*lead):
        pri = one_window(priors, idx[0]) if delta.ndim == 3 else priors
        ref = naive_dala_oracle(
            DalaInputs(*(np.swapaxes(x[idx], 0, 1) for x in (q, k, v)),
                       priors=pri), rotated_denominator=rotated)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(np.swapaxes(out[idx], 0, 1) - ref)) <= \
            1e-8 * scale


def assert_fd_gradients(value, datas, w, h=1e-6):
    """value's gradients in each of its arguments against central
    differences of sum(value(*datas) * w)."""
    args = [T.Tensor(d, requires_grad=True) for d in datas]
    T.backward(T.tsum(T.mul(value(*args), w)))
    for i, arg in enumerate(args):
        for j in range(arg.data.size):
            bumped = []
            for step in (h, -h):
                ds = [d.copy() for d in datas]
                ds[i].ravel()[j] += step
                bumped.append(float(np.sum(value(*ds).data * w)))
            fd = (bumped[0] - bumped[1]) / (2 * h)
            g = arg.grad.ravel()[j]
            assert abs(g - fd) <= 1e-5 * max(abs(fd), abs(g), 1e-3), (i, j)


def test_gradient_finite_difference_several_blocks_per_shift():
    # at shift 1, queries {0, 1} read keys {2, 3} and queries {2, 3} read
    # key {0}: two blocks with overlapping rows; shift -2 has two more, and
    # chunks of 3 over L = 8 bring in the state reads
    L, N, Du = 8, 4, 4
    delta = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [1, -2, 0, -2],
                      [1, -2, -2, 0]])
    rho = np.array([[1.0, 0.0, 0.6, 0.3], [0.0, 1.0, 0.5, 0.8],
                    [0.7, 0.4, 1.0, 0.9], [0.2, 0.6, 0.5, 1.0]])
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    rho_w = priors.rho_weights()
    active = (rho_w > 0) & (np.abs(delta) < L)
    _, shifts, _ = dala._plan_shifts(rho_w, delta, active, L, 3)
    assert max(len(sh.blocks) for sh in shifts) >= 2
    rng = np.random.default_rng(9)
    datas = [rng.standard_normal((N, L, Du)) * 0.5 + 1.0 for _ in range(3)]
    assert_fd_gradients(lambda q, k, v: dala_core(q, k, v, priors, chunk=3),
                        datas, rng.standard_normal((N, L, Du)))


@pytest.mark.parametrize("p", [1, 3])
def test_gradient_finite_difference_index_array_blocks(p):
    # shifts -1, 0 and 1 in a permuted variate order, where blocks and
    # state readers hold query variates that are no run (index arrays, as
    # real priors often give); one query row and one key row lie below
    # zero, so their feature maps are zero, and chunks of 2 over L = 5
    # bring in the state reads
    L, N, Du = 5, 4, 4
    delta = np.array([[0, -1, -1, 0], [1, 0, -1, 0], [-1, 1, 0, -1],
                      [0, 1, -1, 0]])
    rho = np.array([[1.0, 0.6, 0.3, 0.5], [0.5, 1.0, 0.4, 0.9],
                    [0.7, 0.9, 1.0, 0.6], [0.4, 0.5, 0.6, 1.0]])
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta, max_lag=64)
    rho_w = priors.rho_weights()
    active = (rho_w > 0) & (np.abs(delta) < L)
    order, shifts, schedule = dala._plan_shifts(rho_w, delta, active, L, 2)
    assert [sh.d for sh in shifts] == [-1, 0, 1]
    assert not np.array_equal(order, np.arange(N))
    assert any(isinstance(a, np.ndarray) for sh in shifts
               for a, _, _ in sh.blocks)
    assert any(isinstance(a, np.ndarray) for _, reads in schedule
               for _, rs in reads for _, a, *_ in rs)
    rng = np.random.default_rng(11)
    datas = [rng.standard_normal((N, L, Du)) * 0.5 + 0.8 for _ in range(3)]
    datas[0][1, 3] = -np.abs(datas[0][1, 3]) - 0.1      # a query row
    datas[1][2, 0] = -np.abs(datas[1][2, 0]) - 0.1      # a key row
    assert_fd_gradients(
        lambda q, k, v: dala_core(q, k, v, priors, p=p, chunk=2), datas,
        rng.standard_normal((N, L, Du)))


# ----------------------------------------------------------------------
def test_forward_at_one_chunk_builds_no_state(rng):
    # one chunk (L = 12 < the default chunk 16): no chunk reads a k^T v
    # state [..., N, Du, Du], so none is built, and the forward's peak above
    # what it holds after it returns stays well under one state (0.17; 1.2
    # when the unread state was built)
    B, N, L, Du = 4, 3, 12, 128
    delta = np.array([[0, -1, 1], [1, 0, 0], [-1, 0, 0]])
    priors = DelayPriors(tau=delta * 8, rho=np.full((N, N), 0.8),
                         delta_tok=delta, max_lag=16)
    q, k, v = (T.Tensor(rng.standard_normal((B, N, L, Du)), requires_grad=True)
               for _ in range(3))
    dala_core(q, k, v, priors)          # plans are cached: plan outside
    tracemalloc.start()
    try:
        y = dala_core(q, k, v, priors)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = B * N * Du * Du * 8
    assert y.shape == q.shape
    assert peak - held < 0.5 * state, (peak - held) / state


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("L", [17, 40, 90])
def test_default_chunk_matches_oracle(L, rotated):
    # 2, 3 and 6 chunks of the default size: the shift -h hides the keys
    # j < h of chunk 0 and part of chunk 1, so a chunk after the first
    # reads no state, beside shifts that do read states and shifts >= L
    # in both directions
    nb = -(-L // 16)
    c = -(-L // nb)
    h = c + c // 2
    delta = np.array([[0, -h, L], [2, 0, 1 - L], [-L - 1, -3, 0]])
    rho = np.array([[1.0, 0.7, 0.9], [0.6, 1.0, 0.8], [0.5, 0.4, 1.0]])
    priors = DelayPriors(tau=delta * 8, rho=rho, delta_tok=delta,
                         max_lag=8 * L + 8)
    rho_w = priors.rho_weights()
    _, _, schedule = dala._plan_shifts(rho_w, delta, (rho_w > 0) & (
        np.abs(delta) < L), L, c)
    # per shift in each chunk after the first: does it read a state?
    reads = [any(r[0] is sh for _, rs in reads for r in rs)
             for bands, reads in schedule[1:] for sh, *_ in bands]
    assert any(reads) and not all(reads)
    rng = np.random.default_rng(L)
    inp = DalaInputs(*(T.Tensor(rng.standard_normal((L, 3, 4)) + 0.5)
                       for _ in range(3)), priors=priors)
    out = dala_attention(inp, rotated_denominator=rotated).data
    ref = naive_dala_oracle(inp, rotated_denominator=rotated)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(out - ref)) <= 1e-8 * scale


# full module
# ----------------------------------------------------------------------

def test_dala_core_takes_token_streams(rng):
    # the core works on [N, L, Du]; the public entry only swaps around it
    inp = make_inputs(rng, L=7, N=3, Du=4)
    q, k, v = (np.swapaxes(x.data, 0, 1) for x in (inp.q, inp.k, inp.v))
    core = dala_core(T.Tensor(q), T.Tensor(k), T.Tensor(v), inp.priors,
                     chunk=3).data
    ref = naive_dala_oracle(inp)
    np.testing.assert_allclose(np.swapaxes(core, 0, 1), ref, rtol=0,
                               atol=1e-10)
    np.testing.assert_array_equal(
        np.swapaxes(core, 0, 1), dala_attention(inp, chunk=3).data)


def test_forward_gate_kill(rng):
    params = DalaParams.init(8, 16, np.random.default_rng(0))
    params.b_gate.data = np.full(16, -60.0)
    params.w_gate.data = np.zeros((8, 16))
    tokens = T.Tensor(rng.standard_normal((2, 5, 8)))
    out = mamba_dala_forward(tokens, DelayPriors.identity(2), params, T.CHUNK)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_forward_single_variate_self_contained(rng):
    params = DalaParams.init(8, 16, np.random.default_rng(3))
    tokens = rng.standard_normal((1, 6, 8))
    full = mamba_dala_forward(T.Tensor(tokens), DelayPriors.identity(1),
                              params, T.CHUNK).data
    trunc = tokens.copy()
    trunc[:, 4:] = 0.0
    out = mamba_dala_forward(T.Tensor(trunc), DelayPriors.identity(1),
                             params, T.CHUNK).data
    assert np.max(np.abs(out[:, :4] - full[:, :4])) <= 1e-9


def test_forward_batched_matches_unbatched(rng):
    params = DalaParams.init(8, 16, np.random.default_rng(4))
    priors = DelayPriors.identity(2)
    tokens = rng.standard_normal((3, 2, 5, 8))
    batched = mamba_dala_forward(T.Tensor(tokens), priors, params,
                                 T.CHUNK).data
    for g in range(3):
        single = mamba_dala_forward(T.Tensor(tokens[g]), priors, params,
                                    T.CHUNK).data
        np.testing.assert_allclose(batched[g], single, atol=1e-12)


def test_shift_plan_is_cached_on_the_priors_values(rng, monkeypatch):
    # the same priors are planned once and a cached plan gives the same
    # outputs and gradients bit for bit; priors changed in place, which
    # keep their identity, are planned anew
    calls = []
    plan = dala._plan_shifts
    monkeypatch.setattr(dala, "_plan_shifts",
                        lambda *args: calls.append(1) or plan(*args))
    monkeypatch.setattr(dala, "_PLANS", {})
    priors = make_priors(rng, 4)
    q, k, v = (rng.standard_normal((2, 4, 6, 4)) for _ in range(3))

    def run():
        ts = [T.Tensor(x, requires_grad=True) for x in (q, k, v)]
        y = dala_core(*ts, priors, chunk=2)
        T.backward(T.tsum(T.mul(y, y)))
        return [y.data] + [t.grad for t in ts]

    first, again = run(), run()
    assert len(calls) == 1
    for x, y in zip(first, again):
        np.testing.assert_array_equal(x, y)
    priors.delta_tok[0, 1] += 1
    changed = run()
    assert len(calls) == 2
    assert not np.array_equal(changed[0], first[0])
    monkeypatch.setattr(dala, "_PLANS", {})
    for x, y in zip(changed, run()):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("chunk", [0, -1])
def test_rejects_chunk_below_one(rng, chunk):
    # the split the SSD shares rejects them
    x = rng.standard_normal((3, 5, 4))
    with pytest.raises(ConfigError, match="chunk"):
        dala_core(x, x, x, make_priors(rng, 3), chunk=chunk)


def test_shift_plan_cache_is_bounded(rng, monkeypatch):
    # one slot per token split (L, c): new priors replace the plan of their
    # split only, and the plan in a slot is read again without planning
    calls = []
    plan = dala._plan_shifts
    monkeypatch.setattr(dala, "_plan_shifts",
                        lambda *args: calls.append(1) or plan(*args))
    monkeypatch.setattr(dala, "_PLANS", {})
    x4, x5 = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 5, 2))
    priors = [make_priors(rng, 3) for _ in range(6)]
    for p in priors:
        dala_core(x4, x4, x4, p, chunk=2)
    dala_core(x5, x5, x5, priors[0], chunk=2)
    assert sorted(dala._PLANS) == [(4, 2), (5, 2)]     # 2 x 2 and 3 x 2
    assert len(calls) == 7
    dala_core(x4, x4, x4, priors[-1], chunk=2)
    dala_core(x5, x5, x5, priors[0], chunk=2)
    assert len(calls) == 7
    dala_core(x4, x4, x4, priors[0], chunk=2)
    assert len(calls) == 8 and len(dala._PLANS) == 2
