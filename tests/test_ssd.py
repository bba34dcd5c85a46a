"""Selective scan: parameterization, recurrence oracle, and blocked form."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dema import tensor as T
from dema.errors import ConfigError
from dema.ssd import (DiscreteSSM, SelectiveParams, SsdParams, discretize,
                      mamba_ssd_forward, selective_params, ssd_blocked,
                      ssm_scan_reference)


def random_instance(rng, N=2, L=16, Dh=4, Du=3):
    """Random discretized SSM inputs with A_bar safely inside (0, 1)."""
    A_bar = rng.uniform(0.05, 0.95, (N, L, Dh))
    B_bar = rng.standard_normal((N, L, Dh))
    C = rng.standard_normal((N, L, Dh))
    x = rng.standard_normal((N, L, Du))
    d = DiscreteSSM(A_bar=T.Tensor(A_bar), B_bar=T.Tensor(B_bar))
    return d, T.Tensor(C), T.Tensor(x)


# ----------------------------------------------------------------------
# selective parameters and discretization
# ----------------------------------------------------------------------

def test_zero_input_gives_ln2_delta():
    params = SsdParams.init(4, 6, 3, np.random.default_rng(0))
    sel = selective_params(T.Tensor(np.zeros((2, 5, 6))), params)
    np.testing.assert_allclose(sel.delta.data, np.log(2.0), atol=1e-12)


def test_identical_tokens_identical_params(rng):
    params = SsdParams.init(4, 6, 3, np.random.default_rng(1))
    token = rng.standard_normal(6)
    u = np.broadcast_to(token, (1, 4, 6)).copy()
    sel = selective_params(T.Tensor(u), params)
    for t in range(1, 4):
        np.testing.assert_array_equal(sel.delta.data[0, t], sel.delta.data[0, 0])
        np.testing.assert_array_equal(sel.B.data[0, t], sel.B.data[0, 0])


def test_delta_strictly_positive(rng):
    params = SsdParams.init(8, 16, 8, np.random.default_rng(2))
    u = rng.standard_normal((10, 125, 16)) * 3.0
    sel = selective_params(T.Tensor(u), params)
    assert sel.delta.data.size == 10000
    assert np.all(sel.delta.data > 0)


def test_discretize_small_delta_limit():
    sel = SelectiveParams(delta=T.Tensor(np.full((1, 4, 2), 1e-12)),
                          B=T.Tensor(np.ones((1, 4, 2))),
                          C=T.Tensor(np.ones((1, 4, 2))),
                          A_log=T.Tensor(np.zeros(2)))
    d = discretize(sel)
    np.testing.assert_allclose(d.A_bar.data, 1.0, atol=1e-10)
    np.testing.assert_allclose(d.B_bar.data, 0.0, atol=1e-10)


def test_discretize_analytic_point():
    # A = -1 (A_log = 0), delta = ln 2 -> A_bar = 0.5, B_bar = 0.5 * B
    sel = SelectiveParams(delta=T.Tensor(np.full((1, 1, 1), np.log(2.0))),
                          B=T.Tensor(np.ones((1, 1, 1))),
                          C=T.Tensor(np.ones((1, 1, 1))),
                          A_log=T.Tensor(np.zeros(1)))
    d = discretize(sel)
    np.testing.assert_allclose(d.A_bar.data, 0.5, atol=1e-12)
    np.testing.assert_allclose(d.B_bar.data, 0.5, atol=1e-12)


def test_discretize_a_bar_in_unit_interval(rng):
    params = SsdParams.init(4, 8, 4, np.random.default_rng(3))
    u = rng.standard_normal((3, 20, 8)) * 2.0
    d = discretize(selective_params(T.Tensor(u), params))
    assert np.all(d.A_bar.data > 0) and np.all(d.A_bar.data < 1)


# ----------------------------------------------------------------------
# reference recurrence
# ----------------------------------------------------------------------

def test_reference_single_step(rng):
    d, C, x = random_instance(rng, N=1, L=1)
    y = ssm_scan_reference(d, C, x)
    h = d.B_bar.data[0, 0, :, None] * x.data[0, 0, None, :]
    np.testing.assert_allclose(y[0, 0], C.data[0, 0] @ h, atol=1e-14)


def test_reference_memoryless_when_a_bar_zero(rng):
    d, C, x = random_instance(rng, N=2, L=8)
    d = DiscreteSSM(A_bar=T.Tensor(np.zeros(d.A_bar.shape)), B_bar=d.B_bar)
    y = ssm_scan_reference(d, C, x)
    for n in range(2):
        for t in range(8):
            h = d.B_bar.data[n, t, :, None] * x.data[n, t, None, :]
            np.testing.assert_allclose(y[n, t], C.data[n, t] @ h, atol=1e-12)


def test_reference_variate_permutation_equivariance(rng):
    d, C, x = random_instance(rng, N=3, L=10)
    y = ssm_scan_reference(d, C, x)
    perm = [2, 0, 1]
    d_p = DiscreteSSM(A_bar=T.Tensor(d.A_bar.data[perm]),
                      B_bar=T.Tensor(d.B_bar.data[perm]))
    y_p = ssm_scan_reference(d_p, T.Tensor(C.data[perm]), T.Tensor(x.data[perm]))
    np.testing.assert_array_equal(y_p, y[perm])


# ----------------------------------------------------------------------
# blocked scan vs reference
# ----------------------------------------------------------------------

def test_blocked_single_chunk_equals_reference(rng):
    d, C, x = random_instance(rng, N=2, L=24)
    ref = ssm_scan_reference(d, C, x)
    out = ssd_blocked(d, C, x, chunk=24).data
    assert np.max(np.abs(out - ref)) <= 1e-10


def test_blocked_chunk_one_equals_reference(rng):
    d, C, x = random_instance(rng, N=2, L=12)
    ref = ssm_scan_reference(d, C, x)
    out = ssd_blocked(d, C, x, chunk=1).data
    assert np.max(np.abs(out - ref)) <= 1e-10


def test_blocked_random_instances(rng):
    for _ in range(20):
        N = int(rng.integers(1, 5))
        L = int(rng.integers(2, 65))
        Dh = int(rng.integers(1, 9))
        Du = int(rng.integers(1, 5))
        d, C, x = random_instance(rng, N, L, Dh, Du)
        ref = ssm_scan_reference(d, C, x)
        for chunk in (1, 8, 16):
            out = ssd_blocked(d, C, x, chunk=chunk).data
            assert np.max(np.abs(out - ref)) <= 1e-8


@pytest.mark.parametrize("L", [17, 24, 25, 90])
def test_blocked_balanced_chunks_equal_reference(rng, L):
    # chunk 16 runs 17, 24, 25 and 90 tokens as 2 x 9, 2 x 12, 2 x 13 and
    # 6 x 15: 17 and 25 pad one row, 24 and 90 none
    d, C, x = random_instance(rng, N=2, L=L)
    ref = ssm_scan_reference(d, C, x)
    assert np.max(np.abs(ssd_blocked(d, C, x, chunk=16).data - ref)) <= 1e-10


def test_blocked_handles_ragged_padding(rng):
    d, C, x = random_instance(rng, N=1, L=19)
    ref = ssm_scan_reference(d, C, x)
    out = ssd_blocked(d, C, x, chunk=8).data
    assert np.max(np.abs(out - ref)) <= 1e-10


def test_blocked_survives_underflowing_decay(rng):
    # delta * A < -745 underflows A_bar to exactly 0; the blocked scan
    # must stay finite and equal to the recurrence
    N, L, Dh, Du = 2, 10, 3, 2
    delta = rng.uniform(0.1, 2.0, (N, L, Dh))
    delta[:, 3, 0] = 800.0
    delta[1, 4:7, 2] = 2000.0
    sel = SelectiveParams(delta=T.Tensor(delta, requires_grad=True),
                          B=T.Tensor(rng.standard_normal((N, L, Dh))),
                          C=T.Tensor(rng.standard_normal((N, L, Dh))),
                          A_log=T.Tensor(np.zeros(Dh), requires_grad=True))
    d = discretize(sel)
    assert np.any(d.A_bar.data == 0.0)
    x = T.Tensor(rng.standard_normal((N, L, Du)))
    ref = ssm_scan_reference(d, sel.C, x)
    assert np.all(np.isfinite(ref))
    for chunk in (1, 3, 4, 10):
        out = ssd_blocked(d, sel.C, x, chunk=chunk)
        assert np.max(np.abs(out.data - ref)) <= 1e-10
    T.backward(T.tsum(T.mul(out, out)))
    assert np.all(np.isfinite(sel.delta.grad))
    assert np.all(np.isfinite(sel.A_log.grad))


@st.composite
def ssd_cases(draw):
    """Shapes, chunk and step sizes for the blocked scan against the oracle.

    Chunks need not divide L, inputs may carry leading batch axes, and
    up to three step sizes are large enough that A_bar underflows to 0.
    """
    L = draw(st.integers(1, 20))
    Dh = draw(st.integers(1, 4))
    Du = draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (2,), (2, 3)]))
    chunk = draw(st.integers(1, L + 3))
    n_under = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return L, Dh, Du, lead, chunk, n_under, seed


@settings(max_examples=60, deadline=None)
@given(ssd_cases())
def test_blocked_matches_reference_property(case):
    L, Dh, Du, lead, chunk, n_under, seed = case
    rng = np.random.default_rng(seed)
    delta = rng.uniform(0.05, 3.0, lead + (L, Dh))
    # A = -exp(A_log) <= -e^-1, so delta = 3000 gives delta * A < -745
    delta.ravel()[rng.choice(delta.size, min(n_under, delta.size),
                             replace=False)] = 3000.0
    sel = SelectiveParams(delta=T.Tensor(delta),
                          B=T.Tensor(rng.standard_normal(lead + (L, Dh))),
                          C=T.Tensor(rng.standard_normal(lead + (L, Dh))),
                          A_log=T.Tensor(rng.uniform(-1.0, 1.0, Dh)))
    d = discretize(sel)
    assert np.any(d.A_bar.data == 0.0) == (n_under > 0)
    x = T.Tensor(rng.standard_normal(lead + (L, Du)))
    ref = ssm_scan_reference(d, sel.C, x)
    out = ssd_blocked(d, sel.C, x, chunk=chunk).data
    assert out.shape == ref.shape and np.all(np.isfinite(out))
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(out - ref)) <= 1e-8 * scale


def test_blocked_rejects_bad_chunk(rng):
    d, C, x = random_instance(rng)
    for chunk in (0, -1):
        with pytest.raises(ConfigError):
            ssd_blocked(d, C, x, chunk=chunk)


def test_blocked_is_differentiable(rng):
    A_bar = T.Tensor(np.random.default_rng(5).uniform(0.1, 0.9, (1, 6, 2)),
                     requires_grad=True)
    B_bar = T.Tensor(rng.standard_normal((1, 6, 2)), requires_grad=True)
    C = T.Tensor(rng.standard_normal((1, 6, 2)), requires_grad=True)
    x = T.Tensor(rng.standard_normal((1, 6, 3)), requires_grad=True)
    y = ssd_blocked(DiscreteSSM(A_bar=A_bar, B_bar=B_bar), C, x, chunk=4)
    T.backward(T.tsum(T.mul(y, y)))
    for p in (A_bar, B_bar, C, x):
        assert p.grad is not None and np.all(np.isfinite(p.grad))


def _ssd_value_and_grads(rng, shapes, chunk):
    """ssd_blocked's value and its VJP's four gradients (log A_bar, B_bar,
    C, x) on inputs of the given shapes, with decays mostly below one."""
    log_a, B_bar, C, x = (rng.standard_normal(s) for s in shapes)
    log_a = -np.abs(log_a)
    d = DiscreteSSM(A_bar=np.exp(log_a), B_bar=T.Tensor(B_bar),
                    log_A_bar=T.Tensor(log_a, requires_grad=True))
    y = ssd_blocked(d, T.Tensor(C), T.Tensor(x, requires_grad=True), chunk)
    return [y.data, *y._backward(rng.standard_normal(y.shape))]


@pytest.mark.parametrize("shapes,chunk,n_rows", [
    # [11] lead, L = 7 at chunk 4: 22 rows of [c, c, Dh] in blocks of
    # 6, 6, 6 and 4
    ([(11, 7, 3), (11, 7, 3), (11, 7, 3), (11, 7, 2)], 4, 22),
    ([(10, 3), (10, 3), (10, 3), (10, 2)], 3, 4),       # lead (), nb = 4
    # broadcast lead [2, 3], nb = 3
    ([(3, 9, 2), (2, 1, 9, 2), (9, 2), (2, 3, 9, 4)], 4, 18),
    ([(3, 64, 16), (3, 64, 16), (3, 64, 16), (3, 64, 2)], 64, 3),  # a row
])                                                    # above the budget
def test_blocked_decays_equal_one_block_bit_for_bit(shapes, chunk, n_rows,
                                                    monkeypatch):
    L, Dh = shapes[0][-2:]
    _, c = T._chunks(L, chunk)
    blocks = T._row_blocks(n_rows, c * c * Dh)
    assert len(blocks) >= min(n_rows, 4)
    if n_rows == 22:                    # three blocks and a remainder
        assert [len(range(22)[r]) for r in blocks] == [6, 6, 6, 4]
    got = _ssd_value_and_grads(np.random.default_rng(3), shapes, chunk)
    monkeypatch.setattr(T, "_row_blocks", lambda n, width: [slice(0, n)])
    want = _ssd_value_and_grads(np.random.default_rng(3), shapes, chunk)
    for i, (a, b) in enumerate(zip(want, got)):
        assert a.shape == b.shape and np.array_equal(a, b), i


def test_blocked_vjp_holds_no_whole_decay_array(rng):
    # [4, 3] lead, two chunks of 32, Dh = 16: the masked decays [..., nb,
    # c, c, Dh] (3.1 MB) outweigh every other array of the VJP
    lead, L, chunk, Dh = (4, 3), 64, 32, 16
    decays = int(np.prod(lead)) * (L // chunk) * chunk * chunk * Dh * 8
    d = DiscreteSSM(A_bar=None, B_bar=T.Tensor(rng.standard_normal(
        lead + (L, Dh))), log_A_bar=T.Tensor(
            -np.abs(rng.standard_normal(lead + (L, Dh))), requires_grad=True))
    y = ssd_blocked(d, T.Tensor(rng.standard_normal(lead + (L, Dh))),
                    T.Tensor(rng.standard_normal(lead + (L, 4))), chunk)
    g = rng.standard_normal(y.shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = y._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in grads)
    # building the whole decay array, as one einsum operand, read 1.08
    # decay arrays above the outputs here; row blocks read 0.19
    assert peak - start < outputs + 0.5 * decays, (
        (peak - start - outputs) / decays)


# ----------------------------------------------------------------------
# full module
# ----------------------------------------------------------------------

def make_tokens(rng, N=3, L=12, D=8):
    return T.Tensor(rng.standard_normal((N, L, D)))


def test_forward_gate_kill(rng):
    params = SsdParams.init(8, 16, 4, np.random.default_rng(0))
    params.b_gate.data = np.full(16, -60.0)
    params.w_gate.data = np.zeros((8, 16))
    params.b_out.data = np.zeros(8)
    out = mamba_ssd_forward(make_tokens(rng), params)
    assert np.max(np.abs(out.data)) <= 1e-12


def test_forward_causality(rng):
    params = SsdParams.init(8, 16, 4, np.random.default_rng(7))
    tokens = rng.standard_normal((2, 10, 8))
    full = mamba_ssd_forward(T.Tensor(tokens), params).data
    for cut in (0, 3, 7):
        trunc = tokens.copy()
        trunc[:, cut + 1:] = 0.0
        out = mamba_ssd_forward(T.Tensor(trunc), params).data
        assert np.max(np.abs(out[:, : cut + 1] - full[:, : cut + 1])) <= 1e-10


def test_forward_identical_variates_identical_outputs(rng):
    params = SsdParams.init(8, 16, 4, np.random.default_rng(9))
    seq = rng.standard_normal((1, 12, 8))
    tokens = np.concatenate([seq, seq], axis=0)
    out = mamba_ssd_forward(T.Tensor(tokens), params).data
    np.testing.assert_array_equal(out[0], out[1])
