"""Tensor engine: arithmetic, FFT, and reverse-mode gradients."""

import tracemalloc
import types
from dataclasses import dataclass

import numpy as np
import pytest

from dema import tensor as T
from dema.dala import _phi, _phi_vjp, dala_core
from dema.delay import DelayPriors
from dema.errors import ContractError, DimensionError, NumericError
from dema.model import (ModelConfig, ModelState, backbone_forward,
                         model_forward)
from dema.ssd import DiscreteSSM, ssd_blocked


# ----------------------------------------------------------------------
# parameter helpers
# ----------------------------------------------------------------------

def test_parameters_walk_tensor_fields_in_order():
    @dataclass
    class Inner:
        z: T.Tensor
        chunk: int
        a: T.Tensor

    @dataclass
    class Outer:
        w: T.Tensor
        inner: Inner
        alpha: float
        name: str
        b: T.Tensor

    w, z, a, b = (T.Tensor(np.zeros(1)) for _ in range(4))
    outer = Outer(w=w, inner=Inner(z=z, chunk=4, a=a), alpha=0.5, name="x",
                  b=b)
    assert list(T.parameters(outer, "m")) == [
        ("m.w", w), ("m.inner.z", z), ("m.inner.a", a), ("m.b", b)]


def test_dense_draws_scaled_normal_weights():
    w = T.dense(np.random.default_rng(3), 400, 300)
    ref = np.random.default_rng(3).normal(0, 1 / 20, (400, 300))
    assert w.requires_grad
    np.testing.assert_array_equal(w.data, ref)


# ----------------------------------------------------------------------
# matrix products (linear without a bias)
# ----------------------------------------------------------------------

def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = T.linear(T.Tensor(np.eye(3)), T.Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_case():
    out = T.linear(T.Tensor([[1.0, 2.0], [3.0, 4.0]]),
                   T.Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_vs_triple_loop(rng):
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                ref[i, j] += a[i, k] * b[k, j]
    out = T.linear(T.Tensor(a), T.Tensor(b)).data
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        T.linear(T.Tensor([[1.0], [2.0]]), T.Tensor([1.0, 2.0]))
    with pytest.raises(DimensionError):
        T.linear(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))


def test_matmul_batched(rng):
    a = rng.standard_normal((4, 2, 5))
    b = rng.standard_normal((5, 3))
    out = T.linear(T.Tensor(a), T.Tensor(b)).data
    np.testing.assert_allclose(out, a @ b, atol=1e-14)


# ----------------------------------------------------------------------
# scalar nonlinearities
# ----------------------------------------------------------------------

def test_softplus_at_zero():
    assert abs(T.softplus(T.Tensor(0.0)).data - np.log(2.0)) <= 1e-12


def test_sigmoid_at_zero():
    assert T._sigmoid(np.zeros(()), "sigmoid") == 0.5


def test_sigmoid_matches_branch_select_bit_for_bit(rng):
    # the in-place form gives the bits of where(x >= 0, s, 1 - s)
    x = np.concatenate([rng.standard_normal(200) * 10,
                        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0,
                         -800.0, 745.0, -745.0, 5e-324, -5e-324, 1e-17,
                         -1e-17]])
    s = 1.0 / (1.0 + np.exp(-np.abs(x)))
    np.testing.assert_array_equal(T._sigmoid(x, "sigmoid"),
                                  np.where(x >= 0, s, 1.0 - s))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sigmoid_and_gated_linear_reject_non_finite_gates(bad):
    gate = np.zeros((2, 3))
    gate[1, 2] = bad
    with pytest.raises(NumericError, match="sigmoid"):
        T._sigmoid(gate, "sigmoid")
    with pytest.raises(NumericError, match="gated_linear"):
        T.gated_linear(T.Tensor(np.ones((2, 3))), T.Tensor(gate),
                       T.Tensor(np.ones((3, 4))), T.Tensor(np.zeros(4)))


@pytest.mark.parametrize("name, op", [
    ("softplus", T.softplus),
    ("layer_norm", T.layer_norm),
    ("layer_norm_sum", lambda x: T.layer_norm_sum([(x, None, None, 0.5)])),
    ("add_layer_norm", lambda x: T.add_layer_norm(x, np.ones(x.shape))),
    ("conv1d", lambda x: T.conv1d(x, np.ones((2, 3)))),
])
def test_ops_name_a_non_finite_input(name, op):
    # the model checks its windows before RevIN; direct calls meet these
    x = np.zeros((2, 4, 3))
    x[1, 2, 0] = np.nan
    with pytest.raises(NumericError, match=f"^{name}: non-finite input"):
        op(T.Tensor(x))


def test_gated_linear_matches_unfused_chain(rng):
    y, gate = rng.standard_normal((2, 3, 5)), 10 * rng.standard_normal((2, 3, 5))
    w, b = rng.standard_normal((5, 4)), rng.standard_normal(4)
    out = T.gated_linear(T.Tensor(y), T.Tensor(gate), T.Tensor(w), T.Tensor(b))
    ref = (y * T._sigmoid(gate, "sigmoid")) @ w + b
    np.testing.assert_array_equal(out.data, ref)


def test_linear_matches_matmul_bit_for_bit(rng):
    x, w, b = (rng.standard_normal(s) for s in ((4, 7, 12, 16), (16, 8), (8,)))
    out = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b)).data
    np.testing.assert_array_equal(out, x @ w + b)
    np.testing.assert_array_equal(T.linear(T.Tensor(x), T.Tensor(w)).data,
                                  x @ w)


@pytest.mark.parametrize("x_shape,w_shape,b_shape", [
    ((3, 4), (5, 2), None),          # inner extents differ
    ((3, 4), (4, 2), (3,)),          # bias does not match the output
    ((3, 4), (4, 2), (1, 2)),
    ((3, 4), (4,), None),            # weight not 2-D
    ((3, 4), (2, 4, 2), None),
    ((), (1, 2), None),              # scalar input
])
def test_linear_shape_errors(x_shape, w_shape, b_shape):
    b = None if b_shape is None else T.Tensor(np.zeros(b_shape))
    with pytest.raises(DimensionError, match="linear"):
        T.linear(T.Tensor(np.ones(x_shape)), T.Tensor(np.ones(w_shape)), b)
    if b is not None:
        with pytest.raises(DimensionError, match="gated_linear"):
            T.gated_linear(T.Tensor(np.ones(x_shape)), T.Tensor(np.ones(x_shape)),
                           T.Tensor(np.ones(w_shape)), b)


def test_gated_linear_gate_shape_error():
    with pytest.raises(DimensionError, match="gate"):
        T.gated_linear(T.Tensor(np.ones((3, 4))), T.Tensor(np.ones((1, 4))),
                       T.Tensor(np.ones((4, 2))), T.Tensor(np.zeros(2)))


def test_layer_norm_constant_vector():
    out = T.layer_norm(T.Tensor(np.full(8, 3.0)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_softmax_rows_sum_to_one(rng):
    out = T.softmax(T.Tensor(rng.standard_normal((5, 7))))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out.data >= 0)


# ----------------------------------------------------------------------
# autodiff
# ----------------------------------------------------------------------

def test_grad_square():
    x = T.Tensor(3.0, requires_grad=True)
    T.backward(T.mul(x, x))
    assert abs(x.grad - 6.0) <= 1e-12


def test_grad_sigmoid_chain_vs_finite_difference(rng):
    W = T.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    x = rng.standard_normal((4, 1))

    def f(w):
        return float(np.sum(1.0 / (1.0 + np.exp(-(w @ x)))))

    # sum(sigmoid(W x)) as a gated output projection of ones
    gate = T.linear(T.Tensor(x.T), T.swapaxes(W, 0, 1))
    T.backward(T.tsum(T.gated_linear(T.Tensor(np.ones((1, 4))), gate,
                                     T.Tensor(np.ones((4, 1))),
                                     T.Tensor(np.zeros(1)))))
    h = 1e-5
    for i in range(4):
        for j in range(4):
            wp, wm = W.data.copy(), W.data.copy()
            wp[i, j] += h
            wm[i, j] -= h
            fd = (f(wp) - f(wm)) / (2 * h)
            rel = abs(W.grad[i, j] - fd) / max(abs(fd), 1e-8)
            assert rel <= 1e-4


def test_unused_parameter_gets_no_gradient():
    used = T.Tensor(2.0, requires_grad=True)
    unused = T.Tensor(5.0, requires_grad=True)
    T.backward(T.mul(used, used))
    assert unused.grad is None
    assert used.grad is not None


def _reachable(loss):
    """Every tensor backward visits from `loss`, by a walk of `_parents`."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


def test_backward_frees_interior_gradients_keeps_graph(rng):
    W = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    b = T.Tensor(np.zeros(3), requires_grad=True)
    x = T.Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    h = T.softplus(T.linear(x, W, b))
    loss = T.tsum(T.mul(h, h))
    before = _reachable(loss)
    T.backward(loss)
    after = _reachable(loss)
    assert [id(n) for n in after] == [id(n) for n in before]
    leaves = [n for n in after if n._backward is None]
    interior = [n for n in after if n._backward is not None]
    assert {id(n) for n in leaves} == {id(W), id(b), id(x)}
    assert interior and loss in interior
    assert all(n.grad is None for n in interior)
    assert all(n.grad is not None for n in leaves)


def test_repeated_backward_sends_no_stale_gradient():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, x)
    T.backward(T.tsum(y))
    T.backward(T.tsum(T.mul(3.0, y)))
    # 2x from the first call plus 6x from the second
    np.testing.assert_array_equal(x.grad, [8.0, 16.0])


def test_shared_gradient_arrays_are_not_written():
    # add hands one array to both operands; a later in-place accumulation
    # into a's gradient would also change b's
    a = T.Tensor(np.ones(3), requires_grad=True)
    b = T.Tensor(np.ones(3), requires_grad=True)
    T.backward(T.add(T.tsum(T.add(a, b)), T.tsum(T.mul(3.0, a))))
    np.testing.assert_array_equal(a.grad, [4.0, 4.0, 4.0])
    np.testing.assert_array_equal(b.grad, [1.0, 1.0, 1.0])


def test_backward_peak_memory_stays_near_forward_bytes(rng):
    cfg = ModelConfig(lookback=32, horizon=8, d_model=16, d_state=4,
                      n_blocks=2, chunk=4)
    state = ModelState.init(cfg)
    x = rng.standard_normal((4, 3, cfg.lookback))
    y = rng.standard_normal((4, 3, cfg.horizon))

    def mse():
        diff = T.sub(model_forward(x, state), y)
        return T.tmean(T.mul(diff, diff))

    # one untraced step first, so that allocations made once per process
    # (caches, first calls) do not count as held bytes: the ratio then
    # reads the same alone and after other tests
    T.backward(mse())
    tracemalloc.start()
    try:
        loss = mse()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # keeping every interior gradient until the graph is dropped reads
    # over 2x here
    assert peak < 1.5 * held, (peak, held)


def _closure_arrays(fn, depth=0):
    """Arrays a closure holds, directly or in tuples, lists and dicts, and
    those of the functions it holds, one level down."""
    out, todo = [], [c.cell_contents for c in fn.__closure__ or ()]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, types.FunctionType) and depth == 0:
            out.extend(_closure_arrays(obj, depth + 1))
    return out


def test_vjps_keep_only_inputs_and_row_statistics(rng):
    # one SSD chunk (4 tokens, chunk 16); the shift of -2 pads DALA's key
    # prefix sums to L + 2 rows of all 3 variates (its queries: 1 variate)
    cfg = ModelConfig(lookback=32, horizon=8, d_model=16, d_state=3,
                      n_blocks=2)
    state = ModelState.init(cfg)
    L, Dh, Du = cfg.lookback // cfg.patch_len, cfg.d_state, cfg.d_inner
    delta = np.array([[0, -2, 1], [2, 0, 0], [-1, 0, 0]])
    priors = DelayPriors(tau=delta * cfg.patch_len, rho=np.full((3, 3), 0.8),
                         delta_tok=delta, max_lag=16)
    out = model_forward(rng.standard_normal((2, 3, cfg.lookback)), state,
                        priors)
    nodes, stack = {}, [out]
    while stack:
        n = stack.pop()
        if id(n) not in nodes:
            nodes[id(n)] = n
            stack.extend(n._parents)
    tape = {id(n.data) for n in nodes.values()}
    held = {}
    for n in nodes.values():
        if n._backward is not None:
            name = n._backward.__qualname__.split(".")[0]
            held.setdefault(name, []).extend(
                a for a in _closure_arrays(n._backward) if id(a) not in tape)
    for name in ("gated_linear", "conv1d", "_layer_norms"):
        assert name in held
        assert all(a.shape[-1] == 1 for a in held[name]), (
            name, [a.shape for a in held[name]])
    # the FFN's hidden layer [..., L, 4D] is neither a tape value nor
    # kept by its node, and the SSD keeps no decays [..., c, c, Dh]
    hidden = (L, 4 * cfg.d_model)
    assert "ffn" in held
    assert not any(n.data.shape[-2:] == hidden for n in nodes.values())
    assert not any(a.shape[-2:] == hidden for a in held["ffn"])
    assert not any(a.shape[-2:] == (Dh, Du) for a in held["ssd_blocked"])
    _, c = T._chunks(L, cfg.chunk)
    assert not any(a.shape[-3:] == (c, c, Dh) for a in held["ssd_blocked"])
    assert held["dala_core"]
    # dala_core maps q and k itself: its parents are the projections
    assert all(p._backward.__qualname__.split(".")[0] == "linear"
               for n in nodes.values() if n._backward is not None and
               n._backward.__qualname__.startswith("dala_core.")
               for p in n._parents)
    assert not any(a.shape[-3:] == (3, L + 2, Du) for a in held["dala_core"])


def test_backward_requires_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(T.mul(x, 2.0))
    with pytest.raises(ContractError, match="expects a Tensor"):
        T.backward(np.float64(1.0))


def test_no_grad_skips_graph():
    x = T.Tensor(1.0, requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._parents == ()


def test_conv1d_causal_never_looks_ahead(rng):
    x = rng.standard_normal((6, 3))
    kern = rng.standard_normal((4, 3))
    full = T.conv1d(T.Tensor(x), T.Tensor(kern)).data
    for cut in range(6):
        trunc = x.copy()
        trunc[cut + 1:] = 0.0
        out = T.conv1d(T.Tensor(trunc), T.Tensor(kern)).data
        assert np.max(np.abs(out[: cut + 1] - full[: cut + 1])) <= 1e-12


def _finite_diff_check(op, shapes, rng, rel_tol=1e-4, h=1e-6, **kwargs):
    """Central-difference gradient check of a Tensor op against numpy."""
    args = [T.Tensor(rng.standard_normal(s), requires_grad=True)
            for s in shapes]
    weights = None

    def value(datas):
        nonlocal weights
        out = op(*[T.Tensor(d) for d in datas], **kwargs)
        if weights is None:
            weights = rng.standard_normal(out.shape)
        return float(np.sum(out.data * weights))

    value([a.data for a in args])  # fix the projection weights
    out = op(*args, **kwargs)
    T.backward(T.tsum(T.mul(out, weights)))
    for idx, a in enumerate(args):
        flat = a.data.ravel()
        grad = a.grad.ravel()
        for i in range(flat.size):
            datas = [x.data.copy() for x in args]
            datas[idx].ravel()[i] += h
            fp = value(datas)
            datas[idx].ravel()[i] -= 2 * h
            fm = value(datas)
            fd = (fp - fm) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(fd), abs(grad[i]), 1e-6)
            assert rel <= rel_tol, f"{op.__name__} arg{idx} flat[{i}]"


def phi_with_dead_row(x, p):
    """DALA's kernel map `_phi` as a node with `_phi_vjp` as its VJP, with
    row 1 pushed below zero (zero output and gradient)."""
    x = T.add(x, np.array([0.0, -10.0, 0.0, 0.0])[:, None])
    phi, norms = _phi(x.data, p)
    return T._make(phi, (x,),
                   lambda g: (_phi_vjp(g.copy(), x.data, p, *norms),))


def ssd_from_log_decays(log_a, B_bar, C, x, chunk):
    """ssd_blocked on log A_bar = log_a - 1, mostly below zero as in the
    model, so the scan stays bounded.

    The first step's decay multiplies the zero state, so its true gradient
    is 0; the cumulative sums move the output by rounding alone, which
    h = 1e-4 keeps under the tolerance.
    """
    d = DiscreteSSM(log_A_bar=T.sub(log_a, 1.0), B_bar=B_bar)
    return ssd_blocked(d, C, x, chunk)


_CONST_X = np.random.default_rng(1).standard_normal((2, 3, 4))
_WIDE_GATES = np.array([30.0, -30.0, 0.0, 2.0, -2.0])


def linear_const_x(w, b):
    """linear on a constant input, so only w and b get gradients."""
    return T.linear(_CONST_X, w, b)


def ffn_const_x(w1, b1, w2, b2):
    """ffn on a constant input, so only the weights get gradients."""
    return T.ffn(_CONST_X, w1, b1, w2, b2)


def layer_norm_sum_fused(x1, gamma1, beta1, x2, gamma2, beta2):
    """The block's fusion 0.6 LN(x1) + 0.4 LN(x2), the model's defaults."""
    return T.layer_norm_sum([(x1, gamma1, beta1, 0.6), (x2, gamma2, beta2, 0.4)])


def layer_norm_sum_plain(x1, x2):
    """layer_norm_sum without affine parameters, one weight 1 and one 0."""
    return T.layer_norm_sum([(x1, None, None, 1.0), (x2, None, None, 0.0)])


def gated_linear_wide(y, gate, w, b):
    """gated_linear with gates pushed out to +-30 along the last axis."""
    return T.gated_linear(y, T.add(gate, _WIDE_GATES), w, b)


@pytest.mark.parametrize("op,shapes,kwargs", [
    (T.add, [(3, 4), (3, 4)], {}),
    (T.sub, [(3, 4), (4,)], {}),
    (T.mul, [(3, 4), (3, 4)], {}),
    (T.div, [(3, 4), (3, 4)], {}),
    (T.neg, [(3, 4)], {}),
    (T.texp, [(3, 4)], {}),
    (T.swapaxes, [(2, 3, 4)], {"ax1": 0, "ax2": -1}),
    (T.softplus, [(3, 4)], {}),
    (T.reshape, [(3, 4)], {"shape": (2, 6)}),
    (T.ffn, [(3, 4), (4, 6), (6,), (6, 2), (2,)], {}),
    (T.tsum, [(3, 4)], {"axis": -1}),
    (T.tmean, [(3, 4)], {"axis": 0}),
    (T.layer_norm, [(2, 3, 4), (4,), (4,)], {}),   # with gamma and beta
    (T.layer_norm, [(3, 4)], {}),
    (T.softmax, [(3, 4)], {}),
    (T.conv1d, [(5, 3), (2, 3)], {}),
    (T.conv1d, [(2, 3, 3), (5, 3)], {}),           # kernel longer than L
    (phi_with_dead_row, [(4, 5)], {"p": 1}),
    (phi_with_dead_row, [(4, 5)], {"p": 2}),
    (phi_with_dead_row, [(4, 5)], {"p": 3}),
    (phi_with_dead_row, [(4, 5)], {"p": 4}),
    (ssd_from_log_decays, [(2, 7, 2), (2, 7, 2), (2, 7, 2), (2, 7, 3)],
     {"chunk": 1, "h": 1e-4}),
    (ssd_from_log_decays, [(2, 7, 2), (2, 7, 2), (2, 7, 2), (2, 7, 3)],
     {"chunk": 5, "h": 1e-4}),
    (ssd_from_log_decays, [(2, 7, 2), (2, 7, 2), (2, 7, 2), (2, 7, 3)],
     {"chunk": 9, "h": 1e-4}),
    (T.linear, [(3, 4), (4, 2)], {}),                   # no bias
    (T.linear, [(3, 4), (4, 2), (2,)], {}),
    (T.linear, [(2, 3, 4), (4, 5), (5,)], {}),          # leading axes
    (T.linear, [(4,), (4, 3), (3,)], {}),               # one row
    (linear_const_x, [(4, 5), (5,)], {}),
    (T.gated_linear, [(2, 3, 4), (2, 3, 4), (4, 2), (2,)], {}),
    (gated_linear_wide, [(3, 5), (3, 5), (5, 2), (2,)], {}),
    # two unpadded chunks: chunk 0 builds the one state chunk 1 reads
    (ssd_from_log_decays, [(2, 8, 2), (2, 8, 2), (2, 8, 2), (2, 8, 3)],
     {"chunk": 4, "h": 1e-4}),
    (T.ffn, [(2, 3, 4), (4, 16), (16,), (16, 4), (4,)], {}),  # leading axes
    (T.ffn, [(4,), (4, 5), (5,), (5, 3), (3,)], {}),   # one row: 1-d hidden
    (ffn_const_x, [(4, 6), (6,), (6, 2), (2,)], {}),
    (layer_norm_sum_fused, [(2, 3, 4), (4,), (4,), (2, 3, 4), (4,), (4,)], {}),
    (layer_norm_sum_plain, [(3, 4), (3, 4)], {}),
    (T.add_layer_norm, [(2, 3, 4), (2, 3, 4), (4,), (4,)], {}),
    (T.add_layer_norm, [(3, 4), (3, 4)], {}),
    # the balanced split of 17, 24, 25 and 90 tokens at chunk 16: 2 x 9,
    # 2 x 12, 2 x 13 and 6 x 15, so 17 and 25 pad one row of the last chunk
    *[(ssd_from_log_decays, [(L, 2), (L, 2), (L, 2), (L, 3)],
       {"chunk": 16, "h": 1e-4}) for L in (17, 24, 25, 90)],
])
def test_per_op_finite_difference(op, shapes, kwargs, rng):
    _finite_diff_check(op, shapes, rng, **kwargs)


@pytest.mark.parametrize("L, chunk, split", [
    (12, 16, (1, 12)), (24, 16, (2, 12)), (25, 16, (2, 13)),
    (90, 16, (6, 15)), (48, 16, (3, 16)), (5, 1, (5, 1)),
])
def test_chunks_balance_the_split(L, chunk, split):
    # nb = ceil(L / min(chunk, L)) chunks of c = ceil(L / nb) tokens, the
    # split of the SSD and of DALA
    assert T._chunks(L, chunk) == split


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_power_integer_matches_float_pow(p, rng):
    # the repeated products the kernel map `_phi` takes its powers with
    x = rng.standard_normal((3, 4))
    np.testing.assert_allclose(T._int_power(x, p), x ** float(p), rtol=1e-14,
                               atol=0)


def test_power_zero_is_step(rng):
    # r ** 0 is 1[r > 0], so p r^(p - 1) is ReLU's derivative at p = 1
    r = np.maximum(rng.standard_normal((3, 4)), 0.0)
    np.testing.assert_array_equal(T._int_power(r, 0), r > 0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_kernel_phi_dead_row_has_zero_gradient(p, rng):
    # DALA's kernel map `_phi` and its VJP `_phi_vjp`
    x = rng.standard_normal((3, 6))
    x[1] = -np.abs(x[1])
    x[1, 2] = 0.0
    out, norms = _phi(x, p)
    assert np.all(out[1] == 0.0)
    grad = _phi_vjp(rng.standard_normal(out.shape), x, p, *norms)
    assert np.all(grad[1] == 0.0) and np.all(np.isfinite(grad))


def test_ssd_gradients_finite_when_decays_underflow(rng):
    # exp(-2000) underflows to 0 in every decay across these steps
    lead, L, Dh, Du = (2,), 9, 3, 2
    log_a = -rng.uniform(0.1, 1.0, lead + (L, Dh))
    log_a[0, 2, 0] = -2000.0
    log_a[1, 4:8, 1:] = -800.0
    args = [T.Tensor(a, requires_grad=True) for a in (
        log_a, rng.standard_normal(lead + (L, Dh)),
        rng.standard_normal(lead + (L, Dh)),
        rng.standard_normal(lead + (L, Du)))]
    for chunk in (1, 4, 9):
        for a in args:
            a.zero_grad()
        d = DiscreteSSM(log_A_bar=args[0], B_bar=args[1])
        y = ssd_blocked(d, args[2], args[3], chunk)
        assert np.all(np.isfinite(y.data))
        T.backward(T.tsum(T.mul(y, y)))
        for a in args:
            assert np.all(np.isfinite(a.grad)), chunk


def test_fused_ops_record_one_node(rng):
    # each composite op is one tape node: its output's parents are the
    # op's own inputs, not a chain of intermediate nodes
    def leaf(*shape):
        return T.Tensor(rng.standard_normal(shape), requires_grad=True)

    x, gamma, beta = leaf(2, 5, 4), leaf(4), leaf(4)
    assert T.layer_norm(x, gamma, beta)._parents == (x, gamma, beta)
    assert T.layer_norm(x)._parents == (x,)
    y, gamma2, beta2 = leaf(2, 5, 4), leaf(4), leaf(4)
    assert T.layer_norm_sum([(x, gamma, beta, 0.6), (y, gamma2, beta2, 0.4)]
                            )._parents == (x, gamma, beta, y, gamma2, beta2)
    assert T.add_layer_norm(x, y, gamma, beta)._parents == (x, y, gamma, beta)
    kernel = leaf(3, 4)
    assert T.conv1d(x, kernel)._parents == (x, kernel)
    # dala_core runs the kernel map inside its own node, for every power
    q, k, v = (leaf(3, 5, 4) for _ in range(3))
    delta = np.array([[0, 1, 0], [-1, 0, 2], [0, 1, 0]])
    priors = DelayPriors(tau=delta * 8, rho=np.full((3, 3), 0.8),
                         delta_tok=delta, max_lag=16)
    for p in (1, 2, 3, 4):
        assert dala_core(q, k, v, priors, p)._parents == (q, k, v)
    log_a, B_bar, C, u = (leaf(2, 7, n) for n in (3, 3, 3, 4))
    d = DiscreteSSM(log_A_bar=log_a, B_bar=B_bar)
    for chunk in (1, 5, 16):
        y = ssd_blocked(d, C, u, chunk)
        assert y._parents == (log_a, B_bar, C, u)
    w, b, gate = leaf(4, 6), leaf(6), leaf(2, 5, 4)
    assert T.linear(x, w, b)._parents == (x, w, b)
    assert T.linear(x, w)._parents == (x, w)
    assert T.gated_linear(x, gate, w, b)._parents == (x, gate, w, b)
    w2, b2 = leaf(6, 3), leaf(3)
    assert T.ffn(x, w, b, w2, b2)._parents == (x, w, b, w2, b2)


def _value_and_grads(out, leaves, cot):
    """out's value and each leaf's gradient of sum(out * cot)."""
    for t in leaves:
        t.zero_grad()
    T.backward(T.tsum(T.mul(out, cot)))
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("alpha,beta", [(0.6, 0.4), (1.0, 0.0)])
def test_fused_norms_equal_their_op_chains_bit_for_bit(alpha, beta, rng):
    # the block's fusion alpha LN(y_time) + beta LN(y_var) and its Add &
    # Norm LN(U + FFN(U)) against the op chains they replace
    def leaf(*shape):
        return T.Tensor(rng.standard_normal(shape), requires_grad=True)

    x1, x2 = leaf(2, 5, 8), leaf(2, 5, 8)
    g1, b1, g2, b2, g3, b3 = (leaf(8) for _ in range(6))
    w1, c1, w2, c2 = leaf(8, 32), leaf(32), leaf(32, 8), leaf(8)
    cot = rng.standard_normal((2, 5, 8))
    leaves = [x1, g1, b1, x2, g2, b2, g3, b3, w1, c1, w2, c2]

    def chain():
        u = T.add(T.mul(T.layer_norm(x1, g1, b1), alpha),
                  T.mul(T.layer_norm(x2, g2, b2), beta))
        return T.layer_norm(T.add(u, T.ffn(u, w1, c1, w2, c2)), g3, b3)

    def fused():
        u = T.layer_norm_sum([(x1, g1, b1, alpha), (x2, g2, b2, beta)])
        return T.add_layer_norm(u, T.ffn(u, w1, c1, w2, c2), g3, b3)

    want = _value_and_grads(chain(), leaves, cot)
    got = _value_and_grads(fused(), leaves, cot)
    for i, (a, b) in enumerate(zip(want, got)):
        assert np.array_equal(a, b), i


def test_no_write_only_layer_norm_or_ffn_values_on_the_tape(rng):
    # `add` reads neither operand in its VJP and a `mul` by a constant reads
    # only the constant: a layer norm or FFN output that only such nodes
    # consume is held by the step for nothing. The blocks' outputs Z_b are
    # the exception: they are only summed, and traced one by one
    cfg = ModelConfig(lookback=32, horizon=8, d_model=16, d_state=3,
                      n_blocks=2)
    out = backbone_forward(rng.standard_normal((2, 3, cfg.lookback)),
                           ModelState.init(cfg), trace=True)
    nodes, stack = {}, [out.Z]
    while stack:
        n = stack.pop()
        if id(n) not in nodes:
            nodes[id(n)] = n
            stack.extend(n._parents)
    consumers = {}
    for n in nodes.values():
        for p in n._parents:
            consumers.setdefault(id(p), []).append(n)

    def op(n):
        return n._backward.__qualname__.split(".")[0] if n._backward else None

    def reads_nothing(n):
        return op(n) == "add" or (
            op(n) == "mul" and not all(p.requires_grad for p in n._parents))

    checked = [n for n in nodes.values() if op(n) in ("_layer_norms", "ffn")
               and not any(n is z for z in out.per_block)]
    assert sum(op(n) == "ffn" for n in checked) == cfg.n_blocks
    for n in checked:
        assert not all(map(reads_nothing, consumers[id(n)])), op(n)


def test_ffn_vjp_holds_at_most_three_hidden_arrays(rng):
    x, w1, b1, w2, b2 = (T.Tensor(rng.standard_normal(s), requires_grad=True)
                         for s in ((64, 10, 8), (8, 32), (32,), (32, 8), (8,)))
    out = T.ffn(x, w1, b1, w2, b2)
    g = rng.standard_normal(out.shape)
    hidden = 64 * 10 * 32 * 8                   # bytes of one [64, 10, 32]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grads) == 5
    # three hidden arrays and the small ones read 3.4; four read 4.0
    assert peak - start < 3.75 * hidden, (peak - start) / hidden


def _ffn_vjp_whole_arrays(g, x, w1, b1, w2, b2):
    """The FFN VJP on whole hidden-width arrays, computing x @ w1 + b1 twice
    (the chain the row-blocked VJP replaces)."""
    def pre():
        return T._gemm(x.data, w1.data, b1.data)

    u = pre()
    t = T._gelu_tanh(u)
    s = t + 1.0
    t *= t
    d2 = np.subtract(1.0, t, out=t)
    u *= 0.5
    d2 *= u
    u *= s
    _, gw2, gb2 = T._gemm_grads(g, u, w2, b2, False)
    d = pre()
    d *= d
    d *= 3 * 0.044715
    d += 1.0
    d *= T._GELU_C
    d2 *= d
    s *= 0.5
    s += d2
    s *= T._gemm(g, w2.data.T, None)
    return (*T._gemm_grads(s, x.data, w1, b1, True), gw2, gb2)


@pytest.mark.parametrize("x_shape,hidden", [
    ((30, 140, 16), 64),        # 4,200 rows of 64: blocks of 512 rows
    ((2, 5, 4), 16),            # 10 rows: blocks of 3
    ((4,), 5),                  # one row
])
def test_ffn_vjp_equals_whole_array_chain_bit_for_bit(x_shape, hidden, rng):
    n = x_shape[-1]
    x, w1, b1, w2, b2 = (T.Tensor(rng.standard_normal(s), requires_grad=True)
                         for s in (x_shape, (n, hidden), (hidden,),
                                   (hidden, 3), (3,)))
    out = T.ffn(x, w1, b1, w2, b2)
    g = rng.standard_normal(out.shape)
    got = out._backward(g)
    want = _ffn_vjp_whole_arrays(g, x, w1, b1, w2, b2)
    for i, (a, b) in enumerate(zip(want, got)):
        assert a.shape == b.shape and np.array_equal(a, b), i


def test_ffn_vjp_holds_two_hidden_arrays_over_many_blocks(rng):
    x, w1, b1, w2, b2 = (T.Tensor(rng.standard_normal(s), requires_grad=True)
                         for s in ((30, 140, 16), (16, 64), (64,), (64, 16),
                                   (16,)))
    assert len(T._row_blocks(30 * 140, 64)) > 4
    out = T.ffn(x, w1, b1, w2, b2)
    g = rng.standard_normal(out.shape)
    hidden = 30 * 140 * 64 * 8                  # bytes of one [30, 140, 64]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # u and d gelu / du, plus two block temporaries
    assert peak - start < 2.5 * hidden, (peak - start) / hidden


def _conv1d_padded(x, kernel, g):
    """The causal conv1d and its VJP on an input padded with K - 1 zeros."""
    K, L = kernel.shape[0], x.shape[-2]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(K - 1, 0), (0, 0)])
    out = xp[..., 0:L, :] * kernel[0]
    for k in range(1, K):
        out += xp[..., k:k + L, :] * kernel[k]
    gxp = np.zeros(x.shape[:-2] + (L + K - 1, x.shape[-1]))
    for k in range(K):
        gxp[..., k:k + L, :] += g * kernel[k]
    lead = tuple(range(g.ndim - 1))
    gk = np.stack([np.sum(g * xp[..., k:k + L, :], axis=lead)
                   for k in range(K)])
    return out, gxp[..., K - 1:, :], gk


@pytest.mark.parametrize("x_shape,K", [
    ((3, 2, 5), 4),             # L < K
    ((4, 1, 3), 3),             # L = 1
    ((2, 6, 3), 1),             # K = 1
    ((32, 7, 12, 64), 4),       # train-n7's SSD input
    ((7, 384, 512), 4),         # criterion 8's longest window
])
def test_conv1d_equals_padded_formula_bit_for_bit(x_shape, K, rng):
    x, kernel = rng.standard_normal(x_shape), rng.standard_normal(
        (K, x_shape[-1]))
    g = rng.standard_normal(x_shape)
    out = T.conv1d(T.Tensor(x, requires_grad=True),
                   T.Tensor(kernel, requires_grad=True))
    got = [out.data, *out._backward(g)]
    for i, (a, b) in enumerate(zip(_conv1d_padded(x, kernel, g), got)):
        assert a.shape == b.shape and np.array_equal(a, b), i


def test_conv1d_one_channel_kernel_gradient_within_rounding(rng):
    # with one channel numpy sums the kernel gradient pairwise along the
    # rows, so the zero rows the padded formula adds regroup that sum; with
    # two channels or more it adds row by row and the zeros change nothing
    x, kernel, g = (rng.standard_normal(s) for s in ((50, 40, 1), (4, 1),
                                                     (50, 40, 1)))
    out = T.conv1d(T.Tensor(x, requires_grad=True),
                   T.Tensor(kernel, requires_grad=True))
    got = [out.data, *out._backward(g)]
    want = _conv1d_padded(x, kernel, g)
    assert np.array_equal(want[0], got[0]) and np.array_equal(want[1], got[1])
    np.testing.assert_allclose(got[2], want[2], rtol=1e-13)


def test_conv1d_vjp_holds_no_padded_copy(rng):
    # 512 KB, so that a ufunc's 64 KB buffer weighs little
    x = T.Tensor(rng.standard_normal((8, 256, 32)), requires_grad=True)
    kernel = T.Tensor(rng.standard_normal((4, 32)), requires_grad=True)
    out = T.conv1d(x, kernel)
    g = rng.standard_normal(out.shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # gx and one product read 2.1; a padded gx and a padded x read 3.0
    assert peak - start < 2.5 * x.data.nbytes, (peak - start) / x.data.nbytes


def test_ffn_is_the_tanh_gelu_layer(rng):
    x, w1, b1, w2, b2 = (rng.standard_normal(s) for s in (
        (2, 5, 4), (4, 16), (16,), (16, 3), (3,)))
    h = x @ w1 + b1
    gelu = 0.5 * h * (1 + np.tanh(np.sqrt(2 / np.pi) * (h + 0.044715 * h**3)))
    out = T.ffn(*map(T.Tensor, (x, w1, b1, w2, b2))).data
    np.testing.assert_allclose(out, gelu @ w2 + b2, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("x_shape,w2_shape,b2_shape", [
    ((), (16, 3), (3,)),                # a 0-d input has no feature axis
    ((2, 4), (8, 3), (3,)),             # w2 does not take w1's columns
    ((2, 4), (16, 3), (2,)),            # b2 does not match w2
])
def test_ffn_shape_errors(x_shape, w2_shape, b2_shape):
    with pytest.raises(DimensionError, match="ffn"):
        T.ffn(*(T.Tensor(np.ones(s)) for s in (
            x_shape, (4, 16), (16,), w2_shape, b2_shape)))


def test_linear_skips_gradients_nobody_needs(rng):
    # a constant input (the patches) gets no gradient, and a frozen
    # weight or gate none either; the others still get theirs
    x = T.Tensor(rng.standard_normal((2, 3, 4)))
    w = T.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    b = T.Tensor(np.zeros(5))
    grads = T.linear(x, w, b)._backward(np.ones((2, 3, 5)))
    assert grads[0] is None and grads[2] is None and grads[1].shape == (4, 5)
    y = T.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    gate = T.Tensor(rng.standard_normal((2, 3, 4)))
    grads = T.gated_linear(y, gate, T.Tensor(w.data), b)._backward(
        np.ones((2, 3, 5)))
    assert grads[0].shape == (2, 3, 4)
    assert all(g is None for g in grads[1:])
