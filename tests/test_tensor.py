"""Tensor engine: arithmetic, FFT, and reverse-mode gradients."""

import tracemalloc

import numpy as np
import pytest

from dema import tensor as T
from dema.errors import ContractError, DimensionError
from dema.model import ModelConfig, ModelState, model_forward


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------

def test_matmul_identity():
    a = np.arange(9.0).reshape(3, 3)
    out = T.matmul(T.Tensor(np.eye(3)), T.Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_case():
    out = T.matmul(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), T.Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_vs_triple_loop(rng):
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    ref = np.zeros((5, 3))
    for i in range(5):
        for j in range(3):
            for k in range(7):
                ref[i, j] += a[i, k] * b[k, j]
    out = T.matmul(T.Tensor(a), T.Tensor(b)).data
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor([1.0, 2.0]), T.Tensor([[1.0], [2.0]]))
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))


def test_matmul_batched(rng):
    a = rng.standard_normal((4, 2, 5))
    b = rng.standard_normal((4, 5, 3))
    out = T.matmul(T.Tensor(a), T.Tensor(b)).data
    np.testing.assert_allclose(out, a @ b, atol=1e-14)


# ----------------------------------------------------------------------
# scalar nonlinearities
# ----------------------------------------------------------------------

def test_softplus_at_zero():
    assert abs(T.softplus(T.Tensor(0.0)).data - np.log(2.0)) <= 1e-12


def test_sigmoid_at_zero():
    assert T.sigmoid(T.Tensor(0.0)).data == 0.5


def test_layer_norm_constant_vector():
    out = T.layer_norm(T.Tensor(np.full(8, 3.0)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_rejects_bad_eps():
    with pytest.raises(ContractError):
        T.layer_norm(T.Tensor(np.ones(4)), eps=0.0)


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

    T.backward(T.tsum(T.sigmoid(T.matmul(W, T.Tensor(x)))))
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
    h = T.tanh(T.add(T.matmul(x, W), b))
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
    tracemalloc.start()
    try:
        diff = T.sub(model_forward(x, state), y)
        loss = T.tmean(T.mul(diff, diff))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        T.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # keeping every interior gradient until the graph is dropped reads
    # over 2x here
    assert peak < 1.5 * held, (peak, held)


def test_backward_requires_scalar():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(T.mul(x, 2.0))


def test_no_grad_skips_graph():
    x = T.Tensor(1.0, requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad and y._parents == ()


def test_getitem_grad_accumulates():
    x = T.Tensor(np.arange(4.0), requires_grad=True)
    y = T.add(T.getitem(x, 1), T.getitem(x, 1))
    T.backward(y)
    np.testing.assert_array_equal(x.grad, [0.0, 2.0, 0.0, 0.0])


def test_getitem_grad_repeated_array_index():
    # every repeat of an index must add its gradient
    x = T.Tensor(np.arange(4.0), requires_grad=True)
    T.backward(T.tsum(T.getitem(x, [0, 0, 1])))
    np.testing.assert_array_equal(x.grad, [2.0, 1.0, 0.0, 0.0])
    y = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(T.tsum(T.getitem(y, (Ellipsis, np.array([2, 2, 2])))))
    np.testing.assert_array_equal(y.grad, [[0, 0, 3], [0, 0, 3]])


def test_cumsum_forward_backward(rng):
    x = T.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    out = T.cumsum(x, axis=-1)
    np.testing.assert_allclose(out.data, np.cumsum(x.data, axis=-1))
    w = rng.standard_normal((3, 5))
    T.backward(T.tsum(T.mul(out, w)))
    ref = np.flip(np.cumsum(np.flip(w, -1), axis=-1), -1)
    np.testing.assert_allclose(x.grad, ref, atol=1e-12)


def test_conv1d_causal_never_looks_ahead(rng):
    x = rng.standard_normal((6, 3))
    kern = rng.standard_normal((4, 3))
    full = T.conv1d(T.Tensor(x), T.Tensor(kern), padding="causal").data
    for cut in range(6):
        trunc = x.copy()
        trunc[cut + 1:] = 0.0
        out = T.conv1d(T.Tensor(trunc), T.Tensor(kern), padding="causal").data
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


@pytest.mark.parametrize("op,shapes,kwargs", [
    (T.add, [(3, 4), (3, 4)], {}),
    (T.sub, [(3, 4), (4,)], {}),
    (T.mul, [(3, 4), (3, 4)], {}),
    (T.div, [(3, 4), (3, 4)], {}),
    (T.matmul, [(3, 4), (4, 2)], {}),
    (T.texp, [(3, 4)], {}),
    (T.sigmoid, [(3, 4)], {}),
    (T.softplus, [(3, 4)], {}),
    (T.tanh, [(3, 4)], {}),
    (T.gelu, [(3, 4)], {}),
    (T.tsum, [(3, 4)], {"axis": -1}),
    (T.tmean, [(3, 4)], {"axis": 0}),
    (T.cumsum, [(3, 4)], {"axis": -1}),
    (T.layer_norm, [(3, 4)], {}),
    (T.softmax, [(3, 4)], {}),
    (T.conv1d, [(5, 3), (2, 3)], {"padding": "causal"}),
])
def test_per_op_finite_difference(op, shapes, kwargs, rng):
    _finite_diff_check(op, shapes, rng, **kwargs)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_power_integer_matches_float_pow(p, rng):
    x = rng.standard_normal((3, 4))
    np.testing.assert_allclose(T.power(T.Tensor(x), p).data,
                               x ** float(p), rtol=1e-14, atol=0)
    _finite_diff_check(T.power, [(3, 4)], rng, p=p)


@pytest.mark.parametrize("p", [0.5, 2.5, 5.0])
def test_power_non_integer_and_large_finite_difference(p, rng):
    # positive inputs keep fractional powers real
    def positive_power(a, p):
        return T.power(T.add(T.mul(a, a), 0.5), p)

    _finite_diff_check(positive_power, [(3, 4)], rng, p=p)


def test_div_sqrt_log_positive_domain(rng):
    # ops with restricted domains, checked on shifted-positive inputs
    for op in (T.tlog, T.tsqrt):
        x = T.Tensor(rng.random((3, 3)) + 0.5, requires_grad=True)
        w = rng.standard_normal((3, 3))
        T.backward(T.tsum(T.mul(op(x), w)))
        h = 1e-6
        for i in range(9):
            xp = x.data.copy()
            xp.ravel()[i] += h
            xm = x.data.copy()
            xm.ravel()[i] -= h
            fd = (np.sum(op(T.Tensor(xp)).data * w)
                  - np.sum(op(T.Tensor(xm)).data * w)) / (2 * h)
            rel = abs(x.grad.ravel()[i] - fd) / max(abs(fd), 1e-6)
            assert rel <= 1e-4
