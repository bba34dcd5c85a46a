"""Dense-tensor substrate: numpy storage and reverse-mode autodiff.

Values live in float64 numpy arrays. Every differentiable op
records a closure that maps the output gradient to parent gradients; the
graph is only built while gradient tracking is enabled and at least one
operand requires a gradient, so inference runs at plain-numpy cost.

Gradient lifetime: `backward` hands each interior node's gradient to that
node's closure and keeps no reference itself, so the closure can free it
once read, and only leaves (tensors without a closure, such as parameters)
hold `.grad` after `backward`; they keep accumulating across calls until
`zero_grad`. The graph itself (`_parents`, the closures and the forward
values) stays until the loss is dropped.

The model's dense layers and composite ops are one node each, with a VJP
written by hand from their inputs and a few saved arrays, so the tape
keeps no chain of intermediates. Nor does it keep a layer norm or FFN
output for `add`s and `mul`s by a constant alone, whose VJPs read no
operand but the constant; the blocks' outputs, which are only summed, are
the exception. What each saves besides its inputs:

- `linear` (x @ w + b): nothing; its VJP is one 2-D GEMM per operand on
  the flattened rows and one row sum for the bias.
- `gated_linear` ((y * sigmoid(gate)) @ w + b): nothing; its VJP
  recomputes sigmoid(gate).
- `ffn` (gelu(x @ w1 + b1) @ w2 + b2): nothing of the hidden width; its
  VJP recomputes x @ w1 + b1 once and runs the GELU chain in row blocks
  (`_row_blocks`), so two arrays of the hidden width are live.
- `layer_norm`, the block's fusion `layer_norm_sum` (sum_i w_i
  layer_norm(x_i), constant w_i) and Add & Norm `add_layer_norm`
  (layer_norm(x + r)): the row means and standard deviations ([..., 1])
  of each layer norm; the VJPs recompute x + r and x_hat.
- the causal `conv1d`: nothing, and it pads nothing.
- `ssd.ssd_blocked`: the cumulative log-decays, the intra-chunk matrices
  and the states the chunks after the first read (none at one chunk);
  its VJP rebuilds the masked [..., c, c, Dh] decays a row block at a time.
- `dala.dala_core` (one node from q, k and v; it runs the kernel map and
  its VJP inside, so phi(k) is kept nowhere): phi(q) and the row norms
  of both maps, the rotated keys, numerator, denominator and mixed key
  sums, the running k^T v states and, per block, the band scores of real
  pairs only; its VJP rotates the queries of each block and state reader
  again and gathers v where it reads it.

VJPs read their inputs' `.data` when `backward` runs, not when the op is
recorded, so nothing may write into an input of a recorded op between
its forward and the backward: the gradients would silently be those of
the new values. Write a new array to `.data` instead (as `Adam` does,
after the backward).

Weights are the Tensor fields of dataclasses: :func:`dense` draws every
dense weight and :func:`parameters` names each by its field path, the
names that checkpoints store.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from .errors import ConfigError, ContractError, DimensionError, NumericError

_grad_enabled = True
CHUNK = 16      # tokens per chunk of the SSD's and DALA's schedules
LN_EPS = 1e-5   # added to each layer norm's row variance


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def dense(rng: np.random.Generator, n_in: int, n_out: int) -> Tensor:
    """A trainable [n_in, n_out] weight drawn from N(0, 1/n_in)."""
    return Tensor(rng.normal(0, 1 / np.sqrt(n_in), (n_in, n_out)),
                  requires_grad=True)


def bias(n: int) -> Tensor:
    """A trainable [n] vector of zeros."""
    return Tensor(np.zeros(n), requires_grad=True)


def parameters(params, prefix: str):
    """(prefix.field, Tensor) per Tensor field of a dataclass, in field
    order, recursing into dataclass fields and skipping settings."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            yield f"{prefix}.{f.name}", value
        elif dataclasses.is_dataclass(value):
            yield from parameters(value, f"{prefix}.{f.name}")


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn) -> Tensor:
    """Create an op output; record the graph only when it can matter."""
    req = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data)
    if req:
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _row_blocks(n, width):
    """Slices of n rows of `width` elements for a chain run a block at a
    time: a block holds at most 2^15 elements (256 KB; one row at least)
    and at most a quarter of the rows, so no temporary is a whole array."""
    step = max(1, min((1 << 15) // max(width, 1), -(-n // 4)))
    return [slice(i, i + step) for i in range(0, n, step)]


def _chunks(L, chunk):
    """(nb, c): the SSD's and DALA's split of L tokens into nb = ceil(L /
    min(chunk, L)) chunks of c = ceil(L / nb), padding fewer than nb rows."""
    if chunk < 1:
        raise ConfigError(f"chunk size must be >= 1, got {chunk}")
    nb = -(-L // min(chunk, L))
    return nb, -(-L // nb)


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def add(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(data, (a, b), bwd)


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data - b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(data, (a, b), bwd)


def neg(a):
    a = _wrap(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def bwd(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _make(data, (a, b), bwd)


def div(a, b):
    a, b = _wrap(a), _wrap(b)
    data = a.data / b.data

    def bwd(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _make(data, (a, b), bwd)


def _int_power(x, n):
    """x ** n for an integer n >= 0 by repeated multiplication.

    x ** 0 is the step 1[x > 0], so that on x = ReLU(y) these are the
    truncated powers y_+^n, whose derivative is n y_+^(n - 1) also at n = 1.
    """
    out = x if n else (x > 0) * 1.0
    for _ in range(n - 1):
        out = out * x
    return out


def _check_linear(name, x, w, b):
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise DimensionError(
            f"{name}: input {x.shape} does not match weight {w.shape} "
            "(need x [..., n] and w [n, m])")
    if b is not None and b.shape != w.shape[1:]:
        raise DimensionError(
            f"{name}: bias {b.shape} does not match weight {w.shape}")


def _gemm(x, w, b):
    """x [..., n] @ w [n, m] (+ b) as one 2-D product on the flattened rows."""
    out = x.reshape(-1, w.shape[0]) @ w
    if b is not None:
        out += b
    return out.reshape(x.shape[:-1] + w.shape[1:])


def _gemm_grads(g, x, w, b, want_x):
    """(gx, gw, gb) of `_gemm(x, w.data, b.data)`; None where not wanted.

    `x` is a plain array; the weight gradient is one x^T @ g product over
    all rows, not one product per leading index.
    """
    n, m = w.shape
    g2 = g.reshape(-1, m)
    gx = (g2 @ w.data.T).reshape(x.shape) if want_x else None
    gw = x.reshape(-1, n).T @ g2 if w.requires_grad else None
    gb = g2.sum(axis=0) if b is not None and b.requires_grad else None
    return gx, gw, gb


def linear(x, w, b=None):
    """Dense layer x @ w + b for x [..., n], w [n, m] and b [m]; one node."""
    x, w = _wrap(x), _wrap(w)
    b = None if b is None else _wrap(b)
    _check_linear("linear", x, w, b)

    def bwd(g):
        gx, gw, gb = _gemm_grads(g, x.data, w, b, x.requires_grad)
        return (gx, gw) if b is None else (gx, gw, gb)

    return _make(_gemm(x.data, w.data, None if b is None else b.data),
                 [t for t in (x, w, b) if t is not None], bwd)


def gated_linear(y, gate, w, b):
    """Gated output projection (y * sigmoid(gate)) @ w + b; one node.

    y and gate are [..., n], w [n, m] and b [m]. The VJP recomputes
    sigmoid(gate) and the gated input.
    """
    y, gate, w, b = _wrap(y), _wrap(gate), _wrap(w), _wrap(b)
    if y.shape != gate.shape:
        raise DimensionError(
            f"gated_linear: input {y.shape} and gate {gate.shape} differ")
    _check_linear("gated_linear", y, w, b)
    h = _sigmoid(gate.data, "gated_linear")
    h *= y.data

    def bwd(g):
        s = _sigmoid(gate.data, "gated_linear")
        gh, gw, gb = _gemm_grads(g, y.data * s, w, b,
                                 y.requires_grad or gate.requires_grad)
        gy = gh * s if y.requires_grad else None
        if gate.requires_grad:                  # gh y s (1 - s), in place
            gh *= y.data
            gh *= s
            gh *= np.subtract(1.0, s, out=s)
        return gy, gh if gate.requires_grad else None, gw, gb

    return _make(_gemm(h, w.data, b.data), (y, gate, w, b), bwd)


# ----------------------------------------------------------------------
# elementwise nonlinearities
# ----------------------------------------------------------------------

def texp(a):
    a = _wrap(a)
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,))


def tlog(a):
    a = _wrap(a)
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def _sigmoid(x, name):
    """Logistic of an array without overflow; non-finite input is an error."""
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{name}: non-finite input")
    s = np.abs(x, out=np.empty(np.shape(x)))   # 1 / (1 + exp(-|x|)) in s
    np.exp(np.negative(s, out=s), out=s)
    np.divide(1.0, np.add(s, 1.0, out=s), out=s)
    s -= 0.5         # exact for s in [0.5, 1]; 0.5 - (s - 0.5) is 1 - s
    return np.add(np.copysign(s, x, out=s), 0.5, out=s)


def softplus(a):
    a = _wrap(a)
    if not np.all(np.isfinite(a.data)):
        raise NumericError("softplus: non-finite input")
    data = np.logaddexp(0.0, a.data)

    def bwd(g):
        return (g / (1.0 + np.exp(-a.data)),)

    return _make(data, (a,), bwd)


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_tanh(x):
    """tanh(c (x + 0.044715 x^3)) in one buffer."""
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_and_grad(u, d):
    """gelu(u) over u and d gelu / du into d, in the forward's order:
    gelu(u) = 0.5 u (1 + t) with t = tanh(c (u + 0.044715 u^3)), and
    d gelu / du = 0.5 (1 + t) + 0.5 u (1 - t^2) c (1 + 3 * 0.044715 u^2)."""
    np.multiply(u, u, out=d)
    d *= 3 * 0.044715
    d += 1.0
    d *= _GELU_C                                # c (1 + 3 * 0.044715 u^2)
    t = _gelu_tanh(u)
    s = t + 1.0
    t *= t
    np.subtract(1.0, t, out=t)                  # 1 - t^2
    u *= 0.5
    t *= u
    t *= d
    u *= s                                      # gelu(u)
    s *= 0.5
    np.add(s, t, out=d)


def ffn(x, w1, b1, w2, b2):
    """Feed-forward layer gelu(x @ w1 + b1) @ w2 + b2, tanh GELU; one node.

    x is [..., n], w1 [n, h], w2 [h, m]. Nothing of width h is kept: the VJP
    recomputes x @ w1 + b1 once and runs the GELU chain in row blocks, so
    two arrays of width h are live."""
    x, w1, b1, w2, b2 = map(_wrap, (x, w1, b1, w2, b2))
    _check_linear("ffn", x, w1, b1)
    _check_linear("ffn", w1, w2, b2)            # w1's columns feed w2

    def bwd(g):
        u = _gemm(x.data, w1.data, b1.data)     # u = x @ w1 + b1
        d = np.empty(u.shape)
        u2, d2 = (a.reshape(-1, u.shape[-1]) for a in (u, d))
        for r in _row_blocks(*u2.shape):
            _gelu_and_grad(u2[r], d2[r])
        _, gw2, gb2 = _gemm_grads(g, u, w2, b2, False)
        del u, u2
        d *= _gemm(g, w2.data.T, None)          # times the gradient of gelu
        return (*_gemm_grads(d, x.data, w1, b1, x.requires_grad), gw2, gb2)

    u = _gemm(x.data, w1.data, b1.data)
    t = _gelu_tanh(u)
    t += 1.0
    u *= 0.5
    u *= t
    return _make(_gemm(u, w2.data, b2.data), (x, w1, b1, w2, b2), bwd)


# ----------------------------------------------------------------------
# reductions and structure
# ----------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = _wrap(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    a = _wrap(a)
    n = a.data.size if axis is None else a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape):
    a = _wrap(a)
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def swapaxes(a, ax1, ax2):
    a = _wrap(a)
    return _make(
        np.swapaxes(a.data, ax1, ax2), (a,), lambda g: (np.swapaxes(g, ax1, ax2),)
    )


# ----------------------------------------------------------------------
# composite ops
# ----------------------------------------------------------------------

def _layer_norms(name, terms):
    """sum_i w_i layer_norm(sum(xs_i), gamma_i, beta_i) over the terms
    (xs_i, gamma_i, beta_i, w_i), with optional gamma and beta and constant
    w_i; one node. It saves the row means and standard deviations; the VJP
    recomputes sum(xs_i) and x_hat, and gives all of xs_i one gradient
    array."""
    terms = [([_wrap(x) for x in xs], *(None if t is None else _wrap(t)
                                        for t in (gamma, beta)), float(w))
             for xs, gamma, beta, w in terms]
    out, stats = None, []
    for xs, gamma, beta, w in terms:
        x = sum((t.data for t in xs[1:]), xs[0].data)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"{name}: non-finite input")
        n = x.shape[-1]
        mu = x.sum(axis=-1, keepdims=True) * (1.0 / n)
        y = x - mu
        sd = np.sqrt((y * y).sum(axis=-1, keepdims=True) * (1.0 / n) + LN_EPS)
        y /= sd                                 # x_hat
        if gamma is not None:
            y *= gamma.data
        if beta is not None:
            y += beta.data
        if w != 1.0:
            y *= w
        out = y if out is None else np.add(out, y, out=out)
        stats.append((mu, sd))

    def bwd(g):
        grads = []
        for (xs, gamma, beta, w), (mu, sd) in zip(terms, stats):
            xhat = sum((t.data for t in xs[1:]), xs[0].data) - mu
            xhat /= sd
            gw = g if w == 1.0 else g * w
            gh = gw if gamma is None else gw * gamma.data
            gx = (1.0 / sd) * (gh - gh.mean(axis=-1, keepdims=True)
                               - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
            grads += [gx] * len(xs)
            if gamma is not None:
                grads.append(_unbroadcast(np.multiply(gw, xhat, out=xhat),
                                          gamma.shape)
                             if gamma.requires_grad else None)
            if beta is not None:
                grads.append(_unbroadcast(gw, beta.shape)
                             if beta.requires_grad else None)
        return tuple(grads)

    return _make(out, [t for xs, gamma, beta, _ in terms
                       for t in (*xs, gamma, beta) if t is not None], bwd)


def layer_norm(x, gamma=None, beta=None):
    """Normalize over the last axis; optional affine parameters."""
    return _layer_norms("layer_norm", [([x], gamma, beta, 1.0)])


def layer_norm_sum(terms):
    """sum_i w_i layer_norm(x_i, gamma_i, beta_i) over the terms
    (x_i, gamma_i, beta_i, w_i), each w_i a constant; one node."""
    return _layer_norms("layer_norm_sum", [([x], gamma, beta, w)
                                           for x, gamma, beta, w in terms])


def add_layer_norm(x, r, gamma=None, beta=None):
    """Add & Norm: layer_norm(x + r, gamma, beta); one node."""
    return _layer_norms("add_layer_norm", [([x, r], gamma, beta, 1.0)])


def conv1d(x, kernel):
    """Causal depthwise 1-D convolution along the second-to-last axis.

    x: [..., L, C]; kernel: [K, C]. Position l sees positions l - K + 1 to
    l, with zeros before position 0, so it never sees positions > l. Tap k
    adds x shifted down by s = K - 1 - k rows, in the order of k; nothing
    is padded, in the forward or the VJP.
    """
    x = _wrap(x)
    kernel = _wrap(kernel)
    if not np.all(np.isfinite(x.data)):
        raise NumericError("conv1d: non-finite input")
    K = kernel.shape[0]
    L = x.shape[-2]
    taps = [(k, K - 1 - k) for k in range(K) if K - 1 - k < L]
    out = np.zeros(np.broadcast_shapes(x.shape, kernel.shape[1:]))
    for k, s in taps:
        out[..., s:, :] += x.data[..., :L - s, :] * kernel.data[k]

    def bwd(g):
        gx = gk = None
        if x.requires_grad:
            gx = np.zeros(x.shape)
            for k, s in taps:
                gx[..., :L - s, :] += g[..., s:, :] * kernel.data[k]
        if kernel.requires_grad:
            lead = tuple(range(g.ndim - 1))
            gk = np.zeros(kernel.shape)
            for k, s in taps:
                gk[k] = np.sum(g[..., s:, :] * x.data[..., :L - s, :],
                               axis=lead)
        return gx, gk

    return _make(out, (x, kernel), bwd)


def softmax(x, axis=-1):
    x = _wrap(x)
    shifted = sub(x, x.data.max(axis=axis, keepdims=True))
    e = texp(shifted)
    return div(e, tsum(e, axis=axis, keepdims=True))


# ----------------------------------------------------------------------
# reverse-mode driver
# ----------------------------------------------------------------------

def backward(loss: Tensor):
    """Accumulate gradients of a scalar loss into every reachable leaf.

    Interior gradients are released once used; see the module docstring.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ContractError("backward expects a scalar loss")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        for p, g in zip(node._parents, node._backward(_pop_grad(node))):
            if not p.requires_grad or g is None:
                continue
            # g may alias another operand's gradient or be a view of the
            # node's, so it is stored as is and only ever added out of place
            p.grad = g if p.grad is None else p.grad + g
        g = None        # the next closure gets its gradient's only reference


def _pop_grad(node):
    g, node.grad = node.grad, None
    return g
