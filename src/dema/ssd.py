"""Temporal path: selective SSM with a chunked semiseparable (SSD) scan.

Tokens are [..., N, L, D]: each variate is scanned independently along
its token axis, so the variate axis is one more batch axis. The blocked
scan computes the same lower-triangular semiseparable product as the
step-by-step recurrence, using intra-chunk matmuls plus an inter-chunk
state carry, and is what the model uses; the recurrence is kept as the
reference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError


@dataclass
class SelectiveParams:
    delta: T.Tensor  # [..., L, Dh], positive
    B: T.Tensor      # [..., L, Dh]
    C: T.Tensor      # [..., L, Dh]
    A_log: T.Tensor  # [Dh]; transition A = -exp(A_log)


@dataclass
class DiscreteSSM:
    A_bar: T.Tensor  # [..., L, Dh] in [0, 1)
    B_bar: T.Tensor  # [..., L, Dh]
    # log(A_bar) = delta * A, finite where A_bar underflows to 0; taken
    # as log(A_bar) when not given
    log_A_bar: T.Tensor | None = None


@dataclass
class SsdParams:
    """Weights of one Mamba-SSD module (model dim D, inner Du, state Dh)."""

    w_content: T.Tensor  # [D, Du]
    b_content: T.Tensor  # [Du]
    w_gate: T.Tensor     # [D, Du]
    b_gate: T.Tensor     # [Du]
    conv_kernel: T.Tensor  # [K, Du], depthwise causal
    w_delta: T.Tensor    # [Du, Dh]
    b_delta: T.Tensor    # [Dh]
    w_B: T.Tensor        # [Du, Dh]
    b_B: T.Tensor        # [Dh]
    w_C: T.Tensor        # [Du, Dh]
    b_C: T.Tensor        # [Dh]
    A_log: T.Tensor      # [Dh]
    w_out: T.Tensor      # [Du, D]
    b_out: T.Tensor      # [D]
    chunk: int = 16

    @staticmethod
    def init(D: int, Du: int, Dh: int, rng: np.random.Generator,
             conv_size: int = 4, chunk: int = 16) -> "SsdParams":
        def lin(n_in, n_out):
            return T.Tensor(rng.normal(0, 1 / np.sqrt(n_in), (n_in, n_out)),
                            requires_grad=True)

        def vec(n):
            return T.Tensor(np.zeros(n), requires_grad=True)

        # decay rates spread over [1, 16] keeps A_bar well inside (0, 1)
        a_log = np.log(np.linspace(1.0, 16.0, Dh))
        return SsdParams(
            w_content=lin(D, Du), b_content=vec(Du),
            w_gate=lin(D, Du), b_gate=vec(Du),
            conv_kernel=T.Tensor(
                rng.normal(0, 1 / np.sqrt(conv_size), (conv_size, Du)),
                requires_grad=True),
            w_delta=lin(Du, Dh), b_delta=vec(Dh),
            w_B=lin(Du, Dh), b_B=vec(Dh),
            w_C=lin(Du, Dh), b_C=vec(Dh),
            A_log=T.Tensor(a_log, requires_grad=True),
            w_out=lin(Du, D), b_out=vec(D),
            chunk=chunk,
        )

    def parameters(self, prefix: str):
        names = ["w_content", "b_content", "w_gate", "b_gate", "conv_kernel",
                 "w_delta", "b_delta", "w_B", "b_B", "w_C", "b_C", "A_log",
                 "w_out", "b_out"]
        return [(f"{prefix}.{n}", getattr(self, n)) for n in names]


def selective_params(u, params: SsdParams) -> SelectiveParams:
    """Token-dependent step sizes and in/out projections from content u."""
    u = T._wrap(u)
    delta = T.softplus(T.add(T.matmul(u, params.w_delta), params.b_delta))
    B = T.add(T.matmul(u, params.w_B), params.b_B)
    C = T.add(T.matmul(u, params.w_C), params.b_C)
    return SelectiveParams(delta=delta, B=B, C=C, A_log=params.A_log)


def discretize(params: SelectiveParams) -> DiscreteSSM:
    """A_bar = exp(delta * A) with A = -exp(A_log); B_bar = (1 - A_bar) * B."""
    A = T.neg(T.texp(params.A_log))
    log_A_bar = T.mul(params.delta, A)
    A_bar = T.texp(log_A_bar)
    B_bar = T.mul(T.sub(1.0, A_bar), params.B)
    return DiscreteSSM(A_bar=A_bar, B_bar=B_bar, log_A_bar=log_A_bar)


def ssm_scan_reference(d: DiscreteSSM, C, x) -> np.ndarray:
    """Step-by-step recurrence oracle (plain numpy, not differentiable).

    h_t = A_bar_t * h_{t-1} + outer(B_bar_t, x_t); y_t = C_t^T h_t.
    The hidden state starts at zero for every sequence.
    """
    A_bar = d.A_bar.data if isinstance(d.A_bar, T.Tensor) else np.asarray(d.A_bar)
    B_bar = d.B_bar.data if isinstance(d.B_bar, T.Tensor) else np.asarray(d.B_bar)
    C = C.data if isinstance(C, T.Tensor) else np.asarray(C)
    x = x.data if isinstance(x, T.Tensor) else np.asarray(x)
    L = x.shape[-2]
    Dh = A_bar.shape[-1]
    Du = x.shape[-1]
    lead = np.broadcast_shapes(A_bar.shape[:-2], x.shape[:-2])
    h = np.zeros(lead + (Dh, Du))
    y = np.zeros(lead + (L, Du))
    for t in range(L):
        h = A_bar[..., t, :, None] * h + B_bar[..., t, :, None] * x[..., t, None, :]
        y[..., t, :] = np.einsum("...s,...sd->...d", C[..., t, :], h)
    return y


def _blocks(t: T.Tensor, nb: int, c: int) -> T.Tensor:
    shape = t.shape[:-2] + (nb, c, t.shape[-1])
    return T.reshape(t, shape)


def ssd_blocked(d: DiscreteSSM, C, x, chunk: int) -> T.Tensor:
    """Chunked semiseparable evaluation of the selective scan.

    Numerically equal to :func:`ssm_scan_reference` for any chunk size.
    Differentiable end to end.
    """
    if chunk <= 0:
        raise ConfigError("chunk size must be positive")
    # log-space decays (Mamba-2's segsum): an underflowed A_bar would
    # give log 0 = -inf and -inf - -inf = NaN in `seg`
    log_a = T.tlog(d.A_bar) if d.log_A_bar is None else T._wrap(d.log_A_bar)
    B_bar = T._wrap(d.B_bar)
    C, x = T._wrap(C), T._wrap(x)
    L = x.shape[-2]
    Dh = log_a.shape[-1]
    Du = x.shape[-1]
    c = min(chunk, L)
    pad = (-L) % c
    if pad:
        log_a = T.pad_last2(log_a, -2, pad)  # A_bar = 1 on padding
        B_bar = T.pad_last2(B_bar, -2, pad)
        C = T.pad_last2(C, -2, pad)
        x = T.pad_last2(x, -2, pad)
    Lp = L + pad
    nb = Lp // c

    la = T.cumsum(_blocks(log_a, nb, c), axis=-2)  # [..., nb, c, Dh]
    la_j = T.reshape(la, la.shape[:-2] + (c, 1, Dh))
    la_i = T.reshape(la, la.shape[:-2] + (1, c, Dh))
    seg = T.sub(la_j, la_i)                       # la[j] - la[i]
    mask = np.tril(np.ones((c, c)))[..., None]    # j >= i
    decay = T.mul(T.texp(T.mul(seg, mask)), mask)  # A_{j:i} on the triangle

    Cb = _blocks(C, nb, c)
    Bb = _blocks(B_bar, nb, c)
    xb = _blocks(x, nb, c)
    Cj = T.reshape(Cb, Cb.shape[:-2] + (c, 1, Dh))
    Bi = T.reshape(Bb, Bb.shape[:-2] + (1, c, Dh))
    M = T.tsum(T.mul(T.mul(Cj, Bi), decay), axis=-1)  # [..., nb, c, c]
    y_intra = T.matmul(M, xb)

    lead = np.broadcast_shapes(log_a.shape[:-2], x.shape[:-2])
    h = T.Tensor(np.zeros(lead + (Dh, Du)))
    inter = []
    for i in range(nb):
        blk = (Ellipsis, i, slice(None), slice(None))
        la_b = T.getitem(la, blk)   # [..., c, Dh]
        C_b = T.getitem(Cb, blk)
        B_b = T.getitem(Bb, blk)
        x_b = T.getitem(xb, blk)
        ea = T.texp(la_b)
        inter.append(T.matmul(T.mul(C_b, ea), h))  # [..., c, Du]
        la_last = T.getitem(la_b, (Ellipsis, slice(c - 1, c), slice(None)))
        w = T.mul(T.texp(T.sub(la_last, la_b)), B_b)       # [..., c, Dh]
        h = T.add(T.mul(T.swapaxes(T.texp(la_last), -1, -2), h),
                  T.matmul(T.swapaxes(w, -1, -2), x_b))
    y_inter = T.concat(
        [T.reshape(t, t.shape[:-2] + (1, c, Du)) for t in inter], axis=-3)
    y = T.add(y_intra, y_inter)
    y = T.reshape(y, y.shape[:-3] + (Lp, Du))
    if pad:
        y = T.getitem(y, (Ellipsis, slice(0, L), slice(None)))
    return y


def mamba_ssd_forward(x: T.Tensor, params: SsdParams) -> T.Tensor:
    """Full temporal-path module on tokens [..., N, L, D]."""
    content = T.add(T.matmul(x, params.w_content), params.b_content)
    gate = T.add(T.matmul(x, params.w_gate), params.b_gate)
    u = T.conv1d(content, params.conv_kernel, padding="causal")
    sel = selective_params(u, params)
    disc = discretize(sel)
    y = ssd_blocked(disc, sel.C, u, params.chunk)
    return T.add(T.matmul(T.mul(y, T.sigmoid(gate)), params.w_out), params.b_out)
