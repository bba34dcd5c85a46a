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
from .errors import NumericError


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
    chunk: int           # of the SSD's and DALA's schedules (`T._chunks`)

    @staticmethod
    def init(D: int, Du: int, Dh: int, rng: np.random.Generator,
             conv_size: int = 4, chunk: int = T.CHUNK) -> "SsdParams":
        # decay rates spread over [1, 16] keeps A_bar well inside (0, 1)
        a_log = np.log(np.linspace(1.0, 16.0, Dh))
        return SsdParams(
            w_content=T.dense(rng, D, Du), b_content=T.bias(Du),
            w_gate=T.dense(rng, D, Du), b_gate=T.bias(Du),
            conv_kernel=T.dense(rng, conv_size, Du),
            w_delta=T.dense(rng, Du, Dh), b_delta=T.bias(Dh),
            w_B=T.dense(rng, Du, Dh), b_B=T.bias(Dh),
            w_C=T.dense(rng, Du, Dh), b_C=T.bias(Dh),
            A_log=T.Tensor(a_log, requires_grad=True),
            w_out=T.dense(rng, Du, D), b_out=T.bias(D),
            chunk=chunk,
        )


def selective_params(u, params: SsdParams) -> SelectiveParams:
    """Token-dependent step sizes and in/out projections from content u."""
    u = T._wrap(u)
    delta = T.softplus(T.linear(u, params.w_delta, params.b_delta))
    B = T.linear(u, params.w_B, params.b_B)
    C = T.linear(u, params.w_C, params.b_C)
    return SelectiveParams(delta=delta, B=B, C=C, A_log=params.A_log)


def discretize(params: SelectiveParams) -> DiscreteSSM:
    """A_bar = exp(delta * A) with A = -exp(A_log); B_bar = (1 - A_bar) * B."""
    with np.errstate(over="ignore"):   # a diverging run overflows here first
        A = T.neg(T.texp(params.A_log))
    if not np.all(np.isfinite(A.data)):
        raise NumericError(f"discretize: exp(A_log) is not finite (A_log "
                           f"max {np.max(params.A_log.data):.4g})")
    log_A_bar = T.mul(params.delta, A)
    A_bar = T.texp(log_A_bar)
    B_bar = T.mul(T.sub(1.0, A_bar), params.B)
    return DiscreteSSM(A_bar=A_bar, B_bar=B_bar, log_A_bar=log_A_bar)


def ssm_scan_reference(d: DiscreteSSM, C, x) -> np.ndarray:
    """Step-by-step recurrence oracle (plain numpy, not differentiable).

    h_t = A_bar_t * h_{t-1} + outer(B_bar_t, x_t); y_t = C_t^T h_t.
    The hidden state starts at zero for every sequence.
    """
    A_bar, B_bar, C, x = (T._wrap(t).data for t in (d.A_bar, d.B_bar, C, x))
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


def _swap(a):
    return np.swapaxes(a, -1, -2)


def ssd_blocked(d: DiscreteSSM, C, x, chunk: int) -> T.Tensor:
    """Chunked semiseparable evaluation of the selective scan.

    Numerically equal to :func:`ssm_scan_reference` for any chunk size,
    split as DALA's (`T._chunks`: 24 tokens at chunk 16 run as 2 x 12).
    The segsum form of Mamba-2 (Dao & Gu, arXiv:2405.21060): per chunk,
    la = cumsum(log A_bar), the masked decays exp(la_j - la_i) (j >= i)
    give M = C B^T * decay and the intra-chunk output M x; the chunks
    before come in through one carried [Dh, Du] state. Chunk 0 starts from
    the zero initial state, so it reads none, and no state is built after
    the last chunk: nb chunks build and read nb - 1 states, and a single
    chunk runs no state product at all. One tape node, differentiable in
    log A_bar, B_bar, C and x; its VJP uses la, M and the states the
    chunks after the first read, and builds the decays from la again.
    The decays [..., nb, c, c, Dh] exist only in row blocks over the
    flattened [..., nb] axes (`T._row_blocks`), in which C B decay is summed
    and the VJP's einsums run, each element in its whole-array sum order.
    """
    # log-space decays: an underflowed A_bar would give log 0 = -inf and
    # -inf - -inf = NaN in the decays
    log_a = T.tlog(d.A_bar) if d.log_A_bar is None else T._wrap(d.log_A_bar)
    inputs = (log_a, T._wrap(d.B_bar), T._wrap(C), T._wrap(x))
    L = inputs[3].shape[-2]
    nb, c = T._chunks(L, chunk)
    lead = np.broadcast_shapes(*(t.shape[:-2] for t in inputs))
    mask = np.tril(np.ones((c, c)))[..., None]    # j >= i

    def blocks(a):
        # [..., L, n] -> [..., nb, c, n], zero rows past L (A_bar = 1 there)
        a = np.broadcast_to(a, lead + a.shape[-2:])
        if nb * c > L:
            a = np.pad(a, [(0, 0)] * len(lead) + [(0, nb * c - L), (0, 0)])
        return a.reshape(lead + (nb, c, a.shape[-1]))

    def unblocks(g, t):
        # gradient [..., nb, c, n] -> the shape of input t
        g = g.reshape(lead + (nb * c, g.shape[-1]))[..., :L, :]
        return T._unbroadcast(g, t.shape)

    la = np.cumsum(blocks(log_a.data), axis=-2)    # [..., nb, c, Dh]
    Bb, Cb, xb = (blocks(t.data) for t in inputs[1:])
    rows = T._row_blocks(la[..., 0, 0].size, c * c * la.shape[-1])

    def flat(a):
        # [..., nb, c, n] -> [rows, c, n]; a copy only for a broadcast input
        return a.reshape((-1,) + a.shape[-2:])

    def decays(r):
        # decay_jih = exp(la_j - la_i) on the triangle j >= i for the rows
        # r, in place; forward and VJP build it one row block at a time
        la_r = flat(la)[r]
        decay = la_r[:, :, None, :] - la_r[:, None, :, :]
        decay *= mask
        np.exp(decay, out=decay)
        decay *= mask
        return decay

    M = np.empty(lead + (nb, c, c))
    B2, C2, M2 = flat(Bb), flat(Cb), flat(M)
    for r in rows:
        CBd = C2[r, :, None, :] * B2[r, None, :, :]
        CBd *= decays(r)
        np.sum(CBd, axis=-1, out=M2[r])            # M_ji = sum_h C B decay
        del CBd                                    # before the next block's
    y = M @ xb
    H = None     # H[i]: the state chunk i + 1 reads
    if nb > 1:
        # the state after chunk i is e_i h + w_i^T x_i, with w the decays
        # to the chunk's end times B_bar; chunk i + 1 reads it. The state
        # work grows with nb - 1, which keeps criterion 8 (time per doubling
        # of the window) linear because its lengths, multiples of the
        # default chunk, give the SSD and DALA, which split alike, at least
        # 3 chunks (48 to 384 tokens: 2, 5, 11 and 23 states)
        ea = np.exp(la)
        U = _swap(np.exp(la[..., :-1, -1:, :] - la[..., :-1, :, :])
                  * Bb[..., :-1, :, :]) @ xb[..., :-1, :, :]
        H = np.empty(U.shape)                      # [..., nb - 1, Dh, Du]
        H[..., 0, :, :] = U[..., 0, :, :]
        for i in range(1, nb - 1):
            H[..., i, :, :] = (ea[..., i, -1, :, None] * H[..., i - 1, :, :]
                               + U[..., i, :, :])
        del U
        y[..., 1:, :, :] += (Cb[..., 1:, :, :] * ea[..., 1:, :, :]) @ H
    y = y.reshape(lead + (nb * c, y.shape[-1]))[..., :L, :]

    def bwd(g):
        Bb, Cb, xb = (blocks(t.data) for t in inputs[1:])
        gy = blocks(g)
        # intra-chunk: y = M x with M_ji = sum_h C_jh B_ih decay_jih
        gM = gy @ _swap(xb)
        gx = _swap(M) @ gy
        gC, gB = np.empty(Cb.shape), np.empty(Bb.shape)
        gM2, B2, C2, gC2, gB2 = map(flat, (gM, Bb, Cb, gC, gB))
        for r in rows:
            decay = decays(r)
            np.einsum("rji,rih,rjih->rjh", gM2[r], B2[r], decay, out=gC2[r])
            np.einsum("rji,rjh,rjih->rih", gM2[r], C2[r], decay, out=gB2[r])
            del decay
        if nb > 1:
            ea = np.exp(la)
            # the reads y += (C ea) H of chunks 1 to nb - 1
            gC[..., 1:, :, :] += (gy[..., 1:, :, :] @ _swap(H)) \
                * ea[..., 1:, :, :]
            gread = _swap(Cb[..., 1:, :, :] * ea[..., 1:, :, :]) \
                @ gy[..., 1:, :, :]
            # back through h' = e h + U, from the last state to the first:
            # gU[i] is the gradient of the state chunk i builds
            gU = np.empty(H.shape)
            gU[..., -1, :, :] = gread[..., -1, :, :]
            for i in reversed(range(nb - 2)):
                gU[..., i, :, :] = (gread[..., i, :, :]
                                    + ea[..., i + 1, -1, :, None]
                                    * gU[..., i + 1, :, :])
            del gread
            ew = np.exp(la[..., :-1, -1:, :] - la[..., :-1, :, :])
            gx[..., :-1, :, :] += (ew * Bb[..., :-1, :, :]) @ gU
            gBs = (xb[..., :-1, :, :] @ _swap(gU)) * ew
            gB[..., :-1, :, :] += gBs
        # d/d la: each term with C_j carries exp(la_j - ...), each with B_i
        # exp(... - la_i); the chunk's last la also scales the carried
        # state and the decays to the chunk's end
        gla = Cb * gC - Bb * gB
        if nb > 1:
            glast = np.sum(Bb[..., :-1, :, :] * gBs, axis=-2)
            glast[..., 1:, :] += (np.sum(gU[..., 1:, :, :] * H[..., :-1, :, :],
                                         axis=-1) * ea[..., 1:-1, -1, :])
            gla[..., :-1, -1, :] += glast
        glog = np.flip(np.cumsum(np.flip(gla, -2), axis=-2), -2)
        return tuple(unblocks(gt, t)
                     for gt, t in zip((glog, gB, gC, gx), inputs))

    return T._make(y, inputs, bwd)


def mamba_ssd_forward(x: T.Tensor, params: SsdParams) -> T.Tensor:
    """Full temporal-path module on tokens [..., N, L, D]."""
    content = T.linear(x, params.w_content, params.b_content)
    gate = T.linear(x, params.w_gate, params.b_gate)
    u = T.conv1d(content, params.conv_kernel)
    sel = selective_params(u, params)
    disc = discretize(sel)
    y = ssd_blocked(disc, sel.C, u, params.chunk)
    return T.gated_linear(y, gate, params.w_out, params.b_out)
