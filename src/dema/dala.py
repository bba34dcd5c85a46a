"""Variate path: delay-aware causal linear attention with rotary encoding.

A query token (a, l) attends to key tokens (b, j) of every variate whose
shifted position j + delta_ab does not exceed l. Keys are rotated at their
effective position j + delta_ab and queries at l, so attention scores
depend only on the effective relative delay.

Tokens are per-variate streams [..., N, L, D], the layout the temporal
path uses too. :func:`dala_core` works on them directly; only the public
:func:`dala_attention` and the oracle take [..., L, N, Du], and
:func:`dala_attention` is the one place that swaps.

The production path loops over the distinct token shifts of the active
pairs (rho > 0 and |delta| < L), not over the pairs. For each shift it
gathers the shift's (query, key) variate pairs onto a leading pair axis,
shifts their key and value streams, rotates the keys at their effective
positions, runs one chunked prefix-sum attention over all of them, and
adds the pair outputs and key prefix sums (for the denominators) into
their query variates with one rho-weighted matmul each. No (N*L) x (N*L)
matrix is formed. A literal double-sum transcription is kept as the test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .delay import DelayPriors
from .errors import ConfigError, ContractError

_PHI_TINY = 1e-30
ATTN_EPS = 1e-6


@dataclass
class RotaryTable:
    """Per-dimension-pair angular frequencies (geometric schedule)."""

    dim: int
    base: float = 10000.0
    theta: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim % 2:
            raise ConfigError("rotary dimension must be even")
        half = self.dim // 2
        self.theta = self.base ** (-np.arange(half) * 2.0 / self.dim)

    def cos_sin(self, pos):
        ang = np.asarray(pos, dtype=np.float64)[..., None] * self.theta
        return np.cos(ang), np.sin(ang)


def _rope_apply(arr, cos, sin):
    e = arr[..., 0::2]
    o = arr[..., 1::2]
    out = np.empty_like(arr)
    out[..., 0::2] = e * cos - o * sin
    out[..., 1::2] = e * sin + o * cos
    return out


def rope_rotate(x, pos, table: RotaryTable):
    """Rotate feature pairs of x by pos * theta_i.

    `x` is [..., D] with D even; `pos` is an int or an array broadcasting
    against the token axes. Norm-preserving; position 0 is the identity.
    """
    x = T._wrap(x)
    if x.shape[-1] != table.dim:
        raise ConfigError(
            f"rotary table dim {table.dim} does not match input {x.shape[-1]}")
    cos, sin = table.cos_sin(pos)

    def bwd(g):
        return (_rope_apply(g, cos, -sin),)

    return T._make(_rope_apply(x.data, cos, sin), (x,), bwd)


def kernel_phi(x, p: int = 3):
    """Nonnegative feature map: f(ReLU(x)) with f(r) = (|r|/|r^p|) r^p.

    Norms are over the last axis. The output norm equals |ReLU(x)| and a
    zero input maps to zero.
    """
    if p < 1:
        raise ConfigError("kernel power must be >= 1")
    x = T._wrap(x)
    r = T.relu(x)
    if p == 1:
        return r
    rp = T.power(r, p)
    n1 = T.tsqrt(T.add(T.tsum(T.mul(r, r), axis=-1, keepdims=True), _PHI_TINY))
    n2 = T.tsqrt(T.add(T.tsum(T.mul(rp, rp), axis=-1, keepdims=True), _PHI_TINY))
    return T.mul(rp, T.div(n1, n2))


def causal_linear_attention(q, k, v, chunk: int = 64):
    """out[l] = q_l^T * sum_{j <= l} k_j v_j^T, via chunked prefix sums.

    q, k: [..., L, Dk]; v: [..., L, Dv]. The token axis is cut into
    ceil(L / chunk) chunks of equal length (at most `chunk`).
    """
    q, k, v = T._wrap(q), T._wrap(k), T._wrap(v)
    L = q.shape[-2]
    Dk, Dv = k.shape[-1], v.shape[-1]
    nb = -(-L // min(chunk, L))
    c = -(-L // nb)
    pad = nb * c - L
    if pad:
        q = T.pad_last2(q, -2, pad)
        k = T.pad_last2(k, -2, pad)
        v = T.pad_last2(v, -2, pad)
    qb = T.reshape(q, q.shape[:-2] + (nb, c, Dk))
    kb = T.reshape(k, k.shape[:-2] + (nb, c, Dk))
    vb = T.reshape(v, v.shape[:-2] + (nb, c, Dv))
    mask = np.tril(np.ones((c, c)))
    intra = T.matmul(T.mul(T.matmul(qb, T.swapaxes(kb, -1, -2)), mask), vb)
    # Every chunk reads the state of the chunks before it (zero for the
    # first) and adds its own k^T v, the last one too. The two products per
    # chunk keep the state work exactly linear in the chunk count, which
    # criterion 8 (time per doubling of the window) needs; see CHANGES.md.
    state = T.Tensor(np.zeros((Dk, Dv)))  # broadcasts over the leading axes
    inter = []
    for i in range(nb):
        blk = (Ellipsis, i, slice(None), slice(None))
        o = T.matmul(T.getitem(qb, blk), state)
        inter.append(T.reshape(o, o.shape[:-2] + (1, c, Dv)))
        state = T.add(state, T.matmul(
            T.swapaxes(T.getitem(kb, blk), -1, -2), T.getitem(vb, blk)))
    out = T.add(intra, T.concat(inter, axis=-3) if nb > 1 else inter[0])
    out = T.reshape(out, out.shape[:-3] + (nb * c, Dv))
    if pad:
        out = T.getitem(out, (Ellipsis, slice(0, L), slice(None)))
    return out


@dataclass
class DalaInputs:
    """Inputs of :func:`dala_attention` and the oracle, [..., L, N, Du]."""

    q: T.Tensor  # [..., L, N, Du]
    k: T.Tensor
    v: T.Tensor
    priors: DelayPriors
    p: int = 3


def _pair_stream(x: T.Tensor, idx: np.ndarray, d: int) -> T.Tensor:
    """Variates `idx` of x [..., N, L, D] on a pair axis, token-shifted.

    Entry l of pair p holds x[..., idx[p], l - d, :], zero where l - d is
    out of range. One tape node; its backward sums repeated variates with a
    one-hot matmul.
    """
    L = x.shape[-2]
    lo, hi = max(0, d), min(L, L + d)
    data = np.zeros(x.shape[:-3] + (len(idx),) + x.shape[-2:])
    data[..., lo:hi, :] = x.data[..., idx, lo - d:hi - d, :]
    onehot_t = np.eye(x.shape[-3])[:, idx]          # [N, P]

    def bwd(g):
        body = g[..., lo:hi, :]
        flat = body.reshape(body.shape[:-2] + (-1,))
        gx = np.zeros(x.shape)
        gx[..., lo - d:hi - d, :] = (onehot_t @ flat).reshape(
            x.shape[:-2] + (hi - lo, x.shape[-1]))
        return (gx,)

    return T._make(data, (x,), bwd)


def _mix_variates(w: np.ndarray, x: T.Tensor) -> T.Tensor:
    """out[..., i, :, :] = sum_n w[i, n] x[..., n, :, :] for a constant w.

    One tape node for the product over the variate axis (-3).
    """
    def apply(m, arr):
        flat = arr.reshape(arr.shape[:-3] + (arr.shape[-3], -1))
        return (m @ flat).reshape(arr.shape[:-3] + (m.shape[0],) + x.shape[-2:])

    return T._make(apply(w, x.data), (x,), lambda g: (apply(w.T, g),))


def dala_core(q, k, v, priors: DelayPriors, p: int = 3,
              table: RotaryTable | None = None, eps: float = ATTN_EPS,
              rotated_denominator: bool = False, chunk: int = 64) -> T.Tensor:
    """Delay-aware causal linear attention on token streams [..., N, L, Du]."""
    q, k, v = T._wrap(q), T._wrap(k), T._wrap(v)
    N, L, Du = q.shape[-3], q.shape[-2], q.shape[-1]
    if priors.n_variates != N:
        raise ContractError(
            f"priors are {priors.n_variates}x{priors.n_variates} "
            f"but the tokens have {N} variates")
    rho = priors.rho_weights()
    delta = np.asarray(priors.delta_tok)
    active = (rho > 0) & (np.abs(delta) < L)
    if not active.any():
        # no pair contributes anywhere: every token falls back to itself
        return v
    if table is None:
        table = RotaryTable(dim=Du)
    positions = np.arange(L)
    phi_q = kernel_phi(q, p)
    phi_k = kernel_phi(k, p)
    q_rot = rope_rotate(phi_q, positions, table)

    # per shift: the shift's pairs on a leading pair axis, key and value
    # streams shifted so entry l holds token l - d, keys rotated at l
    outs, cums, a_all, w_all = [], [], [], []
    for d in np.unique(delta[active]):
        a_idx, b_idx = np.nonzero(active & (delta == d))
        k_d = _pair_stream(phi_k, b_idx, int(d))
        k_rot = rope_rotate(k_d, positions, table)
        v_d = _pair_stream(v, b_idx, int(d))
        outs.append(causal_linear_attention(_pair_stream(q_rot, a_idx, 0),
                                            k_rot, v_d, chunk))
        cums.append(T.cumsum(k_rot if rotated_denominator else k_d, axis=-2))
        a_all.append(a_idx)
        w_all.append(rho[a_idx, b_idx])
    # add every pair into its query variate, weighted by rho
    a_all = np.concatenate(a_all)
    scatter = np.eye(N)[:, a_all] * np.concatenate(w_all)   # [N, pairs]
    num = _mix_variates(scatter, T.concat(outs, axis=-3))
    den_keys = _mix_variates(scatter, T.concat(cums, axis=-3))

    den_q = q_rot if rotated_denominator else phi_q
    den = T.tsum(T.mul(den_q, den_keys), axis=-1, keepdims=True)
    y = T.div(num, T.maximum(den, eps))
    # query (a, l) sees a key once l reaches the smallest max(0, delta_ab)
    first = np.where(active, np.maximum(delta, 0), L).min(axis=1)
    keep = (positions[None, :] >= first[:, None]).astype(np.float64)[..., None]
    if not keep.all():
        # tokens with no key in range fall back to their own value
        y = T.add(T.mul(y, keep), T.mul(v, 1.0 - keep))
    return y


def dala_attention(inp: DalaInputs, table: RotaryTable | None = None,
                   eps: float = ATTN_EPS, rotated_denominator: bool = False,
                   chunk: int = 64) -> T.Tensor:
    """:func:`dala_core` on q, k, v [..., L, N, Du], the oracle's layout."""
    q, k, v = (T.swapaxes(T._wrap(x), -3, -2) for x in (inp.q, inp.k, inp.v))
    y = dala_core(q, k, v, inp.priors, inp.p, table, eps,
                  rotated_denominator, chunk)
    return T.swapaxes(y, -3, -2)


def _phi_np(x: np.ndarray, p: int) -> np.ndarray:
    r = np.maximum(x, 0.0)
    if p == 1:
        return r
    rp = r ** p
    n1 = np.linalg.norm(r, axis=-1, keepdims=True)
    n2 = np.linalg.norm(rp, axis=-1, keepdims=True)
    scale = np.where(n2 > 0, n1 / np.where(n2 > 0, n2, 1.0), 0.0)
    return rp * scale


def naive_dala_oracle(inp: DalaInputs, table: RotaryTable | None = None,
                      eps: float = ATTN_EPS,
                      rotated_denominator: bool = False) -> np.ndarray:
    """Literal double-sum evaluation of the attention equation.

    Quadratic in N*L; small instances only. Unbatched inputs [L, N, Du].
    """
    q = inp.q.data if isinstance(inp.q, T.Tensor) else np.asarray(inp.q)
    k = inp.k.data if isinstance(inp.k, T.Tensor) else np.asarray(inp.k)
    v = inp.v.data if isinstance(inp.v, T.Tensor) else np.asarray(inp.v)
    L, N, Du = q.shape
    if table is None:
        table = RotaryTable(dim=Du)
    rho = inp.priors.rho_weights()
    delta = inp.priors.delta_tok

    def rot(vec, pos):
        cos, sin = table.cos_sin(pos)
        return _rope_apply(vec, cos, sin)

    y = np.zeros((L, N, Du))
    for a in range(N):
        for l in range(L):
            pq = _phi_np(q[l, a], inp.p)
            pq_rot = rot(pq, l)
            num = np.zeros(Du)
            den = 0.0
            n_keys = 0
            for b in range(N):
                w = rho[a, b]
                if w == 0.0:
                    continue
                d_ab = int(delta[a, b])
                for j in range(L):
                    if j + d_ab > l or j + d_ab < 0:
                        continue
                    n_keys += 1
                    pk = _phi_np(k[j, b], inp.p)
                    pk_eff = rot(pk, j + d_ab)
                    num += w * (pq_rot @ pk_eff) * v[j, b]
                    if rotated_denominator:
                        den += w * (pq_rot @ pk_eff)
                    else:
                        den += w * (pq @ pk)
            if n_keys == 0:
                y[l, a] = v[l, a]
            else:
                y[l, a] = num / max(den, eps)
    return y


@dataclass
class DalaParams:
    """Weights of one Mamba-DALA module."""

    w_content: T.Tensor  # [D, Du]
    b_content: T.Tensor
    w_gate: T.Tensor     # [D, Du]
    b_gate: T.Tensor
    w_q: T.Tensor        # [Du, Du]
    w_k: T.Tensor
    w_v: T.Tensor
    w_out: T.Tensor      # [Du, D]
    b_out: T.Tensor
    kernel_power: int = 3
    eps: float = ATTN_EPS
    rotated_denominator: bool = False
    chunk: int = 64

    @staticmethod
    def init(D: int, Du: int, rng: np.random.Generator, kernel_power: int = 3,
             rotated_denominator: bool = False, chunk: int = 64) -> "DalaParams":
        def lin(n_in, n_out):
            return T.Tensor(rng.normal(0, 1 / np.sqrt(n_in), (n_in, n_out)),
                            requires_grad=True)

        return DalaParams(
            w_content=lin(D, Du),
            b_content=T.Tensor(np.zeros(Du), requires_grad=True),
            w_gate=lin(D, Du),
            b_gate=T.Tensor(np.zeros(Du), requires_grad=True),
            w_q=lin(Du, Du), w_k=lin(Du, Du), w_v=lin(Du, Du),
            w_out=lin(Du, D),
            b_out=T.Tensor(np.zeros(D), requires_grad=True),
            kernel_power=kernel_power,
            rotated_denominator=rotated_denominator,
            chunk=chunk,
        )

    def parameters(self, prefix: str):
        names = ["w_content", "b_content", "w_gate", "b_gate",
                 "w_q", "w_k", "w_v", "w_out", "b_out"]
        return [(f"{prefix}.{n}", getattr(self, n)) for n in names]


def mamba_dala_forward(x: T.Tensor, priors: DelayPriors, params: DalaParams,
                       table: RotaryTable | None = None) -> T.Tensor:
    """Full variate-path module on tokens [..., N, L, D]."""
    content = T.add(T.matmul(x, params.w_content), params.b_content)
    gate = T.add(T.matmul(x, params.w_gate), params.b_gate)
    y = dala_core(T.matmul(content, params.w_q), T.matmul(content, params.w_k),
                  T.matmul(content, params.w_v), priors,
                  p=params.kernel_power, table=table, eps=params.eps,
                  rotated_denominator=params.rotated_denominator,
                  chunk=params.chunk)
    return T.add(T.matmul(T.mul(y, T.sigmoid(gate)), params.w_out), params.b_out)
