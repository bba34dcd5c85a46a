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

* its band is key chunk I alone. The shift's query variates with the
  same key set form a block, a complete biclique: one product of real
  pairs only, masked by the weights rho_ab and the causal band j <= m
  (block-sparse attention as in Child et al., arXiv:1904.10509, with the
  blocks read off the priors). Rows outside [0, L) are cut off, and the
  variates are ordered so that a block's variates tend to be runs;
* the keys of the chunks before I come in through one running k^T v
  state per key variate, shared by all shifts; each key variate's state
  meets the queries that read it in one product, weighted by rho. As in
  the SSD, chunk 0 reads no state and none is built after the last chunk;
* a negative shift never shows its first -d keys: they are cut from
  the band and taken out of the state read by a product with those keys;
* the denominators of all shifts are one contraction of the queries with
  rho-mixed running key sums.

Priors are shared ([N, N]) or one set per window ([..., N, N]). A batch
of windows plans the union of its windows' shifts, and each shift's
weights and band masks carry the batch axis, zero where a window has no
pair at that shift.

The kernel maps and the whole attention are one tape node from q, k and
v, so phi(k) is never kept: the node keeps phi(q) and the rotated keys.
Its VJP retraces this schedule backwards block by block, each block's
query rows gathered and rotated alone, and runs the kernel map's VJP in
place. No (N*L) x (N*L) matrix, no per-pair stream and no per-pair state
is formed. A literal double-sum transcription is kept as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .delay import DelayPriors
from .errors import ConfigError, ContractError

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

    def rotation(self, pos):
        """exp(i pos theta): one unit complex number per dimension pair."""
        ang = np.asarray(pos, dtype=np.float64)[..., None] * self.theta
        return np.cos(ang) + 1j * np.sin(ang)


def _rope_apply(arr, rot):
    """Rotate each feature pair (x_2i, x_2i+1) of arr by the unit complex
    rot[..., i]: one complex product on the pairs viewed as numbers."""
    return (np.ascontiguousarray(arr).view(np.complex128) * rot).view(
        np.float64)


def _phi(x, p):
    """kernel_phi's map of an array, with the row norms its VJP reads."""
    if p < 1 or p != int(p):
        raise ConfigError(f"kernel power must be an integer >= 1, got {p}")
    r = np.maximum(x, 0.0)               # NaN stays NaN, never a silent 0
    rp = T._int_power(r, p - 1) * r
    n1 = np.sqrt(np.sum(r * r, axis=-1, keepdims=True))
    n2 = np.sqrt(np.sum(rp * rp, axis=-1, keepdims=True))
    # rows with |r^p| = 0 take n1 = 1 and n2 = inf, so that their scale
    # n1 / n2 and every term of the VJP are 0; a NaN row fails n2 == 0
    zero = n2 == 0
    n1 = np.where(zero, 1.0, n1)
    n2 = np.where(zero, np.inf, n2)
    rp *= n1 / n2
    return rp, (n1, n2)


def _phi_vjp(g, x, p, n1, n2):
    """kernel_phi's VJP at x, written over the output gradient g."""
    r = np.maximum(x, 0.0)
    rp = T._int_power(r, p - 1) * r
    gs = np.sum(g * rp, axis=-1, keepdims=True)       # of the scale n1 / n2
    g *= n1 / n2
    rp *= gs * n1 / n2 ** 3
    g -= rp                                           # the gradient of r^p
    g *= p * T._int_power(r, p - 1)
    r *= gs / (n1 * n2)
    g += r              # zero where x <= 0: r and r^(p - 1) are 0 there
    return g


def kernel_phi(x, p: int = 3):
    """Nonnegative feature map: f(ReLU(x)) with f(r) = (|r|/|r^p|) r^p.

    The focused function of FLatten Transformer (Han et al.,
    arXiv:2308.00442) with exact norms over the last axis, so the output
    norm equals |ReLU(x)|. A row with |r^p| = 0 maps to zero with a zero
    gradient; a NaN input stays NaN. At p = 1 the map is ReLU(x) itself,
    and its VJP's factor p r^(p - 1) is the step 1[x > 0]. One tape node
    for every p; it saves the two norms, and its VJP recomputes r,
    r^(p - 1) and r^p from x. :func:`dala_core` runs the same map and VJP
    inside its own node.
    """
    x = T._wrap(x)
    phi, norms = _phi(x.data, p)
    return T._make(phi, (x,),
                   lambda g: (_phi_vjp(g.copy(), x.data, p, *norms),))


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


def _run(ix):
    """Indices as a slice when they are consecutive: indexing gives a view."""
    run = range(ix[0], ix[0] + len(ix))
    return slice(run.start, run.stop) if list(ix) == list(run) else ix


def _take(x, idx):
    """x[..., idx, :, :] as a C-ordered array; idx None keeps the order."""
    return np.ascontiguousarray(x) if idx is None else np.take(x, idx, axis=-3)


def _zeros(shape):
    """Zeros [..., N, L, D] stored variate-major, for :func:`_add`."""
    return np.moveaxis(np.zeros(shape[-3:-2] + shape[:-3] + shape[-2:]),
                       0, -3)


def _add(x, idx, rows, val):
    """x[..., idx, rows, :] += val for x from :func:`_zeros`."""
    n = x.ndim - 3
    axes = (n, *range(n), n + 1, n + 2)   # variates first: contiguous slabs
    x.transpose(axes)[idx, ..., rows, :] += val.transpose(axes)


@dataclass
class _Shift:
    """One token shift d of the active pairs; `a` lists the query variates
    block by block, a block being those with the same key set at d."""

    d: int
    a: np.ndarray     # query variates with a pair at d (in some window)
    b: np.ndarray     # key variates with a pair at d
    w: np.ndarray     # [..., A, B] weights rho_ab [delta_ab = d]
    blocks: list      # per block: its query variates, its key variates
                      # and their weights [..., A_g, B_g]
    h: int            # keys j < h = max(0, -d) are never shown at d
    chunks: range     # query chunks I: m = l - d in [I c, I c + c)
    readers: list     # per key variate: (the variate, the query variates
                      # that read its state, their weights [..., S])


_PLANS = {}        # (priors' values, L, c) -> plan, in order of last use
_PLANS_KEPT = 8


def _plan(rho, delta, active, L, c):
    """:func:`_plan_shifts`, cached on the priors' values: training passes
    the same shared priors at every call, and a plan is only read."""
    key = (rho.shape, rho.tobytes(), delta.shape, delta.dtype.str,
           delta.tobytes(), L, c)
    plan = _PLANS.pop(key, None) or _plan_shifts(rho, delta, active, L, c)
    _PLANS[key] = plan
    if len(_PLANS) > _PLANS_KEPT:
        del _PLANS[next(iter(_PLANS))]
    return plan


def _plan_shifts(rho, delta, active, L, c):
    """A variate order and one :class:`_Shift` per distinct shift of the
    active pairs (of any window, for priors with a batch axis), numbered
    in that order. Sorting the variates by their mean shift makes a
    block's variates tend to be runs of consecutive ones; as a permuted
    order costs copies, it is kept only if it makes more key sets runs."""
    n, s = (x.sum(axis=-1).reshape(-1, x.shape[-1]).sum(axis=0)
            for x in (active, np.where(active, delta, 0)))
    plans = []
    for order in (np.arange(len(n)),
                  np.argsort(s / np.maximum(n, 1), kind="stable")):
        pri = (x[..., order[:, None], order] for x in (rho, delta, active))
        plans.append((order, _shifts(*pri, L, c)))
    return max(plans, key=lambda plan: sum(    # a tie keeps the first
        isinstance(b, slice) for sh in plan[1] for _, b, _ in sh.blocks))


def _shifts(rho, delta, active, L, c):
    """The :class:`_Shift`s of priors whose variates are in plan order."""
    nb = -(-L // c)
    shifts = []
    for d in np.unique(delta[active]):
        d = int(d)
        sel = active & (delta == d)
        union = sel.reshape((-1,) + sel.shape[-2:]).any(axis=0)
        groups = {}
        for a in np.flatnonzero(union.any(axis=1)):
            groups.setdefault(union[a].tobytes(), []).append(a)
        a = np.concatenate(list(groups.values()))
        b = np.flatnonzero(union.any(axis=0))
        w = np.where(sel, rho, 0.0)[..., a[:, None], b]
        blocks, start = [], 0
        for qs in groups.values():
            kb = np.flatnonzero(union[qs[0], b])     # as indices into b
            blocks.append((_run(a[start:start + len(qs)]), _run(b[kb]),
                           w[..., start:start + len(qs), kb]))
            start += len(qs)
        # per key variate, for the state reads of the chunks after the first
        readers = [(k, _run(a[col]), w[..., col, i]) for i, (
            k, col) in enumerate(zip(b, union[a][:, b].T))] if nb > 1 else []
        h = max(0, -d)
        # the queries l in [0, L) sit at m in [h, L - d); the last chunk
        # also takes the rows m >= nb c, which see every key
        chunks = range(h // c, min(nb, -(-(L - d) // c)))
        shifts.append(_Shift(d, _run(a), _run(b), w, blocks, h, chunks,
                             readers))
    return shifts


def _band_mask(w, band):
    """[..., A t, B k]: w_ab band[t', j] for block weights w [..., A, B]."""
    t, k = band.shape
    return (w[..., :, None, :, None] * band[:, None, :]).reshape(
        w.shape[:-2] + (w.shape[-2] * t, w.shape[-1] * k))


def _attend(q, k, v, p, order, shifts, table, rotated, c, record):
    """Numerator [..., N, L, Du] and denominator [..., N, L, 1] of DALA.

    Runs the kernel maps of q and k itself and drops phi(k) once the
    rotated keys and their running sums are built. Returns num and den with
    the VJP that maps their gradients [gnum, gden] (a list it empties) to
    those of q, k and v (all [..., N, L, Du]), taking the variates in
    `order` inside (the maps by copies, v gathered where read, unless it is
    the given order). With `record`, the states and every block's band
    scores are kept for the VJP. The VJP holds only what its current stage
    reads: it takes the blocks, then the state reads per key variate, then
    the denominators one shift at a time, and un-permutes one output at a
    time.
    """
    L, Du = v.shape[-2:]
    nb = -(-L // c)                            # chunks
    top = L + max(sh.h for sh in shifts)       # query rows m < top
    inv = np.argsort(order)
    if np.all(np.diff(order) == 1):
        order = inv = None                     # the given order: no copies
    rot = table.rotation(np.arange(top))
    phk, nk = _phi(k, p)
    phk = _take(phk, order)
    kr = _rope_apply(phk, rot[:L])             # keys at their own positions
    # running key sums of the denominators; past L they hold the total
    K = np.cumsum(np.pad(kr if rotated else phk, [(0, 0)] * (v.ndim - 2) +
                         [(0, top - L), (0, 0)]), axis=-2)
    del phk                                    # read by kr and K alone
    phq, nq = _phi(q, p)
    phq = _take(phq, order)
    K_shape = K.shape                          # the VJP keeps no K

    def vals(b, rows):
        # v[..., b, rows, :] for the variates b in plan order, a view where
        # they are one variate or a run of them in the given order too
        if order is not None:
            b = _run(order[b]) if isinstance(b, slice) else order[b]
        return v[..., b, rows, :]

    def span(sh, I):
        # chunk I's queries m in [m0, m1) (rows l = m + d in ls) and the
        # causal band of its keys j in [m0, k1): no query has l < 0, no
        # key j < h shows
        m0 = max(I * c, sh.h)
        m1 = L - sh.d if I + 1 == nb else min(I * c + c, L - sh.d)
        k1 = min(I * c + c, L)
        return m0, k1, np.tri(m1 - m0, k1 - m0), slice(m0 + sh.d, m1 + sh.d)

    def queries(x, a, ls, m0):
        # the rows ls of the variates a, rotated once at m = l - d
        return _rope_apply(x[..., a, ls, :], rot[m0:m0 + ls.stop - ls.start])

    def add_queries(gx, a, ls, m0, g):
        # gx[..., a, ls, :] += g, a gradient of queries(x, a, ls, m0)
        g.view(np.complex128)[...] *= rot[m0:m0 + ls.stop - ls.start].conj()
        _add(gx, a, ls, g)

    # den[a, l] = sum_d qd_a(l - d) . z_d[a, l] with the rho-mixed key sums
    # z_d; qd_a(l - d) . z = qd_a(l) . R(d) z, so one contraction serves all.
    # The mix stays one product per shift: its masked-out pairs cost a c-th
    # of what they would in the band
    Z = _zeros(phq.shape)
    for sh in shifts:
        # query row l >= max(d, 0) sums the keys j in [h, l - d]
        z = K[..., sh.b, sh.h:sh.h + L - max(sh.d, 0), :]
        z = _mix(sh.w, z - K[..., sh.b, sh.h - 1:sh.h, :] if sh.h else z)
        _add(Z, sh.a, slice(max(sh.d, 0), L), _rope_apply(
            z, table.rotation(sh.d)) if rotated else z)
    den = np.sum((_rope_apply(phq, rot[:L]) if rotated else phq) * Z,
                 axis=-1, keepdims=True)
    del K                                      # read by Z alone

    num = _zeros(v.shape)
    S = 0.0                                    # k^T v of the chunks before I
    states, saved = [], {}
    for I in range(nb):
        rows = slice(I * c, I * c + c)
        for j, sh in enumerate(shifts):
            if I not in sh.chunks:
                continue
            m0, k1, band, ls = span(sh, I)
            atts = []
            for a, b, w in sh.blocks:
                # the block's band: the keys of chunk I up to the query's m
                qr = queries(phq, a, ls, m0)
                att = _flat(qr) @ _swap(_flat(kr[..., b, m0:k1, :]))
                att *= _band_mask(w, band)
                _add(num, a, ls, (att @ _flat(vals(b, slice(m0, k1))))
                     .reshape(qr.shape))
                atts.append(att)
            if I * c > sh.h:
                # the keys before chunk I that the shift shows: per key
                # variate, its state (less the keys the shift never shows)
                # meets the queries that read it in one product
                for b, a, wb in sh.readers:
                    qr = queries(phq, a, ls, m0)
                    r = _flat(qr) @ S[..., b, :, :]
                    if sh.h:
                        r -= (_flat(qr) @ _swap(kr[..., b, :sh.h, :])) @ vals(
                            b, slice(0, sh.h))
                    _add(num, a, ls, wb[..., None, None] * r.reshape(qr.shape))
            if record:
                saved[I, j] = atts              # the VJP rotates q again
        if record:
            states.append(S)
        if I + 1 < nb:
            # nb chunks build and read nb - 1 states: none at one chunk
            S = S + _swap(kr[..., rows, :]) @ vals(slice(None), rows)
    del S                                      # before the un-permuted copies

    def chunk_vjp(I, gnum, gq, gkr, gv, gS):
        # chunk I's part of the VJP, into gq, gkr, gv and gS
        rows = slice(I * c, I * c + c)
        if I + 1 < nb:
            # S grew by k^T v of chunk I for the chunks after it
            gkr[..., rows, :] += vals(slice(None), rows) @ _swap(gS)
            gv[..., rows, :] += kr[..., rows, :] @ gS
        for j, sh in enumerate(shifts):
            if I not in sh.chunks:
                continue
            m0, k1, band, ls = span(sh, I)
            keys = slice(m0, k1)
            for (a, b, w), att in zip(sh.blocks, saved.pop((I, j))):
                # each gather is made when first read and dropped after
                # its last read
                kshape = att.shape[:-2] + (-1, k1 - m0, Du)
                go = _flat(gnum[..., a, ls, :])
                gatt = go @ _swap(_flat(vals(b, keys)))
                _add(gv, b, keys, (_swap(att) @ go).reshape(kshape))
                del go
                gatt *= _band_mask(w, band)
                qr = queries(phq, a, ls, m0)
                _add(gkr, b, keys, (_swap(gatt) @ _flat(qr)).reshape(kshape))
                add_queries(gq, a, ls, m0, (gatt @ _flat(
                    kr[..., b, keys, :])).reshape(qr.shape))
            if I * c <= sh.h:
                continue
            for b, a, wb in sh.readers:
                qr = _flat(queries(phq, a, ls, m0))
                go = wb[..., None, None] * gnum[..., a, ls, :]
                gr = _flat(go)
                gqb = gr @ _swap(states[I][..., b, :, :])
                gS[..., b, :, :] += _swap(qr) @ gr
                if sh.h:
                    hk, hv = kr[..., b, :sh.h, :], vals(b, slice(0, sh.h))
                    gp = gr @ _swap(hv)
                    gqb -= gp @ hk
                    gkr[..., b, :sh.h, :] -= _swap(gp) @ qr
                    gv[..., b, :sh.h, :] -= _swap(qr @ _swap(hk)) @ gr
                add_queries(gq, a, ls, m0, gqb.reshape(go.shape))

    def vjp(grads):
        # a permuted copy replaces each of the caller's gnum and gden
        gnum, gden = (_take(x, order) for x in grads)
        grads.clear()
        gq, gkr, gv = map(_zeros, (phq.shape, kr.shape, v.shape))
        gS = np.zeros_like(states[-1])
        for I in reversed(range(nb)):
            chunk_vjp(I, gnum, gq, gkr, gv, gS)
        del gnum
        # the denominators, one shift at a time
        gK = _zeros(K_shape)
        for sh in shifts:
            lo = max(sh.d, 0)
            qd = (queries(phq, sh.a, slice(lo, L), lo) if rotated
                  else phq[..., sh.a, lo:, :])
            gz = gden[..., sh.a, lo:, :] * qd
            if rotated:
                gz = _rope_apply(gz, table.rotation(-sh.d))
            gz = _mix(_swap(sh.w), gz)
            _add(gK, sh.b, slice(sh.h, sh.h + L - lo), gz)
            if sh.h:
                _add(gK, sh.b, slice(sh.h - 1, sh.h),
                     -gz.sum(axis=-2, keepdims=True))
        gq += (_rope_apply(gden * Z, rot[:L].conj()) if rotated
               else gden * Z)
        # the running sums' gradient: a reverse cumulative sum, in place
        rev = gK[..., ::-1, :]
        np.cumsum(rev, axis=-2, out=rev)
        gkd = gK[..., :L, :]
        if rotated:
            gkr += gkd
        gkr.view(np.complex128)[...] *= rot[:L].conj()   # now of phk
        if not rotated:
            gkr += gkd
        del gK, gkd, rev, qd, gz, gden         # before the permuted copies
        gq = _take(gq, inv)
        gq = _phi_vjp(gq, q, p, *nq)
        gkr = _take(gkr, inv)
        return gq, _phi_vjp(gkr, k, p, *nk), _take(gv, inv)

    return _take(num, inv), _take(den, inv), vjp


def dala_core(q, k, v, priors: DelayPriors, p: int = 3,
              table: RotaryTable | None = None, eps: float = ATTN_EPS,
              rotated_denominator: bool = False, chunk: int = 16) -> T.Tensor:
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
    order, shifts = _plan(rho, delta, active, L, c)
    record = T._grad_enabled and any(
        t.requires_grad for t in (q, k, v))   # as T._make decides
    num, den, vjp = _attend(q.data, k.data, v.data, p, order, shifts, table,
                            rotated_denominator, c, record)
    # query (a, l) sees a key once l reaches the smallest max(0, delta_ab);
    # tokens with no key in range fall back to their own value
    first = np.where(active, np.maximum(delta, 0), L).min(axis=-1)
    keep = (np.arange(L) >= first[..., None])[..., None]
    dd = np.maximum(den, eps)
    y = np.where(keep, num / dd, v.data)

    F = int(first.max())       # rows l >= F see a key in every variate

    def bwd(g):
        # T.backward hands g over and the VJP empties `grads`, so that g
        # and the gradients of num and den are freed once read; of g only
        # the rows l < F, where tokens may fall back to v, are kept
        fall = g[..., :F, :].copy()
        grads = [np.where(keep, g, 0.0)]
        del g
        grads.append(np.where(den >= eps, -np.sum(
            grads[0] * num, axis=-1, keepdims=True), 0.0) / dd ** 2)
        grads[0] /= dd
        gq, gk, gv = vjp(grads)
        tail = gv[..., :F, :]
        np.add(tail, fall, out=tail, where=~keep[..., :F, :])
        return gq, gk, gv

    return T._make(y, (q, k, v), bwd)


def dala_attention(inp: DalaInputs, table: RotaryTable | None = None,
                   eps: float = ATTN_EPS, rotated_denominator: bool = False,
                   chunk: int = 16) -> T.Tensor:
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
    q, k, v = (T._wrap(x).data for x in (inp.q, inp.k, inp.v))
    L, N, Du = q.shape
    if table is None:
        table = RotaryTable(dim=Du)
    rho = inp.priors.rho_weights()
    delta = inp.priors.delta_tok

    y = np.zeros((L, N, Du))
    for a in range(N):
        for l in range(L):
            pq = _phi_np(q[l, a], inp.p)
            pq_rot = _rope_apply(pq, table.rotation(l))
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
                    pk_eff = _rope_apply(pk, table.rotation(j + d_ab))
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
    rotated_denominator: bool = False

    @staticmethod
    def init(D: int, Du: int, rng: np.random.Generator, kernel_power: int = 3,
             rotated_denominator: bool = False) -> "DalaParams":
        return DalaParams(
            w_content=T.dense(rng, D, Du), b_content=T.bias(Du),
            w_gate=T.dense(rng, D, Du), b_gate=T.bias(Du),
            w_q=T.dense(rng, Du, Du), w_k=T.dense(rng, Du, Du),
            w_v=T.dense(rng, Du, Du), w_out=T.dense(rng, Du, D),
            b_out=T.bias(D), kernel_power=kernel_power,
            rotated_denominator=rotated_denominator)


def mamba_dala_forward(x: T.Tensor, priors: DelayPriors,
                       params: DalaParams) -> T.Tensor:
    """Full variate-path module on tokens [..., N, L, D]."""
    content = T.linear(x, params.w_content, params.b_content)
    gate = T.linear(x, params.w_gate, params.b_gate)
    y = dala_core(T.linear(content, params.w_q), T.linear(content, params.w_k),
                  T.linear(content, params.w_v), priors,
                  p=params.kernel_power,
                  rotated_denominator=params.rotated_denominator)
    return T.gated_linear(y, gate, params.w_out, params.b_out)
