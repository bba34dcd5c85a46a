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
at m = l - d instead. The denominators of all shifts are one contraction
of the queries with rho-mixed running key sums. The numerators cut the
token axis into the SSD's chunks of c keys (`T._chunks`, of the config's
`chunk`), as in the state-passing schedule of Mamba-2's SSD (Dao & Gu,
arXiv:2405.21060) applied to linear attention (Katharopoulos et al.,
arXiv:2006.16236). Each plan decides once, in :func:`_schedule`, what
chunk I runs for the shifts whose query rows m meet [I c, I c + c):

* their bands: the keys of chunk I alone. A shift's query variates with
  the same key set form a block, a complete biclique: one product of real
  pairs only, masked by the weights rho_ab and the causal band j <= m
  (block-sparse attention as in Child et al., arXiv:1904.10509, with the
  blocks read off the priors). Rows outside [0, L) are cut off, and the
  variates are ordered so that a block's variates tend to be runs;
* their state reads: the keys of the chunks before I come in through one
  running k^T v state per key variate, which meets all its readers, of
  every shift, in one product. As in the SSD, chunk 0 reads no state and
  none is built after the last chunk;
* a negative shift never shows its first -d keys: they are cut from
  the band and taken out of the state read by a product with those keys.

Priors are shared ([N, N]) or one set per window ([..., N, N]). A batch
of windows plans the union of its windows' shifts, and each shift's
weights and band masks carry the batch axis, zero where a window has no
pair at that shift.

The kernel maps and the whole attention are one tape node from q, k and
v, so phi(k) is never kept: the node keeps phi(q) and the rotated keys.
Its VJP walks the same schedule backwards, each block's and reader's
query rows gathered and rotated again, and runs the kernel map's VJP in
place. No (N*L) x (N*L) matrix, no per-pair stream and no per-pair state
is formed. A literal double-sum transcription is kept as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .delay import DelayPriors
from .errors import ConfigError, ContractError

ATTN_EPS = 1e-6     # floor of the attention denominators


@dataclass
class RotaryTable:
    """Per-dimension-pair angular frequencies 10000^(-2i / dim)."""

    dim: int
    theta: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim % 2:
            raise ConfigError("rotary dimension must be even")
        half = self.dim // 2
        self.theta = 10000.0 ** (-np.arange(half) * 2.0 / self.dim)

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
    """The kernel map f(ReLU(x)), f(r) = (|r|/|r^p|) r^p, of FLatten
    Transformer (Han et al., arXiv:2308.00442) with exact norms over the
    last axis, and the norms its VJP reads. A row with |r^p| = 0 maps to
    zero with a zero gradient, NaN stays NaN, and p = 1 gives ReLU(x)."""
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
    """:func:`_phi`'s VJP at x, written over the output gradient g."""
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
    blocks: list      # (query variates, key variates, weights [..., A_g, B_g])
    h: int            # keys j < h = max(0, -d) are never shown at d


_PLANS = {}     # token split (L, c) -> (priors' values, plan) of its last call


def _plan(rho, delta, active, L, c):
    """:func:`_plan_shifts`, cached on the priors' values in one slot per
    token split (L, c): shared priors are planned once per run, and the
    blocks of one forward share the plan of their per-window priors."""
    key = (rho.shape, rho.tobytes(), delta.shape, delta.dtype.str,
           delta.tobytes())
    slot = _PLANS.get((L, c))
    if slot is None or slot[0] != key:
        slot = _PLANS[L, c] = key, _plan_shifts(rho, delta, active, L, c)
    return slot[1]


def _plan_shifts(rho, delta, active, L, c):
    """A variate order, one :class:`_Shift` per distinct shift of the
    active pairs (of any window, for priors with a batch axis), numbered
    in that order, and their :func:`_schedule`. Sorting the variates by
    their mean shift makes a block's variates tend to be runs of
    consecutive ones; as a permuted order costs copies, it is kept only if
    it makes more key sets runs."""
    n, s = (x.sum(axis=-1).reshape(-1, x.shape[-1]).sum(axis=0)
            for x in (active, np.where(active, delta, 0)))
    orders = np.arange(len(n)), np.argsort(s / np.maximum(n, 1), kind="stable")
    plans = [(o, _shifts(rho[..., o[:, None], o], delta[..., o[:, None], o],
                         active[..., o[:, None], o])) for o in orders]
    order, shifts = max(plans, key=lambda plan: sum(  # a tie keeps the first
        isinstance(b, slice) for sh in plan[1] for _, b, _ in sh.blocks))
    return order, shifts, _schedule(shifts, L, c)


def _shifts(rho, delta, active):
    """The :class:`_Shift`s of priors whose variates are in plan order."""
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
        w = np.where(sel, rho, 0.0)
        blocks = []
        for qs in map(np.array, groups.values()):
            kb = b[union[qs[0], b]]
            blocks.append((_run(qs), _run(kb), w[..., qs[:, None], kb]))
        shifts.append(_Shift(d, _run(a), _run(b), w[..., a[:, None], b],
                             blocks, max(0, -d)))
    return shifts


def _schedule(shifts, L, c):
    """Per chunk I of c keys, (bands, reads), walked by the forward and,
    backwards, by the VJP. bands: per shift whose queries m in [m0, m1)
    meet the keys j in [m0, k1) of chunk I (the last chunk also takes the
    rows m >= nb c), (shift, m0, k1, rows l, blocks), a block being (query
    variates, key variates, mask w_ab [j <= m] [..., A t, B k]). reads:
    per key variate whose state chunk I reads, (variate, readers), a
    reader being a block's (shift, query variates, rows l, m0, weights
    [..., A]); a shift reads states where I c > h."""
    nb = -(-L // c)
    masks, schedule = {}, []
    for I in range(nb):
        bands, reads = [], {}
        for sh in shifts:
            m0 = max(I * c, sh.h)         # no l < 0, no hidden key j < h
            m1 = L - sh.d if I + 1 == nb else min(I * c + c, L - sh.d)
            if m0 >= m1:
                continue
            ls, k = slice(m0 + sh.d, m1 + sh.d), min(I * c + c, L) - m0
            key = sh.d, m1 - m0, k                  # chunks share bands
            if key not in masks:
                masks[key] = [(a, b, np.kron(w, np.tri(*key[1:])))
                              for a, b, w in sh.blocks]
            bands.append((sh, m0, m0 + k, ls, masks[key]))
            for a, b, w in sh.blocks if I * c > sh.h else ():
                for i, kv in enumerate(np.r_[b]):
                    reads.setdefault(kv, []).append((sh, a, ls, m0,
                                                     w[..., :, i]))
        schedule.append((bands, sorted(reads.items())))
    return schedule


def _attend(q, k, v, p, plan, table, rotated, c, record):
    """Numerator [..., N, L, Du] and denominator [..., N, L, 1] of DALA,
    chunk by chunk on the plan's :func:`_schedule`.

    Runs the kernel maps of q and k itself and drops phi(k) once the
    rotated keys and their running sums are built. Returns num and den
    with the VJP that maps their gradients [gnum, gden] (a list it
    empties) to those of q, k and v (all [..., N, L, Du]), taking the
    variates in the plan's order inside (the maps by copies, v gathered
    where read, unless it is the given order). With `record`, the states
    and every block's band scores are kept for the VJP, which frees a
    band's scores after their last read, then does the denominators one
    shift at a time and un-permutes one output at a time.
    """
    order, shifts, schedule = plan
    L, Du = v.shape[-2:]
    nb = len(schedule)
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

    def queries(x, a, ls, m0):
        # the rows ls of the variates a, rotated once at m = l - d
        return _rope_apply(x[..., a, ls, :], rot[m0:m0 + ls.stop - ls.start])

    def add_queries(gx, a, ls, m0, g):
        # gx[..., a, ls, :] += g, a gradient of queries(x, a, ls, m0)
        g.view(np.complex128)[...] *= rot[m0:m0 + ls.stop - ls.start].conj()
        _add(gx, a, ls, g)

    def stacked(xs):
        # [..., X_i, t_i, D] arrays as one [..., sum X_i t_i, D] (the xs are
        # not kept), and a function cutting such an array back into views
        shapes = [x.shape for x in xs]
        ends = np.cumsum([s[-3] * s[-2] for s in shapes])[:-1]
        return np.concatenate([_flat(x) for x in xs], axis=-2), lambda y: [
            z.reshape(s) for s, z in zip(shapes, np.split(y, ends, -2))]

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
    for I, (bands, reads) in enumerate(schedule):
        for j, (sh, m0, k1, ls, blocks) in enumerate(bands):
            atts = []
            for a, b, mask in blocks:
                # the block's band: the keys of chunk I up to the query's m
                qr = queries(phq, a, ls, m0)
                att = _flat(qr) @ _swap(_flat(kr[..., b, m0:k1, :]))
                att *= mask
                _add(num, a, ls, (att @ _flat(vals(b, slice(m0, k1))))
                     .reshape(qr.shape))
                atts.append(att)
            if record:
                saved[I, j] = atts              # the VJP rotates q again
        for b, readers in reads:
            # the keys before chunk I: b's state meets all its readers in
            # one product; a negative shift takes out the keys it never shows
            qs, split = stacked([queries(phq, a, ls, m0)
                                 for _, a, ls, m0, _ in readers])
            for (sh, a, ls, _, wb), qr, r in zip(
                    readers, split(qs), split(qs @ S[..., b, :, :])):
                if sh.h:
                    r -= ((_flat(qr) @ _swap(kr[..., b, :sh.h, :])) @ vals(
                        b, slice(0, sh.h))).reshape(r.shape)
                _add(num, a, ls, wb[..., None, None] * r)
        if record:
            states.append(S)
        if I + 1 < nb:
            # nb chunks build and read nb - 1 states: none at one chunk
            rows = slice(I * c, I * c + c)
            S = S + _swap(kr[..., rows, :]) @ vals(slice(None), rows)
    del S                                      # before the un-permuted copies

    def chunk_vjp(I, gnum, gq, gkr, gv, gS):
        # chunk I's part of the VJP, into gq, gkr, gv and gS
        bands, reads = schedule[I]
        if I + 1 < nb:
            # S grew by k^T v of chunk I for the chunks after it
            rows = slice(I * c, I * c + c)
            gkr[..., rows, :] += vals(slice(None), rows) @ _swap(gS)
            gv[..., rows, :] += kr[..., rows, :] @ gS
        for j, (sh, m0, k1, ls, blocks) in enumerate(bands):
            keys = slice(m0, k1)
            for (a, b, mask), att in zip(blocks, saved.pop((I, j))):
                # each gather lives from its first read to its last
                kshape = att.shape[:-2] + (-1, k1 - m0, Du)
                go = _flat(gnum[..., a, ls, :])
                gatt = go @ _swap(_flat(vals(b, keys)))
                _add(gv, b, keys, (_swap(att) @ go).reshape(kshape))
                del go
                gatt *= mask
                qr = queries(phq, a, ls, m0)
                _add(gkr, b, keys, (_swap(gatt) @ _flat(qr)).reshape(kshape))
                add_queries(gq, a, ls, m0, (gatt @ _flat(
                    kr[..., b, keys, :])).reshape(qr.shape))
        for b, readers in reads:
            qs, split = stacked([queries(phq, a, ls, m0)
                                 for _, a, ls, m0, _ in readers])
            gs, _ = stacked([wb[..., None, None] * gnum[..., a, ls, :]
                             for _, a, ls, _, wb in readers])
            gS[..., b, :, :] += _swap(qs) @ gs
            for (sh, a, ls, m0, _), qr, go, gqb in zip(readers, split(
                    qs), split(gs), split(gs @ _swap(states[I][..., b, :, :]))):
                if sh.h:
                    qr, gr = _flat(qr), _flat(go)
                    hk, hv = kr[..., b, :sh.h, :], vals(b, slice(0, sh.h))
                    gp = gr @ _swap(hv)
                    gqb -= (gp @ hk).reshape(gqb.shape)
                    gkr[..., b, :sh.h, :] -= _swap(gp) @ qr
                    gv[..., b, :sh.h, :] -= _swap(qr @ _swap(hk)) @ gr
                add_queries(gq, a, ls, m0, gqb)

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
              table: RotaryTable | None = None,
              rotated_denominator: bool = False,
              chunk: int = T.CHUNK) -> T.Tensor:
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
    _, c = T._chunks(L, chunk)
    plan = _plan(rho, delta, active, L, c)
    record = T._grad_enabled and any(
        t.requires_grad for t in (q, k, v))   # as T._make decides
    num, den, vjp = _attend(q.data, k.data, v.data, p, plan, table,
                            rotated_denominator, c, record)
    # query (a, l) sees a key once l reaches the smallest max(0, delta_ab);
    # tokens with no key in range fall back to their own value
    first = np.where(active, np.maximum(delta, 0), L).min(axis=-1)
    keep = (np.arange(L) >= first[..., None])[..., None]
    dd = np.maximum(den, ATTN_EPS)
    y = np.where(keep, num / dd, v.data)

    F = int(first.max())       # rows l >= F see a key in every variate

    def bwd(g):
        # T.backward hands g over and the VJP empties `grads`, so that g
        # and the gradients of num and den are freed once read; of g only
        # the rows l < F, where tokens may fall back to v, are kept
        fall = g[..., :F, :].copy()
        grads = [np.where(keep, g, 0.0)]
        del g
        grads.append(np.where(den >= ATTN_EPS, -np.sum(
            grads[0] * num, axis=-1, keepdims=True), 0.0) / dd ** 2)
        grads[0] /= dd
        gq, gk, gv = vjp(grads)
        tail = gv[..., :F, :]
        np.add(tail, fall, out=tail, where=~keep[..., :F, :])
        return gq, gk, gv

    return T._make(y, (q, k, v), bwd)


def dala_attention(inp: DalaInputs, table: RotaryTable | None = None,
                   rotated_denominator: bool = False,
                   chunk: int = T.CHUNK) -> T.Tensor:
    """:func:`dala_core` on q, k, v [..., L, N, Du], the oracle's layout."""
    q, k, v = (T.swapaxes(T._wrap(x), -3, -2) for x in (inp.q, inp.k, inp.v))
    y = dala_core(q, k, v, inp.priors, inp.p, table, rotated_denominator,
                  chunk)
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
                y[l, a] = num / max(den, ATTN_EPS)
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


def mamba_dala_forward(x: T.Tensor, priors: DelayPriors, params: DalaParams,
                       chunk: int) -> T.Tensor:
    """Full variate-path module on tokens [..., N, L, D], chunked as the SSD."""
    content = T.linear(x, params.w_content, params.b_content)
    gate = T.linear(x, params.w_gate, params.b_gate)
    y = dala_core(T.linear(content, params.w_q), T.linear(content, params.w_k),
                  T.linear(content, params.w_v), priors,
                  p=params.kernel_power,
                  rotated_denominator=params.rotated_denominator, chunk=chunk)
    return T.gated_linear(y, gate, params.w_out, params.b_out)
