"""Spans around the public entry points of the dema modules.

The tracer rebinds module-level names (the ones `dema.model`, `dema.dala`
and `dema.pipeline` look up at call time) to wrappers that record a span
per call. Nothing in the package is edited; uninstalling restores the
original functions. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import Counter, defaultdict

import numpy as np

from dema import dala, model, pipeline
from dema import tensor as T


def tokens_of(x):
    """The token tensor of a grid-like argument, or the tensor itself."""
    return getattr(x, "tokens", x)


def with_tokens(x, tokens):
    """`x` with its token tensor replaced (`tokens` when `x` is a tensor)."""
    return dataclasses.replace(x, tokens=tokens) if hasattr(x, "tokens") else tokens


def _delay_counts(window, max_lag, *_args, **_kw):
    n = np.atleast_2d(window).shape[-2]
    return {"delay.lag_evals": n * (n - 1) * (2 * int(max_lag) + 1)}


def _ssd_counts(grid, params, *_args, **_kw):
    L = tokens_of(grid).shape[-2]
    c = min(int(params.chunk), L)
    return {"ssd.chunks": -(-L // c)}


def _dala_counts(grid, priors, *_args, **_kw):
    tokens = tokens_of(grid)
    # the variate path keeps [..., L, N, D]; the token axis is the one
    # that is not the variate axis
    n = priors.n_variates
    L = tokens.shape[-3] if tokens.shape[-2] == n else tokens.shape[-2]
    w = priors.rho_weights()
    d = np.asarray(priors.delta_tok)
    active = (w > 0) & (np.abs(d) < L)
    return {"dala.active_pairs": int(active.sum()),
            "dala.distinct_shifts": len(np.unique(d[active]))}


# (module, attribute, span name, per-call counts, capture inputs for replay)
ENTRY_POINTS = [
    (model, "model_forward", "model.forward", None, False),
    (model, "backbone_forward", "model.backbone", None, False),
    (model, "delay_matrix", "delay.delay_matrix", _delay_counts, False),
    (pipeline, "delay_matrix", "delay.delay_matrix", _delay_counts, False),
    (model, "revin_normalize", "embedding.revin", None, False),
    (model, "decompose", "spectral.decompose", None, False),
    (model, "patchify", "embedding.patchify", None, False),
    (model, "embed_patches", "embedding.embed", None, False),
    (model, "duomnet_block", "model.block", None, False),
    (model, "mamba_ssd_forward", "ssd.forward", _ssd_counts, True),
    (model, "mamba_dala_forward", "dala.forward", _dala_counts, True),
    (dala, "causal_linear_attention", "dala.attention", None, False),
    (model, "head_forecast", "model.head", None, False),
    (T, "backward", "tensor.backward", None, False),
]


class Tracer:
    """Records spans [name, start, end, parent index, op id] and counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # op id -> name -> count
        # SSD/DALA calls of the first operation that makes any, with their
        # token input detached from its graph, for the backward replays
        self.captures = []      # [(span name, fn, args, kw)]
        self.capture_op = None
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one benchmark operation; child spans carry op_id."""
        self.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def _wrap(self, name, fn, count_fn, capture):
        @functools.wraps(fn)
        def traced(*args, **kw):
            counts = self.counts[self.op]
            counts[name + ".calls"] += 1
            if count_fn is not None:
                counts.update(count_fn(*args, **kw))
            if capture and self.capture_op in (None, self.op):
                self.capture_op = self.op
                detached = with_tokens(args[0], T.Tensor(tokens_of(args[0]).data))
                self.captures.append((name, fn, (detached,) + args[1:], kw))
            with self.span(name):
                return fn(*args, **kw)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every entry point that exists; restore on exit."""
        saved = []
        for module, attr, name, count_fn, capture in ENTRY_POINTS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, count_fn, capture))
        step = pipeline.Adam.step
        pipeline.Adam.step = self._wrap("pipeline.adam", step, None, False)
        try:
            yield self
        finally:
            pipeline.Adam.step = step
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    # -- analysis ---------------------------------------------------------
    def op_summary(self, op_id):
        """Per-name self and inclusive milliseconds for one operation.

        Self time is a span's duration minus its direct children. Inclusive
        time counts only the outermost span of a name, so the per-window
        recursion of `backbone_forward` is not counted twice.
        """
        idx = [i for i, s in enumerate(self.spans) if s[4] == op_id]
        child = Counter()
        for i in idx:
            name, t0, t1, parent, _ = self.spans[i]
            if parent >= 0:
                child[parent] += t1 - t0
        self_ms, incl_ms = Counter(), Counter()
        root_ms = 0.0
        for i in idx:
            name, t0, t1, parent, _ = self.spans[i]
            dur = (t1 - t0) * 1e3
            self_ms[name] += dur - child[i] * 1e3
            if parent < 0:
                root_ms = dur
            if not self._has_ancestor(i, name):
                incl_ms[name] += dur
        return {"op_ms": root_ms, "self_ms": dict(self_ms),
                "incl_ms": dict(incl_ms)}

    def _has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def durations_ms(self, name):
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]

    def export(self):
        """Spans as JSON-ready records, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [{"name": n, "start_s": round(a - t0, 9), "end_s": round(b - t0, 9),
                 "parent": p, "op": op}
                for n, a, b, p, op in self.spans]


def tape_stats(loss):
    """Nodes reachable from `loss` that backward visits, and their bytes."""
    seen, stack = {id(loss)}, [loss]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in getattr(node, "_parents", ()):
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes
