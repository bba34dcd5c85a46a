"""End-to-end and per-layer benchmark of the dema numpy backbone.

Run from the repository root:

    python3 benchmarks/run.py --workload train-n7 --seed 1 --seconds 40 --trace 0

`--trace 0` times the workload untraced and prints the end-to-end metrics;
`--trace 1` alternates traced and untraced operations and prints the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. A full record (environment, warm-up, checks, every
metric) and, with tracing, the spans are written to benchmarks/out/.
See benchmarks/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

BLAS_THREADS = 1     # fixed, at most nproc, so runs compare across machines
# setup_s is the median of at least SETUP_MIN set-ups, repeated until they
# add up to SETUP_SECONDS (at most SETUP_MAX of them)
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 5, 31, 2.0
TAIL_BEYOND = 10     # the tail percentile keeps this many samples above it
COTANGENT_SEED = 0   # fixed cotangent for the per-layer backward replays

# The thread count must be pinned before numpy loads OpenBLAS, and dema
# must come from this checkout's src/, never from an installed copy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
if not (ROOT / "src" / "dema" / "__init__.py").is_file():
    sys.exit(f"benchmark: no {ROOT / 'src' / 'dema'}; run from a dema checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from dema import tensor as T  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def tail(samples):
    """(percentile, value): highest whole percentile with TAIL_BEYOND samples
    above it, but not below the median (short runs report p50 twice)."""
    n = len(samples)
    q = max(50, math.floor(100 * (n - TAIL_BEYOND) / n)) if n else 50
    ordered = sorted(samples)
    pos = q / 100 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return q, ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Ledger:
    """Counts operations and failures; a failure is an exception, a
    non-finite output or a failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message):
        self.failed += 1
        self.messages.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def call(self, label, fn, *args, **kw):
        """Run fn, which returns (value, ok); returns (value or None, ok)."""
        self.attempted += 1
        try:
            value, ok = fn(*args, **kw)
        except Exception as exc:  # count it and keep the closed loop going
            self.fail(f"{label} raised {type(exc).__name__}: {exc}")
            return None, False
        if not ok:
            self.fail(f"{label} returned a non-finite or misshaped result "
                      f"({value!r})")
        return value, ok


def timed(ledger, label, fn, *args, **kw):
    t0 = time.perf_counter()
    _, ok = ledger.call(label, fn, *args, **kw)
    return (time.perf_counter() - t0) * 1e3, ok


def replay_ms(fn, args, kw):
    """(backward ms, finite) of one captured SSD/DALA call, replayed with
    grad on."""
    leaf = T.Tensor(tracing.tokens_of(args[0]).data, requires_grad=True)
    out = tracing.tokens_of(fn(tracing.with_tokens(args[0], leaf), *args[1:], **kw))
    cot = np.random.default_rng(COTANGENT_SEED).standard_normal(out.shape)
    loss = T.tsum(T.mul(out, cot))
    t0 = time.perf_counter()
    T.backward(loss)
    return (time.perf_counter() - t0) * 1e3, bool(np.isfinite(loss.data))


def replay_peak(fn, args, kw):
    """(tracemalloc peak bytes, finite) of one replay."""
    gc.collect()
    tracemalloc.start()
    try:
        _, ok = replay_ms(fn, args, kw)
        return tracemalloc.get_traced_memory()[1], ok
    finally:
        tracemalloc.stop()


def main(argv=None):
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    ledger = Ledger()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(),
              "params": dataclasses.asdict(wl),
              "model_config": dataclasses.asdict(wl.config())}

    # correctness checks, before anything is timed
    record["checks"] = checks.run_checks(args.seed)
    for name, fails in record["checks"].items():
        ledger.attempted += 1
        if fails:
            ledger.fail(f"check {name}: " + "; ".join(fails))

    tracer = tracing.Tracer() if args.trace else None

    @contextlib.contextmanager
    def traced_op(op_id):
        """One traced operation; does nothing when not tracing."""
        if tracer is None:
            yield
            return
        with tracer.installed(), tracer.operation(op_id):
            yield

    splits = workloads.make_splits(wl, args.seed)
    setup_s = []
    while len(setup_s) < SETUP_MIN or (sum(setup_s) < SETUP_SECONDS
                                       and len(setup_s) < SETUP_MAX):
        r = len(setup_s)
        run = None
        gc.collect()
        with traced_op(f"setup{r}"):
            t0 = time.perf_counter()
            run = workloads.Run(wl, splits, args.seed)
            setup_s.append(time.perf_counter() - t0)

    def op(k, inspect=None):
        if wl.kind == "train":
            return run.train_step(run.batch(k), inspect)
        return run.forecast(run.batch(k))

    def reset():
        # every training step starts from the set-up weights (not timed)
        if wl.kind == "train":
            run.restore()

    warmup_ms = []
    for k in range(wl.warmup_ops):
        reset()
        warmup_ms.append(timed(ledger, f"warm-up op {k}", op, k)[0])

    # peak memory of one operation (batch 0), untimed
    if tracer is None:
        reset()
        gc.collect()
        tracemalloc.start()
        ledger.call("peak-memory op", op, 0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

    # closed loop; when tracing, every other operation is traced
    op_ms, failed_ms, traced, val_ms = [], [], [], []
    k = wl.warmup_ops
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or k < wl.warmup_ops + 2:
        reset()
        if tracer is not None and (k - wl.warmup_ops) % 2 == 1:
            with traced_op(k):
                _, ok = ledger.call(f"op {k}", op, k)
            traced.append((k, ok))
        else:
            ms, ok = timed(ledger, f"op {k}", op, k)
            (op_ms if ok else failed_ms).append(ms)
        k += 1
        if wl.kind == "train" and (k - wl.warmup_ops) % wl.val_every == 0:
            n, B = len(run.val_windows), wl.batch
            for s in range(0, n, B):
                ms, ok = timed(ledger, f"validation batch {s // B}",
                               run.forecast, list(range(s, min(s + B, n))),
                               run.val_windows)
                if ok:
                    val_ms.append(ms)
    report = []
    if not op_ms:
        # still report, from the failed attempts; `correct` is false
        report.append("no timed operation succeeded; times are of the "
                      "failed attempts")
        op_ms = failed_ms
    traced_ids = [k for k, ok in traced if ok] or [k for k, _ in traced]
    traced_ms = [tracer.op_summary(k)["op_ms"] for k in traced_ids] if tracer else []
    record["warmup"] = {"ops": wl.warmup_ops, "ms": warmup_ms}
    record["samples_ms"] = {"op": op_ms, "traced_op": traced_ms,
                            "validation_batch": val_ms,
                            "setup": [s * 1e3 for s in setup_s]}

    if tracer is None:
        q, tail_ms = tail(op_ms)
        metrics = {
            "op_ms.p50": (statistics.median(op_ms), "ms"),
            "op_ms.tail": (tail_ms, "ms"),
            "windows_per_s": (wl.batch * len(op_ms) / (sum(op_ms) / 1e3), "1/s"),
            "peak_bytes": (peak, "B"),
            "setup_s": (statistics.median(setup_s), "s"),
        }
        kind = "train_step" if wl.kind == "train" else "infer_batch"
        report += [f"{kind}_ms.p50 = {statistics.median(op_ms):.3f} ms "
                   f"(op_ms.p50; n={len(op_ms)})",
                   f"{kind}_ms.tail = p{q} = {tail_ms:.3f} ms "
                   f"(op_ms.tail; n={len(op_ms)})",
                   f"{wl.kind}_windows_per_s = "
                   f"{metrics['windows_per_s'][0]:.4f} 1/s (windows_per_s)"]
        if val_ms:
            vq, vtail = tail(val_ms)
            report += [f"infer_batch_ms.p50 = {statistics.median(val_ms):.3f} "
                       f"ms (validation batches of {wl.batch}; n={len(val_ms)})",
                       f"infer_batch_ms.tail = p{vq} = {vtail:.3f} ms",
                       f"infer_windows_per_s = "
                       f"{wl.batch * len(val_ms) / (sum(val_ms) / 1e3):.4f} 1/s"]
        report += [f"peak_bytes = {peak} B", f"setup_s = "
                   f"{statistics.median(setup_s):.6f} s (median of "
                   f"{len(setup_s)}: {', '.join(f'{s:.6f}' for s in setup_s)})"]
    else:
        metrics, layer_report = per_layer(tracer, run, wl, traced_ids, op_ms,
                                          traced_ms, ledger)
        report += layer_report

    frac = ledger.failed / ledger.attempted
    report.append(f"ops_failed_frac = {frac:.6g} ({ledger.failed} of "
                  f"{ledger.attempted} operations)")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["ops_failed_frac"] = frac
    record["failures"] = ledger.messages

    env = record["environment"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} commit={env['git_commit']}")
    print(f"# nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} blas_threads={BLAS_THREADS}")
    print(f"# params {json.dumps(record['params'])}")
    print(f"# warm-up {wl.warmup_ops} ops: "
          + ", ".join(f"{ms:.1f}" for ms in warmup_ms) + " ms")
    for name, fails in record["checks"].items():
        print(f"# check {name}: {'FAILED ' + '; '.join(fails) if fails else 'ok'}")
    for line in report:
        print(line)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump(tracer.export(), fh)
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": record["metrics"]}))


def per_layer(tracer, run, wl, traced_ids, op_ms, traced_ms, ledger):
    """Per-layer metrics from the traced operations, a traced grad probe
    and isolated backward replays of the captured SSD/DALA inputs."""
    summaries = [tracer.op_summary(i) for i in traced_ids]

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def incl(*names):
        return med(lambda s: sum(s["incl_ms"].get(n, 0.0) for n in names))

    # grad probe: one traced training step on batch 0 (for infer-long it is
    # the only source of backward, Adam and tape numbers)
    tape = {}

    def inspect(loss):
        tape["nodes"], tape["bytes"] = tracing.tape_stats(loss)

    run.restore()
    with tracer.installed(), tracer.operation("probe"):
        ledger.call("grad probe", run.train_step, run.batch(0), inspect)
    if wl.kind == "train":
        backward_ms = incl("tensor.backward")
        share = med(lambda s: s["incl_ms"].get("tensor.backward", 0.0) / s["op_ms"])
        adam_ms = incl("pipeline.adam")
    else:
        probe = tracer.op_summary("probe")
        backward_ms = probe["incl_ms"].get("tensor.backward", 0.0)
        share = backward_ms / probe["op_ms"]
        adam_ms = probe["incl_ms"].get("pipeline.adam", 0.0)

    first = tracer.counts[traced_ids[0]]
    delay_calls = sum(c["delay.delay_matrix.calls"] for c in tracer.counts.values())
    lag_evals = sum(c["delay.lag_evals"] for c in tracer.counts.values())
    delay_ms = tracer.durations_ms("delay.delay_matrix")

    # backward of each captured SSD/DALA call, replayed in isolation
    bwd = {"ssd.forward": 0.0, "dala.forward": 0.0}
    peak = {"ssd.forward": 0, "dala.forward": 0}
    for name, fn, args, kw in tracer.captures:
        ms, _ = ledger.call(f"{name} replay", replay_ms, fn, args, kw)
        bwd[name] += ms or 0.0
    for name in peak:
        first_call = next((c for c in tracer.captures if c[0] == name), None)
        if first_call is not None:
            peak[name] = ledger.call(f"{name} peak replay", replay_peak,
                                     *first_call[1:])[0] or 0
    run.state.zero_grad()

    metrics = {
        "tensor.backward_ms": (backward_ms, "ms"),
        "tensor.backward_share": (share, "fraction"),
        "tensor.tape_nodes": (tape.get("nodes", 0), "count"),
        "tensor.tape_bytes": (tape.get("bytes", 0), "B"),
        "dala.fwd_ms": (incl("dala.forward"), "ms"),
        "dala.bwd_ms": (bwd["dala.forward"], "ms"),
        "dala.peak_bytes": (peak["dala.forward"], "B"),
        "dala.calls": (first["dala.forward.calls"], "count"),
        "dala.attn_calls": (first["dala.attention.calls"], "count"),
        "dala.active_pairs": (first["dala.active_pairs"], "count"),
        "dala.distinct_shifts": (first["dala.distinct_shifts"], "count"),
        "delay.delay_matrix_ms": (statistics.median(delay_ms) if delay_ms
                                  else 0.0, "ms"),
        "delay.calls": (first["delay.delay_matrix.calls"], "count"),
        "delay.lag_evals": (lag_evals // delay_calls if delay_calls else 0,
                            "count"),
        "ssd.fwd_ms": (incl("ssd.forward"), "ms"),
        "ssd.bwd_ms": (bwd["ssd.forward"], "ms"),
        "ssd.peak_bytes": (peak["ssd.forward"], "B"),
        "ssd.calls": (first["ssd.forward.calls"], "count"),
        "ssd.chunks": (first["ssd.chunks"], "count"),
        "spectral.decompose_ms": (incl("spectral.decompose"), "ms"),
        "spectral.decompose_calls": (first["spectral.decompose.calls"], "count"),
        "embedding.revin_ms": (incl("embedding.revin"), "ms"),
        "embedding.embed_ms": (incl("embedding.patchify", "embedding.embed"), "ms"),
        "model.forward_ms": (incl("model.forward"), "ms"),
        "model.block_self_ms": (med(lambda s: s["self_ms"].get("model.block", 0.0)),
                                "ms"),
        "model.head_ms": (incl("model.head"), "ms"),
        "model.backbone_calls": (first["model.backbone.calls"], "count"),
        "pipeline.adam_ms": (adam_ms, "ms"),
    }

    # self time per layer; "op" self time is the remainder outside every layer
    names = sorted({n for s in summaries for n in s["self_ms"]})
    untraced = statistics.median(op_ms)
    traced = statistics.median(traced_ms)
    unit = "train step" if wl.kind == "train" else "inference batch"
    report = [f"traced {unit}: p50 {traced:.3f} ms (n={len(traced_ms)}); "
              f"untraced p50 {untraced:.3f} ms (n={len(op_ms)}); "
              f"tracing overhead {traced - untraced:+.3f} ms",
              "self time per layer, median ms per operation:"]
    for n in names:
        label = "other (outside every layer)" if n == "op" else n
        report.append(f"  {label:<32} {med(lambda s: s['self_ms'].get(n, 0.0)):10.3f}")
    gaps = [abs(sum(s["self_ms"].values()) - s["op_ms"]) for s in summaries]
    report.append(f"  sum of self times matches the traced op time to "
                  f"{max(gaps):.2e} ms")
    report += [f"{k} = {v} {u}" for k, (v, u) in metrics.items()]
    return metrics, report


if __name__ == "__main__":
    main()
