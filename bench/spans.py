"""Spans around slimnet's public functions, and the arithmetic that turns
them into per-layer metrics.

Tracing replaces module attributes that slimnet's own callers look up at
call time (``slimnet.trainer.forward``, ``slimnet.ops.conv2d_backward``,
``slimnet.search.train``, ...) with wrappers that record one span per
call: name, start, end and the index of the enclosing span.  Nothing in
the package itself changes, and `Tracer.restore` puts every original
back.  This module uses only the standard library, so its arithmetic is
testable without numpy.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

OPS = (
    "conv2d_forward", "conv2d_backward", "dense_forward", "dense_backward",
    "maxpool_forward", "maxpool_backward", "relu", "relu_backward",
    "dropout", "dropout_backward", "softmax_xent",
)
MAC_OPS = ("conv2d_forward", "conv2d_backward", "dense_forward", "dense_backward")

# (name, unit) of the per-layer metrics a traced run reports, in BENCHMARK.json order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("mnist.load_data_dir.ms", "ms"),
    ("mnist.load_data_dir.calls", "count"),
    ("netspec.load_spec.ms", "ms"),
    ("netspec.load_spec.calls", "count"),
    ("netspec.propagate_shapes.calls", "count"),
    ("accounting.analyze.ms", "ms"),
    ("accounting.analyze.calls", "count"),
    ("network.forward.train_ms", "ms"),
    ("network.forward.train_calls", "count"),
    ("network.forward.eval_ms", "ms"),
    ("network.forward.eval_calls", "count"),
    ("network.backward.ms", "ms"),
    ("network.backward.calls", "count"),
    ("network.init_params.ms", "ms"),
    ("network.init_params.calls", "count"),
    *((f"ops.{op}.{suffix}", unit) for op in OPS for suffix, unit in (("self_ms", "ms"), ("calls", "count"))),
    *((f"ops.{op}.{suffix}", unit) for op in MAC_OPS
      for suffix, unit in (("gmac", "GMAC-computed"), ("gmac_per_s", "GMAC/s-computed"))),
    ("trainer.adam_step.ms", "ms"),
    ("trainer.adam_step.calls", "count"),
    ("trainer.evaluate.ms", "ms"),
    ("trainer.evaluate.calls", "count"),
    ("trainer.train.self_ms", "ms"),
    ("trainer.train.calls", "count"),
    ("trainer.step.p50_ms", "ms"),
    ("trainer.step.tail_ms", "ms"),
    ("trainer.step.tail_pct", "%"),
    ("trainer.step.samples", "count"),
    ("container.save_checkpoint.ms", "ms"),
    ("container.save_checkpoint.calls", "count"),
    ("container.checkpoint_bytes", "bytes"),
    ("search.run_sweep.self_ms", "ms"),
    ("search.run_sweep.calls", "count"),
    ("search.candidate.p50_ms", "ms"),
    ("search.candidate.tail_ms", "ms"),
    ("search.candidate.tail_pct", "%"),
    ("search.candidate.samples", "count"),
    ("search.select.ms", "ms"),
    ("search.select.calls", "count"),
    ("trace_overhead", "ratio"),
)

SELECT_SPANS = ("search.select_minimal", "search.build_frontier", "search.export_curves")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    macs: int = 0  # computed multiply-accumulates, from argument shapes


class Tracer:
    """Records nested spans from one thread, kept in memory until read."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, macs=None):
        """`fn` recording a span per call.

        `name` is a string or a function of `(args, kwargs)`; `macs`, when
        given, maps the call's arguments to a computed MAC count.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, clock(), 0.0, stack[-1] if stack else -1,
                        macs(*args, **kwargs) if macs else 0)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def patch(self, module, attr: str, name, macs=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, macs))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


# --- computed work -------------------------------------------------------------


def conv_macs(x_shape, w_shape) -> int:
    """Forward MACs of a stride-1 SAME conv: N*H*W*kh*kw*C_in*C_out."""
    n = x_shape[0] if len(x_shape) == 4 else 1
    h, w = x_shape[-3], x_shape[-2]
    kh, kw, cin, cout = w_shape
    return n * h * w * kh * kw * cin * cout


def dense_macs(x_shape, w_shape) -> int:
    """Forward MACs of a dense layer: N*in*out."""
    n = x_shape[0] if len(x_shape) == 2 else 1
    fin, fout = w_shape
    return n * fin * fout


# Backward computes the weight gradient and the input gradient, each a
# product the size of the forward one.
def conv_forward_macs(x, params, *rest, **kw):
    return conv_macs(x.shape, params.weights.shape)


def conv_backward_macs(x, params, *rest, **kw):
    return 2 * conv_macs(x.shape, params.weights.shape)


def dense_forward_macs(x, params, *rest, **kw):
    return dense_macs(x.shape, params.weights.shape)


def dense_backward_macs(x, params, *rest, **kw):
    return 2 * dense_macs(x.shape, params.weights.shape)


def install(tracer: Tracer, slimnet_modules) -> None:
    """Wrap every public function the benchmark's per-layer metrics name.

    Each attribute is patched in the module whose code looks it up, so the
    package's own calls go through the wrappers.
    """
    m = slimnet_modules
    p = tracer.patch
    p(m.mnist, "load_data_dir", "mnist.load_data_dir")
    p(m.netspec, "load_spec", "netspec.load_spec")
    for module in (m.netspec, m.accounting, m.search):
        p(module, "propagate_shapes", "netspec.propagate_shapes")
    p(m.search, "analyze", "accounting.analyze")
    p(m.trainer, "forward", lambda a, k: "network.forward.train" if k.get("training") else "network.forward.eval")
    p(m.trainer, "backward", "network.backward")
    p(m.trainer, "init_params", "network.init_params")
    p(m.trainer, "softmax_xent", "ops.softmax_xent")
    macs = {"conv2d_forward": conv_forward_macs, "conv2d_backward": conv_backward_macs,
            "dense_forward": dense_forward_macs, "dense_backward": dense_backward_macs}
    for op in OPS[:-1]:  # softmax_xent is patched in the trainer, which calls it
        p(m.ops, op, f"ops.{op}", macs.get(op))
    for fn in ("adam_step", "init_adam_state", "evaluate", "train"):
        p(m.trainer, fn, f"trainer.{fn}")
    p(m.search, "train", "trainer.train")
    p(m.container, "save_checkpoint", "container.save_checkpoint")
    for fn in ("run_search", "run_sweep", "select_minimal", "build_frontier", "export_curves"):
        p(m.search, fn, f"search.{fn}")


# --- span arithmetic ------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for j in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[j].start, cursor), min(spans[j].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def in_eval(spans: list[Span]) -> list[bool]:
    """Whether each span runs under an evaluation forward pass."""
    flags: list[bool] = []
    for s in spans:  # parents precede their children
        flags.append(s.name == "network.forward.eval" or (s.parent >= 0 and flags[s.parent]))
    return flags


# Tail percentiles in tenths of a percent, so rank arithmetic stays integral.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10


def _rank(tenths: int, n: int) -> int:
    """1-based nearest rank of a percentile given in tenths of a percent."""
    return max(1, -(-tenths * n // 1000))


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest ladder percentile that still has at
    least ten samples ranked beyond it, by nearest rank; None under 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for tenths in TAIL_LADDER:
        rank = _rank(tenths, n)
        if n - rank >= MIN_BEYOND:
            best = (tenths / 10, ordered[rank - 1])
    return best


def step_durations(spans: list[Span]) -> list[float]:
    """Seconds per training step inside every `trainer.train` span.

    A step has no function of its own: it runs from the end of the previous
    `adam_step` (or of `init_adam_state`) to the end of its own `adam_step`,
    so it includes batch sampling and gather.
    """
    marks: dict[int, list[float]] = {}
    for s in spans:
        if s.name in ("trainer.init_adam_state", "trainer.adam_step") and s.parent >= 0:
            marks.setdefault(s.parent, []).append(s.end)
    out = []
    for ends in marks.values():
        out += [b - a for a, b in zip(ends, ends[1:])]
    return out


def op_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one benchmark operation (values in ms, counts, GMAC)."""
    selfs = self_times(spans)
    evals = in_eval(spans)
    incl: dict[str, float] = {}
    excl: dict[str, float] = {}
    calls: dict[str, int] = {}
    macs: dict[str, int] = {}
    for s, own, ev in zip(spans, selfs, evals):
        # ops metrics cover the training steps; eval forwards have their own span
        key = s.name if not (ev and s.name.startswith("ops.")) else s.name + "@eval"
        incl[key] = incl.get(key, 0.0) + (s.end - s.start) * 1e3
        excl[key] = excl.get(key, 0.0) + own * 1e3
        calls[key] = calls.get(key, 0) + 1
        macs[key] = macs.get(key, 0) + s.macs

    t: dict[str, float] = {}
    for name in ("mnist.load_data_dir", "netspec.load_spec", "accounting.analyze", "network.backward",
                 "network.init_params", "trainer.adam_step", "trainer.evaluate",
                 "container.save_checkpoint"):
        t[f"{name}.ms"] = incl.get(name, 0.0)
        t[f"{name}.calls"] = calls.get(name, 0)
    t["netspec.propagate_shapes.calls"] = calls.get("netspec.propagate_shapes", 0)
    for phase in ("train", "eval"):
        t[f"network.forward.{phase}_ms"] = incl.get(f"network.forward.{phase}", 0.0)
        t[f"network.forward.{phase}_calls"] = calls.get(f"network.forward.{phase}", 0)
    for op in OPS:
        name = f"ops.{op}"
        t[f"{name}.self_ms"] = excl.get(name, 0.0)
        t[f"{name}.calls"] = calls.get(name, 0)
    for op in MAC_OPS:
        name = f"ops.{op}"
        gmac = macs.get(name, 0) / 1e9
        t[f"{name}.gmac"] = gmac
        seconds = excl.get(name, 0.0) / 1e3
        t[f"{name}.gmac_per_s"] = gmac / seconds if seconds > 0 else 0.0
    for name in ("trainer.train", "search.run_sweep"):
        t[f"{name}.self_ms"] = excl.get(name, 0.0)
        t[f"{name}.calls"] = calls.get(name, 0)
    t["search.select.ms"] = sum(incl.get(n, 0.0) for n in SELECT_SPANS)
    t["search.select.calls"] = sum(calls.get(n, 0) for n in SELECT_SPANS)
    return t


def summarize(values, prefix: str) -> dict[str, float]:
    """`<prefix>.p50_ms`, `.tail_ms`, `.tail_pct` and `.samples` from seconds."""
    ms = sorted(v * 1e3 for v in values)
    picked = tail(ms)
    return {
        f"{prefix}.p50_ms": ms[_rank(500, len(ms)) - 1] if ms else 0.0,
        f"{prefix}.tail_ms": picked[1] if picked else 0.0,
        f"{prefix}.tail_pct": picked[0] if picked else 0.0,
        f"{prefix}.samples": len(ms),
    }
