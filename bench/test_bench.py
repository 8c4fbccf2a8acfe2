"""Tests of the benchmark's own arithmetic and wiring.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import sys
from itertools import count
from pathlib import Path

import pytest

from spans import PER_LAYER, Span, Tracer, conv_macs, dense_macs, install, op_totals, self_times, \
    step_durations, summarize, tail

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_children():
    spans = [
        Span("train", 0.0, 10.0, -1),
        Span("forward", 1.0, 4.0, 0),
        Span("conv", 1.5, 3.0, 1),
        Span("backward", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, -1), Span("b", 2.0, 6.0, 0), Span("c", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_records_nesting_and_restores():
    ticks = count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Module:
        @staticmethod
        def inner(x):
            return x + 1

    def outer(x):
        return Module.inner(x) * 2

    tracer.patch(Module, "inner", "m.inner")
    traced_outer = tracer.wrap(outer, "m.outer")
    assert traced_outer(1) == 4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("m.outer", 0.0, 3.0, -1),
        ("m.inner", 1.0, 2.0, 0),
    ]
    assert self_times(tracer.spans) == [2.0, 1.0]
    tracer.restore()
    assert not hasattr(Module.inner, "__wrapped__")


@pytest.mark.parametrize("n, expected", [
    (19, None),          # p50 would leave only 9 samples beyond it
    (20, (50.0, 10)),    # rank 10 leaves exactly 10 beyond
    (39, (50.0, 20)),    # p75 is rank 30, only 9 beyond
    (40, (75.0, 30)),
    (100, (90.0, 90)),   # p95 is rank 95, only 5 beyond
    (200, (95.0, 190)),
    (1000, (99.0, 990)),  # p99.9 is rank 999, only 1 beyond
    (10000, (99.9, 9990)),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail(range(1, n + 1)) == expected


def test_summarize_reports_percentile_and_sample_count():
    out = summarize([i / 1000 for i in range(1, 101)], "trainer.step")
    assert out == {"trainer.step.p50_ms": pytest.approx(50.0), "trainer.step.tail_ms": pytest.approx(90.0),
                   "trainer.step.tail_pct": 90.0, "trainer.step.samples": 100}
    assert summarize([], "x") == {"x.p50_ms": 0.0, "x.tail_ms": 0.0, "x.tail_pct": 0.0, "x.samples": 0}


def test_mac_counts():
    # optimized conv1, one sample: 28*28 outputs, 5x5 kernel, 1 -> 2 channels
    assert conv_macs((28, 28, 1), (5, 5, 1, 2)) == 28 * 28 * 25 * 1 * 2 == 39_200
    assert conv_macs((50, 28, 28, 1), (5, 5, 1, 2)) == 50 * 39_200
    assert conv_macs((50, 14, 14, 32), (5, 5, 32, 64)) == 50 * 14 * 14 * 25 * 32 * 64
    assert dense_macs((392,), (392, 128)) == 392 * 128
    assert dense_macs((50, 392), (392, 128)) == 50 * 392 * 128


def test_step_durations_run_between_adam_ends():
    spans = [
        Span("trainer.train", 0.0, 10.0, -1),
        Span("trainer.init_adam_state", 0.5, 1.0, 0),
        Span("trainer.adam_step", 2.0, 2.5, 0),
        Span("trainer.adam_step", 3.0, 4.5, 0),
        Span("trainer.evaluate", 5.0, 9.0, 0),
    ]
    assert step_durations(spans) == pytest.approx([1.5, 2.0])


@pytest.fixture
def slimnet():
    sys.path.insert(0, str(ROOT / "src"))
    import slimnet as package
    from slimnet import accounting, container, mnist, netspec, network, ops, search, trainer

    return package


def test_traced_forward_counts_optimized_conv1_per_sample(slimnet):
    import numpy as np

    from slimnet import netspec, trainer

    spec = netspec.optimized_spec()
    params = trainer.init_params(spec, trainer.TrainConfig(), np.random.default_rng(0))
    tracer = Tracer()
    install(tracer, slimnet)
    try:
        trainer.forward(spec, params, np.zeros((1, 28, 28, 1)), training=False)
    finally:
        tracer.restore()
    conv = [s for s in tracer.spans if s.name == "ops.conv2d_forward"]
    assert [s.macs for s in conv] == [39_200]
    assert conv[0].parent == 0 and tracer.spans[0].name == "network.forward.eval"
    totals = op_totals(tracer.spans)
    assert totals["network.forward.eval_calls"] == 1
    assert totals["ops.conv2d_forward.calls"] == 0  # eval work is not counted as a training step's


def test_tracing_changes_no_trained_bytes(slimnet):
    from slimnet import synth, trainer

    spec = slimnet.optimized_spec()
    data = synth.synthetic_splits(n_train=200, n_validation=50, n_test=100, seed=3)
    config = trainer.TrainConfig(iterations=5, seed=3)
    plain = trainer.train(spec, data, config)
    tracer = Tracer()
    install(tracer, slimnet)
    try:
        traced = trainer.train(spec, data, config)
    finally:
        tracer.restore()
    for name, p in plain.params.items():
        assert p.weights.tobytes() == traced.params[name].weights.tobytes()
    totals = op_totals(tracer.spans)
    assert totals["trainer.adam_step.calls"] == 5
    assert totals["network.forward.train_calls"] == 5
    assert len(step_durations(tracer.spans)) == 5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "run_cpu_s", "peak_rss_mb", "ok_share"]
    assert [w["name"] for w in spec["workloads"]] == ["train-optimized", "train-dropped-conv2", "sweep"]
