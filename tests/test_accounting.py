import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from slimnet.accounting import analyze, diff_reports
from slimnet.golden import COMPARISON, GOLDEN_LEDGERS, check_against_golden
from slimnet.netspec import (
    PRESETS,
    LayerSpec,
    NetSpec,
    baseline_spec,
    dropped_conv2_spec,
    optimized_spec,
    propagate_shapes,
)


def rows_by_name(report):
    return {r.name: r for r in report.rows}


# --- golden cells: every number of the three reference ledgers ------------------


def test_baseline_ledger_exact():
    report = analyze(baseline_spec())
    rows = rows_by_name(report)
    assert (rows["input"].memory_elements, rows["input"].param_count) == (784, 0)
    assert (rows["conv1"].memory_elements, rows["conv1"].param_count) == (25088, 800)
    assert (rows["pool1"].memory_elements, rows["pool1"].param_count) == (6272, 0)
    assert (rows["conv2"].memory_elements, rows["conv2"].param_count) == (12544, 51200)
    assert (rows["pool2"].memory_elements, rows["pool2"].param_count) == (3136, 0)
    assert (rows["fc1"].memory_elements, rows["fc1"].param_count) == (1024, 3211264)
    assert (rows["fc2"].memory_elements, rows["fc2"].param_count) == (10, 10240)
    assert report.total_memory == 48858
    assert report.total_params == 3273504
    assert check_against_golden(report, "baseline") == []


def test_dropped_conv2_ledger_exact():
    report = analyze(dropped_conv2_spec())
    rows = rows_by_name(report)
    assert rows["fc1"].param_count == 6422528
    assert rows["fc2"].param_count == 10240
    assert report.total_params == 6433568
    assert report.total_memory == 33178
    assert check_against_golden(report, "dropped-conv2") == []


def test_optimized_ledger_exact():
    report = analyze(optimized_spec())
    rows = rows_by_name(report)
    assert (rows["conv1"].memory_elements, rows["conv1"].param_count) == (1568, 50)
    assert (rows["pool1"].memory_elements, rows["pool1"].param_count) == (98, 0)
    assert (rows["fc1"].memory_elements, rows["fc1"].param_count) == (128, 12544)
    assert (rows["fc2"].memory_elements, rows["fc2"].param_count) == (10, 1280)
    assert report.total_memory == 2588
    assert report.total_params == 13874
    assert check_against_golden(report, "optimized") == []


def test_known_misprints_are_flagged_not_matched():
    # the golden data asserts the computed 98 and 2,588, and carries notes
    golden = GOLDEN_LEDGERS["optimized"]
    assert any("7*7*4" in note for note in golden.notes)
    assert golden.total_memory == 2588  # not the rounded 2.5K
    assert GOLDEN_LEDGERS["baseline"].total_memory == 48858  # not 48.68K/48.65K
    assert any("48.65K" in note or "48.68K" in note for note in GOLDEN_LEDGERS["baseline"].notes)


def test_golden_check_catches_mismatch():
    report = analyze(optimized_spec())
    problems = check_against_golden(report, "baseline")
    assert problems  # wrong architecture must not silently pass


def test_view_layers_count_zero():
    rows = rows_by_name(analyze(baseline_spec()))
    assert rows["flatten"].memory_elements == 0 and rows["flatten"].param_count == 0
    assert rows["dropout"].memory_elements == 0 and rows["dropout"].param_count == 0


def test_count_params_single_cells():
    conv_only = analyze(NetSpec("c", (LayerSpec.input(28, 28, 1), LayerSpec.conv(5, 32))))
    assert [r.param_count for r in conv_only.rows] == [0, 800]
    assert [r.memory_elements for r in conv_only.rows] == [784, 25088]
    input_only = analyze(NetSpec("i", (LayerSpec.input(28, 28, 1),)))
    assert [r.memory_elements for r in input_only.rows] == [784]


def test_with_biases_convention():
    base = analyze(baseline_spec(), "paper_compat")
    honest = analyze(baseline_spec(), "with_biases")
    assert honest.total_params == base.total_params + 32 + 64 + 1024 + 10
    assert honest.total_memory == base.total_memory


def test_unknown_convention_rejected():
    with pytest.raises(ValueError, match="convention"):
        analyze(baseline_spec(), "flops")


# --- comparisons ------------------------------------------------------------------


def test_diff_ratio_matches_headline_claims():
    diff = diff_reports(analyze(baseline_spec()), analyze(optimized_spec()))
    assert diff.param_ratio == pytest.approx(235.945, abs=0.01)
    assert diff.memory_ratio == pytest.approx(18.879, abs=0.01)
    # the reported round figures derive from the exact / display totals
    assert round(diff.param_ratio) == COMPARISON["reported_param_ratio"]
    assert round(COMPARISON["memory_ratio_display"], 1) == COMPARISON["reported_memory_ratio"]


def test_display_ratio_from_rounded_totals():
    from slimnet.golden import display_ratio, parse_display_total

    assert parse_display_total("48.68K") == 48680
    assert parse_display_total("3.27M") == 3270000
    assert round(display_ratio("baseline", "optimized", "memory"), 1) == 19.5
    assert display_ratio("baseline", "dropped-conv2", "memory") is None  # no display totals recorded


def test_diff_identity():
    a = analyze(baseline_spec())
    diff = diff_reports(a, a)
    assert diff.param_ratio == 1.0 and diff.memory_ratio == 1.0


def test_diff_guards_zero_denominator():
    a = analyze(baseline_spec())
    empty = analyze(NetSpec("i", (LayerSpec.input(28, 28, 1),)))
    diff = diff_reports(a, empty)
    assert diff.param_ratio is None  # empty net has zero params
    assert diff.memory_ratio == pytest.approx(48858 / 784)


# --- structural properties ----------------------------------------------------------


def _appendable_layers(shape):
    out = []
    if len(shape) == 3:
        out += [LayerSpec.conv(3, 4), LayerSpec.conv(1, 2), LayerSpec.flatten(), LayerSpec.dropout(0.5)]
        if shape[0] % 2 == 0 and shape[1] % 2 == 0:
            out.append(LayerSpec.maxpool(2))
    else:
        out += [LayerSpec.dense(16), LayerSpec.dense(4), LayerSpec.dropout(0.5)]
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_monotone_accounting(data):
    spec = NetSpec("grow", (LayerSpec.input(16, 16, 2),))
    for _ in range(data.draw(st.integers(1, 6))):
        shape = propagate_shapes(spec)[-1]
        layer = data.draw(st.sampled_from(_appendable_layers(shape)))
        bigger = NetSpec("grow", spec.layers + (layer,))
        before = analyze(spec)
        after = analyze(bigger)
        assert after.total_memory >= before.total_memory
        if layer.kind in ("conv", "dense"):
            assert after.total_params > before.total_params
        else:
            assert after.total_params == before.total_params
        spec = bigger


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_with_biases_dominates_paper_compat(data):
    spec = NetSpec("grow", (LayerSpec.input(8, 8, 1),))
    for _ in range(data.draw(st.integers(0, 5))):
        shape = propagate_shapes(spec)[-1]
        spec = NetSpec("grow", spec.layers + (data.draw(st.sampled_from(_appendable_layers(shape))),))
    compat = analyze(spec, "paper_compat").total_params
    honest = analyze(spec, "with_biases").total_params
    has_parameterized = any(l.kind in ("conv", "dense") for l in spec.layers)
    assert honest >= compat
    assert (honest == compat) == (not has_parameterized)


# --- full ledger text: labels, filter text and formulas of every stock net ------

# sha256(render + "\n" + to_kv)[:16] per (preset, convention)
LEDGER_DIGESTS = {
    ("baseline", "paper_compat"): "8a8ffc1736c77c88",
    ("baseline", "with_biases"): "4d26886627255f95",
    ("dropped-conv2", "paper_compat"): "712da3860ad39331",
    ("dropped-conv2", "with_biases"): "618c7f8c5b3e7299",
    ("optimized", "paper_compat"): "8b74d359ed0f3ddc",
    ("optimized", "with_biases"): "c667a108eb58013e",
    ("optimized-3x3", "paper_compat"): "752c3b83d701b8a7",
    ("optimized-3x3", "with_biases"): "e0baff18adcab1ba",
}


def ledger_text(preset, convention):
    report = analyze(PRESETS[preset](), convention)
    return report.render() + "\n" + report.to_kv()


@pytest.mark.parametrize("convention", ["paper_compat", "with_biases"])
def test_baseline_ledger_text_pinned(convention):
    expected = {"paper_compat": BASELINE_PAPER_COMPAT, "with_biases": BASELINE_WITH_BIASES}[convention]
    assert ledger_text("baseline", convention) + "\n" == expected


@pytest.mark.parametrize("preset, convention", sorted(LEDGER_DIGESTS))
def test_stock_ledger_text_pinned(preset, convention):
    digest = hashlib.sha256(ledger_text(preset, convention).encode()).hexdigest()[:16]
    assert digest == LEDGER_DIGESTS[preset, convention]


BASELINE_PAPER_COMPAT = """\
Name     Type             Filter  Output Size  Memory            #Params
------------------------------------------------------------------------
input    Image                    28x28x1      28*28*1 =784      0
conv1    Convolution      5x5x1   28x28x32     28*28*32 =25,088  (5*5*1)*32 =800
pool1    Max Pooling      2x2     14x14x32     14*14*32 =6,272   0
conv2    Convolution      5x5x32  14x14x64     14*14*64 =12,544  (5*5*32)*64 =51,200
pool2    Max Pooling      2x2     7x7x64       7*7*64 =3,136     0
flatten  Flatten                  3136         0                 0
fc1      Fully Connected          1024         1,024             (7*7*64)*1024 =3,211,264
dropout  Dropout                  1024         0                 0
fc2      Fully Connected          10           10                1024*10 =10,240
total                                          48,858            3,273,504
spec=baseline
id=in28x28x1-c5.32-p2-c5.64-p2-fl-fc1024-do0.5-fc10
convention=paper_compat
layer.input.output=28x28x1
layer.input.memory=784
layer.input.params=0
layer.conv1.output=28x28x32
layer.conv1.memory=25088
layer.conv1.params=800
layer.pool1.output=14x14x32
layer.pool1.memory=6272
layer.pool1.params=0
layer.conv2.output=14x14x64
layer.conv2.memory=12544
layer.conv2.params=51200
layer.pool2.output=7x7x64
layer.pool2.memory=3136
layer.pool2.params=0
layer.flatten.output=3136
layer.flatten.memory=0
layer.flatten.params=0
layer.fc1.output=1024
layer.fc1.memory=1024
layer.fc1.params=3211264
layer.dropout.output=1024
layer.dropout.memory=0
layer.dropout.params=0
layer.fc2.output=10
layer.fc2.memory=10
layer.fc2.params=10240
total.memory=48858
total.params=3273504
"""

BASELINE_WITH_BIASES = """\
Name     Type             Filter  Output Size  Memory            #Params
------------------------------------------------------------------------
input    Image                    28x28x1      28*28*1 =784      0
conv1    Convolution      5x5x1   28x28x32     28*28*32 =25,088  (5*5*1)*32+32 =832
pool1    Max Pooling      2x2     14x14x32     14*14*32 =6,272   0
conv2    Convolution      5x5x32  14x14x64     14*14*64 =12,544  (5*5*32)*64+64 =51,264
pool2    Max Pooling      2x2     7x7x64       7*7*64 =3,136     0
flatten  Flatten                  3136         0                 0
fc1      Fully Connected          1024         1,024             (7*7*64)*1024+1024 =3,212,288
dropout  Dropout                  1024         0                 0
fc2      Fully Connected          10           10                1024*10+10 =10,250
total                                          48,858            3,274,634
spec=baseline
id=in28x28x1-c5.32-p2-c5.64-p2-fl-fc1024-do0.5-fc10
convention=with_biases
layer.input.output=28x28x1
layer.input.memory=784
layer.input.params=0
layer.conv1.output=28x28x32
layer.conv1.memory=25088
layer.conv1.params=832
layer.pool1.output=14x14x32
layer.pool1.memory=6272
layer.pool1.params=0
layer.conv2.output=14x14x64
layer.conv2.memory=12544
layer.conv2.params=51264
layer.pool2.output=7x7x64
layer.pool2.memory=3136
layer.pool2.params=0
layer.flatten.output=3136
layer.flatten.memory=0
layer.flatten.params=0
layer.fc1.output=1024
layer.fc1.memory=1024
layer.fc1.params=3212288
layer.dropout.output=1024
layer.dropout.memory=0
layer.dropout.params=0
layer.fc2.output=10
layer.fc2.memory=10
layer.fc2.params=10250
total.memory=48858
total.params=3274634
"""
