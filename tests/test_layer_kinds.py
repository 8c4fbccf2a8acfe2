"""A layer kind is one record in `netspec.KINDS`.

Average pooling is added here as a record written in this file, and
nothing else: the text format, the shape rule, the ledger and the network
all run it from that record.
"""

import numpy as np
import pytest

from slimnet import netspec, ops
from slimnet.accounting import analyze
from slimnet.gradcheck import max_rel_err, numerical_gradient
from slimnet.netspec import SpecError, parse_spec, propagate_shapes, serialize_spec, spec_id
from slimnet.network import backward, forward, init_params
from slimnet.rng import substream


def avgpool_shape(layer, shape, i):
    k = layer.window
    if len(shape) != 3 or shape[0] % k or shape[1] % k:
        raise SpecError(f"avgpool window {k} does not tile shape {shape}", layer=i)
    return (shape[0] // k, shape[1] // k, shape[2])


def avgpool_forward(layer, h, p, cache, rng):
    n, height, width, c = h.shape
    k = layer.window
    return h.reshape(n, height // k, k, width // k, k, c).mean(axis=(2, 4))


def avgpool_backward(layer, cache, g, p, input_grad):
    k = layer.window
    return np.repeat(np.repeat(g, k, axis=1), k, axis=2) / (k * k), None


AVGPOOL = netspec.LayerKind(
    fields=(("window", "window", int),),
    token="a{window}",
    label="Average Pooling",
    prefix="avgpool",
    numbered=True,
    shape=avgpool_shape,
    forward=avgpool_forward,
    backward=avgpool_backward,
    filter=lambda layer, in_shape: f"{layer.window}x{layer.window}",
)

SPEC_TEXT = """\
name: avg
input h=8 w=8 c=1
conv k=3 out=2
avgpool window=2
flatten
dense out=10
"""


@pytest.fixture
def spec(monkeypatch):
    monkeypatch.setitem(netspec.KINDS, "avgpool", AVGPOOL)
    return parse_spec(SPEC_TEXT)


def test_text_format_and_shape_rule_come_from_the_record(spec, monkeypatch):
    assert spec.layers[2].kind == "avgpool" and spec.layers[2].window == 2
    assert serialize_spec(spec) == SPEC_TEXT
    assert spec_id(spec) == "in8x8x1-c3.2-a2-fl-fc10"
    assert propagate_shapes(spec)[2:] == [(4, 4, 2), (32,), (10,)]
    with pytest.raises(SpecError, match="layer 2: avgpool window 3 does not tile"):
        propagate_shapes(parse_spec(SPEC_TEXT.replace("window=2", "window=3")))


def test_ledger_row_comes_from_the_record(spec):
    report = analyze(spec)
    row = report.row("avgpool1")
    assert (row.filter_desc, row.output_shape, row.memory_elements, row.memory_formula) == (
        "2x2", (4, 4, 2), 32, "4*4*2")
    assert (row.param_count, row.param_formula) == (0, "")
    assert report.row("fc1").param_formula == "(4*4*2)*10"  # the fan-in reads through flatten
    assert report.total_params == 3 * 3 * 1 * 2 + 32 * 10
    line = next(line for line in report.render().splitlines() if line.startswith("avgpool1"))
    assert line.split()[1:5] == ["Average", "Pooling", "2x2", "4x4x2"]


def test_network_runs_the_record_with_exact_gradients(spec):
    params = init_params(spec, substream(3, "init"))
    for p in params.values():  # Gaussian(0, 0.4^2)
        p.weights *= 4
        p.bias *= 4
    assert params.keys() == {"conv1", "fc1"}
    x = substream(4, "x").uniform(0.05, 1.0, size=(2, 8, 8, 1))
    labels = np.array([3, 7])
    logits, caches = forward(spec, params, x, training=True, dropout_rng=substream(3, "dropout"))
    assert caches[2] == {}  # the record keeps no array, and its backward reads the layer
    pooled = caches[1]["y"].reshape(2, 4, 2, 4, 2, 2).mean(axis=(2, 4))
    assert np.array_equal(caches[4]["x"], pooled.reshape(2, -1))
    assert forward(spec, params, x)[0].tobytes() == logits.tobytes()
    _, grad_logits = ops.softmax_xent(logits, labels)
    grads = backward(spec, params, caches, grad_logits)

    def loss_at(arr, value):
        saved = arr.copy()
        arr[...] = value
        out, _ = forward(spec, params, x)
        arr[...] = saved
        return ops.softmax_xent(out, labels)[0]

    for name, p in params.items():
        for arr, analytic in zip((p.weights, p.bias), grads[name]):
            numeric = numerical_gradient(lambda v: loss_at(arr, v), arr.copy())
            assert max_rel_err(analytic, numeric) <= 1e-4, name
