"""The inference forward keeps no caches and backward stops at the first
layer with weights; both must reproduce the full computations bit for bit."""

from pathlib import Path

import numpy as np
import pytest

from slimnet import ops
from slimnet.netspec import LayerSpec, NetSpec, load_spec
from slimnet.network import backward, forward, init_params
from slimnet.rng import substream

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))


def dense_only_spec():
    return NetSpec("dense-only", (LayerSpec.input(28, 28, 1), LayerSpec.flatten(), LayerSpec.dense(10)))


def tie_heavy_batch(n, seed):
    """Pixels on a four-level grid, two thirds of them exactly zero.

    With negative biases the zero regions give runs of ReLU zeros, and the
    grid gives equal conv outputs, so pooling windows tie often.
    """
    rng = np.random.default_rng(seed)
    x = rng.integers(1, 4, size=(n, 28, 28, 1)) / 3.0
    x[rng.uniform(size=x.shape) < 2 / 3] = 0.0
    return x


def full_backward(spec, params, caches, g):
    """Reference: every layer and every input gradient, down to the image."""
    grads = {}
    for layer, cache in zip(reversed(spec.layers), reversed(caches)):
        if layer.kind in ("conv", "dense"):
            if "z" in cache:
                g = ops.relu_backward(cache["z"], g)
            op = ops.conv2d_backward if layer.kind == "conv" else ops.dense_backward
            g, gw, gb = op(cache["x"], params[cache["name"]], g)
            grads[cache["name"]] = (gw, gb)
        elif layer.kind == "maxpool":
            g = ops.maxpool_backward(g, cache["argmax"], cache["window"])
        elif layer.kind == "flatten":
            g = g.reshape(cache["shape"])
        elif layer.kind == "dropout" and cache["training"] and cache["keep"] < 1.0:
            g = ops.dropout_backward(g, cache["mask"], cache["keep"])
    return grads, g


@pytest.mark.parametrize("activation", ["relu", "none"])
@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_cache_free_forward_gives_identical_logits(path, activation):
    spec = load_spec(path)
    params = init_params(spec, substream(5, "init"), bias_constant=-0.1)
    x = tie_heavy_batch(13, seed=3)
    before = x.copy()
    logits, caches = forward(spec, params, x, activation=activation)
    free, none = forward(spec, params, x, activation=activation, keep_caches=False)
    assert none is None
    assert free.tobytes() == logits.tobytes()
    assert x.tobytes() == before.tobytes()
    if activation == "relu":
        assert (caches[1]["z"] <= 0).mean() > 0.5  # the input is tie-heavy after conv1's ReLU


@pytest.mark.parametrize("spec", [*map(load_spec, SPECS), dense_only_spec()], ids=lambda s: s.name)
def test_backward_stops_at_first_weights_with_identical_gradients(spec):
    params = init_params(spec, substream(7, "init"))
    x = tie_heavy_batch(6, seed=4)
    logits, caches = forward(spec, params, x, training=True, dropout_rng=substream(7, "dropout"))
    _, g = ops.softmax_xent(logits, np.eye(10)[np.arange(6)])
    grads, grad_input = backward(spec, params, caches, g)
    ref, ref_input = full_backward(spec, params, caches, g)
    assert grad_input is None and ref_input.shape == x.shape
    assert grads.keys() == ref.keys() == params.keys()
    for name, (gw, gb) in ref.items():
        assert grads[name][0].tobytes() == gw.tobytes(), name
        assert grads[name][1].tobytes() == gb.tobytes(), name
