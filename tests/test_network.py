"""The inference forward keeps no caches and backward stops at the first
layer with weights; both must reproduce the full computations bit for bit."""

from pathlib import Path

import numpy as np
import pytest

from slimnet import network, ops
from slimnet.netspec import LayerSpec, NetSpec, layer_names, load_spec
from slimnet.network import backward, forward, init_params
from slimnet.rng import substream
from slimnet.synth import synthetic_corpus, synthetic_splits
from tests.conftest import pixel_spec, whole_batch_forward

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


def negative_bias_params(spec, seed):
    """The stock Gaussian draw with every bias then set to -0.1."""
    params = init_params(spec, substream(seed, "init"))
    for p in params.values():
        p.bias[:] = -0.1
    return params


def full_backward(spec, params, caches, g):
    """Reference: every layer and every input gradient, down to the image."""
    grads = {}
    names = layer_names(spec)
    for layer, name, cache in reversed(list(zip(spec.layers, names, caches))):
        if layer.kind in ("conv", "dense"):
            if name != names[-1]:  # ReLU follows every layer with weights but the last
                g = ops.relu_backward(cache["y"], g)
            op = ops.conv2d_backward if layer.kind == "conv" else ops.dense_backward
            g, gw, gb = op(cache["x"], params[name], g)
            grads[name] = (gw, gb)
        elif layer.kind == "maxpool":
            g = ops.maxpool_backward(g, cache["argmax"], layer.window)
        elif layer.kind == "flatten":
            g = g.reshape(cache["x"].shape)
        elif layer.kind == "dropout" and "mask" in cache:
            g = ops.dropout_backward(g, cache["mask"], layer.keep_prob)
    return grads, g


# A batch of at least three evaluation chunks and an odd tail, per stock spec
# (chunks of 52, 4, 142 and 4 images).
CHUNKED_BATCH = {"optimized": 1000, "dropped-conv2": 1000, "optimized-3x3": 1000, "baseline": 61}


@pytest.mark.parametrize("path", SPECS, ids=lambda p: f"{p.stem}-relu")
def test_cache_free_forward_gives_identical_logits(path):
    spec = load_spec(path)
    params = negative_bias_params(spec, 5)
    for n in (13, CHUNKED_BATCH[path.stem]):
        x = tie_heavy_batch(n, seed=3)
        before = x.copy()
        logits, caches = whole_batch_forward(spec, params, x)
        free, none = forward(spec, params, x)
        assert none is None
        assert free.tobytes() == logits.tobytes(), n
        assert x.tobytes() == before.tobytes()
        assert (caches[1]["y"] <= 0).mean() > 0.5  # the input is tie-heavy after conv1's ReLU


@pytest.mark.parametrize("n, seen", [(1000, [52] * 20), (205, [52] * 4), (3, [3])])
def test_evaluation_runs_the_convs_a_chunk_of_images_at_a_time(n, seen, monkeypatch):
    spec = load_spec(SPECS[-1])
    assert spec.name == "optimized"
    params = init_params(spec, substream(15, "init"))
    x = np.random.default_rng(15).integers(0, 256, size=(n, 28, 28, 1), dtype=np.uint8)
    expected, _ = whole_batch_forward(spec, params, x)
    batches, outs = [], []
    real = ops.conv2d_forward

    def spy(h, p, **kwargs):
        batches.append(len(h))
        outs.append(kwargs["out"])
        return real(h, p, **kwargs)

    monkeypatch.setattr(ops, "conv2d_forward", spy)
    logits, _ = forward(spec, params, x)
    assert batches == seen  # the last chunk ends at the batch's end; a batch under one chunk is one call
    assert all(a is b for out in outs for a, b in zip(out, outs[0]))  # one set of arrays per call
    assert logits.tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", [*map(load_spec, SPECS), dense_only_spec()], ids=lambda s: s.name)
def test_backward_stops_at_first_weights_with_identical_gradients(spec):
    params = init_params(spec, substream(7, "init"))
    x = tie_heavy_batch(6, seed=4)
    logits, caches = forward(spec, params, x, training=True, dropout_rng=substream(7, "dropout"))
    _, g = ops.softmax_xent(logits, np.arange(6))
    g_before = g.copy()
    grads = backward(spec, params, caches, g)
    assert g.tobytes() == g_before.tobytes()  # the caller's grad_logits is not written
    ref, ref_input = full_backward(spec, params, caches, g)
    assert ref_input.shape == x.shape
    assert grads.keys() == ref.keys() == params.keys()
    for name, (gw, gb) in ref.items():
        assert grads[name][0].tobytes() == gw.tobytes(), name
        assert grads[name][1].tobytes() == gb.tobytes(), name


def test_training_forward_keeps_one_array_per_activated_layer():
    spec = NetSpec(
        "stacked",
        (
            LayerSpec.input(8, 8, 1),
            LayerSpec.conv(3, 2),
            LayerSpec.conv(3, 3),
            LayerSpec.flatten(),
            LayerSpec.dense(16),
            LayerSpec.dense(12),
            LayerSpec.dense(10),
        ),
    )
    params = init_params(spec, substream(8, "init"))
    x = np.random.default_rng(8).normal(size=(4, 8, 8, 1))
    _, caches = forward(spec, params, x, training=True, dropout_rng=substream(8, "dropout"))
    conv, dense = {"x", "pad", "cols", "y"}, {"x", "y"}
    assert [c.keys() for c in caches] == [{"y"}, conv, conv, {"x"}, dense, dense, dense]
    assert caches[2]["x"] is caches[1]["y"]  # conv1 -> conv2
    assert caches[5]["x"] is caches[4]["y"]  # fc1 -> fc2
    assert np.shares_memory(caches[4]["x"], caches[2]["y"])  # conv2 -> flatten -> fc1
    assert all((caches[i]["y"] >= 0).all() for i in (1, 2, 4, 5))  # ReLU ran in place on each output
    assert (caches[6]["y"] < 0).any()  # but the logits


def test_evaluation_forward_skips_dropout(monkeypatch):
    spec = load_spec(SPECS[0])
    assert any(layer.kind == "dropout" for layer in spec.layers)
    params = init_params(spec, substream(9, "init"))
    x = tie_heavy_batch(5, seed=9)
    expected, _ = whole_batch_forward(spec, params, x)

    def no_dropout(*args, **kwargs):
        raise AssertionError("ops.dropout called in evaluation mode")

    monkeypatch.setattr(ops, "dropout", no_dropout)
    logits, caches = forward(spec, params, x)
    assert logits.tobytes() == expected.tobytes()
    assert caches is None


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_a_training_cache_holds_only_the_arrays_forward_made(path):
    spec = load_spec(path)
    params = init_params(spec, substream(16, "init"))
    _, caches = forward(spec, params, tie_heavy_batch(3, seed=16), training=True,
                        dropout_rng=substream(16, "dropout"))
    assert len(caches) == len(spec.layers)
    for layer, cache in zip(spec.layers, caches):
        assert all(isinstance(value, np.ndarray) for value in cache.values()), layer.kind
        assert not cache.keys() & {"kind", "name", "window", "keep", "training", "shape"}, layer.kind


@pytest.mark.parametrize("uint8_pixels", [True, False])
def test_a_training_forward_without_a_dropout_rng_raises_before_any_layer_runs(uint8_pixels, monkeypatch):
    spec = dense_only_spec()
    params = init_params(spec, substream(17, "init"))
    x = tie_heavy_batch(2, seed=17)
    if uint8_pixels:
        x = np.round(x * 255).astype(np.uint8)

    def no_layer(*args, **kwargs):
        raise AssertionError("a layer ran")

    monkeypatch.setattr(network, "_decode", no_layer)
    monkeypatch.setattr(ops, "dense_forward", no_layer)
    with pytest.raises(ValueError, match="dropout_rng"):
        forward(spec, params, x, training=True)


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_cached_cols_give_the_recomputed_conv_gradients(path, input_grad):
    spec = load_spec(path)
    params = negative_bias_params(spec, 6)
    _, caches = forward(spec, params, tie_heavy_batch(5, seed=6), training=True, dropout_rng=substream(6, "dropout"))
    convs = [(name, c) for layer, name, c in zip(spec.layers, layer_names(spec), caches) if layer.kind == "conv"]
    assert convs
    rng = np.random.default_rng(6)
    for name, cache in convs:
        p, g = params[name], rng.normal(size=cache["y"].shape)
        cached = ops.conv2d_backward(cache["x"], p, g, input_grad=input_grad, cols=cache["cols"])
        rebuilt = ops.conv2d_backward(cache["x"], p, g, input_grad=input_grad)
        assert [a if a is None else a.tobytes() for a in cached] == [
            a if a is None else a.tobytes() for a in rebuilt], name


def test_relu_backward_runs_in_place_on_the_chain_gradient(monkeypatch):
    spec = load_spec(SPECS[0])
    params = init_params(spec, substream(10, "init"))
    logits, caches = forward(spec, params, tie_heavy_batch(4, seed=10), training=True,
                             dropout_rng=substream(10, "dropout"))
    _, g = ops.softmax_xent(logits, np.arange(4))
    expected = {k: [a.tobytes() for a in v] for k, v in backward(spec, params, caches, g.copy()).items()}
    calls = []
    real = ops.relu_backward

    def spy(x, grad_out, out=None):
        calls.append(out is grad_out)
        return real(x, grad_out, out=out)

    monkeypatch.setattr(ops, "relu_backward", spy)
    g_before = g.copy()
    grads = backward(spec, params, caches, g)
    assert calls and all(calls)
    assert g.tobytes() == g_before.tobytes()
    assert {k: [a.tobytes() for a in v] for k, v in grads.items()} == expected


def test_backward_never_writes_grad_logits_through_a_trailing_view_layer():
    # Below a trailing dropout the first ReLU gradient arrives as grad_logits itself.
    spec = NetSpec("dense-dropout", (LayerSpec.input(4, 4, 1), LayerSpec.flatten(), LayerSpec.dense(10),
                                     LayerSpec.dropout(1.0)))
    params = {"fc1": ops.Params(np.random.default_rng(11).normal(size=(16, 10)), np.zeros(10))}
    x = np.random.default_rng(12).normal(size=(3, 4, 4, 1))
    _, caches = forward(spec, params, x, training=True, dropout_rng=substream(11, "dropout"))
    g = np.random.default_rng(13).normal(size=(3, 10))
    g_before = g.copy()
    (gw, gb), = backward(spec, params, caches, g).values()
    assert g.tobytes() == g_before.tobytes()
    _, ref_w, ref_b = ops.dense_backward(caches[2]["x"], params["fc1"], ops.relu_backward(caches[2]["y"], g_before))
    assert gw.tobytes() == ref_w.tobytes() and gb.tobytes() == ref_b.tobytes()


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_a_training_step_builds_each_im2col_once(path, monkeypatch):
    spec = load_spec(path)
    params = init_params(spec, substream(14, "init"))
    built = []
    real = ops._im2col

    def counting(*args):
        built.append(args[1:])
        return real(*args)

    monkeypatch.setattr(ops, "_im2col", counting)
    logits, caches = forward(spec, params, tie_heavy_batch(3, seed=14), training=True,
                             dropout_rng=substream(14, "dropout"))
    convs = sum(layer.kind == "conv" for layer in spec.layers)
    assert len(built) == convs
    backward(spec, params, caches, ops.softmax_xent(logits, np.arange(3))[1])
    assert len(built) == convs


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_uint8_pixels_give_the_logits_of_their_float_twin(path):
    spec = load_spec(path)
    params = negative_bias_params(spec, 6)
    pixels = np.random.default_rng(4).integers(0, 256, size=(6, 28, 28, 1), dtype=np.uint8)
    pixels[0, :2, :2, 0] = (0, 255), (1, 254)
    twin = np.divide(pixels, 255.0, dtype=np.float64)
    before = pixels.copy()
    a, _ = forward(spec, params, pixels)
    b, _ = forward(spec, params, twin)
    assert a.tobytes() == b.tobytes()
    a, caches_a = forward(spec, params, pixels, training=True, dropout_rng=substream(2, "dropout"))
    b, caches_b = forward(spec, params, twin, training=True, dropout_rng=substream(2, "dropout"))
    assert a.tobytes() == b.tobytes()
    grads_a = backward(spec, params, caches_a, np.ones_like(a) / len(a))
    grads_b = backward(spec, params, caches_b, np.ones_like(b) / len(b))
    for name in grads_b:
        assert all(x.tobytes() == y.tobytes() for x, y in zip(grads_a[name], grads_b[name]))
    np.testing.assert_array_equal(pixels, before)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_empty_batch_gives_empty_logits(path, training):
    spec = load_spec(path)
    logits, _ = forward(spec, init_params(spec, substream(0, "init")), np.zeros((0, 28, 28, 1), np.uint8),
                        training=training, dropout_rng=substream(0, "dropout"))
    assert logits.shape == (0, 10)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.int8])
def test_integer_input_other_than_uint8_raises(dtype):
    x = np.full((2, 28, 28, 1), 100, dtype=dtype)
    with pytest.raises(TypeError, match=f"got {np.dtype(dtype)}"):
        forward(pixel_spec(), {}, x)


def test_uint8_pixels_decode_to_the_old_synthetic_floats():
    splits = synthetic_splits(n_train=300, n_validation=40, n_test=50, seed=3)
    train_images, _, test_images, _ = synthetic_corpus(340, 50, seed=3)
    old_train = train_images.astype(np.float64)[..., None] / 255.0
    old_test = test_images.astype(np.float64)[..., None] / 255.0
    for split, old in ((splits.train, old_train[:300]), (splits.validation, old_train[300:]),
                       (splits.test, old_test)):
        assert split.images.dtype == np.uint8
        decoded, _ = forward(pixel_spec(), {}, split.images)
        assert decoded.tobytes() == old.reshape(len(old), -1).tobytes()
