import dataclasses
import math
import re
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from slimnet import network, trainer
from slimnet.container import load_checkpoint, save_checkpoint
from slimnet.mnist import Dataset, DataSplits
from slimnet.netspec import (
    LayerSpec,
    NetSpec,
    baseline_spec,
    dropped_conv2_spec,
    layer_names,
    load_spec,
    optimized_3x3_spec,
    optimized_spec,
    parse_spec,
    propagate_shapes,
)
from slimnet.network import backward, forward, param_arrays
from slimnet.ops import Params, softmax_xent
from slimnet.rng import substream
from slimnet.synth import synthetic_splits
from slimnet.trainer import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_BLOCK,
    _ADAM_EPSILON,
    AdamState,
    ConfigError,
    Run,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    evaluate,
    init_adam_state,
    init_params,
    train,
)
from tests.conftest import peak_alloc_bytes, whole_batch_forward

SPEC_PATHS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.spec"))


def tiny_spec():
    return NetSpec(
        "tiny",
        (
            LayerSpec.input(8, 8, 1),
            LayerSpec.conv(3, 2),
            LayerSpec.maxpool(2),
            LayerSpec.flatten(),
            LayerSpec.dense(10),
        ),
    )


def tiny_data(n_train=120, n_test=60, seed=0):
    rng = np.random.default_rng(seed)

    def split(n):
        return Dataset(rng.uniform(size=(n, 8, 8, 1)), rng.integers(0, 10, n))

    return DataSplits(train=split(n_train), validation=split(30), test=split(n_test))


def tiny_dropout_spec():
    return NetSpec(
        "tiny-dropout",
        (
            LayerSpec.input(8, 8, 1),
            LayerSpec.conv(3, 2),
            LayerSpec.maxpool(2),
            LayerSpec.flatten(),
            LayerSpec.dense(16),
            LayerSpec.dropout(0.5),
            LayerSpec.dense(10),
        ),
    )


# --- config -----------------------------------------------------------------


def test_defaults_match_protocol():
    cfg = TrainConfig()
    assert cfg.learning_rate == 1e-4
    assert cfg.batch_size == 50
    assert cfg.iterations == 20000
    assert (_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON) == (0.9, 0.999, 1e-8)
    # every weight and bias is drawn Gaussian(0, 0.1^2), weights first, in layer order
    params = init_params(tiny_spec(), cfg, substream(9, "init"))
    draw = substream(9, "init")
    for _, arr in param_arrays(params):
        assert arr.tobytes() == draw.normal(0.0, 0.1, size=arr.shape).tobytes()


def test_schedule_id_names_every_field_that_changes_a_trained_result():
    # seed is derived per candidate and the traces change no trained byte;
    # a field added later that is not in the id would let a sweep resume
    # records trained under another protocol
    base = TrainConfig()
    named = {"learning_rate": 3e-4, "batch_size": 20, "iterations": 150}
    unnamed = {"seed", "eval_every", "loss_log_every"}
    assert {f.name for f in dataclasses.fields(TrainConfig)} == named.keys() | unnamed
    for field, value in named.items():
        assert dataclasses.replace(base, **{field: value}).schedule_id() != base.schedule_id(), field
    for field in unnamed:
        assert dataclasses.replace(base, **{field: 7}).schedule_id() == base.schedule_id(), field


def test_schedule_id_tells_apart_learning_rates_that_g_would_merge():
    assert TrainConfig().schedule_id() == "it20000-bs50-lr0.0001"
    assert TrainConfig(learning_rate=1.0000001e-4).schedule_id() == "it20000-bs50-lr0.00010000001"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"eval_every": -1},
        {"loss_log_every": -1},
        {"batch_size": 0},
        {"iterations": -1},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"batch_size": 2.5},
        {"iterations": True},
        {"seed": 1.0},
        {"eval_every": "1"},
        {"loss_log_every": None},
        {"learning_rate": "0.001"},
        {"learning_rate": True},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs).validate()


@pytest.mark.parametrize("field", ["eval_every", "loss_log_every"])
@pytest.mark.parametrize("value", [-1, -2])
def test_negative_step_intervals_are_rejected(field, value):
    # `it % -1 == 0` would score or log after every step
    config = TrainConfig(iterations=3, batch_size=10, **{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be >= 0, got {value}"):
        config.validate()
    with pytest.raises(ConfigError):
        train(tiny_spec(), tiny_data(), config)
    TrainConfig(**{field: 0}).validate()  # 0 turns the trace off


# --- init --------------------------------------------------------------------


def test_init_deterministic():
    spec = optimized_spec()
    a = init_params(spec, TrainConfig(), substream(5, "init"))
    b = init_params(spec, TrainConfig(), substream(5, "init"))
    for (na, ta), (nb, tb) in zip(param_arrays(a), param_arrays(b)):
        assert na == nb
        np.testing.assert_array_equal(ta, tb)


def test_init_gaussian_statistics():
    spec = NetSpec(
        "wide", (LayerSpec.input(10, 10, 1), LayerSpec.flatten(), LayerSpec.dense(100), LayerSpec.dense(10))
    )
    params = init_params(spec, TrainConfig(), substream(6, "init"))
    w = params["fc1"].weights.ravel()
    assert w.size == 10000
    assert abs(w.mean() - 0.0) <= 0.01
    assert abs(w.std() - 0.1) <= 0.01


def test_init_baseline_parameter_shapes_match_ledger_rows():
    params = init_params(baseline_spec(), TrainConfig(), substream(1, "init"))
    assert params["conv1"].weights.shape == (5, 5, 1, 32)
    assert params["conv2"].weights.shape == (5, 5, 32, 64)
    assert params["fc1"].weights.shape == (3136, 1024)
    assert params["fc2"].weights.shape == (1024, 10)
    counted = sum(arr.size for _, arr in param_arrays(params))
    assert counted == 3273504 + 32 + 64 + 1024 + 10  # ledger params + biases


# --- adam ---------------------------------------------------------------------


def scalar_setup(g):
    spec = NetSpec("s", (LayerSpec.input(1, 1, 1), LayerSpec.flatten(), LayerSpec.dense(10)))
    params = init_params(spec, TrainConfig(), substream(3, "init"))
    grads = {"fc1": (np.full_like(params["fc1"].weights, g), np.zeros_like(params["fc1"].bias))}
    return params, grads


def test_adam_zero_gradient_leaves_params():
    params, _ = scalar_setup(0.0)
    grads = {"fc1": (np.zeros_like(params["fc1"].weights), np.zeros_like(params["fc1"].bias))}
    state = init_adam_state(params)
    before = params["fc1"].weights.copy()
    adam_step(params, grads, state, TrainConfig())
    np.testing.assert_array_equal(params["fc1"].weights, before)
    assert state.t == 1


def test_adam_first_step_magnitude():
    lr = 1e-4
    params, grads = scalar_setup(0.37)
    state = init_adam_state(params)
    before = params["fc1"].weights.copy()
    adam_step(params, grads, state, TrainConfig(learning_rate=lr))
    delta = before - params["fc1"].weights
    expected = lr / (1 + 1e-8 / 0.37)
    np.testing.assert_allclose(delta, expected, rtol=1e-12)


def test_adam_two_steps_match_hand_rolled_oracle():
    lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-8
    g = -0.8
    params, grads = scalar_setup(g)
    theta0 = params["fc1"].weights.copy()
    state = init_adam_state(params)
    cfg = TrainConfig(learning_rate=lr)
    adam_step(params, grads, state, cfg)
    adam_step(params, grads, state, cfg)

    # independent scalar recurrence
    theta, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    np.testing.assert_allclose(params["fc1"].weights - theta0, theta, atol=1e-12)
    assert state.t == 2


def test_adam_rejects_nan_grads_naming_layer():
    params, grads = scalar_setup(1.0)
    grads["fc1"] = (np.full_like(params["fc1"].weights, np.nan), grads["fc1"][1])
    with pytest.raises(TrainingDiverged, match="fc1.w"):
        adam_step(params, grads, init_adam_state(params), TrainConfig())


def reference_adam_step(params, grads, state, config):
    """The out-of-place update, in its original operation order."""
    t = state.t + 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = config.learning_rate
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        gw, gb = grads[name]
        updated = []
        for suffix, arr, g in (("w", p.weights, gw), ("b", p.bias, gb)):
            key = f"{name}.{suffix}"
            m = b1 * state.m[key] + (1 - b1) * g
            v = b2 * state.v[key] + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            updated.append(arr - lr * m_hat / (np.sqrt(v_hat) + eps))
            new_m[key] = m
            new_v[key] = v
        new_params[name] = type(p)(*updated)
    return new_params, AdamState(m=new_m, v=new_v, t=t)


def make_grads(params, kind, rng):
    def one(arr):
        if kind == "zero":
            return np.zeros_like(arr)
        if kind == "random":
            return rng.normal(0.0, 0.01, arr.shape)
        # sign-mixed: alternating signs over 15 decades of magnitude, with signed zeros
        g = rng.uniform(1.0, 2.0, arr.shape) * 10.0 ** rng.integers(-12, 4, arr.shape)
        g.flat[1::2] *= -1
        g.flat[::5] = 0.0
        g.flat[2::5] = -0.0
        return g

    return {name: (one(p.weights), one(p.bias)) for name, p in params.items()}


def optimizer_arrays(params, state):
    """Every array an Adam step writes, keyed by name."""
    arrays = dict(param_arrays(params))
    arrays.update({f"m.{k}": a for k, a in state.m.items()})
    arrays.update({f"v.{k}": a for k, a in state.v.items()})
    return arrays


def assert_same_bits(ours: dict, theirs: dict):
    assert ours.keys() == theirs.keys()
    for key, a in ours.items():
        b = theirs[key]
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)), key


@pytest.mark.parametrize("kind", ["random", "zero", "sign-mixed"])
@pytest.mark.parametrize("spec_path", SPEC_PATHS, ids=lambda p: p.stem)
def test_adam_in_place_is_bit_identical_to_reference(spec_path, kind):
    cfg = TrainConfig()
    params = init_params(load_spec(spec_path), cfg, substream(21, "init"))
    state = init_adam_state(params)
    ref_params = {n: type(p)(p.weights.copy(), p.bias.copy()) for n, p in params.items()}
    ref_state = init_adam_state(ref_params)
    rng = np.random.default_rng(5)
    for step_kind in ("random", kind, kind, kind):  # a first random step makes the moments nonzero
        grads = make_grads(params, step_kind, rng)
        adam_step(params, grads, state, cfg)
        ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, cfg)
        assert state.t == ref_state.t
        assert_same_bits(optimizer_arrays(params, state), optimizer_arrays(ref_params, ref_state))


def test_adam_step_writes_into_the_callers_arrays():
    params = init_params(optimized_spec(), TrainConfig(), substream(22, "init"))
    state = init_adam_state(params)
    arrays = optimizer_arrays(params, state)
    before = {k: a.copy() for k, a in arrays.items()}
    assert adam_step(params, make_grads(params, "random", np.random.default_rng(1)), state, TrainConfig()) is None
    assert state.t == 1
    after = optimizer_arrays(params, state)
    for key, arr in arrays.items():
        assert after[key] is arr, key
        assert not np.array_equal(arr, before[key]), key


@pytest.mark.parametrize(
    "key, fault, error",
    [
        ("fc2.b", np.nan, TrainingDiverged),  # the last tensor updated
        ("fc1.w", np.inf, TrainingDiverged),
        ("conv1.w", -np.inf, TrainingDiverged),
        ("fc1.b", "shape", ValueError),
    ],
)
def test_adam_bad_gradient_raises_before_any_write(key, fault, error):
    assert_bad_gradient_raises_before_any_write(optimized_spec(), key, fault, error)


def test_adam_nan_in_the_last_block_raises_before_any_write():
    spec = dropped_conv2_spec()
    assert init_params(spec, TrainConfig(), substream(23, "init"))["fc1"].weights.size > 3 * _ADAM_BLOCK
    assert_bad_gradient_raises_before_any_write(spec, "fc1.w", np.nan, TrainingDiverged)


def assert_bad_gradient_raises_before_any_write(spec, key, fault, error):
    """Put `fault` into the last element of `key`'s gradient (or cut it short) on step 2."""
    params = init_params(spec, TrainConfig(), substream(23, "init"))
    state = init_adam_state(params)
    rng = np.random.default_rng(2)
    adam_step(params, make_grads(params, "random", rng), state, TrainConfig())
    grads = make_grads(params, "random", rng)
    name, suffix = key.split(".")
    gw, gb = grads[name]
    if fault == "shape":
        gb = gb[:-1]
    elif suffix == "w":
        gw.flat[-1] = fault
    else:
        gb.flat[-1] = fault
    grads[name] = (gw, gb)
    before = {k: a.copy() for k, a in optimizer_arrays(params, state).items()}
    with pytest.raises(error, match=re.escape(key)):
        adam_step(params, grads, state, TrainConfig())
    assert state.t == 1
    assert_same_bits(optimizer_arrays(params, state), before)


def one_tensor_setup(weights):
    """A lone dense layer holding `weights`, with C-ordered zero moments."""
    params = {"fc1": Params(weights, np.zeros(weights.shape[1]))}
    arrays = dict(param_arrays(params))
    return params, AdamState(m={k: np.zeros(a.shape) for k, a in arrays.items()},
                             v={k: np.zeros(a.shape) for k, a in arrays.items()})


@pytest.mark.parametrize(
    "shape, order",
    [
        ((1, 1), "C"),
        ((_ADAM_BLOCK - 1, 1), "C"),
        ((_ADAM_BLOCK, 1), "C"),
        ((1, _ADAM_BLOCK + 1), "C"),
        ((3 * _ADAM_BLOCK + 7, 1), "C"),
        ((129, 400), "F"),  # more than three blocks, not contiguous in the moments' order
    ],
    ids=["1", "B-1", "B", "B+1", "3B+7", "F-ordered"],
)
def test_blocked_adam_is_bit_identical_at_block_edges(shape, order):
    rng = np.random.default_rng(6)
    params, state = one_tensor_setup(np.asarray(rng.normal(0.0, 0.1, shape), order=order))
    arrays = optimizer_arrays(params, state)
    assert params["fc1"].weights.flags.c_contiguous == (order == "C")
    ref_params = {"fc1": Params(params["fc1"].weights.copy(), params["fc1"].bias.copy())}
    ref_state = init_adam_state(ref_params)
    for step_kind in ("random", "sign-mixed", "zero", "random"):
        grads = make_grads(params, step_kind, rng)
        adam_step(params, grads, state, TrainConfig())
        ref_params, ref_state = reference_adam_step(ref_params, grads, ref_state, TrainConfig())
        after = optimizer_arrays(params, state)
        assert all(after[key] is arr for key, arr in arrays.items())
        assert_same_bits(after, optimizer_arrays(ref_params, ref_state))
    assert state.t == 4


def test_adam_step_allocates_no_parameter_sized_scratch():
    params = init_params(dropped_conv2_spec(), TrainConfig(), substream(24, "init"))
    state = init_adam_state(params)
    grads = make_grads(params, "random", np.random.default_rng(4))
    assert params["fc1"].weights.nbytes > 48 * 2**20
    assert peak_alloc_bytes(lambda: adam_step(params, grads, state, TrainConfig())) < 2**20


def test_evaluation_in_train_runs_after_the_run_has_freed_its_working_set(monkeypatch):
    refs, evaluations = [], []
    real_backward, real_evaluate = trainer.backward, trainer.evaluate

    def recording_backward(spec, params, caches, grad_logits):
        grads = real_backward(spec, params, caches, grad_logits)
        assert caches is run._caches and len(caches) == len(spec.layers)
        refs.extend(weakref.ref(a) for cache in caches for a in cache.values())  # activations and gradients
        return grads

    def checking_evaluate(*args):
        assert run._caches == [] and refs and all(ref() is None for ref in refs)
        evaluations.append(args)
        return real_evaluate(*args)

    monkeypatch.setattr(trainer, "backward", recording_backward)
    monkeypatch.setattr(trainer, "evaluate", checking_evaluate)
    run = Run(tiny_dropout_spec(), tiny_data(), TrainConfig(iterations=4, batch_size=10, seed=3, eval_every=2))
    run.train()
    assert len(evaluations) == 3  # after steps 2 and 4, then the test split
    assert run._caches == []  # a finished run holds no working set


# What a step may allocate beyond step 1's peak less the gradient set: the
# run's first step allocates the gradients, and no later step may again.
GRADIENT_REUSE_SLACK = 2**20


def held_gradients(run):
    """`{name: (grad_w, grad_b)}` as the run's caches hold them."""
    return {name: (cache["gw"], cache["gb"]) for name, cache in zip(layer_names(run.spec), run._caches) if "gw" in cache}


def test_a_run_keeps_one_set_of_gradients():
    # fc1's 64x16384 float64 weights are 8 MiB; each step used to allocate a
    # second such gradient while the previous step's was still alive
    spec = NetSpec("wide", (LayerSpec.input(8, 8, 1), LayerSpec.flatten(), LayerSpec.dense(16384), LayerSpec.dense(10)))
    run = Run(spec, tiny_data(), TrainConfig(iterations=3, batch_size=10, seed=2))
    assert run.params["fc1"].weights.nbytes >= 8 * 2**20
    step1 = peak_alloc_bytes(run.step)
    after_step1 = held_gradients(run)
    assert after_step1.keys() == run.params.keys()
    step2 = peak_alloc_bytes(run.step)
    assert held_gradients(run).keys() == after_step1.keys()
    for name, (grad_w, grad_b) in held_gradients(run).items():
        assert grad_w is after_step1[name][0] and grad_b is after_step1[name][1], name
    grad_bytes = sum(a.nbytes for pair in after_step1.values() for a in pair)
    assert step2 <= step1 - grad_bytes + GRADIENT_REUSE_SLACK, (step1, step2, grad_bytes)


def working_set_arrays(run):
    """The distinct arrays behind a run's caches (a layer's input `"x"` may be a view of the output below it)."""
    owners = {}
    for cache in run._caches:
        for array in cache.values():
            owner = array if array.base is None else array.base
            owners[id(owner)] = owner
    return list(owners.values())


def cache_bytes(spec, n, training=True):
    """Bytes a run's caches hold after one pass of `n` images, from the spec's shapes.

    A training step holds every layer's activations and the gradients of
    each layer with weights; an evaluation chunk holds the image layers'
    activations, with no pooling argmax.  A layer's input and a flatten
    are views of the array below them and hold nothing of their own.
    """
    shapes = propagate_shapes(spec)
    flat = next(i for i, shape in enumerate(shapes) if len(shape) == 1)
    total = 0
    for i, (layer, shape) in enumerate(zip(spec.layers, shapes)):
        if not training and i == flat:
            break
        out = n * math.prod(shape) * 8
        if layer.kind == "input":
            total += out
        elif layer.kind == "conv":
            (height, width, c_in), k = shapes[i - 1], layer.kernel
            total += n * (height + k - 1) * (width + k - 1) * c_in * 8 + n * height * width * k * k * c_in * 8 + out
            total += training * (k * k * c_in + 1) * layer.out_channels * 8
        elif layer.kind == "maxpool":
            total += out + training * n * math.prod(shape) * np.min_scalar_type(layer.window**2 - 1).itemsize
        elif layer.kind == "dense":
            total += out + (math.prod(shapes[i - 1]) + 1) * layer.out_features * 8
        elif layer.kind == "dropout" and training and layer.keep_prob < 1:
            total += 2 * out
    return total


# `network._image_chunks` gives this net a 1276-image evaluation chunk.
CHEAP_CONV_SPEC = parse_spec("input h=28 w=28 c=1\nconv k=1 out=2\nmaxpool window=2\nflatten\n"
                             "dense out=128\ndropout keep=0.5\ndense out=10\n")


@pytest.mark.parametrize("spec", [CHEAP_CONV_SPEC, optimized_3x3_spec()], ids=["conv1-1x1x2", "optimized-3x3"])
def test_a_runs_working_set_holds_exactly_one_minibatch_of_activations_and_gradients(spec, synth_data):
    run = Run(spec, synth_data, TrainConfig(iterations=1, batch_size=50, seed=5))
    run.step()
    held = sum(a.nbytes for a in working_set_arrays(run))
    assert held == cache_bytes(spec, 50)
    if spec is CHEAP_CONV_SPEC:
        assert network._image_chunks(spec)[1] == 1276
        assert held <= 2.5 * 2**20  # a set sized for the evaluation chunk held 46.3 MiB


def test_a_run_keeps_one_working_set_from_its_first_step_on(synth_data):
    run = Run(optimized_spec(), synth_data, TrainConfig(iterations=5, batch_size=50, seed=4))
    run.step()
    first = [dict(cache) for cache in run._caches]
    assert first[1]["cols"].shape == (50 * 784, 25) and first[1]["cols"].base is None  # one minibatch, no more
    for _ in range(4):
        run.step()
        assert_same_working_set(run, first)


def assert_same_working_set(run, first):
    """Each array of the run's caches is the one `first` (copies of them) held."""
    assert [cache.keys() for cache in run._caches] == [cache.keys() for cache in first]
    for i, (cache, before) in enumerate(zip(run._caches, first)):
        for key, array in cache.items():
            if key == "x":  # the layer's input: a view of the layer below's array, made again
                assert np.shares_memory(array, before[key]) and array.shape == before[key].shape, (i, key)
            else:
                assert array is before[key], (i, key)


# What a step or an evaluation may allocate beyond the bound its test names:
# index and mask temporaries, the loss, and Python objects.
WORKING_SET_SLACK = 2**18


def test_no_step_after_the_first_allocates_a_cache_or_a_gradient(synth_data):
    run = Run(optimized_spec(), synth_data, TrainConfig(iterations=5, batch_size=50, seed=6))
    step1 = peak_alloc_bytes(run.step)
    held = sum(a.nbytes for a in working_set_arrays(run))  # activations and gradients
    assert held > 8 * 2**20  # conv1's im2col alone is 50 * 784 * 25 float64s, 7.5 MiB
    for _ in range(4):
        step = peak_alloc_bytes(run.step)
        assert step <= step1 - held + WORKING_SET_SLACK, (step1, step, held)


def test_a_runs_evaluation_holds_its_chunk_set_in_place_of_the_freed_step_set(synth_data):
    spec = optimized_spec()
    run = Run(spec, synth_data, TrainConfig(iterations=2, batch_size=50, seed=7))
    test = synth_data.test
    assert len(test.images) == 1000
    chunk_set = cache_bytes(spec, network._image_chunks(spec)[1], training=False)
    # the image layers' output of the whole batch, flattened, and each dense output
    batch_outputs = sum(len(test.images) * math.prod(shape) * 8
                        for layer, shape in zip(spec.layers, propagate_shapes(spec)) if layer.kind in ("flatten", "dense"))
    # traced from the step on, so the step set the evaluation frees counts as freed
    peak = peak_alloc_bytes(lambda: run._evaluate(test), setup=run.step)
    assert peak <= chunk_set - cache_bytes(spec, 50) + batch_outputs + WORKING_SET_SLACK


def test_peak_alloc_bytes_counts_an_array_its_setup_made_and_the_call_freed():
    held = []

    def remake():  # frees the 8 MiB array held, then allocates another
        held.clear()
        held.append(np.ones(2**20))

    remake()
    assert peak_alloc_bytes(remake) >= 8 * 2**20  # the array made before tracing began is freed unseen
    assert peak_alloc_bytes(remake, setup=remake) < 2**16


@pytest.mark.parametrize("batch", [50, 7])
@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
def test_a_runs_evaluation_gives_the_logits_of_a_standalone_and_a_whole_batch_forward(path, batch, monkeypatch):
    spec = load_spec(path)
    data = synthetic_splits(n_train=150, n_validation=20, n_test=303, seed=8)
    evaluated = []
    real = trainer.forward

    def recording(*args, **kwargs):
        logits, caches = real(*args, **kwargs)
        if not kwargs.get("training"):
            evaluated.append(logits.copy())
        return logits, caches

    monkeypatch.setattr(trainer, "forward", recording)
    run = Run(spec, data, TrainConfig(iterations=3, batch_size=batch, seed=4, eval_every=2)).train()
    monkeypatch.undo()
    images, labels = data.test
    images_per_chunk = network._image_chunks(spec)[1]
    assert len(images) % images_per_chunk and len(images) > images_per_chunk  # a tail chunk reruns images
    logits = evaluated[-1]  # the test split, one forward pass
    assert logits.tobytes() == forward(spec, run.params, images)[0].tobytes()
    assert logits.tobytes() == whole_batch_forward(spec, run.params, images)[0].tobytes()
    assert run.final_test_accuracy == evaluate(spec, run.params, images, labels)
    assert len(evaluated) == 2  # the validation split after step 2


@st.composite
def classifier_specs(draw):
    """Small valid classifiers of 28x28x1 images: one or two convs, each
    maybe pooled or dropped out, a flatten, maybe a hidden dense with or
    without dropout, and dense 10."""
    layers = [LayerSpec.input(28, 28, 1)]
    for _ in range(draw(st.integers(1, 2))):
        layers.append(LayerSpec.conv(draw(st.sampled_from([1, 3, 5])), draw(st.integers(1, 6))))
        if draw(st.booleans()):
            layers.append(LayerSpec.maxpool(2))
        if draw(st.booleans()):
            layers.append(LayerSpec.dropout(0.75))
    layers.append(LayerSpec.flatten())
    if draw(st.booleans()):
        layers.append(LayerSpec.dense(draw(st.integers(1, 32))))
        if draw(st.booleans()):
            layers.append(LayerSpec.dropout(0.5))
    layers.append(LayerSpec.dense(10))
    return NetSpec("random", tuple(layers))


@given(classifier_specs(), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_evaluation_gives_the_whole_batch_logits_around_every_chunk_boundary(spec, seed):
    chunk = network._image_chunks(spec)[1]
    assume(chunk <= 320)  # keeps the batches small
    params = init_params(spec, TrainConfig(), substream(seed, "init"))
    rng = np.random.default_rng(seed)
    passes = []
    real = trainer.forward

    def recording(spec, params, x, **kwargs):
        logits, caches = real(spec, params, x, **kwargs)
        passes.append((x, logits.copy()))
        return logits, caches

    # passes of two chunks, so the largest batch ends in a pass of 3 images through the same caches
    with mock.patch.object(trainer, "forward", recording), mock.patch.object(trainer, "_EVAL_BATCH", 2 * chunk):
        for n in (1, chunk - 1, chunk + 1, 2 * chunk + 3):
            evaluate(spec, params, rng.integers(0, 256, size=(n, 28, 28, 1), dtype=np.uint8), rng.integers(0, 10, n))
    assert [len(x) for x, _ in passes] == [1, chunk - 1, chunk + 1, 2 * chunk, 3]
    for x, logits in passes:
        assert logits.tobytes() == whole_batch_forward(spec, params, x)[0].tobytes()


@given(classifier_specs(), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_steps_after_the_first_reuse_every_array_of_the_first(spec, batch):
    images = np.random.default_rng(batch).integers(0, 256, size=(20, 28, 28, 1), dtype=np.uint8)
    split = Dataset(images, np.arange(20) % 10)
    run = Run(spec, DataSplits(train=split, validation=split, test=split),
              TrainConfig(iterations=3, batch_size=batch, seed=batch))
    run.step()
    first = [dict(cache) for cache in run._caches]
    assert held_gradients(run).keys() == run.params.keys()
    for _ in range(2):
        run.step()
        assert_same_working_set(run, first)


def reference_batches(n, batch_size, rng):
    """Sequential epochs over a seeded shuffle, short tails dropped: the draws `Run.step` makes."""
    while True:
        perm = rng.permutation(n)
        for pos in range(0, n - batch_size + 1, batch_size):
            yield perm[pos : pos + batch_size]


def test_train_checkpoint_bytes_match_reference_adam_loop(tmp_path):
    spec, data = tiny_dropout_spec(), tiny_data()
    cfg = TrainConfig(iterations=6, batch_size=10, seed=9)
    res = train(spec, data, cfg)
    save_checkpoint(tmp_path / "in_place.ntbx", res.params, res.adam_state, res.iterations_run)

    params = init_params(spec, cfg, substream(cfg.seed, "init"))
    state = init_adam_state(params)
    batches = reference_batches(len(data.train.images), cfg.batch_size, substream(cfg.seed, "shuffle"))
    drop = substream(cfg.seed, "dropout")
    for _, idx in zip(range(cfg.iterations), batches):
        logits, caches = forward(spec, params, data.train.images[idx], training=True, dropout_rng=drop)
        _, grad = softmax_xent(logits, data.train.labels[idx])
        grads = backward(spec, params, caches, grad)
        params, state = reference_adam_step(params, grads, state, cfg)
    save_checkpoint(tmp_path / "reference.ntbx", params, state, cfg.iterations)
    assert (tmp_path / "in_place.ntbx").read_bytes() == (tmp_path / "reference.ntbx").read_bytes()


def test_loaded_checkpoint_steps_in_place_like_memory(tmp_path):
    spec, data = tiny_dropout_spec(), tiny_data()
    cfg = TrainConfig(iterations=3, batch_size=10, seed=10)
    res = train(spec, data, cfg)
    save_checkpoint(tmp_path / "ck.ntbx", res.params, res.adam_state, res.iterations_run)
    ck = load_checkpoint(tmp_path / "ck.ntbx")
    assert all(a.flags.writeable for a in optimizer_arrays(ck.params, ck.adam).values())
    grads = make_grads(res.params, "random", np.random.default_rng(3))
    adam_step(res.params, grads, res.adam_state, cfg)
    adam_step(ck.params, grads, ck.adam, cfg)
    assert ck.adam.t == res.adam_state.t == 4
    assert_same_bits(optimizer_arrays(ck.params, ck.adam), optimizer_arrays(res.params, res.adam_state))


# --- train / evaluate ----------------------------------------------------------


def test_a_run_stepped_by_hand_then_trained_matches_one_trained_straight_through(tmp_path):
    # 12 steps per epoch: the hand-stepped part crosses an epoch boundary and
    # stops before an evaluation step
    spec, data = tiny_dropout_spec(), tiny_data()
    cfg = TrainConfig(iterations=21, batch_size=10, seed=6, eval_every=7)
    straight = train(spec, data, cfg)
    resumed = Run(spec, data, cfg)
    for _ in range(13):
        resumed.step()
    assert resumed.iterations_run == 13
    resumed.train()
    for name, run in (("straight", straight), ("resumed", resumed)):
        save_checkpoint(tmp_path / name, run.params, run.adam_state, run.iterations_run)
    assert (tmp_path / "straight").read_bytes() == (tmp_path / "resumed").read_bytes()
    assert resumed.final_test_accuracy == straight.final_test_accuracy
    assert [it for it, _ in straight.eval_trace] == [7, 14, 21]
    assert resumed.eval_trace == straight.eval_trace[1:]


def test_a_run_takes_no_step_past_its_iterations():
    run = Run(tiny_spec(), tiny_data(), TrainConfig(iterations=2, batch_size=10))
    run.step()
    run.step()
    with pytest.raises(ValueError, match="taken all 2 of its iterations"):
        run.step()
    # a run of no iterations never checked its batch against the 120 training images
    with pytest.raises(ValueError, match="taken all 0"):
        Run(tiny_spec(), tiny_data(), TrainConfig(iterations=0, batch_size=500)).step()
    assert run.train().iterations_run == 2


def test_train_reproducible_bit_for_bit():
    data = tiny_data()
    cfg = TrainConfig(iterations=12, batch_size=10, seed=42)
    r1 = train(tiny_spec(), data, cfg)
    r2 = train(tiny_spec(), data, cfg)
    assert r1.final_test_accuracy == r2.final_test_accuracy
    assert r1.loss_trace == r2.loss_trace
    for (n1, a1), (n2, a2) in zip(param_arrays(r1.params), param_arrays(r2.params)):
        assert n1 == n2
        np.testing.assert_array_equal(a1, a2)


def test_train_zero_iterations_evaluates_init():
    data = tiny_data()
    res = train(tiny_spec(), data, TrainConfig(iterations=0, batch_size=10, seed=1))
    assert res.loss_trace == []
    assert 0.0 <= res.final_test_accuracy <= 1.0


def test_evaluate_on_zero_images_raises_a_named_error():
    spec = tiny_spec()
    params = init_params(spec, TrainConfig(), substream(0, "init"))
    with pytest.raises(ValueError, match="no images"):
        evaluate(spec, params, np.zeros((0, 8, 8, 1)), np.zeros((0, 10)))


@pytest.mark.parametrize("split, eval_every", [("test", 0), ("test", 2), ("validation", 2)])
def test_train_rejects_an_empty_scored_split_before_the_first_step(split, eval_every, monkeypatch):
    calls = []
    real_forward = trainer.forward

    def counting_forward(*args, **kwargs):
        calls.append(args)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(trainer, "forward", counting_forward)
    data = tiny_data()
    empty = getattr(data, split)
    data = dataclasses.replace(data, **{split: Dataset(empty.images[:0], empty.labels[:0])})
    with pytest.raises(ValueError, match=f"the {split} split is empty"):
        train(tiny_spec(), data, TrainConfig(iterations=4, batch_size=10, eval_every=eval_every))
    assert calls == []


def test_empty_validation_split_trains_when_no_evaluation_scores_it():
    data = tiny_data()
    data = dataclasses.replace(data, validation=Dataset(data.validation.images[:0], data.validation.labels[:0]))
    for eval_every in (0, 5):
        res = train(tiny_spec(), data, TrainConfig(iterations=4, batch_size=10, eval_every=eval_every))
        assert res.eval_trace == [] and res.iterations_run == 4


def test_train_shape_mismatch_rejected(synth_data):
    with pytest.raises(ValueError, match="input shape"):
        train(tiny_spec(), synth_data, TrainConfig(iterations=1))


def test_train_divergence_reports_iteration(monkeypatch):
    # an absurd init scale overflows the forward pass to inf - inf = NaN
    data = tiny_data()
    spec = NetSpec(
        "deep-tiny",
        (
            LayerSpec.input(8, 8, 1),
            LayerSpec.flatten(),
            LayerSpec.dense(16),
            LayerSpec.dense(10),
        ),
    )

    def absurd_init(spec, config, rng):
        params = init_params(spec, config, rng)
        for _, arr in param_arrays(params):
            arr *= 1e201  # Gaussian(0, (1e200)^2)
        return params

    monkeypatch.setattr(trainer, "init_params", absurd_init)
    cfg = TrainConfig(iterations=5, batch_size=10, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train(spec, data, cfg)
    assert err.value.iteration == 1


def test_train_on_uint8_pixels_matches_its_float64_twin(tmp_path):
    u8, f64 = {}, {}
    # validation 1100 and test 1300 images: evaluation batches of 1000 end in a short tail
    for seed, (name, n) in enumerate((("train", 200), ("validation", 1100), ("test", 1300))):
        rng = np.random.default_rng(seed)
        pixels = rng.integers(0, 256, size=(n, 8, 8, 1), dtype=np.uint8)
        pixels[0, 0, :2, 0] = 0, 255
        labels = rng.integers(0, 10, n)
        u8[name] = Dataset(pixels, labels)
        f64[name] = Dataset(np.divide(pixels, 255.0, dtype=np.float64), labels)
    cfg = TrainConfig(iterations=8, batch_size=10, seed=4, eval_every=3, loss_log_every=2)
    results = {}
    for tag, data in (("u8", u8), ("f64", f64)):
        res = train(tiny_dropout_spec(), DataSplits(**data), cfg)
        save_checkpoint(tmp_path / f"{tag}.ntbx", res.params, res.adam_state, res.iterations_run)
        results[tag] = res
    assert (tmp_path / "u8.ntbx").read_bytes() == (tmp_path / "f64.ntbx").read_bytes()
    assert results["u8"].loss_trace == results["f64"].loss_trace
    assert results["u8"].eval_trace == results["f64"].eval_trace
    assert [it for it, _ in results["u8"].eval_trace] == [3, 6]
    assert results["u8"].final_test_accuracy == results["f64"].final_test_accuracy


def test_traces_leave_the_checkpoint_bytes_unchanged(tmp_path):
    # schedule_id leaves out eval_every and loss_log_every: neither may change a trained byte
    blobs = set()
    for eval_every, loss_log_every in ((0, 0), (3, 2), (1, 1)):
        cfg = TrainConfig(iterations=8, batch_size=10, seed=4, eval_every=eval_every, loss_log_every=loss_log_every)
        res = train(tiny_dropout_spec(), tiny_data(), cfg)
        save_checkpoint(tmp_path / "c.ntbx", res.params, res.adam_state, res.iterations_run)
        blobs.add((tmp_path / "c.ntbx").read_bytes())
    assert len(blobs) == 1


def test_eval_trace_uses_validation(synth_data):
    cfg = TrainConfig(iterations=20, seed=2, eval_every=10)
    res = train(optimized_spec(), synth_data, cfg)
    assert [it for it, _ in res.eval_trace] == [10, 20]
    assert all(0.0 <= acc <= 1.0 for _, acc in res.eval_trace)


@pytest.mark.parametrize("make_spec", [optimized_spec, dropped_conv2_spec, baseline_spec])
def test_loss_decreases_at_desk_scale(synth_data, make_spec):
    # the heavier stock nets make this the slowest test in the module (~2 min total)
    cfg = TrainConfig(iterations=200, seed=4)
    res = train(make_spec(), synth_data, cfg)
    losses = [l for _, l in res.loss_trace]
    assert np.median(losses[:100]) > np.median(losses[-100:])
    assert all(l >= 0 for l in losses)


def adam_step_bound(lr, b1, b2, t):
    """Provable per-coordinate bound on a bias-corrected Adam step at time t.

    Cauchy-Schwarz over the exponential weights gives
    |m_hat|/sqrt(v_hat) <= sqrt(C_t) with
    C_t = (1-b1)^2 (1-b2^t) / ((1-b2)(1-b1^t)^2) * (1-(b1^2/b2)^t)/(1-b1^2/b2).
    At the defaults this tends to ~7.27; the often-quoted "one learning
    rate per step" is only an approximation and is routinely exceeded
    (realized maxima here are ~4.5 lr thanks to dropout-sparsified
    gradients), so the provable bound is what gets asserted.
    """
    r = b1 * b1 / b2
    c_t = ((1 - b1) ** 2) * (1 - b2**t) / ((1 - b2) * (1 - b1**t) ** 2) * (1 - r**t) / (1 - r)
    return lr * np.sqrt(c_t)


def test_adam_step_size_within_provable_bound(synth_data):
    cfg = TrainConfig(iterations=120, seed=8)
    run = Run(optimized_spec(), synth_data, cfg)
    for _ in range(cfg.iterations):
        before = [arr.copy() for _, arr in param_arrays(run.params)]
        run.step()
        bound = adam_step_bound(cfg.learning_rate, _ADAM_BETA1, _ADAM_BETA2, run.adam_state.t)
        for old, (_, new) in zip(before, param_arrays(run.params)):
            assert np.abs(new - old).max() <= bound * (1 + 1e-6)


def test_evaluate_is_side_effect_free(synth_data):
    spec = optimized_spec()
    params = init_params(spec, TrainConfig(), substream(11, "init"))
    before = {n: a.copy() for n, a in param_arrays(params)}
    images = synth_data.test.images[:100].copy()
    evaluate(spec, params, images, synth_data.test.labels[:100])
    for name, arr in param_arrays(params):
        np.testing.assert_array_equal(arr, before[name])
    np.testing.assert_array_equal(images, synth_data.test.images[:100])


def test_evaluate_short_last_batch_matches_caching_forward(synth_data, monkeypatch):
    spec = optimized_spec()
    params = init_params(spec, TrainConfig(), substream(11, "init"))
    images = synth_data.test.images[:20]
    preds = whole_batch_forward(spec, params, images)[0].argmax(axis=1)
    labels = preds.copy()
    labels[[0, 9, 19]] = (labels[[0, 9, 19]] + 1) % 10  # one miss per batch of 7, 7, 6
    monkeypatch.setattr(trainer, "_EVAL_BATCH", 7)
    assert evaluate(spec, params, images, labels) == 17 / 20


def test_evaluate_holds_no_batch_sized_im2col(synth_data):
    # the whole batch's conv1 im2col alone is 1000 * 784 * 25 float64s, 150 MiB;
    # one 52-image chunk's is 7.8 MiB, and the chunk's other arrays and the
    # batch's flattened and dense outputs are 3.2 MiB more
    spec = optimized_spec()
    params = init_params(spec, TrainConfig(), substream(11, "init"))
    images, labels = synth_data.test.images, synth_data.test.labels
    assert len(images) == 1000
    assert peak_alloc_bytes(lambda: evaluate(spec, params, images, labels)) < 12 * 2**20


def test_evaluate_deterministic_and_chance_level():
    rng = np.random.default_rng(0)
    spec = optimized_spec()
    params = init_params(spec, TrainConfig(), substream(13, "init"))
    images = rng.uniform(size=(10000, 28, 28, 1))
    labels = rng.permutation(np.repeat(np.arange(10), 1000))
    acc1 = evaluate(spec, params, images, labels)
    acc2 = evaluate(spec, params, images, labels)
    assert acc1 == acc2
    assert abs(acc1 - 0.1) <= 0.02  # random labels vs untrained net


def test_evaluate_single_sample():
    spec = tiny_spec()
    params = init_params(spec, TrainConfig(), substream(17, "init"))
    x = np.random.default_rng(5).uniform(size=(1, 8, 8, 1))
    logits, _ = whole_batch_forward(spec, params, x)
    label = np.array([int(logits.argmax())])
    assert evaluate(spec, params, x, label) == 1.0


@pytest.mark.parametrize("n", [10, 12])
def test_evaluate_refuses_one_hot_labels(n):
    # with 10 images, argmax == one-hot would broadcast (10,) against (10, 10) and score a number
    spec = tiny_spec()
    params = init_params(spec, TrainConfig(), substream(17, "init"))
    x = np.random.default_rng(5).uniform(size=(n, 8, 8, 1))
    with pytest.raises(ValueError, match="evaluate: labels must be one class index per image"):
        evaluate(spec, params, x, np.eye(10)[np.arange(n) % 10])


@pytest.mark.parametrize("split", ["train", "validation", "test"])
def test_train_refuses_one_hot_labels_before_the_first_step(split, monkeypatch):
    steps = []
    monkeypatch.setattr(trainer, "adam_step", lambda *args: steps.append(args))
    data = tiny_data()
    part = getattr(data, split)
    data = dataclasses.replace(data, **{split: Dataset(part.images, np.eye(10)[part.labels])})
    with pytest.raises(ValueError, match=f"the {split} split: labels must be one class index per image"):
        train(tiny_spec(), data, TrainConfig(iterations=4, batch_size=10, eval_every=2))
    assert steps == []
