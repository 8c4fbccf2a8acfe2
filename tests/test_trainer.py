import re
from pathlib import Path

import numpy as np
import pytest

from slimnet.container import load_checkpoint, save_checkpoint
from slimnet.mnist import Dataset, DataSplits, one_hot_labels
from slimnet.netspec import LayerSpec, NetSpec, baseline_spec, dropped_conv2_spec, load_spec, optimized_spec
from slimnet.network import backward, forward, param_arrays
from slimnet.ops import softmax_xent
from slimnet.rng import substream
from slimnet.trainer import (
    AdamState,
    TrainConfig,
    TrainingDiverged,
    _MinibatchSampler,
    adam_step,
    evaluate,
    init_adam_state,
    init_params,
    train,
)

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
        return Dataset(rng.uniform(size=(n, 8, 8, 1)), one_hot_labels(rng.integers(0, 10, n)))

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
    assert cfg.init_mean == 0.0
    assert cfg.init_stddev == 0.1
    assert (cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon) == (0.9, 0.999, 1e-8)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"adam_beta1": 1.0},
        {"adam_beta2": 0.0},
        {"batch_size": 0},
        {"iterations": -1},
        {"dropout_keep": 0.0},
        {"activation": "tanh"},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs).validate()


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


def test_init_bias_constant_option():
    cfg = TrainConfig(bias_constant=0.1)
    params = init_params(optimized_spec(), cfg, substream(2, "init"))
    np.testing.assert_array_equal(params["conv1"].bias, np.full(2, 0.1))


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
    expected = lr / (1 + TrainConfig().adam_epsilon / 0.37)
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
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
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
    params = init_params(optimized_spec(), TrainConfig(), substream(23, "init"))
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


def test_train_checkpoint_bytes_match_reference_adam_loop(tmp_path):
    spec, data = tiny_dropout_spec(), tiny_data()
    cfg = TrainConfig(iterations=6, batch_size=10, seed=9)
    res = train(spec, data, cfg)
    save_checkpoint(tmp_path / "in_place.ntbx", res.params, res.adam_state, res.iterations_run)

    params = init_params(spec, cfg, substream(cfg.seed, "init"))
    state = init_adam_state(params)
    sampler = _MinibatchSampler(len(data.train.images), cfg.batch_size, substream(cfg.seed, "shuffle"))
    drop = substream(cfg.seed, "dropout")
    for _ in range(cfg.iterations):
        idx = sampler.next_batch()
        logits, caches = forward(spec, params, data.train.images[idx], training=True, dropout_rng=drop)
        _, grad = softmax_xent(logits, data.train.labels[idx])
        grads, _ = backward(spec, params, caches, grad)
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


def test_train_shape_mismatch_rejected(synth_data):
    with pytest.raises(ValueError, match="input shape"):
        train(tiny_spec(), synth_data, TrainConfig(iterations=1))


def test_train_divergence_reports_iteration():
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
    cfg = TrainConfig(iterations=5, batch_size=10, seed=0, init_stddev=1e200)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train(spec, data, cfg)
    assert err.value.iteration == 1


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
    spec = optimized_spec()
    data = synth_data
    from slimnet.network import backward as net_backward, forward as net_forward
    from slimnet.ops import softmax_xent
    from slimnet.trainer import _MinibatchSampler

    init_rng = substream(cfg.seed, "init")
    params = init_params(spec, cfg, init_rng)
    state = init_adam_state(params)
    sampler = _MinibatchSampler(len(data.train.images), cfg.batch_size, substream(cfg.seed, "shuffle"))
    drop = substream(cfg.seed, "dropout")
    for _ in range(cfg.iterations):
        idx = sampler.next_batch()
        logits, caches = net_forward(spec, params, data.train.images[idx], training=True, dropout_rng=drop)
        _, grad = softmax_xent(logits, data.train.labels[idx])
        grads, _ = net_backward(spec, params, caches, grad)
        before = [arr.copy() for _, arr in param_arrays(params)]
        adam_step(params, grads, state, cfg)
        bound = adam_step_bound(cfg.learning_rate, cfg.adam_beta1, cfg.adam_beta2, state.t)
        for old, (_, new) in zip(before, param_arrays(params)):
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


def test_evaluate_short_last_batch_matches_caching_forward(synth_data):
    spec = optimized_spec()
    params = init_params(spec, TrainConfig(), substream(11, "init"))
    images = synth_data.test.images[:20]
    preds = np.concatenate([forward(spec, params, images[s : s + 7])[0].argmax(axis=1) for s in range(0, 20, 7)])
    labels = preds.copy()
    labels[[0, 9, 19]] = (labels[[0, 9, 19]] + 1) % 10  # one miss per batch of 7, 7, 6
    assert evaluate(spec, params, images, labels, batch_size=7) == 17 / 20


def test_evaluate_deterministic_and_chance_level():
    rng = np.random.default_rng(0)
    spec = optimized_spec()
    params = init_params(spec, TrainConfig(), substream(13, "init"))
    images = rng.uniform(size=(10000, 28, 28, 1))
    labels = one_hot_labels(rng.permutation(np.repeat(np.arange(10), 1000)))
    acc1 = evaluate(spec, params, images, labels)
    acc2 = evaluate(spec, params, images, labels)
    assert acc1 == acc2
    assert abs(acc1 - 0.1) <= 0.02  # random labels vs untrained net


def test_evaluate_single_sample():
    spec = tiny_spec()
    params = init_params(spec, TrainConfig(), substream(17, "init"))
    x = np.random.default_rng(5).uniform(size=(1, 8, 8, 1))
    logits, _ = forward(spec, params, x)
    label = one_hot_labels(np.array([int(logits.argmax())]))
    assert evaluate(spec, params, x, label) == 1.0
