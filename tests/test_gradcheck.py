import numpy as np
import pytest

from slimnet import ops
from slimnet.gradcheck import check_layer, max_rel_err, numerical_gradient, run_suite
from slimnet.netspec import LayerSpec, NetSpec, layer_names
from slimnet.network import backward, forward
from slimnet.ops import softmax_xent
from slimnet.rng import substream
from slimnet.trainer import TrainConfig, init_params
from tests.conftest import whole_batch_forward


def test_numerical_gradient_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    grad = numerical_gradient(lambda v: float((v**2).sum()), x.copy())
    np.testing.assert_allclose(grad, 2 * x, rtol=1e-8)


def test_every_layer_passes_at_tolerance():
    results = run_suite(trials=20, seed=0)
    assert {r.layer for r in results} == {"conv", "dense", "relu", "maxpool", "dropout", "softmax"}
    for r in results:
        assert r.ok, r.line()
        assert r.max_rel_err <= 1e-4


def test_many_seeds_stay_within_tolerance():
    # the acceptance criterion wants >= 20 randomized shapes/seeds
    for seed in range(4):
        for r in run_suite(trials=5, seed=seed):
            assert r.ok, f"seed {seed}: {r.line()}"


def test_injected_fault_is_caught():
    results = run_suite(trials=5, seed=0, fault_layer="conv")
    by_layer = {r.layer: r for r in results}
    assert not by_layer["conv"].ok
    assert by_layer["dense"].ok


def test_layer_subset():
    results = run_suite(layers=["dense"], trials=3, seed=1)
    assert [r.layer for r in results] == ["dense"]


@pytest.mark.parametrize("trials", [0, -3])
def test_fewer_than_one_trial_is_refused(trials):
    # zero trials checked nothing and passed, an injected fault too
    for fault in (False, True):
        with pytest.raises(ValueError, match="at least one trial"):
            check_layer("conv", trials=trials, fault=fault)


def test_unknown_layer_rejected():
    with pytest.raises(ValueError, match="unknown layer"):
        check_layer("conv3d")


def network_gradient_errors(spec, x, labels, params, dropout_seed=None, out=None):
    """`{"name.w": rel err}` of each `backward` gradient against central differences of the loss.

    With `dropout_seed` every forward, the analytic one and each difference's,
    trains with a generator in the same state, so all draw the same dropout
    masks; without it each is the whole-batch chain with dropout at keep=1.
    `out` maps layer names to `(grad_w, grad_b)` pairs put into those layers'
    caches (as `"gw"`, `"gb"`) before `backward`, which must write into them.
    """
    def run(trial):
        if dropout_seed is None:
            return whole_batch_forward(spec, trial, x)
        return forward(spec, trial, x, training=True, dropout_rng=substream(dropout_seed, "dropout"))

    def loss_for(name, suffix, flat_value):
        trial = {k: type(v)(v.weights.copy(), v.bias.copy()) for k, v in params.items()}
        arr = trial[name].weights if suffix == "w" else trial[name].bias
        arr.reshape(-1)[:] = flat_value.reshape(-1)
        return softmax_xent(run(trial)[0], labels)[0]

    logits, caches = run(params)
    _, grad_logits = softmax_xent(logits, labels)
    for name, cache in zip(layer_names(spec), caches):
        if out and name in out:
            cache["gw"], cache["gb"] = out[name]
    grads = backward(spec, params, caches, grad_logits)
    assert all(a is b for name in out or () for a, b in zip(grads[name], out[name]))
    errors = {}
    for name, p in params.items():
        for suffix, arr, analytic in (("w", p.weights, grads[name][0]), ("b", p.bias, grads[name][1])):
            numeric = numerical_gradient(lambda v: loss_for(name, suffix, v), arr.copy())
            errors[f"{name}.{suffix}"] = max_rel_err(analytic, numeric)
    return errors


def scaled_init(spec, seed):
    params = init_params(spec, TrainConfig(), substream(seed, "init"))
    for p in params.values():  # Gaussian(0, 0.4^2)
        p.weights *= 4
        p.bias *= 4
    return params


def test_whole_network_gradient_matches_finite_differences():
    """End-to-end composition check on a shrunken classifier."""
    spec = NetSpec(
        "mini",
        (
            LayerSpec.input(6, 6, 1),
            LayerSpec.conv(3, 2),
            LayerSpec.maxpool(2),
            LayerSpec.flatten(),
            LayerSpec.dense(10),
        ),
    )
    x = substream(22, "x").uniform(0.05, 1.0, size=(2, 6, 6, 1))
    for key, err in network_gradient_errors(spec, x, np.array([3, 7]), scaled_init(spec, 21)).items():
        assert err <= 1e-4, f"{key}: rel err {err:.2e}"


def test_every_chain_rule_of_the_stock_nets_matches_finite_differences_through_out_arrays():
    """Two convs (so col2im is in the chain), a hidden dense with ReLU and
    dropout, with the gradients written into NaN-filled arrays held in the caches."""
    spec = NetSpec(
        "mini-deep",
        (
            LayerSpec.input(8, 8, 1),
            LayerSpec.conv(3, 2),
            LayerSpec.maxpool(2),
            LayerSpec.conv(3, 3),
            LayerSpec.maxpool(2),
            LayerSpec.flatten(),
            LayerSpec.dense(8),
            LayerSpec.dropout(0.75),
            LayerSpec.dense(10),
        ),
    )
    params = scaled_init(spec, 31)
    out = {name: (np.full_like(p.weights, np.nan), np.full_like(p.bias, np.nan)) for name, p in params.items()}
    x = substream(32, "x").uniform(0.05, 1.0, size=(3, 8, 8, 1))
    errors = network_gradient_errors(spec, x, np.array([3, 7, 0]), params, dropout_seed=33, out=out)
    assert list(errors) == ["conv1.w", "conv1.b", "conv2.w", "conv2.b", "fc1.w", "fc1.b", "fc2.w", "fc2.b"]
    for key, err in errors.items():
        assert err <= 1e-4, f"{key}: rel err {err:.2e}"
    assert all(np.isfinite(a).all() and a.any() for pair in out.values() for a in pair)  # written, and not vacuous


def test_max_rel_err_floor_handles_zero_gradients():
    assert max_rel_err(np.zeros(3), np.full(3, 1e-9)) < 1e-2


def _nan_conv_weight_gradient(x, p, g):
    gx, gw, gb = real_conv2d_backward(x, p, g)
    return gx, np.full_like(gw, np.nan), gb


real_conv2d_backward = ops.conv2d_backward


@pytest.mark.parametrize("layer,op,broken", [
    ("conv", "conv2d_backward", _nan_conv_weight_gradient),  # not the first error the check takes
    ("relu", "relu_backward", lambda x, g: np.full_like(g, np.nan)),
], ids=["conv-weights", "relu"])
def test_a_nan_gradient_fails_the_check(monkeypatch, layer, op, broken):
    monkeypatch.setattr(ops, op, broken)
    result = check_layer(layer, trials=2)
    assert not result.ok
    assert np.isnan(result.max_rel_err)
    assert result.line().startswith(f"FAIL  {layer}")
