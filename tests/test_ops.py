import numpy as np
import pytest

from slimnet import ops
from slimnet.gradcheck import numerical_gradient, max_rel_err


def test_conv_same_padding_preserves_spatial_size(rng):
    x = rng.uniform(size=(28, 28, 1))
    p = ops.ConvParams(rng.uniform(size=(5, 5, 1, 32)), rng.uniform(size=32))
    assert ops.conv2d_forward(x, p).shape == (28, 28, 32)


def test_conv_identity_kernel():
    v = 3.25
    p = ops.ConvParams(np.ones((1, 1, 1, 1)), np.zeros(1))
    y = ops.conv2d_forward(np.full((1, 1, 1), v), p)
    assert y.shape == (1, 1, 1)
    assert y[0, 0, 0] == v


def test_conv_hand_computed_zero_padding():
    # all-ones 3x3 input and kernel: each output counts the in-bounds taps
    x = np.ones((3, 3, 1))
    p = ops.ConvParams(np.ones((3, 3, 1, 1)), np.zeros(1))
    y = ops.conv2d_forward(x, p)[:, :, 0]
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=float)
    np.testing.assert_array_equal(y, expected)


def test_conv_bias_added_per_channel(rng):
    x = np.zeros((4, 4, 2))
    bias = np.array([1.5, -2.0, 0.25])
    p = ops.ConvParams(rng.uniform(size=(3, 3, 2, 3)), bias)
    y = ops.conv2d_forward(x, p)
    np.testing.assert_allclose(y, np.broadcast_to(bias, (4, 4, 3)))


def test_conv_channel_mismatch_names_both_shapes(rng):
    x = rng.uniform(size=(4, 4, 3))
    p = ops.ConvParams(rng.uniform(size=(3, 3, 2, 4)), rng.uniform(size=4))
    with pytest.raises(ops.ShapeError, match=r"3.*2"):
        ops.conv2d_forward(x, p)


def test_conv_batched_matches_per_sample(rng):
    x = rng.uniform(size=(5, 6, 6, 2))
    p = ops.ConvParams(rng.uniform(size=(3, 3, 2, 4)), rng.uniform(size=4))
    batched = ops.conv2d_forward(x, p)
    for i in range(5):
        np.testing.assert_allclose(batched[i], ops.conv2d_forward(x[i], p))


def test_conv_backward_zero_grad_gives_zeros(rng):
    x = rng.uniform(size=(4, 4, 2))
    p = ops.ConvParams(rng.uniform(size=(3, 3, 2, 2)), rng.uniform(size=2))
    gx, gw, gb = ops.conv2d_backward(x, p, np.zeros((4, 4, 2)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_identity_kernel_chain_rule(rng):
    x = rng.uniform(size=(3, 3, 1))
    p = ops.ConvParams(np.ones((1, 1, 1, 1)), np.zeros(1))
    g = rng.uniform(size=(3, 3, 1))
    gx, gw, gb = ops.conv2d_backward(x, p, g)
    np.testing.assert_allclose(gx, g)
    np.testing.assert_allclose(gw[0, 0, 0, 0], (x * g).sum())
    np.testing.assert_allclose(gb[0], g.sum())


def test_conv_backward_matches_finite_differences(rng):
    x = rng.uniform(-1, 1, size=(4, 4, 2))
    p = ops.ConvParams(rng.uniform(-1, 1, size=(3, 3, 2, 2)), rng.uniform(-1, 1, size=2))
    probe = rng.uniform(-1, 1, size=(4, 4, 2))
    gx, gw, gb = ops.conv2d_backward(x, p, probe)
    num_gx = numerical_gradient(lambda v: float((ops.conv2d_forward(v, p) * probe).sum()), x.copy())
    num_gw = numerical_gradient(
        lambda v: float((ops.conv2d_forward(x, ops.ConvParams(v, p.bias)) * probe).sum()),
        p.weights.copy(),
    )
    num_gb = numerical_gradient(
        lambda v: float((ops.conv2d_forward(x, ops.ConvParams(p.weights, v)) * probe).sum()),
        p.bias.copy(),
    )
    assert max_rel_err(gx, num_gx) <= 1e-4
    assert max_rel_err(gw, num_gw) <= 1e-4
    assert max_rel_err(gb, num_gb) <= 1e-4


@pytest.mark.parametrize("shape", [(5, 5, 3), (2, 5, 5, 3)])
def test_conv_backward_input_grad_off_keeps_weight_grads(rng, shape):
    x = rng.uniform(-1, 1, size=shape)
    p = ops.ConvParams(rng.uniform(-1, 1, size=(3, 3, 3, 4)), rng.uniform(-1, 1, size=4))
    g = rng.uniform(-1, 1, size=shape[:-1] + (4,))
    gx, gw, gb = ops.conv2d_backward(x, p, g)
    skipped, gw_only, gb_only = ops.conv2d_backward(x, p, g, input_grad=False)
    assert gx.shape == shape and skipped is None
    assert gw_only.tobytes() == gw.tobytes() and gb_only.tobytes() == gb.tobytes()


def test_conv_backward_shape_mismatch_rejected(rng):
    x = rng.uniform(size=(4, 4, 2))
    p = ops.ConvParams(rng.uniform(size=(3, 3, 2, 2)), rng.uniform(size=2))
    with pytest.raises(ops.ShapeError):
        ops.conv2d_backward(x, p, np.zeros((4, 4, 3)))


# --- pooling ---------------------------------------------------------------

# The pooled values of the training pool and of the values-only inference pool.
POOLS = (lambda x, w: ops.maxpool_forward(x, w)[0], ops.maxpool_values)


def test_maxpool_shapes_match_ledger_cases(rng):
    for pool in POOLS:
        assert pool(rng.uniform(size=(28, 28, 32)), 2).shape == (14, 14, 32)
        assert pool(rng.uniform(size=(28, 28, 2)), 4).shape == (7, 7, 2)
        assert pool(rng.uniform(size=(3, 28, 28, 2)), 4).shape == (3, 7, 7, 2)


def test_maxpool_constant_input():
    for pool in POOLS:
        for window in (1, 2, 3, 4):
            y = pool(np.full((12, 12, 3), 2.5), window)
            np.testing.assert_array_equal(y, np.full((12 // window, 12 // window, 3), 2.5))


def test_maxpool_rejects_indivisible_extent(rng):
    for pool in POOLS:
        with pytest.raises(ops.ShapeError, match="divisible"):
            pool(rng.uniform(size=(28, 28, 1)), 3)
        with pytest.raises(ops.ShapeError, match="positive"):
            pool(rng.uniform(size=(28, 28, 1)), 0)


def test_maxpool_tie_break_first_in_row_major(rng):
    x = np.zeros((2, 2, 1))  # all tied: winner must be window position 0
    _, idx = ops.maxpool_forward(x, 2)
    assert idx[0, 0, 0] == 0
    g = ops.maxpool_backward(np.ones((1, 1, 1)), idx, 2)
    assert g[0, 0, 0] == 1.0 and g.sum() == 1.0
    # The values-only pool keeps the same winner: on a grid of signed zeros,
    # two levels and a NaN most windows tie, and -0.0 against 0.0 shows which
    # tied element was kept.
    x = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(2, 12, 12, 3), p=[0.4, 0.4, 0.1, 0.1])
    x[0, 5, 7, 1] = np.nan
    for window in (1, 2, 3, 4):
        y, _ = ops.maxpool_forward(x, window)
        assert ops.maxpool_values(x, window).tobytes() == y.tobytes()
        assert ops.maxpool_values(x[1], window).tobytes() == y[1].tobytes()


def test_maxpool_backward_zero_grad():
    x = np.arange(16, dtype=float).reshape(4, 4, 1)
    _, idx = ops.maxpool_forward(x, 2)
    assert not ops.maxpool_backward(np.zeros((2, 2, 1)), idx, 2).any()


def test_maxpool_backward_one_nonzero_per_window(rng):
    x = rng.permutation(36).astype(float).reshape(6, 6, 1)
    _, idx = ops.maxpool_forward(x, 2)
    g = ops.maxpool_backward(rng.uniform(1, 2, size=(3, 3, 1)), idx, 2)
    nonzero_per_window = (g.reshape(3, 2, 3, 2) != 0).sum(axis=(1, 3))
    np.testing.assert_array_equal(nonzero_per_window, np.ones((3, 3), dtype=int))


def test_maxpool_backward_matches_finite_differences(rng):
    x = rng.uniform(-1, 1, size=(4, 4, 1))
    probe = rng.uniform(-1, 1, size=(2, 2, 1))
    _, idx = ops.maxpool_forward(x, 2)
    g = ops.maxpool_backward(probe, idx, 2)
    num = numerical_gradient(lambda v: float((ops.maxpool_forward(v, 2)[0] * probe).sum()), x.copy())
    assert max_rel_err(g, num) <= 1e-4


# --- dense -------------------------------------------------------------------


def test_dense_ledger_shape(rng):
    p = ops.DenseParams(rng.uniform(size=(3136, 1024)), rng.uniform(size=1024))
    assert ops.dense_forward(rng.uniform(size=3136), p).shape == (1024,)


def test_dense_identity():
    p = ops.DenseParams(np.eye(4), np.zeros(4))
    x = np.array([1.0, -2.0, 3.0, 0.5])
    np.testing.assert_array_equal(ops.dense_forward(x, p), x)


def test_dense_hand_computed():
    p = ops.DenseParams(2 * np.eye(2), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(ops.dense_forward(np.array([1.0, 2.0]), p), [3.0, 5.0])


def test_dense_length_mismatch(rng):
    p = ops.DenseParams(rng.uniform(size=(5, 3)), rng.uniform(size=3))
    with pytest.raises(ops.ShapeError, match="5"):
        ops.dense_forward(rng.uniform(size=4), p)


def test_dense_backward_zero_and_bias_identity(rng):
    x = rng.uniform(size=5)
    p = ops.DenseParams(rng.uniform(size=(5, 3)), rng.uniform(size=3))
    gx, gw, gb = ops.dense_backward(x, p, np.zeros(3))
    assert not gx.any() and not gw.any() and not gb.any()
    g = rng.uniform(size=3)
    _, _, gb = ops.dense_backward(x, p, g)
    np.testing.assert_array_equal(gb, g)


def test_dense_backward_matches_finite_differences(rng):
    x = rng.uniform(-1, 1, size=5)
    p = ops.DenseParams(rng.uniform(-1, 1, size=(5, 3)), rng.uniform(-1, 1, size=3))
    probe = rng.uniform(-1, 1, size=3)
    gx, gw, gb = ops.dense_backward(x, p, probe)
    num_gx = numerical_gradient(lambda v: float((ops.dense_forward(v, p) * probe).sum()), x.copy())
    num_gw = numerical_gradient(
        lambda v: float((ops.dense_forward(x, ops.DenseParams(v, p.bias)) * probe).sum()),
        p.weights.copy(),
    )
    assert max_rel_err(gx, num_gx) <= 1e-4
    assert max_rel_err(gw, num_gw) <= 1e-4
    np.testing.assert_array_equal(gb, probe)


@pytest.mark.parametrize("x_shape", [(6,), (4, 6)])
def test_dense_bias_add_is_the_out_of_place_sum(rng, x_shape):
    x = rng.normal(size=x_shape)
    w, b = rng.normal(size=(6, 5)), rng.normal(size=5)
    p = ops.DenseParams(w.copy(), b.copy())
    assert ops.dense_forward(x, p).tobytes() == (x @ w + b).tobytes()
    assert p.weights.tobytes() == w.tobytes() and p.bias.tobytes() == b.tobytes()


@pytest.mark.parametrize("x_shape", [(5, 5, 2), (3, 5, 5, 2)])
def test_conv_bias_add_is_the_out_of_place_sum(rng, x_shape):
    x = rng.normal(size=x_shape)
    w, b = rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4)
    p = ops.ConvParams(w.copy(), b.copy())
    product = ops.conv2d_forward(x, ops.ConvParams(w, np.zeros(4)))  # + 0.0 leaves a nonzero b's sum unchanged
    assert ops.conv2d_forward(x, p).tobytes() == (product + b).tobytes()
    assert p.weights.tobytes() == w.tobytes() and p.bias.tobytes() == b.tobytes()


# --- relu, dropout, softmax -----------------------------------------------------


def test_relu_basic():
    np.testing.assert_array_equal(ops.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    x = np.array([0.5, 1.0, 7.0])
    np.testing.assert_array_equal(ops.relu(x), x)
    z = np.array([-1.0, 0.0, 2.0])
    assert ops.relu(z, out=z) is z
    np.testing.assert_array_equal(z, [0.0, 0.0, 2.0])


def test_relu_backward_zero_at_kink():
    x = np.array([-1.0, 0.0, 2.0])
    g = np.ones(3)
    np.testing.assert_array_equal(ops.relu_backward(x, g), [0.0, 0.0, 1.0])


def test_relu_backward_matches_finite_differences(rng):
    x = np.sign(rng.uniform(-1, 1, size=20)) * rng.uniform(0.01, 1, size=20)
    probe = rng.uniform(-1, 1, size=20)
    g = ops.relu_backward(x, probe)
    num = numerical_gradient(lambda v: float((ops.relu(v) * probe).sum()), x.copy())
    assert max_rel_err(g, num) <= 1e-4


def test_dropout_keep_one_is_identity(rng):
    x = rng.uniform(size=(5, 5))
    y, mask = ops.dropout(x, 1.0, rng, training=True)
    np.testing.assert_array_equal(y, x)
    np.testing.assert_array_equal(mask, np.ones_like(x))


def test_dropout_eval_mode_is_identity(rng):
    x = rng.uniform(size=(5, 5))
    y, mask = ops.dropout(x, 0.3, rng, training=False)
    np.testing.assert_array_equal(y, x)
    np.testing.assert_array_equal(mask, np.ones_like(x))


def test_dropout_kept_fraction_concentrates(rng):
    x = np.ones(10000)
    y, mask = ops.dropout(x, 0.5, rng, training=True)
    kept = mask.mean()
    assert abs(kept - 0.5) <= 0.02
    # kept entries are scaled by 1/keep
    np.testing.assert_allclose(y[mask == 1.0], 2.0)
    assert not y[mask == 0.0].any()


def test_dropout_rejects_zero_keep(rng):
    with pytest.raises(ValueError, match="keep_prob"):
        ops.dropout(np.ones(3), 0.0, rng)


def test_softmax_uniform_logits():
    loss, grad = ops.softmax_xent(np.zeros(10), np.eye(10)[4])
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_softmax_saturated_logits():
    logits = np.zeros(10)
    logits[2] = 1000.0
    loss, grad = ops.softmax_xent(logits, np.eye(10)[2])
    assert loss == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(grad, 0.0, atol=1e-8)


def test_softmax_grad_matches_finite_differences(rng):
    logits = rng.uniform(-2, 2, size=10)
    label = np.eye(10)[int(rng.integers(10))]
    _, grad = ops.softmax_xent(logits, label)
    num = numerical_gradient(lambda v: ops.softmax_xent(v, label)[0], logits.copy())
    assert max_rel_err(grad, num) <= 1e-4


def test_softmax_rejects_non_one_hot():
    with pytest.raises(ValueError, match="one-hot"):
        ops.softmax_xent(np.zeros(10), np.full(10, 0.1))
    with pytest.raises(ValueError, match="one-hot"):
        ops.softmax_xent(np.zeros(10), np.zeros(10))


def test_softmax_loss_nonnegative_grad_sums_zero(rng):
    for _ in range(25):
        logits = rng.normal(0, 3, size=10)
        label = np.eye(10)[int(rng.integers(10))]
        loss, grad = ops.softmax_xent(logits, label)
        assert loss >= 0.0
        assert grad.sum() == pytest.approx(0.0, abs=1e-10)


def test_softmax_batch_mean_reduction(rng):
    logits = rng.normal(size=(6, 10))
    labels = np.eye(10)[rng.integers(0, 10, size=6)]
    loss, grad = ops.softmax_xent(logits, labels)
    singles = [ops.softmax_xent(logits[i], labels[i]) for i in range(6)]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
    np.testing.assert_allclose(grad, np.stack([s[1] for s in singles]) / 6)


def test_ops_outputs_finite_on_finite_inputs(rng):
    x = rng.normal(0, 50, size=(8, 8, 3))
    p = ops.ConvParams(rng.normal(0, 50, size=(5, 5, 3, 4)), rng.normal(0, 50, size=4))
    assert np.isfinite(ops.conv2d_forward(x, p)).all()
    y, _ = ops.maxpool_forward(x, 2)
    assert np.isfinite(y).all()
    d, _ = ops.dropout(x, 0.25, rng, training=True)
    assert np.isfinite(d).all()


def test_determinism_same_rng_state_same_output(rng):
    x = rng.uniform(size=(6, 6))
    a, am = ops.dropout(x, 0.5, np.random.default_rng(99), training=True)
    b, bm = ops.dropout(x, 0.5, np.random.default_rng(99), training=True)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(am, bm)
