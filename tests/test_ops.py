import numpy as np
import pytest

from slimnet import ops
from slimnet.gradcheck import numerical_gradient, max_rel_err
from slimnet.netspec import layer_names, load_spec, propagate_shapes
from slimnet.network import _CHUNK_GEMM_SIZE, forward, init_params
from tests.conftest import REPO_ROOT


def test_conv_same_padding_preserves_spatial_size(rng):
    x = rng.uniform(size=(1, 28, 28, 1))
    p = ops.Params(rng.uniform(size=(5, 5, 1, 32)), rng.uniform(size=32))
    assert ops.conv2d_forward(x, p).shape == (1, 28, 28, 32)


def test_conv_identity_kernel():
    v = 3.25
    p = ops.Params(np.ones((1, 1, 1, 1)), np.zeros(1))
    y = ops.conv2d_forward(np.full((1, 1, 1, 1), v), p)
    assert y.shape == (1, 1, 1, 1)
    assert y[0, 0, 0, 0] == v


def test_conv_hand_computed_zero_padding():
    # all-ones 3x3 input and kernel: each output counts the in-bounds taps
    x = np.ones((1, 3, 3, 1))
    p = ops.Params(np.ones((3, 3, 1, 1)), np.zeros(1))
    y = ops.conv2d_forward(x, p)[0, :, :, 0]
    expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=float)
    np.testing.assert_array_equal(y, expected)


def test_conv_bias_added_per_channel(rng):
    x = np.zeros((1, 4, 4, 2))
    bias = np.array([1.5, -2.0, 0.25])
    p = ops.Params(rng.uniform(size=(3, 3, 2, 3)), bias)
    y = ops.conv2d_forward(x, p)
    np.testing.assert_allclose(y, np.broadcast_to(bias, (1, 4, 4, 3)))


def test_conv_channel_mismatch_names_both_shapes(rng):
    x = rng.uniform(size=(1, 4, 4, 3))
    p = ops.Params(rng.uniform(size=(3, 3, 2, 4)), rng.uniform(size=4))
    with pytest.raises(ops.ShapeError, match=r"3.*2"):
        ops.conv2d_forward(x, p)


def test_conv_batched_matches_per_sample(rng):
    x = rng.uniform(size=(5, 6, 6, 2))
    p = ops.Params(rng.uniform(size=(3, 3, 2, 4)), rng.uniform(size=4))
    batched = ops.conv2d_forward(x, p)
    for i in range(5):
        np.testing.assert_allclose(batched[i : i + 1], ops.conv2d_forward(x[i : i + 1], p))


@pytest.mark.parametrize("pixels, k, c_out", [(784, 25, 2), (784, 9, 2), (784, 25, 32), (196, 800, 64)],
                         ids=["optimized", "optimized-3x3", "conv1-5x5x32", "baseline-conv2"])
def test_conv_gemm_rows_above_the_small_matrix_bound_do_not_depend_on_the_row_count(rng, pixels, k, c_out):
    # The evaluation forward runs each conv GEMM a chunk of images at a time
    # and relies on this: above OpenBLAS's small-matrix bound (M*N*K <= 1e6)
    # a row of `A @ B` comes out the same however many rows `A` has and
    # wherever they start.  A BLAS whose rows change with the row count fails
    # here, naming the cause.
    rows = -(-_CHUNK_GEMM_SIZE // (pixels * k * c_out)) * pixels  # one chunk of whole images
    a, b = rng.uniform(-1, 1, size=(3 * rows + 5 * pixels, k)), rng.uniform(-1, 1, size=(k, c_out))
    whole = a @ b
    for start, stop in ((0, rows), (rows, 2 * rows), (2 * rows, len(a)), (len(a) - rows, len(a))):
        assert (a[start:stop] @ b).tobytes() == whole[start:stop].tobytes(), (start, stop)


def test_conv_backward_zero_grad_gives_zeros(rng):
    x = rng.uniform(size=(1, 4, 4, 2))
    p = ops.Params(rng.uniform(size=(3, 3, 2, 2)), rng.uniform(size=2))
    gx, gw, gb = ops.conv2d_backward(x, p, np.zeros((1, 4, 4, 2)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_conv_backward_identity_kernel_chain_rule(rng):
    x = rng.uniform(size=(1, 3, 3, 1))
    p = ops.Params(np.ones((1, 1, 1, 1)), np.zeros(1))
    g = rng.uniform(size=(1, 3, 3, 1))
    gx, gw, gb = ops.conv2d_backward(x, p, g)
    np.testing.assert_allclose(gx, g)
    np.testing.assert_allclose(gw[0, 0, 0, 0], (x * g).sum())
    np.testing.assert_allclose(gb[0], g.sum())


def test_conv_backward_matches_finite_differences(rng):
    x = rng.uniform(-1, 1, size=(1, 4, 4, 2))
    p = ops.Params(rng.uniform(-1, 1, size=(3, 3, 2, 2)), rng.uniform(-1, 1, size=2))
    probe = rng.uniform(-1, 1, size=(1, 4, 4, 2))
    gx, gw, gb = ops.conv2d_backward(x, p, probe)
    num_gx = numerical_gradient(lambda v: float((ops.conv2d_forward(v, p) * probe).sum()), x.copy())
    num_gw = numerical_gradient(
        lambda v: float((ops.conv2d_forward(x, ops.Params(v, p.bias)) * probe).sum()),
        p.weights.copy(),
    )
    num_gb = numerical_gradient(
        lambda v: float((ops.conv2d_forward(x, ops.Params(p.weights, v)) * probe).sum()),
        p.bias.copy(),
    )
    assert max_rel_err(gx, num_gx) <= 1e-4
    assert max_rel_err(gw, num_gw) <= 1e-4
    assert max_rel_err(gb, num_gb) <= 1e-4


@pytest.mark.parametrize("shape", [(1, 5, 5, 3), (2, 5, 5, 3)])
def test_conv_backward_input_grad_off_keeps_weight_grads(rng, shape):
    x = rng.uniform(-1, 1, size=shape)
    p = ops.Params(rng.uniform(-1, 1, size=(3, 3, 3, 4)), rng.uniform(-1, 1, size=4))
    g = rng.uniform(-1, 1, size=shape[:-1] + (4,))
    gx, gw, gb = ops.conv2d_backward(x, p, g)
    skipped, gw_only, gb_only = ops.conv2d_backward(x, p, g, input_grad=False)
    assert gx.shape == shape and skipped is None
    assert gw_only.tobytes() == gw.tobytes() and gb_only.tobytes() == gb.tobytes()


def test_conv_backward_shape_mismatch_rejected(rng):
    x = rng.uniform(size=(1, 4, 4, 2))
    p = ops.Params(rng.uniform(size=(3, 3, 2, 2)), rng.uniform(size=2))
    with pytest.raises(ops.ShapeError):
        ops.conv2d_backward(x, p, np.zeros((1, 4, 4, 3)))
    _, cols = conv_with_cols(x[:, :3], p)
    with pytest.raises(ops.ShapeError, match="cols"):
        ops.conv2d_backward(x, p, np.zeros((1, 4, 4, 2)), cols=cols)


def conv_with_cols(x, p):
    """`conv2d_forward` of `x` and the im2col matrix it wrote into its `out`."""
    (kh, kw, cin, cout), (n, h, w, _) = p.weights.shape, x.shape
    padded = np.zeros((n, h + kh - 1, w + kw - 1, cin))
    cols, y = np.full((n * h * w, kh * kw * cin), np.nan), np.full((n, h, w, cout), np.nan)
    assert ops.conv2d_forward(x, p, out=(padded, cols, y)) is y
    return y, cols


@pytest.mark.parametrize("kernel", [1, 2, 3, 5])
def test_conv_forward_keeps_the_cols_backward_would_build(rng, kernel):
    x = rng.uniform(-1, 1, size=(3, 6, 6, 2))
    p = ops.Params(rng.uniform(-1, 1, size=(kernel, kernel, 2, 4)), rng.uniform(-1, 1, size=4))
    y, cols = conv_with_cols(x, p)
    assert y.tobytes() == ops.conv2d_forward(x, p).tobytes()
    assert cols.shape == (3 * 6 * 6, kernel * kernel * 2)
    g = rng.uniform(-1, 1, size=y.shape)
    for input_grad in (True, False):
        reused = ops.conv2d_backward(x, p, g, input_grad=input_grad, cols=cols)
        rebuilt = ops.conv2d_backward(x, p, g, input_grad=input_grad)
        assert [a if a is None else a.tobytes() for a in reused] == [
            a if a is None else a.tobytes() for a in rebuilt]


def test_ops_reject_a_sample_without_its_batch_axis(rng):
    conv = ops.Params(rng.uniform(size=(3, 3, 2, 4)), rng.uniform(size=4))
    dense = ops.Params(rng.uniform(size=(5, 3)), rng.uniform(size=3))
    calls = [
        lambda: ops.conv2d_forward(np.zeros((4, 4, 2)), conv),
        lambda: ops.conv2d_backward(np.zeros((4, 4, 2)), conv, np.zeros((4, 4, 4))),
        lambda: ops.maxpool_forward(np.zeros((4, 4, 2)), 2),
        lambda: ops.maxpool_values(np.zeros((4, 4, 2)), 2),
        lambda: ops.maxpool_backward(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), dtype=np.intp), 2),
        lambda: ops.dense_forward(np.zeros(5), dense),
        lambda: ops.dense_backward(np.zeros(5), dense, np.zeros(3)),
        lambda: ops.softmax_xent(np.zeros(10), np.array([0])),
    ]
    for call in calls:
        with pytest.raises(ops.ShapeError, match="rank"):
            call()


# Each affine op on a batch and gradient that fit it, so the params are at fault.
AFFINE_CALLS = {
    "conv2d_forward": lambda p: ops.conv2d_forward(np.zeros((1, 4, 4, 2)), p),
    "conv2d_backward": lambda p: ops.conv2d_backward(np.zeros((1, 4, 4, 2)), p, np.zeros((1, 4, 4, 3))),
    "dense_forward": lambda p: ops.dense_forward(np.zeros((1, 98)), p),
    "dense_backward": lambda p: ops.dense_backward(np.zeros((1, 98)), p, np.zeros((1, 3))),
}
MALFORMED_PARAMS = {  # one bad tensor each, and the words its error must hold
    "conv-weights-of-rank-3": (ops.Params(np.zeros((3, 2, 3)), np.zeros(3)), "weights must be rank 4"),
    "dense-weights-at-the-ledger-shape": (ops.Params(np.zeros((7, 7, 2, 3)), np.zeros(3)), "weights must be rank 2"),
    "conv-bias-of-the-wrong-length": (ops.Params(np.zeros((3, 3, 2, 3)), np.zeros(2)), r"bias shape \(2,\)"),
    "dense-bias-of-the-wrong-length": (ops.Params(np.zeros((98, 3)), np.zeros(2)), r"bias shape \(2,\)"),
}


@pytest.mark.parametrize("op, bad", [(op, bad) for op in AFFINE_CALLS for bad in MALFORMED_PARAMS
                                     if bad[:4] == op[:4]])
def test_affine_ops_reject_malformed_params_naming_the_op(op, bad):
    params, words = MALFORMED_PARAMS[bad]
    with pytest.raises(ops.ShapeError, match=f"^{op}: {words}"):
        AFFINE_CALLS[op](params)


# --- pooling ---------------------------------------------------------------

# The pooled values of the training pool and of the values-only inference pool.
POOLS = (lambda x, w: ops.maxpool_forward(x, w)[0], ops.maxpool_values)


def test_maxpool_shapes_match_ledger_cases(rng):
    for pool in POOLS:
        assert pool(rng.uniform(size=(1, 28, 28, 32)), 2).shape == (1, 14, 14, 32)
        assert pool(rng.uniform(size=(1, 28, 28, 2)), 4).shape == (1, 7, 7, 2)
        assert pool(rng.uniform(size=(3, 28, 28, 2)), 4).shape == (3, 7, 7, 2)


def test_maxpool_constant_input():
    for pool in POOLS:
        for window in (1, 2, 3, 4):
            y = pool(np.full((1, 12, 12, 3), 2.5), window)
            np.testing.assert_array_equal(y, np.full((1, 12 // window, 12 // window, 3), 2.5))


def test_maxpool_rejects_indivisible_extent(rng):
    for pool in POOLS:
        with pytest.raises(ops.ShapeError, match="divisible"):
            pool(rng.uniform(size=(1, 28, 28, 1)), 3)
        with pytest.raises(ops.ShapeError, match="positive"):
            pool(rng.uniform(size=(1, 28, 28, 1)), 0)


def test_maxpool_tie_break_first_in_row_major(rng):
    x = np.zeros((1, 2, 2, 1))  # all tied: winner must be window position 0
    _, idx = ops.maxpool_forward(x, 2)
    assert idx[0, 0, 0, 0] == 0
    g = ops.maxpool_backward(np.ones((1, 1, 1, 1)), idx, 2)
    assert g[0, 0, 0, 0] == 1.0 and g.sum() == 1.0
    # The values-only pool keeps the same winner: on a grid of signed zeros,
    # two levels and a NaN most windows tie, and -0.0 against 0.0 shows which
    # tied element was kept.
    x = rng.choice([-0.0, 0.0, 0.5, 1.0], size=(2, 12, 12, 3), p=[0.4, 0.4, 0.1, 0.1])
    x[0, 5, 7, 1] = np.nan
    for window in (1, 2, 3, 4):
        y, _ = ops.maxpool_forward(x, window)
        assert ops.maxpool_values(x, window).tobytes() == y.tobytes()
        assert ops.maxpool_values(x[1:], window).tobytes() == y[1:].tobytes()


# The copying pool the strided one replaced, kept as its reference: windows
# transposed into `[N,Ho,Wo,w*w,C]`, then argmax and take/put along that axis.
def reference_maxpool_forward(x, window):
    n, h, w, c = x.shape
    win = x.reshape(n, h // window, window, w // window, window, c).transpose(0, 1, 3, 2, 4, 5)
    win = win.reshape(n, h // window, w // window, window * window, c)
    idx = np.argmax(win, axis=3)
    return np.take_along_axis(win, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :], idx


def reference_maxpool_backward(grad_out, argmax, window):
    n, ho, wo, c = grad_out.shape
    buf = np.zeros((n, ho, wo, window * window, c))
    np.put_along_axis(buf, argmax[:, :, :, None, :], grad_out[:, :, :, None, :], axis=3)
    gx = buf.reshape(n, ho, wo, window, window, c).transpose(0, 1, 3, 2, 4, 5)
    return gx.reshape(n, ho * window, wo * window, c)


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def pool_inputs(shape, window, seed):
    """Post-ReLU ties and signed-zero ties, and the latter with NaNs past a window's first slot."""
    rng = np.random.default_rng(seed)
    relu = np.maximum(rng.normal(size=shape), 0.0)
    zeros = rng.choice([-0.0, 0.0, 0.5, 1.0], size=shape, p=[0.4, 0.4, 0.1, 0.1])
    nans = zeros.copy()
    flat = nans.reshape(-1)
    hit = rng.choice(flat.size, size=max(4, flat.size // 40), replace=False)
    flat[hit] = rng.choice([np.nan, -np.nan, _nan(0x7FF8000000000001)], size=hit.size)
    if window > 1:  # one window with three NaNs of different bits, none at k = 0
        nans[0, 0, 1, 0], nans[0, 1, 0, 0], nans[0, 1, 1, 0] = _nan(0x7FF8000000000002), -np.nan, np.nan
        nans[0, 0, 0, 0] = 0.25
    return {"post-relu": relu, "signed-zeros": zeros, "nans": nans}


@pytest.mark.parametrize("window, shape", [
    *((w, (2, 12, 12, 3)) for w in (1, 2, 3, 4)),
    (16, (1, 32, 32, 2)),  # 256 positions: the largest uint8 index
    (17, (1, 34, 34, 2)),  # 289 positions: a uint16 index
])
def test_strided_maxpool_matches_the_copying_reference_bitwise(window, shape):
    for name, x in pool_inputs(shape, window, seed=window).items():
        y, idx = ops.maxpool_forward(x, window)
        ref_y, ref_idx = reference_maxpool_forward(x, window)
        assert idx.dtype == (np.uint8 if window <= 16 else np.uint16), name
        assert y.tobytes() == ops.maxpool_values(x, window).tobytes(), name
        finite = ~np.isnan(y)  # every window of the finite inputs
        assert finite.all() or name == "nans"
        assert y[finite].tobytes() == ref_y[finite].tobytes(), name
        assert np.array_equal(idx[finite], ref_idx[finite]), name
        assert not idx[~finite].any(), name  # a NaN window's argmax is 0
        g = np.random.default_rng(window).normal(size=y.shape)
        for grad in (g, -np.abs(g)):  # negative gradients: no -0.0 may appear
            assert ops.maxpool_backward(grad, idx, window).tobytes() == \
                reference_maxpool_backward(grad, idx, window).tobytes(), name
    nans = pool_inputs(shape, window, seed=window)["nans"]
    if window > 1:  # the window of three NaNs of different bits
        y, idx = ops.maxpool_forward(nans, window)
        assert idx[0, 0, 0, 0] == 0 and np.isnan(y[0, 0, 0, 0])


def test_maxpool_backward_zero_grad():
    x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
    _, idx = ops.maxpool_forward(x, 2)
    assert not ops.maxpool_backward(np.zeros((1, 2, 2, 1)), idx, 2).any()


def test_maxpool_backward_one_nonzero_per_window(rng):
    x = rng.permutation(36).astype(float).reshape(1, 6, 6, 1)
    _, idx = ops.maxpool_forward(x, 2)
    g = ops.maxpool_backward(rng.uniform(1, 2, size=(1, 3, 3, 1)), idx, 2)
    nonzero_per_window = (g.reshape(3, 2, 3, 2) != 0).sum(axis=(1, 3))
    np.testing.assert_array_equal(nonzero_per_window, np.ones((3, 3), dtype=int))


def test_maxpool_backward_matches_finite_differences(rng):
    x = rng.uniform(-1, 1, size=(1, 4, 4, 1))
    probe = rng.uniform(-1, 1, size=(1, 2, 2, 1))
    _, idx = ops.maxpool_forward(x, 2)
    g = ops.maxpool_backward(probe, idx, 2)
    num = numerical_gradient(lambda v: float((ops.maxpool_forward(v, 2)[0] * probe).sum()), x.copy())
    assert max_rel_err(g, num) <= 1e-4


# --- dense -------------------------------------------------------------------


def test_dense_ledger_shape(rng):
    p = ops.Params(rng.uniform(size=(3136, 1024)), rng.uniform(size=1024))
    assert ops.dense_forward(rng.uniform(size=(1, 3136)), p).shape == (1, 1024)


def test_dense_identity():
    p = ops.Params(np.eye(4), np.zeros(4))
    x = np.array([[1.0, -2.0, 3.0, 0.5]])
    np.testing.assert_array_equal(ops.dense_forward(x, p), x)


def test_dense_hand_computed():
    p = ops.Params(2 * np.eye(2), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(ops.dense_forward(np.array([[1.0, 2.0]]), p), [[3.0, 5.0]])


def test_dense_length_mismatch(rng):
    p = ops.Params(rng.uniform(size=(5, 3)), rng.uniform(size=3))
    with pytest.raises(ops.ShapeError, match="5"):
        ops.dense_forward(rng.uniform(size=(1, 4)), p)


def test_dense_backward_zero_and_bias_identity(rng):
    x = rng.uniform(size=(1, 5))
    p = ops.Params(rng.uniform(size=(5, 3)), rng.uniform(size=3))
    gx, gw, gb = ops.dense_backward(x, p, np.zeros((1, 3)))
    assert not gx.any() and not gw.any() and not gb.any()
    g = rng.uniform(size=(1, 3))
    _, _, gb = ops.dense_backward(x, p, g)
    np.testing.assert_array_equal(gb, g[0])


def test_dense_backward_matches_finite_differences(rng):
    x = rng.uniform(-1, 1, size=(1, 5))
    p = ops.Params(rng.uniform(-1, 1, size=(5, 3)), rng.uniform(-1, 1, size=3))
    probe = rng.uniform(-1, 1, size=(1, 3))
    gx, gw, gb = ops.dense_backward(x, p, probe)
    num_gx = numerical_gradient(lambda v: float((ops.dense_forward(v, p) * probe).sum()), x.copy())
    num_gw = numerical_gradient(
        lambda v: float((ops.dense_forward(x, ops.Params(v, p.bias)) * probe).sum()),
        p.weights.copy(),
    )
    assert max_rel_err(gx, num_gx) <= 1e-4
    assert max_rel_err(gw, num_gw) <= 1e-4
    np.testing.assert_array_equal(gb, probe[0])


@pytest.mark.parametrize("x_shape", [(1, 6), (4, 6)])
def test_dense_bias_add_is_the_out_of_place_sum(rng, x_shape):
    x = rng.normal(size=x_shape)
    w, b = rng.normal(size=(6, 5)), rng.normal(size=5)
    p = ops.Params(w.copy(), b.copy())
    assert ops.dense_forward(x, p).tobytes() == (x @ w + b).tobytes()
    assert p.weights.tobytes() == w.tobytes() and p.bias.tobytes() == b.tobytes()


@pytest.mark.parametrize("x_shape", [(1, 5, 5, 2), (3, 5, 5, 2)])
def test_conv_bias_add_is_the_out_of_place_sum(rng, x_shape):
    x = rng.normal(size=x_shape)
    w, b = rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4)
    p = ops.Params(w.copy(), b.copy())
    product = ops.conv2d_forward(x, ops.Params(w, np.zeros(4)))  # + 0.0 leaves a nonzero b's sum unchanged
    assert ops.conv2d_forward(x, p).tobytes() == (product + b).tobytes()
    assert p.weights.tobytes() == w.tobytes() and p.bias.tobytes() == b.tobytes()


# --- activations written into `out` --------------------------------------------------


def test_forwards_into_out_are_bitwise_the_fresh_result_and_return_its_arrays(rng):
    x4, x2 = rng.normal(size=(3, 8, 8, 2)), rng.normal(size=(3, 10))
    conv = ops.Params(rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4))
    dense = ops.Params(rng.normal(size=(10, 5)), rng.normal(size=5))

    def nan(*shape):  # every element must be written
        return np.full(shape, np.nan)

    conv_out, pool_out, dropout_out = (np.zeros((3, 10, 10, 2)), nan(192, 18), nan(3, 8, 8, 4)), (
        nan(3, 4, 4, 2), np.full((3, 4, 4, 2), 7, np.uint8)), (nan(3, 10), nan(3, 10))
    cases = {  # op -> (call, out, the arrays of out it returns)
        "conv2d_forward": (lambda out: ops.conv2d_forward(x4, conv, out=out), conv_out, conv_out[2:]),
        "dense_forward": (lambda out: ops.dense_forward(x2, dense, out=out), nan(3, 5), None),
        "maxpool_forward": (lambda out: ops.maxpool_forward(x4, 2, out=out), pool_out, pool_out),
        "maxpool_values": (lambda out: ops.maxpool_values(x4, 2, out=out), nan(3, 4, 4, 2), None),
        "dropout": (lambda out: ops.dropout(x2, 0.5, np.random.default_rng(1), out=out), dropout_out, dropout_out),
    }
    for op, (call, out, returned) in cases.items():
        fresh, written = call(None), call(out)
        if not isinstance(written, tuple):
            fresh, written = (fresh,), (written,)
        assert all(a is b for a, b in zip(written, returned or (out,), strict=True)), op
        assert [a.tobytes() for a in written] == [a.tobytes() for a in fresh], op
    with pytest.raises(ops.ShapeError, match="^dense_forward: out must be"):
        ops.dense_forward(x2, dense, out=np.empty((3, 5), np.float32))
    with pytest.raises(ops.ShapeError, match="^conv2d_forward: out must be"):
        ops.conv2d_forward(x4, conv, out=(np.zeros((3, 10, 10, 2)), nan(192, 17), nan(3, 8, 8, 4)))


# --- gradients written into `out` ----------------------------------------------------

STOCK_SPECS = sorted((REPO_ROOT / "specs").glob("*.spec"))


def stock_backward_cases(spec_path, batch=10):
    """`(label, op, args, options, ref_w, ref_b)` per weighted layer of a stock net.

    `op(*args, **options)` is that layer's backward op on the inputs a training
    forward cached and a random output gradient, as `network.backward` calls it;
    `ref_w` and `ref_b` are its weight and bias gradients by the expressions
    `x.T @ g` (`cols.T @ g` for a conv) and `g.sum(axis=0)`.
    """
    spec = load_spec(spec_path)
    params = init_params(spec, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    shapes = propagate_shapes(spec)
    images = rng.integers(0, 256, size=(batch, *shapes[0]), dtype=np.uint8)
    _, caches = forward(spec, params, images, training=True, dropout_rng=rng)
    for layer, name, shape, cache in zip(spec.layers, layer_names(spec), shapes, caches):
        if name not in params:
            continue
        p, g = params[name], rng.normal(size=(batch, *shape))
        g_mat = g.reshape(-1, shape[-1])
        label = f"{spec_path.stem}:{name}"
        if layer.kind == "conv":
            ref_w = (cache["cols"].T @ g_mat).reshape(p.weights.shape)
            for input_grad in (True, False):
                yield (f"{label}:input_grad={input_grad}", ops.conv2d_backward, (cache["x"], p, g),
                       {"cols": cache["cols"], "input_grad": input_grad}, ref_w, g_mat.sum(axis=0))
        else:
            yield label, ops.dense_backward, (cache["x"], p, g), {}, cache["x"].T @ g, g.sum(axis=0)


@pytest.mark.parametrize("spec_path", STOCK_SPECS, ids=lambda p: p.stem)
def test_backward_into_out_is_bitwise_the_fresh_result_and_returns_its_arrays(spec_path):
    for label, op, args, options, ref_w, ref_b in stock_backward_cases(spec_path):
        fresh = op(*args, **options)
        out = (np.full(ref_w.shape, np.nan), np.full(ref_b.shape, np.nan))  # every element must be written
        written = op(*args, **options, out=out)
        assert written[1] is out[0] and written[2] is out[1], label
        for got in (fresh, written):
            assert got[1].tobytes() == ref_w.tobytes() and got[2].tobytes() == ref_b.tobytes(), label
        if fresh[0] is None:
            assert written[0] is None and options["input_grad"] is False, label
        else:
            assert written[0].tobytes() == fresh[0].tobytes(), label


BAD_OUT = {  # what makes a pair unfit, as a function of the right pair
    "weights-of-the-wrong-shape": lambda w, b: (w[..., :-1].copy(), b),
    "bias-of-the-wrong-shape": lambda w, b: (w, np.empty(b.size + 1)),
    "float32-weights": lambda w, b: (w.astype(np.float32), b),
    "integer-bias": lambda w, b: (w, np.zeros(b.shape, np.int64)),
    "fortran-ordered-weights": lambda w, b: (np.asfortranarray(w), b),
    "strided-bias": lambda w, b: (w, np.empty(2 * b.size)[::2]),
    "read-only-weights": lambda w, b: (np.frombuffer(w.tobytes()).reshape(w.shape), b),
    "a-list-for-the-bias": lambda w, b: (w, list(b)),
}


@pytest.mark.parametrize("bad", BAD_OUT)
@pytest.mark.parametrize("op", ["conv2d_backward", "dense_backward"])
def test_backward_refuses_an_unfit_out_pair_naming_the_op(rng, op, bad):
    if op == "conv2d_backward":
        x, g, w_shape = rng.normal(size=(2, 4, 4, 3)), rng.normal(size=(2, 4, 4, 5)), (3, 3, 3, 5)
    else:
        x, g, w_shape = rng.normal(size=(2, 6)), rng.normal(size=(2, 5)), (6, 5)
    p = ops.Params(rng.normal(size=w_shape), rng.normal(size=5))
    w, b = np.full(w_shape, np.nan), np.full(5, np.nan)
    out = BAD_OUT[bad](w, b)
    with pytest.raises(ops.ShapeError, match=f"^{op}: out must be"):
        getattr(ops, op)(x, p, g, out=out)
    assert np.isnan(w).all() and np.isnan(b).all()  # nothing was written before the refusal


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


def test_relu_backward_reads_the_same_mask_from_output_as_from_input(rng):
    z = np.concatenate([rng.normal(size=40), [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]])
    g = rng.normal(size=z.shape)
    from_input = ops.relu_backward(z, g)
    out = z.copy()
    assert ops.relu_backward(ops.relu(out, out=out), g).tobytes() == from_input.tobytes()


def test_relu_backward_in_place_is_the_out_of_place_product(rng):
    x = rng.choice([-1.0, -0.0, 0.0, 2.0, np.nan, np.inf], size=(5, 7))
    g = rng.normal(size=(5, 7))
    g[0] = [-1.0, -2.0, 4.0, -5.0, np.nan, -0.0, 3.0]
    expected = ops.relu_backward(x, g)
    out = g.copy()
    assert ops.relu_backward(x, out, out=out) is out
    assert out.tobytes() == expected.tobytes()
    assert np.signbit(expected[expected == 0]).any()  # a negative gradient times 0 stays -0.0


def test_dropout_scales_the_fresh_product_bitwise(rng):
    keep = 0.7  # x / 0.7 and x * (1 / 0.7) differ in a quarter of the elements
    x = rng.normal(size=(9, 37)) * 10.0 ** rng.integers(-300, 300, size=(9, 37))
    x_before = x.copy()
    y, mask = ops.dropout(x, keep, np.random.default_rng(4))
    ref_mask = (np.random.default_rng(4).random(x.shape) < keep).astype(np.float64)
    assert mask.tobytes() == ref_mask.tobytes()
    assert y.tobytes() == (x * ref_mask / keep).tobytes()
    g = rng.normal(size=x.shape) * 10.0 ** rng.integers(-300, 300, size=x.shape)
    g_before = g.copy()
    assert ops.dropout_backward(g, mask, keep).tobytes() == (g * ref_mask / keep).tobytes()
    assert x.tobytes() == x_before.tobytes() and g.tobytes() == g_before.tobytes()


def test_dropout_keep_one_is_identity(rng):
    x = rng.uniform(size=(5, 5))
    y, mask = ops.dropout(x, 1.0, rng)
    np.testing.assert_array_equal(y, x)
    np.testing.assert_array_equal(mask, np.ones_like(x))


def test_dropout_kept_fraction_concentrates(rng):
    x = np.ones(10000)
    y, mask = ops.dropout(x, 0.5, rng)
    kept = mask.mean()
    assert abs(kept - 0.5) <= 0.02
    # kept entries are scaled by 1/keep
    np.testing.assert_allclose(y[mask == 1.0], 2.0)
    assert not y[mask == 0.0].any()


def test_dropout_rejects_zero_keep(rng):
    with pytest.raises(ValueError, match="keep_prob"):
        ops.dropout(np.ones(3), 0.0, rng)


def test_softmax_uniform_logits():
    loss, grad = ops.softmax_xent(np.zeros((1, 10)), np.array([4]))
    assert loss == pytest.approx(np.log(10.0), rel=1e-12)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_softmax_saturated_logits():
    logits = np.zeros((1, 10))
    logits[0, 2] = 1000.0
    loss, grad = ops.softmax_xent(logits, np.array([2]))
    assert loss == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(grad, 0.0, atol=1e-8)


def test_softmax_grad_matches_finite_differences(rng):
    logits = rng.uniform(-2, 2, size=(1, 10))
    label = np.array([rng.integers(10)])
    _, grad = ops.softmax_xent(logits, label)
    num = numerical_gradient(lambda v: ops.softmax_xent(v, label)[0], logits.copy())
    assert max_rel_err(grad, num) <= 1e-4


@pytest.mark.parametrize(
    "labels, error, message",
    [
        (np.array([3.0, 1.0]), ops.ShapeError, "integer class indices"),
        (np.eye(10)[[3, 1]], ops.ShapeError, "integer class indices"),
        (np.array([3, 10]), ValueError, "outside 0..9"),
        (np.array([-1, 3]), ValueError, "outside 0..9"),
    ],
    ids=["float", "one-hot", "index-10", "index-minus-1"],
)
def test_softmax_rejects_labels_that_are_not_class_indices(labels, error, message):
    with pytest.raises(error, match=message):
        ops.softmax_xent(np.zeros((2, 10)), labels)


def _one_hot_softmax_xent(logits, labels):
    """The one-hot formula: `softmax_xent` must give its loss and gradient bit for bit."""
    onehot = np.eye(logits.shape[1])[labels]
    zs = logits - logits.max(axis=-1, keepdims=True)
    ez = np.exp(zs)
    p = ez / ez.sum(axis=-1, keepdims=True)
    logp = zs - np.log(ez.sum(axis=-1, keepdims=True))
    return float((-(onehot * logp).sum(axis=-1)).mean()), (p - onehot) / logits.shape[0]


@pytest.mark.parametrize("kind", ["random", "saturated", "uniform"])
def test_softmax_is_bitwise_the_one_hot_formula(rng, kind):
    for n in (1, 2, 7, 50):
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        if kind == "random":
            logits = rng.normal(0, 3, size=(n, 10))
        elif kind == "saturated":  # 1000 at the label in even rows (loss 0), at another class in odd rows (loss 1000)
            hot = labels.copy()
            hot[1::2] = (hot[1::2] + 1) % 10
            logits = 1000.0 * np.eye(10)[hot]
        else:
            logits = np.zeros((n, 10))
        loss, grad = ops.softmax_xent(logits, labels)
        ref_loss, ref_grad = _one_hot_softmax_xent(logits, labels)
        assert loss.hex() == ref_loss.hex()
        assert grad.tobytes() == ref_grad.tobytes()


def test_softmax_loss_nonnegative_grad_sums_zero(rng):
    for _ in range(25):
        logits = rng.normal(0, 3, size=(1, 10))
        label = np.array([rng.integers(10)])
        loss, grad = ops.softmax_xent(logits, label)
        assert loss >= 0.0
        assert grad.sum() == pytest.approx(0.0, abs=1e-10)


def test_softmax_batch_mean_reduction(rng):
    logits = rng.normal(size=(6, 10))
    labels = rng.integers(0, 10, size=6)
    loss, grad = ops.softmax_xent(logits, labels)
    singles = [ops.softmax_xent(logits[i : i + 1], labels[i : i + 1]) for i in range(6)]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
    np.testing.assert_allclose(grad, np.concatenate([s[1] for s in singles]) / 6)


def test_ops_outputs_finite_on_finite_inputs(rng):
    x = rng.normal(0, 50, size=(1, 8, 8, 3))
    p = ops.Params(rng.normal(0, 50, size=(5, 5, 3, 4)), rng.normal(0, 50, size=4))
    assert np.isfinite(ops.conv2d_forward(x, p)).all()
    y, _ = ops.maxpool_forward(x, 2)
    assert np.isfinite(y).all()
    d, _ = ops.dropout(x, 0.25, rng)
    assert np.isfinite(d).all()


def test_determinism_same_rng_state_same_output(rng):
    x = rng.uniform(size=(6, 6))
    a, am = ops.dropout(x, 0.5, np.random.default_rng(99))
    b, bm = ops.dropout(x, 0.5, np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(am, bm)
