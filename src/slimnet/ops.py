"""Dense tensor kernels: forward and reverse-mode backward passes.

Conventions
-----------
* Activations are float64 batches laid out `[N, H, W, C]`; vectors are
  `[N, F]`.  Each op that needs a rank checks it and raises `ShapeError`.
* A layer's parameters are one `Params(weights, bias)` record: a conv
  kernel `[kh, kw, C_in, C_out]` or a dense matrix `[F_in, F_out]`, and
  one bias entry per output.  The record checks nothing; each affine op
  checks the ranks and extents it reads and raises `ShapeError` naming
  itself, so a malformed checkpoint tensor fails at its first use.
* Convolution stride is fixed at 1 with SAME zero padding, so spatial
  extent is preserved.
* Pooling windows are square with stride equal to the window, and the
  input extent must divide evenly.  `maxpool_forward` also returns the
  argmax its backward needs; `maxpool_values` returns the same maxima
  alone.  The argmax holds each window's row-major position in the
  smallest unsigned integer type that holds window*window - 1 (uint8 up
  to a 16x16 window).  It is the first maximum, as `numpy.argmax` picks
  it: among tied elements, +0.0 and -0.0 included, the earliest wins; a
  window holding a NaN, whose loss would stop training, gets argmax 0.
* The forwards take `out=`, the arrays they write: `conv2d_forward` its
  zero-bordered padded input, im2col matrix and output; `dense_forward`
  and `maxpool_values` their output; `maxpool_forward` its output and
  argmax; `dropout` its output and mask.  The backwards take
  `out=(grad_w, grad_b)`.  Each array must be writable, C-contiguous
  and of the op's shape and dtype (`ShapeError` names the op
  otherwise); it is overwritten and returned, so a training run
  allocates its activations and gradients once.  Without `out` each is
  fresh.  Either way it is written by the same `np.matmul(..., out=)`,
  copy or ufunc, so the bits are the same.
* `conv2d_backward(..., cols=...)` reuses the im2col matrix of its
  forward instead of building it again.  `conv2d_backward(...,
  input_grad=False)` skips the col2im input gradient and returns `None`
  in its place, for a layer whose input needs no gradient.
* Every function is pure but for the arrays it is handed as `out` (the
  padded input's border is only read, so it stays zero): randomness
  (dropout) comes from an explicitly passed `numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "Params",
    "conv2d_forward",
    "conv2d_backward",
    "maxpool_forward",
    "maxpool_values",
    "maxpool_backward",
    "dense_forward",
    "dense_backward",
    "relu",
    "relu_backward",
    "dropout",
    "dropout_backward",
    "softmax_xent",
]


class ShapeError(ValueError):
    """Raised when an operand's shape contradicts the op's contract."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _rank(x: np.ndarray, rank: int, op: str) -> np.ndarray:
    if x.ndim != rank:
        raise ShapeError(f"{op}: expected a rank {rank} batch, got shape {x.shape}")
    return x


@dataclass
class Params:
    """A layer's weights and bias; each affine op checks their shapes."""

    weights: np.ndarray
    bias: np.ndarray


def _affine(op: str, x, params: Params, rank: int):
    """`x`, weights and bias as float64: both of `rank`, `x`'s last axis the
    weights' next to last, one bias entry per output (the weights' last)."""
    x = _rank(_as_f64(x), rank, op)
    w, b = _as_f64(params.weights), _as_f64(params.bias)
    if w.ndim != rank:
        raise ShapeError(f"{op}: weights must be rank {rank}, got shape {w.shape}")
    if b.shape != w.shape[-1:]:
        raise ShapeError(f"{op}: bias shape {b.shape} does not match the {w.shape[-1]} outputs of weights {w.shape}")
    if x.shape[-1] != w.shape[-2]:
        raise ShapeError(f"{op}: input {x.shape} has {x.shape[-1]} features but weights {w.shape} take {w.shape[-2]}")
    return x, w, b


def _outs(op: str, out, *shapes, dtype=np.float64) -> list[np.ndarray]:
    """The arrays an op writes, one per shape: `out` once checked, or fresh zeros when it is `None`."""
    if out is None:
        return [np.zeros(shape, dtype) for shape in shapes]
    if len(out) != len(shapes):
        raise ShapeError(f"{op}: out must hold {len(shapes)} arrays, got {len(out)}")
    for arr, shape in zip(out, shapes):
        if not (isinstance(arr, np.ndarray) and arr.shape == shape and arr.dtype == dtype
                and arr.flags.c_contiguous and arr.flags.writeable):
            raise ShapeError(f"{op}: out must be writable C-contiguous {np.dtype(dtype)} arrays of shapes "
                             f"{', '.join(map(str, shapes))}, got {getattr(arr, 'dtype', type(arr).__name__)} {np.shape(arr)}")
    return list(out)


def _same_pad(extent: int) -> tuple[int, int]:
    # Total padding extent-1, biased to the trailing side for even kernels.
    before = (extent - 1) // 2
    return before, extent - 1 - before


def _im2col(x4: np.ndarray, kh: int, kw: int, padded=None, out=None) -> np.ndarray:
    """SAME-padded sliding windows as a `[N*H*W, kh*kw*C]` matrix, written into `out`.

    `x4` is copied into the interior of `padded`, a `[N, H+kh-1, W+kw-1, C]`
    array whose border is zero; both are fresh when not given.
    """
    n, h, w, c = x4.shape
    (pt, _), (pl, _) = _same_pad(kh), _same_pad(kw)
    if padded is None:
        padded, out = _outs("im2col", None, (n, h + kh - 1, w + kw - 1, c), (n * h * w, kh * kw * c))
    padded[:, pt : pt + h, pl : pl + w] = x4
    win = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    # [N, H, W, C, kh, kw] -> [N, H, W, kh, kw, C], matching the kernel layout
    np.copyto(out.reshape(n, h, w, kh, kw, c), win.transpose(0, 1, 2, 4, 5, 3))
    return out


def conv2d_forward(x, params: Params, *, out=None) -> np.ndarray:
    """Stride-1 SAME convolution; output spatial size equals input's.

    `out` is `(padded, cols, y)` (see the module notes): the input with
    its SAME border, the im2col matrix of `x`, which `conv2d_backward`
    reuses, and the output.  The product is written into `y` and the bias
    added in place, so the sum is that of `cols @ W + b`.  Returns `y`.
    """
    x, w, b = _affine("conv2d_forward", x, params, 4)
    kh, kw, cin, cout = w.shape
    n, h, wd, _ = x.shape
    padded, cols, y = _outs("conv2d_forward", out, (n, h + kh - 1, wd + kw - 1, cin),
                            (n * h * wd, kh * kw * cin), (n, h, wd, cout))
    _im2col(x, kh, kw, padded, cols)
    np.matmul(cols, w.reshape(-1, cout), out=y.reshape(n * h * wd, cout))
    y += b
    return y


def conv2d_backward(x, params: Params, grad_out, *, input_grad: bool = True, cols=None, out=None):
    """Gradients of `conv2d_forward` w.r.t. input, weights and bias.

    Returns `(grad_x, grad_w, grad_b)`.  With `input_grad=False` the
    col2im pass is skipped and `grad_x` is `None`; `grad_w` and `grad_b`
    are the same arrays either way.  `cols` is the im2col matrix of `x`
    that `conv2d_forward` wrote; without it the matrix is built again
    from `x`, and the gradients are the same.  `grad_w` and
    `grad_b` are written into `out` when given (see the module notes);
    the weight GEMM writes through `grad_w.reshape(-1, C_out)`, a view.
    """
    x, w, _ = _affine("conv2d_backward", x, params, 4)
    grad_out = _as_f64(grad_out)
    kh, kw, cin, cout = w.shape
    n, h, wd, _ = x.shape
    if grad_out.shape != (n, h, wd, cout):
        raise ShapeError(f"conv2d_backward: grad_out shape {grad_out.shape} does not match output {(n, h, wd, cout)}")
    grad_w, grad_b = _outs("conv2d_backward", out, w.shape, w.shape[-1:])
    if cols is None:
        cols = _im2col(x, kh, kw)
    elif cols.shape != (n * h * wd, kh * kw * cin):
        raise ShapeError(f"conv2d_backward: cols shape {cols.shape} is not the im2col of input {x.shape}")
    g_mat = grad_out.reshape(n * h * wd, cout)
    np.matmul(cols.T, g_mat, out=grad_w.reshape(-1, cout))
    np.sum(g_mat, axis=0, out=grad_b)
    if not input_grad:
        return None, grad_w, grad_b
    # col2im: scatter each window-column gradient back onto the padded input
    grad_cols = (g_mat @ w.reshape(-1, cout).T).reshape(n, h, wd, kh, kw, cin)
    (pt, pb), (pl, pr) = _same_pad(kh), _same_pad(kw)
    grad_xp = np.zeros((n, h + kh - 1, wd + kw - 1, cin))
    for dy in range(kh):
        for dx in range(kw):
            grad_xp[:, dy : dy + h, dx : dx + wd, :] += grad_cols[:, :, :, dy, dx, :]
    return grad_xp[:, pt : pt + h, pl : pl + wd, :], grad_w, grad_b


def _pool_input(x, window: int) -> np.ndarray:
    x = _rank(_as_f64(x), 4, "maxpool")
    h, w = x.shape[1:3]
    if window < 1:
        raise ShapeError(f"maxpool: window must be positive, got {window}")
    if h % window or w % window:
        raise ShapeError(f"maxpool: spatial extent {h}x{w} not divisible by window {window}")
    return x


def maxpool_forward(x, window: int, *, out=None):
    """Max pool with stride = window.  Returns `(output, argmax)`, written into `out` when given.

    `argmax` holds each window's row-major winner index, the first
    maximum (see the module notes), which makes the backward pass
    deterministic.  The output is `maxpool_values`' output; the index
    counts the leading window positions whose strided slice lies below
    the maximum, so no window is copied.
    """
    x = _pool_input(x, window)
    n, h, w, c = x.shape
    shape = (n, h // window, w // window, c)
    y, = _outs("maxpool_forward", None if out is None else out[:1], shape)
    idx, = _outs("maxpool_forward", None if out is None else out[1:], shape,
                 dtype=np.min_scalar_type(window * window - 1))
    maxpool_values(x, window, out=y)
    idx.fill(0)
    missed = np.ones(shape, dtype=bool)  # no winner among positions 0..k yet
    loses = np.empty(shape, dtype=bool)
    for k in range(window * window - 1):
        dy, dx = divmod(k, window)
        s = x[:, dy::window, dx::window, :]
        np.less(s, y, out=loses)
        missed &= loses
        idx += missed
    return y, idx


def maxpool_values(x, window: int, *, out=None) -> np.ndarray:
    """The output of `maxpool_forward` without its argmax, for inference.

    Takes the elementwise maximum over the window*window strided slices
    in row-major window order, into `out` when given.  A tie keeps the
    earlier element (numpy's `maximum` returns its second operand on a
    tie), and a NaN propagates.
    """
    x = _pool_input(x, window)
    first = x[:, ::window, ::window, :]
    y, = _outs("maxpool_values", None if out is None else (out,), first.shape)
    np.copyto(y, first)
    for k in range(1, window * window):
        dy, dx = divmod(k, window)
        np.maximum(x[:, dy::window, dx::window, :], y, out=y)
    return y


def maxpool_backward(grad_out, argmax, window: int) -> np.ndarray:
    """Route each output gradient to its saved argmax position.

    The gradients are copied into zeros, not multiplied by a mask, so
    every other position holds +0.0 whatever the sign of the gradient.
    """
    grad_out = _rank(_as_f64(grad_out), 4, "maxpool_backward")
    if argmax.shape != grad_out.shape:
        raise ShapeError(f"maxpool_backward: argmax shape {argmax.shape} does not match grad_out {grad_out.shape}")
    n, ho, wo, c = grad_out.shape
    h, w = ho * window, wo * window
    k = np.arange(window * window)
    # flat input position: the winner's offset in its window plus the window's first element
    pos = ((k // window * w + k % window) * c)[argmax]
    pos += (np.arange(n) * (h * w * c))[:, None, None, None]
    pos += (np.arange(ho) * (window * w * c))[:, None, None]
    pos += (np.arange(wo) * (window * c))[:, None]
    pos += np.arange(c)
    gx = np.zeros((n, h, w, c))
    gx.reshape(-1)[pos] = grad_out
    return gx


def dense_forward(x, params: Params, *, out=None) -> np.ndarray:
    """Affine map `x @ W + b` for an `[N, F]` batch, written into `out` when given.

    The bias is added in place to the product, so no second output-sized
    array is allocated; the sum is the same.
    """
    x, w, b = _affine("dense_forward", x, params, 2)
    y, = _outs("dense_forward", None if out is None else (out,), (x.shape[0], w.shape[1]))
    np.matmul(x, w, out=y)
    y += b
    return y


def dense_backward(x, params: Params, grad_out, *, out=None):
    """Gradients of `dense_forward` w.r.t. input, weights and bias.

    Returns `(grad_x, grad_w, grad_b)`; `grad_w` and `grad_b` are written
    into `out` when given (see the module notes).
    """
    x, w, _ = _affine("dense_backward", x, params, 2)
    grad_out = _as_f64(grad_out)
    if grad_out.shape != (x.shape[0], w.shape[1]):
        raise ShapeError(
            f"dense_backward: grad_out shape {grad_out.shape} does not match output {(x.shape[0], w.shape[1])}"
        )
    grad_w, grad_b = _outs("dense_backward", out, w.shape, w.shape[-1:])
    grad_x = grad_out @ w.T
    np.matmul(x.T, grad_out, out=grad_w)
    np.sum(grad_out, axis=0, out=grad_b)
    return grad_x, grad_w, grad_b


def relu(x, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into `out` when given (`out=x` is in place)."""
    return np.maximum(_as_f64(x), 0.0, out=out)


def relu_backward(x, grad_out, out: np.ndarray | None = None) -> np.ndarray:
    """Pass gradient where input > 0; the subgradient at 0 is taken as 0.

    `x` may be the ReLU's input or its output: relu(x) > 0 exactly where
    x > 0, NaN and signed zeros included.  The product is written into
    `out` when given (`out=grad_out` is in place), with the same bits.
    """
    x = _as_f64(x)
    grad_out = _as_f64(grad_out)
    if x.shape != grad_out.shape:
        raise ShapeError(f"relu_backward: input shape {x.shape} != grad_out shape {grad_out.shape}")
    return np.multiply(grad_out, x > 0.0, out=out)


def dropout(x, keep_prob: float, rng: np.random.Generator, *, out=None):
    """Inverted dropout: kept activations are scaled by 1/keep_prob.

    Returns `(output, mask)`, written into `out` when given; with
    `keep_prob` 1 the op is the identity and the mask is all ones.
    `keep_prob` must lie in (0, 1].  The uniform draw is made into the
    mask and compared there, so a draw costs no array of its own.
    """
    x = _as_f64(x)
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout: keep_prob must be in (0, 1], got {keep_prob}")
    y, mask = _outs("dropout", out, x.shape, x.shape)
    if keep_prob == 1.0:
        np.copyto(y, x)
        mask.fill(1.0)
        return y, mask
    rng.random(out=mask)
    np.less(mask, keep_prob, out=mask)
    np.multiply(x, mask, out=y)
    y /= keep_prob
    return y, mask


def dropout_backward(grad_out, mask, keep_prob: float) -> np.ndarray:
    grad_out = _as_f64(grad_out)
    if grad_out.shape != mask.shape:
        raise ShapeError(f"dropout_backward: grad_out shape {grad_out.shape} != mask shape {mask.shape}")
    g = grad_out * mask
    g /= keep_prob
    return g


def softmax_xent(logits, labels):
    """Softmax cross-entropy loss and its gradient w.r.t. the logits.

    For `[N, C]` logits and `[N]` integer class indices returns the mean
    loss and `(softmax - onehot(labels)) / N`, so the gradient is exactly
    that of the returned scalar.  Stabilized by max subtraction.  Labels
    that are not `[N]` integers raise `ShapeError`, an index outside 0..C-1 `ValueError`.
    """
    z = _rank(_as_f64(logits), 2, "softmax_xent")
    y = np.asarray(labels)
    if y.shape != z.shape[:1] or y.dtype.kind not in "iu":
        raise ShapeError(f"softmax_xent: labels must be {z.shape[:1]} integer class indices, got {y.dtype} {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= z.shape[1]):
        raise ValueError(f"softmax_xent: labels span {y.min()}..{y.max()}, outside 0..{z.shape[1] - 1}")
    rows = np.arange(len(y))
    zs = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(zs)
    total = ez.sum(axis=-1, keepdims=True)
    p = ez / total
    losses = -(zs[rows, y] - np.log(total[:, 0]))
    p[rows, y] -= 1.0
    p /= z.shape[0]
    return float(losses.mean()), p
