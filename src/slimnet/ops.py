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
* `conv2d_forward(..., keep_cols=True)` also returns its im2col matrix,
  and `conv2d_backward(..., cols=...)` reuses it instead of building it
  again.  `conv2d_backward(..., input_grad=False)` skips the col2im
  input gradient and returns `None` in its place, for a layer whose
  input needs no gradient.
* `conv2d_backward` and `dense_backward` take `out=(grad_w, grad_b)`,
  writable C-contiguous float64 arrays of the weights' and the bias's
  shapes, which they overwrite and return, so a training run allocates
  its weight and bias gradients once.  Without `out` both are fresh.
  Either way they are written by `np.matmul(..., out=)` and
  `np.sum(..., out=)`, so the bits are the same.
* Every function is pure (`relu`, `relu_backward` and the two affine
  backwards write into `out` only when given one): randomness (dropout)
  comes from an explicitly passed `numpy.random.Generator`.
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


def _grads_out(op: str, out, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `(grad_w, grad_b)` arrays a backward writes: `out` once checked, or two fresh ones."""
    if out is None:
        return np.empty(w.shape), np.empty(w.shape[-1:])
    grad_w, grad_b = out
    for arr, shape in ((grad_w, w.shape), (grad_b, w.shape[-1:])):
        if not (isinstance(arr, np.ndarray) and arr.shape == shape and arr.dtype == np.float64
                and arr.flags.c_contiguous and arr.flags.writeable):
            raise ShapeError(f"{op}: out must be writable C-contiguous float64 arrays of shapes "
                             f"{w.shape} and {w.shape[-1:]}, got {getattr(arr, 'dtype', type(arr).__name__)} {np.shape(arr)}")
    return grad_w, grad_b


def _same_pad(extent: int) -> tuple[int, int]:
    # Total padding extent-1, biased to the trailing side for even kernels.
    before = (extent - 1) // 2
    return before, extent - 1 - before


def _im2col(x4: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """SAME-padded sliding windows as a `[N*H*W, kh*kw*C]` matrix."""
    n, h, w, c = x4.shape
    (pt, pb), (pl, pr) = _same_pad(kh), _same_pad(kw)
    xp = np.pad(x4, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    # [N, H, W, C, kh, kw] -> [N*H*W, kh*kw*C], matching the kernel layout
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(n * h * w, kh * kw * c)


def conv2d_forward(x, params: Params, *, keep_cols: bool = False):
    """Stride-1 SAME convolution; output spatial size equals input's.

    The bias is added in place to the fresh im2col product, so no second
    output-sized array is allocated; the sum is the same.  Returns the
    output, or `(output, cols)` with `keep_cols`: `cols` is the im2col
    matrix of `x`, for `conv2d_backward` to reuse.
    """
    x, w, b = _affine("conv2d_forward", x, params, 4)
    kh, kw, _, cout = w.shape
    n, h, wd, _ = x.shape
    cols = _im2col(x, kh, kw)
    y = cols @ w.reshape(-1, cout)
    y += b
    y = y.reshape(n, h, wd, cout)
    return (y, cols) if keep_cols else y


def conv2d_backward(x, params: Params, grad_out, *, input_grad: bool = True, cols=None, out=None):
    """Gradients of `conv2d_forward` w.r.t. input, weights and bias.

    Returns `(grad_x, grad_w, grad_b)`.  With `input_grad=False` the
    col2im pass is skipped and `grad_x` is `None`; `grad_w` and `grad_b`
    are the same arrays either way.  `cols` is the im2col matrix of `x`
    from `conv2d_forward(..., keep_cols=True)`; without it the matrix is
    built again from `x`, and the gradients are the same.  `grad_w` and
    `grad_b` are written into `out` when given (see the module notes);
    the weight GEMM writes through `grad_w.reshape(-1, C_out)`, a view.
    """
    x, w, _ = _affine("conv2d_backward", x, params, 4)
    grad_out = _as_f64(grad_out)
    kh, kw, cin, cout = w.shape
    n, h, wd, _ = x.shape
    if grad_out.shape != (n, h, wd, cout):
        raise ShapeError(f"conv2d_backward: grad_out shape {grad_out.shape} does not match output {(n, h, wd, cout)}")
    grad_w, grad_b = _grads_out("conv2d_backward", out, w)
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


def maxpool_forward(x, window: int):
    """Max pool with stride = window.  Returns (output, argmax).

    `argmax` holds each window's row-major winner index, the first
    maximum (see the module notes), which makes the backward pass
    deterministic.  The output is `maxpool_values`' output; the index
    counts the leading window positions whose strided slice lies below
    the maximum, so no window is copied.
    """
    x = _pool_input(x, window)
    y = maxpool_values(x, window)
    idx = np.zeros(y.shape, dtype=np.min_scalar_type(window * window - 1))
    missed = np.ones(y.shape, dtype=bool)  # no winner among positions 0..k yet
    loses = np.empty(y.shape, dtype=bool)
    for k in range(window * window - 1):
        dy, dx = divmod(k, window)
        s = x[:, dy::window, dx::window, :]
        np.less(s, y, out=loses)
        missed &= loses
        idx += missed
    return y, idx


def maxpool_values(x, window: int) -> np.ndarray:
    """The output of `maxpool_forward` without its argmax, for inference.

    Takes the elementwise maximum over the window*window strided slices
    in row-major window order.  A tie keeps the earlier element (numpy's
    `maximum` returns its second operand on a tie), and a NaN propagates.
    """
    x = _pool_input(x, window)
    y = x[:, ::window, ::window, :].copy()
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


def dense_forward(x, params: Params) -> np.ndarray:
    """Affine map `x @ W + b` for an `[N, F]` batch.

    The bias is added in place to the fresh product, so no second
    output-sized array is allocated; the sum is the same.
    """
    x, w, b = _affine("dense_forward", x, params, 2)
    y = x @ w
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
    grad_w, grad_b = _grads_out("dense_backward", out, w)
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


def dropout(x, keep_prob: float, rng: np.random.Generator):
    """Inverted dropout: kept activations are scaled by 1/keep_prob.

    Returns `(output, mask)`; with `keep_prob` 1 the op is the identity
    and the mask is all ones.  `keep_prob` must lie in (0, 1].
    """
    x = _as_f64(x)
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout: keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return x, np.ones_like(x)
    mask = (rng.random(x.shape) < keep_prob).astype(np.float64)
    y = x * mask
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
