"""Dense tensor kernels: forward and reverse-mode backward passes.

Conventions
-----------
* Activations are float64 arrays laid out `[H, W, C]`, optionally with a
  leading batch axis `[N, H, W, C]`.  Vectors are `[F]` or `[N, F]`.
* Convolution kernels are `[kh, kw, C_in, C_out]`; stride is fixed at 1
  with SAME zero padding, so spatial extent is preserved.
* Pooling windows are square with stride equal to the window, and the
  input extent must divide evenly.  `maxpool_forward` also returns the
  argmax its backward needs; `maxpool_values` returns the maxima alone.
* `conv2d_backward(..., input_grad=False)` skips the col2im input
  gradient and returns `None` in its place, for a layer whose input
  needs no gradient.
* Every function is pure (`relu` writes into `out` only when given
  one): randomness (dropout) comes from an explicitly passed
  `numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "ConvParams",
    "DenseParams",
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


def _batched(x: np.ndarray, rank: int) -> tuple[np.ndarray, bool]:
    """Add a singleton batch axis when `x` is a single sample."""
    if x.ndim == rank:
        return x[None, ...], False
    if x.ndim == rank + 1:
        return x, True
    raise ShapeError(f"expected rank {rank} or {rank + 1} array, got shape {x.shape}")


@dataclass
class ConvParams:
    """Convolution weights `[kh, kw, C_in, C_out]` plus per-channel bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = _as_f64(self.weights)
        self.bias = _as_f64(self.bias)
        if self.weights.ndim != 4:
            raise ShapeError(f"conv weights must be rank 4 [kh,kw,in,out], got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[3],):
            raise ShapeError(
                f"conv bias shape {self.bias.shape} inconsistent with out_channels {self.weights.shape[3]}"
            )

    @property
    def kernel_h(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel_w(self) -> int:
        return self.weights.shape[1]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[2]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[3]


@dataclass
class DenseParams:
    """Fully connected weights `[in_features, out_features]` plus bias."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = _as_f64(self.weights)
        self.bias = _as_f64(self.bias)
        if self.weights.ndim != 2:
            raise ShapeError(f"dense weights must be rank 2 [in,out], got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"dense bias shape {self.bias.shape} inconsistent with out_features {self.weights.shape[1]}"
            )

    @property
    def in_features(self) -> int:
        return self.weights.shape[0]

    @property
    def out_features(self) -> int:
        return self.weights.shape[1]


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


def conv2d_forward(x, params: ConvParams) -> np.ndarray:
    """Stride-1 SAME convolution; output spatial size equals input's.

    The bias is added in place to the fresh im2col product, so no second
    output-sized array is allocated; the sum is the same.
    """
    x = _as_f64(x)
    x4, had_batch = _batched(x, 3)
    w, b = params.weights, params.bias
    if x4.shape[3] != params.in_channels:
        raise ShapeError(
            f"conv2d: input has {x4.shape[3]} channels but kernel expects "
            f"{params.in_channels} (input {x.shape}, kernel {w.shape})"
        )
    n, h, wd, _ = x4.shape
    cols = _im2col(x4, params.kernel_h, params.kernel_w)
    y = cols @ w.reshape(-1, params.out_channels)
    y += b
    y = y.reshape(n, h, wd, params.out_channels)
    return y if had_batch else y[0]


def conv2d_backward(x, params: ConvParams, grad_out, *, input_grad: bool = True):
    """Gradients of `conv2d_forward` w.r.t. input, weights and bias.

    Returns `(grad_x, grad_w, grad_b)`.  With `input_grad=False` the
    col2im pass is skipped and `grad_x` is `None`; `grad_w` and `grad_b`
    are the same arrays either way.
    """
    x = _as_f64(x)
    grad_out = _as_f64(grad_out)
    x4, had_batch = _batched(x, 3)
    g4, _ = _batched(grad_out, 3)
    w = params.weights
    n, h, wd, _ = x4.shape
    expect = (n, h, wd, params.out_channels)
    if g4.shape != expect:
        raise ShapeError(f"conv2d_backward: grad_out shape {grad_out.shape} does not match output {expect}")
    if x4.shape[3] != params.in_channels:
        raise ShapeError(
            f"conv2d_backward: input has {x4.shape[3]} channels but kernel expects {params.in_channels}"
        )
    kh, kw, cin = params.kernel_h, params.kernel_w, params.in_channels
    g_mat = g4.reshape(n * h * wd, params.out_channels)
    cols = _im2col(x4, kh, kw)
    grad_w = (cols.T @ g_mat).reshape(w.shape)
    grad_b = g_mat.sum(axis=0)
    if not input_grad:
        return None, grad_w, grad_b
    # col2im: scatter each window-column gradient back onto the padded input
    grad_cols = (g_mat @ w.reshape(-1, params.out_channels).T).reshape(n, h, wd, kh, kw, cin)
    (pt, pb), (pl, pr) = _same_pad(kh), _same_pad(kw)
    grad_xp = np.zeros((n, h + kh - 1, wd + kw - 1, cin))
    for dy in range(kh):
        for dx in range(kw):
            grad_xp[:, dy : dy + h, dx : dx + wd, :] += grad_cols[:, :, :, dy, dx, :]
    grad_x = grad_xp[:, pt : pt + h, pl : pl + wd, :]
    return (grad_x if had_batch else grad_x[0]), grad_w, grad_b


def _pool_windows(x4: np.ndarray, window: int) -> np.ndarray:
    """Reshape `[N,H,W,C]` to `[N,Ho,Wo,window*window,C]`, windows row-major."""
    n, h, w, c = x4.shape
    ho, wo = h // window, w // window
    xr = x4.reshape(n, ho, window, wo, window, c)
    return xr.transpose(0, 1, 3, 2, 4, 5).reshape(n, ho, wo, window * window, c)


def _pool_input(x, window: int) -> tuple[np.ndarray, bool]:
    x4, had_batch = _batched(_as_f64(x), 3)
    h, w = x4.shape[1:3]
    if window < 1:
        raise ShapeError(f"maxpool: window must be positive, got {window}")
    if h % window or w % window:
        raise ShapeError(f"maxpool: spatial extent {h}x{w} not divisible by window {window}")
    return x4, had_batch


def maxpool_forward(x, window: int):
    """Max pool with stride = window.  Returns (output, argmax).

    `argmax` holds each window's flat row-major winner index; ties go to
    the first such element, which makes the backward pass deterministic.
    """
    x4, had_batch = _pool_input(x, window)
    win = _pool_windows(x4, window)
    idx = np.argmax(win, axis=3)
    y = np.take_along_axis(win, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    if not had_batch:
        return y[0], idx[0]
    return y, idx


def maxpool_values(x, window: int) -> np.ndarray:
    """The output of `maxpool_forward` without its argmax, for inference.

    Takes the elementwise maximum over the window*window strided slices
    in row-major window order.  A tie keeps the earlier element (numpy's
    `maximum` returns its second operand on a tie), and a NaN propagates,
    so the result is bit-identical to `maxpool_forward`'s output.
    """
    x4, had_batch = _pool_input(x, window)
    y = x4[:, ::window, ::window, :].copy()
    for k in range(1, window * window):
        dy, dx = divmod(k, window)
        np.maximum(x4[:, dy::window, dx::window, :], y, out=y)
    return y if had_batch else y[0]


def maxpool_backward(grad_out, argmax, window: int) -> np.ndarray:
    """Route each output gradient to its saved argmax position."""
    grad_out = _as_f64(grad_out)
    g4, had_batch = _batched(grad_out, 3)
    idx = argmax[None, ...] if not had_batch else argmax
    if idx.shape != g4.shape:
        raise ShapeError(f"maxpool_backward: argmax shape {argmax.shape} does not match grad_out {grad_out.shape}")
    n, ho, wo, c = g4.shape
    buf = np.zeros((n, ho, wo, window * window, c))
    np.put_along_axis(buf, idx[:, :, :, None, :], g4[:, :, :, None, :], axis=3)
    gx = buf.reshape(n, ho, wo, window, window, c).transpose(0, 1, 3, 2, 4, 5)
    gx = gx.reshape(n, ho * window, wo * window, c)
    return gx if had_batch else gx[0]


def dense_forward(x, params: DenseParams) -> np.ndarray:
    """Affine map `x @ W + b` for `[F]` or `[N, F]` inputs.

    The bias is added in place to the fresh product, so no second
    output-sized array is allocated; the sum is the same.
    """
    x = _as_f64(x)
    if x.ndim not in (1, 2):
        raise ShapeError(f"dense: expected vector or batch of vectors, got shape {x.shape}")
    if x.shape[-1] != params.in_features:
        raise ShapeError(
            f"dense: input length {x.shape[-1]} does not match in_features "
            f"{params.in_features} (weights {params.weights.shape})"
        )
    y = x @ params.weights
    y += params.bias
    return y


def dense_backward(x, params: DenseParams, grad_out):
    """Gradients of `dense_forward` w.r.t. input, weights and bias."""
    x = _as_f64(x)
    grad_out = _as_f64(grad_out)
    if grad_out.shape[-1] != params.out_features or grad_out.ndim != x.ndim:
        raise ShapeError(
            f"dense_backward: grad_out shape {grad_out.shape} does not match output "
            f"of length {params.out_features}"
        )
    if x.shape[-1] != params.in_features:
        raise ShapeError(f"dense_backward: input length {x.shape[-1]} != in_features {params.in_features}")
    grad_x = grad_out @ params.weights.T
    if x.ndim == 1:
        grad_w = np.outer(x, grad_out)
        grad_b = grad_out.copy()
    else:
        grad_w = x.T @ grad_out
        grad_b = grad_out.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu(x, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into `out` when given (`out=x` is in place)."""
    return np.maximum(_as_f64(x), 0.0, out=out)


def relu_backward(x, grad_out) -> np.ndarray:
    """Pass gradient where input > 0; the subgradient at 0 is taken as 0."""
    x = _as_f64(x)
    grad_out = _as_f64(grad_out)
    if x.shape != grad_out.shape:
        raise ShapeError(f"relu_backward: input shape {x.shape} != grad_out shape {grad_out.shape}")
    return grad_out * (x > 0.0)


def dropout(x, keep_prob: float, rng: np.random.Generator, training: bool = True):
    """Inverted dropout: kept activations are scaled by 1/keep_prob.

    Returns `(output, mask)`; in eval mode the op is the identity and the
    mask is all ones.  `keep_prob` must lie in (0, 1].
    """
    x = _as_f64(x)
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"dropout: keep_prob must be in (0, 1], got {keep_prob}")
    if not training or keep_prob == 1.0:
        return x, np.ones_like(x)
    mask = (rng.random(x.shape) < keep_prob).astype(np.float64)
    return x * mask / keep_prob, mask


def dropout_backward(grad_out, mask, keep_prob: float) -> np.ndarray:
    grad_out = _as_f64(grad_out)
    if grad_out.shape != mask.shape:
        raise ShapeError(f"dropout_backward: grad_out shape {grad_out.shape} != mask shape {mask.shape}")
    return grad_out * mask / keep_prob


def _check_one_hot(labels: np.ndarray):
    ok = np.all(np.logical_or(labels == 0.0, labels == 1.0)) and np.all(
        labels.sum(axis=-1) == 1.0
    )
    if not ok:
        raise ValueError("softmax_xent: label is not one-hot (need exactly one 1, rest 0)")


def softmax_xent(logits, one_hot_label):
    """Softmax cross-entropy loss and its gradient w.r.t. the logits.

    For a single logit vector returns `(loss, softmax - label)`.  For a
    `[N, C]` batch returns the mean loss and `(softmax - labels) / N`, so
    the gradient is exactly that of the returned scalar.  Stabilized by
    max subtraction.
    """
    z = _as_f64(logits)
    y = _as_f64(one_hot_label)
    if z.shape != y.shape:
        raise ShapeError(f"softmax_xent: logits shape {z.shape} != label shape {y.shape}")
    if z.ndim not in (1, 2):
        raise ShapeError(f"softmax_xent: expected rank 1 or 2 logits, got shape {z.shape}")
    _check_one_hot(y)
    zs = z - z.max(axis=-1, keepdims=True)
    ez = np.exp(zs)
    p = ez / ez.sum(axis=-1, keepdims=True)
    logp = zs - np.log(ez.sum(axis=-1, keepdims=True))
    losses = -(y * logp).sum(axis=-1)
    if z.ndim == 1:
        return float(losses), p - y
    n = z.shape[0]
    return float(losses.mean()), (p - y) / n
