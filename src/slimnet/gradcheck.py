"""Finite-difference verification of every backward kernel.

Each check builds a random small instance (a batch of one sample, since
every op takes a leading batch axis), computes analytical gradients,
and compares every entry against a central difference (step 1e-5) of the
forward map in double precision.  Relative error uses a 1e-6 floor so
exact-zero gradients compare cleanly.  Inputs are sampled away from ReLU
kinks and pooling ties, where the true derivative does not exist.

Each layer's check returns `(analytic, map, point)` triples: a gradient,
the scalar map it differentiates and the point.  `fault` flips the sign
of the first triple's gradient (an affine op's weight gradient); it
exists so tests (and the CLI) can demonstrate that the checker actually
catches a broken backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .rng import substream

__all__ = ["CheckResult", "LAYERS", "numerical_gradient", "max_rel_err", "check_layer", "run_suite"]

STEP = 1e-5
TOLERANCE = 1e-4
_FLOOR = 1e-6


@dataclass(frozen=True)
class CheckResult:
    layer: str
    trials: int
    max_rel_err: float
    ok: bool

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.layer:<8} trials={self.trials}  max rel err {self.max_rel_err:.3e}"


def numerical_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central finite difference of scalar-valued `f` at `x`, entrywise; `x` itself is left as it is."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        hi = f(x)
        flat[i] = orig - STEP
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * STEP)
    return grad


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), _FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())


def _away_from_zero(rng, shape, margin=1e-2):
    # magnitudes in [margin, 1]: keeps ReLU inputs off the kink
    mag = rng.uniform(margin, 1.0, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _separated_windows(rng, shape, window, min_gap=1e-3):
    """Random `[1, *shape]` batch whose pooling windows have no near-ties."""
    h, w, c = shape

    def near_tie(x):
        windows = x.reshape(h // window, window, w // window, window, c).swapaxes(1, 2)
        return (np.diff(np.sort(windows.reshape(h // window, w // window, -1, c), axis=2), axis=2) < min_gap).any()

    x = rng.uniform(-1.0, 1.0, size=shape)
    while near_tie(x):
        x = rng.uniform(-1.0, 1.0, size=shape)
    return x[None]


def _weighted_sum(y: np.ndarray, w: np.ndarray) -> float:
    # random linear functional makes the scalar loss sensitive to every entry
    return float((y * w).sum())


def _affine(forward, backward, x, p: ops.Params, probe) -> list:
    """Weight, input and bias gradients of one affine op, each with the map and the point it differentiates."""
    gx, gw, gb = backward(x, p, probe)
    return [
        (gw, lambda v: _weighted_sum(forward(x, ops.Params(v, p.bias)), probe), p.weights),
        (gx, lambda v: _weighted_sum(forward(v, p), probe), x),
        (gb, lambda v: _weighted_sum(forward(x, ops.Params(p.weights, v)), probe), p.bias),
    ]


def _check_conv(rng) -> list:
    h = int(rng.integers(2, 7))
    wdt = int(rng.integers(2, 7))
    cin = int(rng.integers(1, 5))
    cout = int(rng.integers(1, 5))
    k = int(rng.choice([1, 3, 5]))
    x = rng.uniform(-1, 1, size=(h, wdt, cin))[None]
    p = ops.Params(rng.uniform(-1, 1, size=(k, k, cin, cout)), rng.uniform(-1, 1, size=cout))
    probe = rng.uniform(-1, 1, size=(h, wdt, cout))[None]
    return _affine(ops.conv2d_forward, ops.conv2d_backward, x, p, probe)


def _check_dense(rng) -> list:
    fin = int(rng.integers(2, 8))
    fout = int(rng.integers(1, 6))
    x = rng.uniform(-1, 1, size=fin)[None]
    p = ops.Params(rng.uniform(-1, 1, size=(fin, fout)), rng.uniform(-1, 1, size=fout))
    probe = rng.uniform(-1, 1, size=fout)[None]
    return _affine(ops.dense_forward, ops.dense_backward, x, p, probe)


def _check_relu(rng) -> list:
    x = _away_from_zero(rng, (int(rng.integers(2, 6)), int(rng.integers(2, 6))))
    probe = rng.uniform(-1, 1, size=x.shape)
    return [(ops.relu_backward(x, probe), lambda v: _weighted_sum(ops.relu(v), probe), x)]


def _check_maxpool(rng) -> list:
    k = int(rng.choice([2, 4]))
    ho = int(rng.integers(1, 3))
    c = int(rng.integers(1, 4))
    x = _separated_windows(rng, (ho * k, ho * k, c), k)
    probe = rng.uniform(-1, 1, size=(ho, ho, c))[None]
    _, argmax = ops.maxpool_forward(x, k)
    return [(ops.maxpool_backward(probe, argmax, k),
             lambda v: _weighted_sum(ops.maxpool_forward(v, k)[0], probe), x)]


def _check_dropout(rng) -> list:
    # mask held fixed: checks the backward scaling against the masked forward
    x = rng.uniform(-1, 1, size=(4, 4))
    keep = float(rng.uniform(0.3, 0.9))
    mask_rng_seed = int(rng.integers(0, 2**32))
    _, mask = ops.dropout(x, keep, np.random.default_rng(mask_rng_seed))
    probe = rng.uniform(-1, 1, size=x.shape)
    return [(ops.dropout_backward(probe, mask, keep), lambda v: _weighted_sum(v * mask / keep, probe), x)]


def _check_softmax(rng) -> list:
    logits = rng.uniform(-2, 2, size=10)[None]
    label = np.array([rng.integers(0, 10)])
    return [(ops.softmax_xent(logits, label)[1], lambda v: ops.softmax_xent(v, label)[0], logits)]


LAYERS = {
    "conv": _check_conv,
    "dense": _check_dense,
    "relu": _check_relu,
    "maxpool": _check_maxpool,
    "dropout": _check_dropout,
    "softmax": _check_softmax,
}


def check_layer(layer: str, trials: int = 20, seed: int = 0, fault: bool = False) -> CheckResult:
    """Run `trials` randomized instances of one layer's gradient check; `trials` must be at least 1."""
    if layer not in LAYERS:
        raise ValueError(f"unknown layer '{layer}'; choose from {sorted(LAYERS)}")
    if trials < 1:
        raise ValueError(f"a gradient check needs at least one trial, got {trials}")
    rng = substream(seed, f"gradcheck-{layer}")
    errors = []
    for _ in range(trials):
        (g, f, x), *rest = LAYERS[layer](rng)
        for g, f, x in [(-g if fault else g, f, x), *rest]:
            errors.append(max_rel_err(g, numerical_gradient(f, x)))
    worst = float(np.max(errors))  # NaN-propagating, where Python's `max` may skip a NaN
    return CheckResult(layer=layer, trials=trials, max_rel_err=worst, ok=worst <= TOLERANCE)


def run_suite(layers=None, trials: int = 20, seed: int = 0, fault_layer: str | None = None):
    """Check every requested layer; returns a list of CheckResult."""
    layers = list(LAYERS) if layers is None else list(layers)
    return [check_layer(l, trials=trials, seed=seed, fault=(l == fault_layer)) for l in layers]
