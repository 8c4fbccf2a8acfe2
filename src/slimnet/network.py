"""Running a NetSpec: parameter init, forward pass, reverse-mode backward.

Each layer runs through its kind's record in `netspec.KINDS`, which holds
the weight shape, the forward pass and the backward pass; this module only
walks the chain.  ReLU follows every layer with weights except the last
layer, whose output is the logits: after every conv layer and after every
dense layer but the final one.  Each dropout layer keeps units with its
spec's probability; a net without dropout says `dropout keep=1` or has no
dropout layer.
"""

from __future__ import annotations

import math

import numpy as np

from . import ops
from .netspec import KINDS, NetSpec, layer_names, propagate_shapes, validate_classifier, weight_shapes

__all__ = ["Params", "init_params", "forward", "backward", "param_arrays"]

# name -> the layer's weights and bias, in layer order
Params = dict[str, ops.Params]

# M*N*K of each conv GEMM in an evaluation chunk.  OpenBLAS takes its
# small-matrix kernel when M*N*K <= 1e6, and only there does a row of the
# product depend on how many rows the call has; above it `A[:c] @ B` is
# bitwise `(A @ B)[:c]`, so a chunk this far above the bound gives the rows
# the whole batch gives.
_CHUNK_GEMM_SIZE = 4_000_000


def init_params(spec: NetSpec, rng: np.random.Generator) -> Params:
    """Draw every weight and bias i.i.d. Gaussian(0, 0.1^2).

    Draw order is layer order, weights before bias, so a fixed generator
    state yields bit-identical parameters.
    """
    names = layer_names(spec)
    params: Params = {}
    for layer, name, shape in zip(spec.layers, names, weight_shapes(spec, validate_classifier(spec))):
        if shape is None:
            continue
        w = rng.normal(0.0, 0.1, size=shape)
        params[name] = KINDS[layer.kind].make_params(w, rng.normal(0.0, 0.1, size=shape[-1]))
    return params


def param_arrays(params: Params):
    """Flat `(name, array)` view in deterministic order ("conv1.w", ...)."""
    for name, p in params.items():
        yield f"{name}.w", p.weights
        yield f"{name}.b", p.bias


def forward(spec: NetSpec, params: Params, x: np.ndarray, *, training: bool = False,
            dropout_rng: np.random.Generator | None = None):
    """Run the chain on a `[N,28,28,C]` batch; returns (logits, caches).

    `x` is either uint8 pixels, as `mnist.load_idx_images` returns them,
    read as `np.divide(x, 255.0, dtype=float64)`, or floating point
    activations, used as float64.  Any other integer dtype raises
    `TypeError` rather than reach the net unscaled.

    A training forward runs the whole batch, draws the dropout masks from
    `dropout_rng` (`ValueError` without one, before any layer runs) and
    returns as `caches`, per layer, the arrays `backward` needs and
    nothing else.  ReLU overwrites the conv and dense outputs this call
    allocated, and the cache keeps that one array (`"relu"`) for
    `ops.relu_backward`: relu(z) > 0 exactly where z > 0.  A conv keeps
    its im2col matrix (`"cols"`) too, a pool its argmax.

    An evaluation forward skips dropout, keeps nothing for backward (no
    im2col matrix, no pooling argmax: `ops.maxpool_values`) and returns
    `(logits, None)`.  It runs the layers whose output is still an image
    (the input scaling, each conv with its ReLU, each maxpool) a chunk of
    whole images at a time (see `_image_chunks`), so no im2col matrix is
    batch-sized, and the rest on the whole batch; its logits are those of
    the whole-batch chain bit for bit.
    """
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.integer) and x.dtype != np.uint8:
        raise TypeError(f"forward: input must be uint8 pixels or floating point, got {x.dtype}")
    names = layer_names(spec)
    if training:
        if dropout_rng is None:
            raise ValueError("a training forward needs a dropout_rng")
        caches: list[dict] = []
        return _chain(spec, params, names, dropout_rng, _decode(x), 0, len(spec.layers), caches), caches
    flat, bounds = _image_chunks(spec, len(x))
    h = None
    for start, stop in zip(bounds, bounds[1:]):
        out = _chain(spec, params, names, None, _decode(x[start:stop]), 0, flat, None)
        if len(bounds) == 2:  # one chunk: its output is the batch's
            h = out
        else:
            if h is None:
                h = np.empty((len(x), *out.shape[1:]))
            h[start:stop] = out
    return _chain(spec, params, names, None, h, flat, len(spec.layers), None), None


def _decode(x: np.ndarray) -> np.ndarray:
    if x.dtype == np.uint8:
        return np.divide(x, 255.0, dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def _chain(spec, params, names, rng, h, first, stop, caches):
    """Layers `first` to `stop - 1` on `h`; a cache per layer goes to `caches`, `None` in evaluation."""
    last = len(spec.layers) - 1
    for i in range(first, stop):
        layer = spec.layers[i]
        kind = KINDS[layer.kind]
        cache: dict | None = {} if caches is not None else None
        h = kind.forward(layer, h, params.get(names[i]), cache, rng)
        if kind.weights and i != last:
            h = ops.relu(h, out=h)
            if cache is not None:
                cache["relu"] = h
        if caches is not None:
            caches.append(cache)
    return h


def _image_chunks(spec: NetSpec, n: int) -> tuple[int, list[int]]:
    """The image layers' end and the chunk bounds of an `n`-image batch.

    The image layers are those before the first rank-1 shape.  A chunk
    holds the fewest images for which each of their conv GEMMs, of
    images*H*W rows by kh*kw*C_in by C_out, reaches `_CHUNK_GEMM_SIZE`;
    a tail shorter than a chunk joins the chunk before it, so a batch
    smaller than two chunks runs as one.
    """
    shapes = propagate_shapes(spec)
    flat = next((i for i, shape in enumerate(shapes) if len(shape) == 1), len(shapes))
    per_image = [math.prod(shape[:-1]) * math.prod(w)
                 for shape, w in zip(shapes[:flat], weight_shapes(spec, shapes)) if w is not None]
    size = max((-(-_CHUNK_GEMM_SIZE // m) for m in per_image), default=max(n, 1))
    return flat, [i * size for i in range(max(n // size, 1))] + [n]


def backward(spec: NetSpec, params: Params, caches: list[dict], grad_logits: np.ndarray, *, out=None):
    """Reverse the chain; returns {name: (grad_w, grad_b)}.

    Nothing below the first layer with weights is processed, and that
    layer's input gradient is not computed for a conv.  Weight and bias
    gradients are bit-identical to a full pass.  The ReLU gradient is
    taken in place in the gradient the chain owns; `grad_logits` is
    never written.  `out` is a dict an earlier `backward` of the same
    spec returned: each pair is overwritten and returned again, so a
    training run holds one set of gradients; without it they are fresh.
    """
    first = next((i for i, layer in enumerate(spec.layers) if KINDS[layer.kind].weights), len(spec.layers))
    names = layer_names(spec)
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    g, owned = grad_logits, False
    for i in reversed(range(first, len(spec.layers))):
        layer, cache = spec.layers[i], caches[i]
        kind = KINDS[layer.kind]
        if "relu" in cache:
            g = ops.relu_backward(cache["relu"], g, out=g if owned else None)
            owned = True
        g, layer_grads = kind.backward(layer, cache, g, params.get(names[i]), i != first,
                                       None if out is None else out.get(names[i]))
        owned = owned or not kind.view  # a view kind may hand back its input gradient
        if layer_grads is not None:
            grads[names[i]] = layer_grads
    return grads
