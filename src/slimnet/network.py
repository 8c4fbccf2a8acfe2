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

__all__ = ["Params", "Cache", "init_params", "forward", "backward", "param_arrays"]

# name -> the layer's weights and bias, in layer order
Params = dict[str, ops.Params]

# M*N*K of each conv GEMM in an evaluation chunk.  OpenBLAS takes its
# small-matrix kernel when M*N*K <= 1e6, and only there does a row of the
# product depend on how many rows the call has; above it `A[:c] @ B` is
# bitwise `(A @ B)[:c]`, so a chunk at twice the bound gives the rows the
# whole batch gives, wherever in the batch it starts.
_CHUNK_GEMM_SIZE = 2_000_000


class Cache(dict):
    """One layer's arrays from a forward and backward pass, by name ("x", "cols", "y", "gw", ...).

    `buffer(key, shape)` returns `self[key]` when it already has `shape`,
    else a zeroed array of exactly `shape`, which it keeps there.  So a
    pass through the caches of an earlier one of the same batch size
    writes into the arrays that one made and allocates nothing.
    """

    def buffer(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        if getattr(self.get(key), "shape", None) != shape:
            self.pop(key, None)  # freed before its replacement is allocated
            self[key] = np.zeros(shape, dtype)
        return self[key]


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
            dropout_rng: np.random.Generator | None = None, out: list[Cache] | None = None):
    """Run the chain on a `[N,28,28,C]` batch; returns (logits, caches).

    `x` is either uint8 pixels, as `mnist.load_idx_images` returns them,
    read as `np.divide(x, 255.0, dtype=float64)`, or floating point
    activations, used as float64.  Any other integer dtype raises
    `TypeError` rather than reach the net unscaled.

    Each layer writes what it makes into its `Cache` (see
    `LayerKind.forward`); the input layer's holds the decoded batch.
    `out` is a list of caches: one an earlier forward filled, whose
    arrays this call overwrites where their shapes fit, or an empty list,
    which the call fills with one cache per layer.  Without `out` a call
    allocates one set of its own.

    A training forward runs the whole batch, draws the dropout masks from
    `dropout_rng` (`ValueError` without one, before any layer runs) and
    returns the caches: per layer the arrays `backward` needs and the
    ones the next forward reuses.  ReLU overwrites the conv and dense
    outputs in place, and the cache keeps that one array (`"y"`) for
    `ops.relu_backward`: relu(z) > 0 exactly where z > 0.  A conv keeps
    its im2col matrix (`"cols"`) too, a pool its argmax.

    An evaluation forward skips dropout, makes nothing for backward (no
    pooling argmax: `ops.maxpool_values`) and returns `(logits, None)`.
    It runs the layers whose output is still an image (the input scaling,
    each conv with its ReLU, each maxpool) a chunk of whole images at a
    time (see `_image_chunks`; the last chunk ends at the batch's end)
    through the image layers' caches, and the rest on the whole batch
    with arrays of its own.  Its logits are those of the whole-batch
    chain bit for bit.
    """
    x = np.asarray(x)
    if np.issubdtype(x.dtype, np.integer) and x.dtype != np.uint8:
        raise TypeError(f"forward: input must be uint8 pixels or floating point, got {x.dtype}")
    if training and dropout_rng is None:
        raise ValueError("a training forward needs a dropout_rng")
    names = layer_names(spec)
    n = len(x)
    caches = [] if out is None else out
    if not caches:
        caches += [Cache() for _ in spec.layers]
    if training:
        return _chain(spec, params, names, dropout_rng, _decode(x, caches[0]), 0, len(spec.layers), caches), caches
    flat, chunk = _image_chunks(spec)
    m = min(n, chunk or n)
    starts = [*range(0, n - m, m), n - m] if n else [0]
    h = None
    for start in starts:  # a short tail reruns the last m images: their rows do not depend on the chunk
        part = _chain(spec, params, names, None, _decode(x[start : start + m], caches[0]), 0, flat, caches)
        if len(starts) == 1:  # one chunk: its output is the batch's
            h = part
        else:
            if h is None:
                h = np.empty((n, *part.shape[1:]))
            h[start : start + m] = part
    del caches  # a call's own image-layer arrays are freed before the whole-batch layers run
    return _chain(spec, params, names, None, h, flat, len(spec.layers), [Cache() for _ in spec.layers]), None


def _decode(x: np.ndarray, cache: Cache) -> np.ndarray:
    h = cache.buffer("y", x.shape)
    if x.dtype == np.uint8:
        return np.divide(x, 255.0, out=h, dtype=np.float64)
    np.copyto(h, x)
    return h


def _chain(spec, params, names, rng, h, first, stop, caches):
    """Layers `first` to `stop - 1` on `h`, each writing into its cache; `rng` is `None` in evaluation."""
    last = len(spec.layers) - 1
    for i in range(first, stop):
        layer, cache = spec.layers[i], caches[i]
        kind = KINDS[layer.kind]
        h = kind.forward(layer, h, params.get(names[i]), cache, rng)
        if kind.weights and i != last:
            cache["y"] = h = ops.relu(h, out=h)
    return h


def _image_chunks(spec: NetSpec) -> tuple[int, int]:
    """The image layers' end and the images in an evaluation chunk.

    The image layers are those before the first rank-1 shape.  A chunk
    holds the fewest images for which each of their conv GEMMs, of
    images*H*W rows by kh*kw*C_in by C_out, reaches `_CHUNK_GEMM_SIZE`
    (larger ones were slower once their im2col left the cache: `baseline`
    evaluated 2000 images in 2.0-2.2 s CPU in chunks of 50, in 1.4-1.5 s
    in chunks of 4 to 12, on one BLAS thread of a 2-core Xeon VM);
    0 when they hold no conv, whose rows no chunk changes, and a chunk is
    then the whole batch.
    """
    shapes = propagate_shapes(spec)
    flat = next((i for i, shape in enumerate(shapes) if len(shape) == 1), len(shapes))
    per_image = [math.prod(shape[:-1]) * math.prod(w)
                 for shape, w in zip(shapes[:flat], weight_shapes(spec, shapes)) if w is not None]
    return flat, max((-(-_CHUNK_GEMM_SIZE // m) for m in per_image), default=0)


def backward(spec: NetSpec, params: Params, caches: list[Cache], grad_logits: np.ndarray):
    """Reverse the chain; returns {name: (grad_w, grad_b)}.

    Nothing below the first layer with weights is processed, and that
    layer's input gradient is not computed for a conv.  Weight and bias
    gradients are bit-identical to a full pass.  The ReLU gradient is
    taken in place in the gradient the chain owns; `grad_logits` is
    never written.  Each layer's gradient pair is held in its cache
    (`"gw"`, `"gb"`): a backward through the caches of an earlier one
    overwrites that pair and returns it again, so a training run holds
    one set of gradients in its working set.
    """
    first = next((i for i, layer in enumerate(spec.layers) if KINDS[layer.kind].weights), len(spec.layers))
    names = layer_names(spec)
    last = len(spec.layers) - 1
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    g, owned = grad_logits, False
    for i in reversed(range(first, len(spec.layers))):
        layer, cache = spec.layers[i], caches[i]
        kind = KINDS[layer.kind]
        if kind.weights and i != last:  # the ReLU forward ran
            g = ops.relu_backward(cache["y"], g, out=g if owned else None)
            owned = True
        g, layer_grads = kind.backward(layer, cache, g, params.get(names[i]), i != first)
        owned = owned or not kind.view  # a view kind may hand back its input gradient
        if layer_grads is not None:
            grads[names[i]] = layer_grads
    return grads
