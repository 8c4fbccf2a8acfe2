"""Running a NetSpec: parameter init, forward pass, reverse-mode backward.

ReLU placement follows the usual convention for these chains: after every
conv layer and after every dense layer except the last (the logits).  It
can be disabled wholesale with `activation="none"` since the architecture
format does not spell activations out.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .accounting import layer_names
from .netspec import NetSpec, validate_classifier

__all__ = ["Params", "init_params", "forward", "backward", "param_arrays"]

# name -> ConvParams | DenseParams, in layer order
Params = dict[str, "ops.ConvParams | ops.DenseParams"]


def _last_dense_index(spec: NetSpec) -> int:
    return max((i for i, l in enumerate(spec.layers) if l.kind == "dense"), default=-1)


def init_params(spec: NetSpec, rng: np.random.Generator, *, mean: float = 0.0,
                stddev: float = 0.1, bias_constant: float | None = None) -> Params:
    """Draw every weight and bias i.i.d. Gaussian(mean, stddev^2).

    `bias_constant`, when given, fills biases with that constant instead
    of sampling them.  Draw order is layer order, weights before bias, so
    a fixed generator state yields bit-identical parameters.
    """
    shapes = validate_classifier(spec)
    names = layer_names(spec)
    params: Params = {}
    for i, layer in enumerate(spec.layers):
        if layer.kind == "conv":
            cin = shapes[i - 1][2]
            w = rng.normal(mean, stddev, size=(layer.kernel, layer.kernel, cin, layer.out_channels))
            b = (
                np.full(layer.out_channels, bias_constant, dtype=np.float64)
                if bias_constant is not None
                else rng.normal(mean, stddev, size=layer.out_channels)
            )
            params[names[i]] = ops.ConvParams(w, b)
        elif layer.kind == "dense":
            fin = shapes[i - 1][0]
            w = rng.normal(mean, stddev, size=(fin, layer.out_features))
            b = (
                np.full(layer.out_features, bias_constant, dtype=np.float64)
                if bias_constant is not None
                else rng.normal(mean, stddev, size=layer.out_features)
            )
            params[names[i]] = ops.DenseParams(w, b)
    return params


def param_arrays(params: Params):
    """Flat `(name, array)` view in deterministic order ("conv1.w", ...)."""
    for name, p in params.items():
        yield f"{name}.w", p.weights
        yield f"{name}.b", p.bias


def forward(spec: NetSpec, params: Params, x: np.ndarray, *, training: bool = False,
            dropout_rng: np.random.Generator | None = None,
            dropout_override: float | None = None, activation: str = "relu",
            keep_caches: bool = True):
    """Run the chain on a `[N,28,28,C]` batch; returns (logits, caches).

    `caches` holds everything `backward` needs.  ReLU overwrites the conv
    and dense outputs this call allocated, and the cache keeps that one
    array (`"relu"`) for `ops.relu_backward`: relu(z) > 0 exactly where
    z > 0.  With `keep_caches=False` `caches` is `None` and nothing is
    kept for backward: no per-layer state and no pooling argmax
    (`ops.maxpool_values`).  The logits are bit-identical either way.
    Dropout runs only when `training` is true, drawing its masks from
    `dropout_rng`; otherwise it is skipped.  `dropout_override` replaces
    every dropout layer's keep probability.
    """
    names = layer_names(spec)
    last_dense = _last_dense_index(spec)
    caches: list[dict] | None = [] if keep_caches else None
    h = np.asarray(x, dtype=np.float64)
    for i, layer in enumerate(spec.layers):
        cache: dict | None = {"kind": layer.kind, "name": names[i]} if keep_caches else None
        if layer.kind == "input":
            pass
        elif layer.kind in ("conv", "dense"):
            p = params[names[i]]
            if cache is not None:
                cache["x"] = h
            h = ops.conv2d_forward(h, p) if layer.kind == "conv" else ops.dense_forward(h, p)
            if activation == "relu" and (layer.kind == "conv" or i != last_dense):
                h = ops.relu(h, out=h)
                if cache is not None:
                    cache["relu"] = h
        elif layer.kind == "maxpool":
            if cache is None:
                h = ops.maxpool_values(h, layer.window)
            else:
                h, cache["argmax"] = ops.maxpool_forward(h, layer.window)
                cache["window"] = layer.window
        elif layer.kind == "flatten":
            if cache is not None:
                cache["shape"] = h.shape
            h = h.reshape(h.shape[0], -1)
        elif layer.kind == "dropout":
            keep = dropout_override if dropout_override is not None else layer.keep_prob
            if training:
                if dropout_rng is None:
                    raise ValueError("training-mode dropout needs a dropout_rng")
                h, mask = ops.dropout(h, keep, dropout_rng)
                if cache is not None:
                    cache["mask"] = mask
            if cache is not None:
                cache.update(keep=keep, training=training)
        if caches is not None:
            caches.append(cache)
    return h, caches


def _first_param_index(spec: NetSpec) -> int:
    return min((i for i, l in enumerate(spec.layers) if l.kind in ("conv", "dense")), default=-1)


def backward(spec: NetSpec, params: Params, caches: list[dict], grad_logits: np.ndarray):
    """Reverse the chain; returns ({name: (grad_w, grad_b)}, grad_input).

    Nothing below the first conv or dense layer is processed, and that
    layer's conv input gradient is not computed, so `grad_input` is
    `None` for any chain with parameters.  Weight and bias gradients are
    bit-identical to a full pass.
    """
    first = _first_param_index(spec)
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    g = grad_logits
    for i in reversed(range(len(spec.layers))):
        layer, cache = spec.layers[i], caches[i]
        if layer.kind == "input":
            continue
        if layer.kind == "conv":
            if "relu" in cache:
                g = ops.relu_backward(cache["relu"], g)
            g, gw, gb = ops.conv2d_backward(cache["x"], params[cache["name"]], g, input_grad=i != first)
            grads[cache["name"]] = (gw, gb)
        elif layer.kind == "maxpool":
            g = ops.maxpool_backward(g, cache["argmax"], cache["window"])
        elif layer.kind == "flatten":
            g = g.reshape(cache["shape"])
        elif layer.kind == "dense":
            if "relu" in cache:
                g = ops.relu_backward(cache["relu"], g)
            g, gw, gb = ops.dense_backward(cache["x"], params[cache["name"]], g)
            grads[cache["name"]] = (gw, gb)
        elif layer.kind == "dropout":
            if cache["training"] and cache["keep"] < 1.0:
                g = ops.dropout_backward(g, cache["mask"], cache["keep"])
        if i == first:
            return grads, None
    return grads, g
