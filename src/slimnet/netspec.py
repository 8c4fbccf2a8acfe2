"""Architecture descriptions: layer chains, validation, and a text format.

A network is an ordered chain of layers.  The on-disk format is one layer
per line::

    name: baseline
    input h=28 w=28 c=1
    conv k=5 out=32
    maxpool window=2
    flatten
    dense out=1024
    dropout keep=0.5
    dense out=10

Lines starting with `#` are comments; the `name:` line is optional, and at most one.

`KINDS` is the one place a layer kind is defined.  Its record holds the
kind's text fields and `spec_id` token, its shape rule, its ledger row
(name prefix, label, filter text, weight shape, whether it holds storage)
and its forward and backward passes, which read the layer's fields from
the layer and cache only the arrays forward made; `accounting` and
`network` read every per-kind fact from it, so a new kind is one new record.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import ops

__all__ = [
    "SpecError",
    "LayerSpec",
    "NetSpec",
    "LayerKind",
    "KINDS",
    "layer_names",
    "propagate_shapes",
    "weight_shapes",
    "parse_spec",
    "serialize_spec",
    "spec_id",
    "number_text",
    "baseline_spec",
    "dropped_conv2_spec",
    "optimized_spec",
    "optimized_3x3_spec",
    "PRESETS",
]

class SpecError(ValueError):
    """Invalid architecture description.  Carries the offending layer/line."""

    def __init__(self, message: str, *, layer: int | None = None, line: int | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}: "
        elif layer is not None:
            loc = f"layer {layer}: "
        super().__init__(loc + message)
        self.layer = layer
        self.line = line


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a chain; only the fields for its kind are set."""

    kind: str
    height: int | None = None
    width: int | None = None
    channels: int | None = None
    kernel: int | None = None
    out_channels: int | None = None
    window: int | None = None
    out_features: int | None = None
    keep_prob: float | None = None

    @staticmethod
    def input(height: int, width: int, channels: int) -> "LayerSpec":
        return LayerSpec("input", height=height, width=width, channels=channels)

    @staticmethod
    def conv(kernel: int, out_channels: int) -> "LayerSpec":
        return LayerSpec("conv", kernel=kernel, out_channels=out_channels)

    @staticmethod
    def maxpool(window: int) -> "LayerSpec":
        return LayerSpec("maxpool", window=window)

    @staticmethod
    def flatten() -> "LayerSpec":
        return LayerSpec("flatten")

    @staticmethod
    def dense(out_features: int) -> "LayerSpec":
        return LayerSpec("dense", out_features=out_features)

    @staticmethod
    def dropout(keep_prob: float) -> "LayerSpec":
        return LayerSpec("dropout", keep_prob=keep_prob)


@dataclass(frozen=True)
class NetSpec:
    name: str
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))


# --- layer kinds ----------------------------------------------------------------
#
# Records call `ops.<name>` at call time, so a patched op is the one that runs.


def _positive(value, what: str, idx: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SpecError(f"{what} must be a positive integer, got {value!r}", layer=idx)
    return value


def _input_shape(layer, shape, i):
    return (_positive(layer.height, "input height", i), _positive(layer.width, "input width", i),
            _positive(layer.channels, "input channels", i))


def _conv_shape(layer, shape, i):
    if len(shape) != 3:
        raise SpecError(f"conv needs an HxWxC input, got shape {shape} (after flatten?)", layer=i)
    _positive(layer.kernel, "conv kernel", i)
    return (shape[0], shape[1], _positive(layer.out_channels, "conv out_channels", i))


def _maxpool_shape(layer, shape, i):
    if len(shape) != 3:
        raise SpecError(f"maxpool needs an HxWxC input, got shape {shape}", layer=i)
    k = _positive(layer.window, "maxpool window", i)
    h, w, c = shape
    if h % k or w % k:
        raise SpecError(f"maxpool window {k} does not divide spatial extent {h}x{w}", layer=i)
    return (h // k, w // k, c)


def _dense_shape(layer, shape, i):
    if len(shape) != 1:
        raise SpecError(f"dense needs a flat vector input, got shape {shape}; add a flatten layer first", layer=i)
    return (_positive(layer.out_features, "dense out_features", i),)


def _dropout_shape(layer, shape, i):
    kp = layer.keep_prob
    if not isinstance(kp, (int, float)) or isinstance(kp, bool) or not 0.0 < kp <= 1.0:
        raise SpecError(f"dropout keep_prob must be in (0, 1], got {kp!r}", layer=i)
    return shape


def _conv_forward(layer, h, p, cache, rng):
    n, height, width, c = h.shape
    k = layer.kernel
    cache["x"] = h
    return ops.conv2d_forward(h, p, out=(
        cache.buffer("pad", (n, height + k - 1, width + k - 1, c)),
        cache.buffer("cols", (n * height * width, k * k * c)),
        cache.buffer("y", (n, height, width, layer.out_channels)),
    ))


def _maxpool_forward(layer, h, p, cache, rng):
    n, height, width, c = h.shape
    k = layer.window
    y = cache.buffer("y", (n, height // k, width // k, c))
    if rng is None:  # evaluation
        return ops.maxpool_values(h, k, out=y)
    return ops.maxpool_forward(h, k, out=(y, cache.buffer("argmax", y.shape, np.min_scalar_type(k * k - 1))))[0]


def _maxpool_backward(layer, cache, g, p, input_grad):
    return ops.maxpool_backward(g, cache["argmax"], layer.window), None


def _flatten_forward(layer, h, p, cache, rng):
    cache["x"] = h
    return h.reshape(h.shape[0], math.prod(h.shape[1:]))


def _dense_forward(layer, h, p, cache, rng):
    cache["x"] = h
    return ops.dense_forward(h, p, out=cache.buffer("y", (len(h), layer.out_features)))


def _dropout_forward(layer, h, p, cache, rng):
    if rng is None or layer.keep_prob == 1.0:  # evaluation, or the identity
        return h
    return ops.dropout(h, layer.keep_prob, rng, out=(cache.buffer("y", h.shape), cache.buffer("mask", h.shape)))[0]


def _grads_out(cache, p):
    """The layer's weight and bias gradients, held in its cache as `"gw"` and `"gb"`."""
    return cache.buffer("gw", p.weights.shape), cache.buffer("gb", p.bias.shape)


def _conv_backward(layer, cache, g, p, input_grad):
    g, gw, gb = ops.conv2d_backward(cache["x"], p, g, input_grad=input_grad, cols=cache["cols"],
                                    out=_grads_out(cache, p))
    return g, (gw, gb)


def _dense_backward(layer, cache, g, p, input_grad):
    g, gw, gb = ops.dense_backward(cache["x"], p, g, out=_grads_out(cache, p))
    return g, (gw, gb)


def _dropout_backward(layer, cache, g, p, input_grad):
    if "mask" in cache:
        g = ops.dropout_backward(g, cache["mask"], layer.keep_prob)
    return g, None


class LayerKind(NamedTuple):
    """One layer kind: everything netspec, accounting and network know of it.

    `weights(layer, in_shape)` gives a kind with parameters its weight
    shape `(*fan_in, fan_out)` from the last activation that holds
    storage (see `weight_shapes`); the ledger's parameter cell, the
    initial draw and "has parameters" all follow from it.
    `make_params(w, b)` turns a draw at that shape into the `ops.Params`
    the kind's ops read; dense reshapes it to `[fan_in, fan_out]`.
    `forward(layer, h, params, cache, rng)` puts into `cache`, the
    layer's `network.Cache`, the arrays it made and nothing else: its
    output and what backward reads.  It takes each from
    `cache.buffer(key, shape)`, which hands back the array an earlier
    pass through the same cache made, so a run's steps write into one
    set.  `rng` is the dropout generator in training and `None` in
    evaluation, where a kind makes nothing that only backward reads (a
    pool's argmax).
    `backward(layer, cache, g, params, input_grad)` reads the layer's
    own fields from `layer` and returns `(grad_input, (grad_w, grad_b)
    or None)`; a kind with weights takes its pair from
    `cache.buffer("gw", ...)` and `cache.buffer("gb", ...)`, so the
    gradients are part of the working set too.
    """

    fields: tuple[tuple[str, str, type], ...]  # text fields as (key, attribute, type)
    token: str  # spec_id token, formatted with the layer's attributes
    label: str  # the ledger's Type column
    prefix: str  # the ledger row name, numbered per kind
    numbered: bool  # numbered even when the kind occurs once
    shape: Callable  # (layer, in_shape, index) -> out_shape; raises SpecError
    forward: Callable
    backward: Callable | None = None  # None: below the first weights, never differentiated
    view: bool = False  # a view of its input that holds no storage
    filter: Callable = lambda layer, in_shape: ""  # the ledger's Filter column
    weights: Callable | None = None  # None: no parameters
    make_params: Callable = ops.Params  # (w, b) drawn at the weight shape -> the ops record


# Positional: fields, token, label, prefix, numbered, shape, forward, backward.
KINDS: dict[str, LayerKind] = {
    "input": LayerKind(
        (("h", "height", int), ("w", "width", int), ("c", "channels", int)), "in{height}x{width}x{channels}",
        "Image", "input", False, _input_shape, lambda layer, h, p, cache, rng: h,
    ),
    "conv": LayerKind(
        (("k", "kernel", int), ("out", "out_channels", int)), "c{kernel}.{out_channels}",
        "Convolution", "conv", True, _conv_shape,
        _conv_forward, _conv_backward,
        filter=lambda layer, in_shape: f"{layer.kernel}x{layer.kernel}x{in_shape[2]}",
        weights=lambda layer, in_shape: (layer.kernel, layer.kernel, in_shape[2], layer.out_channels),
    ),
    "maxpool": LayerKind(
        (("window", "window", int),), "p{window}", "Max Pooling", "pool", True, _maxpool_shape,
        _maxpool_forward, _maxpool_backward,
        filter=lambda layer, in_shape: f"{layer.window}x{layer.window}",
    ),
    "flatten": LayerKind(
        (), "fl", "Flatten", "flatten", False, lambda layer, shape, i: (math.prod(shape),),
        _flatten_forward, lambda layer, cache, g, p, input_grad: (g.reshape(cache["x"].shape), None), view=True,
    ),
    "dense": LayerKind(
        (("out", "out_features", int),), "fc{out_features}", "Fully Connected", "fc", True, _dense_shape,
        _dense_forward, _dense_backward,
        weights=lambda layer, in_shape: (*in_shape, layer.out_features),
        make_params=lambda w, b: ops.Params(w.reshape(-1, w.shape[-1]), b),
    ),
    "dropout": LayerKind(
        (("keep", "keep_prob", float),), "do{keep_prob}", "Dropout", "dropout", False, _dropout_shape,
        _dropout_forward, _dropout_backward, view=True,
    ),
}


def propagate_shapes(spec: NetSpec) -> list[tuple[int, ...]]:
    """Run the shape rule of each layer in turn; return one shape per layer.

    conv preserves H and W (stride-1 SAME), maxpool divides both by its
    window, flatten collapses to a vector, dense maps vector to vector.
    Raises `SpecError` naming the offending layer index on any violation.
    """
    if not spec.layers:
        raise SpecError("empty spec: need an input layer followed by the network body")
    shapes: list[tuple[int, ...]] = []
    for i, layer in enumerate(spec.layers):
        if (layer.kind == "input") != (i == 0):
            raise SpecError(f"first layer must be 'input', got '{layer.kind}'" if i == 0
                            else "only one input layer allowed", layer=i)
        if layer.kind not in KINDS:
            raise SpecError(f"unknown layer kind '{layer.kind}'", layer=i)
        shapes.append(KINDS[layer.kind].shape(layer, shapes[-1] if shapes else None, i))
    return shapes


def layer_names(spec: NetSpec) -> list[str]:
    """Ledger row names: each kind's prefix, numbered per kind when the kind
    is always numbered (conv1, pool1, fc1) or occurs more than once."""
    totals = Counter(layer.kind for layer in spec.layers)
    seen: Counter = Counter()
    names = []
    for layer in spec.layers:
        kind = KINDS[layer.kind]
        seen[layer.kind] += 1
        numbered = kind.numbered or totals[layer.kind] > 1
        names.append(f"{kind.prefix}{seen[layer.kind]}" if numbered else kind.prefix)
    return names


def weight_shapes(spec: NetSpec, shapes: list[tuple[int, ...]]) -> list[tuple[int, ...] | None]:
    """Each layer's weight shape `(*fan_in, fan_out)`, `None` where it has none.

    `shapes` is `propagate_shapes(spec)`.  The fan-in is the last
    activation that holds storage, so a dense layer after `flatten` reads
    the feature map's (7, 7, 64) and its ledger cell `(7*7*64)*1024`.
    """
    out: list[tuple[int, ...] | None] = []
    stored = None
    for layer, shape in zip(spec.layers, shapes):
        kind = KINDS[layer.kind]
        out.append(kind.weights(layer, stored) if kind.weights else None)
        if not kind.view:
            stored = shape
    return out


def validate_classifier(spec: NetSpec) -> list[tuple[int, ...]]:
    """Shapes of `spec`, additionally requiring a final dense layer of width 10."""
    shapes = propagate_shapes(spec)
    if spec.layers[-1].kind != "dense" or shapes[-1] != (10,):
        raise SpecError(
            "network must end in a dense layer of width 10, "
            f"got '{spec.layers[-1].kind}' with shape {shapes[-1]}",
            layer=len(spec.layers) - 1,
        )
    return shapes


# --- text format ------------------------------------------------------------

_TYPE_NAME = {int: "an integer", float: "a number"}


def number_text(value) -> str:
    """`str(value)`, but a float as `g` text when that reads back exactly, else as `repr`: no two share a text."""
    if not isinstance(value, float):
        return str(value)
    text = format(value, "g")
    return text if float(text) == value else repr(float(value))  # a numpy float's repr names its type


def spec_id(spec: NetSpec) -> str:
    """Stable, human-readable identifier derived solely from the layers."""
    return "-".join(KINDS[layer.kind].token.format(**{k: number_text(v) for k, v in vars(layer).items()})
                    for layer in spec.layers)


def parse_spec(text: str) -> NetSpec:
    """Parse the one-layer-per-line format.  Errors carry line numbers."""
    layers: list[LayerSpec] = []
    spec_name, name_line = "", None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("name:"):
            if name_line is not None:
                raise SpecError(f"a second 'name:' line; line {name_line} already names the spec", line=lineno)
            spec_name, name_line = line[len("name:") :].strip(), lineno
            continue
        kind, *tokens = line.split()
        if kind not in KINDS:
            raise SpecError(f"unknown layer kind '{kind}'", line=lineno)
        known = {key: (attr, typ) for key, attr, typ in KINDS[kind].fields}
        fields: dict[str, float | int] = {}
        for tok in tokens:
            if "=" not in tok:
                raise SpecError(f"expected key=value, got '{tok}'", line=lineno)
            key, _, val = tok.partition("=")
            if key not in known:
                raise SpecError(f"unknown field '{key}' for layer kind '{kind}'", line=lineno)
            attr, typ = known[key]
            if attr in fields:
                raise SpecError(f"{kind} repeats field '{key}'", line=lineno)
            try:
                fields[attr] = typ(val)
            except ValueError:
                raise SpecError(f"{kind} {key} must be {_TYPE_NAME[typ]}, got '{val}'", line=lineno) from None
        missing = {attr for attr, _ in known.values()} - fields.keys()
        if missing:
            raise SpecError(f"{kind} is missing field(s): {', '.join(sorted(missing))}", line=lineno)
        layers.append(LayerSpec(kind, **fields))
    if not layers:
        raise SpecError("no layers found in spec text")
    return NetSpec(spec_name, tuple(layers))


def serialize_spec(spec: NetSpec) -> str:
    lines = [f"name: {spec.name}"] if spec.name else []
    for layer in spec.layers:
        fields = [f"{key}={number_text(getattr(layer, attr))}" for key, attr, _ in KINDS[layer.kind].fields]
        lines.append(" ".join([layer.kind, *fields]))
    return "\n".join(lines) + "\n"


def load_spec(path) -> NetSpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_spec(f.read())


def save_spec(spec: NetSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_spec(spec))


# --- stock architectures ----------------------------------------------------


def _stock(name: str, convs: tuple[tuple[int, int], ...], pool: int, hidden: int) -> NetSpec:
    """28x28x1 input, a (kernel, depth) conv plus `pool` maxpool stage per
    `convs` entry, then flatten, dense `hidden`, dropout 0.5 and dense 10."""
    stages = [layer for k, d in convs for layer in (LayerSpec.conv(k, d), LayerSpec.maxpool(pool))]
    return NetSpec(name, (LayerSpec.input(28, 28, 1), *stages, LayerSpec.flatten(), LayerSpec.dense(hidden),
                          LayerSpec.dropout(0.5), LayerSpec.dense(10)))


def baseline_spec() -> NetSpec:
    """Two conv/pool stages, 1024-wide hidden layer: the reference network."""
    return _stock("baseline", ((5, 32), (5, 64)), pool=2, hidden=1024)


def dropped_conv2_spec() -> NetSpec:
    """Baseline with the second conv/pool stage removed."""
    return _stock("dropped-conv2", ((5, 32),), pool=2, hidden=1024)


def optimized_spec() -> NetSpec:
    """The reduced network: depth-2 5x5 conv, 4x4 pool, 128-wide hidden layer."""
    return _stock("optimized", ((5, 2),), pool=4, hidden=128)


def optimized_3x3_spec() -> NetSpec:
    """3x3 variant of the reduced network; kept as a regression candidate."""
    return _stock("optimized-3x3", ((3, 2),), pool=4, hidden=128)


# name -> stock architecture; the CLI and search plans resolve preset names here
PRESETS = {
    "baseline": baseline_spec,
    "dropped-conv2": dropped_conv2_spec,
    "optimized": optimized_spec,
    "optimized-3x3": optimized_3x3_spec,
}
