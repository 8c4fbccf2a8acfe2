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

Lines starting with `#` are comments; the `name:` line is optional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "SpecError",
    "LayerSpec",
    "NetSpec",
    "propagate_shapes",
    "parse_spec",
    "serialize_spec",
    "spec_id",
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


def _positive(value, what: str, idx: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SpecError(f"{what} must be a positive integer, got {value!r}", layer=idx)
    return value


def propagate_shapes(spec: NetSpec) -> list[tuple[int, ...]]:
    """Run the shape rule of each layer in turn; return one shape per layer.

    conv preserves H and W (stride-1 SAME), maxpool divides both by its
    window, flatten collapses to a vector, dense maps vector to vector.
    Raises `SpecError` naming the offending layer index on any violation.
    """
    if not spec.layers:
        raise SpecError("empty spec: need an input layer followed by the network body")
    shapes: list[tuple[int, ...]] = []
    cur: tuple[int, ...] | None = None
    for i, layer in enumerate(spec.layers):
        if i == 0:
            if layer.kind != "input":
                raise SpecError(f"first layer must be 'input', got '{layer.kind}'", layer=0)
        elif layer.kind == "input":
            raise SpecError("only one input layer allowed", layer=i)
        if layer.kind == "input":
            h = _positive(layer.height, "input height", i)
            w = _positive(layer.width, "input width", i)
            c = _positive(layer.channels, "input channels", i)
            cur = (h, w, c)
        elif layer.kind == "conv":
            if len(cur) != 3:
                raise SpecError(f"conv needs an HxWxC input, got shape {cur} (after flatten?)", layer=i)
            _positive(layer.kernel, "conv kernel", i)
            out = _positive(layer.out_channels, "conv out_channels", i)
            cur = (cur[0], cur[1], out)
        elif layer.kind == "maxpool":
            if len(cur) != 3:
                raise SpecError(f"maxpool needs an HxWxC input, got shape {cur}", layer=i)
            k = _positive(layer.window, "maxpool window", i)
            h, w, c = cur
            if h % k or w % k:
                raise SpecError(f"maxpool window {k} does not divide spatial extent {h}x{w}", layer=i)
            cur = (h // k, w // k, c)
        elif layer.kind == "flatten":
            cur = (math.prod(cur),)
        elif layer.kind == "dense":
            if len(cur) != 1:
                raise SpecError(
                    f"dense needs a flat vector input, got shape {cur}; add a flatten layer first", layer=i
                )
            out = _positive(layer.out_features, "dense out_features", i)
            cur = (out,)
        elif layer.kind == "dropout":
            kp = layer.keep_prob
            if not isinstance(kp, (int, float)) or not 0.0 < kp <= 1.0:
                raise SpecError(f"dropout keep_prob must be in (0, 1], got {kp!r}", layer=i)
        else:
            raise SpecError(f"unknown layer kind '{layer.kind}'", layer=i)
        shapes.append(cur)
    return shapes


def validate_classifier(spec: NetSpec, num_classes: int = 10) -> list[tuple[int, ...]]:
    """Shapes of `spec`, additionally requiring a final dense layer of `num_classes`."""
    shapes = propagate_shapes(spec)
    if spec.layers[-1].kind != "dense" or shapes[-1] != (num_classes,):
        raise SpecError(
            f"network must end in a dense layer of width {num_classes}, "
            f"got '{spec.layers[-1].kind}' with shape {shapes[-1]}",
            layer=len(spec.layers) - 1,
        )
    return shapes


# --- text format ------------------------------------------------------------


class _Format(NamedTuple):
    """A layer kind's text fields, as `(key, attribute, type)`, and its `spec_id` token."""

    fields: tuple[tuple[str, str, type], ...]
    token: str


_FORMATS = {
    "input": _Format((("h", "height", int), ("w", "width", int), ("c", "channels", int)),
                     "in{height}x{width}x{channels}"),
    "conv": _Format((("k", "kernel", int), ("out", "out_channels", int)), "c{kernel}.{out_channels}"),
    "maxpool": _Format((("window", "window", int),), "p{window}"),
    "flatten": _Format((), "fl"),
    "dense": _Format((("out", "out_features", int),), "fc{out_features}"),
    "dropout": _Format((("keep", "keep_prob", float),), "do{keep_prob:g}"),
}

_TYPE_NAME = {int: "an integer", float: "a number"}


def spec_id(spec: NetSpec) -> str:
    """Stable, human-readable identifier derived solely from the layers."""
    return "-".join(_FORMATS[layer.kind].token.format(**vars(layer)) for layer in spec.layers)


def parse_spec(text: str, name: str = "") -> NetSpec:
    """Parse the one-layer-per-line format.  Errors carry line numbers."""
    layers: list[LayerSpec] = []
    spec_name = name
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("name:"):
            spec_name = line[len("name:") :].strip()
            continue
        kind, *tokens = line.split()
        if kind not in _FORMATS:
            raise SpecError(f"unknown layer kind '{kind}'", line=lineno)
        known = {key: (attr, typ) for key, attr, typ in _FORMATS[kind].fields}
        fields: dict[str, float | int] = {}
        for tok in tokens:
            if "=" not in tok:
                raise SpecError(f"expected key=value, got '{tok}'", line=lineno)
            key, _, val = tok.partition("=")
            if key not in known:
                raise SpecError(f"unknown field '{key}' for layer kind '{kind}'", line=lineno)
            attr, typ = known[key]
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
        fields = [f"{key}={format(getattr(layer, attr), 'g' if typ is float else '')}"
                  for key, attr, typ in _FORMATS[layer.kind].fields]
        lines.append(" ".join([layer.kind, *fields]))
    return "\n".join(lines) + "\n"


def load_spec(path) -> NetSpec:
    with open(path, "r", encoding="utf-8") as f:
        return parse_spec(f.read())


def save_spec(spec: NetSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_spec(spec))


# --- stock architectures ----------------------------------------------------


def baseline_spec() -> NetSpec:
    """Two conv/pool stages, 1024-wide hidden layer: the reference network."""
    return NetSpec(
        "baseline",
        (
            LayerSpec.input(28, 28, 1),
            LayerSpec.conv(5, 32),
            LayerSpec.maxpool(2),
            LayerSpec.conv(5, 64),
            LayerSpec.maxpool(2),
            LayerSpec.flatten(),
            LayerSpec.dense(1024),
            LayerSpec.dropout(0.5),
            LayerSpec.dense(10),
        ),
    )


def dropped_conv2_spec() -> NetSpec:
    """Baseline with the second conv/pool stage removed."""
    return NetSpec(
        "dropped-conv2",
        (
            LayerSpec.input(28, 28, 1),
            LayerSpec.conv(5, 32),
            LayerSpec.maxpool(2),
            LayerSpec.flatten(),
            LayerSpec.dense(1024),
            LayerSpec.dropout(0.5),
            LayerSpec.dense(10),
        ),
    )


def optimized_spec() -> NetSpec:
    """The reduced network: depth-2 5x5 conv, 4x4 pool, 128-wide hidden layer."""
    return NetSpec(
        "optimized",
        (
            LayerSpec.input(28, 28, 1),
            LayerSpec.conv(5, 2),
            LayerSpec.maxpool(4),
            LayerSpec.flatten(),
            LayerSpec.dense(128),
            LayerSpec.dropout(0.5),
            LayerSpec.dense(10),
        ),
    )


def optimized_3x3_spec() -> NetSpec:
    """3x3 variant of the reduced network; kept as a regression candidate."""
    return NetSpec(
        "optimized-3x3",
        (
            LayerSpec.input(28, 28, 1),
            LayerSpec.conv(3, 2),
            LayerSpec.maxpool(4),
            LayerSpec.flatten(),
            LayerSpec.dense(128),
            LayerSpec.dropout(0.5),
            LayerSpec.dense(10),
        ),
    )


# name -> stock architecture; the CLI and search plans resolve preset names here
PRESETS = {
    "baseline": baseline_spec,
    "dropped-conv2": dropped_conv2_spec,
    "optimized": optimized_spec,
    "optimized-3x3": optimized_3x3_spec,
}
