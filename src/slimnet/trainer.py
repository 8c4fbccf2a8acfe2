"""Adam training loop.

The reference protocol is fixed: Adam with beta1 0.9, beta2 0.999 and
epsilon 1e-8, parameters drawn Gaussian(0, 0.1^2), ReLU after every layer
with weights but the last, and each dropout layer at its spec's keep
probability.  A `TrainConfig` sets only the schedule (learning rate 1e-4,
minibatch 50 and 20,000 iterations by default), the seed and the traces.
All randomness flows from `TrainConfig.seed` through the named substreams
"init", "shuffle" and "dropout", so a fixed config yields bit-identical
runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .netspec import NetSpec, number_text, validate_classifier
from .network import Cache, Params, backward, forward, init_params as _init_net_params, param_arrays
from .ops import softmax_xent
from .rng import substream

__all__ = [
    "ConfigError",
    "TrainConfig",
    "Run",
    "AdamState",
    "TrainingDiverged",
    "init_params",
    "init_adam_state",
    "adam_step",
    "train",
    "evaluate",
]


# Elements per Adam block: 128 KiB per float64 operand, so the blocks of the
# four operands and the two scratch arrays (768 KiB) stay in L2.  On
# dropped-conv2's 6.4M parameters, blocks of 4096 or 262144 were 10-25% slower.
_ADAM_BLOCK = 16384
_EVAL_BATCH = 1000  # images per forward pass of `evaluate`

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPSILON = 1e-8


class ConfigError(ValueError):
    """A `TrainConfig` field is out of range."""


class TrainingDiverged(RuntimeError):
    """Loss or a gradient went non-finite."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message if iteration is None else f"iteration {iteration}: {message}")
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 50
    iterations: int = 20000
    seed: int = 0
    eval_every: int = 0  # 0: no validation trace
    loss_log_every: int = 1  # 0: no loss trace

    def validate(self, train_size: int | None = None):
        """Raise `ConfigError` for a field of the wrong type (a bool is no number) or out of range.

        With `train_size`, the training split's length, a run of any
        iterations also needs one minibatch to fit in it.
        """
        if isinstance(self.learning_rate, bool) or not isinstance(self.learning_rate, (int, float)):
            raise ConfigError(f"learning_rate must be a real number, got {self.learning_rate!r}")
        if not math.isfinite(self.learning_rate):
            raise ConfigError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name, least in (("batch_size", 1), ("iterations", 0), ("seed", 0), ("eval_every", 0), ("loss_log_every", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if train_size is not None and self.iterations and self.batch_size > train_size:
            raise ConfigError(f"batch_size {self.batch_size} exceeds dataset size {train_size}")

    def schedule_id(self) -> str:
        return f"it{self.iterations}-bs{self.batch_size}-lr{number_text(self.learning_rate)}"


@dataclass
class AdamState:
    """First/second-moment accumulators, keyed like `param_arrays` names."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_params(spec: NetSpec, config: TrainConfig, rng: np.random.Generator) -> Params:
    """Gaussian(0, 0.1^2)-init every parameter tensor of `spec` from `rng`.

    The draw is part of the fixed protocol, so no field of `config` enters it.
    """
    return _init_net_params(spec, rng)


def init_adam_state(params: Params) -> AdamState:
    zeros = {name: np.zeros_like(arr) for name, arr in param_arrays(params)}
    return AdamState(m=zeros, v={k: np.zeros_like(a) for k, a in zeros.items()}, t=0)


def adam_step(params: Params, grads: dict, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place.  Returns `None`.

    Writes into the arrays of `params`, `state.m` and `state.v`, and
    increments `state.t`.  Each tensor is updated in blocks of
    `_ADAM_BLOCK` elements, so the only scratch is two block-sized arrays
    per call, never one the size of a parameter; the operands may have
    any memory layout (an F-ordered weight with C-ordered moments is
    updated in place, not through a copy).  Each element sees the
    reference formula's operations in its order (multiply, then divide by
    the bias correction), so results are bit-identical to the
    out-of-place update
    `arr - lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)`.

    `grads` maps layer name to `(grad_weights, grad_bias)` as produced by
    `network.backward`.  Every gradient is checked before anything is
    written: a non-finite one raises `TrainingDiverged` naming the first
    bad tensor ("fc1.w"), and a missing key or a mismatched shape raises
    `KeyError` or `ValueError`, leaving params and moments untouched.
    """
    tensors = []
    for name, p in params.items():
        gw, gb = grads[name]
        for suffix, arr, g in (("w", p.weights, gw), ("b", p.bias, gb)):
            key = f"{name}.{suffix}"
            m, v = state.m[key], state.v[key]
            if not g.shape == m.shape == v.shape == arr.shape:
                raise ValueError(
                    f"{key}: gradient {g.shape} and moments {m.shape}, {v.shape} must match {arr.shape}"
                )
            if not (np.isfinite(g.min()) and np.isfinite(g.max())):  # NaN propagates through both
                raise TrainingDiverged(f"non-finite gradient in {key}")
            tensors.append((arr, g, m, v))
    state.t += 1
    b1, b2, eps = _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON
    lr = config.learning_rate
    c1, c2 = 1 - b1**state.t, 1 - b2**state.t
    scratch_s, scratch_d = np.empty(_ADAM_BLOCK), np.empty(_ADAM_BLOCK)
    for arr, g, m, v in tensors:
        with np.nditer(
            [arr, g, m, v], flags=["external_loop", "buffered", "zerosize_ok"],
            op_flags=[["readwrite"], ["readonly"], ["readwrite"], ["readwrite"]],
            order="C", buffersize=_ADAM_BLOCK,
        ) as blocks:
            for a, gb, mb, vb in blocks:
                s, d = scratch_s[: a.size], scratch_d[: a.size]
                np.multiply(mb, b1, out=mb)
                np.multiply(gb, 1 - b1, out=s)
                np.add(mb, s, out=mb)
                np.multiply(vb, b2, out=vb)
                np.multiply(gb, 1 - b2, out=s)
                np.multiply(s, gb, out=s)
                np.add(vb, s, out=vb)
                np.divide(mb, c1, out=s)
                np.multiply(s, lr, out=s)
                np.divide(vb, c2, out=d)
                np.sqrt(d, out=d)
                np.add(d, eps, out=d)
                np.divide(s, d, out=s)
                np.subtract(a, s, out=a)


def evaluate(spec: NetSpec, params: Params, images: np.ndarray, labels: np.ndarray) -> float:
    """Argmax classification accuracy with dropout disabled.

    `labels` holds `[N]` class indices; any other shape raises
    `ValueError`, as do zero images, which have no accuracy.  Consumes no
    RNG, never mutates `params` or `images`, and keeps no backward state.
    Every forward pass of a call runs its image layers through one set of
    caches (`network.forward`'s `out`), which the first pass allocates
    and the call frees when it returns.
    """
    if not len(images):
        raise ValueError("evaluate: no images to score")
    if labels.shape != (len(images),):
        raise ValueError(f"evaluate: labels must be one class index per image, got {labels.shape}")
    hits, caches = 0, []
    for start in range(0, len(images), _EVAL_BATCH):
        xb = images[start : start + _EVAL_BATCH]
        logits, _ = forward(spec, params, xb, out=caches)
        hits += int((logits.argmax(axis=1) == labels[start : start + len(xb)]).sum())
    return hits / len(images)


class Run:
    """One training run: its inputs, generators, sampler position, optimizer state and result.

    `Run(spec, data, config)` checks the inputs and draws the initial
    parameters.  `data` needs `.train`, `.validation` and `.test` splits of
    `(images, labels)`: images `[N, H, W, C]` matching the spec's input
    layer, labels `[N]` class indices.  Labels of another shape, an empty
    test split, or an empty validation split that `eval_every` would score
    raise `ValueError` here, before the first step.  `step()` trains one
    minibatch; `train()` runs the remaining iterations with their traces
    and scores the test split.

    A run keeps one working set (`network.forward`'s `out`): per layer,
    the activations and gradients of one minibatch.  The first step
    allocates it and every later step writes into the same arrays, so no
    step holds two sets and none after the first allocates one.  An
    evaluation frees it first, so a finished run holds none.
    """

    def __init__(self, spec: NetSpec, data, config: TrainConfig):
        config.validate(len(data.train.images))
        for split, scored in (("train", False), ("test", True), ("validation", 0 < config.eval_every <= config.iterations)):
            images, labels = getattr(data, split)
            if scored and not len(images):
                raise ValueError(f"the {split} split is empty: it has no accuracy to score")
            if labels.shape != (len(images),):
                raise ValueError(f"the {split} split: labels must be one class index per image, got {labels.shape}")
        shapes = validate_classifier(spec)
        sample_shape = tuple(data.train.images.shape[1:])
        if sample_shape != shapes[0]:
            raise ValueError(f"spec input shape {shapes[0]} does not match data sample shape {sample_shape}")

        self.spec, self.data, self.config = spec, data, config
        self.shuffle_rng = substream(config.seed, "shuffle")
        self.dropout_rng = substream(config.seed, "dropout")
        self.params = init_params(spec, config, substream(config.seed, "init"))
        self.adam_state = init_adam_state(self.params)
        self.perm: np.ndarray | None = None  # drawn at the first step of each epoch
        self.pos = 0
        self.iterations_run = 0
        self.loss_trace: list[tuple[int, float]] = []
        self.eval_trace: list[tuple[int, float]] = []
        self.final_test_accuracy: float | None = None
        self.wall_time_seconds = 0.0
        self._caches: list[Cache] = []

    def step(self) -> float:
        """Train one minibatch and return its loss.

        Epochs run over a seeded shuffle of the training split, dropping a
        short tail.  A step past `config.iterations` raises `ValueError`.
        """
        if self.iterations_run >= self.config.iterations:
            raise ValueError(f"the run has taken all {self.config.iterations} of its iterations")
        batch, train_split = self.config.batch_size, self.data.train
        if self.perm is None or self.pos + batch > len(self.perm):
            self.perm, self.pos = self.shuffle_rng.permutation(len(train_split.images)), 0
        idx = self.perm[self.pos : self.pos + batch]
        self.pos += batch
        it = self.iterations_run + 1
        logits, _ = forward(self.spec, self.params, train_split.images[idx], training=True,
                            dropout_rng=self.dropout_rng, out=self._caches)
        loss, grad_logits = softmax_xent(logits, train_split.labels[idx])
        if not np.isfinite(loss):
            raise TrainingDiverged("minibatch loss is non-finite", iteration=it)
        grads = backward(self.spec, self.params, self._caches, grad_logits)
        try:
            adam_step(self.params, grads, self.adam_state, self.config)
        except TrainingDiverged as exc:
            raise TrainingDiverged(str(exc), iteration=it) from None
        self.iterations_run = it
        return loss

    def train(self) -> Run:
        """Run the steps left until `config.iterations` and score the test split; returns the run."""
        config, started = self.config, time.perf_counter()
        while self.iterations_run < config.iterations:
            loss = self.step()
            it = self.iterations_run
            if config.loss_log_every and it % config.loss_log_every == 0:
                self.loss_trace.append((it, loss))
            if config.eval_every and it % config.eval_every == 0:
                self.eval_trace.append((it, self._evaluate(self.data.validation)))
        self.final_test_accuracy = self._evaluate(self.data.test)
        self.wall_time_seconds = time.perf_counter() - started
        return self

    def _evaluate(self, split) -> float:
        # Evaluation frees the working set, activations and gradients, before it
        # allocates its own chunk set, so the two are never held at once; the
        # first step after it allocates the working set again.
        self._caches = []
        return evaluate(self.spec, self.params, split.images, split.labels)


def train(spec: NetSpec, data, config: TrainConfig) -> Run:
    """Train `spec` for `config.iterations` steps and score the test split: `Run(...).train()`."""
    return Run(spec, data, config).train()
