"""Adam training loop.

Defaults reproduce the reference protocol: learning rate 1e-4, minibatch
50, 20,000 iterations, parameters drawn Gaussian(0, 0.1^2).  All
randomness flows from `TrainConfig.seed` through the named substreams
"init", "shuffle" and "dropout", so a fixed config yields bit-identical
runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .netspec import NetSpec, validate_classifier
from .network import Params, backward, forward, init_params as _init_net_params, param_arrays
from .ops import softmax_xent
from .rng import substream

__all__ = [
    "TrainConfig",
    "TrainResult",
    "AdamState",
    "TrainingDiverged",
    "init_params",
    "init_adam_state",
    "adam_step",
    "train",
    "evaluate",
]


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
    init_mean: float = 0.0
    init_stddev: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    dropout_keep: float | None = None  # None: use each dropout layer's own value
    seed: int = 0
    activation: str = "relu"
    bias_constant: float | None = None  # None: biases drawn like weights
    eval_every: int = 0  # 0: no validation trace
    loss_log_every: int = 1

    def validate(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("adam betas must lie strictly between 0 and 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.init_stddev < 0:
            raise ValueError(f"init_stddev must be >= 0, got {self.init_stddev}")
        if self.dropout_keep is not None and not 0 < self.dropout_keep <= 1:
            raise ValueError(f"dropout_keep must be in (0, 1], got {self.dropout_keep}")
        if self.activation not in ("relu", "none"):
            raise ValueError(f"activation must be 'relu' or 'none', got {self.activation!r}")

    def schedule_id(self) -> str:
        return f"it{self.iterations}-bs{self.batch_size}-lr{self.learning_rate:g}"


@dataclass
class TrainResult:
    final_test_accuracy: float
    loss_trace: list[tuple[int, float]]
    eval_trace: list[tuple[int, float]]
    wall_time_seconds: float
    params: Params | None = None
    adam_state: "AdamState | None" = None
    iterations_run: int = 0


@dataclass
class AdamState:
    """First/second-moment accumulators, keyed like `param_arrays` names."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_params(spec: NetSpec, config: TrainConfig, rng: np.random.Generator) -> Params:
    """Gaussian-init every parameter tensor of `spec` from `rng`."""
    return _init_net_params(
        spec, rng, mean=config.init_mean, stddev=config.init_stddev, bias_constant=config.bias_constant
    )


def init_adam_state(params: Params) -> AdamState:
    zeros = {name: np.zeros_like(arr) for name, arr in param_arrays(params)}
    return AdamState(m=zeros, v={k: np.zeros_like(a) for k, a in zeros.items()}, t=0)


def adam_step(params: Params, grads: dict, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update, in place.  Returns `None`.

    Writes into the arrays of `params`, `state.m` and `state.v`, and
    increments `state.t`.  Each element sees the reference formula's
    operations in its order (multiply, then divide by the bias
    correction), so results are bit-identical to the out-of-place update
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
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon
    c1, c2 = 1 - b1**state.t, 1 - b2**state.t
    for arr, g, m, v in tensors:
        # Scratch is per call: held across steps it would stay alive through evaluate.
        s, d = np.empty_like(arr), np.empty_like(arr)
        np.multiply(m, b1, out=m)
        np.multiply(g, 1 - b1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1 - b2, out=s)
        np.multiply(s, g, out=s)
        np.add(v, s, out=v)
        np.divide(m, c1, out=s)
        np.multiply(s, lr, out=s)
        np.divide(v, c2, out=d)
        np.sqrt(d, out=d)
        np.add(d, eps, out=d)
        np.divide(s, d, out=s)
        np.subtract(arr, s, out=arr)


class _MinibatchSampler:
    """Sequential epochs over a seeded shuffle; short tails are dropped."""

    def __init__(self, n: int, batch_size: int, rng: np.random.Generator):
        if batch_size > n:
            raise ValueError(f"batch_size {batch_size} exceeds dataset size {n}")
        self.n = n
        self.batch_size = batch_size
        self.rng = rng
        self.perm = rng.permutation(n)
        self.pos = 0

    def next_batch(self) -> np.ndarray:
        if self.pos + self.batch_size > self.n:
            self.perm = self.rng.permutation(self.n)
            self.pos = 0
        idx = self.perm[self.pos : self.pos + self.batch_size]
        self.pos += self.batch_size
        return idx


def evaluate(spec: NetSpec, params: Params, images: np.ndarray, labels: np.ndarray,
             *, activation: str = "relu", batch_size: int = 1000) -> float:
    """Argmax classification accuracy with dropout disabled.

    `labels` may be one-hot `[N,10]` or integer `[N]`.  Consumes no RNG,
    never mutates `params` or `images`, and keeps no backward state.
    """
    truth = labels.argmax(axis=1) if labels.ndim == 2 else labels
    hits = 0
    for start in range(0, len(images), batch_size):
        xb = images[start : start + batch_size]
        logits, _ = forward(spec, params, xb, training=False, activation=activation, keep_caches=False)
        hits += int((logits.argmax(axis=1) == truth[start : start + len(xb)]).sum())
    return hits / len(images)


def train(spec: NetSpec, data, config: TrainConfig) -> TrainResult:
    """Run the full loop and score the test split.

    `data` needs `.train`, `.validation` and `.test` splits of
    `(images, labels)` with images shaped `[N, H, W, C]` matching the
    spec's input layer.  Returns the result with the trained parameters
    and optimizer state attached.
    """
    config.validate()
    shapes = validate_classifier(spec)
    sample_shape = tuple(data.train.images.shape[1:])
    if sample_shape != shapes[0]:
        raise ValueError(f"spec input shape {shapes[0]} does not match data sample shape {sample_shape}")

    init_rng = substream(config.seed, "init")
    shuffle_rng = substream(config.seed, "shuffle")
    dropout_rng = substream(config.seed, "dropout")

    params = init_params(spec, config, init_rng)
    state = init_adam_state(params)
    loss_trace: list[tuple[int, float]] = []
    eval_trace: list[tuple[int, float]] = []
    started = time.perf_counter()

    if config.iterations > 0:
        sampler = _MinibatchSampler(len(data.train.images), config.batch_size, shuffle_rng)
        for it in range(1, config.iterations + 1):
            idx = sampler.next_batch()
            xb = data.train.images[idx]
            yb = data.train.labels[idx]
            logits, caches = forward(
                spec, params, xb,
                training=True, dropout_rng=dropout_rng,
                dropout_override=config.dropout_keep, activation=config.activation,
            )
            loss, grad_logits = softmax_xent(logits, yb)
            if not np.isfinite(loss):
                raise TrainingDiverged("minibatch loss is non-finite", iteration=it)
            grads, _ = backward(spec, params, caches, grad_logits)
            try:
                adam_step(params, grads, state, config)
            except TrainingDiverged as exc:
                raise TrainingDiverged(str(exc), iteration=it) from None
            if config.loss_log_every and it % config.loss_log_every == 0:
                loss_trace.append((it, loss))
            if config.eval_every and it % config.eval_every == 0:
                eval_trace.append(
                    (it, evaluate(spec, params, data.validation.images, data.validation.labels,
                                  activation=config.activation))
                )

    test_accuracy = evaluate(spec, params, data.test.images, data.test.labels,
                             activation=config.activation)
    return TrainResult(
        final_test_accuracy=test_accuracy,
        loss_trace=loss_trace,
        eval_trace=eval_trace,
        wall_time_seconds=time.perf_counter() - started,
        params=params,
        adam_state=state,
        iterations_run=config.iterations,
    )
