"""Desk-scale supervised training of the quantized-activation network.

Plain momentum SGD with weight decay and a cosine learning-rate decay to
zero over the configured epochs.  Activation thresholds are trained jointly
with the weights through the straight-through estimator and clamped to a
small positive floor after every step.  Everything is deterministic for a
fixed seed: seeded init, seeded shuffling, sequential batch reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activation import qcfs_backward
from .errors import ParameterError, ShapeError, TrainingDivergenceError
from .network import ActivationRecord, NetworkSpec, ann_forward, layer_backward

LAM_FLOOR = 1e-3


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 30
    batch_size: int = 64
    schedule: str = "cosine"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ParameterError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ParameterError(f"weight decay must be non-negative, got {self.weight_decay}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch size must be >= 1, got {self.batch_size}")
        if self.schedule != "cosine":
            raise ParameterError(f"unknown schedule {self.schedule!r}")


def cosine_lr(config: TrainConfig, epoch: int) -> float:
    """Learning rate at the given epoch: lr0/2 * (1 + cos(pi * e / E))."""
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))


def sgd_step(params: dict, grads: dict, velocities: dict,
             config: TrainConfig, epoch: int) -> dict:
    """One momentum-SGD update over a flat name->array parameter dict.

    Weight decay acts on weight tensors only (names ending in ``.w``);
    velocities are updated in place.  Returns ``params``.
    """
    lr = cosine_lr(config, epoch)
    for name, value in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if config.weight_decay and name.endswith(".w"):
            g = g + config.weight_decay * value
        vel = velocities.get(name)
        vel = g if vel is None else config.momentum * vel + g
        velocities[name] = vel
        params[name] = value - lr * vel
    return params


# ---------------------------------------------------------------------------
# parameter views


def network_params(net: NetworkSpec) -> dict:
    """Flat view of trainable arrays; lam is wrapped as a 0-d array."""
    params = {}
    for i, layer in enumerate(net.layers):
        if layer.weights is not None:
            params[f"{i}.w"] = layer.weights
        if layer.bias is not None:
            params[f"{i}.b"] = layer.bias
        if layer.lam is not None:
            params[f"{i}.lam"] = np.float64(layer.lam)
    return params


def _write_back(net: NetworkSpec, params: dict) -> None:
    for i, layer in enumerate(net.layers):
        if layer.weights is not None:
            layer.weights = np.asarray(params[f"{i}.w"])
        if layer.bias is not None:
            layer.bias = np.asarray(params[f"{i}.b"])
        if layer.lam is not None:
            layer.lam = max(float(params[f"{i}.lam"]), LAM_FLOOR)
            params[f"{i}.lam"] = np.float64(layer.lam)


def init_network(net: NetworkSpec, seed: int, lam_init: float | None = None) -> NetworkSpec:
    """Kaiming fan-in init for weights, zero biases, lam = 8/L by default."""
    rng = np.random.default_rng(seed)
    if lam_init is None:
        lam_init = 8.0 / net.quant_steps
    for layer in net.layers:
        if layer.weights is None:
            continue
        fan_in = layer.weights.shape[1] if layer.kind == "dense" else int(
            np.prod(layer.weights.shape[1:]))
        layer.weights = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=layer.weights.shape)
        if layer.bias is not None:
            layer.bias = np.zeros_like(layer.bias)
        if layer.lam is not None:
            layer.lam = lam_init
    return net


# ---------------------------------------------------------------------------
# loss and full backward pass


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    eps = 1e-12
    loss = -np.mean(np.log(probs[np.arange(n), labels] + eps))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def network_backward(net: NetworkSpec, grad_logits: np.ndarray,
                     record: ActivationRecord) -> dict:
    """Backprop through all layers from the ``record`` of
    :func:`~snnconv.network.ann_forward`; quantized activations use the
    straight-through gate."""
    grads = {}
    grad = grad_logits
    pre = reversed(record.pre)
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.has_activation:
            grad, grad_lam = qcfs_backward(next(pre), layer.lam, net.quant_steps, grad)
            grads[f"{i}.lam"] = grad_lam
        grad, grad_w, grad_b = layer_backward(layer, record.inputs[i], grad)
        if grad_w is not None:
            grads[f"{i}.w"] = grad_w
        if grad_b is not None:
            grads[f"{i}.b"] = grad_b
    return grads


def prepare_inputs(images: np.ndarray, input_shape: tuple) -> np.ndarray:
    """Reshape a batch to the network's declared input shape."""
    n = images.shape[0]
    if images.shape[1:] == tuple(input_shape):
        return images
    if int(np.prod(images.shape[1:])) != int(np.prod(input_shape)):
        raise ShapeError(f"cannot reshape {images.shape[1:]} to {input_shape}")
    return images.reshape(n, *input_shape)


def accuracy(net: NetworkSpec, images: np.ndarray, labels: np.ndarray,
             batch_size: int = 256) -> float:
    x = prepare_inputs(np.asarray(images, dtype=np.float64), net.input_shape)
    correct = 0
    for start in range(0, x.shape[0], batch_size):
        logits, _ = ann_forward(net, x[start:start + batch_size])
        correct += int(np.sum(np.argmax(logits, axis=1) == labels[start:start + batch_size]))
    return correct / x.shape[0]


@dataclass
class TrainHistory:
    loss: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)
    lr: list = field(default_factory=list)


def train(net: NetworkSpec, images: np.ndarray, labels: np.ndarray,
          config: TrainConfig, seed: int = 0) -> TrainHistory:
    """Train in place; returns the per-epoch history.

    The caller owns initialization (see :func:`init_network`), so training
    for zero epochs leaves the network untouched.  Raises
    :class:`TrainingDivergenceError` as soon as the loss stops being finite,
    with the offending epoch/batch in the message.
    """
    x = prepare_inputs(np.asarray(images, dtype=np.float64), net.input_shape)
    labels = np.asarray(labels)
    classes = net.layers[-1].weights.shape[0] if net.layers[-1].kind == "dense" else None
    if classes is not None and (labels.min() < 0 or labels.max() >= classes):
        raise ParameterError(f"labels out of range for {classes} classes")

    params = network_params(net)
    velocities: dict = {}
    rng = np.random.default_rng(seed + 1)
    history = TrainHistory()

    for epoch in range(config.epochs):
        order = rng.permutation(x.shape[0])
        epoch_loss = 0.0
        correct = 0
        for start in range(0, x.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], labels[idx]
            logits, record = ann_forward(net, xb)
            loss, grad_logits = softmax_cross_entropy(logits, yb)
            if not np.isfinite(loss):
                raise TrainingDivergenceError(
                    f"non-finite loss {loss} at epoch {epoch}, batch offset {start}")
            grads = network_backward(net, grad_logits, record)
            sgd_step(params, grads, velocities, config, epoch)
            _write_back(net, params)
            epoch_loss += loss * len(idx)
            correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        history.loss.append(epoch_loss / x.shape[0])
        history.train_accuracy.append(correct / x.shape[0])
        history.lr.append(cosine_lr(config, epoch))
    return history
