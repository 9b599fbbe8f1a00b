"""Desk-scale supervised training of the quantized-activation network.

Plain momentum SGD with weight decay and a cosine learning-rate decay to
zero over the configured epochs.  Activation thresholds are trained jointly
with the weights through the straight-through estimator and clamped to a
small positive floor after every step.  The parameters live only on the
layers, which every step updates in place.  Everything is deterministic for
a fixed seed: seeded init, seeded shuffling, sequential batch reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .activation import qcfs_backward
from .errors import DataValidationError, ParameterError, ShapeError, TrainingDivergenceError
from .errors import finite, positive, whole
from .network import ActivationRecord, NetworkSpec, ann_forward, layer_backward, map_blocks

LAM_FLOOR = 1e-3
# float32, the checkpoint's type, rounds a magnitude from here up to inf
FLOAT32_LIMIT = 2.0**128 - 2.0**103


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 30
    batch_size: int = 64

    def __post_init__(self):
        positive(self.learning_rate, "learning rate")
        if not 0 <= finite(self.momentum, "momentum") < 1:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if finite(self.weight_decay, "weight decay") < 0:
            raise ParameterError(f"weight decay must be >= 0, got {self.weight_decay}")
        whole(self.epochs, "epochs", 0)
        whole(self.batch_size, "batch size")


def cosine_lr(config: TrainConfig, epoch: int) -> float:
    """Learning rate at the given epoch: lr0/2 * (1 + cos(pi * e / E))."""
    return config.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / config.epochs))


def sgd_step(net: NetworkSpec, grads: dict, velocities: dict,
             config: TrainConfig, epoch: int) -> None:
    """One momentum-SGD update of the layers and ``velocities``, in place.

    Keys are ``(layer index, attribute)``, as :func:`network_backward` gives.
    Weight decay acts on weights only; thresholds end floored at ``LAM_FLOOR``.
    """
    lr = cosine_lr(config, epoch)
    for (i, attr), g in grads.items():
        value = getattr(net.layers[i], attr)
        if config.weight_decay and attr == "weights":
            g = g + config.weight_decay * value
        vel = velocities.get((i, attr))
        vel = g if vel is None else config.momentum * vel + g
        velocities[i, attr] = vel
        setattr(net.layers[i], attr, value - lr * vel)
    for layer in net.layers:
        if layer.lam is not None:
            layer.lam = max(float(layer.lam), LAM_FLOOR)


def init_network(net: NetworkSpec, seed: int) -> NetworkSpec:
    """Kaiming fan-in init for weights, zero biases, lam = 8/L."""
    rng = np.random.default_rng(whole(seed, "seed", 0))
    for layer in net.layers:
        if layer.weights is None:
            continue
        fan_in = layer.weights.shape[1] if layer.kind == "dense" else int(
            np.prod(layer.weights.shape[1:]))
        layer.weights = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=layer.weights.shape)
        if layer.bias is not None:
            layer.bias = np.zeros_like(layer.bias)
        if layer.lam is not None:
            layer.lam = 8.0 / net.quant_steps
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
    straight-through gate and the record's quantized outputs, and layer 0's
    input gradient, which nothing reads, is not computed.  Keys are
    ``(layer index, attribute name)``."""
    grads = {}
    grad = grad_logits
    pre, post = reversed(record.pre), reversed(record.post)
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.has_activation:
            grad, grad_lam = qcfs_backward(next(pre), layer.lam, net.quant_steps, grad, next(post))
            grads[i, "lam"] = grad_lam
        grad, grad_w, grad_b = layer_backward(layer, record.inputs[i], grad, input_grad=i > 0)
        if grad_w is not None:
            grads[i, "weights"] = grad_w
        if grad_b is not None:
            grads[i, "bias"] = grad_b
    return grads


def prepare_inputs(images: np.ndarray, input_shape: tuple) -> np.ndarray:
    """Reshape a batch to the network's declared input shape."""
    n = images.shape[0]
    if images.shape[1:] == tuple(input_shape):
        return images
    if int(np.prod(images.shape[1:])) != int(np.prod(input_shape)):
        raise ShapeError(f"cannot reshape {images.shape[1:]} to {input_shape}")
    return images.reshape(n, *input_shape)


def accuracy(net: NetworkSpec, images: np.ndarray, labels: np.ndarray) -> float:
    x = prepare_inputs(np.asarray(images, dtype=np.float64), net.input_shape)
    (logits,) = map_blocks(lambda n, block: [ann_forward(net, block)[0]], x)
    return int(np.sum(np.argmax(logits, axis=1) == labels)) / x.shape[0]


@dataclass
class TrainHistory:
    loss: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)


def train(net: NetworkSpec, images: np.ndarray, labels: np.ndarray,
          config: TrainConfig, seed: int = 0) -> TrainHistory:
    """Train in place; returns the per-epoch history.

    The caller owns initialization (see :func:`init_network`), so training
    for zero epochs leaves the network untouched.  A NaN or infinite input
    is a :class:`DataValidationError`.  Raises
    :class:`TrainingDivergenceError`, naming the epoch, once a batch's
    arithmetic (a numpy overflow or invalid value) or a parameter in float32
    (the checkpoint's type) stops being finite.
    """
    x = prepare_inputs(np.asarray(images, dtype=np.float64), net.input_shape)
    labels = np.asarray(labels)
    if len(x) == 0:
        raise DataValidationError("training set has no samples")
    if not np.isfinite(x).all():
        raise DataValidationError("input contains NaN or infinite values")
    classes = net.layers[-1].weights.shape[0] if net.layers[-1].kind == "dense" else None
    if classes is not None and (labels.min() < 0 or labels.max() >= classes):
        raise ParameterError(f"labels out of range for {classes} classes")

    velocities: dict = {}
    rng = np.random.default_rng(whole(seed, "seed", 0) + 1)
    history = TrainHistory()

    for epoch in range(config.epochs):
        order = rng.permutation(x.shape[0])
        epoch_loss = 0.0
        correct = 0
        for start in range(0, x.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = x[idx], labels[idx]
            try:  # a float overflow or invalid value is divergence, not a warning
                with np.errstate(over="raise", invalid="raise"):
                    logits, record = ann_forward(net, xb)
                    loss, grad_logits = softmax_cross_entropy(logits, yb)
                    grads = network_backward(net, grad_logits, record)
                    sgd_step(net, grads, velocities, config, epoch)
            except FloatingPointError as err:
                raise TrainingDivergenceError(f"non-finite loss or update at epoch {epoch}, "
                                              f"batch offset {start}: {err}") from None
            epoch_loss += loss * len(idx)
            correct += int(np.sum(np.argmax(logits, axis=1) == yb))
        history.loss.append(epoch_loss / x.shape[0])
        history.train_accuracy.append(correct / x.shape[0])
        if not all(-FLOAT32_LIMIT < np.min(v) and np.max(v) < FLOAT32_LIMIT
                   for l in net.layers for v in (l.weights, l.bias, l.lam) if v is not None):
            raise TrainingDivergenceError(f"a parameter left float32's range at epoch {epoch}")
    return history
