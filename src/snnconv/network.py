"""Feed-forward network description and numpy layer primitives.

A network is an ordered list of :class:`LayerParams`.  Weighted layers
(dense / conv2d) may carry a trainable activation threshold ``lam``; every
weighted layer except the final classifier has one, and the quantized
activation is applied right after the layer's affine map.  Pooling and
flatten layers are parameter-free linear ops, which is what lets them
commute with spike-train averaging on the converted network.

Tensor layout is row-major, NCHW for images, with a leading batch axis on
all forward functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .activation import qcfs
from .errors import ParameterError, ShapeError

WEIGHTED_KINDS = ("dense", "conv2d")
LAYER_KINDS = ("dense", "conv2d", "avgpool2d", "flatten")


@dataclass
class LayerParams:
    """One layer: kind plus whatever parameters that kind needs.

    dense:     weights (out, in), bias (out,)
    conv2d:    weights (out_c, in_c, kh, kw), bias (out_c,), stride, padding
    avgpool2d: pool (window size == stride)
    flatten:   no parameters

    ``lam`` is the activation threshold; ``None`` means no activation
    follows this layer (pool/flatten layers and the final classifier).
    """

    kind: str
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    lam: float | None = None
    stride: int = 1
    padding: int = 0
    pool: int = 2

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ParameterError(f"unknown layer kind {self.kind!r}")
        if self.lam is not None and self.lam <= 0:
            raise ParameterError(f"layer threshold must be positive, got {self.lam}")
        if self.kind in WEIGHTED_KINDS and self.weights is None:
            raise ParameterError(f"{self.kind} layer requires weights")

    @property
    def has_activation(self) -> bool:
        return self.lam is not None

    def copy(self) -> "LayerParams":
        return replace(
            self,
            weights=None if self.weights is None else self.weights.copy(),
            bias=None if self.bias is None else self.bias.copy(),
        )


@dataclass
class ActivationRecord:
    """What one forward pass saw: per activation layer the pre-activation
    input and quantized output, and per layer its input (what backprop
    needs)."""

    pre: list = field(default_factory=list)
    post: list = field(default_factory=list)
    inputs: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.post)


@dataclass
class NetworkSpec:
    """Ordered layers plus the shared quantization step count L."""

    layers: list
    quant_steps: int
    input_shape: tuple
    normalization: tuple | None = None  # (mean, std) applied to raw inputs

    def __post_init__(self):
        self.input_shape = tuple(self.input_shape)
        if self.quant_steps < 1:
            raise ParameterError(f"quant_steps must be >= 1, got {self.quant_steps}")
        weighted = [l for l in self.layers if l.kind in WEIGHTED_KINDS]
        if not weighted:
            raise ParameterError("network needs at least one weighted layer")
        for l in weighted[:-1]:
            if not l.has_activation:
                raise ParameterError("every weighted layer before the classifier needs a threshold")
        if weighted[-1].has_activation:
            raise ParameterError("the final classifier layer must not carry an activation")
        for l in self.layers:
            if l.kind not in WEIGHTED_KINDS and l.has_activation:
                raise ParameterError(f"{l.kind} layers cannot carry an activation")

    @property
    def activation_layers(self) -> list:
        return [l for l in self.layers if l.has_activation]

    @property
    def thresholds(self) -> list:
        return [l.lam for l in self.activation_layers]

    def copy(self) -> "NetworkSpec":
        return NetworkSpec(
            layers=[l.copy() for l in self.layers],
            quant_steps=self.quant_steps,
            input_shape=self.input_shape,
            normalization=self.normalization,
        )


# ---------------------------------------------------------------------------
# layer forward / backward primitives


def dense_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    w = params.weights
    if x.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"dense expects (N, {w.shape[1]}), got {x.shape}")
    out = x @ w.T
    if params.bias is not None:
        out = out + params.bias
    return out


def dense_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray):
    grad_x = grad_out @ params.weights
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0) if params.bias is not None else None
    return grad_x, grad_w, grad_b


def _conv_geometry(params: LayerParams, x: np.ndarray):
    n, c, h, w = x.shape
    oc, ic, kh, kw = params.weights.shape
    if c != ic:
        raise ShapeError(f"conv2d expects {ic} input channels, got {c}")
    hp, wp = h + 2 * params.padding, w + 2 * params.padding
    if hp < kh or wp < kw:
        raise ShapeError(f"conv2d kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    oh = (hp - kh) // params.stride + 1
    ow = (wp - kw) // params.stride + 1
    return oc, kh, kw, oh, ow


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    n, c = x.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def conv2d_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input, got shape {x.shape}")
    oc, kh, kw, oh, ow = _conv_geometry(params, x)
    if params.padding:
        p = params.padding
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = _im2col(x, kh, kw, params.stride, oh, ow)
    out = np.einsum("ok,nkp->nop", params.weights.reshape(oc, -1), cols)
    if params.bias is not None:
        out = out + params.bias[:, None]
    return out.reshape(x.shape[0], oc, oh, ow)


def conv2d_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray):
    oc, kh, kw, oh, ow = _conv_geometry(params, x)
    n = x.shape[0]
    p = params.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    cols = _im2col(xp, kh, kw, params.stride, oh, ow)
    g = grad_out.reshape(n, oc, oh * ow)

    grad_w = np.einsum("nop,nkp->ok", g, cols).reshape(params.weights.shape)
    grad_b = g.sum(axis=(0, 2)) if params.bias is not None else None

    grad_cols = np.einsum("ok,nop->nkp", params.weights.reshape(oc, -1), g)
    grad_cols = grad_cols.reshape(n, x.shape[1], kh, kw, oh, ow)
    grad_xp = np.zeros_like(xp)
    s = params.stride
    for i in range(kh):
        for j in range(kw):
            grad_xp[:, :, i : i + s * oh : s, j : j + s * ow : s] += grad_cols[:, :, i, j]
    grad_x = grad_xp[:, :, p : xp.shape[2] - p, p : xp.shape[3] - p] if p else grad_xp
    return grad_x, grad_w, grad_b


def avgpool2d_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(f"avgpool2d expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    k = params.pool
    if h % k or w % k:
        raise ShapeError(f"avgpool2d window {k} does not tile input {h}x{w}")
    return x.reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))


def avgpool2d_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray):
    k = params.pool
    grad_x = np.repeat(np.repeat(grad_out, k, axis=2), k, axis=3) / (k * k)
    return grad_x, None, None


def flatten_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(x.shape[0], -1)


def flatten_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray):
    return grad_out.reshape(x.shape), None, None


_FORWARD = {
    "dense": dense_forward,
    "conv2d": conv2d_forward,
    "avgpool2d": avgpool2d_forward,
    "flatten": flatten_forward,
}

_BACKWARD = {
    "dense": dense_backward,
    "conv2d": conv2d_backward,
    "avgpool2d": avgpool2d_backward,
    "flatten": flatten_backward,
}


def layer_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    """Apply one layer's linear/affine map (no activation)."""
    return _FORWARD[params.kind](params, x)


def layer_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray):
    """Gradients of one layer's map: returns (grad_x, grad_w, grad_b)."""
    return _BACKWARD[params.kind](params, x, grad_out)


# ---------------------------------------------------------------------------
# whole-network forward


def ann_forward(net: NetworkSpec, x: np.ndarray):
    """Run the quantized-activation network on a batch.

    Returns ``(logits, record)`` where ``record`` holds the pre- and
    post-activation tensors of every activation layer in order, and the
    input of every layer.  The final classifier layer emits raw logits.
    Training backpropagates from ``record``, and a converted network shares
    these very layer objects, so both see the same forward pass.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ShapeError(f"input shape {x.shape[1:]} does not match network {net.input_shape}")
    record = ActivationRecord()
    cur = x
    for layer in net.layers:
        record.inputs.append(cur)
        cur = layer_forward(layer, cur)
        if layer.has_activation:
            record.pre.append(cur)
            cur = qcfs(cur, layer.lam, net.quant_steps)
            record.post.append(cur)
    return cur, record


# ---------------------------------------------------------------------------
# desk-scale presets


def mlp_preset(quant_steps: int, hidden=(256, 128), in_features: int = 784,
               classes: int = 10, lam: float = 1.0) -> NetworkSpec:
    """784-256-128-10 style fully-connected network (weights zero-filled;
    the trainer owns initialization)."""
    widths = [in_features, *hidden, classes]
    layers = []
    for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
        last = i == len(widths) - 2
        layers.append(LayerParams(
            kind="dense",
            weights=np.zeros((fo, fi)),
            bias=np.zeros(fo),
            lam=None if last else lam,
        ))
    return NetworkSpec(layers, quant_steps, (in_features,))


def cnn_preset(quant_steps: int, in_shape=(1, 28, 28), channels=(8, 16),
               hidden: int = 64, classes: int = 10, lam: float = 1.0) -> NetworkSpec:
    """Two 3x3 conv blocks with average pooling, then two dense layers."""
    c_in, h, w = in_shape
    c1, c2 = channels
    flat = c2 * (h // 4) * (w // 4)
    layers = [
        LayerParams("conv2d", np.zeros((c1, c_in, 3, 3)), np.zeros(c1), lam=lam, padding=1),
        LayerParams("avgpool2d", pool=2),
        LayerParams("conv2d", np.zeros((c2, c1, 3, 3)), np.zeros(c2), lam=lam, padding=1),
        LayerParams("avgpool2d", pool=2),
        LayerParams("flatten"),
        LayerParams("dense", np.zeros((hidden, flat)), np.zeros(hidden), lam=lam),
        LayerParams("dense", np.zeros((classes, hidden)), np.zeros(classes)),
    ]
    return NetworkSpec(layers, quant_steps, tuple(in_shape))
