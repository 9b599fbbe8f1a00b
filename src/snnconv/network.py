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

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .activation import qcfs
from .errors import DataValidationError, ParameterError, ShapeError, finite, positive, whole

WEIGHTED_KINDS = ("dense", "conv2d")
LAYER_KINDS = ("dense", "conv2d", "avgpool2d", "flatten")

# Rows per block of every batched forward.  BLAS ``matmul`` (dense layers)
# gives a row other bits at up to 128 rows; at 256 every row gets a large
# batch's bits.
BLOCK_ROWS = 256


@dataclass
class LayerParams:
    """One layer: kind plus whatever parameters that kind needs.

    dense:     weights (out, in), bias (out,)
    conv2d:    weights (out_c, in_c, kh, kw), bias (out_c,), stride, padding
    avgpool2d: pool (window size == stride)
    flatten:   no parameters

    ``lam`` is the activation threshold; ``None`` means no activation
    follows this layer (pool/flatten layers and the final classifier).
    Each field is checked when the layer is built, not on a later ``setattr``.
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
        if self.lam is not None:
            positive(self.lam, "layer threshold")
        whole(self.stride, "stride")
        whole(self.padding, "padding", 0)
        whole(self.pool, "pool")
        if self.kind in WEIGHTED_KINDS:
            if self.weights is None:
                raise ParameterError(f"{self.kind} layer requires weights")
            shape, rank = np.shape(self.weights), 2 if self.kind == "dense" else 4
            if len(shape) != rank or 0 in shape:
                raise ShapeError(f"{self.kind} weights need {rank} nonempty axes, got {shape}")
            if self.bias is not None and np.shape(self.bias) != shape[:1]:
                raise ShapeError(f"bias of shape {np.shape(self.bias)} for {shape[0]} outputs")

    @property
    def has_activation(self) -> bool:
        return self.lam is not None


@dataclass
class ActivationRecord:
    """What one forward pass saw: per activation layer the pre-activation
    input and quantized output, and per layer its input (what backprop
    needs)."""

    pre: list = field(default_factory=list)
    post: list = field(default_factory=list)
    inputs: list = field(default_factory=list)


@dataclass
class NetworkSpec:
    """Ordered layers, chained from ``input_shape``, and the shared quantization step count L."""

    layers: list
    quant_steps: int
    input_shape: tuple
    normalization: tuple | None = None  # (mean, std) applied to raw inputs

    def __post_init__(self):
        try:
            self.input_shape = tuple(whole(size, "an input size") for size in self.input_shape)
        except TypeError:
            raise ShapeError(f"input shape {self.input_shape!r} is not a sequence") from None
        whole(self.quant_steps, "quant_steps")
        if self.normalization is not None:
            try:
                mean, std = self.normalization
            except (TypeError, ValueError):
                raise ParameterError(f"normalization {self.normalization!r} is not a pair") from None
            finite(mean, "normalization mean")
            positive(std, "normalization std")
            self.normalization = (mean, std)
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
        shape = (1, *self.input_shape)
        for layer in self.layers:
            shape = layer_output_shape(layer, shape)

    @property
    def activation_layers(self) -> list:
        return [l for l in self.layers if l.has_activation]

    @property
    def thresholds(self) -> list:
        return [l.lam for l in self.activation_layers]


# ---------------------------------------------------------------------------
# layer forward / backward primitives


def dense_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    layer_output_shape(params, x.shape)
    out = x @ params.weights.T
    if params.bias is not None:
        out = out + params.bias
    return out


def dense_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray,
                   input_grad: bool):
    grad_x = grad_out @ params.weights if input_grad else None
    grad_w = grad_out.T @ x
    grad_b = grad_out.sum(axis=0) if params.bias is not None else None
    return grad_x, grad_w, grad_b


def _conv_geometry(params: LayerParams, shape: tuple):
    if len(shape) != 4:
        raise ShapeError(f"conv2d expects NCHW input, got shape {shape}")
    n, c, h, w = shape
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
    """Patch columns ``(n, c*kh*kw, oh*ow)``, copied from one strided view."""
    n, c = x.shape[:2]
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)


def conv2d_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    oc, kh, kw, oh, ow = _conv_geometry(params, x.shape)
    if params.padding:
        p = params.padding
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    cols = _im2col(x, kh, kw, params.stride, oh, ow)
    out = np.einsum("ok,nkp->nop", params.weights.reshape(oc, -1), cols)
    if params.bias is not None:
        out = out + params.bias[:, None]
    return out.reshape(x.shape[0], oc, oh, ow)


def conv2d_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray,
                    input_grad: bool):
    oc, kh, kw, oh, ow = _conv_geometry(params, x.shape)
    n = x.shape[0]
    p = params.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    cols = _im2col(xp, kh, kw, params.stride, oh, ow)
    g = grad_out.reshape(n, oc, oh * ow)

    grad_w = np.einsum("nop,nkp->ok", g, cols).reshape(params.weights.shape)
    grad_b = g.sum(axis=(0, 2)) if params.bias is not None else None
    if not input_grad:
        return None, grad_w, grad_b

    # einsum sums over o in order unless both operands are contiguous along
    # o, where it switches to an unrolled dot with other bits.  So the weight
    # is made contiguous, which runs 2-3x faster, only while g's o axis is
    # strided (more than one output pixel).
    w_t = params.weights.reshape(oc, -1).T
    if g.strides[1] != g.itemsize:
        w_t = np.ascontiguousarray(w_t)
    grad_cols = np.einsum("ko,nop->nkp", w_t, g)
    grad_cols = grad_cols.reshape(n, x.shape[1], kh, kw, oh, ow)
    grad_xp = np.zeros_like(xp)
    s = params.stride
    for i in range(kh):
        for j in range(kw):
            grad_xp[:, :, i : i + s * oh : s, j : j + s * ow : s] += grad_cols[:, :, i, j]
    grad_x = grad_xp[:, :, p : xp.shape[2] - p, p : xp.shape[3] - p] if p else grad_xp
    return grad_x, grad_w, grad_b


def avgpool2d_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    """Window mean by strided adds: each window row's columns are summed
    left to right, then the rows top to bottom, then divided by ``k*k``.

    For windows up to 7 this is bit-identical to
    ``reshape(n, c, h//k, k, w//k, k).mean(axis=(3, 5))`` and several times
    faster; from 8 on numpy's ``mean`` sums pairwise, so the last ulp can
    differ.
    """
    x = np.asarray(x, dtype=np.float64)
    layer_output_shape(params, x.shape)
    k = params.pool
    rows = [reduce(np.add, (x[:, :, i::k, j::k] for j in range(k))) for i in range(k)]
    return reduce(np.add, rows) / (k * k)


def avgpool2d_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray,
                       input_grad: bool):
    k = params.pool
    grad_x = np.repeat(np.repeat(grad_out, k, axis=2), k, axis=3) / (k * k) if input_grad else None
    return grad_x, None, None


def flatten_forward(params: LayerParams, x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(x.shape[0], -1)


def flatten_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray,
                     input_grad: bool):
    return grad_out.reshape(x.shape) if input_grad else None, None, None


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


def layer_output_shape(params: LayerParams, shape: tuple) -> tuple:
    """Shape of ``layer_forward(params, x)`` for ``x`` of ``shape``, found
    without allocating.  Raises the :class:`ShapeError` the kernel would."""
    if params.kind == "flatten":
        return shape[0], math.prod(shape[1:])
    if params.kind == "dense":
        w = params.weights
        if len(shape) != 2 or shape[1] != w.shape[1]:
            raise ShapeError(f"dense expects (N, {w.shape[1]}), got {shape}")
        return shape[0], w.shape[0]
    if params.kind == "conv2d":
        oc, _, _, oh, ow = _conv_geometry(params, shape)
        return shape[0], oc, oh, ow
    if len(shape) != 4:
        raise ShapeError(f"avgpool2d expects NCHW input, got shape {shape}")
    n, c, h, w = shape
    k = params.pool
    if h % k or w % k:
        raise ShapeError(f"avgpool2d window {k} does not tile input {h}x{w}")
    return n, c, h // k, w // k


def layer_backward(params: LayerParams, x: np.ndarray, grad_out: np.ndarray, *,
                   input_grad: bool = True):
    """Gradients of one layer's map: returns (grad_x, grad_w, grad_b).

    With ``input_grad=False`` the input gradient is not computed and
    ``grad_x`` is ``None``; ``grad_w`` and ``grad_b`` keep every bit.
    Training passes it for layer 0, whose input gradient nothing reads.
    """
    return _BACKWARD[params.kind](params, x, grad_out, input_grad)


# ---------------------------------------------------------------------------
# whole-network forward


def map_blocks(fn, *arrays) -> list:
    """Apply ``fn(n, *blocks)`` to ``arrays`` ``BLOCK_ROWS`` rows at a time.

    Each block holds the next ``n <= BLOCK_ROWS`` rows of every array, the
    last one zero-padded, so a sample's bits do not depend on the samples
    with it.  ``fn`` never writes its blocks: a full block is a view.  ``fn``
    returns a sequence of arrays with rows on axis 0; their first ``n`` rows
    go into outputs allocated at the first block, and a block's outputs are
    freed before the next block runs.  Input with no rows is a
    :class:`DataValidationError`, and arrays of unequal row counts a
    :class:`ShapeError`.
    """
    total = len(arrays[0])
    if any(len(a) != total for a in arrays):
        raise ShapeError(f"arrays of {[len(a) for a in arrays]} rows cannot share blocks")
    if total == 0:
        raise DataValidationError("input has no samples")
    out = None
    for start in range(0, total, BLOCK_ROWS):
        n = min(BLOCK_ROWS, total - start)
        blocks = [np.ascontiguousarray(a[start:start + n]) if n == BLOCK_ROWS else
                  np.pad(a[start:start + n], [(0, BLOCK_ROWS - n)] + [(0, 0)] * (a.ndim - 1))
                  for a in arrays]
        parts = fn(n, *blocks)
        if out is None:
            out = [np.empty((total, *part.shape[1:]), dtype=part.dtype) for part in parts]
        for array, part in zip(out, parts):
            array[start:start + n] = part[:n]
        del parts, part
    return out


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
               classes: int = 10) -> NetworkSpec:
    """784-256-128-10 style fully-connected network (weights zero-filled;
    the trainer owns initialization, thresholds included)."""
    widths = [in_features, *hidden, classes]
    layers = []
    for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
        last = i == len(widths) - 2
        layers.append(LayerParams(
            kind="dense",
            weights=np.zeros((fo, fi)),
            bias=np.zeros(fo),
            lam=None if last else 1.0,
        ))
    return NetworkSpec(layers, quant_steps, (in_features,))


def cnn_preset(quant_steps: int, channels=(8, 16), hidden: int = 64) -> NetworkSpec:
    """Two 3x3 conv blocks with average pooling on 1x28x28 inputs, then two
    dense layers to 10 classes."""
    c1, c2 = channels
    flat = c2 * 7 * 7
    layers = [
        LayerParams("conv2d", np.zeros((c1, 1, 3, 3)), np.zeros(c1), lam=1.0, padding=1),
        LayerParams("avgpool2d", pool=2),
        LayerParams("conv2d", np.zeros((c2, c1, 3, 3)), np.zeros(c2), lam=1.0, padding=1),
        LayerParams("avgpool2d", pool=2),
        LayerParams("flatten"),
        LayerParams("dense", np.zeros((hidden, flat)), np.zeros(hidden), lam=1.0),
        LayerParams("dense", np.zeros((10, hidden)), np.zeros(10)),
    ]
    return NetworkSpec(layers, quant_steps, (1, 28, 28))
