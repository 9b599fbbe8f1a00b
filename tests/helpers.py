"""Shared builders for test networks and datasets."""

import numpy as np

from snnconv import engine
from snnconv.activation import qcfs
from snnconv.network import LayerParams, NetworkSpec, _im2col
from snnconv.output import write_csv


def write_csv_dataset(handle, path) -> None:
    """Write a dataset in the CSV layout that ``load_csv_dataset`` reads:
    a ``label`` column, then one column per pixel."""
    n, _, rows, cols = handle.images.shape
    flat = handle.images.reshape(n, rows * cols)
    write_csv(path, ["label"] + [f"f{i}" for i in range(rows * cols)],
              ([int(y)] + [f"{v:.6f}" for v in vec] for y, vec in zip(handle.labels, flat)))


def scan(currents, theta):
    """Run one IF bank from ``theta/2`` over ``currents[T, ...]``, one
    ``engine.if_step`` (looked up on each call, so a test may patch it) per
    step; returns ``(spike_count, v_final)``."""
    v, count = 0.5 * theta, np.zeros(np.shape(currents)[1:], dtype=np.int64)
    for current in currents:
        v, fired = engine.if_step(v, current, theta)
        count += fired
    return count, v


def random_dense_net(rng, quant_steps, sizes=None, weight_scale=0.6, bias_scale=0.2):
    """Small random fully-connected net; last layer is the readout."""
    if sizes is None:
        depth = int(rng.integers(3, 6))  # 2..4 weighted layers plus input
        sizes = [int(rng.integers(3, 9)) for _ in range(depth)]
    layers = []
    for i in range(len(sizes) - 1):
        lam = float(rng.uniform(0.5, 2.0)) if i < len(sizes) - 2 else None
        layers.append(LayerParams(
            kind="dense",
            weights=rng.normal(0.0, weight_scale, (sizes[i + 1], sizes[i])),
            bias=rng.normal(0.0, bias_scale, sizes[i + 1]),
            lam=lam,
        ))
    return NetworkSpec(layers=layers, quant_steps=quant_steps,
                       input_shape=(sizes[0],))


def positive_dense_net(rng, quant_steps, sizes=(4, 5, 3)):
    """Net with non-negative weights and biases: residuals never go negative."""
    layers = []
    for i in range(len(sizes) - 1):
        lam = 1.0 if i < len(sizes) - 2 else None
        layers.append(LayerParams(
            kind="dense",
            weights=rng.uniform(0.0, 0.4, (sizes[i + 1], sizes[i])),
            bias=rng.uniform(0.0, 0.1, sizes[i + 1]),
            lam=lam,
        ))
    return NetworkSpec(layers=layers, quant_steps=quant_steps,
                       input_shape=(sizes[0],))


def dense(weights, bias=None, lam=None):
    weights = np.asarray(weights, dtype=np.float64)
    if bias is None:
        bias = np.zeros(weights.shape[0])
    return LayerParams(kind="dense", weights=weights,
                       bias=np.asarray(bias, dtype=np.float64), lam=lam)


def timing_fixture_net():
    """Three-presynaptic-phase fixture exhibiting Case2 and Case3 at stage 2.

    With input [0.6, 0.4, 0.15], L=T=4 and identity first layer, the
    presynaptic neurons fire at steps {1,3}, {2,4} and {4} respectively.
    Stage-2 neuron 0 sees positive current early (over-fires, Case2);
    neuron 1 sees a large positive kick only at the last step (under-fires,
    Case3).
    """
    layers = [
        dense(np.eye(3), lam=1.0),
        dense([[1.1, -0.6, 0.0], [-2.0, 0.0, 6.0]], lam=1.0),
        dense([[1.0, 1.0]]),
    ]
    net = NetworkSpec(layers=layers, quant_steps=4, input_shape=(3,))
    x = np.array([[0.6, 0.4, 0.15]])
    return net, x


def case1_repair_net():
    """Two-phase fixture whose stage-2 neuron over-fires from nothing.

    Input [0.6, 0.4] with L=T=2: presynaptic neuron A fires at step 1,
    B at step 2.  The stage-2 neuron receives +0.6 then -0.6, spikes once,
    and ends with residual -0.5 although its analog activation is 0.
    """
    layers = [
        dense(np.eye(2), lam=1.0),
        dense([[0.6, -0.6]], lam=1.0),
        dense([[1.0]]),
    ]
    net = NetworkSpec(layers=layers, quant_steps=2, input_shape=(2,))
    x = np.array([[0.6, 0.4]])
    return net, x


def same_bits(a, b) -> bool:
    """Whether two arrays (or scalars) match in dtype, shape and every bit,
    signs of zero included; ``None`` matches only ``None``."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_qcfs_backward(y, lam, steps, upstream):
    """``qcfs_backward`` as first written: a float gate, the forward output
    recomputed and every step in a fresh array."""
    y = np.asarray(y, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    gate = ((y >= 0.0) & (y <= lam)).astype(np.float64)
    grad_y = upstream * gate
    out_over_lam = qcfs(y, lam, steps) / lam
    return grad_y, float(np.sum(upstream * (out_over_lam - (y / lam) * gate)))


def reference_layer_backward(layer, x, grad_out):
    """``layer_backward`` as first written: the input gradient is always
    computed, and conv2d contracts its ``(out, in*kh*kw)`` weight view."""
    if layer.kind == "dense":
        grad_b = grad_out.sum(axis=0) if layer.bias is not None else None
        return grad_out @ layer.weights, grad_out.T @ x, grad_b
    if layer.kind == "avgpool2d":
        k = layer.pool
        return np.repeat(np.repeat(grad_out, k, axis=2), k, axis=3) / (k * k), None, None
    if layer.kind == "flatten":
        return grad_out.reshape(x.shape), None, None
    oc, _, kh, kw = layer.weights.shape
    n, s, p = x.shape[0], layer.stride, layer.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    oh, ow = grad_out.shape[2:]
    cols = _im2col(xp, kh, kw, s, oh, ow)
    g = grad_out.reshape(n, oc, oh * ow)
    grad_w = np.einsum("nop,nkp->ok", g, cols).reshape(layer.weights.shape)
    grad_b = g.sum(axis=(0, 2)) if layer.bias is not None else None
    grad_cols = np.einsum("ok,nop->nkp", layer.weights.reshape(oc, -1), g)
    grad_cols = grad_cols.reshape(n, x.shape[1], kh, kw, oh, ow)
    grad_xp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            grad_xp[:, :, i:i + s * oh:s, j:j + s * ow:s] += grad_cols[:, :, i, j]
    grad_x = grad_xp[:, :, p:xp.shape[2] - p, p:xp.shape[3] - p] if p else grad_xp
    return grad_x, grad_w, grad_b
