"""Quantized clip-floor-shift (QCFS) activation.

The forward map is

    qcfs(y) = lam * clip(floor(y * steps / lam + 1/2) / steps, 0, 1)

so outputs live on the finite grid {0, lam/steps, ..., lam}.  The shift of
1/2 makes the quantizer a rounding one, which is what lets a converted
spiking layer with initial potential theta/2 reproduce it exactly.

The backward pass is a straight-through estimator against the clip
surrogate lam * clip(y / lam, 0, 1): the floor is treated as identity and
the gradient gate is 0 <= y / lam <= 1.  This keeps the gradient equal to
the surrogate's derivative everywhere off the quantization boundaries.
"""

from __future__ import annotations

import numpy as np

from .errors import positive, whole


def _check_params(lam, steps) -> None:
    positive(lam, "activation threshold")
    whole(steps, "quantization steps")


def qcfs_level(y, lam: float, steps: int):
    """The grid index ``k = clip(floor(y * steps / lam + 1/2), 0, steps)`` of
    :func:`qcfs`, elementwise, as whole floats."""
    _check_params(lam, steps)
    y = np.asarray(y, dtype=np.float64)
    return np.clip(np.floor(y * steps / lam + 0.5), 0, steps)


def qcfs(y, lam: float, steps: int):
    """Apply the quantized clip-floor-shift activation elementwise.

    Accepts scalars or arrays; returns the same shape.  Output values are
    exactly ``lam * (k / steps)`` with ``k = qcfs_level(y, lam, steps)``.
    """
    return lam * (qcfs_level(y, lam, steps) / steps)


def qcfs_backward(y, lam: float, steps: int, upstream, post=None):
    """Straight-through gradients of qcfs w.r.t. input and threshold.

    Returns ``(grad_y, grad_lam)`` where ``grad_y`` has the shape of ``y``
    and ``grad_lam`` is the scalar sum over all elements.  The pass-through
    gate is 0 <= y <= lam; the threshold gradient is the quantized output
    over lam minus the gated pass-through term y / lam.

    ``post`` is the forward's output ``qcfs(y, lam, steps)``, if the caller
    holds it; passing it saves recomputing it and leaves every bit of both
    gradients unchanged.
    """
    _check_params(lam, steps)
    y = np.asarray(y, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    gate = (y >= 0.0) & (y <= lam)
    grad_y = upstream * gate
    # upstream * (post / lam - (y / lam) * gate), in two buffers, in that order
    term = (qcfs(y, lam, steps) if post is None else post) / lam
    gated = y / lam
    gated *= gate
    term -= gated
    term *= upstream
    grad_lam = float(np.sum(term))
    return grad_y, grad_lam
