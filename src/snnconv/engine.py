"""Time-stepped integrate-and-fire engine and the ANN conversion mapping.

A converted network is organized as *stages*: each stage is the chain of
linear layers (pool/flatten plus one weighted layer) feeding a bank of IF
neurons, and the last stage is the non-spiking classifier readout.  Inputs
use direct coding: the analog sample is presented as a constant current at
every time-step, so the stage-0 average input equals the sample itself.

IF dynamics per step (reset by subtraction):

    u = v + current;  s = [u >= theta];  v = u - theta * s

A neuron fires exactly at threshold (the step function is 1 at 0), which
keeps the spike count of a constant-current neuron equal to the floor-based
closed form in :func:`even_timing_phi` at grid boundaries.

Membrane potentials are never clamped: a negative residual after the run is
precisely the signal the two-stage masking inference uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConversionError, DataValidationError, ParameterError, ShapeError
from .network import WEIGHTED_KINDS, NetworkSpec, layer_forward, map_blocks
from .output import write_csv


@dataclass
class Stage:
    """A chain of linear layers ending in IF neurons (theta set) or the
    readout (theta None)."""

    layers: list
    theta: float | None = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer_forward(layer, x)
        return x


@dataclass
class SnnNetwork:
    """Converted spiking network; weights are shared with the source ANN."""

    stages: list
    quant_steps: int
    input_shape: tuple

    @property
    def if_stages(self) -> list:
        return self.stages[:-1]

    @property
    def thetas(self) -> list:
        return [s.theta for s in self.if_stages]


def convert(net: NetworkSpec) -> SnnNetwork:
    """Map a quantized-activation ANN onto an IF spiking network.

    Weights and biases are reused verbatim; each activation threshold
    becomes the firing threshold of its stage and the initial membrane
    potential is half of it.  Biases act as a constant per-step current
    because they sit inside the stage's linear chain.
    """
    stages = []
    pending = []
    for layer in net.layers:
        pending.append(layer)
        if layer.kind in WEIGHTED_KINDS and layer.has_activation:
            stages.append(Stage(pending, theta=layer.lam))
            pending = []
    if not pending:
        raise ConversionError("network has no classifier stage after the last activation")
    stages.append(Stage(pending, theta=None))
    return SnnNetwork(stages, net.quant_steps, net.input_shape)


# ---------------------------------------------------------------------------
# IF dynamics


def if_step(v, current, theta: float):
    """Advance IF neurons one step; returns ``(v_next, fired)``.

    The only implementation of the update: the network time loop and the
    theorem checker call it directly, and :func:`if_scan` (constant-current
    runs) calls it once per step.
    """
    u = v + current
    fired = u >= theta
    return u - theta * fired, fired


def _check_theta(theta: float) -> None:
    if not theta > 0:
        raise ParameterError(f"firing threshold must be positive, got {theta}")


def if_scan(currents: np.ndarray, theta: float):
    """Run one IF bank from ``theta/2`` over ``currents[T, ...]``.

    Returns ``(spike_count, v_final)`` with the shape of one step's current.
    """
    _check_theta(theta)
    v = 0.5 * theta
    count = np.zeros(np.shape(currents)[1:], dtype=np.int64)
    for current in currents:
        v, fired = if_step(v, current, theta)
        count += fired
    return count, v


@dataclass
class SimResult:
    """Outputs of a simulation run.

    ``counts`` holds each IF stage's spikes per neuron as small integers, and
    ``phi``, the average postsynaptic potential ``theta * (count / T)``, is
    built from them on each read.  ``scores`` is the time-averaged
    pre-activation input to the classifier stage.  ``prefix_scores[t - 1]``
    is that average after the first ``t`` steps, bit-identical to the
    ``scores`` of a separate ``t``-step run (the same readouts are summed
    in the same order and divided by the same ``t``); ``scores`` is its
    last entry.  An SRP run's boolean ``masks`` are true where a neuron
    lives, and its ``plain`` is the plain run it took them from.
    """

    scores: np.ndarray
    prefix_scores: np.ndarray
    counts: list
    v_final: list
    thetas: list
    masks: list | None = None
    plain: SimResult | None = None

    @property
    def phi(self) -> list:
        timesteps = len(self.prefix_scores)
        return [theta * (c / timesteps) for theta, c in zip(self.thetas, self.counts)]


class TraceRecorder:
    """Collects per-step ``(stage, t, u, s, v)`` array copies for debugging.

    ``rows`` and :meth:`write_csv` flatten them into one
    ``(stage, neuron, t, u, s, v)`` row per neuron, in recording order; a
    later block's record goes on with the neuron numbers of its stage and step.
    """

    def __init__(self):
        self.steps = []

    def record(self, stage: int, t: int, u: np.ndarray, s: np.ndarray, v: np.ndarray) -> None:
        self.steps.append((stage, t, *(np.array(a).ravel() for a in (u, s, v))))

    @property
    def rows(self) -> list:
        rows, first = [], {}
        for stage, t, u, s, v in self.steps:
            start = first.get((stage, t), 0)
            first[stage, t] = start + u.size
            rows += [(stage, neuron, t, *values) for neuron, values
                     in enumerate(zip(u.tolist(), s.tolist(), v.tolist()), start)]
        return rows

    def write_csv(self, path) -> None:
        write_csv(path, ["layer", "neuron", "t", "u", "s", "v"], self.rows)


def _checked_input(snn: SnnNetwork, x, **step_counts) -> np.ndarray:
    for name, value in step_counts.items():
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")
    for theta in snn.thetas:
        _check_theta(theta)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != snn.input_shape:
        raise ShapeError(f"input shape {x.shape[1:]} does not match network {snn.input_shape}")
    if not np.isfinite(x).all():
        raise DataValidationError("input contains NaN or infinite values")
    return x


def _run(snn: SnnNetwork, x: np.ndarray, timesteps: int, tau: int = 0,
         trace: TraceRecorder | None = None) -> SimResult:
    """Plain simulation and, with ``tau``, SRP, block by block; every stage
    starts at ``theta/2``.  With ``tau`` the plain pass runs to step
    ``max(timesteps, tau)`` and leaves its masks, ``v >= 0`` after step ``tau``.
    The masks gate only the emitted spikes, not the membrane, so the masked
    pass in the same block replays the plain pass's stage-0 firings, kept
    at one bit per neuron and step."""
    thetas, k = snn.thetas, len(snn.if_stages)

    def time_loop(n, block, masks=None, fired0=None):
        # Potentials and counts start as scalars and become arrays on the
        # first step by broadcasting, so no shape probe is needed.
        v = [0.5 * theta for theta in thetas]
        counts, prefix, step_masks = [0] * k, [], []
        # Under direct coding stage 0's input current is the same at every step.
        current0 = None if masks else snn.stages[0].apply(block)
        # An SRP plain pass keeps stage 0's firings for the masked pass in one
        # buffer, one bit per neuron and step.
        firings = (np.empty((timesteps, -(-current0.size // 8)), np.uint8)
                   if tau and masks is None else None)
        for t in range(timesteps if masks is not None else max(timesteps, tau)):
            current = current0
            for i, theta in enumerate(thetas):
                if i == 0 and masks:
                    fired = np.unpackbits(fired0[t], count=masks[0].size)
                    fired = fired.view(bool).reshape(masks[0].shape)
                else:
                    if trace is not None:
                        u = v[i] + current
                    v[i], fired = if_step(v[i], current, theta)
                    if trace is not None:
                        trace.record(i, t + 1, u[:n], fired[:n].astype(np.float64), v[i][:n])
                    if i == 0 and tau and t < timesteps:
                        firings[t] = np.packbits(fired)
                s = fired if masks is None else fired & masks[i]
                if t < timesteps:
                    counts[i] += s
                if t < timesteps or i + 1 < k:
                    current = snn.stages[i + 1].apply(theta * s)
            if t < timesteps:
                score_sum = current if t == 0 else score_sum + current
                prefix.append(score_sum / (t + 1))
            if t + 1 == timesteps:
                v_final = list(v)
            if t + 1 == tau and masks is None:
                step_masks = [vi >= 0.0 for vi in v]
        counts = [c.astype(np.min_scalar_type(timesteps)) for c in counts]
        return np.stack(prefix, axis=1), counts, v_final, step_masks, firings

    def run_block(n, block):
        prefix, counts, v_final, masks, firings = time_loop(n, block)
        out = [prefix, *counts, *v_final]
        if tau:
            prefix, counts, v_final, _, _ = time_loop(n, block, masks, firings)
            # the masked pass's v_final[0] is the plain pass's
            out += [*masks, prefix, *counts, *v_final[1:]]
        return out

    def result(prefix, counts, v_final, **more):
        prefix = prefix.swapaxes(0, 1)
        return SimResult(prefix[-1], prefix, counts, v_final, thetas, **more)

    out = map_blocks(run_block, x)
    plain = result(out[0], out[1:k + 1], out[k + 1:2 * k + 1])
    if not tau:
        return plain
    masks, (prefix, *rest) = out[2 * k + 1:3 * k + 1], out[3 * k + 1:]
    return result(prefix, rest[:k], plain.v_final[:1] + rest[k:], masks=masks, plain=plain)


def snn_simulate(snn: SnnNetwork, x: np.ndarray, timesteps: int,
                 trace: TraceRecorder | None = None) -> SimResult:
    """Simulate with direct coding for the given number of steps.

    One run at ``timesteps`` also gives every shorter run's scores, in
    ``prefix_scores``.  ``trace`` records every step's potentials and spikes.
    """
    x = _checked_input(snn, x, timesteps=timesteps)
    return _run(snn, x, timesteps, trace=trace)


def srp_inference(snn: SnnNetwork, x: np.ndarray, tau: int, timesteps: int) -> SimResult:
    """Two-stage inference with residual-potential masking.

    Stage 1 runs ``tau`` plain steps on the sample; neurons whose residual
    potential ends negative are marked dead.  Potentials are then reset to
    theta/2, and stage 2 runs ``timesteps`` steps with each stage's spike
    output gated by its mask.  Stage-1 spikes are discarded; only the masks
    survive into stage 2.  The masks depend on ``tau`` alone, so
    ``prefix_scores`` gives every shorter stage 2 as well.  Stage 1 is the start
    of the result's ``plain`` run, bit-identical to ``snn_simulate(snn, x, timesteps)``,
    and both passes run one block at a time.
    """
    x = _checked_input(snn, x, tau=tau, timesteps=timesteps)
    return _run(snn, x, timesteps, tau=tau)


# ---------------------------------------------------------------------------
# even-timing (forced) evaluation


def even_timing_phi(y, theta: float, timesteps: int, v0: float):
    """Closed-form stage output when the input current is constant.

    clip(theta/T * floor(y*T/theta + v0/theta), 0, theta), rounded the same
    way as :func:`~snnconv.activation.qcfs`; with T equal to the
    quantization step count and v0 = theta/2 this coincides with the
    quantized activation pointwise, ties included.
    """
    _check_theta(theta)
    if timesteps < 1:
        raise ParameterError(f"timesteps must be >= 1, got {timesteps}")
    y = np.asarray(y, dtype=np.float64)
    k = np.floor(y * timesteps / theta + v0 / theta)
    return np.clip((theta / timesteps) * k, 0.0, theta)


def constant_current_phi(current: np.ndarray, theta: float, timesteps: int) -> np.ndarray:
    """Simulate one IF bank fed the same current every step; returns phi.

    This is the simulation-side counterpart of :func:`even_timing_phi` and
    deliberately does not use the closed form.
    """
    current = np.asarray(current, dtype=np.float64)
    count, _ = if_scan(np.broadcast_to(current, (timesteps, *current.shape)), theta)
    return theta * (count / timesteps)


def snn_forced_phi(snn: SnnNetwork, x: np.ndarray, timesteps: int):
    """Evaluate stage by stage with inputs forced even in time.

    Each stage receives the constant current built from the previous
    stage's final average output, which removes all spike-timing effects.
    Returns ``(scores, phi_per_stage)``.
    """
    x = _checked_input(snn, x, timesteps=timesteps)

    def forced_block(n, cur):
        phis = []
        for stage in snn.if_stages:
            cur = constant_current_phi(stage.apply(cur), stage.theta, timesteps)
            phis.append(cur)
        return [snn.stages[-1].apply(cur), *phis]

    scores, *phis = map_blocks(forced_block, x)
    return scores, phis
