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

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConversionError, ParameterError, ShapeError
from .network import WEIGHTED_KINDS, NetworkSpec, layer_forward


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
    normalization: tuple | None = None

    @property
    def if_stages(self) -> list:
        return self.stages[:-1]

    @property
    def thetas(self) -> list:
        return [s.theta for s in self.if_stages]


@dataclass
class ConversionReport:
    """Per-stage mapping produced by :func:`convert`."""

    thetas: list
    v_init: list


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
    return SnnNetwork(stages, net.quant_steps, net.input_shape, net.normalization)


def conversion_report(snn: SnnNetwork) -> ConversionReport:
    thetas = snn.thetas
    return ConversionReport(thetas=list(thetas), v_init=[0.5 * t for t in thetas])


# ---------------------------------------------------------------------------
# IF dynamics


def if_step(v, current, theta: float):
    """Advance IF neurons one step; returns ``(v_next, fired)``.

    The only implementation of the update: the network time loop calls it
    directly, and :func:`if_scan` (constant-current runs, the theorem
    checker) calls it once per step.
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

    ``phi`` is the average postsynaptic potential per stage,
    ``theta * emitted_count / T``; ``scores`` is the time-averaged
    pre-activation input to the classifier stage.
    """

    scores: np.ndarray
    phi: list
    v_final: list
    spikes: list | None = None
    masks: list | None = None


class TraceRecorder:
    """Collects per-step (stage, neuron, t, u, s, v) rows for debugging."""

    def __init__(self):
        self.rows = []

    def record(self, stage: int, t: int, u: np.ndarray, s: np.ndarray, v: np.ndarray) -> None:
        flat_u, flat_s, flat_v = (np.ravel(a) for a in (u, s, v))
        for neuron in range(flat_u.size):
            self.rows.append((stage, neuron, t, flat_u[neuron], flat_s[neuron], flat_v[neuron]))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "neuron", "t", "u", "s", "v"])
            writer.writerows(self.rows)


def _checked_input(snn: SnnNetwork, x, **step_counts) -> np.ndarray:
    for name, value in step_counts.items():
        if value < 1:
            raise ParameterError(f"{name} must be >= 1, got {value}")
    for theta in snn.thetas:
        _check_theta(theta)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != snn.input_shape:
        raise ShapeError(f"input shape {x.shape[1:]} does not match network {snn.input_shape}")
    return x


def _run(snn: SnnNetwork, x: np.ndarray, timesteps: int, masks: list | None = None,
         record_spikes: bool = False, trace: TraceRecorder | None = None) -> SimResult:
    """Time loop shared by plain simulation and both SRP stages.

    Every stage starts at ``theta/2``.  With ``masks``, each stage's
    emitted spikes are gated by its mask; the membrane still integrates and
    resets on its own firings, only the transmitted spike is suppressed.
    """
    # Potentials and counts start as scalars and become arrays on the first
    # step by broadcasting, so no shape probe is needed.
    v = [0.5 * stage.theta for stage in snn.if_stages]
    counts = [0] * len(v)
    spikes = [None] * len(v) if record_spikes else None
    score_sum = None
    for t in range(timesteps):
        cur = x
        for i, stage in enumerate(snn.if_stages):
            current = stage.apply(cur)
            if trace is not None:
                u = v[i] + current
            v[i], fired = if_step(v[i], current, stage.theta)
            s = fired.astype(np.float64)
            if masks is not None:
                s *= masks[i]
            counts[i] += s
            if trace is not None:
                trace.record(i, t + 1, u, s, v[i])
            if record_spikes:
                if t == 0:
                    spikes[i] = np.zeros((timesteps, *s.shape))
                spikes[i][t] = s
            cur = stage.theta * s
        readout = snn.stages[-1].apply(cur)
        score_sum = readout if score_sum is None else score_sum + readout
    phi = [stage.theta * (c / timesteps) for stage, c in zip(snn.if_stages, counts)]
    if record_spikes:
        spikes = [np.moveaxis(sp, 0, -1) for sp in spikes]  # (..., T) per stage
    return SimResult(scores=score_sum / timesteps, phi=phi, v_final=v,
                     spikes=spikes, masks=masks)


def snn_simulate(snn: SnnNetwork, x: np.ndarray, timesteps: int,
                 record_spikes: bool = True, trace: TraceRecorder | None = None) -> SimResult:
    """Simulate with direct coding for the given number of steps."""
    x = _checked_input(snn, x, timesteps=timesteps)
    return _run(snn, x, timesteps, record_spikes=record_spikes, trace=trace)


def srp_inference(snn: SnnNetwork, x: np.ndarray, tau: int, timesteps: int,
                  record_spikes: bool = False) -> SimResult:
    """Two-stage inference with residual-potential masking.

    Stage 1 runs ``tau`` plain steps on the sample; neurons whose residual
    potential ends negative are marked dead.  Potentials are then reset to
    theta/2, and stage 2 runs ``timesteps`` steps with each stage's spike
    output gated by its mask.  Stage-1 spikes are discarded; only the masks
    survive into stage 2.
    """
    x = _checked_input(snn, x, tau=tau, timesteps=timesteps)
    masks = [(v >= 0.0).astype(np.float64) for v in _run(snn, x, tau).v_final]
    return _run(snn, x, timesteps, masks=masks, record_spikes=record_spikes)


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
    cur = _checked_input(snn, x, timesteps=timesteps)
    phis = []
    for stage in snn.if_stages:
        y = stage.apply(cur)
        phi = constant_current_phi(y, stage.theta, timesteps)
        phis.append(phi)
        cur = phi
    scores = snn.stages[-1].apply(cur)
    return scores, phis
