"""Spike-timing error taxonomy, per-layer distributions, and the
exhaustive residual-potential theorem checker.

The deviation between a quantized ANN activation ``a`` and the converted
network's average output ``phi`` splits into four cases by the value of
``a`` and the sign of ``phi - a``:

    case 1:  a == 0        and phi > a   (extra spikes from nothing)
    case 2:  0 < a < lam   and phi > a
    case 3:  0 < a < lam   and phi < a
    case 4:  a == lam      and phi < a

Type I distributions force each layer's input to equal the spiking
average of the previous layer before recomputing ``a``, isolating the
error a single layer generates; Type II compares against the ordinary ANN
forward pass and therefore accumulates across layers.

The theorem checker enumerates every spike-timing placement for a small
fan-in neuron at matched step counts (T == L) and verifies that a negative
residual potential is equivalent to the neuron having over-fired:

    (i)  a == 0:  v(T) < 0  implies  phi >= a;  phi > a  implies  v(T) < 0
    (ii) a  > 0:  v(T) < 0  if and only if  phi > a
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from .activation import qcfs
from .engine import SnnNetwork, if_scan, snn_simulate, srp_inference
from .errors import ParameterError, PairingError, SnnConvError
from .network import NetworkSpec, ann_forward

EPS_DEFAULT = 1e-6


class UnevennessCase(Enum):
    NO_ERROR = "NoError"
    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"
    CASE4 = "Case4"


ALL_CASES = list(UnevennessCase)


def classify_case(a: float, phi: float, lam: float, eps: float = EPS_DEFAULT) -> UnevennessCase:
    """Classify a single (ANN output, spiking output) pair.

    Comparisons are under the absolute tolerance ``eps``; both outputs live
    on grids with spacing >= lam/steps, so genuine mismatches always clear
    it.  Raises for ``a`` outside [0, lam] beyond tolerance.
    """
    return ALL_CASES[int(classify_cases(a, phi, lam, eps))]


def classify_cases(a: np.ndarray, phi: np.ndarray, lam: float,
                   eps: float = EPS_DEFAULT) -> np.ndarray:
    """Vectorized version; returns integer codes indexing ALL_CASES."""
    if lam <= 0:
        raise ParameterError(f"lam must be positive, got {lam}")
    a = np.asarray(a, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if np.any(a < -eps) or np.any(a > lam + eps):
        bad = a[(a < -eps) | (a > lam + eps)].flat[0]
        raise ParameterError(f"ANN output {bad} outside [0, {lam}]")
    codes = np.zeros(a.shape, dtype=np.int64)
    differs = np.abs(phi - a) > eps
    zero = a <= eps
    top = ~zero & (a >= lam - eps)
    mid = ~zero & ~top
    codes[differs & zero & (phi > a)] = 1
    codes[differs & mid & (phi > a)] = 2
    codes[differs & mid & (phi < a)] = 3
    codes[differs & top & (phi < a)] = 4
    return codes


# ---------------------------------------------------------------------------
# per-layer reports


@dataclass
class LayerErrorStats:
    layer: int
    units: int
    fractions: dict
    mean_abs_err: float
    max_abs_err: float

    def fraction(self, case: UnevennessCase) -> float:
        return self.fractions[case.value]


@dataclass
class ErrorReport:
    error_type: str  # "I" or "II"
    layers: list = field(default_factory=list)

    def layer(self, index: int) -> LayerErrorStats:
        return self.layers[index]


def _layer_stats(index: int, a: np.ndarray, phi: np.ndarray, lam: float,
                 eps: float) -> LayerErrorStats:
    codes = classify_cases(a, phi, lam, eps)
    total = codes.size
    fractions = {case.value: float(np.count_nonzero(codes == i) / total)
                 for i, case in enumerate(ALL_CASES)}
    err = np.abs(phi - a)
    return LayerErrorStats(layer=index, units=total, fractions=fractions,
                           mean_abs_err=float(err.mean()), max_abs_err=float(err.max()))


def _check_pairing(ann: NetworkSpec, snn: SnnNetwork) -> None:
    thetas = snn.thetas
    lams = ann.thresholds
    if len(thetas) != len(lams):
        raise PairingError(f"ANN has {len(lams)} activation layers, SNN has {len(thetas)}")
    for i, (lam, theta) in enumerate(zip(lams, thetas)):
        if lam != theta:
            raise PairingError(f"stage {i}: threshold {theta} != source {lam}")
    ann_weighted = [l for l in ann.layers if l.weights is not None]
    snn_weighted = [l for s in snn.stages for l in s.layers if l.weights is not None]
    if len(ann_weighted) != len(snn_weighted):
        raise PairingError("weighted layer counts differ")
    for i, (la, ls) in enumerate(zip(ann_weighted, snn_weighted)):
        if la.weights is not ls.weights and not np.array_equal(la.weights, ls.weights):
            raise PairingError(f"weighted layer {i}: parameters differ")


def error_type_I_distribution(ann: NetworkSpec, snn: SnnNetwork, x: np.ndarray,
                              timesteps: int, eps: float = EPS_DEFAULT,
                              phi: list | None = None) -> ErrorReport:
    """Per-layer distribution with forced equal inputs.

    For each stage, the layer's ANN output is recomputed from the spiking
    average of the previous stage (stage 0 sees the raw input), so every
    mismatch is generated inside that single stage.
    """
    _check_pairing(ann, snn)
    if phi is None:
        phi = snn_simulate(snn, x, timesteps, record_spikes=False).phi
    report = ErrorReport(error_type="I")
    prev = np.asarray(x, dtype=np.float64)
    for i, stage in enumerate(snn.if_stages):
        y = stage.apply(prev)
        a_forced = qcfs(y, stage.theta, snn.quant_steps)
        report.layers.append(_layer_stats(i, a_forced, phi[i], stage.theta, eps))
        prev = phi[i]
    return report


def error_type_II_distribution(ann: NetworkSpec, snn: SnnNetwork, x: np.ndarray,
                               timesteps: int, eps: float = EPS_DEFAULT,
                               phi: list | None = None) -> ErrorReport:
    """Per-layer distribution against the ordinary ANN forward pass."""
    _check_pairing(ann, snn)
    if phi is None:
        phi = snn_simulate(snn, x, timesteps, record_spikes=False).phi
    _, record = ann_forward(ann, np.asarray(x, dtype=np.float64))
    report = ErrorReport(error_type="II")
    for i, (stage, a) in enumerate(zip(snn.if_stages, record.post)):
        report.layers.append(_layer_stats(i, a, phi[i], stage.theta, eps))
    return report


@dataclass
class SrpEffect:
    before: ErrorReport
    after: ErrorReport

    def case_delta(self, case: UnevennessCase) -> list:
        """after - before fraction per layer (negative means reduced)."""
        return [a.fraction(case) - b.fraction(case)
                for a, b in zip(self.after.layers, self.before.layers)]


def srp_effect_report(ann: NetworkSpec, snn: SnnNetwork, x: np.ndarray,
                      tau: int, timesteps: int, eps: float = EPS_DEFAULT) -> SrpEffect:
    """Type II distributions without and with residual-potential masking."""
    _check_pairing(ann, snn)
    plain = snn_simulate(snn, x, timesteps, record_spikes=False)
    masked = srp_inference(snn, x, tau, timesteps)
    before = error_type_II_distribution(ann, snn, x, timesteps, eps, phi=plain.phi)
    after = error_type_II_distribution(ann, snn, x, timesteps, eps, phi=masked.phi)
    return SrpEffect(before=before, after=after)


# ---------------------------------------------------------------------------
# report emission


def report_rows(report: ErrorReport) -> list:
    rows = []
    for stats in report.layers:
        for case in ALL_CASES:
            rows.append((stats.layer, case.value, stats.fraction(case)))
    return rows


def write_report_csv(report: ErrorReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "case", "fraction"])
        for layer, case, fraction in report_rows(report):
            writer.writerow([layer, case, f"{fraction:.9f}"])


def report_summary(report: ErrorReport) -> dict:
    return {
        "error_type": report.error_type,
        "layers": [
            {
                "layer": s.layer,
                "units": s.units,
                "fractions": s.fractions,
                "mean_abs_err": s.mean_abs_err,
                "max_abs_err": s.max_abs_err,
            }
            for s in report.layers
        ],
    }


def plot_data(report: ErrorReport) -> dict:
    """Stacked-bar layout: one series per case over the layer axis."""
    return {
        "layers": [s.layer for s in report.layers],
        "series": {case.value: [s.fraction(case) for s in report.layers]
                   for case in ALL_CASES},
    }


def write_report_json(report: ErrorReport, path) -> None:
    with open(path, "w") as fh:
        json.dump({"summary": report_summary(report), "plot": plot_data(report)},
                  fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# exhaustive theorem verification


MAX_ENUM_TIMESTEPS = 8
MAX_PRESYN = 3
MAX_INSTANCES = 400_000


@dataclass
class TheoremVerdict:
    weights: tuple
    counts: tuple
    timings: tuple          # per presynaptic neuron: spike step indices
    timesteps: int
    a: float
    phi: float
    v_final: float
    clause: str             # "zero-activation" or "positive-activation"
    passed: bool


def _forced_ann_value(weights, counts, timesteps: int, theta: float,
                      presyn_theta: float):
    """Quantized output for time-averaged presynaptic rates; (a, grid index)."""
    y = sum(w * presyn_theta * k / timesteps for w, k in zip(weights, counts))
    k_ann = int(np.clip(np.floor(y * timesteps / theta + 0.5), 0, timesteps))
    return theta * k_ann / timesteps, k_ann


def _judge(count: np.ndarray, v_final: np.ndarray, k_ann: int):
    """Apply the residual-sign clauses to simulated spike counts."""
    negative = v_final < 0.0
    over = count > k_ann
    if k_ann == 0:
        at_least = count >= k_ann
        passed = (~negative | at_least) & (~over | negative)
        return passed, "zero-activation"
    return over == negative, "positive-activation"


def _theorem_instance(weights, counts, timesteps: int):
    """Shared validation; returns ``(weights, counts)`` as tuples."""
    weights = tuple(float(w) for w in np.atleast_1d(weights))
    counts = tuple(int(k) for k in np.atleast_1d(counts))
    if len(weights) != len(counts):
        raise ParameterError(f"{len(weights)} weights vs {len(counts)} spike counts")
    if not weights:
        raise ParameterError("need at least one presynaptic neuron")
    if timesteps < 1:
        raise ParameterError(f"timesteps must be >= 1, got {timesteps}")
    if any(k < 0 or k > timesteps for k in counts):
        raise ParameterError(f"spike counts must lie in [0, {timesteps}], got {counts}")
    return weights, counts


def _placement_currents(weights, timesteps: int, presyn_theta: float,
                        placements: list) -> np.ndarray:
    """Postsynaptic current of every placement row, shaped ``(T, rows)``."""
    currents = np.zeros((len(placements[0][1]), timesteps))
    for w, (options, rows) in zip(weights, placements):
        train = np.zeros((len(options), timesteps))
        np.put_along_axis(train, options, 1.0, axis=1)
        currents += w * presyn_theta * train[rows]
    return currents.T


def _check_placements(weights, counts, timesteps: int, theta: float,
                      presyn_theta: float, placements: list) -> list:
    """Simulate every placement row with :func:`if_scan` and judge it.

    ``placements`` holds, per presynaptic neuron, ``(options, rows)``: an
    integer array whose rows are candidate spike-step sets, and the option
    each placement row uses.
    """
    count, v_final = if_scan(
        _placement_currents(weights, timesteps, presyn_theta, placements), theta)
    phi = theta * (count / timesteps)
    a, k_ann = _forced_ann_value(weights, counts, timesteps, theta, presyn_theta)
    passed, clause = _judge(count, v_final, k_ann)

    choices = [(list(map(tuple, options.tolist())), rows.tolist())
               for options, rows in placements]
    return [
        TheoremVerdict(
            weights=weights, counts=counts,
            timings=tuple(opts[row[i]] for opts, row in choices),
            timesteps=timesteps, a=a, phi=float(phi[i]), v_final=float(v_final[i]),
            clause=clause, passed=bool(passed[i]))
        for i in range(len(phi))
    ]


def verify_theorem1(weights, timesteps: int, counts, theta: float = 1.0,
                    presyn_theta: float = 1.0) -> list:
    """Enumerate all spike-timing placements and check both clauses.

    ``weights`` is the fan-in weight vector (at most 3 presynaptic
    neurons); ``counts`` fixes each presynaptic spike count so that the
    forced-input precondition holds, and every way of placing those spikes
    in ``timesteps`` steps is simulated.  The quantization step count is
    tied to ``timesteps`` and the activation threshold to ``theta``.

    Refuses instances beyond the exhaustive-enumeration cap.
    """
    weights, counts = _theorem_instance(weights, counts, timesteps)
    if len(weights) > MAX_PRESYN:
        raise ParameterError(f"need 1..{MAX_PRESYN} presynaptic neurons, got {len(weights)}")
    if timesteps > MAX_ENUM_TIMESTEPS:
        raise ParameterError(
            f"exhaustive enumeration supports 1..{MAX_ENUM_TIMESTEPS} steps, got {timesteps}")
    n_instances = int(np.prod([math.comb(timesteps, k) for k in counts]))
    if n_instances > MAX_INSTANCES:
        raise ParameterError(
            f"{n_instances} placements exceed the enumeration cap {MAX_INSTANCES}")

    options = [np.array(list(combinations(range(timesteps), k)), dtype=np.int64)
               .reshape(math.comb(timesteps, k), k) for k in counts]
    grids = np.meshgrid(*[np.arange(len(o)) for o in options], indexing="ij")
    placements = [(o, g.ravel()) for o, g in zip(options, grids)]
    return _check_placements(weights, counts, timesteps, theta, presyn_theta, placements)


def sample_theorem1(weights, timesteps: int, counts, draws: int = 10_000,
                    seed: int = 0, theta: float = 1.0,
                    presyn_theta: float = 1.0) -> list:
    """Seeded random spike placements for instances beyond the enumeration cap.

    Applies the same residual-sign clauses as :func:`verify_theorem1` but
    draws placements instead of enumerating them, so this is a deterministic
    spot check rather than a proof.  No limit on ``timesteps`` or fan-in.
    """
    weights, counts = _theorem_instance(weights, counts, timesteps)
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")

    rng = np.random.default_rng(seed)
    placements = []
    for k in counts:
        # the k smallest of iid uniforms form a uniform random k-subset
        order = np.argsort(rng.random((draws, timesteps)), axis=1)[:, :k]
        placements.append((np.sort(order, axis=1), np.arange(draws)))
    return _check_placements(weights, counts, timesteps, theta, presyn_theta, placements)


def theorem_failures(verdicts: list) -> list:
    return [v for v in verdicts if not v.passed]


def random_theorem_sweep(draws: int, timesteps_list, seed: int = 0,
                         max_presyn: int = MAX_PRESYN,
                         weight_scale: float = 2.0):
    """Randomized weight/count draws, each checked exhaustively.

    Returns ``(n_instances, failures)`` aggregated over all draws; used by
    the CLI and the acceptance gate.
    """
    rng = np.random.default_rng(seed)
    total = 0
    failures = []
    for timesteps in timesteps_list:
        for _ in range(draws):
            n = int(rng.integers(1, max_presyn + 1))
            weights = rng.uniform(-weight_scale, weight_scale, size=n)
            counts = rng.integers(0, timesteps + 1, size=n)
            verdicts = verify_theorem1(weights, timesteps, counts)
            total += len(verdicts)
            failures.extend(theorem_failures(verdicts))
    return total, failures
