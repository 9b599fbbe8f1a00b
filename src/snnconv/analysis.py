"""Spike-timing error taxonomy, per-layer distributions, and the
exhaustive residual-potential theorem checker.

The deviation between a quantized ANN activation ``a`` and the converted
network's average output ``phi`` splits into four cases by the value of
``a`` and the sign of ``phi - a``:

    case 1:  a == 0        and phi > a   (extra spikes from nothing)
    case 2:  0 < a < lam   and phi > a
    case 3:  0 < a < lam   and phi < a
    case 4:  a == lam      and phi < a

Both distributions read the converted network and the per-stage spike
counts of a run on ``x`` that the caller made, whose averages are
``phi = theta * (count / T)``: the network's stages share the
ANN's layer objects, so ``a = qcfs(stage.apply(prev))`` is the ANN's own
activation.  Type I distributions feed each stage the spiking average of
the previous stage, isolating the error a single layer generates; Type II
feeds it the previous stage's ``a``, i.e. compares against the ordinary
ANN forward pass, and therefore accumulates across layers.

The theorem checker simulates every spike-timing placement for a small
fan-in neuron at matched step counts (T == L), merging placements that reach
the same IF state, and verifies that a negative residual potential is
equivalent to the neuron having over-fired:

    (i)  a == 0:  v(T) < 0  implies  phi >= a;  phi > a  implies  v(T) < 0
    (ii) a  > 0:  v(T) < 0  if and only if  phi > a
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import combinations, islice, product

import numpy as np

from .activation import qcfs_level
from .engine import SnnNetwork, _checked_input, if_step
from .errors import ParameterError, ShapeError, finite, positive, whole
from .network import map_blocks
from .output import write_csv, write_json


class UnevennessCase(Enum):
    NO_ERROR = "NoError"
    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"
    CASE4 = "Case4"


ALL_CASES = list(UnevennessCase)


def classify_cases(counts, levels, timesteps: int, steps: int) -> np.ndarray:
    """Classify (spike count, ANN level) pairs elementwise; returns integer
    codes indexing ALL_CASES.

    Over ``T = timesteps`` steps a count ``c`` gives ``phi = theta * (c / T)``,
    and a level ``k`` of ``L = steps`` gives ``a = theta * (k / L)``, so
    ``phi - a = theta * (c*L - k*T) / (T*L)``: the integer ``c*L - k*T`` has the
    sign of ``phi - a``, and ``k == 0`` and ``k == L`` mark ``a == 0`` and
    ``a == lam``.  Every comparison is exact.  Raises unless ``T`` and ``L``
    are integers >= 1, ``counts`` integers in [0, T] and ``levels`` in [0, L].
    """
    whole(timesteps, "timesteps")
    whole(steps, "steps")
    counts, levels = np.asarray(counts), np.asarray(levels)
    for name, values, top in (("spike counts", counts, timesteps), ("ANN levels", levels, steps)):
        if values.dtype.kind not in "iu" or np.any(values < 0) or np.any(values > top):
            raise ParameterError(f"{name} must be integers in [0, {top}]")
    diff = counts.astype(np.int64) * steps - levels.astype(np.int64) * timesteps
    mid = (levels > 0) & (levels < steps)
    return np.select([(diff > 0) & (levels == 0), (diff > 0) & mid,
                      (diff < 0) & mid, (diff < 0) & (levels == steps)], [1, 2, 3, 4])


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


def _case_rows(counts: np.ndarray, levels: np.ndarray, timesteps: int,
               steps: int) -> np.ndarray:
    """Each row's count of every case, as ``(rows, len(ALL_CASES))``."""
    codes = classify_cases(counts, levels, timesteps, steps).reshape(len(counts), -1)
    return np.stack([np.count_nonzero(codes == j, axis=1) for j in range(len(ALL_CASES))],
                    axis=1)


def _tally(snn: SnnNetwork, error_type: str, timesteps: int, n: int, block, *counts) -> list:
    """One block's rows: per IF stage, the level ``k`` of the ANN activation
    ``a = theta * (k / L)`` and, for each run in ``counts``, each row's count
    of every case.  ``counts`` holds every run's stages in turn."""
    steps, k, rows, prev = snn.quant_steps, len(snn.if_stages), [], block
    for i, stage in enumerate(snn.if_stages):
        level = qcfs_level(stage.apply(prev), stage.theta, steps)
        level = level.astype(np.min_scalar_type(steps))
        for c in counts[i::k]:
            if c.shape != level.shape:
                raise ShapeError(f"IF stage {i} has neurons of shape {level.shape[1:]}, "
                                 f"spike counts of shape {c.shape[1:]}")
        rows.append(level)
        rows += [_case_rows(c, level, timesteps, steps) for c in counts[i::k]]
        prev = (stage.theta * (counts[i] / timesteps) if error_type == "I"
                else stage.theta * (level / steps))
    return rows


def _reports(error_type: str, snn: SnnNetwork, x: np.ndarray, timesteps: int,
             *runs: list) -> list:
    """One report per run: compare every IF stage's ``phi``, ``theta * (count / T)``
    from the run's spike counts, with the quantized activation it replaces.
    The next stage sees ``phi`` (Type I, one run) or that activation (Type II,
    one chain for every run).  Blocks keep only integers; each stage's whole
    ``|phi - a|`` is then filled in, one stage at a time, so its mean is
    numpy's over the same array."""
    steps, k = snn.quant_steps, len(snn.if_stages)
    if any(len(run) != k for run in runs):
        raise ShapeError(f"a run needs spike counts for each of the {k} IF stages")
    runs = [[np.asarray(c) for c in run] for run in runs]
    rows = map_blocks(partial(_tally, snn, error_type, timesteps),
                      _checked_input(snn, x), *(c for run in runs for c in run))
    reports = [ErrorReport(error_type=error_type) for _ in runs]
    for i, stage in enumerate(snn.if_stages):
        level, *cases = rows[i * (1 + len(runs)):(i + 1) * (1 + len(runs))]
        for report, run, run_cases in zip(reports, runs, cases):
            (err,) = map_blocks(lambda n, c, lv: [np.abs(
                stage.theta * (c / timesteps) - stage.theta * (lv / steps))], run[i], level)
            total = run_cases.sum(axis=0)
            report.layers.append(LayerErrorStats(
                layer=i, units=err.size, mean_abs_err=float(err.mean()),
                max_abs_err=float(err.max()), fractions={
                    case.value: float(total[c] / err.size) for c, case in enumerate(ALL_CASES)}))
            del err  # before the next one is built
    return reports


def error_type_I_distribution(snn: SnnNetwork, x: np.ndarray, counts: list,
                              timesteps: int) -> ErrorReport:
    """Per-layer distribution of a run's ``phi`` with forced equal inputs.

    ``counts`` and ``timesteps`` are the run's ``SimResult.counts`` and T.
    For each stage, the layer's ANN output is recomputed from the spiking
    average of the previous stage (stage 0 sees the raw input), so every
    mismatch is generated inside that single stage.
    """
    (report,) = _reports("I", snn, x, timesteps, counts)
    return report


def error_type_II_distribution(snn: SnnNetwork, x: np.ndarray, counts: list,
                               timesteps: int) -> ErrorReport:
    """Per-layer distribution of a run's ``phi`` against the ANN forward pass;
    ``counts`` and ``timesteps`` as in :func:`error_type_I_distribution`."""
    (report,) = _reports("II", snn, x, timesteps, counts)
    return report


@dataclass
class SrpEffect:
    before: ErrorReport
    after: ErrorReport

    def case_delta(self, case: UnevennessCase) -> list:
        """after - before fraction per layer (negative means reduced)."""
        return [a.fraction(case) - b.fraction(case)
                for a, b in zip(self.after.layers, self.before.layers)]


def srp_effect_report(snn: SnnNetwork, x: np.ndarray, plain: list, masked: list,
                      timesteps: int) -> SrpEffect:
    """Type II distributions without and with residual-potential masking, from
    the plain and the masked run's spike counts, against one ANN forward pass."""
    return SrpEffect(*_reports("II", snn, x, timesteps, plain, masked))


# ---------------------------------------------------------------------------
# report emission


def report_rows(report: ErrorReport) -> list:
    rows = []
    for stats in report.layers:
        for case in ALL_CASES:
            rows.append((stats.layer, case.value, stats.fraction(case)))
    return rows


def write_report_csv(report: ErrorReport, path) -> None:
    write_csv(path, ["layer", "case", "fraction"],
              [(layer, case, f"{fraction:.9f}") for layer, case, fraction in report_rows(report)])


def plot_data(report: ErrorReport) -> dict:
    """Stacked-bar layout: one series per case over the layer axis."""
    return {
        "layers": [s.layer for s in report.layers],
        "series": {case.value: [s.fraction(case) for s in report.layers]
                   for case in ALL_CASES},
    }


def write_report_json(report: ErrorReport, path) -> None:
    write_json(path, {"summary": asdict(report), "plot": plot_data(report)})


# ---------------------------------------------------------------------------
# exhaustive theorem verification


MAX_ENUM_TIMESTEPS = 8
MAX_PRESYN = 3


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


@dataclass(eq=False)
class TheoremResult(Sequence):
    """One theorem instance's outcome over every spike-timing placement.

    ``violations`` counts the failing placements, and ``witnesses`` holds
    one failing :class:`TheoremVerdict` per failing ``(count, v_final)``
    class.  ``len(result)`` is the placement count; ``result[i]`` decodes
    row ``i``, a mixed radix over each input's
    :func:`itertools.combinations` rank with the first input slowest, and
    simulates that one placement.
    """

    weights: tuple
    counts: tuple
    timesteps: int
    theta: float
    a: float
    clause: str
    violations: int
    witnesses: list

    def __len__(self) -> int:
        return math.prod(math.comb(self.timesteps, k) for k in self.counts)

    def __getitem__(self, index):
        i = range(len(self))[index]  # negative indices; IndexError out of range
        ranks = np.unravel_index(i, [math.comb(self.timesteps, k) for k in self.counts])
        timings = tuple(next(islice(combinations(range(self.timesteps), k), r, None))
                        for k, r in zip(self.counts, ranks))
        ((_, verdict),) = _judged(self.weights, self.counts, self.timesteps, self.theta, timings)
        return verdict


def _closed_form(weights, counts, timesteps: int, theta: float):
    """Exact residual v(T) for every spike count, and the matched ANN grid index.

    Conservation gives v(T) = theta/2 + S - theta * count with
    S = sum_i w_i * k_i, whatever the spike timing, so one
    ``(T + 1,)`` table indexed by ``count`` serves every placement; and
    k_ann = clip(floor(S/theta + 1/2), 0, T).  Both are computed on the
    exact rationals of the float inputs: in floats, an exact v(T) of 0 can
    end at -2.2e-16, and S/theta + 1/2 a hair below an integer can round
    up to it, and either reads as a violation.  Returns
    ``(residual, k_ann)`` with ``residual`` a list of ``Fraction``.
    """
    theta = Fraction(theta)
    charge = theta / 2 + sum(Fraction(w) * k for w, k in zip(weights, counts))
    k_ann = min(max(math.floor(charge / theta), 0), timesteps)
    return [charge - theta * count for count in range(timesteps + 1)], k_ann


def _end_states(weights, counts, timesteps: int, theta: float, timings=None) -> dict:
    """Simulate every placement of ``counts`` spikes in ``timesteps`` steps,
    or only the one in ``timings``, merging placements that reach one state.

    An IF neuron's future depends only on its state: the spikes used so far
    per input, the spikes emitted and the potential ``v``.  Each state holds
    its number of placements, an exact int, and the first placement that
    reached it (its witness, spike steps per input).  At each step every
    subset of inputs that may still spike is tried; its current is
    ``((0.0 + w1*b1) + w2*b2) + w3*b3`` and :func:`if_step` advances ``v``
    from ``theta/2``, so each ``v`` is bit-identical to a run over the
    placement's own current row.  Returns
    ``{(count, v_final): (placements, witness)}``.
    """
    subsets = []
    for spikes in product((False, True), repeat=len(weights)):
        current = 0.0
        for w, b in zip(weights, spikes):
            current += w * b
        subsets.append((spikes, current))
    states = {((0,) * len(weights), 0, 0.5 * theta): [1, ((),) * len(weights)]}
    for t in range(timesteps):
        after = {}
        for (used, count, v), (placements, witness) in states.items():
            for spikes, current in subsets:
                if timings is not None and spikes != tuple(t in steps for steps in timings):
                    continue
                used_next = tuple(u + b for u, b in zip(used, spikes))
                # each input keeps enough steps for the spikes it has left
                if not all(0 <= k - u < timesteps - t for k, u in zip(counts, used_next)):
                    continue
                v_next, fired = if_step(v, current, theta)
                key = (used_next, count + fired, v_next)
                if key in after:
                    after[key][0] += placements
                else:
                    after[key] = [placements, tuple(steps + (t,) * b
                                                    for steps, b in zip(witness, spikes))]
        states = after
    return {(count, v): tuple(state) for (_, count, v), state in states.items()}


def _judged(weights, counts, timesteps: int, theta: float, timings=None) -> list:
    """Judge each ``(count, v_final)`` class of :func:`_end_states`; returns
    ``[(placements, verdict)]``, the verdict's timings being the witness.

    The spike count comes from the simulation, the residual's sign from
    its exact closed form at that count (see :func:`_closed_form`).  When
    ``a == 0`` the first half of clause (i), ``v(T) < 0 => phi >= a``,
    holds trivially because ``phi >= 0``, so only ``phi > a => v(T) < 0``
    is tested.  A class also fails if its simulated ``v_final`` strays
    from that closed form by more than rounding, i.e. if the kernel does
    not conserve charge.
    """
    states = _end_states(weights, counts, timesteps, theta, timings)
    residual, k_ann = _closed_form(weights, counts, timesteps, theta)
    scale = theta * timesteps + sum(abs(w) * k for w, k in zip(weights, counts))
    a = theta * k_ann / timesteps
    clause = "zero-activation" if k_ann == 0 else "positive-activation"
    judged = []
    for (count, v_final), (placements, witness) in states.items():
        over, negative = count > k_ann, residual[count] < 0
        # rounding moves v_final by ~1e-16 of scale, a lost or extra reset by theta
        conserved = abs(v_final - float(residual[count])) <= 1e-9 * scale
        passed = ((not over or negative) if k_ann == 0 else over == negative) and conserved
        judged.append((placements, TheoremVerdict(
            weights=weights, counts=counts, timings=witness, timesteps=timesteps, a=a,
            phi=theta * (count / timesteps), v_final=v_final, clause=clause, passed=passed)))
    return judged


def verify_theorem1(weights, timesteps: int, counts, theta: float = 1.0) -> TheoremResult:
    """Simulate all spike-timing placements and check both clauses.

    ``weights`` is the fan-in weight vector (at most 3 presynaptic
    neurons); ``counts`` fixes each presynaptic spike count so that the
    forced-input precondition holds, and every way of placing those spikes
    in ``timesteps`` steps is simulated, placements that reach the same IF
    state merged (see :func:`_end_states`).  The quantization step count
    is tied to ``timesteps`` and the activation threshold to ``theta``.

    Refuses instances beyond the enumeration caps or float64's range.
    """
    timesteps = whole(timesteps, "timesteps")
    positive(theta, "theta")
    weights = tuple(finite(w, "a weight") for w in np.atleast_1d(np.asarray(weights, object)))
    counts = tuple(whole(k, "a spike count", 0) for k in np.atleast_1d(np.asarray(counts, object)))
    if len(weights) != len(counts):
        raise ParameterError(f"{len(weights)} weights vs {len(counts)} spike counts")
    if not 1 <= len(weights) <= MAX_PRESYN:
        raise ParameterError(f"need 1..{MAX_PRESYN} presynaptic neurons, got {len(weights)}")
    if any(k > timesteps for k in counts):
        raise ParameterError(f"spike counts must lie in [0, {timesteps}], got {counts}")
    # theta * T + sum_i |w_i| * k_i bounds every potential, exact or not
    if not math.isfinite(theta * timesteps + sum(abs(w) * k for w, k in zip(weights, counts))):
        raise ParameterError(f"weights {weights} and theta {theta} must give finite potentials")
    if timesteps > MAX_ENUM_TIMESTEPS:
        raise ParameterError(
            f"exhaustive enumeration supports 1..{MAX_ENUM_TIMESTEPS} steps, got {timesteps}")

    judged = _judged(weights, counts, timesteps, theta)
    failing = [(n, verdict) for n, verdict in judged if not verdict.passed]
    return TheoremResult(weights=weights, counts=counts, timesteps=timesteps, theta=theta,
                         a=judged[0][1].a, clause=judged[0][1].clause,
                         violations=sum(n for n, _ in failing),
                         witnesses=[verdict for _, verdict in failing])


def random_theorem_sweep(draws: int, timesteps_list, seed: int = 0):
    """Random draws of 1..MAX_PRESYN weights in [-2, 2] and spike counts
    in [0, T], each checked exhaustively.

    Returns ``(placements, violations, witnesses)`` summed over all draws;
    used by the CLI and the acceptance gate.
    """
    whole(draws, "draws")
    timesteps_list = [whole(timesteps, "timesteps") for timesteps in timesteps_list]
    rng = np.random.default_rng(whole(seed, "seed", 0))
    total = violations = 0
    witnesses = []
    for timesteps in timesteps_list:
        for _ in range(draws):
            n = int(rng.integers(1, MAX_PRESYN + 1))
            weights = rng.uniform(-2.0, 2.0, size=n)
            counts = rng.integers(0, timesteps + 1, size=n)
            result = verify_theorem1(weights, timesteps, counts)
            total += len(result)
            violations += result.violations
            witnesses += result.witnesses
    return total, violations, witnesses
