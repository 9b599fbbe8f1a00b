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

The theorem checker enumerates every spike-timing placement for a small
fan-in neuron at matched step counts (T == L) and verifies that a negative
residual potential is equivalent to the neuron having over-fired:

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
from itertools import combinations

import numpy as np

from .activation import qcfs_level
from .engine import SnnNetwork, _checked_input, if_scan
from .errors import ParameterError, ShapeError
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
    for name, top in (("timesteps", timesteps), ("steps", steps)):
        if not isinstance(top, (int, np.integer)) or top < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {top!r}")
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
    """Every placement's outcome for one theorem instance, as arrays.

    ``phi``, ``v_final`` and ``passed`` hold one entry per placement row.
    ``placements`` holds, per presynaptic neuron, ``(options, rows)``: an
    integer array whose rows are candidate spike-step sets, and the option
    each placement row uses.  ``result[i]`` builds row ``i``'s
    :class:`TheoremVerdict` on demand, so only the rows read cost a verdict.
    """

    weights: tuple
    counts: tuple
    timesteps: int
    a: float
    clause: str
    placements: list
    phi: np.ndarray
    v_final: np.ndarray
    passed: np.ndarray

    def __len__(self) -> int:
        return len(self.passed)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]  # negative indices; IndexError out of range
        return TheoremVerdict(
            weights=self.weights, counts=self.counts,
            timings=tuple(tuple(options[rows[i]].tolist()) for options, rows in self.placements),
            timesteps=self.timesteps, a=self.a, phi=float(self.phi[i]),
            v_final=float(self.v_final[i]), clause=self.clause, passed=bool(self.passed[i]))


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


def _judge(count: np.ndarray, negative: np.ndarray, k_ann: int):
    """Apply the residual-sign clauses to simulated spike counts.

    When ``a == 0`` the first half of clause (i), ``v(T) < 0 => phi >= a``,
    holds trivially because ``phi >= 0``, so only ``phi > a => v(T) < 0``
    is tested.
    """
    over = count > k_ann
    if k_ann == 0:
        return ~over | negative, "zero-activation"
    return over == negative, "positive-activation"


def _theorem_instance(weights, counts, timesteps: int, theta: float):
    """Shared validation; returns the tuples ``(weights, counts)`` and ``scale =
    theta * T + sum_i |w_i| * k_i``, a bound on every potential, exact or not."""
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
    scale = theta * timesteps + sum(abs(w) * k for w, k in zip(weights, counts))
    if not math.isfinite(scale):  # NaN or inf * 0 in a term is NaN
        raise ParameterError(f"weights {weights} and theta {theta} must give finite potentials")
    return weights, counts, scale


def _placement_currents(weights, timesteps: int, placements: list) -> np.ndarray:
    """Postsynaptic current of every placement row, shaped ``(T, rows)``."""
    currents = np.zeros((len(placements[0][1]), timesteps))
    for w, (options, rows) in zip(weights, placements):
        train = np.zeros((len(options), timesteps))
        np.put_along_axis(train, options, 1.0, axis=1)
        currents += w * train[rows]
    return currents.T


def _check_placements(weights, counts, scale: float, timesteps: int, theta: float,
                      placements: list) -> TheoremResult:
    """Simulate every placement row with :func:`if_scan` and judge it.

    The spike count comes from the simulation, the residual's sign from
    its exact closed form at that count (see :func:`_closed_form`).  A
    placement also fails if the simulated ``v_final`` strays from that
    closed form by more than rounding, i.e. if the kernel does not conserve
    charge.  The result reports the simulated ``v_final``.

    ``placements`` is laid out as in :class:`TheoremResult`.
    """
    count, v_final = if_scan(_placement_currents(weights, timesteps, placements), theta)
    phi = theta * (count / timesteps)
    residual, k_ann = _closed_form(weights, counts, timesteps, theta)
    a = theta * k_ann / timesteps
    negative = np.array([r < 0 for r in residual])[count]
    # rounding moves v_final by ~1e-16 of scale; a lost or extra reset
    # moves it by theta
    conserved = np.abs(v_final - np.array([float(r) for r in residual])[count]) <= 1e-9 * scale
    passed, clause = _judge(count, negative, k_ann)
    passed &= conserved
    return TheoremResult(weights=weights, counts=counts, timesteps=timesteps, a=a,
                         clause=clause, placements=placements, phi=phi,
                         v_final=v_final, passed=passed)


def verify_theorem1(weights, timesteps: int, counts, theta: float = 1.0) -> TheoremResult:
    """Enumerate all spike-timing placements and check both clauses.

    ``weights`` is the fan-in weight vector (at most 3 presynaptic
    neurons); ``counts`` fixes each presynaptic spike count so that the
    forced-input precondition holds, and every way of placing those spikes
    in ``timesteps`` steps is simulated.  The quantization step count is
    tied to ``timesteps`` and the activation threshold to ``theta``.

    Refuses instances beyond the enumeration caps or float64's range.
    """
    weights, counts, scale = _theorem_instance(weights, counts, timesteps, theta)
    if len(weights) > MAX_PRESYN:
        raise ParameterError(f"need 1..{MAX_PRESYN} presynaptic neurons, got {len(weights)}")
    if timesteps > MAX_ENUM_TIMESTEPS:
        raise ParameterError(
            f"exhaustive enumeration supports 1..{MAX_ENUM_TIMESTEPS} steps, got {timesteps}")

    options = [np.array(list(combinations(range(timesteps), k)), dtype=np.int64)
               .reshape(math.comb(timesteps, k), k) for k in counts]
    grids = np.meshgrid(*[np.arange(len(o)) for o in options], indexing="ij")
    placements = [(o, g.ravel()) for o, g in zip(options, grids)]
    return _check_placements(weights, counts, scale, timesteps, theta, placements)


def sample_theorem1(weights, timesteps: int, counts, draws: int = 10_000,
                    seed: int = 0) -> TheoremResult:
    """Seeded random spike placements for instances beyond the enumeration cap.

    Applies the same clauses and refusals as :func:`verify_theorem1` at
    ``theta = 1``, but draws placements instead of enumerating them, so this
    is a deterministic spot check rather than a proof.  No limit on
    ``timesteps`` or fan-in.
    """
    weights, counts, scale = _theorem_instance(weights, counts, timesteps, 1.0)
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")

    rng = np.random.default_rng(seed)
    placements = []
    for k in counts:
        # the k smallest of iid uniforms form a uniform random k-subset
        order = np.argsort(rng.random((draws, timesteps)), axis=1)[:, :k]
        placements.append((np.sort(order, axis=1), np.arange(draws)))
    return _check_placements(weights, counts, scale, timesteps, 1.0, placements)


def theorem_failures(result: TheoremResult) -> list:
    """Verdicts of the failing placements; no verdict is built for the rest."""
    return [result[i] for i in np.flatnonzero(~result.passed)]


def random_theorem_sweep(draws: int, timesteps_list, seed: int = 0):
    """Random draws of 1..MAX_PRESYN weights in [-2, 2] and spike counts
    in [0, T], each checked exhaustively.

    Returns ``(n_instances, failures)`` aggregated over all draws; used by
    the CLI and the acceptance gate.
    """
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    rng = np.random.default_rng(seed)
    total = 0
    failures = []
    for timesteps in timesteps_list:
        for _ in range(draws):
            n = int(rng.integers(1, MAX_PRESYN + 1))
            weights = rng.uniform(-2.0, 2.0, size=n)
            counts = rng.integers(0, timesteps + 1, size=n)
            result = verify_theorem1(weights, timesteps, counts)
            total += len(result)
            failures.extend(theorem_failures(result))
    return total, failures
