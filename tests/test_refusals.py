"""Every step count and threshold of the public API follows one rule.

A count (T, tau, L, a spike or sample count, draws, epochs, batch size) is an
``int`` or a numpy integer no smaller than its least value: ``1.5``, ``2.0``,
NaN, inf and ``"2"`` are refused, as by ``range``.  A threshold (theta, lam)
and the learning rate are finite and above zero.  A bad value raises
:class:`ParameterError`, never a raw error or a numpy warning.

The tables below hold one row per public callable and parameter.  As in
``test_defaults``, no linter runs on this repository, so
:func:`test_every_count_and_threshold_has_a_row` is the check that a new
function in ``snnconv.__all__`` with such a parameter gets a row.
"""

import inspect
import warnings

import numpy as np
import pytest

import snnconv
from snnconv import (
    LayerParams,
    NetworkSpec,
    TrainConfig,
    classify_cases,
    cnn_preset,
    constant_current_phi,
    convert,
    error_type_I_distribution,
    error_type_II_distribution,
    even_timing_phi,
    init_network,
    mlp_preset,
    qcfs,
    qcfs_backward,
    random_theorem_sweep,
    snn_forced_phi,
    snn_simulate,
    srp_effect_report,
    srp_inference,
    synthetic_digits,
    verify_theorem1,
)
from snnconv.errors import ParameterError

COUNT_NAMES = {"timesteps", "tau", "steps", "quant_steps", "draws", "n"}
THRESHOLD_NAMES = {"theta", "lam"}
# the per-step kernel: its callers check theta once per run
EXEMPT = {"if_step"}

NET = init_network(mlp_preset(2, hidden=(3,), in_features=2), seed=0)
SNN = convert(NET)
X = np.zeros((2, 2))
ZEROS = [np.zeros((2, 3), np.uint8)]  # spike counts of SNN's one IF stage
Y = np.array([0.3, 0.7])

# (callable, parameter, least, call with that parameter set to the value)
COUNTS = [
    (qcfs, "steps", 1, lambda v: qcfs(Y, 1.0, v)),
    (qcfs_backward, "steps", 1, lambda v: qcfs_backward(Y, 1.0, v, Y)),
    (classify_cases, "timesteps", 1, lambda v: classify_cases(ZEROS[0], ZEROS[0], v, 2)),
    (classify_cases, "steps", 1, lambda v: classify_cases(ZEROS[0], ZEROS[0], 2, v)),
    (error_type_I_distribution, "timesteps", 1,
     lambda v: error_type_I_distribution(SNN, X, ZEROS, v)),
    (error_type_II_distribution, "timesteps", 1,
     lambda v: error_type_II_distribution(SNN, X, ZEROS, v)),
    (srp_effect_report, "timesteps", 1, lambda v: srp_effect_report(SNN, X, ZEROS, ZEROS, v)),
    (random_theorem_sweep, "draws", 1, lambda v: random_theorem_sweep(v, (2,))),
    (random_theorem_sweep, "timesteps_list", 1, lambda v: random_theorem_sweep(1, (2, v))),
    (verify_theorem1, "timesteps", 1, lambda v: verify_theorem1([0.5], v, [0])),
    (verify_theorem1, "counts", 0, lambda v: verify_theorem1([0.5, 0.5], 4, [1, v])),
    (synthetic_digits, "n", 0, lambda v: synthetic_digits(v)),
    (constant_current_phi, "timesteps", 1, lambda v: constant_current_phi(Y, 1.0, v)),
    (even_timing_phi, "timesteps", 1, lambda v: even_timing_phi(Y, 1.0, v, 0.5)),
    (snn_forced_phi, "timesteps", 1, lambda v: snn_forced_phi(SNN, X, v)),
    (snn_simulate, "timesteps", 1, lambda v: snn_simulate(SNN, X, v)),
    (srp_inference, "tau", 1, lambda v: srp_inference(SNN, X, v, 2)),
    (srp_inference, "timesteps", 1, lambda v: srp_inference(SNN, X, 2, v)),
    (mlp_preset, "quant_steps", 1, lambda v: mlp_preset(v)),
    (cnn_preset, "quant_steps", 1, lambda v: cnn_preset(v)),
    (NetworkSpec, "quant_steps", 1, lambda v: NetworkSpec(NET.layers, v, NET.input_shape)),
    (TrainConfig, "epochs", 0, lambda v: TrainConfig(epochs=v)),
    (TrainConfig, "batch_size", 1, lambda v: TrainConfig(batch_size=v)),
]

THRESHOLDS = [
    (qcfs, "lam", lambda v: qcfs(Y, v, 2)),
    (qcfs_backward, "lam", lambda v: qcfs_backward(Y, v, 2, Y)),
    (verify_theorem1, "theta", lambda v: verify_theorem1([0.5], 2, [1], theta=v)),
    (constant_current_phi, "theta", lambda v: constant_current_phi(Y, v, 2)),
    (even_timing_phi, "theta", lambda v: even_timing_phi(Y, v, 2, 0.5)),
    (LayerParams, "lam", lambda v: LayerParams("dense", np.ones((2, 2)), lam=v)),
    (TrainConfig, "learning_rate", lambda v: TrainConfig(learning_rate=v)),
]

BAD_COUNTS = [1.5, 2.0, float("nan"), float("inf"), "2"]
BAD_THRESHOLDS = [0.0, -1.0, float("nan"), float("inf")]


def _id(row) -> str:
    return f"{row[0].__name__}-{row[1]}"


def _refused(call, value) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            call(value)


@pytest.mark.parametrize("value", BAD_COUNTS + ["below"], ids=repr)
@pytest.mark.parametrize("row", COUNTS, ids=_id)
def test_count_refused(row, value):
    _, _, least, call = row
    _refused(call, least - 1 if value == "below" else value)


@pytest.mark.parametrize("row", COUNTS, ids=_id)
def test_least_count_and_numpy_integer_accepted(row):
    _, _, least, call = row
    call(least)
    call(np.int64(least + 1))


@pytest.mark.parametrize("value", BAD_THRESHOLDS, ids=repr)
@pytest.mark.parametrize("row", THRESHOLDS, ids=_id)
def test_threshold_refused(row, value):
    _refused(row[2], value)


@pytest.mark.parametrize("row", THRESHOLDS, ids=_id)
def test_finite_threshold_accepted(row):
    row[2](0.75)


def test_every_count_and_threshold_has_a_row():
    rows = {(f.__name__, name) for f, name, *_ in COUNTS + THRESHOLDS}
    missing = []
    for name in snnconv.__all__:
        function = getattr(snnconv, name)
        if not inspect.isfunction(function) or name in EXEMPT:
            continue
        missing += [(name, param) for param in inspect.signature(function).parameters
                    if param in COUNT_NAMES | THRESHOLD_NAMES and (name, param) not in rows]
    assert missing == []
