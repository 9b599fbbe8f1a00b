"""Every count, number and threshold of the public API follows one rule.

A count (T, tau, L, a spike or sample count, draws, epochs, batch size, a
seed, a stride, pool or padding, an input size, a preset's layer width) is
an ``int`` or a numpy integer no smaller than its least value: ``1.5``,
``2.0``, NaN, inf, ``"2"`` and ``True`` are refused, as by ``range``.  A number (momentum, weight decay,
noise, a theorem weight, the normalization mean) is finite, and a threshold
(theta, lam, the learning rate, the normalization std) is also above zero;
``True`` is neither.  A bad value raises :class:`ParameterError`, never a
raw error or a numpy warning, and a layer or network whose shapes do not fit
raises :class:`ShapeError` when it is built.

A batch of samples (``x`` or ``images``) is numbers, has at least one sample,
is finite and has the network's input size, in any layout; labels are one
integer per sample in ``[0, classes)``.  A bad batch raises
:class:`DataValidationError`, or :class:`ShapeError` for another sample size,
and bad labels :class:`ParameterError`.

The tables below hold one row per public callable and parameter.  As in
``test_defaults``, no linter runs on this repository, so
:func:`test_every_count_and_threshold_has_a_row` and
:func:`test_every_batch_has_a_row` are the check that a new function in
``snnconv.__all__`` with such a parameter gets a row.
"""

import copy
import inspect
import warnings

import numpy as np
import pytest

import snnconv
from snnconv import (
    LayerParams,
    NetworkSpec,
    TrainConfig,
    accuracy,
    ann_forward,
    classify_cases,
    cnn_preset,
    constant_current_phi,
    convert,
    error_type_I_distribution,
    error_type_II_distribution,
    even_timing_phi,
    init_network,
    mlp_preset,
    prepare_inputs,
    qcfs,
    qcfs_backward,
    random_theorem_sweep,
    snn_forced_phi,
    snn_simulate,
    srp_effect_report,
    srp_inference,
    standardization_stats,
    standardize,
    synthetic_digits,
    train,
    verify_theorem1,
)
from snnconv.errors import DataValidationError, ParameterError, ShapeError

COUNT_NAMES = {"timesteps", "tau", "steps", "quant_steps", "draws", "n", "seed"}
THRESHOLD_NAMES = {"theta", "lam"}
# the per-step kernel: its callers check theta once per run
EXEMPT = {"if_step"}

NET = init_network(mlp_preset(2, hidden=(3,), in_features=2), seed=0)
SNN = convert(NET)
X = np.zeros((2, 2))
ZEROS = [np.zeros((2, 3), np.uint8)]  # spike counts of SNN's one IF stage
Y = np.array([0.3, 0.7])
W1 = np.ones((1, 1, 1, 1))  # a 1x1 convolution fits every image size

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
    (mlp_preset, "hidden", 1, lambda v: mlp_preset(2, hidden=(3, v), in_features=2)),
    (mlp_preset, "in_features", 1, lambda v: mlp_preset(2, hidden=(3,), in_features=v)),
    (mlp_preset, "classes", 1, lambda v: mlp_preset(2, hidden=(3,), in_features=2, classes=v)),
    (cnn_preset, "channels", 1, lambda v: cnn_preset(2, channels=(2, v), hidden=2)),
    (cnn_preset, "hidden", 1, lambda v: cnn_preset(2, channels=(2, 2), hidden=v)),
    (NetworkSpec, "quant_steps", 1, lambda v: NetworkSpec(NET.layers, v, NET.input_shape)),
    (NetworkSpec, "input_shape", 1,
     lambda v: NetworkSpec([LayerParams("conv2d", W1)], 2, (1, v, v))),
    (LayerParams, "stride", 1, lambda v: LayerParams("conv2d", W1, stride=v)),
    (LayerParams, "padding", 0, lambda v: LayerParams("conv2d", W1, padding=v)),
    (LayerParams, "pool", 1, lambda v: LayerParams("avgpool2d", pool=v)),
    (synthetic_digits, "seed", 0, lambda v: synthetic_digits(1, seed=v)),
    (synthetic_digits, "max_shift", 0, lambda v: synthetic_digits(1, max_shift=v)),
    (init_network, "seed", 0,
     lambda v: init_network(mlp_preset(2, hidden=(3,), in_features=2), v)),
    (train, "seed", 0, lambda v: train(NET, X, [0, 1], TrainConfig(epochs=0), seed=v)),
    (random_theorem_sweep, "seed", 0, lambda v: random_theorem_sweep(1, (2,), seed=v)),
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
    (NetworkSpec, "normalization std",
     lambda v: NetworkSpec(NET.layers, 2, NET.input_shape, (0.0, v))),
]

# (callable, parameter, call with that parameter set to the value)
NUMBERS = [
    (TrainConfig, "momentum", lambda v: TrainConfig(momentum=v)),
    (TrainConfig, "weight_decay", lambda v: TrainConfig(weight_decay=v)),
    (synthetic_digits, "noise", lambda v: synthetic_digits(1, noise=v)),
    (verify_theorem1, "weights", lambda v: verify_theorem1([0.5, v], 2, [1, 1])),
    (NetworkSpec, "normalization mean",
     lambda v: NetworkSpec(NET.layers, 2, NET.input_shape, (v, 1.0))),
]

BAD_COUNTS = [1.5, 2.0, float("nan"), float("inf"), "2", True]
BAD_THRESHOLDS = [0.0, -1.0, float("nan"), float("inf"), True]
BAD_NUMBERS = [float("nan"), float("inf"), -float("inf"), 10**400, "0.5", True]

# (what is malformed, ShapeError or ParameterError, the build that must refuse it)
STRUCTURES = [
    ("dense-weights-rank-1", ShapeError, lambda: LayerParams("dense", np.ones(2))),
    ("dense-weights-rank-3", ShapeError, lambda: LayerParams("dense", np.ones((2, 2, 1)))),
    ("conv-weights-rank-2", ShapeError, lambda: LayerParams("conv2d", np.ones((2, 2)))),
    ("weights-empty-axis", ShapeError, lambda: LayerParams("dense", np.ones((0, 2)))),
    ("bias-length", ShapeError,
     lambda: LayerParams("dense", np.ones((2, 2)), bias=np.ones(5))),
    ("bias-rank", ShapeError,
     lambda: LayerParams("dense", np.ones((2, 2)), bias=np.ones((2, 1)))),
    ("input-shape-not-a-sequence", ShapeError, lambda: NetworkSpec(NET.layers, 2, 2)),
    ("input-shape-negative", ParameterError, lambda: NetworkSpec(NET.layers, 2, (-3,))),
    ("chain-mismatch", ShapeError, lambda: NetworkSpec(NET.layers, 2, (3,))),
    ("normalization-scalar", ParameterError,
     lambda: NetworkSpec(NET.layers, 2, NET.input_shape, 0.5)),
    ("normalization-triple", ParameterError,
     lambda: NetworkSpec(NET.layers, 2, NET.input_shape, (0.0, 1.0, 2.0))),
    ("max-shift-off-canvas", ParameterError, lambda: synthetic_digits(1, max_shift=4)),
]


def _id(row) -> str:
    return f"{row[0].__name__}-{row[1]}"


def _refused(call, value, error=ParameterError) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
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


@pytest.mark.parametrize("value", BAD_NUMBERS, ids=repr)
@pytest.mark.parametrize("row", NUMBERS, ids=_id)
def test_number_refused(row, value):
    _refused(row[2], value)


@pytest.mark.parametrize("row", NUMBERS, ids=_id)
def test_finite_number_accepted(row):
    row[2](0.5)
    row[2](np.float32(0.25))


@pytest.mark.parametrize("row", STRUCTURES, ids=[row[0] for row in STRUCTURES])
def test_malformed_structure_refused_when_built(row):
    _, error, build = row
    with pytest.raises(error):
        build()


def test_largest_shift_keeps_the_glyph_on_the_canvas():
    assert len(synthetic_digits(4, max_shift=3)) == 4


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


# ---------------------------------------------------------------------------
# batches of samples and labels


class Model:
    """A network, its conversion and the spike counts of a run on two zero samples."""

    def __init__(self, net):
        self.net, self.snn = net, convert(net)
        self.counts = snn_simulate(self.snn, np.zeros((2, *net.input_shape)), 1).counts
        self.classes = net.output_shape[0]


MLP = Model(NET)  # samples of 2 values, 10 classes
# a 1x1 convolution of a 1x2x2 image, then a dense classifier: a flat batch has 4 columns
CNN = Model(NetworkSpec([LayerParams("conv2d", np.ones((2, 1, 1, 1)), lam=1.0),
                         LayerParams("flatten"), LayerParams("dense", np.ones((2, 8)))],
                        2, (1, 2, 2)))
# the classifier is a convolution and a flatten: 4 classes, one per output value
CONV_HEAD = Model(NetworkSpec([LayerParams("conv2d", np.ones((2, 1, 1, 1))),
                               LayerParams("flatten")], 2, (1, 2, 1)))
BATCH_NAMES = {"x", "images", "labels"}


def _train(model, x, y):
    # on a copy, so that the shared networks stay as built
    return train(copy.deepcopy(model.net), x, y, TrainConfig(epochs=1))


# (callable, parameter, call on a Model and a batch); the last two take samples of any shape
SAMPLES = [
    (snn_simulate, "x", lambda m, v: snn_simulate(m.snn, v, 1)),
    (srp_inference, "x", lambda m, v: srp_inference(m.snn, v, 1, 1)),
    (snn_forced_phi, "x", lambda m, v: snn_forced_phi(m.snn, v, 1)),
    (error_type_I_distribution, "x",
     lambda m, v: error_type_I_distribution(m.snn, v, m.counts, 1)),
    (error_type_II_distribution, "x",
     lambda m, v: error_type_II_distribution(m.snn, v, m.counts, 1)),
    (srp_effect_report, "x", lambda m, v: srp_effect_report(m.snn, v, m.counts, m.counts, 1)),
    (ann_forward, "x", lambda m, v: ann_forward(m.net, v)),
    (accuracy, "images", lambda m, v: accuracy(m.net, v, [0, 1])),
    (train, "images", lambda m, v: _train(m, v, [0, 1])),
    (prepare_inputs, "images", lambda m, v: prepare_inputs(v, m.net.input_shape)),
    (standardization_stats, "images", lambda m, v: standardization_stats(v)),
    (standardize, "images", lambda m, v: standardize(v, (0.5, 2.0))),
]
ANY_SHAPE = {standardization_stats, standardize}

# (callable, parameter, call on a Model and two samples' labels)
LABELS = [
    (accuracy, "labels", lambda m, v: accuracy(m.net, np.zeros((2, *m.net.input_shape)), v)),
    (train, "labels", lambda m, v: _train(m, np.zeros((2, *m.net.input_shape)), v)),
]

# for MLP's samples of 2 values: (error, bad batch)
BAD_SAMPLES = {
    "no-samples": (DataValidationError, np.zeros((0, 2))),
    "nan": (DataValidationError, [[0.0, np.nan], [0.0, 0.0]]),
    "inf": (DataValidationError, [[0.0, np.inf], [0.0, 0.0]]),
    "-inf": (DataValidationError, [[0.0, 0.0], [-np.inf, 0.0]]),
    "str": (DataValidationError, np.full((2, 2), "0.5")),
    "bool": (DataValidationError, np.zeros((2, 2), bool)),
    "object": (DataValidationError, [[0.0, 10**400], [0.0, 0.0]]),
    "ragged": (ShapeError, [[0.0, 0.0], [0.0]]),
    "scalar": (ShapeError, 0.5),
    "other-size": (ShapeError, np.zeros((2, 3))),
}
# bad labels for two samples, from the network's class count
BAD_LABELS = {
    "one-too-few": lambda c: [0],
    "one-too-many": lambda c: [0, 1, 0],
    "empty": lambda c: np.zeros(0, np.int64),
    "column": lambda c: [[0], [1]],
    "ragged": lambda c: [[0], [1, 0]],
    "floats": lambda c: [0.0, 1.0],
    "strs": lambda c: ["0", "1"],
    "bools": lambda c: [False, True],
    "negative": lambda c: [-1, 0],
    "output-width": lambda c: [0, c],
}
# (id, model, a batch to accept)
GOOD_SAMPLES = [
    ("list-of-lists", MLP, [[0.25, 0.5], [0.75, 1.0]]),
    ("float32", MLP, np.ones((2, 2), np.float32)),
    ("int", MLP, np.ones((2, 2), np.int64)),
    ("flat-cnn", CNN, np.ones((2, 4))),
    ("nchw-cnn", CNN, np.ones((2, 1, 2, 2))),
]


@pytest.mark.parametrize("row,bad", [
    pytest.param(row, bad, id=f"{_id(row)}-{bad}") for row in SAMPLES for bad in BAD_SAMPLES
    if bad not in ("other-size", "scalar") or row[0] not in ANY_SHAPE])
def test_bad_batch_refused(row, bad):
    error, value = BAD_SAMPLES[bad]
    _refused(lambda v: row[2](MLP, v), value, error)


@pytest.mark.parametrize("row,good", [
    pytest.param(row, good, id=f"{_id(row)}-{good[0]}")
    for row in SAMPLES for good in GOOD_SAMPLES])
def test_batch_accepted(row, good):
    _, model, value = good
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row[2](model, value)


@pytest.mark.parametrize("model", [MLP, CONV_HEAD], ids=["dense-head", "conv-flatten-head"])
@pytest.mark.parametrize("bad", BAD_LABELS)
@pytest.mark.parametrize("row", LABELS, ids=_id)
def test_bad_labels_refused(row, bad, model):
    _refused(lambda v: row[2](model, v), BAD_LABELS[bad](model.classes))


@pytest.mark.parametrize("model", [MLP, CONV_HEAD], ids=["dense-head", "conv-flatten-head"])
@pytest.mark.parametrize("row", LABELS, ids=_id)
def test_labels_accepted(row, model):
    top = model.classes - 1
    for labels in ([0, top], np.array([top, 0], np.uint8), np.array([1, 0], np.int32)):
        row[2](model, labels)


def test_batch_becomes_float64_samples_of_the_declared_shape():
    x = prepare_inputs(np.arange(8, dtype=np.float32).reshape(2, 4), CNN.net.input_shape)
    assert x.dtype == np.float64 and x.shape == (2, 1, 2, 2)
    assert x.ravel().tolist() == list(range(8))
    assert standardize([[1.0]], (0.5, 2.0)).tolist() == [[0.25]]


def test_every_batch_has_a_row():
    rows = {(f.__name__, name) for f, name, _ in SAMPLES + LABELS}
    missing = []
    for name in snnconv.__all__:
        function = getattr(snnconv, name)
        if inspect.isfunction(function):
            missing += [(name, param) for param in inspect.signature(function).parameters
                        if param in BATCH_NAMES and (name, param) not in rows]
    assert missing == []
