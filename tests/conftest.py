import os

import numpy as np
import pytest

import snnconv as s

# Frozen desk-scale experiment: the 3-hidden-layer MLP on the synthetic
# digit set at these seeds reaches >= 0.90 test accuracy and leaves enough
# timing-error headroom for the masking comparisons.  Do not retune
# casually; the acceptance thresholds were measured against this exact
# configuration.
MLP_TRAIN_N = 1500
MLP_TEST_N = 4000
MLP_NOISE = 0.35
MLP_SEED = 0
MLP_EPOCHS = 10

CNN_TRAIN_N = 1000
CNN_TEST_N = 1000
CNN_SEED = 1
CNN_EPOCHS = 6


def _build_frozen(arch):
    if arch == "mlp":
        train_n, test_n, seed, epochs = MLP_TRAIN_N, MLP_TEST_N, MLP_SEED, MLP_EPOCHS
    else:
        train_n, test_n, seed, epochs = CNN_TRAIN_N, CNN_TEST_N, CNN_SEED, CNN_EPOCHS
    data_tr = s.synthetic_digits(train_n, seed=0, noise=MLP_NOISE)
    data_te = s.synthetic_digits(test_n, seed=1, noise=MLP_NOISE)
    stats = s.standardization_stats(data_tr.images)
    if arch == "mlp":
        net = s.mlp_preset(4, hidden=(256, 128, 64))
    else:
        net = s.cnn_preset(4)
    net.normalization = stats
    s.init_network(net, seed)
    xtr = s.prepare_inputs(s.standardize(data_tr.images, stats), net.input_shape)
    xte = s.prepare_inputs(s.standardize(data_te.images, stats), net.input_shape)
    s.train(net, xtr, data_tr.labels, s.TrainConfig(epochs=epochs), seed=seed)
    return {
        "net": net,
        "snn": s.convert(net),
        "x_train": xtr,
        "y_train": data_tr.labels,
        "x_test": xte,
        "y_test": data_te.labels,
    }


@pytest.fixture(scope="session")
def frozen_mlp():
    return _build_frozen("mlp")


@pytest.fixture(scope="session")
def frozen_cnn():
    return _build_frozen("cnn")


@pytest.fixture(scope="session")
def tiny_trained():
    """Fast small trained model for integration tests that just need one."""
    data = s.synthetic_digits(300, seed=0, noise=0.2)
    stats = s.standardization_stats(data.images)
    net = s.mlp_preset(4, hidden=(32, 16))
    net.normalization = stats
    s.init_network(net, 0)
    x = s.prepare_inputs(s.standardize(data.images, stats), net.input_shape)
    s.train(net, x, data.labels, s.TrainConfig(epochs=3), seed=0)
    return {"net": net, "snn": s.convert(net), "x": x, "y": data.labels}


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` lets ``forked_map`` see ``n`` CPUs; returns the list that
    gains an entry per process forked from then on."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks

    monkeypatch.setattr(os, "fork", counted_fork)
    return set_cpus
