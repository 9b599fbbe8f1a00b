import math

import numpy as np
import pytest

from snnconv import training
from snnconv.errors import (
    DataValidationError, ParameterError, ShapeError, TrainingDivergenceError,
)
from snnconv.network import LayerParams, NetworkSpec, ann_forward, mlp_preset
from snnconv.training import (
    LAM_FLOOR,
    TrainConfig,
    accuracy,
    cosine_lr,
    init_network,
    network_backward,
    prepare_inputs,
    sgd_step,
    softmax_cross_entropy,
    train,
)

from helpers import (
    dense, random_dense_net, reference_layer_backward, reference_qcfs_backward, same_bits,
)


def reference_network_backward(net, grad_logits, record):
    """``network_backward`` as first written: every layer's input gradient,
    layer 0's included, and the quantized outputs recomputed."""
    grads = {}
    grad = grad_logits
    pre = reversed(record.pre)
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        if layer.has_activation:
            grad, grads[i, "lam"] = reference_qcfs_backward(next(pre), layer.lam,
                                                            net.quant_steps, grad)
        grad, grad_w, grad_b = reference_layer_backward(layer, record.inputs[i], grad)
        if grad_w is not None:
            grads[i, "weights"] = grad_w
        if grad_b is not None:
            grads[i, "bias"] = grad_b
    return grads


def small_cnn(rng) -> NetworkSpec:
    """conv, pool, strided conv, pool, flatten, dense, dense on 2x12x12."""
    def conv(shape, **kw):
        return LayerParams("conv2d", rng.normal(0.0, 0.5, shape), rng.normal(0.0, 0.2, shape[0]),
                           **kw)
    layers = [
        conv((4, 2, 3, 3), lam=1.0, padding=1),
        LayerParams("avgpool2d", pool=2),
        conv((5, 4, 3, 3), lam=1.5, stride=2, padding=1),
        LayerParams("avgpool2d", pool=3),
        LayerParams("flatten"),
        dense(rng.normal(0.0, 0.5, (6, 5)), rng.normal(0.0, 0.2, 6), lam=0.8),
        dense(rng.normal(0.0, 0.5, (3, 6)), rng.normal(0.0, 0.2, 3)),
    ]
    return NetworkSpec(layers, 4, (2, 12, 12))


class TestCosineSchedule:
    def test_start_is_base_rate(self):
        cfg = TrainConfig(learning_rate=0.1, epochs=10)
        assert cosine_lr(cfg, 0) == 0.1

    def test_halfway_is_half(self):
        cfg = TrainConfig(learning_rate=0.2, epochs=10)
        assert cosine_lr(cfg, 5) == pytest.approx(0.1, abs=1e-15)

    def test_end_reaches_zero(self):
        cfg = TrainConfig(learning_rate=0.1, epochs=8)
        assert cosine_lr(cfg, 8) == pytest.approx(0.0, abs=1e-15)

    def test_monotone_decreasing(self):
        cfg = TrainConfig(learning_rate=0.1, epochs=20)
        rates = [cosine_lr(cfg, e) for e in range(21)]
        assert all(a > b for a, b in zip(rates, rates[1:]))


class TestSgdStep:
    def cfg(self, **kw):
        base = dict(learning_rate=0.1, momentum=0.0, weight_decay=0.0, epochs=10)
        base.update(kw)
        return TrainConfig(**base)

    def net(self):
        """Two dense layers, the first with a threshold."""
        layers = [dense(np.ones((2, 2)), np.ones(2), lam=1.0), dense(np.zeros((1, 2)))]
        return NetworkSpec(layers=layers, quant_steps=4, input_shape=(2,))

    def test_missing_grad_leaves_param(self):
        net = self.net()
        sgd_step(net, {(0, "bias"): np.zeros(2)}, {}, self.cfg(), 0)
        assert np.all(net.layers[0].bias == 1.0)
        assert np.all(net.layers[0].weights == 1.0)
        assert np.all(net.layers[1].weights == 0.0)

    def test_single_step(self):
        net = self.net()
        sgd_step(net, {(1, "weights"): np.ones((1, 2))}, {}, self.cfg(), 0)
        assert net.layers[1].weights == pytest.approx(np.full((1, 2), -0.1))

    def test_momentum_accumulates(self):
        cfg = self.cfg(learning_rate=1.0, momentum=0.5)
        net = self.net()
        vel = {}
        sgd_step(net, {(1, "weights"): np.ones((1, 2))}, vel, cfg, 0)
        assert np.all(net.layers[1].weights == -1.0)
        sgd_step(net, {(1, "weights"): np.ones((1, 2))}, vel, cfg, 0)
        # velocity 0.5*1 + 1 = 1.5, so total displacement 2.5
        assert np.all(net.layers[1].weights == -2.5)

    def test_decay_hits_weights_only(self):
        cfg = self.cfg(weight_decay=0.1)
        net = self.net()
        grads = {(0, "weights"): np.zeros((2, 2)), (0, "bias"): np.zeros(2),
                 (0, "lam"): np.float64(0.0)}
        sgd_step(net, grads, {}, cfg, 0)
        layer = net.layers[0]
        assert np.allclose(layer.weights, 1.0 - 0.1 * 0.1)
        assert np.all(layer.bias == 1.0)
        assert layer.lam == 1.0


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(learning_rate=0.0),
        dict(learning_rate=-0.5),
        dict(momentum=-0.1),
        dict(momentum=1.0),
        dict(weight_decay=-1e-4),
        dict(epochs=-1),
        dict(batch_size=0),
    ])
    def test_rejects(self, kw):
        with pytest.raises(ParameterError):
            TrainConfig(**kw)

    def test_edge_values_allowed(self):
        TrainConfig(momentum=0.0, weight_decay=0.0, epochs=0, batch_size=1)


class TestLossOracle:
    def test_uniform_logits(self):
        logits = np.zeros((4, 3))
        labels = np.array([0, 1, 2, 0])
        loss, grad = softmax_cross_entropy(logits, labels)
        assert loss == pytest.approx(math.log(3), abs=1e-9)
        # uniform probs 1/3, minus one-hot, averaged over the batch
        assert grad[0, 0] == pytest.approx((1 / 3 - 1) / 4)
        assert grad[0, 1] == pytest.approx((1 / 3) / 4)

    def test_grad_rows_sum_to_zero(self, rng):
        logits = rng.normal(size=(6, 5))
        labels = rng.integers(0, 5, 6)
        _, grad = softmax_cross_entropy(logits, labels)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_grad_matches_finite_difference(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        _, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for idx in np.ndindex(logits.shape):
            orig = logits[idx]
            logits[idx] = orig + eps
            hi, _ = softmax_cross_entropy(logits, labels)
            logits[idx] = orig - eps
            lo, _ = softmax_cross_entropy(logits, labels)
            logits[idx] = orig
            assert grad[idx] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)


class TestInit:
    def test_deterministic(self):
        a = init_network(mlp_preset(4), seed=7)
        b = init_network(mlp_preset(4), seed=7)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_seed_changes_weights(self):
        a = init_network(mlp_preset(4), seed=7)
        b = init_network(mlp_preset(4), seed=8)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_bias_zero_and_default_threshold(self):
        net = init_network(mlp_preset(4), seed=0)
        assert all(np.all(l.bias == 0.0) for l in net.layers)
        assert net.thresholds == [2.0, 2.0]  # 8 / quant_steps


class TestTrainLoop:
    def test_zero_epochs_untouched(self, rng):
        net = init_network(random_dense_net(rng, 4, sizes=[5, 6, 3]), seed=0)
        before = [l.weights.copy() for l in net.layers]
        lams = list(net.thresholds)
        x = rng.uniform(0, 1, (16, 5))
        y = rng.integers(0, 3, 16)
        history = train(net, x, y, TrainConfig(epochs=0), seed=0)
        assert history.loss == []
        for w, l in zip(before, net.layers):
            assert np.array_equal(w, l.weights)
        assert net.thresholds == lams

    def test_threshold_floor(self, rng):
        net = init_network(random_dense_net(rng, 4, sizes=[4, 5, 2]), seed=0)
        cfg = TrainConfig(learning_rate=1.0, momentum=0.0, weight_decay=0.0, epochs=1)
        sgd_step(net, {(0, "lam"): 100.0}, {}, cfg, 0)
        assert net.layers[0].lam == LAM_FLOOR

    def test_labels_out_of_range(self, rng):
        net = init_network(random_dense_net(rng, 4, sizes=[4, 5, 3]), seed=0)
        x = rng.uniform(0, 1, (8, 4))
        with pytest.raises(ParameterError):
            train(net, x, np.array([0, 1, 2, 3, 0, 1, 2, 0]), TrainConfig(epochs=1))

    def test_divergence_aborts_with_diagnostic(self, rng):
        net = init_network(random_dense_net(rng, 4, sizes=[6, 8, 3]), seed=0)
        x = rng.uniform(0, 1, (64, 6))
        y = rng.integers(0, 3, 64)
        # lr * decay > 1 makes the weight norm grow geometrically
        cfg = TrainConfig(learning_rate=1e4, momentum=0.9, weight_decay=1e4,
                          epochs=40, batch_size=16)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergenceError, match="epoch"):
                train(net, x, y, cfg, seed=0)

    def test_no_samples(self, rng):
        net = init_network(random_dense_net(rng, 4, sizes=[6, 8, 3]), seed=0)
        with pytest.raises(DataValidationError, match="no samples"):
            train(net, np.zeros((0, 6)), np.zeros(0, dtype=np.int64), TrainConfig(), seed=0)

    def test_same_seed_bitwise_same(self, rng):
        x = rng.uniform(0, 1, (48, 5))
        y = rng.integers(0, 3, 48)

        def run(train_seed):
            net = init_network(random_dense_net(np.random.default_rng(3), 4,
                                                sizes=[5, 7, 3]), seed=1)
            train(net, x, y, TrainConfig(epochs=3, batch_size=16), seed=train_seed)
            return net

        a, b, c = run(0), run(0), run(1)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert la.lam == lb.lam
        assert any(not np.array_equal(la.weights, lc.weights)
                   for la, lc in zip(a.layers, c.layers))

    def test_separable_two_class(self):
        rng = np.random.default_rng(5)
        n = 200
        centers = np.array([[0.2, 0.8], [0.8, 0.2]])
        y = rng.integers(0, 2, n)
        x = centers[y] + rng.normal(0, 0.08, (n, 2))
        net = init_network(random_dense_net(np.random.default_rng(5), 4,
                                            sizes=[2, 8, 2]), seed=5)
        history = train(net, x, y, TrainConfig(epochs=20, batch_size=32), seed=5)
        assert accuracy(net, x, y) >= 0.99
        assert history.loss[-1] < history.loss[0]


class TestBackwardBits:
    """The training backward gives the first-written backward's gradients,
    key for key and bit for bit, and so the same trained parameters."""

    @pytest.mark.parametrize("build,shape", [
        (lambda rng: random_dense_net(rng, 4, sizes=[6, 9, 7, 3]), (6,)),
        (small_cnn, (2, 12, 12)),
    ])
    def test_grads_match_reference(self, build, shape):
        rng = np.random.default_rng(4)
        net = build(rng)
        x = rng.normal(size=(16, *shape))
        logits, record = ann_forward(net, x)
        _, grad_logits = softmax_cross_entropy(logits, rng.integers(0, 3, 16))
        got = network_backward(net, grad_logits, record)
        want = reference_network_backward(net, grad_logits, record)
        assert list(got) == list(want)
        assert all(same_bits(got[key], want[key]) for key in want)

    def test_trained_parameters_match_reference(self, monkeypatch):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(40, 2, 12, 12)), rng.integers(0, 3, 40)
        nets = []
        for backward in (network_backward, reference_network_backward):
            monkeypatch.setattr(training, "network_backward", backward)
            net = small_cnn(np.random.default_rng(6))
            train(net, x, y, TrainConfig(epochs=2, batch_size=16), seed=0)
            nets.append(net)
        for a, b in zip(*(net.layers for net in nets)):
            assert all(same_bits(getattr(a, k), getattr(b, k)) for k in ("weights", "bias", "lam"))


class TestHelpers:
    def test_prepare_inputs_reshapes(self):
        flat = np.zeros((3, 784))
        out = prepare_inputs(flat, (1, 28, 28))
        assert out.shape == (3, 1, 28, 28)

    def test_prepare_inputs_passthrough(self):
        img = np.zeros((3, 1, 28, 28))
        assert prepare_inputs(img, (1, 28, 28)) is img

    def test_prepare_inputs_mismatch(self):
        with pytest.raises(ShapeError):
            prepare_inputs(np.zeros((3, 10)), (1, 28, 28))

    def test_accuracy_identity_readout(self):
        net = NetworkSpec([dense(np.eye(3))], quant_steps=4, input_shape=(3,))
        x = np.array([[0.9, 0.1, 0.0], [0.0, 0.2, 0.7], [0.1, 0.8, 0.3]])
        assert accuracy(net, x, np.array([0, 2, 1])) == 1.0
        assert accuracy(net, x, np.array([1, 0, 2])) == 0.0


class TestFrozenModels:
    def test_mlp_reaches_target(self, frozen_mlp):
        acc = accuracy(frozen_mlp["net"], frozen_mlp["x_test"], frozen_mlp["y_test"])
        assert acc >= 0.95

    def test_cnn_reaches_target(self, frozen_cnn):
        acc = accuracy(frozen_cnn["net"], frozen_cnn["x_test"], frozen_cnn["y_test"])
        assert acc >= 0.90

    @pytest.mark.parametrize("fixture", ["frozen_mlp", "frozen_cnn"])
    def test_accuracy_batch_invariance(self, request, monkeypatch, fixture):
        # The logits accuracy counts give a sample the same bits alone,
        # inside an odd slice and in the full set.
        frozen = request.getfixturevalue(fixture)
        net, x, y = frozen["net"], frozen["x_test"], frozen["y_test"]
        calls = []

        def spy(net, block):
            logits, record = ann_forward(net, block)
            calls.append(logits)
            return logits, record

        monkeypatch.setattr(training, "ann_forward", spy)

        def logits_of(rows):
            calls.clear()
            acc = accuracy(net, x[rows], y[rows])
            logits = np.concatenate(calls)[:len(y[rows])]
            assert acc == np.mean(np.argmax(logits, axis=1) == y[rows])
            return logits

        full = logits_of(slice(None))
        for rows in (slice(0, 1), slice(5, 42)):
            assert np.array_equal(logits_of(rows), full[rows])
