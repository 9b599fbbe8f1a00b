import numpy as np
import pytest

from snnconv.errors import ParameterError, ShapeError
from snnconv.network import (
    LayerParams,
    NetworkSpec,
    _im2col,
    ann_forward,
    avgpool2d_forward,
    cnn_preset,
    conv2d_forward,
    dense_forward,
    layer_backward,
    layer_forward,
    layer_output_shape,
    mlp_preset,
)

from helpers import dense, reference_layer_backward, same_bits


def naive_conv2d(weights, bias, x, stride, padding):
    """Reference cross-correlation, plain loops."""
    oc, ic, kh, kw = weights.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for img in range(n):
        for o in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = x[img, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[img, o, i, j] = np.sum(patch * weights[o]) + bias[o]
    return out


class TestPrimitives:
    def test_dense_identity(self):
        layer = dense([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(dense_forward(layer, np.array([[3.0, 4.0]])), [[3.0, 4.0]])

    def test_avgpool_mean(self):
        layer = LayerParams("avgpool2d", pool=2)
        x = np.array([[[[1.0, 1.0], [3.0, 3.0]]]])
        out = avgpool2d_forward(layer, x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 2.0

    def test_conv_1x1_scaling(self):
        layer = LayerParams("conv2d", weights=np.full((1, 1, 1, 1), 2.0),
                            bias=np.zeros(1))
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert np.array_equal(conv2d_forward(layer, x)[0, 0], [[2.0, 4.0], [6.0, 8.0]])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_conv_matches_naive(self, rng, stride, padding):
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        x = rng.normal(size=(2, 2, 7, 7))
        layer = LayerParams("conv2d", weights=w, bias=b, stride=stride, padding=padding)
        got = conv2d_forward(layer, x)
        want = naive_conv2d(w, b, x, stride, padding)
        assert got.shape == want.shape
        assert np.allclose(got, want, atol=1e-12)
        # the columns equal the kh x kw loop's, bit for bit
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        oh, ow = want.shape[2:]
        cols = np.empty((2, 2, 3, 3, oh, ow))
        for i in range(3):
            for j in range(3):
                cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
        assert np.array_equal(_im2col(xp, 3, 3, stride, oh, ow), cols.reshape(2, 18, oh * ow))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_avgpool_matches_reshape_mean(self, rng, k):
        # the reshape-and-mean expression the strided adds replaced
        layer = LayerParams("avgpool2d", pool=k)
        normal = rng.normal(size=(3, 2, 3 * k, 2 * k))
        spikes = 0.7 * rng.integers(0, 2, size=(3, 2, 3 * k, 2 * k))
        for x in (normal, spikes):
            want = x.reshape(3, 2, 3, k, 2, k).mean(axis=(3, 5))
            assert np.array_equal(avgpool2d_forward(layer, x), want)

    def test_pool_linearity(self, rng):
        layer = LayerParams("avgpool2d", pool=2)
        x, z = rng.normal(size=(2, 1, 3, 4, 4))
        combined = avgpool2d_forward(layer, 2.5 * x - 1.5 * z)
        assert np.allclose(combined,
                           2.5 * avgpool2d_forward(layer, x) - 1.5 * avgpool2d_forward(layer, z))

    def test_flatten_shape(self):
        layer = LayerParams("flatten")
        out = layer_forward(layer, np.zeros((2, 3, 4, 4)))
        assert out.shape == (2, 48)

    def test_dense_shape_error(self):
        layer = dense(np.zeros((3, 5)))
        with pytest.raises(ShapeError):
            dense_forward(layer, np.zeros((1, 4)))

    def test_conv_channel_mismatch(self):
        layer = LayerParams("conv2d", weights=np.zeros((1, 3, 3, 3)), bias=np.zeros(1))
        with pytest.raises(ShapeError):
            conv2d_forward(layer, np.zeros((1, 2, 8, 8)))

    @pytest.mark.parametrize("shape", [(1, 8, 8), (1, 1, 1, 8, 8)])
    def test_conv_needs_nchw(self, shape):
        layer = LayerParams("conv2d", weights=np.zeros((1, 1, 3, 3)), bias=np.zeros(1))
        with pytest.raises(ShapeError, match="NCHW"):
            conv2d_forward(layer, np.zeros(shape))

    def test_conv_kernel_larger_than_padded_input(self):
        layer = LayerParams("conv2d", weights=np.zeros((1, 1, 5, 5)), bias=np.zeros(1),
                            padding=1)
        with pytest.raises(ShapeError, match="5x5 larger than padded input 4x6"):
            conv2d_forward(layer, np.zeros((1, 1, 2, 4)))

    def test_pool_needs_nchw(self):
        with pytest.raises(ShapeError, match="NCHW"):
            avgpool2d_forward(LayerParams("avgpool2d", pool=2), np.zeros((1, 4, 4)))

    def test_pool_tiling_error(self):
        layer = LayerParams("avgpool2d", pool=2)
        with pytest.raises(ShapeError):
            avgpool2d_forward(layer, np.zeros((1, 1, 5, 4)))


def finite_difference(layer, x, loss_grad, param, eps=1e-6):
    """Central difference of sum(forward * loss_grad) wrt an array."""
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + eps
        hi = np.sum(layer_forward(layer, x) * loss_grad)
        param[idx] = orig - eps
        lo = np.sum(layer_forward(layer, x) * loss_grad)
        param[idx] = orig
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestBackward:
    def test_dense_gradients(self, rng):
        layer = dense(rng.normal(size=(3, 4)), rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        g = rng.normal(size=(5, 3))
        grad_x, grad_w, grad_b = layer_backward(layer, x, g)
        assert np.allclose(grad_w, finite_difference(layer, x, g, layer.weights), atol=1e-5)
        assert np.allclose(grad_b, finite_difference(layer, x, g, layer.bias), atol=1e-5)
        fd_x = np.zeros_like(x)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            orig = x[idx]
            x[idx] = orig + eps
            hi = np.sum(layer_forward(layer, x) * g)
            x[idx] = orig - eps
            lo = np.sum(layer_forward(layer, x) * g)
            x[idx] = orig
            fd_x[idx] = (hi - lo) / (2 * eps)
        assert np.allclose(grad_x, fd_x, atol=1e-5)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    def test_conv_gradients(self, rng, stride, padding):
        layer = LayerParams("conv2d", weights=rng.normal(size=(2, 2, 3, 3)),
                            bias=rng.normal(size=2), stride=stride, padding=padding)
        x = rng.normal(size=(2, 2, 6, 6))
        out = layer_forward(layer, x)
        g = rng.normal(size=out.shape)
        grad_x, grad_w, grad_b = layer_backward(layer, x, g)
        assert np.allclose(grad_w, finite_difference(layer, x, g, layer.weights), atol=1e-5)
        assert np.allclose(grad_b, finite_difference(layer, x, g, layer.bias), atol=1e-5)
        fd_x = finite_difference(layer, x, g, x)
        assert np.allclose(grad_x, fd_x, atol=1e-5)

    def test_avgpool_gradient(self, rng):
        layer = LayerParams("avgpool2d", pool=2)
        x = rng.normal(size=(2, 1, 4, 4))
        g = rng.normal(size=(2, 1, 2, 2))
        grad_x, _, _ = layer_backward(layer, x, g)
        assert np.allclose(grad_x, finite_difference(layer, x, g, x), atol=1e-5)


def conv_case(rng, n, c, oc, h, w, k, stride, padding):
    """A conv layer, an input and an output gradient with exact zeros of
    both signs sprinkled into the weights and the gradient."""
    weights = rng.normal(size=(oc, c, k, k))
    weights[rng.random(weights.shape) < 0.1] = 0.0
    layer = LayerParams("conv2d", weights=weights, bias=rng.normal(size=oc),
                        stride=stride, padding=padding)
    x = rng.normal(size=(n, c, h, w))
    g = rng.normal(size=layer_output_shape(layer, x.shape))
    g[rng.random(g.shape) < 0.1] = 0.0
    g[rng.random(g.shape) < 0.1] = -0.0
    return layer, x, g


class TestBackwardBits:
    """The training backward keeps every bit of the first-written one."""

    def test_conv_matches_reference_on_random_shapes(self):
        # odd and even sizes, one output pixel included, and gradients laid
        # out channels-last, whose channel axis is contiguous
        rng = np.random.default_rng(21)
        for case in range(60):
            stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 3))
            k = int(rng.integers(1, 6))
            h, w = (int(v) for v in rng.integers(max(1, k - 2 * padding), 18, 2))
            layer, x, g = conv_case(rng, int(rng.integers(1, 12)), int(rng.integers(1, 7)),
                                    int(rng.integers(1, 21)), h, w, k, stride, padding)
            if case % 2:
                g = np.moveaxis(np.ascontiguousarray(np.moveaxis(g, 1, 3)), 3, 1)
            got, want = layer_backward(layer, x, g), reference_layer_backward(layer, x, g)
            assert all(same_bits(a, b) for a, b in zip(got, want)), (layer.weights.shape, x.shape)

    @pytest.mark.parametrize("n,c,oc,side", [(64, 1, 8, 28), (64, 8, 16, 14)])
    def test_conv_matches_reference_on_preset_shapes(self, n, c, oc, side):
        layer, x, g = conv_case(np.random.default_rng(side), n, c, oc, side, side, 3, 1, 1)
        got, want = layer_backward(layer, x, g), reference_layer_backward(layer, x, g)
        assert all(same_bits(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("kind", ["dense", "conv2d", "avgpool2d", "flatten"])
    def test_input_grad_off_keeps_parameter_grads(self, rng, kind):
        if kind == "dense":
            layer, x = dense(rng.normal(size=(5, 7)), rng.normal(size=5)), rng.normal(size=(6, 7))
        elif kind == "conv2d":
            layer, x, _ = conv_case(rng, 3, 2, 4, 7, 9, 3, 2, 1)
        else:
            layer, x = LayerParams(kind), rng.normal(size=(2, 3, 4, 6))
        g = rng.normal(size=layer_output_shape(layer, x.shape))
        grad_x, grad_w, grad_b = layer_backward(layer, x, g, input_grad=False)
        full = layer_backward(layer, x, g)
        assert grad_x is None and full[0] is not None
        assert same_bits(grad_w, full[1]) and same_bits(grad_b, full[2])
        assert (grad_w is None) == (kind not in ("dense", "conv2d"))


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            LayerParams("maxpool2d")

    def test_negative_threshold(self):
        with pytest.raises(ParameterError):
            dense(np.zeros((2, 2)), lam=-1.0)

    def test_weighted_layer_needs_weights(self):
        with pytest.raises(ParameterError):
            LayerParams("dense")

    def test_interior_layer_needs_activation(self):
        layers = [dense(np.zeros((3, 2))), dense(np.zeros((2, 3)))]
        with pytest.raises(ParameterError):
            NetworkSpec(layers, quant_steps=4, input_shape=(2,))

    def test_classifier_must_not_have_activation(self):
        layers = [dense(np.zeros((3, 2)), lam=1.0), dense(np.zeros((2, 3)), lam=1.0)]
        with pytest.raises(ParameterError):
            NetworkSpec(layers, quant_steps=4, input_shape=(2,))

    def test_pool_cannot_carry_activation(self):
        layers = [dense(np.zeros((3, 2)), lam=1.0),
                  LayerParams("avgpool2d"),
                  dense(np.zeros((2, 3)))]
        layers[1].lam = 1.0
        with pytest.raises(ParameterError):
            NetworkSpec(layers, quant_steps=4, input_shape=(2,))

    def test_quant_steps_positive(self):
        with pytest.raises(ParameterError):
            NetworkSpec([dense(np.zeros((2, 2)))], quant_steps=0, input_shape=(2,))

    def test_mismatched_chain_fails_at_build(self):
        layers = [dense(np.zeros((3, 2)), lam=1.0), dense(np.zeros((2, 4)))]
        with pytest.raises(ShapeError, match=r"dense expects \(N, 4\), got \(1, 3\)"):
            NetworkSpec(layers, quant_steps=4, input_shape=(2,))


class TestAnnForward:
    def test_identity_composition(self):
        net = NetworkSpec([dense([[1.0]], lam=1.0), dense([[1.0]])],
                          quant_steps=4, input_shape=(1,))
        logits, record = ann_forward(net, np.array([[0.3]]))
        assert record.post[0][0, 0] == 0.25
        assert logits[0, 0] == 0.25

    def test_zero_input_zero_bias(self, rng):
        from helpers import random_dense_net
        net = random_dense_net(rng, 4)
        for layer in net.layers:
            layer.bias[:] = 0.0
        _, record = ann_forward(net, np.zeros((2, net.input_shape[0])))
        for a in record.post:
            assert np.all(a == 0.0)

    def test_two_input_fan_in(self):
        # y = 2*0.5 - 1*0.5 = 0.5; 6-step quantization keeps it at 0.5
        net = NetworkSpec([dense([[2.0, -1.0]], lam=1.0), dense([[1.0]])],
                          quant_steps=6, input_shape=(2,))
        _, record = ann_forward(net, np.array([[0.5, 0.5]]))
        assert record.pre[0][0, 0] == 0.5
        assert record.post[0][0, 0] == 0.5

    def test_record_consistency(self, rng):
        from snnconv.activation import qcfs
        from helpers import random_dense_net
        net = random_dense_net(rng, 4)
        x = rng.uniform(-1, 1, (3, net.input_shape[0]))
        _, record = ann_forward(net, x)
        assert len(record.post) == len(net.activation_layers)
        for y, a, layer in zip(record.pre, record.post, net.activation_layers):
            assert np.array_equal(a, qcfs(y, layer.lam, net.quant_steps))

    def test_shape_mismatch(self):
        net = mlp_preset(4)
        with pytest.raises(ShapeError):
            ann_forward(net, np.zeros((1, 100)))


class TestPresets:
    def test_mlp_shapes(self):
        net = mlp_preset(4)
        shapes = [l.weights.shape for l in net.layers]
        assert shapes == [(256, 784), (128, 256), (10, 128)]
        assert net.thresholds == [1.0, 1.0]
        assert not net.layers[-1].has_activation

    def test_cnn_forward_shape(self, rng):
        net = cnn_preset(4)
        for layer in net.layers:
            if layer.weights is not None:
                layer.weights[:] = rng.normal(0, 0.1, layer.weights.shape)
        logits, record = ann_forward(net, rng.normal(size=(2, 1, 28, 28)))
        assert logits.shape == (2, 10)
        assert len(record.post) == 3
