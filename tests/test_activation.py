import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snnconv.activation import qcfs, qcfs_backward
from snnconv.errors import ParameterError

from helpers import reference_qcfs_backward, same_bits

lam_values = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)
step_values = st.integers(min_value=1, max_value=16)
y_values = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


class TestQcfsScalars:
    def test_interior_point(self):
        assert qcfs(0.3, 1.0, 4) == 0.25

    def test_clip_lower(self):
        assert qcfs(-0.2, 1.0, 4) == 0.0

    def test_clip_upper(self):
        assert qcfs(2.0, 1.0, 4) == 1.0

    def test_floor_boundary_half(self):
        # floor(0.5 + 0.5) = 1 at the exact half-step boundary
        assert qcfs(0.5, 1.0, 1) == 1.0

    def test_vector_input(self):
        out = qcfs(np.array([0.3, -0.2, 2.0]), 1.0, 4)
        assert np.array_equal(out, [0.25, 0.0, 1.0])

    @pytest.mark.parametrize("lam,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -2)])
    def test_invalid_parameters(self, lam, steps):
        with pytest.raises(ParameterError):
            qcfs(0.3, lam, steps)


class TestQcfsProperties:
    @settings(max_examples=200, deadline=None)
    @given(y=y_values, lam=lam_values, steps=step_values)
    def test_output_on_quantization_grid(self, y, lam, steps):
        out = qcfs(y, lam, steps)
        k = round(out * steps / lam)
        assert 0 <= k <= steps
        assert out == pytest.approx(k * lam / steps, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(y1=y_values, y2=y_values, lam=lam_values, steps=step_values)
    def test_monotone(self, y1, y2, lam, steps):
        lo, hi = min(y1, y2), max(y1, y2)
        assert qcfs(lo, lam, steps) <= qcfs(hi, lam, steps)

    @settings(max_examples=200, deadline=None)
    @given(y=y_values, lam=lam_values, steps=step_values)
    def test_bounded(self, y, lam, steps):
        out = qcfs(y, lam, steps)
        assert 0.0 <= out <= lam

    @settings(max_examples=100, deadline=None)
    @given(y=y_values, lam=lam_values, steps=step_values)
    def test_grid_points_are_fixed_points(self, y, lam, steps):
        once = qcfs(y, lam, steps)
        assert qcfs(once, lam, steps) == pytest.approx(once, abs=1e-12)


def surrogate(y, lam):
    return lam * np.clip(y / lam, 0.0, 1.0)


class TestBackward:
    def test_pass_through_region(self):
        grad_y, _ = qcfs_backward(np.array([0.3]), 1.0, 4, np.array([1.0]))
        assert grad_y[0] == 1.0

    def test_clipped_region(self):
        grad_y, _ = qcfs_backward(np.array([-5.0]), 1.0, 4, np.array([1.0]))
        assert grad_y[0] == 0.0
        grad_y, _ = qcfs_backward(np.array([7.0]), 1.0, 4, np.array([1.0]))
        assert grad_y[0] == 0.0

    def test_upstream_scaling(self):
        grad_y, _ = qcfs_backward(np.array([0.3, 0.6]), 1.0, 4, np.array([2.0, -3.0]))
        assert np.array_equal(grad_y, [2.0, -3.0])

    def test_grad_y_matches_surrogate_finite_difference(self):
        # central differences of the clip surrogate, off the 0 and lam corners
        rng = np.random.default_rng(11)
        lam = 1.3
        y = np.concatenate([
            rng.uniform(0.01, lam - 0.01, 200),
            rng.uniform(-3.0, -0.01, 50),
            rng.uniform(lam + 0.01, 3.0, 50),
        ])
        h = 1e-6
        fd = (surrogate(y + h, lam) - surrogate(y - h, lam)) / (2 * h)
        grad_y, _ = qcfs_backward(y, lam, 4, np.ones_like(y))
        assert np.max(np.abs(grad_y - fd)) < 1e-4

    def test_grad_lam_value(self):
        # f(0.3)=0.25 at lam=1, L=4: grad = f/lam - y/lam = 0.25 - 0.3
        _, grad_lam = qcfs_backward(np.array([0.3]), 1.0, 4, np.array([1.0]))
        assert grad_lam == pytest.approx(-0.05, abs=1e-12)

    def test_grad_lam_outside_gate(self):
        # y above lam: pass-through term drops, leaving f/lam = 1
        _, grad_lam = qcfs_backward(np.array([5.0]), 1.0, 4, np.array([1.0]))
        assert grad_lam == pytest.approx(1.0, abs=1e-12)

    def test_grad_lam_reduces_over_batch(self):
        y = np.array([0.3, 5.0])
        _, grad_lam = qcfs_backward(y, 1.0, 4, np.ones_like(y))
        assert grad_lam == pytest.approx(-0.05 + 1.0, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            qcfs_backward(np.array([0.3]), -1.0, 4, np.array([1.0]))


class TestBackwardBits:
    """Passing the forward's output changes no bit of either gradient, and
    both match the first-written expressions."""

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (5, 3), (64, 8, 28, 28)])
    def test_post_keeps_every_bit(self, shape):
        rng = np.random.default_rng(len(shape))
        lam, steps = 1.3, 4
        y = rng.normal(0.6, 1.0, shape)
        upstream = rng.normal(size=shape)
        if shape:  # exact zeros of both signs, on and off the gate's edges
            y[rng.random(shape) < 0.1] = -0.0
            y[rng.random(shape) < 0.1] = lam
            upstream[rng.random(shape) < 0.2] = -0.0
        want = reference_qcfs_backward(y, lam, steps, upstream)
        for got in (qcfs_backward(y, lam, steps, upstream),
                    qcfs_backward(y, lam, steps, upstream, qcfs(y, lam, steps))):
            assert type(got[0]) is type(want[0]) and same_bits(got[0], want[0])
            assert type(got[1]) is float and same_bits(got[1], want[1])
