import csv

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from snnconv.activation import qcfs
from snnconv.engine import (
    TraceRecorder,
    constant_current_phi,
    conversion_report,
    convert,
    even_timing_phi,
    if_scan,
    if_step,
    snn_forced_phi,
    snn_simulate,
    srp_inference,
)
from snnconv.errors import ConversionError, ParameterError, ShapeError
from snnconv.network import NetworkSpec, ann_forward, cnn_preset

from helpers import case1_repair_net, dense, positive_dense_net, random_dense_net, timing_fixture_net


def single_neuron_run(currents, theta=1.0):
    """Drive one neuron from theta/2 with an explicit per-step current sequence."""
    v = 0.5 * theta
    spikes = []
    for c in currents:
        v, fired = if_step(v, c, theta)
        spikes.append(float(fired))
    return spikes, float(v)


class TestStep:
    def test_spike_and_subtract(self):
        v, fired = if_step(np.array([0.5]), np.array([0.6]), 1.0)
        assert fired[0]
        assert v[0] == pytest.approx(0.1)

    def test_threshold_exactly_met_fires(self):
        v, fired = if_step(np.array([0.5]), np.array([0.5]), 1.0)
        assert fired[0]
        assert v[0] == 0.0

    def test_silent_on_zero_input(self):
        spikes, v = single_neuron_run([0.0] * 50)
        assert spikes == [0.0] * 50
        assert v == 0.5

    def test_potential_can_go_negative(self):
        v, fired = if_step(np.array([0.5]), np.array([-1.0]), 1.0)
        assert not fired[0]
        assert v[0] == -0.5

    def test_initial_state(self, rng):
        count, v = if_scan(np.zeros((4, 3)), 2.0)
        assert np.all(v == 1.0)
        assert np.all(count == 0)
        snn = convert(random_dense_net(rng, 4, sizes=[3, 4, 2]))
        for theta in (0.0, -1.0):
            with pytest.raises(ParameterError):
                constant_current_phi(np.ones(3), theta, 4)
            snn.stages[0].theta = theta
            with pytest.raises(ParameterError):
                snn_simulate(snn, np.zeros((1, 3)), 4)

    def test_reset_restores_half_threshold(self, rng):
        # all masks are 1 here, so stage 2 equals a fresh run only if it
        # restarts every membrane at theta/2
        net = positive_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(0, 1, (3, net.input_shape[0]))
        stage_one = snn_simulate(snn, x, 3)
        assert any(np.any(v != 0.5 * th) for v, th in zip(stage_one.v_final, snn.thetas))
        res = srp_inference(snn, x, tau=3, timesteps=5)
        for a, b in zip(res.v_final, snn_simulate(snn, x, 5).v_final):
            assert np.array_equal(a, b)

    def test_mask_gates_output_not_membrane(self):
        net, x = case1_repair_net()
        snn = convert(net)
        plain = snn_simulate(snn, x, 2)
        res = srp_inference(snn, x, tau=2, timesteps=2)
        assert res.masks[1][0, 0] == 0.0
        assert plain.phi[1][0, 0] > 0.0 and res.phi[1][0, 0] == 0.0
        # the membrane fired and reset internally all the same
        assert np.array_equal(res.v_final[1], plain.v_final[1])

    def test_scan_matches_steps(self, rng):
        currents = rng.uniform(-1.0, 2.0, (6, 5))
        count, v = if_scan(currents, 1.3)
        for j in range(5):
            spikes, vj = single_neuron_run(currents[:, j], 1.3)
            assert count[j] == sum(spikes) and v[j] == vj


class TestSingleNeuronSequences:
    def test_even_input_half_rate(self):
        spikes, v = single_neuron_run([0.5] * 6)
        assert spikes == [1, 0, 1, 0, 1, 0]
        assert sum(spikes) / 6 == 0.5
        assert v == 0.5

    def test_front_loaded_overfires(self):
        # same time-average input (0.5) as above, different placement
        spikes, v = single_neuron_run([2, 2, 2, -1, -1, -1])
        assert spikes == [1, 1, 1, 1, 0, 0]
        assert sum(spikes) == 4
        assert v == -0.5

    def test_order_sensitivity_same_mass(self):
        even, _ = single_neuron_run([1, 0, 1, 0, 1, 0])
        late, _ = single_neuron_run([2, 2, 2, -1, -1, -1])
        assert sum([1, 0, 1, 0, 1, 0]) == sum([2, 2, 2, -1, -1, -1])
        assert sum(even) != sum(late)


class TestConvert:
    def test_threshold_mapping(self, rng):
        net = random_dense_net(rng, 4, sizes=[3, 4, 5, 2])
        net.layers[0].lam = 1.0
        net.layers[1].lam = 0.5
        snn = convert(net)
        assert snn.thetas == [1.0, 0.5]
        report = conversion_report(snn)
        assert report.thetas == net.thresholds == [1.0, 0.5]
        assert report.v_init == [0.5, 0.25]

    def test_weights_shared_verbatim(self, rng):
        net = random_dense_net(rng, 4)
        snn = convert(net)
        converted = [l for s in snn.stages for l in s.layers if l.weights is not None]
        for src, dst in zip([l for l in net.layers if l.weights is not None], converted):
            assert dst.weights is src.weights
            assert np.array_equal(dst.bias, src.bias)

    def test_stage_grouping_cnn(self):
        snn = convert(cnn_preset(4))
        kinds = [[l.kind for l in s.layers] for s in snn.stages]
        assert kinds == [
            ["conv2d"],
            ["avgpool2d", "conv2d"],
            ["avgpool2d", "flatten", "dense"],
            ["dense"],
        ]
        assert snn.stages[-1].theta is None

    def test_trailing_activation_rejected(self, rng):
        net = random_dense_net(rng, 4, sizes=[3, 4, 2])
        net.layers[-1].lam = 1.0  # force an ill-formed classifier
        with pytest.raises(ConversionError):
            convert(net)

    def test_quant_steps_carried(self, rng):
        net = random_dense_net(rng, 6)
        assert convert(net).quant_steps == 6


class TestSimulate:
    @pytest.mark.parametrize("seed", range(6))
    def test_conservation_per_stage(self, seed):
        rng = np.random.default_rng(seed)
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(-0.5, 1.0, (3, net.input_shape[0]))
        timesteps = int(rng.integers(1, 12))
        res = snn_simulate(snn, x, timesteps)
        prev = x
        for i, stage in enumerate(snn.if_stages):
            y = stage.apply(prev)
            drift = (res.v_final[i] - 0.5 * stage.theta) / timesteps
            assert np.allclose(res.phi[i], y - drift, atol=1e-10)
            prev = res.phi[i]

    def test_phi_on_rate_grid(self, rng):
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(0, 1, (4, net.input_shape[0]))
        res = snn_simulate(snn, x, 7)
        for phi, stage in zip(res.phi, snn.if_stages):
            counts = phi * 7 / stage.theta
            assert np.allclose(counts, np.round(counts), atol=1e-9)
            assert np.all(phi >= 0) and np.all(phi <= stage.theta + 1e-12)

    def test_zero_input_zero_bias_silent(self, rng):
        net = random_dense_net(rng, 4)
        for layer in net.layers:
            layer.bias[:] = 0.0
        snn = convert(net)
        res = snn_simulate(snn, np.zeros((2, net.input_shape[0])), 10)
        for phi, v, stage in zip(res.phi, res.v_final, snn.if_stages):
            assert np.all(phi == 0.0)
            assert np.all(v == 0.5 * stage.theta)

    def test_spike_record_consistent(self, rng):
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(0, 1, (2, net.input_shape[0]))
        res = snn_simulate(snn, x, 5, record_spikes=True)
        for phi, spk, stage in zip(res.phi, res.spikes, snn.if_stages):
            assert spk.shape[-1] == 5
            assert set(np.unique(spk)) <= {0.0, 1.0}
            assert np.allclose(stage.theta * spk.mean(axis=-1), phi)

    def test_input_validation(self, rng):
        snn = convert(random_dense_net(rng, 4, sizes=[3, 4, 2]))
        with pytest.raises(ParameterError):
            snn_simulate(snn, np.zeros((1, 3)), 0)
        with pytest.raises(ShapeError):
            snn_simulate(snn, np.zeros((1, 5)), 4)


class TestSrp:
    def test_case1_neuron_silenced(self):
        net, x = case1_repair_net()
        snn = convert(net)
        plain = snn_simulate(snn, x, 2)
        # without masking the dead neuron over-fires from nothing
        assert plain.phi[1][0, 0] == 0.5
        assert plain.v_final[1][0, 0] == pytest.approx(-0.5)

        res = srp_inference(snn, x, tau=2, timesteps=2)
        assert res.masks[1][0, 0] == 0.0
        assert res.phi[1][0, 0] == 0.0
        # membrane keeps integrating behind the mask
        assert res.v_final[1][0, 0] == pytest.approx(-0.5)
        logits, _ = ann_forward(net, x)
        assert res.scores[0, 0] == logits[0, 0] == 0.0

    def test_all_alive_matches_plain_run(self, rng):
        net = positive_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(0, 1, (3, net.input_shape[0]))
        res = srp_inference(snn, x, tau=4, timesteps=4)
        assert all(np.all(m == 1.0) for m in res.masks)
        ref = snn_simulate(snn, x, 4)
        assert np.array_equal(res.scores, ref.scores)
        for a, b in zip(res.phi, ref.phi):
            assert np.array_equal(a, b)

    def test_mask_derived_from_stage_one_residual(self, rng):
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(-0.5, 1.0, (2, net.input_shape[0]))
        tau = 5
        stage_one = snn_simulate(snn, x, tau)
        res = srp_inference(snn, x, tau=tau, timesteps=3)
        for v, m in zip(stage_one.v_final, res.masks):
            assert np.array_equal((v >= 0.0).astype(float), m)

    def test_tau_validation(self, rng):
        net = random_dense_net(rng, 4, sizes=[3, 4, 2])
        snn = convert(net)
        x = np.zeros((1, 3))
        with pytest.raises(ParameterError):
            srp_inference(snn, x, tau=0, timesteps=2)
        res = srp_inference(snn, x, tau=1, timesteps=1)
        assert res.scores.shape == (1, 2)


class TestEvenTiming:
    def test_scalar_examples(self):
        assert even_timing_phi(0.3, 1.0, 4, 0.5) == 0.25
        assert even_timing_phi(1.7, 1.0, 4, 0.5) == 1.0
        assert even_timing_phi(0.0, 1.0, 4, 0.5) == 0.0
        assert even_timing_phi(-2.0, 1.0, 4, 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            even_timing_phi(0.5, 0.0, 4, 0.5)
        with pytest.raises(ParameterError):
            even_timing_phi(0.5, 1.0, 0, 0.5)

    @given(y=st.floats(-2, 3), theta=st.floats(0.1, 2.5), steps=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_output_on_grid(self, y, theta, steps):
        phi = float(even_timing_phi(y, theta, steps, 0.5 * theta))
        assert 0.0 <= phi <= theta
        k = phi * steps / theta
        assert abs(k - round(k)) < 1e-9

    @given(lam=st.floats(0.2, 2.0), steps=st.integers(1, 12),
           y=st.floats(-1.5, 2.5))
    @example(lam=0.2, steps=5, y=0.1)  # a rounding tie: y * steps / lam == 2.5
    @settings(max_examples=200, deadline=None)
    def test_matches_quantized_activation(self, lam, steps, y):
        want = float(qcfs(y, lam, steps))
        got = float(even_timing_phi(y, lam, steps, 0.5 * lam))
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_simulation(self, rng):
        y = rng.uniform(-1.0, 2.5, 4000)
        for steps in (1, 2, 4, 7):
            closed = even_timing_phi(y, 1.3, steps, 0.65)
            simulated = constant_current_phi(y, 1.3, steps)
            assert np.array_equal(closed, simulated)


class TestForcedEvaluation:
    def test_matches_ann_at_matched_steps(self, rng):
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(-0.5, 1.0, (8, net.input_shape[0]))
        scores, phis = snn_forced_phi(snn, x, 4)
        logits, record = ann_forward(net, x)
        for phi, a in zip(phis, record.post):
            assert np.allclose(phi, a, atol=1e-9)
        assert np.allclose(scores, logits, atol=1e-9)

    def test_timing_fixture_differs_from_forced(self):
        net, x = timing_fixture_net()
        snn = convert(net)
        free = snn_simulate(snn, x, 4)
        _, phis = snn_forced_phi(snn, x, 4)
        assert not np.allclose(free.phi[1], phis[1])


class TestTrace:
    def test_rows_and_csv(self, rng, tmp_path):
        net = random_dense_net(rng, 4, sizes=[3, 2, 2])
        snn = convert(net)
        trace = TraceRecorder()
        snn_simulate(snn, rng.uniform(0, 1, (1, 3)), 3, trace=trace)
        assert len(trace.rows) == 2 * 3  # 2 neurons, 3 steps
        ts = sorted({row[2] for row in trace.rows})
        assert ts == [1, 2, 3]  # time is 1-based
        for stage, neuron, t, u, s, v in trace.rows:
            assert s in (0.0, 1.0)
            assert v == pytest.approx(u - snn.thetas[stage] * s)

        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["layer", "neuron", "t", "u", "s", "v"]
        assert len(rows) == 1 + len(trace.rows)
