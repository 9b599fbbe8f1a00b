import csv
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from snnconv import network
from snnconv.activation import qcfs
from snnconv.analysis import (
    error_type_I_distribution,
    error_type_II_distribution,
    srp_effect_report,
)
from snnconv.engine import (
    SimResult,
    TraceRecorder,
    constant_current_phi,
    convert,
    even_timing_phi,
    if_step,
    snn_forced_phi,
    snn_simulate,
    srp_inference,
)
from snnconv.errors import ConversionError, DataValidationError, ParameterError, ShapeError
from snnconv.network import (BLOCK_ROWS, ann_forward, cnn_preset, forked_map, map_blocks,
                              mlp_preset)
from snnconv.training import accuracy

from helpers import (
    case1_repair_net, positive_dense_net, random_dense_net, scan, timing_fixture_net,
)


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
        count, v = scan(np.zeros((4, 3)), 2.0)
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
        count, v = scan(currents, 1.3)
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
        assert snn.thetas == net.thresholds == [1.0, 0.5]

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
        trace = TraceRecorder()
        res = snn_simulate(snn, x, 5, trace=trace)
        for i, (phi, stage) in enumerate(zip(res.phi, snn.if_stages)):
            spk = np.array([s for st, _, _, s, _ in trace.steps if st == i])
            assert spk.shape == (5, phi.size)
            assert set(np.unique(spk)) <= {0.0, 1.0}
            assert np.allclose(stage.theta * spk.mean(axis=0), phi.ravel())

    def test_input_validation(self, rng):
        snn = convert(random_dense_net(rng, 4, sizes=[3, 4, 2]))
        with pytest.raises(ParameterError):
            snn_simulate(snn, np.zeros((1, 3)), 0)
        with pytest.raises(ShapeError):
            snn_simulate(snn, np.zeros((1, 5)), 4)

    def test_empty_input_rejected(self, rng):
        snn = convert(random_dense_net(rng, 4, sizes=[3, 4, 2]))
        x = np.zeros((0, 3))
        for run in (lambda: snn_simulate(snn, x, 4), lambda: srp_inference(snn, x, 2, 4),
                    lambda: snn_forced_phi(snn, x, 4)):
            with pytest.raises(DataValidationError):
                run()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, rng, value):
        # NaN >= theta is false, so a NaN sample would otherwise run silent
        snn = convert(random_dense_net(rng, 4, sizes=[3, 4, 2]))
        x = np.zeros((2, 3))
        x[1, 2] = value
        for run in (lambda: snn_simulate(snn, x, 4), lambda: srp_inference(snn, x, 2, 4),
                    lambda: snn_forced_phi(snn, x, 4)):
            with pytest.raises(DataValidationError):
                run()

    def test_readout_only_network(self, rng):
        # no IF stage: every step's readout is the classifier on the input
        net = mlp_preset(4, hidden=(), in_features=3, classes=2)
        net.layers[0].weights[:] = rng.normal(size=(2, 3))
        snn = convert(net)
        x = rng.uniform(0, 1, (4, 3))
        res = snn_simulate(snn, x, 3)
        assert res.phi == [] and np.allclose(res.scores, ann_forward(net, x)[0])


class TestPrefixScores:
    """One run at max(T) gives every shorter run's scores, bit for bit."""

    @pytest.mark.parametrize("fixture,samples", [("frozen_mlp", 200), ("frozen_cnn", 40)])
    def test_prefixes_match_separate_runs(self, request, fixture, samples):
        frozen = request.getfixturevalue(fixture)
        snn, x = frozen["snn"], frozen["x_test"][:samples]
        t_max, tau = 8, 4
        plain = snn_simulate(snn, x, t_max)
        masked = srp_inference(snn, x, tau, t_max)
        assert plain.prefix_scores.shape == (t_max, samples, 10)
        assert np.array_equal(plain.scores, plain.prefix_scores[-1])
        for t in range(1, t_max + 1):
            assert np.array_equal(plain.prefix_scores[t - 1],
                                  snn_simulate(snn, x, t).scores)
            assert np.array_equal(masked.prefix_scores[t - 1],
                                  srp_inference(snn, x, tau, t).scores)


def assert_same_run(a, b, rows=slice(None)):
    """``a`` equals rows ``rows`` of ``b``, bit for bit, field by field."""
    assert np.array_equal(a.prefix_scores, b.prefix_scores[:, rows])
    assert np.array_equal(a.scores, b.scores[rows])
    for name in ("phi", "v_final", "masks"):
        left, right = getattr(a, name), getattr(b, name)
        assert (left is None) == (right is None), name
        for p, q in zip(left or [], right or [], strict=True):
            assert np.array_equal(p, q[rows]), name


class TestBlocks:
    def test_zero_padded_blocks(self, rng):
        x = rng.normal(size=(BLOCK_ROWS + 3, 2, 2))
        seen = []

        def keep(n, block):
            seen.append((n, block.copy()))
            return [-block]

        (out,) = map_blocks(keep, x)
        assert np.array_equal(out, -x)
        (n0, b0), (n1, b1) = seen
        assert (n0, n1) == (BLOCK_ROWS, 3)
        assert b0.shape == b1.shape == (BLOCK_ROWS, 2, 2)
        assert np.array_equal(b0, x[:BLOCK_ROWS]) and np.array_equal(b1[:3], x[BLOCK_ROWS:])
        assert not b1[3:].any()

    def test_full_blocks_are_views(self, rng):
        x = rng.normal(size=(BLOCK_ROWS + 3, 2))
        shared = []
        map_blocks(lambda n, block: shared.append(np.shares_memory(block, x)) or [block], x)
        assert shared == [True, False]

    def test_unequal_row_counts_rejected(self, rng):
        x = rng.normal(size=(BLOCK_ROWS + 3, 2))
        with pytest.raises(ShapeError):
            map_blocks(lambda n, a, b: [a], x, x[:-1])

    def test_block_outputs_freed_before_next_block(self, rng):
        # outputs hold only the real rows, so a block's own arrays can go
        alive = []

        def fn(n, block):
            assert [ref() for ref in alive] == [None] * len(alive)
            out = 2 * block
            alive.append(weakref.ref(out))
            return [out]

        (out,) = map_blocks(fn, rng.normal(size=(2 * BLOCK_ROWS + 1, 3)))
        assert len(alive) == 3 and out.shape == (2 * BLOCK_ROWS + 1, 3)

    def test_forked_blocks_and_nested_map(self, rng, monkeypatch):
        # three CPUs, three blocks: block 0 runs here and each other block in
        # its own worker; a map inside any of them runs in that process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        x = rng.normal(size=(2 * BLOCK_ROWS + 3, 2))

        def fn(n, block):
            (inner,) = forked_map(lambda m, b: [np.full(BLOCK_ROWS, os.getpid())],
                                  np.zeros(2 * BLOCK_ROWS))
            pid = os.getpid()
            return [-block, np.full(BLOCK_ROWS, pid), np.full(BLOCK_ROWS, (inner == pid).all())]

        negated, pids, inner_here = forked_map(fn, x)
        assert np.array_equal(negated, -x) and inner_here.all()
        here, *workers = (int(pids[start]) for start in range(0, len(x), BLOCK_ROWS))
        assert here == os.getpid() and len({here, *workers}) == 3
        with pytest.raises(ChildProcessError):  # all reaped
            os.waitpid(-1, os.WNOHANG)

    def test_dead_worker_is_an_error(self, rng, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()

        def fn(n, block):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return [block]

        with pytest.raises(ChildProcessError, match="ended before block 1"):
            forked_map(fn, rng.normal(size=(BLOCK_ROWS + 1, 2)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_ends_when_its_parent_dies(self, tmp_path):
        # the parent exits during its own block; the worker's next write fails
        pid_file = tmp_path / "worker.pid"
        code = f"""if True:
            import os, numpy as np
            from snnconv import network
            os.sched_getaffinity = lambda pid: {{0, 1}}
            parent = os.getpid()

            def fn(n, block):
                if os.getpid() == parent:
                    os._exit(0)
                # renamed into place, so that the poller never reads it half written
                with open({str(pid_file)!r} + ".tmp", "w") as f:
                    f.write(str(os.getpid()))
                os.rename({str(pid_file)!r} + ".tmp", {str(pid_file)!r})
                return [np.zeros((len(block), 100_000))]  # more than a pipe holds

            network.forked_map(fn, np.zeros((network.BLOCK_ROWS + 1, 1)))
        """
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       env=dict(os.environ, PYTHONPATH=str(Path(network.__file__).parents[1])))
        deadline = time.monotonic() + 30
        while not pid_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        pid = int(pid_file.read_text())

        def running():
            stat = Path(f"/proc/{pid}/stat")
            return stat.exists() and stat.read_text().split()[2] != "Z"

        while running() and time.monotonic() < deadline:
            time.sleep(0.05)
        if running():
            os.kill(pid, signal.SIGKILL)
            pytest.fail(f"worker {pid} outlived its parent")

    @pytest.mark.parametrize("failing,raised", [
        pytest.param({1: ShapeError, 2: ParameterError}, ShapeError, id="command-then-worker"),
        pytest.param({3: ParameterError, 4: ShapeError}, ParameterError, id="worker-then-worker"),
    ])
    def test_earliest_failing_block_wins(self, cpus, failing, raised):
        # six blocks on three CPUs: runs [0, 1], [2, 3] and [4, 5]
        x = np.arange(6.0 * BLOCK_ROWS)

        def fn(n, block):
            k = int(block[0]) // BLOCK_ROWS
            if k in failing:
                raise failing[k](f"block {k}")
            return [block]

        with pytest.raises(raised) as serial:
            map_blocks(fn, x)
        forks = cpus(3)
        with pytest.raises(raised) as forked:
            forked_map(fn, x)
        assert len(forks) == 2 and str(forked.value) == str(serial.value)
        with pytest.raises(ChildProcessError):  # all reaped
            os.waitpid(-1, os.WNOHANG)

    def test_library_calls_never_fork(self, tiny_trained, cpus):
        net, snn, x = tiny_trained["net"], tiny_trained["snn"], tiny_trained["x"]
        assert BLOCK_ROWS < len(x) <= 2 * BLOCK_ROWS
        forks = cpus(2)
        run = srp_inference(snn, x, 2, 4)
        plain = snn_simulate(snn, x, 4).counts
        snn_forced_phi(snn, x, 4)
        error_type_I_distribution(snn, x, plain, 4)
        error_type_II_distribution(snn, x, plain, 4)
        srp_effect_report(snn, x, run.plain.counts, run.counts, 4)
        accuracy(net, x, tiny_trained["y"])
        assert forks == []

        # the CLI's map forks for the same input, and its runs are whole blocks
        def rows(n, block):
            return [np.full(BLOCK_ROWS, n)]

        assert np.array_equal(forked_map(rows, x)[0], map_blocks(rows, x)[0])
        assert len(forks) == 1

    @pytest.mark.parametrize("fixture", ["frozen_mlp", "frozen_cnn"])
    def test_batch_invariance(self, request, fixture):
        # A sample gets the same bits alone, inside an odd slice and in the
        # full set (4 blocks and more): the stages only see whole padded blocks.
        frozen = request.getfixturevalue(fixture)
        snn, x = frozen["snn"], frozen["x_test"]
        full, full_srp = snn_simulate(snn, x, 4), srp_inference(snn, x, 2, 4)
        full_forced = snn_forced_phi(snn, x, 4)
        for rows in (slice(0, 1), slice(5, 42)):
            assert_same_run(snn_simulate(snn, x[rows], 4), full, rows)
            srp = srp_inference(snn, x[rows], 2, 4)
            assert_same_run(srp, full_srp, rows)
            assert_same_run(srp.plain, full_srp.plain, rows)
            scores, phis = snn_forced_phi(snn, x[rows], 4)
            assert np.array_equal(scores, full_forced[0][rows])
            for p, q in zip(phis, full_forced[1], strict=True):
                assert np.array_equal(p, q[rows])


def reference_srp(snn, x, tau, timesteps):
    """Two-pass SRP: a tau-step plain run for the masks, then a masked run
    that simulates every stage again, block by block as the engine does."""
    masks = [v >= 0.0 for v in snn_simulate(snn, x, tau).v_final]
    stages = snn.if_stages

    def masked_block(n, block, *block_masks):
        v, counts, prefix = [0.5 * stage.theta for stage in stages], [0] * len(stages), []
        current0 = snn.stages[0].apply(block)
        for t in range(timesteps):
            current = current0
            for i, stage in enumerate(stages):
                v[i], fired = if_step(v[i], current, stage.theta)
                counts[i] += fired & block_masks[i]
                current = snn.stages[i + 1].apply(stage.theta * (fired & block_masks[i]))
            score_sum = current if t == 0 else score_sum + current
            prefix.append(score_sum / (t + 1))
        return [np.stack(prefix, axis=1), *counts, *v]

    prefix, *out = map_blocks(masked_block, x, *masks)
    prefix = prefix.swapaxes(0, 1)
    k = len(stages)
    return SimResult(prefix[-1], prefix, out[:k], out[k:], snn.thetas, masks=masks)


class TestSharedStageOne:
    @pytest.mark.parametrize("fixture,tau", [
        pytest.param("frozen_mlp", 2, id="2"), pytest.param("frozen_mlp", 5, id="5"),
        pytest.param("frozen_mlp", 8, id="8"), pytest.param("frozen_cnn", 5, id="cnn-5")])
    def test_plain_run_and_masks_shared(self, request, fixture, tau):
        # 300 samples span two blocks; tau < T, tau == T and tau > T
        frozen = request.getfixturevalue(fixture)
        snn, x, timesteps = frozen["snn"], frozen["x_test"][:300], 5
        res = srp_inference(snn, x, tau, timesteps)
        assert_same_run(res.plain, snn_simulate(snn, x, timesteps))
        assert_same_run(res, reference_srp(snn, x, tau, timesteps))
        assert res.plain.plain is None and res.masks is not None
        assert all(m.dtype == bool for m in res.masks)

    def test_stage_zero_buffer_packed(self, frozen_cnn):
        # the plain pass keeps stage 0's firings for the masked pass at one
        # bit per neuron and step; as bools, T = 32 would cost 1.4x T = 4
        snn, x = frozen_cnn["snn"], frozen_cnn["x_test"][:BLOCK_ROWS]
        peaks = []
        for timesteps in (4, 32):
            tracemalloc.start()
            try:
                srp_inference(snn, x, 4, timesteps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks


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

    def test_blocks_number_neurons_on(self, rng):
        # 300 samples run as two blocks; every neuron keeps its own number,
        # and a sample in the second block reads as it does traced alone
        snn = convert(random_dense_net(rng, 4, sizes=[3, 4, 2]))
        x = rng.uniform(0, 1, (BLOCK_ROWS + 44, 3))
        full, alone = TraceRecorder(), TraceRecorder()
        snn_simulate(snn, x, 2, trace=full)
        snn_simulate(snn, x[-1:], 2, trace=alone)
        keys = [row[:3] for row in full.rows]
        assert len(keys) == len(set(keys)) == len(x) * 4 * 2
        offset = (len(x) - 1) * 4
        last = [(st, n - offset, *rest) for st, n, *rest in full.rows if n >= offset]
        assert sorted(last) == sorted(alone.rows)
