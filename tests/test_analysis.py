import csv
import itertools
import json
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snnconv import analysis, engine
from snnconv.activation import qcfs, qcfs_level
from snnconv.analysis import (
    ALL_CASES,
    LayerErrorStats,
    MAX_ENUM_TIMESTEPS,
    MAX_PRESYN,
    TheoremVerdict,
    UnevennessCase,
    classify_cases,
    error_type_I_distribution,
    error_type_II_distribution,
    plot_data,
    random_theorem_sweep,
    report_rows,
    srp_effect_report,
    verify_theorem1,
    write_report_csv,
    write_report_json,
)
from snnconv.engine import convert, snn_simulate, srp_inference
from snnconv.errors import DataValidationError, ParameterError, ShapeError
from snnconv.network import NetworkSpec, ann_forward, map_blocks

from helpers import (
    case1_repair_net, dense, positive_dense_net, random_dense_net, timing_fixture_net,
)

C = UnevennessCase


def case_of(count, level, timesteps=4, steps=4):
    return ALL_CASES[int(classify_cases(count, level, timesteps, steps))]


def case_by_definition(phi: Fraction, a: Fraction) -> UnevennessCase:
    """The four cases on exact outputs, in units of ``lam`` (so ``a`` is in [0, 1])."""
    if phi == a:
        return C.NO_ERROR
    if a == 0:
        return C.CASE1 if phi > a else C.NO_ERROR
    if a == 1:
        return C.CASE4 if phi < a else C.NO_ERROR
    return C.CASE2 if phi > a else C.CASE3


def float_cases(a, phi, lam):
    """The float classifier the reports once used: ANN output ``a`` against
    spiking output ``phi`` under an absolute tolerance of 1e-6.  It is an
    independent reference for the reports built from integers."""
    eps = 1e-6
    a, phi = np.asarray(a, dtype=np.float64), np.asarray(phi, dtype=np.float64)
    codes = np.zeros(a.shape, dtype=np.int64)
    differs = np.abs(phi - a) > eps
    zero = a <= eps
    top = ~zero & (a >= lam - eps)
    mid = ~zero & ~top
    codes[differs & zero & (phi > a)] = 1
    codes[differs & mid & (phi > a)] = 2
    codes[differs & mid & (phi < a)] = 3
    codes[differs & top & (phi < a)] = 4
    return codes


class TestClassify:
    # (a, phi) in units of lam, on the T = L = 4 grid
    @pytest.mark.parametrize("a,phi,want", [
        (0.0, 0.5, C.CASE1),
        (0.5, 0.5, C.NO_ERROR),
        (1.0, 0.75, C.CASE4),
        (0.5, 0.75, C.CASE2),
        (0.5, 0.25, C.CASE3),
        (0.0, 0.0, C.NO_ERROR),
        (1.0, 1.0, C.NO_ERROR),
    ])
    def test_examples(self, a, phi, want):
        assert case_of(round(phi * 4), round(a * 4)) is want

    def test_grid_matches_definition(self):
        for timesteps, steps in itertools.product(range(1, 9), repeat=2):
            count, level = np.meshgrid(np.arange(timesteps + 1), np.arange(steps + 1))
            codes = classify_cases(count, level, timesteps, steps)
            for c, k, code in zip(count.flat, level.flat, codes.flat):
                want = case_by_definition(Fraction(int(c), timesteps), Fraction(int(k), steps))
                assert ALL_CASES[code] is want, (c, k, timesteps, steps)

    def test_domain_errors(self):
        for count, level, timesteps, steps in [
            (0, 0, 4, 0), (0, 0, 0, 4), (0, 0, 2.0, 4), (0, 0, 4, 1.5),
            (5, 0, 4, 4), (-1, 0, 4, 4), (0, 5, 4, 4), (0, -1, 4, 4),
            (0.5, 0, 4, 4), (0, 1.0, 4, 4),
        ]:
            with pytest.raises(ParameterError):
                case_of(count, level, timesteps, steps)

    @given(timesteps=st.integers(1, 10_000), steps=st.integers(1, 10_000), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_partition(self, timesteps, steps, data):
        # T * L reaches 1e8, so phi - a = theta * (cL - kT) / (TL) can be far
        # below any fixed float tolerance
        count = data.draw(st.integers(0, timesteps))
        level = data.draw(st.integers(0, steps))
        want = case_by_definition(Fraction(count, timesteps), Fraction(level, steps))
        assert case_of(count, level, timesteps, steps) is want

    def test_vector_agrees_with_scalar(self, rng):
        count = rng.integers(0, 8, 500)
        level = rng.integers(0, 6, 500)
        codes = classify_cases(count, level, 7, 5)
        for c, k, code in zip(count, level, codes):
            assert ALL_CASES[code] is case_of(c, k, 7, 5)

    def test_vector_domain_error(self):
        with pytest.raises(ParameterError):
            classify_cases(np.array([1, 5]), np.zeros(2, dtype=np.uint8), 4, 4)


class TestDistributions:
    def test_first_layer_no_error_at_matched_steps(self, rng):
        for _ in range(4):
            net = random_dense_net(rng, 4)
            snn = convert(net)
            x = rng.uniform(0, 1, (6, net.input_shape[0]))
            report = error_type_I_distribution(snn, x, snn_simulate(snn, x, 4).counts, 4)
            assert report.layers[0].fraction(C.NO_ERROR) == 1.0

    def test_first_layer_same_for_both_types(self, rng):
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(0, 1, (6, net.input_shape[0]))
        counts = snn_simulate(snn, x, 4).counts
        one = error_type_I_distribution(snn, x, counts, 4)
        two = error_type_II_distribution(snn, x, counts, 4)
        assert one.layers[0].fractions == two.layers[0].fractions
        assert one.error_type == "I" and two.error_type == "II"

    def test_fractions_sum_to_one(self, rng):
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(-0.2, 1.0, (10, net.input_shape[0]))
        counts = snn_simulate(snn, x, 6).counts
        for maker in (error_type_I_distribution, error_type_II_distribution):
            report = maker(snn, x, counts, 6)
            for stats in report.layers:
                assert sum(stats.fractions.values()) == pytest.approx(1.0, abs=1e-12)

    def test_timing_fixture_shows_both_mid_cases(self):
        net, x = timing_fixture_net()
        snn = convert(net)
        report = error_type_I_distribution(snn, x, snn_simulate(snn, x, 4).counts, 4)
        mid = report.layers[1]
        assert mid.fraction(C.CASE2) == 0.5
        assert mid.fraction(C.CASE3) == 0.5
        assert mid.mean_abs_err == pytest.approx(0.25)

    def test_zero_input_all_no_error(self, rng):
        net = random_dense_net(rng, 4)
        for layer in net.layers:
            layer.bias[:] = 0.0
        snn = convert(net)
        x = np.zeros((3, net.input_shape[0]))
        report = error_type_II_distribution(snn, x, snn_simulate(snn, x, 5).counts, 5)
        for stats in report.layers:
            assert stats.fraction(C.NO_ERROR) == 1.0
            assert stats.max_abs_err == 0.0

    def test_cnn_case1_dominates_errors(self, frozen_cnn):
        x = frozen_cnn["x_test"][:256]
        snn = frozen_cnn["snn"]
        report = error_type_I_distribution(snn, x, snn_simulate(snn, x, 4).counts, 4)
        wins = 0
        for stats in report.layers:
            errs = {c: stats.fraction(c) for c in (C.CASE1, C.CASE2, C.CASE3, C.CASE4)}
            if errs[C.CASE1] >= max(errs.values()):
                wins += 1
        assert wins > len(report.layers) / 2

    @pytest.mark.parametrize("bundle,count", [("frozen_mlp", 256), ("frozen_cnn", 64)])
    def test_type_II_levels_are_the_ann_forward(self, request, bundle, count):
        # Fed the ANN's own levels as spike counts over T = L steps, so that
        # phi is its activation, the levels the report computes from the
        # converted network must match them bit for bit.
        frozen = request.getfixturevalue(bundle)
        snn, x = frozen["snn"], frozen["x_test"][:count]
        post = ann_forward(frozen["net"], x)[1].post
        levels = [np.rint(p / stage.theta * snn.quant_steps).astype(np.uint8)
                  for p, stage in zip(post, snn.if_stages)]
        report = error_type_II_distribution(snn, x, levels, snn.quant_steps)
        assert len(report.layers) == len(post)
        for stats in report.layers:
            assert stats.fraction(C.NO_ERROR) == 1.0
            assert stats.max_abs_err == 0.0

    def test_type_II_against_ann_forward_of_simulated_phi(self, rng):
        # Type II's layer i compares phi[i] with the ANN forward's own
        # activation, not with a level recomputed from phi[i - 1] (Type I).
        net = random_dense_net(rng, 4, sizes=[6, 8, 8, 8, 3])
        snn = convert(net)
        x = rng.uniform(-0.5, 1.0, (40, 6))
        run = snn_simulate(snn, x, 3)
        phi = run.phi
        report = error_type_II_distribution(snn, x, run.counts, 3)
        post = ann_forward(net, x)[1].post
        for stats, a, p, stage in zip(report.layers, post, phi, snn.if_stages):
            codes = float_cases(a, p, stage.theta)
            assert stats.fractions == {c.value: float(np.count_nonzero(codes == i) / codes.size)
                                       for i, c in enumerate(ALL_CASES)}
            assert stats.max_abs_err == float(np.abs(p - a).max())
        assert report.layers[-1].fractions != error_type_I_distribution(
            snn, x, run.counts, 3).layers[-1].fractions

    def test_mismatch_below_a_float_tolerance(self):
        # theta / (T * L) = 1e-3 / (63 * 32) is below 1e-6, yet one extra
        # spike against level 1 is still over-spiking: 2/63 > 1/32
        theta, steps = 1e-3, 32
        net = NetworkSpec(layers=[dense([[1.0]], lam=theta), dense([[1.0]])],
                          quant_steps=steps, input_shape=(1,))
        report = error_type_II_distribution(convert(net), np.array([[theta / steps]]),
                                            [np.array([[2]], dtype=np.uint8)], 63)
        (stats,) = report.layers
        assert stats.fraction(C.CASE2) == 1.0
        assert 0.0 < stats.max_abs_err < 1e-6


def reference_stats(layer, a, phi, lam):
    """One stage's statistics computed on whole-split float arrays."""
    codes = float_cases(a, phi, lam)
    fractions = {case.value: float(np.count_nonzero(codes == i) / codes.size)
                 for i, case in enumerate(ALL_CASES)}
    err = np.abs(phi - a)
    return LayerErrorStats(layer=layer, units=codes.size, fractions=fractions,
                           mean_abs_err=float(err.mean()), max_abs_err=float(err.max()))


class TestBatchInvariance:
    @pytest.mark.parametrize("fixture", ["frozen_mlp", "frozen_cnn"])
    def test_reports(self, request, monkeypatch, fixture):
        # A sample's pre-activations, and so its ANN levels, cases and errors,
        # come out the same alone, inside an odd slice and in the full set.
        frozen = request.getfixturevalue(fixture)
        snn, x = frozen["snn"], frozen["x_test"]
        run = snn_simulate(snn, x, 2)
        phi = run.phi
        k = len(snn.if_stages)
        seen = []
        monkeypatch.setattr(analysis, "qcfs_level",
                            lambda pre, *rest: seen.append(pre) or qcfs_level(pre, *rest))

        def pre_activations(count):
            # each block's stages in turn, one padded block after another
            return [np.concatenate(seen[i::k])[:count] for i in range(k)]

        for report in (error_type_I_distribution, error_type_II_distribution):
            seen.clear()
            report(snn, x, run.counts, 2)
            full = pre_activations(len(x))
            for rows in (slice(0, 1), slice(5, 42)):
                seen.clear()
                got = report(snn, x[rows], [c[rows] for c in run.counts], 2)
                for i, (pre, stage) in enumerate(zip(pre_activations(len(x[rows])),
                                                     snn.if_stages)):
                    assert np.array_equal(pre, full[i][rows])
                    a = qcfs(full[i][rows], stage.theta, snn.quant_steps)
                    assert got.layers[i] == reference_stats(i, a, phi[i][rows], stage.theta)


class TestExactness:
    """Reports built block by block, and from spike counts, equal the
    statistics of whole-split arrays bit for bit."""

    @pytest.mark.parametrize("fixture", ["frozen_mlp", "frozen_cnn"])
    def test_reports_match_whole_split_reference(self, request, fixture):
        frozen = request.getfixturevalue(fixture)
        # 300 samples span two blocks
        snn, x, timesteps = frozen["snn"], frozen["x_test"][:300], 4
        masked = srp_inference(snn, x, 4, timesteps)
        effect = srp_effect_report(snn, x, masked.plain.counts, masked.counts, timesteps)
        # Type I and Type II of the plain run, and Type II of the masked run,
        # alone and as the two halves of the SRP effect
        for error_type, run, half in (("I", masked.plain, None),
                                      ("II", masked.plain, effect.before),
                                      ("II", masked, effect.after)):
            want, prev = [], x
            for i, (stage, phi) in enumerate(zip(snn.if_stages, run.phi)):
                (pre,) = map_blocks(lambda n, block: [stage.apply(block)], prev)
                a = qcfs(pre, stage.theta, snn.quant_steps)
                want.append(reference_stats(i, a, phi, stage.theta))
                prev = phi if error_type == "I" else a
            report = (error_type_I_distribution if error_type == "I"
                      else error_type_II_distribution)
            assert report(snn, x, run.counts, timesteps).layers == want
            assert half is None or half.layers == want


class TestEmptyInput:
    def test_reports_reject_no_samples(self, rng):
        snn = convert(random_dense_net(rng, 4))
        x = rng.uniform(0, 1, (3, snn.input_shape[0]))
        counts = [c[:0] for c in snn_simulate(snn, x, 2).counts]
        for report in (error_type_I_distribution, error_type_II_distribution):
            with pytest.raises(DataValidationError):
                report(snn, x[:0], counts, 2)


class TestReportInput:
    def test_counts_rows_must_match_x(self, rng):
        snn = convert(random_dense_net(rng, 4))
        x = rng.uniform(0, 1, (5, snn.input_shape[0]))
        counts = snn_simulate(snn, x, 2).counts
        for report in (error_type_I_distribution, error_type_II_distribution):
            with pytest.raises(ShapeError):
                report(snn, x[:4], counts, 2)
        with pytest.raises(ShapeError):
            srp_effect_report(snn, x, counts, [c[:4] for c in counts], 2)

    @staticmethod
    def two_step_run(rng):
        net = positive_dense_net(rng, 2)
        x = rng.uniform(0.5, 1.0, (5, net.input_shape[0]))
        snn = convert(net)
        return snn, x, snn_simulate(snn, x, 2)

    @pytest.mark.parametrize("timesteps", [0, -1, 1.5])
    def test_timesteps_must_be_a_positive_integer(self, rng, timesteps):
        snn, x, run = self.two_step_run(rng)
        for report in (error_type_I_distribution, error_type_II_distribution):
            with pytest.raises(ParameterError):
                report(snn, x, run.counts, timesteps)
        with pytest.raises(ParameterError):
            srp_effect_report(snn, x, run.counts, run.counts, timesteps)

    def test_counts_beyond_timesteps(self, rng):
        # a two-step run's counts read as a one-step run's
        snn, x, run = self.two_step_run(rng)
        assert max(int(c.max()) for c in run.counts) == 2
        for report in (error_type_I_distribution, error_type_II_distribution):
            with pytest.raises(ParameterError):
                report(snn, x, run.counts, 1)

    def test_float_phi_is_not_counts(self, rng):
        snn, x, run = self.two_step_run(rng)
        for report in (error_type_I_distribution, error_type_II_distribution):
            with pytest.raises(ParameterError):
                report(snn, x, run.phi, 2)
        with pytest.raises(ParameterError):
            srp_effect_report(snn, x, run.counts, run.phi, 2)

    def test_nan_input(self, rng):
        snn, x, run = self.two_step_run(rng)
        x[2, 1] = np.nan
        for report in (error_type_I_distribution, error_type_II_distribution):
            with pytest.raises(DataValidationError, match="NaN"):
                report(snn, x, run.counts, 2)

    def test_input_of_another_width(self, rng):
        snn, x, run = self.two_step_run(rng)
        for report in (error_type_I_distribution, error_type_II_distribution):
            with pytest.raises(ShapeError, match=rf"network \({snn.input_shape[0]},\)"):
                report(snn, x[:, 1:], run.counts, 2)

    def test_counts_of_another_stage(self, rng):
        snn = convert(random_dense_net(rng, 4, sizes=[4, 5, 6, 3]))
        x = rng.uniform(0, 1, (5, 4))
        counts = snn_simulate(snn, x, 2).counts
        for report in (error_type_I_distribution, error_type_II_distribution):
            with pytest.raises(ShapeError, match="IF stage 0"):
                report(snn, x, counts[::-1], 2)
        with pytest.raises(ShapeError, match="IF stage 1"):
            srp_effect_report(snn, x, counts, [counts[0], counts[0]], 2)

    def test_nested_lists_give_the_same_report(self, rng):
        snn = convert(random_dense_net(rng, 4, sizes=[4, 5, 6, 3]))
        x = rng.uniform(0, 1, (5, 4))
        counts = snn_simulate(snn, x, 2).counts
        lists = [c.tolist() for c in counts]
        for report in (error_type_I_distribution, error_type_II_distribution):
            assert report(snn, x.tolist(), lists, 2) == report(snn, x, counts, 2)
        assert srp_effect_report(snn, x, lists, lists, 2) == srp_effect_report(
            snn, x, counts, counts, 2)

    def test_one_count_array_per_stage(self, rng):
        snn = convert(random_dense_net(rng, 4))
        x = rng.uniform(0, 1, (5, snn.input_shape[0]))
        counts = snn_simulate(snn, x, 2).counts
        with pytest.raises(ShapeError):
            error_type_II_distribution(snn, x, counts[:-1], 2)


class TestSrpEffect:
    def test_identity_masks_change_nothing(self, rng):
        net = positive_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(0, 1, (5, net.input_shape[0]))
        masked = srp_inference(snn, x, 4, 4)
        effect = srp_effect_report(snn, x, masked.plain.counts, masked.counts, 4)
        for b, a in zip(effect.before.layers, effect.after.layers):
            assert b.fractions == a.fractions

    def test_case1_fixture_repaired(self):
        net, x = case1_repair_net()
        snn = convert(net)
        masked = srp_inference(snn, x, 2, 2)
        effect = srp_effect_report(snn, x, masked.plain.counts, masked.counts, 2)
        assert effect.before.layers[1].fraction(C.CASE1) == 1.0
        assert effect.after.layers[1].fraction(C.NO_ERROR) == 1.0
        assert effect.case_delta(C.CASE1) == [0.0, -1.0]

    def test_shared_plain_phi(self, rng):
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(-0.5, 1.0, (6, net.input_shape[0]))
        masked = srp_inference(snn, x, 3, 4)
        effect = srp_effect_report(snn, x, masked.plain.counts, masked.counts, 4)
        after = error_type_II_distribution(snn, x, masked.counts, 4)
        assert effect.after == after
        plain = error_type_II_distribution(snn, x, snn_simulate(snn, x, 4).counts, 4)
        assert effect.before == plain

    def test_desk_scale_case1_not_worse(self, frozen_mlp):
        x, snn = frozen_mlp["x_test"][:256], frozen_mlp["snn"]
        masked = srp_inference(snn, x, 4, 4)
        effect = srp_effect_report(snn, x, masked.plain.counts, masked.counts, 4)
        deltas = effect.case_delta(C.CASE1)
        assert all(d <= 1e-12 for d in deltas)


def _reset_to_zero(v, current, theta):
    """A broken IF update: it resets to zero instead of subtracting theta."""
    u = v + current
    fired = u >= theta
    return u - u * fired, fired


def _oracle(weights, timesteps, counts, theta=1.0):
    """``(count, verdict)`` of every placement row, each simulated on its own
    with ``if_scan`` over its current row, in ``itertools.product`` order
    over each input's combinations, and judged on exact rationals."""
    weights, counts = tuple(map(float, weights)), tuple(map(int, counts))
    exact = Fraction(theta)
    charge = exact / 2 + sum(Fraction(w) * k for w, k in zip(weights, counts))
    k_ann = min(max(int(charge // exact), 0), timesteps)
    scale = theta * timesteps + sum(abs(w) * k for w, k in zip(weights, counts))
    rows = []
    for timings in itertools.product(*(itertools.combinations(range(timesteps), k)
                                       for k in counts)):
        currents = np.zeros(timesteps)
        for w, steps in zip(weights, timings):
            train = np.zeros(timesteps)
            train[list(steps)] = 1.0
            currents += w * train
        count, v_final = engine.if_scan(currents, theta)
        count, v_final = int(count), float(v_final)
        residual = charge - exact * count
        over = count > k_ann
        judged = (not over or residual < 0) if k_ann == 0 else over == (residual < 0)
        rows.append((count, TheoremVerdict(
            weights=weights, counts=counts, timings=timings, timesteps=timesteps,
            a=theta * k_ann / timesteps, phi=theta * (count / timesteps), v_final=v_final,
            clause="zero-activation" if k_ann == 0 else "positive-activation",
            passed=judged and abs(v_final - float(residual)) <= 1e-9 * scale)))
    return rows


# Instances that the checker refuses: a weight that is not finite, or
# potentials beyond float64's range, where the exact residual cannot be
# compared with a simulated one.
NON_FINITE = [
    dict(weights=[float("nan")], timesteps=2, counts=[1]),
    dict(weights=[float("inf"), 1.0], timesteps=2, counts=[1, 1]),
    dict(weights=[1e308, 1e308], timesteps=2, counts=[2, 2]),
    dict(weights=[1.7e308, -1.7e308], timesteps=4, counts=[2, 2]),
]


class TestTheoremEnumeration:
    def test_reference_instance(self):
        verdicts = verify_theorem1([2.0, -1.0], 6, [3, 3])
        assert len(verdicts) == 400
        assert (verdicts.violations, verdicts.witnesses) == (0, [])
        assert verdicts[0].a == 0.5
        assert verdicts[0].clause == "positive-activation"

        by_timing = {v.timings: v for v in verdicts}
        even = by_timing[((0, 2, 4), (0, 2, 4))]
        assert even.phi == 0.5 and even.v_final == 0.5 and even.passed
        packed = by_timing[((0, 1, 2), (3, 4, 5))]
        assert packed.phi == pytest.approx(4 / 6)
        assert packed.v_final == pytest.approx(-0.5)
        assert packed.passed

    def test_zero_weights_pass_vacuously(self):
        verdicts = verify_theorem1([0.0, 0.0], 4, [2, 3])
        assert all(v.passed for v in verdicts)
        assert verdicts[0].a == 0.0
        assert verdicts[0].clause == "zero-activation"
        assert all(v.phi == 0.0 and v.v_final == 0.5 for v in verdicts)

    def test_silencing_necessity_instance(self):
        # one placement spikes although the matched analog output is zero;
        # the clause holds because its residual potential went negative
        verdicts = verify_theorem1([0.6, -0.6], 2, [1, 1])
        assert len(verdicts) == 4
        assert verdicts.violations == 0
        spiking = {v.timings: v for v in verdicts}[((0,), (1,))]
        assert spiking.a == 0.0
        assert spiking.phi == 0.5
        assert spiking.v_final == pytest.approx(-0.5)

    def test_zero_residual_judged_exactly(self):
        # placements that end with count 3 = k_ann have exact v(T) = 0; the
        # float run leaves -2.2e-16 on some, which must not read as over-firing
        verdicts = verify_theorem1([0.5, -1.2, 1.7], 8, [2, 3, 3])
        assert len(verdicts) == 87808
        assert (verdicts.violations, verdicts.witnesses) == (0, [])
        ends = analysis._end_states(verdicts.weights, verdicts.counts, 8, 1.0)
        assert sum(n for n, _ in ends.values()) == 87808
        assert any(count == 3 and v < 0.0 for count, v in ends)  # classes keep the float run

    def test_decimal_weights_no_false_violations(self):
        # decimal weights put y*T/theta + 1/2 and v(T) on or a hair off
        # integers and zero; float judging reported violations on many of
        # these, e.g. weights (-0.2, 0.7) with counts (1, 1) at T = 1
        grid = [round(0.1 * i, 1) for i in range(-12, 13)]
        for timesteps in (1, 2, 3):
            for w1, w2 in itertools.product(grid, repeat=2):
                for k1, k2 in itertools.product(range(timesteps + 1), repeat=2):
                    verdicts = verify_theorem1([w1, w2], timesteps, [k1, k2])
                    assert verdicts.violations == 0, (w1, w2, k1, k2, timesteps)

    def test_kernel_that_loses_charge_fails(self, monkeypatch):
        # the exact closed form must not make the check vacuous: a kernel
        # that resets to zero instead of subtracting theta is caught
        monkeypatch.setattr(analysis, "if_step", _reset_to_zero)
        result = verify_theorem1([2.0, -1.0], 6, [3, 3])
        assert result.violations > 0
        assert result.witnesses and not any(v.passed for v in result.witnesses)

    @pytest.mark.parametrize("kwargs", [
        dict(weights=[1.0], timesteps=9, counts=[1]),
        dict(weights=[1.0], timesteps=0, counts=[0]),
        dict(weights=[1.0, 1.0, 1.0, 1.0], timesteps=4, counts=[1, 1, 1, 1]),
        dict(weights=[1.0, 1.0], timesteps=4, counts=[1]),
        dict(weights=[1.0], timesteps=4, counts=[5]),
        dict(weights=[1.0], timesteps=4, counts=[-1]),
        dict(weights=[], timesteps=4, counts=[]),
        *NON_FINITE,
        dict(weights=[1.0], timesteps=2, counts=[1], theta=float("inf")),
        dict(weights=[1.0], timesteps=2, counts=[1], theta=0.0),
        dict(weights=[1.0], timesteps=2, counts=[1], theta=-1.0),
    ])
    def test_refusals(self, kwargs):
        with pytest.raises(ParameterError):
            verify_theorem1(**kwargs)

    def test_caps_exposed(self):
        assert MAX_ENUM_TIMESTEPS == 8
        assert MAX_PRESYN == 3

    def test_small_random_sweep_clean(self):
        total, violations, witnesses = random_theorem_sweep(10, (2, 4), seed=3)
        assert total > 0
        assert (violations, witnesses) == (0, [])

    @pytest.mark.parametrize("draws", [0, -4])
    def test_sweep_needs_draws(self, draws):
        with pytest.raises(ParameterError, match="draws"):
            random_theorem_sweep(draws, (2, 4))

    def test_sweep_deterministic(self):
        a = random_theorem_sweep(5, (3,), seed=11)
        b = random_theorem_sweep(5, (3,), seed=11)
        assert a == b


def _python_typed(verdict):
    return (all(type(t) is int for steps in verdict.timings for t in steps)
            and all(type(steps) is tuple for steps in verdict.timings)
            and all(type(x) is float for x in (verdict.a, verdict.phi, verdict.v_final))
            and type(verdict.passed) is bool)


def _check_against_oracle(weights, timesteps, counts, theta=1.0):
    """Assert that the merged walk agrees with :func:`_oracle` row by row,
    class by class and in its violation count and witnesses."""
    rows = _oracle(weights, timesteps, counts, theta)
    result = verify_theorem1(weights, timesteps, counts, theta)
    assert len(result) == len(rows)
    verdicts = list(result)
    assert verdicts == [verdict for _, verdict in rows]
    assert all(_python_typed(v) for v in verdicts)
    ends = analysis._end_states(result.weights, result.counts, timesteps, theta)
    assert Counter((c, v.v_final) for c, v in rows) == {key: n for key, (n, _) in ends.items()}
    failing = [(c, v) for c, v in rows if not v.passed]
    assert result.violations == len(failing)
    assert len(result.witnesses) == len({(c, v.v_final) for c, v in failing})
    assert all(w in [v for _, v in failing] for w in result.witnesses)


class TestTheoremResult:
    @pytest.mark.parametrize("args", [
        ([2.0, -1.0], 6, [3, 3]),
        ([0.0, 0.0], 4, [2, 3]),
        ([0.6, -0.6], 2, [1, 1]),
        ([1.0, -0.5, 0.3], 3, [0, 2, 3]),
    ], ids=["reference", "zero-weights", "silencing", "zero-count"])
    def test_lazy_verdicts_equal_eager(self, args):
        _check_against_oracle(*args)

    @pytest.mark.parametrize("broken", [False, True], ids=["if_step", "reset-to-zero"])
    def test_merged_walk_matches_per_placement_runs(self, broken, monkeypatch):
        if broken:
            monkeypatch.setattr(engine, "if_step", _reset_to_zero)
            monkeypatch.setattr(analysis, "if_step", _reset_to_zero)
        rng = np.random.default_rng(19)
        for trial in range(30):
            timesteps, n = int(rng.integers(1, 6)), int(rng.integers(1, MAX_PRESYN + 1))
            weights = rng.uniform(-2.0, 2.0, size=n)
            if trial % 3 == 0:
                weights = np.round(weights, 1)
            counts = rng.integers(0, timesteps + 1, size=n)
            _check_against_oracle(weights, timesteps, counts, float(rng.choice([0.7, 1.0, 1.3])))

    def test_indexing(self):
        result = verify_theorem1([2.0, -1.0], 6, [3, 3])
        eager = [verdict for _, verdict in _oracle([2.0, -1.0], 6, [3, 3])]
        n = len(result)
        assert result[-1] == eager[-1] == result[n - 1]
        assert result[-n] == eager[0]
        assert result[3:11:2] == eager[3:11:2]
        assert result[::-1] == eager[::-1]
        assert result[n:] == []
        assert result[np.int64(5)] == eager[5]
        for index in (n, -n - 1):
            with pytest.raises(IndexError):
                result[index]

    def test_random_sweep_counts_and_failures(self, monkeypatch):
        total, violations, witnesses = random_theorem_sweep(5, (3,), seed=11)
        results = [verify_theorem1(*args) for args in _sweep_draws(5, (3,), 11)]
        assert total == sum(len(r) for r in results)
        assert (violations, witnesses) == (0, [])
        monkeypatch.setattr(analysis, "if_step", _reset_to_zero)
        total, violations, witnesses = random_theorem_sweep(5, (3,), seed=11)
        results = [verify_theorem1(*args) for args in _sweep_draws(5, (3,), 11)]
        assert violations == sum(r.violations for r in results) > 0
        assert witnesses == [w for r in results for w in r.witnesses]


def _sweep_draws(draws, timesteps_list, seed):
    """The instances ``random_theorem_sweep`` draws, replayed."""
    rng = np.random.default_rng(seed)
    for timesteps in timesteps_list:
        for _ in range(draws):
            n = int(rng.integers(1, MAX_PRESYN + 1))
            weights = rng.uniform(-2.0, 2.0, size=n)
            yield weights, timesteps, rng.integers(0, timesteps + 1, size=n)


class TestEmission:
    def build_report(self):
        net, x = case1_repair_net()
        snn = convert(net)
        return error_type_II_distribution(snn, x, snn_simulate(snn, x, 2).counts, 2)

    def test_rows_and_csv(self, tmp_path):
        report = self.build_report()
        rows = report_rows(report)
        assert len(rows) == 5 * len(report.layers)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["layer", "case", "fraction"]
        assert len(parsed) == 1 + len(rows)
        fraction = float(parsed[1][2])
        assert 0.0 <= fraction <= 1.0

    def test_json_round_trip(self, tmp_path):
        report = self.build_report()
        path = tmp_path / "report.json"
        write_report_json(report, path)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["summary"] == asdict(report)
        assert payload["plot"] == plot_data(report)
        assert payload["summary"]["error_type"] == "II"

    def test_plot_data_layout(self):
        report = self.build_report()
        data = plot_data(report)
        assert data["layers"] == [0, 1]
        for series in data["series"].values():
            assert len(series) == 2
        # stacked bars cover the whole unit per layer
        for i in range(2):
            assert sum(data["series"][c.value][i] for c in ALL_CASES) == pytest.approx(1.0)
