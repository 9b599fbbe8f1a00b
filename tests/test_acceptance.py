"""End-to-end acceptance gate.

Each test checks one numbered criterion at its stated tolerance and prints
a single PASS or FAIL line so a full run reads as a scoreboard:

  1 conservation identity on random networks (1e-6, under 10 s)
  2 even-timing equivalence with the quantized activation (1e-9)
  3 exhaustive spike-placement check of the residual-sign law (under 60 s)
  4 masking law: dead neurons stay silent, identity masks change nothing
  5 frozen desk-scale model: masked inference helps at small step counts
    (under 15 min including training)
  6 error report soundness
  7 zero mean deviation over a uniform input grid (1e-4)
"""

import time

import numpy as np

from snnconv.activation import qcfs
from snnconv.analysis import (
    UnevennessCase,
    error_type_I_distribution,
    error_type_II_distribution,
    random_theorem_sweep,
    srp_effect_report,
    theorem_failures,
    verify_theorem1,
)
from snnconv.engine import (
    constant_current_phi,
    convert,
    even_timing_phi,
    snn_forced_phi,
    snn_simulate,
    srp_inference,
)
from snnconv.network import ann_forward
from snnconv.training import accuracy

from conftest import _build_frozen
from helpers import positive_dense_net, random_dense_net


def _report(num: int, description: str, ok: bool) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_1_conservation():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(-0.5, 1.0, (2, net.input_shape[0]))
        for timesteps in (1, 2, 4, 8):
            res = snn_simulate(snn, x, timesteps)
            prev = x
            for i, stage in enumerate(snn.if_stages):
                y = stage.apply(prev)
                drift = (res.v_final[i] - 0.5 * stage.theta) / timesteps
                worst = max(worst, float(np.abs(res.phi[i] - (y - drift)).max()))
                prev = res.phi[i]
    elapsed = time.perf_counter() - start
    _report(1, f"conservation residual {worst:.2e} (tol 1e-6) over 100 networks "
               f"x T in {{1,2,4,8}} in {elapsed:.1f}s (limit 10s)",
            worst <= 1e-6 and elapsed < 10.0)


def test_criterion_2_even_timing_exactness():
    rng = np.random.default_rng(42)
    worst = 0.0
    scalars = 0
    for steps in (2, 4, 8):
        for theta in (1.0, 0.7):
            y = rng.uniform(-0.5 * theta, 1.5 * theta, 4000)
            scalars += y.size
            diff = constant_current_phi(y, theta, steps) - qcfs(y, theta, steps)
            worst = max(worst, float(np.abs(diff).max()))
    for seed in range(6):
        net_rng = np.random.default_rng(1000 + seed)
        steps = (2, 4, 8)[seed % 3]
        net = random_dense_net(net_rng, steps)
        snn = convert(net)
        x = net_rng.uniform(-0.5, 1.0, (10, net.input_shape[0]))
        scores, phis = snn_forced_phi(snn, x, steps)
        logits, record = ann_forward(net, x)
        for phi, a in zip(phis, record.post):
            worst = max(worst, float(np.abs(phi - a).max()))
        worst = max(worst, float(np.abs(scores - logits).max()))
    _report(2, f"even-timing deviation {worst:.2e} (tol 1e-9) on {scalars} "
               f"scalars plus 6 whole networks",
            scalars >= 10_000 and worst <= 1e-9)


def test_criterion_3_placement_enumeration():
    start = time.perf_counter()
    fixture = verify_theorem1([2.0, -1.0], 6, [3, 3])
    fixture_fails = theorem_failures(fixture)
    even = next(v for v in fixture if v.timings == ((0, 2, 4), (0, 2, 4)))
    total, sweep_fails = random_theorem_sweep(100, (2, 4, 6), seed=0)
    elapsed = time.perf_counter() - start
    ok = (len(fixture) == 400 and not fixture_fails and even.phi == 0.5
          and not sweep_fails and elapsed < 60.0)
    _report(3, f"named fixture 400/400 clean (even placement rate {even.phi}), "
               f"random sweep {total} placements 0 violations in {elapsed:.1f}s "
               f"(limit 60s)", ok)


def test_criterion_4_masking_law():
    ok = True
    dead_seen = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        net = random_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(-0.5, 1.0, (3, net.input_shape[0]))
        probe = snn_simulate(snn, x, 4)  # independent stage-1 run
        res = srp_inference(snn, x, tau=4, timesteps=6)
        for v_tau, phi in zip(probe.v_final, res.phi):
            dead = v_tau < 0.0
            dead_seen += int(dead.sum())
            ok = ok and bool(np.all(phi[dead] == 0.0))
    exact = True
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        net = positive_dense_net(rng, 4)
        snn = convert(net)
        x = rng.uniform(0, 1, (3, net.input_shape[0]))
        masked = srp_inference(snn, x, tau=5, timesteps=5)
        plain = snn_simulate(snn, x, 5)
        exact = exact and np.array_equal(masked.scores, plain.scores)
        exact = exact and all(np.array_equal(a, b)
                              for a, b in zip(masked.phi, plain.phi))
    _report(4, f"{dead_seen} dead neurons all silent; identity-mask runs "
               f"bit-identical to plain simulation",
            ok and exact and dead_seen > 0)


def test_criterion_5_desk_scale_benefit():
    start = time.perf_counter()
    bundle = _build_frozen("mlp")
    net, snn = bundle["net"], bundle["snn"]
    x, labels = bundle["x_test"], bundle["y_test"]
    ann_acc = accuracy(net, x, labels)

    def acc_of(scores):
        return float(np.mean(np.argmax(scores, axis=1) == labels))

    base, masked = {}, {}
    for timesteps in (1, 2, 4, 8):
        base[timesteps] = acc_of(snn_simulate(snn, x, timesteps).scores)
        masked[timesteps] = acc_of(srp_inference(snn, x, 4, timesteps).scores)
    elapsed = time.perf_counter() - start

    gains = {t: masked[t] - base[t] for t in (1, 2)}
    holds = {t: masked[t] - base[t] for t in (4, 8)}
    ok = (ann_acc >= 0.90
          and all(g > 0 for g in gains.values())
          and all(h >= -0.005 for h in holds.values())
          and elapsed < 900.0)
    detail = " ".join(f"T={t}:{base[t]:.4f}->{masked[t]:.4f}" for t in (1, 2, 4, 8))
    _report(5, f"frozen model {ann_acc:.4f} accuracy; masked inference {detail}; "
               f"{elapsed:.0f}s (limit 900s)", ok)


def test_criterion_6_report_soundness(frozen_mlp):
    snn = frozen_mlp["snn"]
    x = frozen_mlp["x_test"][:256]
    sums_ok = True
    first_layer_ok = True
    case1_ok = True
    for timesteps in (1, 2, 4, 8):
        masked = srp_inference(snn, x, 4, timesteps)
        one = error_type_I_distribution(snn, x, masked.plain.counts, timesteps)
        two = error_type_II_distribution(snn, x, masked.plain.counts, timesteps)
        for report in (one, two):
            for stats in report.layers:
                sums_ok = sums_ok and abs(sum(stats.fractions.values()) - 1.0) <= 1e-9
        first_layer_ok = (first_layer_ok
                          and one.layers[0].fractions == two.layers[0].fractions)
        effect = srp_effect_report(snn, x, masked.plain.counts, masked.counts, timesteps)
        for delta in effect.case_delta(UnevennessCase.CASE1):
            case1_ok = case1_ok and delta <= 1e-12
    _report(6, "fractions sum to 1 (1e-9), first-layer reports identical, "
               "masked Case1 fraction never increases per layer",
            sums_ok and first_layer_ok and case1_ok)


def test_criterion_7_grid_zero_mean():
    worst = 0.0
    for steps in (2, 4, 8):
        for theta in (1.0, 1.7):
            y = np.linspace(0.0, theta, 100_000)
            diff = qcfs(y, theta, steps) - even_timing_phi(y, theta, steps, 0.5 * theta)
            worst = max(worst, abs(float(diff.mean())))
    _report(7, f"largest grid mean deviation {worst:.2e} (tol 1e-4) "
               f"for matched step counts in {{2,4,8}}", worst <= 1e-4)
