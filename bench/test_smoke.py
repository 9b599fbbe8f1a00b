"""Smoke test of the benchmark harness at tiny sizes (about a minute).

Run from the root of a checkout::

    python3 -m pytest bench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that traced and untraced runs write byte-identical outputs, that the
recorded digests cover every workload and seed, and that the benchmark
refuses to run without the source tree.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload: str) -> dict:
    spec = dict(run.WORKLOADS[workload], train_count=48, test_count=16, epochs=1,
                eval_limit=16, analyze_limit=16, timesteps=(1, 2), acc_floor=0.0,
                instances=(((2, 1), 4),))
    if spec["sweep"]:
        spec["sweep"] = dict(timesteps=(2,), draws=2)
    return spec


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_recorded_digests_cover_every_seed():
    table = json.loads(run.DIGESTS.read_text())
    for workload, spec in run.WORKLOADS.items():
        assert sorted(table[workload], key=int) == [str(s) for s in range(run.DIGEST_SEEDS)]
        setup, steps = run.plan(spec, 0)
        files = [f for step in [setup, *steps] for f in run.outputs(step)]
        assert sorted(table[workload]["0"]) == sorted(files)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_and_identical_outputs(workload, tmp_path):
    spec = tiny(workload)
    plain, plain_digests = run.run_benchmark(workload, 5, 0, False, spec=spec,
                                             recorded=False, work=tmp_path)
    traced, traced_digests = run.run_benchmark(workload, 5, 0, True, spec=spec,
                                               recorded=False, work=tmp_path)
    for result, metrics in ((plain, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert sorted(result["metrics"]) == sorted(m["name"] for m in metrics)
        for m in metrics:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert math.isfinite(result["metrics"][m["name"]]["value"])
    assert plain_digests and None not in plain_digests.values()
    assert traced_digests == plain_digests


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mlp-pipeline",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
