#!/usr/bin/env python3
"""snnconv benchmark: the real CLI pipeline, run one command at a time.

Usage, from the root of a checkout::

    python3 bench/run.py --workload cnn-pipeline --seed 0 --seconds 20 --trace 0

Every workload is a closed loop with one client.  The set-up runs
``snnconv make-data`` a few times; the timed part then repeats the
sequence ``train -> convert -> eval -> analyze -> verify-theorem`` (each
command a subprocess that waits for the previous one) until ``--seconds``
have passed, and reports medians over the repetitions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced CLI sequence with a traced one, in which ``trace_child.py`` runs the
same CLI commands in-process with every package function they call wrapped
in a span; it prints the per-layer metrics.

Every run checks the outputs: each command must exit 0, the files the
commands write must be byte-identical across repetitions and equal to the
digests recorded in ``digests.json``, traced outputs must equal untraced
ones, ANN accuracy must clear the workload's floor, and every theorem check
must report 0 violations over exactly the expected number of placements.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  The program under test is the ``src/`` tree next
to this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH_DIR / "digests.json"

# One BLAS thread: the steadiest timings on a small shared machine, and
# never more threads than cores.  The outputs are byte-identical at 1 and 2.
BLAS_THREADS = 1
# ``setup_s`` is the median of this many ``make-data`` children: one child is
# mostly interpreter and numpy start-up, which a busy machine slows unevenly.
SETUP_REPEATS = 7
# The workload inputs come from ``seed % DIGEST_SEEDS``, so that every seed
# has recorded output digests to check against.
DIGEST_SEEDS = 16
# A run must end within 180 s; a child still running at this point is killed
# and counted as failed.
RUN_DEADLINE_S = 170.0

COMMON = dict(quant_steps=4, timesteps=(1, 2, 4, 8), tau=4, analyze_timesteps=4,
              batch_size=64, momentum=0.9, weight_decay=5e-4, noise=0.15)

# Why each workload exists is recorded in BENCHMARK.json.  All three run the
# same command sequence; they differ in which command carries the load.  The
# pipelines' theorem instances are big enough that ``verify_s`` times the
# check more than process start-up: a second-long command spreads about 15%
# between runs on a busy machine.  The CNN, which times one sequence per run,
# checks two 343 000-placement instances; the MLP one 175 616-placement
# instance per sequence.
#
# The CNN evaluates 1000 samples: conv1's output alone is 50 MB of float64
# (1000 x 8 x 28 x 28), one simulate call allocates 0.54 GB and the eval child
# peaks near 1 GB, far more than an L3 cache holds.  One sequence takes about
# 45 s, longer than ``--seconds``, so a CNN run times one sequence.  Analyze
# uses 500 samples to keep a traced run, which times an untraced and a traced
# sequence, well within the deadline.
WORKLOADS = {
    "cnn-pipeline": dict(
        COMMON, arch="cnn", train_count=800, test_count=1000, epochs=2,
        learning_rate=0.05, eval_limit=1000, analyze_limit=500, acc_floor=0.6,
        sweep=None, instances=(((4, 4, 4), 8),) * 2),
    "mlp-pipeline": dict(
        COMMON, arch="mlp", train_count=2000, test_count=1000, epochs=2,
        learning_rate=0.1, eval_limit=1000, analyze_limit=1000, acc_floor=0.9,
        sweep=None, instances=(((3, 3, 3), 8),)),
}
# The MLP commands run at the mlp-pipeline sizes: at smaller sizes process
# start-up dominates them and their run-to-run spread doubles.
WORKLOADS["theorem-sweep"] = dict(
    WORKLOADS["mlp-pipeline"], sweep=dict(timesteps=(2, 4, 6, 8), draws=2),
    instances=(((4, 4, 4), 8),) * 2)


# ---------------------------------------------------------------------------
# workload plan


def plan(spec: dict, seed: int):
    """The set-up step and the timed steps, as CLI parameter dicts.

    Paths are relative to the directory a sequence runs in, so an untraced
    and a traced sequence write the same files under different roots.
    """
    setup = dict(cmd="make-data", out="data", train_count=spec["train_count"],
                 test_count=spec["test_count"], noise=spec["noise"], seed=seed)
    model = dict(tau=spec["tau"], srp=True)
    steps = [
        dict(cmd="train", data="data", split="train", arch=spec["arch"],
             quant_steps=spec["quant_steps"], epochs=spec["epochs"],
             batch_size=spec["batch_size"], learning_rate=spec["learning_rate"],
             momentum=spec["momentum"], weight_decay=spec["weight_decay"],
             seed=seed, out="model/ann.ckpt"),
        dict(cmd="convert", model="model/ann.ckpt", out="model/snn.ckpt"),
        dict(cmd="eval", model="model/snn.ckpt", data="data", split="test",
             timesteps=spec["timesteps"], limit=spec["eval_limit"], out="eval.csv",
             **model),
        dict(cmd="analyze", model="model/snn.ckpt", data="data", split="test",
             timesteps=(spec["analyze_timesteps"],), limit=spec["analyze_limit"],
             out="analysis", **model),
    ]
    if spec["sweep"]:
        steps.append(dict(cmd="verify-theorem", timesteps=spec["sweep"]["timesteps"],
                          draws=spec["sweep"]["draws"], seed=seed,
                          out="theorem/sweep.json"))
    rng = random.Random(seed)
    for i, (counts, timesteps) in enumerate(spec["instances"]):
        weights = ",".join(f"{rng.uniform(-2.0, 2.0):.6f}" for _ in counts)
        steps.append(dict(cmd="verify-theorem", weights=weights, counts=counts,
                          timesteps=(timesteps,), theta=1.0,
                          out=f"theorem/instance{i}.json"))
    return setup, steps


def cli_args(step: dict) -> list:
    """``--flag=value`` form, so negative numbers are not read as flags."""
    args = [step["cmd"]]
    for key, value in step.items():
        if key == "cmd":
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            args.append(flag)
        elif isinstance(value, tuple):
            args.append(f"{flag}={','.join(str(v) for v in value)}")
        else:
            args.append(f"{flag}={value}")
    return args


def outputs(step: dict) -> list:
    """The files a step writes whose bytes the checks compare."""
    if step["cmd"] == "make-data":
        return [f"{step['out']}/{split}-{kind}"
                for split in ("train", "test")
                for kind in ("images-idx3-ubyte", "labels-idx1-ubyte")]
    if step["cmd"] == "analyze":
        names = ["type_I.csv", "type_I.json", "type_II.csv", "type_II.json"]
        if step.get("srp"):
            names += ["srp_before.csv", "srp_after.csv", "srp_effect.json"]
        return [f"{step['out']}/{name}" for name in names]
    return [step["out"]]


def expected_placements(step: dict) -> int:
    """Placement count of a verify-theorem step, computed independently.

    For a sweep this replays the draws that ``random_theorem_sweep``
    documents: per draw, a fan-in size, weights, then spike counts.
    """
    if "weights" in step:
        return math.prod(math.comb(step["timesteps"][0], k) for k in step["counts"])
    import numpy as np

    rng = np.random.default_rng(step["seed"])
    total = 0
    for timesteps in step["timesteps"]:
        for _ in range(step["draws"]):
            n = int(rng.integers(1, 4))
            rng.uniform(-2.0, 2.0, size=n)
            counts = rng.integers(0, timesteps + 1, size=n)
            total += math.prod(math.comb(timesteps, int(k)) for k in counts)
    return total


# ---------------------------------------------------------------------------
# running children


class Run:
    """Children, checks and failure counts of one benchmark run."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._logs = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAIL {message}", file=sys.stderr)

    def spawn(self, argv: list, cwd: Path) -> dict:
        """Run one child to completion; wall time, peak RSS and exit code."""
        self._logs += 1
        log = self.root / "logs" / f"{self._logs:04d}.log"
        log.parent.mkdir(parents=True, exist_ok=True)
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return dict(wall=wall, rss_mb=usage.ru_maxrss / 1024.0, rc=proc.returncode,
                    log=log)

    def command(self, step: dict, cwd: Path, traced: bool, result_path: Path | None = None):
        """One CLI command, traced or not; counts an exit != 0 as failed."""
        self.attempted += 1
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "trace_child.py"),
                    json.dumps(step), str(result_path)]
        else:
            argv = [sys.executable, "-m", "snnconv.cli", *cli_args(step)]
        record = self.spawn(argv, cwd)
        record["step"] = step
        if record["rc"] != 0:
            tail = record["log"].read_text(errors="replace")[-400:]
            self.fail(f"{'traced ' if traced else ''}{step['cmd']} exited {record['rc']}: {tail}")
        return record


def digests(cwd: Path, steps: list) -> dict:
    out = {}
    for step in steps:
        for rel in outputs(step):
            path = cwd / rel
            out[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return out


class Checker:
    """Output checks shared by every sequence of one run."""

    def __init__(self, run: Run, spec: dict, recorded: dict | None):
        self.run = run
        self.spec = spec
        self.reference = dict(recorded) if recorded else {}
        self.recorded = recorded is not None

    def compare(self, got: dict, label: str) -> bool:
        """Byte equality with the first sequence and the recorded digests."""
        ok = True
        for rel, digest in got.items():
            want = self.reference.setdefault(rel, digest)
            if digest is None or digest != want:
                why = "missing" if digest is None else "differs from " + (
                    "the recorded digest" if self.recorded else "the first run")
                self.run.fail(f"{label}: {rel} {why}")
                ok = False
        return ok

    def semantic(self, cwd: Path, steps: list) -> None:
        """Accuracy floor and theorem verdicts (outputs are identical after
        the first sequence, so this runs once per run)."""
        for step in steps:
            path = cwd / step["out"]
            if step["cmd"] == "eval":
                acc_ann = float(path.read_text().splitlines()[1].split(",")[1])
                if acc_ann < self.spec["acc_floor"]:
                    self.run.fail(f"ANN accuracy {acc_ann} below floor {self.spec['acc_floor']}")
            elif step["cmd"] == "verify-theorem":
                summary = json.loads(path.read_text())
                want = expected_placements(step)
                if summary["violations"] != 0 or summary["placements"] != want:
                    self.run.fail(f"{step['out']}: {summary['violations']} violations, "
                                  f"{summary['placements']} placements (expected {want})")


def placements(cwd: Path, steps: list) -> int:
    return sum(json.loads((cwd / s["out"]).read_text())["placements"]
               for s in steps if s["cmd"] == "verify-theorem")


# ---------------------------------------------------------------------------
# metrics


def sample_steps_per_sample(spec: dict) -> int:
    """Nominal simulated steps per sample in ``eval --srp``: T plain steps,
    then tau + T two-stage steps, for every requested T."""
    return sum(t + spec["tau"] + t for t in spec["timesteps"])


def sequence_metrics(spec: dict, records: list, wall: float, placed: int) -> dict:
    by_cmd = {}
    for rec in records:
        by_cmd[rec["step"]["cmd"]] = by_cmd.get(rec["step"]["cmd"], 0.0) + rec["wall"]
    return {
        "wall_s": wall,
        "train_s": by_cmd["train"],
        "eval_s": by_cmd["eval"],
        "analyze_s": by_cmd["analyze"],
        "verify_s": by_cmd["verify-theorem"],
        "train_samples_per_s": spec["train_count"] * spec["epochs"] / by_cmd["train"],
        "sim_sample_steps_per_s": (spec["eval_limit"] * sample_steps_per_sample(spec)
                                   / by_cmd["eval"]),
        "placements_per_s": placed / by_cmd["verify-theorem"],
        "peak_rss_mb": max(rec["rss_mb"] for rec in records),
    }


def span_totals(result: dict) -> dict:
    totals = {}
    for span in result["spans"]:
        totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"]
    return totals


def traced_metrics(spec: dict, results: list) -> dict:
    """Per-layer values of one traced sequence, from its children's spans."""
    totals, counts, memory = {}, {}, {}
    for result in results:
        for name, value in span_totals(result).items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in result["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in result["memory"].items():
            memory[name] = max(memory.get(name, 0.0), value)

    def span(name):
        return totals.get(name, 0.0)

    batches = spec["epochs"] * math.ceil(spec["train_count"] / spec["batch_size"])
    steps = sample_steps_per_sample(spec)
    metrics = {
        "cli.import_s": statistics.median(r["import_s"] for r in results),
        "datasets.load_idx_s": span("datasets.load_idx"),
        "checkpoint.save_s": span("checkpoint.save"),
        "checkpoint.load_s": span("checkpoint.load"),
        "training.train_s": span("training.train"),
        "training.batch_ms": 1000.0 * span("training.train") / batches,
        "network.ann_forward_s": span("network.ann_forward"),
        "engine.convert_s": span("engine.convert"),
        "engine.simulate_s": span("engine.simulate"),
        "engine.srp_s": span("engine.srp"),
        "engine.step_ms": 1000.0 * (span("engine.simulate") + span("engine.srp")) / steps,
        "analysis.type1_s": span("analysis.type1"),
        "analysis.type2_s": span("analysis.type2"),
        "analysis.srp_effect_s": span("analysis.srp_effect"),
        "analysis.theorem_s": span("analysis.theorem"),
    }
    reported, dead, masked = (counts.pop(f"engine.{k}", 0)
                              for k in ("reported_updates", "masked_dead", "masked"))
    counts["engine.firing_rate"] = counts["engine.spikes"] / reported
    counts["engine.srp_dead_frac"] = dead / masked
    metrics.update(counts)
    metrics.update(memory)
    return metrics


def median_dict(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


# ---------------------------------------------------------------------------
# environment


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, data_seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit, "src_sha256": src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "workload": workload, "seed": seed, "data_seed": data_seed,
    }


# ---------------------------------------------------------------------------
# a whole run


def setup_data(run: Run, checker: Checker, setup: dict, cwd: Path, repeats: int) -> list:
    """Generate the inputs ``repeats`` times; each copy must be identical."""
    walls = []
    for _ in range(repeats):
        rec = run.command(setup, cwd, traced=False)
        walls.append(rec["wall"])
        if rec["rc"] == 0:
            checker.compare(digests(cwd, [setup]), "make-data")
    return walls


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  spec: dict | None = None, recorded: bool = True,
                  work: Path = WORK) -> tuple:
    """One benchmark run; returns the result object and the output digests.

    ``spec`` replaces the workload's parameters (the smoke test shrinks
    them) and ``recorded=False`` skips the recorded-digest comparison.
    """
    spec = spec or WORKLOADS[workload]
    data_seed = seed % DIGEST_SEEDS
    table = json.loads(DIGESTS.read_text()) if recorded and DIGESTS.exists() else {}
    want = table.get(workload, {}).get(str(data_seed))
    root = work / f"{workload}-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(root, ignore_errors=True)
    cli_dir, traced_dir = root / "cli", root / "traced"
    cli_dir.mkdir(parents=True)
    traced_dir.mkdir()
    run = Run(root, time.monotonic() + RUN_DEADLINE_S)
    checker = Checker(run, spec, want)
    setup, steps = plan(spec, data_seed)
    print("env " + json.dumps(environment(workload, seed, data_seed), sort_keys=True))
    if recorded and want is None:
        run.fail(f"{DIGESTS.name} has no digests for {workload} data seed {data_seed}")

    setup_walls = setup_data(run, checker, setup, cli_dir, 1 if trace else SETUP_REPEATS)
    traced_setup = None
    if trace and not run.failed:
        traced_setup = run.command(setup, traced_dir, traced=True,
                                   result_path=root / "setup.json")
        if traced_setup["rc"] == 0:
            checker.compare(digests(traced_dir, [setup]), "traced make-data")

    untraced, traced, traced_walls, untraced_walls = [], [], [], []
    start = time.perf_counter()
    iteration = 0
    while not run.failed and (iteration == 0 or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        records = []
        for step in steps:
            records.append(run.command(step, cli_dir, traced=False))
            if run.failed:
                break
        wall = time.perf_counter() - t0
        if run.failed or not checker.compare(digests(cli_dir, steps), f"iteration {iteration}"):
            break
        if iteration == 0:
            checker.semantic(cli_dir, steps)
        untraced.append(sequence_metrics(spec, records, wall, placements(cli_dir, steps)))
        untraced_walls.append(wall)
        if trace:
            results = []
            t0 = time.perf_counter()
            for i, step in enumerate(steps):
                path = root / f"trace-{iteration}-{i}.json"
                rec = run.command(step, traced_dir, traced=True, result_path=path)
                if rec["rc"] != 0:
                    break
                results.append(json.loads(path.read_text()))
                if not results[-1]["module_file"].startswith(str(SRC)):
                    run.fail(f"traced child imported {results[-1]['module_file']}")
            traced_walls.append(time.perf_counter() - t0)
            if run.failed or not checker.compare(digests(traced_dir, steps),
                                                 f"traced iteration {iteration}"):
                break
            traced.append(traced_metrics(spec, results))
        iteration += 1

    metrics = {}
    if trace and traced and not run.failed:
        kernels_path = root / "kernels.json"
        kernels = run.command(dict(cmd="kernels", model="model/ann.ckpt", data="data",
                                   eval_limit=spec["eval_limit"],
                                   batch_size=spec["batch_size"]),
                              traced_dir, traced=True, result_path=kernels_path)
        exact = [{k: v for k, v in row.items() if not k.endswith(("_s", "_ms", "_mb"))}
                 for row in traced]
        if any(row != exact[0] for row in exact):
            run.fail("exact counts differ between traced repetitions")
        if kernels["rc"] == 0 and not run.failed:
            per_layer = median_dict(traced)
            per_layer.update(exact[0])
            per_layer.update(json.loads(kernels_path.read_text())["counts"])
            per_layer["datasets.synthetic_s"] = span_totals(
                json.loads((root / "setup.json").read_text()))["datasets.synthetic"]
            per_layer["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                                 / statistics.median(untraced_walls))
            metrics = per_layer
    elif not trace and untraced and not run.failed:
        metrics = median_dict(untraced)
        metrics["setup_s"] = statistics.median(setup_walls)

    units = metric_units("per_layer" if trace else "end_to_end")
    print(f"{workload} seed={seed} data_seed={data_seed} repetitions={len(untraced)} "
          f"traced={len(traced)} attempted={run.attempted} failed={run.failed} "
          f"fail_ratio={run.failed / max(run.attempted, 1)}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]!r} {units.get(name, '')}")
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    return result, checker.reference


def metric_units(kind: str) -> dict:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def record_digests(seeds: range, workloads: list) -> None:
    """Write ``digests.json`` from one untraced sequence per workload and
    data seed.  Run only on code whose outputs are known to be right."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload in workloads:
        spec = WORKLOADS[workload]
        for seed in seeds:
            root = WORK / "record"
            shutil.rmtree(root, ignore_errors=True)
            root.mkdir(parents=True)
            run = Run(root, time.monotonic() + RUN_DEADLINE_S)
            setup, steps = plan(spec, seed)
            for step in [setup, *steps]:
                run.command(step, root, traced=False)
            checker = Checker(run, spec, None)
            checker.semantic(root, steps)
            if run.failed:
                raise SystemExit(f"{workload} seed {seed}: {run.errors}")
            acc = (root / "eval.csv").read_text().splitlines()[1].split(",")[1]
            print(f"{workload} seed {seed}: acc_ann {acc}", flush=True)
            table.setdefault(workload, {})[str(seed)] = digests(root, [setup, *steps])
    shutil.rmtree(WORK / "record", ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"rewrite digests.json for data seeds 0..{DIGEST_SEEDS - 1} "
                             "(of --workload, or of every workload)")
    args = parser.parse_args(argv)
    if not (SRC / "snnconv" / "__init__.py").is_file():
        print(f"error: no snnconv source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(range(DIGEST_SEEDS), [args.workload] if args.workload else list(WORKLOADS))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, _ = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
