"""Traced run of one snnconv CLI command.

Usage: ``python3 trace_child.py '<step json>' <result.json>``, in the
directory the command's relative paths refer to.  ``run.py`` starts it once
per command of a traced sequence, with the same parameters it passes to the
CLI.  It wraps the package functions that ``snnconv.cli`` calls in spans,
memory probes and exact counters, then runs ``snnconv.cli.main`` on the
step's arguments, so the traced run makes the same calls and writes the same
files as the untraced one.  The result file holds the spans, the exact counts
and the memory peaks.

The extra ``kernels`` step, which is not a CLI command, times the layer
kernels one at a time, at the shapes the workload produces, next to computed
operation and byte counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

_T0 = time.perf_counter()
import snnconv.cli as cli  # noqa: E402  (timed: the import every CLI command pays)
IMPORT_S = time.perf_counter() - _T0

import numpy as np  # noqa: E402

from run import cli_args  # noqa: E402
from snnconv import (  # noqa: E402
    load_checkpoint, load_idx_pair, prepare_inputs, qcfs, qcfs_backward, standardize,
)
from snnconv.network import layer_backward, layer_forward  # noqa: E402

KERNEL_REPS = 5
KINDS = {"dense": "dense", "conv2d": "conv2d", "avgpool2d": "avgpool"}

# Name in ``snnconv.cli`` -> span name, module first.
SPANS = {
    "synthetic_digits": "datasets.synthetic",
    "materialize_idx": "datasets.write_idx",
    "load_idx_pair": "datasets.load_idx",
    "load_checkpoint": "checkpoint.load",
    "save_checkpoint": "checkpoint.save",
    "train": "training.train",
    "accuracy": "training.accuracy",
    "ann_forward": "network.ann_forward",
    "convert": "engine.convert",
    "snn_simulate": "engine.simulate",
    "srp_inference": "engine.srp",
    "error_type_I_distribution": "analysis.type1",
    "error_type_II_distribution": "analysis.type2",
    "srp_effect_report": "analysis.srp_effect",
    "verify_theorem1": "analysis.theorem",
    "random_theorem_sweep": "analysis.theorem",
}
# Span name -> tracemalloc peak it feeds.
ALLOC = {
    "engine.simulate": "engine.peak_alloc_mb",
    "engine.srp": "engine.peak_alloc_mb",
    "analysis.type1": "analysis.peak_alloc_mb",
    "analysis.type2": "analysis.peak_alloc_mb",
    "analysis.srp_effect": "analysis.peak_alloc_mb",
}


class Tracer:
    """In-memory spans, exact counts and memory peaks, written at exit."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.memory = {}
        self._stack = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    @contextmanager
    def probe(self, name: str):
        """A span, plus the memory peak of the call where one is kept."""
        alloc = ALLOC.get(name)
        if alloc:
            tracemalloc.start()
        # tracemalloc slows the per-placement verdict objects about 14x, so
        # the theorem's memory is the peak RSS growth over the call.
        before = rss_mb() if name == "analysis.theorem" else None
        try:
            with self.span(name):
                yield
        finally:
            if alloc:
                self.peak(alloc, tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
            if before is not None:
                self.peak("analysis.theorem_rss_mb", peak_rss_mb() - before)

    def count(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.memory[name] = max(self.memory.get(name, 0.0), value)

    def wrap(self, cli_name: str):
        """Replace ``snnconv.cli.<cli_name>`` by a probed, counted call."""
        fn = getattr(cli, cli_name)
        signature = inspect.signature(fn)
        name, after = SPANS[cli_name], AFTER.get(cli_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.probe(name):
                result = fn(*args, **kwargs)
            if after:
                after(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(cli, cli_name, traced)

    def count_sim(self, snn, result, timesteps: int, steps: int) -> None:
        """Exact engine counts of one ``SimResult`` whose ``phi`` averages
        over ``timesteps`` steps, out of ``steps`` simulated."""
        neurons = sum(p.size for p in result.phi)
        spikes = spike_counts(result.phi, snn.thetas, timesteps)
        self.count("engine.neuron_updates", neurons * steps)
        self.count("engine.reported_updates", neurons * timesteps)
        self.count("engine.spikes", sum(spikes))
        self.count("engine.sops", sum(s * f for s, f in zip(spikes, fan_outs(snn))))
        if result.masks is not None:
            self.count("engine.masked_dead", sum(int((m == 0).sum()) for m in result.masks))
            self.count("engine.masked", sum(m.size for m in result.masks))


# Name in ``snnconv.cli`` -> what to count from its arguments and result.
AFTER = {
    "snn_simulate": lambda tr, a, res: tr.count_sim(a["snn"], res, a["timesteps"],
                                                    a["timesteps"]),
    "srp_inference": lambda tr, a, res: tr.count_sim(a["snn"], res, a["timesteps"],
                                                     a["tau"] + a["timesteps"]),
    "verify_theorem1": lambda tr, a, verdicts: tr.count("analysis.placements", len(verdicts)),
    "random_theorem_sweep": lambda tr, a, res: tr.count("analysis.placements", res[0]),
}


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fan_outs(snn) -> list:
    """Synapses each neuron of IF stage i drives: the next stage's weighted
    layer's output units per input unit, from its weight shape (conv borders
    and pooling ignored)."""
    out = []
    for stage in snn.stages[1:]:
        layer = next(layer for layer in stage.layers if layer.weights is not None)
        if layer.kind == "dense":
            out.append(layer.weights.shape[0])
        else:
            oc, _, kh, kw = layer.weights.shape
            out.append(oc * kh * kw // layer.stride ** 2)
    return out


def spike_counts(phi: list, thetas: list, timesteps: int) -> list:
    """Emitted spikes per stage, exactly: phi = theta * count / T."""
    return [int(np.rint(p * timesteps / th).sum()) for p, th in zip(phi, thetas)]


# ---------------------------------------------------------------------------
# kernels at the workload's shapes


def load_inputs(net, step: dict, split: str, limit: int):
    data = Path(step["data"])
    handle = load_idx_pair(data / f"{split}-images-idx3-ubyte",
                           data / f"{split}-labels-idx1-ubyte", name=split)
    images = handle.subset(slice(0, limit)).images
    if net.normalization:
        images = standardize(images, net.normalization)
    return prepare_inputs(images, net.input_shape)


def layer_io(net, x) -> list:
    """(layer, input, output, pre-activation) for one forward pass."""
    rows = []
    cur = x
    for layer in net.layers:
        out = layer_forward(layer, cur)
        pre = out if layer.has_activation else None
        rows.append((layer, cur, out, pre))
        cur = qcfs(out, layer.lam, net.quant_steps) if layer.has_activation else out
    return rows


def median_ms(fn) -> float:
    """Median of KERNEL_REPS timed calls after one warm-up call."""
    fn()
    times = []
    for _ in range(KERNEL_REPS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def kernel_counts(layer, x, y) -> tuple:
    """Computed (fwd flops, fwd bytes, bwd flops, bwd bytes), float64.

    Bytes are the compulsory traffic: each operand read and each result
    written once.  Backward computes the input and weight gradients.
    """
    nx, ny = x.size, y.size
    if layer.kind == "avgpool2d":
        return nx + ny, 8 * (nx + ny), nx, 8 * (nx + ny)
    w = layer.weights.size + (layer.bias.size if layer.bias is not None else 0)
    macs = ny * (layer.weights.size // layer.weights.shape[0])
    return 2 * macs + ny, 8 * (nx + w + ny), 4 * macs + ny, 8 * (2 * nx + 2 * w + ny)


def kernels(counts: dict, step: dict) -> None:
    """Kernel timings and their computed counts.  A kind the network lacks
    (conv and pool on the MLP) reads 0 operations and an empty timing."""
    net, _ = load_checkpoint(step["model"])
    fwd = layer_io(net, load_inputs(net, step, "test", step["eval_limit"]))
    bwd = layer_io(net, load_inputs(net, step, "train", step["batch_size"]))
    for kind, short in KINDS.items():
        f_rows = [r for r in fwd if r[0].kind == kind]
        b_rows = [r for r in bwd if r[0].kind == kind]
        counts[f"network.{short}_fwd_ms"] = median_ms(
            lambda: [layer_forward(layer, a) for layer, a, _, _ in f_rows])
        counts[f"network.{short}_bwd_ms"] = median_ms(
            lambda: [layer_backward(layer, a, y) for layer, a, y, _ in b_rows])
        fwd_counts = [kernel_counts(layer, a, y) for layer, a, y, _ in f_rows]
        bwd_counts = [kernel_counts(layer, a, y) for layer, a, y, _ in b_rows]
        counts[f"network.{short}_fwd_flops"] = sum(c[0] for c in fwd_counts)
        counts[f"network.{short}_fwd_bytes"] = sum(c[1] for c in fwd_counts)
        counts[f"network.{short}_bwd_flops"] = sum(c[2] for c in bwd_counts)
        counts[f"network.{short}_bwd_bytes"] = sum(c[3] for c in bwd_counts)
    q = net.quant_steps
    counts["activation.qcfs_ms"] = median_ms(
        lambda: [qcfs(pre, layer.lam, q) for layer, _, _, pre in fwd if pre is not None])
    counts["activation.qcfs_bwd_ms"] = median_ms(
        lambda: [qcfs_backward(pre, layer.lam, q, pre) for layer, _, _, pre in bwd
                 if pre is not None])


def main(argv) -> int:
    step, result_path = json.loads(argv[1]), argv[2]
    for key, value in step.items():
        if isinstance(value, list):
            step[key] = tuple(value)
    tracer = Tracer()
    if step["cmd"] == "kernels":
        kernels(tracer.counts, step)
        rc = 0
    else:
        for cli_name in SPANS:
            tracer.wrap(cli_name)
        rc = cli.main(cli_args(step))
    with open(result_path, "w") as fh:
        json.dump({"import_s": IMPORT_S, "module_file": cli.__file__,
                   "spans": tracer.spans, "counts": tracer.counts,
                   "memory": tracer.memory}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
