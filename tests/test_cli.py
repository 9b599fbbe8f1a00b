import ast
import csv
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import snnconv
from snnconv import analysis, cli
from snnconv.checkpoint import load_checkpoint
from snnconv.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_INVARIANT,
    EXIT_OK,
    main,
    parse_config_file,
)
from snnconv.datasets import DatasetHandle
from snnconv.errors import ConversionError, ParameterError
from snnconv.network import BLOCK_ROWS

from helpers import write_csv_dataset


def read_metrics(path) -> list:
    """The eval CSV's rows as tuples; an empty SRP cell becomes None."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["T", "acc_ann", "acc_snn", "acc_srp"]
        return [(int(r["T"]), float(r["acc_ann"]), float(r["acc_snn"]),
                 float(r["acc_srp"]) if r["acc_srp"] else None) for r in reader]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Data + trained ANN + converted SNN shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    model = root / "model.ckpt"
    snn = root / "model-snn.ckpt"
    report = root / "conversion.json"
    assert main(["make-data", "--out", str(data), "--train-count", "120",
                 "--test-count", "60", "--seed", "0"]) == EXIT_OK
    assert main(["train", "--data", str(data), "--arch", "mlp", "--epochs", "2",
                 "--quant-steps", "4", "--seed", "0", "--out", str(model)]) == EXIT_OK
    assert main(["convert", "--model", str(model), "--out", str(snn),
                 "--report", str(report)]) == EXIT_OK
    return {"root": root, "data": data, "model": model, "snn": snn, "report": report}


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` lets ``map_blocks`` see ``n`` CPUs; returns the list that
    gains an entry per process forked from then on."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks

    monkeypatch.setattr(os, "fork", counted_fork)
    return set_cpus


class TestMakeData:
    def out_bytes(self, directory):
        return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}

    def test_writes_both_splits(self, workspace):
        names = {p.name for p in workspace["data"].iterdir()}
        assert names == {"train-images-idx3-ubyte", "train-labels-idx1-ubyte",
                         "test-images-idx3-ubyte", "test-labels-idx1-ubyte"}

    def test_same_seed_byte_identical(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        args = ["make-data", "--train-count", "40", "--test-count", "20"]
        assert main(args + ["--out", str(a), "--seed", "3"]) == EXIT_OK
        assert main(args + ["--out", str(b), "--seed", "3"]) == EXIT_OK
        assert main(args + ["--out", str(c), "--seed", "4"]) == EXIT_OK
        assert self.out_bytes(a) == self.out_bytes(b)
        assert self.out_bytes(a) != self.out_bytes(c)

    def test_out_required(self):
        assert main(["make-data"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [["--train-count", "-1"],
                                       ["--train-count", "4", "--test-count", "-1"],
                                       ["--noise", "-1"], ["--noise", "inf"],
                                       ["--noise", "nan"]])
    def test_bad_count_or_noise(self, tmp_path, flags):
        assert main(["make-data", "--out", str(tmp_path / "data"), *flags]) == EXIT_CONFIG
        assert not (tmp_path / "data").exists()


class TestTrainConvert:
    def test_checkpoint_contents(self, workspace):
        net, header = load_checkpoint(workspace["model"])
        assert header["model_type"] == "ann"
        assert header["quant_steps"] == 4
        mean, std = header["normalization"]
        assert 0.0 < mean < 1.0 and std > 0.0
        assert net.normalization == (mean, std)

    def test_converted_checkpoint_and_report(self, workspace):
        _, header = load_checkpoint(workspace["snn"])
        assert header["model_type"] == "snn"
        payload = json.loads(workspace["report"].read_text())
        ann, _ = load_checkpoint(workspace["model"])
        assert payload["thetas"] == ann.thresholds
        assert payload["v_init"] == [0.5 * t for t in payload["thetas"]]

    def test_convert_refuses_snn_checkpoint(self, workspace, tmp_path):
        code = main(["convert", "--model", str(workspace["snn"]),
                     "--out", str(tmp_path / "twice.ckpt")])
        assert code == EXIT_CONFIG

    def test_bad_arch(self, workspace, tmp_path):
        code = main(["train", "--data", str(workspace["data"]), "--arch", "vgg",
                     "--epochs", "1", "--out", str(tmp_path / "m.ckpt")])
        assert code == EXIT_CONFIG

    def test_out_paths_create_parent_dirs(self, workspace, tmp_path):
        model = tmp_path / "runs" / "deep" / "model.ckpt"
        assert main(["train", "--data", str(workspace["data"]), "--epochs", "0",
                     "--limit", "32", "--seed", "0", "--out", str(model)]) == EXIT_OK
        assert model.exists()
        snn = tmp_path / "converted" / "model-snn.ckpt"
        report = tmp_path / "reports" / "conv.json"
        assert main(["convert", "--model", str(model), "--out", str(snn),
                     "--report", str(report)]) == EXIT_OK
        assert snn.exists() and report.exists()
        metrics = tmp_path / "metrics" / "m.csv"
        assert main(["eval", "--model", str(snn), "--data", str(workspace["data"]),
                     "--split", "test", "--timesteps", "1", "--limit", "16",
                     "--out", str(metrics)]) == EXIT_OK
        assert metrics.exists()
        summary = tmp_path / "theorem" / "summary.json"
        assert main(["verify-theorem", "--weights", "0.5", "--counts", "1",
                     "--timesteps", "2", "--out", str(summary)]) == EXIT_OK
        assert summary.exists()

    def test_empty_train_split_is_data_error(self, tmp_path, capsys):
        data, model = tmp_path / "data", tmp_path / "m.ckpt"
        assert main(["make-data", "--out", str(data), "--train-count", "0",
                     "--test-count", "3"]) == EXIT_OK
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(model)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not model.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_loss_exits_four(self, workspace, tmp_path, capsys):
        model = tmp_path / "m.ckpt"
        code = main(["train", "--data", str(workspace["data"]), "--epochs", "1",
                     "--limit", "32", "--batch-size", "8", "--learning-rate", "1e200",
                     "--out", str(model)])
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite loss" in err
        assert not model.exists()

    @pytest.mark.parametrize("flag", ["--learning-rate", "--weight-decay"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_exits_two(self, workspace, tmp_path, flag, value, capsys):
        model = tmp_path / "m.ckpt"
        code = main(["train", "--data", str(workspace["data"]), "--epochs", "1",
                     "--limit", "32", flag, value, "--out", str(model)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert not model.exists()

    def test_weights_beyond_float32_exit_four(self, workspace, tmp_path, capsys):
        # one batch: the loss stays finite, but the step leaves weights that
        # the checkpoint's float32 cannot hold
        model = tmp_path / "m.ckpt"
        code = main(["train", "--data", str(workspace["data"]), "--epochs", "1",
                     "--limit", "32", "--learning-rate", "1e200", "--out", str(model)])
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "float32" in err
        assert not model.exists()

    def test_csv_dataset_route(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (40, 1, 28, 28)) / 255.0
        handle = DatasetHandle(images, rng.integers(0, 10, 40))
        csv_path = tmp_path / "tiny.csv"
        write_csv_dataset(handle, csv_path)
        code = main(["train", "--data", str(csv_path), "--epochs", "1",
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == EXIT_OK
        assert (tmp_path / "m.ckpt").exists()


class _TupleTraceRecorder:
    """Reference trace writer: one Python tuple per neuron and step, the
    layout ``TraceRecorder`` writes from its per-step arrays."""

    def __init__(self):
        self.rows = []

    def record(self, stage, t, u, s, v):
        flat_u, flat_s, flat_v = (np.ravel(a) for a in (u, s, v))
        for neuron in range(flat_u.size):
            self.rows.append((stage, neuron, t, flat_u[neuron], flat_s[neuron], flat_v[neuron]))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "neuron", "t", "u", "s", "v"])
            writer.writerows(self.rows)


@pytest.fixture(scope="module")
def cnn_workspace(tmp_path_factory):
    """A briefly trained CNN and a test split of four blocks."""
    root = tmp_path_factory.mktemp("cnn")
    data, model = root / "data", root / "cnn.ckpt"
    assert main(["make-data", "--out", str(data), "--train-count", "64",
                 "--test-count", str(4 * BLOCK_ROWS), "--seed", "0"]) == EXIT_OK
    assert main(["train", "--data", str(data), "--arch", "cnn", "--epochs", "1",
                 "--seed", "0", "--out", str(model)]) == EXIT_OK
    return {"data": data, "model": model}


def traced_growth(command: list, out) -> tuple:
    """Bytes of tracemalloc peak that ``command`` adds per sample beyond one
    block: its peak on four blocks of samples less its peak on one, over the
    three blocks' samples.  Also returns both peaks."""
    peaks = []
    for limit in (BLOCK_ROWS, 4 * BLOCK_ROWS):
        tracemalloc.start()
        try:
            code = main([*command, "--limit", str(limit), "--out", str(out(limit))])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
    return (peaks[1] - peaks[0]) / (3 * BLOCK_ROWS), peaks


class TestEval:
    def test_memory_bounded_by_block(self, cnn_workspace, tmp_path, cpus):
        # eval keeps only scores and simulates one block at a time, so a
        # sample beyond the first block costs far less than a float64 per
        # stage-0 neuron (6272 of them, 50 kB).  tracemalloc sees this
        # process only, so the blocks run here, on one CPU.
        cpus(1)
        growth, peaks = traced_growth(["eval", "--model", str(cnn_workspace["model"]),
                                       "--data", str(cnn_workspace["data"]), "--srp"],
                                      lambda limit: tmp_path / f"{limit}.csv")
        assert growth <= 16e3, (growth, peaks)

    def test_metrics_csv_round_trip(self, workspace, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "2,4",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_metrics(out)
        assert [r[0] for r in rows] == [2, 4]
        for _, acc_ann, acc_snn, acc_srp in rows:
            assert 0.0 <= acc_ann <= 1.0 and 0.0 <= acc_snn <= 1.0
            assert acc_srp is None

    def test_repeat_runs_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["eval", "--model", str(workspace["model"]),
                "--data", str(workspace["data"]), "--timesteps", "1,2"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_rows_match_single_timestep_runs(self, workspace, tmp_path):
        # eval simulates once at max(T); each row must equal its own run
        args = ["eval", "--model", str(workspace["model"]),
                "--data", str(workspace["data"]), "--srp", "--tau", "3"]
        together = tmp_path / "all.csv"
        assert main(args + ["--timesteps", "4,1,3", "--out", str(together)]) == EXIT_OK
        rows = []
        for timesteps in ("4", "1", "3"):
            out = tmp_path / f"t{timesteps}.csv"
            assert main(args + ["--timesteps", timesteps, "--out", str(out)]) == EXIT_OK
            rows += read_metrics(out)
        assert read_metrics(together) == rows

    def test_timesteps_must_be_positive(self, workspace, tmp_path):
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "0,2",
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_CONFIG

    def test_even_timing_matches_ann_at_matched_steps(self, workspace, tmp_path):
        out = tmp_path / "even.csv"
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "4",
                     "--even-timing", "--out", str(out)])
        assert code == EXIT_OK
        ((_, acc_ann, acc_snn, _),) = read_metrics(out)
        assert acc_snn == acc_ann

    def test_srp_column_populated(self, workspace, tmp_path):
        out = tmp_path / "srp.csv"
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "2",
                     "--srp", "--tau", "2", "--out", str(out)])
        assert code == EXIT_OK
        ((_, _, _, acc_srp),) = read_metrics(out)
        assert acc_srp is not None

    def test_trace_output(self, workspace, tmp_path):
        out = tmp_path / "m.csv"
        trace = tmp_path / "trace.csv"
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "2",
                     "--out", str(out), "--trace", str(trace)])
        assert code == EXIT_OK
        first = trace.read_text().splitlines()[0]
        assert first == "layer,neuron,t,u,s,v"

    def test_trace_csv_matches_tuple_writer(self, workspace, tmp_path, monkeypatch):
        def run(name):
            return main(["eval", "--model", str(workspace["model"]),
                         "--data", str(workspace["data"]), "--timesteps", "3,2",
                         "--trace-sample", "7", "--out", str(tmp_path / f"{name}-m.csv"),
                         "--trace", str(tmp_path / f"{name}.csv")])

        assert run("arrays") == EXIT_OK
        monkeypatch.setattr(cli, "TraceRecorder", _TupleTraceRecorder)
        assert run("tuples") == EXIT_OK
        reference = (tmp_path / "tuples.csv").read_bytes()
        assert reference.count(b"\n") == 1 + 3 * (256 + 128)  # header, 3 steps x 384 neurons
        assert (tmp_path / "arrays.csv").read_bytes() == reference

    def test_trace_sample_out_of_range(self, workspace, tmp_path):
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "2",
                     "--out", str(tmp_path / "m.csv"),
                     "--trace", str(tmp_path / "t.csv"), "--trace-sample", "999"])
        assert code == EXIT_CONFIG
        # checked before any simulation, so nothing is written
        assert not (tmp_path / "m.csv").exists()
        assert not (tmp_path / "t.csv").exists()

    def test_missing_model_file(self, workspace, tmp_path):
        code = main(["eval", "--model", str(tmp_path / "nope.ckpt"),
                     "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA

    def test_corrupt_checkpoint(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        code = main(["eval", "--model", str(bad), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA

    def test_nan_pixel_is_data_error(self, workspace, tmp_path):
        csv_path = tmp_path / "nan.csv"
        write_csv_dataset(DatasetHandle(np.full((1, 1, 28, 28), 0.5), np.array([3])),
                          csv_path)
        text = csv_path.read_text().splitlines()
        text[1] = text[1].replace("0.500000", "nan", 1)
        csv_path.write_text("\n".join(text) + "\n")
        code = main(["eval", "--model", str(workspace["model"]), "--data", str(csv_path),
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA

    def test_missing_split(self, workspace, tmp_path):
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--split", "validate",
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA


class TestPathErrors:
    """A path that cannot be read or written is a data problem (exit 3), not
    a traceback, and leaves nothing written."""

    def check(self, argv, tmp_path, capsys):
        capsys.readouterr()
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (tmp_path / "file").read_text() == "a file"

    @pytest.fixture
    def file(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("a file")
        return path

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        """An output is checked before any simulation starts."""
        def simulate(*args, **kwargs):
            pytest.fail("simulation ran before the output was checked")

        for name in ("snn_simulate", "srp_inference", "snn_forced_phi"):
            monkeypatch.setattr(cli, name, simulate)

    def test_make_data_out_below_a_file(self, file, tmp_path, capsys):
        self.check(["make-data", "--train-count", "2", "--test-count", "2",
                    "--out", str(file / "sub")], tmp_path, capsys)

    def test_eval_out_below_a_file(self, workspace, file, tmp_path, capsys, no_simulation):
        self.check(["eval", "--model", str(workspace["snn"]), "--data", str(workspace["data"]),
                    "--timesteps", "1", "--limit", "4", "--out", str(file / "m.csv")],
                   tmp_path, capsys)

    def test_eval_out_is_a_directory(self, workspace, file, tmp_path, capsys, no_simulation):
        self.check(["eval", "--model", str(workspace["snn"]), "--data", str(workspace["data"]),
                    "--limit", "4", "--srp", "--out", str(tmp_path)], tmp_path, capsys)

    def test_eval_trace_below_a_file(self, workspace, file, tmp_path, capsys, no_simulation):
        self.check(["eval", "--model", str(workspace["snn"]), "--data", str(workspace["data"]),
                    "--limit", "4", "--out", str(tmp_path / "m.csv"),
                    "--trace", str(file / "t.csv")], tmp_path, capsys)

    def test_analyze_out_below_a_file(self, workspace, file, tmp_path, capsys, no_simulation):
        self.check(["analyze", "--model", str(workspace["snn"]), "--data", str(workspace["data"]),
                    "--limit", "4", "--srp", "--out", str(file / "dir")], tmp_path, capsys)

    def test_eval_model_below_a_file(self, workspace, file, tmp_path, capsys):
        self.check(["eval", "--model", str(file / "x.ckpt"), "--data", str(workspace["data"]),
                    "--out", str(tmp_path / "m.csv")], tmp_path, capsys)


class TestLimit:
    @pytest.mark.parametrize("limit", ["-45", "0"])
    @pytest.mark.parametrize("command", ["train", "eval", "analyze"])
    def test_limit_below_one(self, workspace, tmp_path, command, limit, capsys):
        out = tmp_path / "out"
        model = [] if command == "train" else ["--model", str(workspace["snn"])]
        code = main([command, *model, "--data", str(workspace["data"]),
                     "--limit", limit, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--limit" in capsys.readouterr().err
        assert not out.exists()


class TestSeed:
    @pytest.mark.parametrize("command", ["convert", "eval", "analyze"])
    def test_commands_without_seed(self, workspace, tmp_path, command):
        # only make-data, train and verify-theorem draw random numbers
        out = tmp_path / "out"
        args = [command, "--model", str(workspace["snn"]), "--out", str(out)]
        if command != "convert":
            args += ["--data", str(workspace["data"])]
        with pytest.raises(SystemExit) as err:
            main(args + ["--seed", "99"])
        assert err.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=99\n")
        assert main(args + ["--config", str(cfg)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["make-data", "train", "verify-theorem"])
    def test_negative_seed_exits_two(self, workspace, tmp_path, command, capsys):
        out = tmp_path / "out"
        data = [] if command != "train" else ["--data", str(workspace["data"])]
        assert main([command, *data, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not out.exists()


class TestAnalyze:
    def test_memory_bounded_by_block(self, cnn_workspace, tmp_path, cpus):
        # analyze keeps spike counts and levels as small integers, not floats,
        # and builds one stage's float |phi - a| at a time; on one CPU, as in eval
        cpus(1)
        growth, peaks = traced_growth(["analyze", "--model", str(cnn_workspace["model"]),
                                       "--data", str(cnn_workspace["data"]), "--srp",
                                       "--timesteps", "4"],
                                      lambda limit: tmp_path / f"analysis-{limit}")
        assert growth <= 36e3, (growth, peaks)

    def test_reports_written(self, workspace, tmp_path):
        out = tmp_path / "analysis"
        code = main(["analyze", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "4",
                     "--limit", "64", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("type_I.csv", "type_I.json", "type_II.csv", "type_II.json"):
            assert (out / name).exists()
        payload = json.loads((out / "type_I.json").read_text())
        for stats in payload["summary"]["layers"]:
            assert sum(stats["fractions"].values()) == pytest.approx(1.0)

    def test_srp_artifacts(self, workspace, tmp_path, capsys):
        out = tmp_path / "analysis"
        code = main(["analyze", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "4",
                     "--tau", "4", "--srp", "--limit", "64", "--out", str(out)])
        assert code == EXIT_OK
        # one "wrote" line per file written
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in ("type_I.csv", "type_I.json", "type_II.csv",
                                               "type_II.json", "srp_before.csv",
                                               "srp_after.csv", "srp_effect.json")]
        for name in ("srp_before.csv", "srp_after.csv", "srp_effect.json"):
            assert (out / name).exists()
        # "before" is the plain Type II report itself
        assert (out / "srp_before.csv").read_bytes() == (out / "type_II.csv").read_bytes()
        payload = json.loads((out / "srp_effect.json").read_text())
        assert payload["tau"] == 4
        assert {"before", "after"} <= set(payload)

    def test_rerun_replaces_files(self, workspace, tmp_path):
        out = tmp_path / "analysis"
        argv = ["analyze", "--model", str(workspace["model"]), "--data", str(workspace["data"]),
                "--timesteps", "4", "--srp", "--limit", "64", "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == EXIT_OK
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        assert len(first) == 7  # no temp file is left beside the seven reports

    def test_bad_timesteps_writes_nothing(self, workspace, tmp_path):
        # the early output check creates no directory
        out = tmp_path / "analysis"
        assert main(["analyze", "--model", str(workspace["model"]), "--data",
                     str(workspace["data"]), "--timesteps", "0", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_timesteps_takes_one_integer(self):
        with pytest.raises(SystemExit) as err:
            main(["analyze", "--timesteps", "2,4"])
        assert err.value.code == 2


class TestForkedBlocks:
    """With more than one CPU, eval and analyze simulate their blocks in
    forked workers, with the serial run's bytes, errors and exit codes."""

    @pytest.fixture(scope="class")
    def split(self, tmp_path_factory):
        """A test split of two blocks: on two CPUs the first runs in the
        command's process and the second, partial one in a worker."""
        data = tmp_path_factory.mktemp("blocks") / "data"
        assert main(["make-data", "--out", str(data), "--train-count", "1",
                     "--test-count", str(BLOCK_ROWS + 44), "--seed", "3"]) == EXIT_OK
        return data

    @staticmethod
    def assert_no_children():
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", [["eval"], ["eval", "--even-timing"],
                                         ["analyze", "--limit", str(2 * BLOCK_ROWS)]],
                             ids=" ".join)
    def test_outputs_byte_identical(self, workspace, split, tmp_path, cpus, command):
        outputs = []
        for n in (1, 2):
            forks = cpus(n)
            out = tmp_path / str(n)
            assert main([*command, "--srp", "--model", str(workspace["snn"]),
                         "--data", str(split), "--out", str(out / "result")]) == EXIT_OK
            assert len(forks) == n - 1
            self.assert_no_children()
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert outputs[0] and outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_worker_error_as_in_serial_run(self, workspace, split, tmp_path, cpus,
                                           monkeypatch, capfd, command):
        srp_inference = cli.srp_inference

        def fail_last_block(snn, x, *args):
            if len(x) < BLOCK_ROWS:
                raise ConversionError("no run for the last block")
            return srp_inference(snn, x, *args)

        monkeypatch.setattr(cli, "srp_inference", fail_last_block)
        for n in (1, 2):
            forks = cpus(n)
            out = tmp_path / str(n)
            assert main([command, "--srp", "--limit", str(2 * BLOCK_ROWS),
                         "--model", str(workspace["snn"]), "--data", str(split),
                         "--out", str(out)]) == EXIT_INVARIANT
            assert capfd.readouterr().err == "error: no run for the last block\n"
            assert len(forks) == n - 1
            self.assert_no_children()
            assert not out.exists()


def test_cli_import_leaves_out_multiprocessing():
    # importing multiprocessing would add about 6 ms to every command's
    # start, and the forked block maps do without it
    code = ("import sys, snnconv.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(snnconv.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "[]\n"


def test_outputs_independent_of_blas_threads(workspace, tmp_path):
    """eval and analyze write byte-identical files with 1 and 2 BLAS threads."""
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(snnconv.__file__).resolve().parents[1]))
        out = tmp_path / threads
        common = ["--model", str(workspace["model"]), "--data", str(workspace["data"]),
                  "--srp", "--tau", "3"]
        for argv in (["eval", *common, "--timesteps", "1,2,4", "--out", str(out / "m.csv")],
                     ["analyze", *common, "--timesteps", "4", "--out", str(out / "a")]):
            subprocess.run([sys.executable, "-m", "snnconv.cli", *argv], env=env,
                           check=True, capture_output=True, timeout=120)
        outputs[threads] = {p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()}
    assert len(outputs["1"]) == 8  # metrics.csv and 7 analysis files
    assert outputs["1"] == outputs["2"]


def test_traced_benchmark_names_resolve():
    """The traced benchmark wraps each key of ``SPANS`` in
    ``bench/trace_child.py`` as an attribute of ``snnconv.cli``; the file is
    read, not imported."""
    source = (Path(__file__).resolve().parents[1] / "bench" / "trace_child.py").read_text()
    spans = next(node.value for node in ast.parse(source).body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "SPANS")
    names = ast.literal_eval(spans)
    assert names
    assert [name for name in names if not hasattr(cli, name)] == []
    assert [name for name in snnconv.__all__ if not hasattr(snnconv, name)] == []


class TestVerifyTheorem:
    def test_sweep_clean(self, tmp_path, capsys):
        out = tmp_path / "summary.json"
        code = main(["verify-theorem", "--draws", "3", "--timesteps", "2,3",
                     "--seed", "0", "--out", str(out)])
        assert code == EXIT_OK
        assert "0 violations" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["mode"] == "sweep"
        assert payload["violations"] == 0

    def test_instance_mode(self, capsys):
        code = main(["verify-theorem", "--weights", "2,-1", "--counts", "3,3",
                     "--timesteps", "6"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "400" in out and "0 violations" in out

    def test_zero_residual_instance_clean(self, capsys):
        # exact v(T) = 0 where the float run gives -2.2e-16
        code = main(["verify-theorem", "--weights=0.5,-1.2,1.7", "--counts=2,3,3",
                     "--timesteps=8"])
        assert code == EXIT_OK
        assert "87808 spike-timing placements, 0 violations" in capsys.readouterr().out

    def test_violations_exit_four(self, tmp_path, capsys, monkeypatch):
        step = analysis.if_step

        def leaky(v, current, theta):
            v_next, fired = step(v, current, theta)
            return 0.9 * v_next, fired

        monkeypatch.setattr(analysis, "if_step", leaky)
        out = tmp_path / "instance.json"
        code = main(["verify-theorem", "--weights", "0.5,0.25", "--counts", "1,2",
                     "--timesteps", "4", "--out", str(out)])
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        # every one of the 4 * 6 placements fails, each in its own
        # (count, v_final) class; five witnesses are printed
        assert err.count("violation:") == 5
        assert json.loads(out.read_text())["violations"] == 24

    def test_instance_needs_counts(self):
        assert main(["verify-theorem", "--weights", "2,-1"]) == EXIT_CONFIG

    def test_sweep_rejects_counts(self, capsys):
        code = main(["verify-theorem", "--counts=1,1", "--timesteps=2", "--draws=1"])
        assert code == EXIT_CONFIG
        assert "--weights" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--weights=1", "--counts=1", "--theta=inf"],
        ["--weights=nan", "--counts=1"],
        ["--weights=inf,1", "--counts=1,1"],
        ["--weights=1e308,1e308", "--counts=2,2"],
        ["--weights=1", "--counts=1", "--theta=0"],
    ], ids=["theta-inf", "weight-nan", "weight-inf", "residual-overflow", "theta-zero"])
    def test_instance_beyond_float64_exits_two(self, tmp_path, flags, capsys):
        out = tmp_path / "instance.json"
        assert main(["verify-theorem", *flags, "--timesteps=2", f"--out={out}"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_instance_takes_one_timesteps(self, capsys):
        code = main(["verify-theorem", "--weights", "1", "--counts", "1", "--timesteps", "2,4"])
        assert code == EXIT_CONFIG
        assert "--timesteps" in capsys.readouterr().err

    def test_instance_beyond_cap(self):
        code = main(["verify-theorem", "--weights", "1", "--counts", "4",
                     "--timesteps", "9"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("theta", ["-1", "0.5"])
    def test_sweep_rejects_theta(self, theta, capsys):
        code = main(["verify-theorem", "--timesteps", "2", "--draws", "3", f"--theta={theta}"])
        assert code == EXIT_CONFIG
        assert "--weights" in capsys.readouterr().err

    @pytest.mark.parametrize("draws", ["0", "-4"])
    def test_sweep_needs_draws(self, tmp_path, draws, capsys):
        out = tmp_path / "sweep.json"
        code = main(["verify-theorem", "--draws", draws, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "draws" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_accepts_default_theta(self):
        code = main(["verify-theorem", "--timesteps", "2", "--draws", "3", "--theta=1.0"])
        assert code == EXIT_OK


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n"
                       "epochs = 5\n"
                       "timesteps=2,4\n"
                       "\n"
                       "srp=true  # trailing comment\n")
        values = parse_config_file(cfg)
        assert values == {"epochs": "5", "timesteps": "2,4", "srp": "true"}

    def test_unknown_key(self, workspace, tmp_path, capsys):
        # tau is an option of eval and analyze, not of train
        for key in ("optimizer", "tau"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}=4\n")
            code = main(["train", "--config", str(cfg), "--data", str(workspace["data"]),
                         "--epochs", "0", "--out", str(tmp_path / "m.ckpt")])
            assert code == EXIT_CONFIG
            assert f"unknown key {key!r}" in capsys.readouterr().err
            assert not (tmp_path / "m.ckpt").exists()

    def test_bad_value_names_key(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=abc\n")
        code = main(["train", "--config", str(cfg), "--data", str(workspace["data"]),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == EXIT_CONFIG
        assert "'epochs'" in capsys.readouterr().err

    def test_config_values_typed_by_options(self, workspace, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("timesteps=2,4\nsrp=yes\ntau=2\nlimit=16\n")
        out = tmp_path / "m.csv"
        code = main(["eval", "--config", str(cfg), "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_metrics(out)
        assert [r[0] for r in rows] == [2, 4]
        assert all(r[3] is not None for r in rows)

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        with pytest.raises(ParameterError, match="key=value"):
            parse_config_file(cfg)

    def test_cli_flag_beats_config(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\n")
        code = main(["train", "--config", str(cfg), "--data", str(workspace["data"]),
                     "--epochs", "1", "--limit", "50",
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "epoch 1/1" in out and "epoch 2/" not in out

    def test_config_supplies_missing_flags(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data={workspace['data']}\nepochs=1\nlimit=50\n")
        code = main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "m.ckpt")])
        assert code == EXIT_OK
        assert "epoch 1/1" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "none.cfg"),
                     "--data", "whatever"])
        assert code == EXIT_CONFIG

    def test_bad_flag_value_exits_two(self):
        assert main(["eval", "--timesteps", "2,x"]) == EXIT_CONFIG

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2
