import json
from pathlib import Path

import numpy as np
import pytest

from snnconv.checkpoint import load_checkpoint
from snnconv.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    load_metrics_csv,
    main,
    parse_config_file,
)
from snnconv.datasets import DatasetHandle, write_csv_dataset
from snnconv.errors import ParameterError


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


class TestEval:
    def test_metrics_csv_round_trip(self, workspace, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "2,4",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = load_metrics_csv(out)
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

    def test_even_timing_matches_ann_at_matched_steps(self, workspace, tmp_path):
        out = tmp_path / "even.csv"
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "4",
                     "--even-timing", "--out", str(out)])
        assert code == EXIT_OK
        ((_, acc_ann, acc_snn, _),) = load_metrics_csv(out)
        assert acc_snn == acc_ann

    def test_srp_column_populated(self, workspace, tmp_path):
        out = tmp_path / "srp.csv"
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "2",
                     "--srp", "--tau", "2", "--out", str(out)])
        assert code == EXIT_OK
        ((_, _, _, acc_srp),) = load_metrics_csv(out)
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

    def test_trace_sample_out_of_range(self, workspace, tmp_path):
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "2",
                     "--out", str(tmp_path / "m.csv"),
                     "--trace", str(tmp_path / "t.csv"), "--trace-sample", "999"])
        assert code == EXIT_CONFIG

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

    def test_missing_split(self, workspace, tmp_path):
        code = main(["eval", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--split", "validate",
                     "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_DATA


class TestAnalyze:
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

    def test_srp_artifacts(self, workspace, tmp_path):
        out = tmp_path / "analysis"
        code = main(["analyze", "--model", str(workspace["model"]),
                     "--data", str(workspace["data"]), "--timesteps", "4",
                     "--tau", "4", "--srp", "--limit", "64", "--out", str(out)])
        assert code == EXIT_OK
        for name in ("srp_before.csv", "srp_after.csv", "srp_effect.json"):
            assert (out / name).exists()
        payload = json.loads((out / "srp_effect.json").read_text())
        assert payload["tau"] == 4
        assert {"before", "after"} <= set(payload)


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

    def test_instance_needs_counts(self):
        assert main(["verify-theorem", "--weights", "2,-1"]) == EXIT_CONFIG

    def test_instance_beyond_cap(self):
        code = main(["verify-theorem", "--weights", "1", "--counts", "4",
                     "--timesteps", "9"])
        assert code == EXIT_CONFIG


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
        rows = load_metrics_csv(out)
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
