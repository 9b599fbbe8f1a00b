import json
import struct

import numpy as np
import pytest

from snnconv.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from snnconv.cli import EXIT_DATA, main
from snnconv.datasets import materialize_idx, synthetic_digits
from snnconv.engine import convert
from snnconv.errors import DataFormatError, ParameterError
from snnconv.network import LayerParams, NetworkSpec, cnn_preset
from snnconv.training import init_network

from helpers import random_dense_net


def exactly_representable(net):
    """Round weights to float32 and pin thresholds to dyadic values so the
    save/load comparison can demand equality instead of closeness."""
    for i, layer in enumerate(net.layers):
        if layer.weights is not None:
            layer.weights = layer.weights.astype(np.float32).astype(np.float64)
            layer.bias = layer.bias.astype(np.float32).astype(np.float64)
        if layer.lam is not None:
            layer.lam = [1.0, 0.5, 0.25, 2.0][i % 4]
    return net


class TestRoundTrip:
    def test_values_close_after_one_trip(self, rng, tmp_path):
        net = init_network(random_dense_net(rng, 4), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        loaded, header = load_checkpoint(path)
        assert header["model_type"] == "ann"
        assert header["quant_steps"] == 4
        assert loaded.quant_steps == net.quant_steps
        assert loaded.input_shape == net.input_shape
        for src, dst in zip(net.layers, loaded.layers):
            assert dst.kind == src.kind
            # float32 payload: relative error bounded by one mantissa ulp
            assert np.allclose(dst.weights, src.weights, rtol=1e-7, atol=1e-7)
            assert np.allclose(dst.bias, src.bias, rtol=1e-7, atol=1e-7)
            assert dst.lam == src.lam

    def test_second_trip_is_byte_identical(self, rng, tmp_path):
        net = exactly_representable(random_dense_net(rng, 4))
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(net, first)
        loaded, _ = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_exact_values_survive(self, rng, tmp_path):
        net = exactly_representable(random_dense_net(rng, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        loaded, header = load_checkpoint(path)
        for src, dst in zip(net.layers, loaded.layers):
            assert np.array_equal(dst.weights, src.weights)
            assert dst.lam == src.lam
        # thresholds ride in the JSON header, so they are doubles end to end
        lams = [e["lam"] for e in header["layers"] if "lam" in e]
        assert lams == [l.lam for l in net.layers]

    def test_cnn_structure_preserved(self, tmp_path):
        net = init_network(cnn_preset(4), seed=0)
        net.normalization = (0.1307, 0.3081)
        path = tmp_path / "cnn.ckpt"
        save_checkpoint(net, path)
        loaded, header = load_checkpoint(path)
        assert [l.kind for l in loaded.layers] == [l.kind for l in net.layers]
        assert loaded.layers[0].padding == 1
        assert loaded.layers[1].pool == 2
        assert loaded.normalization == (0.1307, 0.3081)
        assert header["normalization"] == [0.1307, 0.3081]

    def test_model_type_tag(self, rng, tmp_path):
        net = random_dense_net(rng, 4)
        path = tmp_path / "s.ckpt"
        save_checkpoint(net, path, model_type="snn")
        _, header = load_checkpoint(path)
        assert header["model_type"] == "snn"

    def test_convert_after_reload_keeps_thresholds(self, rng, tmp_path):
        net = exactly_representable(random_dense_net(rng, 4))
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        snn = convert(loaded)
        assert snn.thetas == net.thresholds
        report_thetas = [0.5 * t for t in snn.thetas]
        assert report_thetas == [0.5 * l for l in net.thresholds]


class TestCorruption:
    def good_bytes(self, rng, tmp_path):
        net = random_dense_net(rng, 4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        return path.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError, match="byte 0"):
            load_checkpoint(path)

    def test_bad_magic(self, rng, tmp_path):
        blob = self.good_bytes(rng, tmp_path)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXNNCON1" + blob[8:])
        with pytest.raises(DataFormatError, match="magic at byte 0"):
            load_checkpoint(path)

    def test_truncated_header(self, rng, tmp_path):
        blob = self.good_bytes(rng, tmp_path)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[:20])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_payload(self, rng, tmp_path):
        blob = self.good_bytes(rng, tmp_path)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[:-8])  # drop two float32 values
        with pytest.raises(DataFormatError, match="payload truncated"):
            load_checkpoint(path)

    def test_truncated_inside_a_value(self, rng, tmp_path):
        blob = self.good_bytes(rng, tmp_path)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[:-3])  # a partial float32 at the end
        with pytest.raises(DataFormatError, match="payload truncated"):
            load_checkpoint(path)

    def test_garbled_header_json(self, rng, tmp_path):
        blob = bytearray(self.good_bytes(rng, tmp_path))
        blob[len(MAGIC) + 4] = ord("?")  # break the opening brace
        path = tmp_path / "bad.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="unparseable"):
            load_checkpoint(path)

    def test_unknown_layer_kind(self, tmp_path):
        header = json.dumps({
            "format_version": 1, "model_type": "ann", "quant_steps": 4,
            "input_shape": [2], "normalization": None, "payload_count": 0,
            "layers": [{"kind": "mystery"}],
        }).encode()
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
        with pytest.raises(DataFormatError, match="mystery"):
            load_checkpoint(path)


def _good_header():
    return {"format_version": 1, "model_type": "ann", "quant_steps": 4,
            "input_shape": [2], "normalization": None, "payload_count": 6,
            "layers": [{"kind": "dense", "shape": [2, 2], "has_bias": True, "lam": None}]}


def _edited(**changes):
    header = _good_header()
    for key, value in changes.items():
        if value is None:
            del header[key]
        else:
            header[key] = value
    return header


def _layer(**changes):
    return {**_good_header()["layers"][0], **changes}


@pytest.mark.parametrize("header", [
    pytest.param([1, 2], id="not-an-object"),
    pytest.param(_edited(layers=None), id="no-layers"),
    pytest.param(_edited(quant_steps=None), id="no-quant-steps"),
    pytest.param(_edited(input_shape=None), id="no-input-shape"),
    pytest.param(_edited(layers={"kind": "dense"}), id="layers-not-list"),
    pytest.param(_edited(layers=["dense"]), id="layer-not-object"),
    pytest.param(_edited(quant_steps="4"), id="quant-steps-str"),
    pytest.param(_edited(quant_steps=0), id="quant-steps-zero"),
    pytest.param(_edited(input_shape="2"), id="input-shape-str"),
    pytest.param(_edited(normalization=[0.5]), id="normalization-short"),
    pytest.param(_edited(normalization=[0.1, 0.0]), id="normalization-std-zero"),
    pytest.param(_edited(normalization=[0.1, -1.0]), id="normalization-std-negative"),
    pytest.param(_edited(normalization=[True, 1.0]), id="normalization-mean-bool"),
    pytest.param(_edited(input_shape=[True]), id="input-size-bool"),
    pytest.param(_edited(layers=[{"shape": [2, 2]}]), id="no-kind"),
    pytest.param(_edited(layers=[_layer(shape=None)]), id="no-shape"),
    pytest.param(_edited(layers=[_layer(shape="2x2")]), id="shape-str"),
    pytest.param(_edited(layers=[_layer(shape=[2, 2, 1])]), id="shape-rank"),
    pytest.param(_edited(layers=[_layer(shape=[4, 2], has_bias=False)]),
                 id="shape-beyond-payload"),
    pytest.param(_edited(layers=[_layer(has_bias="yes")]), id="has-bias-str"),
    pytest.param(_edited(layers=[_layer(lam="1.0")]), id="lam-str"),
    pytest.param(_edited(layers=[_layer(lam=-1.0)]), id="lam-negative"),
    pytest.param(_edited(layers=[_layer(kind="conv2d", shape=[2, 2, 1, 1], stride="1")]),
                 id="stride-str"),
    pytest.param(_edited(layers=[_layer(), {"kind": "avgpool2d"}]), id="no-pool"),
    pytest.param(_edited(layers=[_layer(), {"kind": "avgpool2d", "pool": 0}]), id="pool-zero"),
    pytest.param("nan payload", id="nan-payload"),
])
def test_malformed_header_is_data_format_error(tmp_path, header):
    payload = np.arange(6, dtype="<f4")
    if header == "nan payload":
        header = _good_header()
        payload[3] = np.nan
    blob = json.dumps(header).encode()
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + payload.tobytes())
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def cnn_files(tmp_path_factory):
    """A small CNN checkpoint (every layer kind) and a test split for ``eval``."""
    root = tmp_path_factory.mktemp("chain")
    net = cnn_preset(4, channels=(2, 2), hidden=4)
    init_network(net, seed=0)
    save_checkpoint(net, root / "model.ckpt")
    materialize_idx(synthetic_digits(8, seed=0), root / "data", "test")
    return root


@pytest.mark.parametrize("layer,key,value", [
    pytest.param(0, "padding", 1_000_000_000, id="padding-1e9"),
    pytest.param(0, "padding", 2, id="padding-2"),
    pytest.param(1, "pool", 7, id="pool-7"),
    pytest.param(None, "input_shape", [3, 28, 28], id="input-channels"),
])
def test_layer_shapes_must_chain(cnn_files, tmp_path, layer, key, value):
    path = _edited_checkpoint(cnn_files, tmp_path, layer, key, value)
    with pytest.raises(DataFormatError, match="no valid network"):
        load_checkpoint(path)
    assert main(["eval", "--model", str(path), "--data", str(cnn_files / "data"),
                 "--out", str(tmp_path / "metrics.csv")]) == EXIT_DATA


@pytest.mark.parametrize("std", [0.0, -1.0, -1e300])
def test_normalization_std_must_be_positive(cnn_files, tmp_path, std, capsys):
    path = _edited_checkpoint(cnn_files, tmp_path, None, "normalization", [0.1, std])
    with pytest.raises(DataFormatError, match="normalization std"):
        load_checkpoint(path)
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--model", str(path), "--data", str(cnn_files / "data"),
                 "--out", str(out)]) == EXIT_DATA
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert not out.exists()


def test_tiny_normalization_std_is_data_error(cnn_files, tmp_path, capsys):
    # the std loads, but standardizing by it leaves float64
    path = _edited_checkpoint(cnn_files, tmp_path, None, "normalization", [0.1, 1e-320])
    assert load_checkpoint(path)[0].normalization == (0.1, 1e-320)
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--model", str(path), "--data", str(cnn_files / "data"),
                 "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: standardizing") and "Warning" not in err
    assert not out.exists()


def test_network_without_weighted_layer(cnn_files, tmp_path, capsys):
    with pytest.raises(ParameterError, match="at least one weighted layer"):
        NetworkSpec([LayerParams("flatten")], 4, (3,))
    header = json.dumps(_edited(layers=[{"kind": "flatten"}], input_shape=[3],
                                payload_count=0)).encode()
    path = tmp_path / "flatten.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(header)) + header)
    with pytest.raises(DataFormatError, match="at least one weighted layer"):
        load_checkpoint(path)
    out = tmp_path / "metrics.csv"
    assert main(["eval", "--model", str(path), "--data", str(cnn_files / "data"),
                 "--out", str(out)]) == EXIT_DATA
    assert "at least one weighted layer" in capsys.readouterr().err
    assert not out.exists()


def _edited_checkpoint(cnn_files, tmp_path, layer, key, value):
    """A copy of the CNN checkpoint with one header field (of layer ``layer``,
    or of the top level when ``None``) set to ``value``."""
    blob = (cnn_files / "model.ckpt").read_bytes()
    (length,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(blob[start:start + length])
    (header if layer is None else header["layers"][layer])[key] = value
    edited = json.dumps(header).encode()
    path = tmp_path / "edited.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", len(edited)) + edited + blob[start + length:])
    return path
