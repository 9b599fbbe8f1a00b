"""Fuzz tests at the trust boundaries: checkpoint bytes and config files.

Only :class:`SnnConvError` subclasses may escape ``load_checkpoint``, and
``main`` may exit only with a documented code.  Examples are derandomized
and bounded so the module runs in a few seconds.
"""

import json
import os
import struct
import string
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from snnconv import (
    SnnConvError, ann_forward, cnn_preset, init_network, load_checkpoint, save_checkpoint,
)
from snnconv.checkpoint import MAGIC
from snnconv.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from snnconv.datasets import materialize_idx, synthetic_digits

HEADER_START = len(MAGIC) + 4
TOP_KEYS = ["format_version", "model_type", "quant_steps", "input_shape",
            "normalization", "payload_count", "layers"]
LAYER_KEYS = ["kind", "shape", "has_bias", "lam", "stride", "padding", "pool"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**40) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)

# (layer index or None for the top level, key, delete?, new value)
edits = st.lists(
    st.tuples(st.none() | st.integers(0, 6), st.sampled_from(TOP_KEYS + LAYER_KEYS),
              st.booleans(), json_values),
    min_size=1, max_size=3)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small trained-shape CNN checkpoint (every layer kind) and a test split."""
    root = tmp_path_factory.mktemp("fuzz")
    net = cnn_preset(4, channels=(2, 2), hidden=4)
    init_network(net, seed=0)
    save_checkpoint(net, root / "model.ckpt")
    materialize_idx(synthetic_digits(12, seed=0), root / "data", "test")
    return root


def _blob(workspace):
    return (workspace / "model.ckpt").read_bytes()


def _split(blob):
    (length,) = struct.unpack_from("<I", blob, len(MAGIC))
    header = json.loads(blob[HEADER_START:HEADER_START + length])
    return header, blob[HEADER_START + length:]


def _assemble(header_bytes, payload, length=None):
    length = len(header_bytes) if length is None else length
    return MAGIC + struct.pack("<I", length) + header_bytes + payload


def _load_bytes(workspace, blob):
    """Load ``blob`` as a checkpoint; anything but a typed error fails the test,
    and a network that loads must run forward on one zero sample."""
    with tempfile.TemporaryDirectory(dir=workspace) as tmp:
        path = os.path.join(tmp, "m.ckpt")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            net, _ = load_checkpoint(path)
        except SnnConvError:
            return
    ann_forward(net, np.zeros((1, *net.input_shape)))


def test_truncation_at_every_byte(workspace, tmp_path):
    blob = _blob(workspace)
    for end in range(len(blob)):
        # a fresh file each time: rewriting one file in place waits on the disk
        path = tmp_path / f"cut{end}.ckpt"
        path.write_bytes(blob[:end])
        with pytest.raises(SnnConvError):
            load_checkpoint(path)
        path.unlink()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edits=edits)
@example(edits=[(None, "layers", True, None)])
@example(edits=[(None, "quant_steps", False, "4")])
@example(edits=[(0, "shape", False, [2, 1, 3])])
@example(edits=[(5, "lam", False, float("nan"))])
def test_header_mutations(workspace, edits):
    header, payload = _split(_blob(workspace))
    for layer, key, delete, value in edits:
        layers = header.get("layers")
        target = header
        if (layer is not None and isinstance(layers, list) and layer < len(layers)
                and isinstance(layers[layer], dict)):
            target = layers[layer]
        if delete:
            target.pop(key, None)
        else:
            target[key] = value
    _load_bytes(workspace, _assemble(json.dumps(header).encode(), payload))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(length=st.integers(0, 2**32 - 1) | st.integers(-40, 40))
def test_header_length_field(workspace, length):
    header, payload = _split(_blob(workspace))
    header_bytes = json.dumps(header).encode()
    if length <= 40:
        length = max(0, len(header_bytes) + length)
    _load_bytes(workspace, _assemble(header_bytes, payload, length))


# Mostly eval's own keys, sometimes another command's key or a random name;
# values stay small so an accepted config runs in milliseconds, and carry no
# path separator so any output path lands in the example's own directory.
eval_keys = st.sampled_from(["model", "data", "split", "timesteps", "tau", "srp",
                             "even_timing", "limit", "trace", "trace_sample", "out"])
other_keys = (st.sampled_from(["config", "epochs", "draws", "trace-sample", "seed"])
              | st.text(string.ascii_letters + "_-", min_size=1, max_size=8))
config_values = (
    st.integers(-3, 12).map(str)
    | st.sampled_from(["true", "false", "yes", "off", ""])
    | st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(lambda ks: ",".join(map(str, ks)))
    | st.text(string.ascii_letters + string.digits + ",.-_ ", max_size=8))


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@settings(max_examples=80, deadline=None, derandomize=True)
@given(config=st.builds(
    lambda own, other: own + other,
    st.lists(st.tuples(eval_keys, config_values), max_size=4),
    st.lists(st.tuples(other_keys, config_values), max_size=1)))
@example(config=[("timesteps", "0")])
@example(config=[("trace", "."), ("trace_sample", "2")])
@example(config=[("srp", "yes"), ("tau", "0")])
def test_eval_config_files(workspace, config):
    with tempfile.TemporaryDirectory(dir=workspace) as tmp:
        path = os.path.join(tmp, "run.cfg")
        with open(path, "w") as fh:
            fh.writelines(f"{key}={value}\n" for key, value in config)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code = _exit_code(["eval", "--config", path,
                               "--model", str(workspace / "model.ckpt"),
                               "--data", str(workspace / "data"),
                               "--out", os.path.join(tmp, "metrics.csv")])
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)
