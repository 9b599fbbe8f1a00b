"""Model persistence: JSON header followed by a flat float32 payload.

Layout::

    bytes 0..7    magic b"SNNCONV1"
    bytes 8..11   header length H, little-endian uint32
    bytes 12..    UTF-8 JSON header (H bytes)
    then          little-endian float32 values, weights then bias per
                  weighted layer, in declaration order

The header carries everything non-tensor: layer kinds and shapes, the
quantization step count, per-layer thresholds, input standardization
constants, and an optional model type tag ("ann" or "snn"; the tensors are
identical either way since conversion reuses them).

The reader only parses: it checks the framing, the payload and the fields
that slice it (``shape``, ``has_bias``, ``payload_count``).
:class:`LayerParams` and :class:`NetworkSpec` check the network itself, and
the reader turns their errors into :class:`DataFormatError`.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import DataFormatError, ParameterError, ShapeError, whole
from .network import WEIGHTED_KINDS, LayerParams, NetworkSpec
from .output import open_output

MAGIC = b"SNNCONV1"
FORMAT_VERSION = 1


def _layer_header(layer: LayerParams) -> dict:
    entry: dict = {"kind": layer.kind}
    if layer.kind in WEIGHTED_KINDS:
        entry["shape"] = list(layer.weights.shape)
        entry["has_bias"] = layer.bias is not None
        entry["lam"] = layer.lam
    if layer.kind == "conv2d":
        entry["stride"] = layer.stride
        entry["padding"] = layer.padding
    elif layer.kind == "avgpool2d":
        entry["pool"] = layer.pool
    return entry


def save_checkpoint(net: NetworkSpec, path, model_type: str = "ann") -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "model_type": model_type,
        "quant_steps": net.quant_steps,
        "input_shape": list(net.input_shape),
        "normalization": list(net.normalization) if net.normalization else None,
        "layers": [_layer_header(l) for l in net.layers],
    }
    chunks = []
    for layer in net.layers:
        if layer.weights is not None:
            chunks.append(layer.weights.astype("<f4").ravel())
            if layer.bias is not None:
                chunks.append(layer.bias.astype("<f4").ravel())
    payload = np.concatenate(chunks) if chunks else np.empty(0, dtype="<f4")
    header["payload_count"] = int(payload.size)

    header_bytes = json.dumps(header).encode("utf-8")
    with open_output(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload.tobytes())


_MISSING = object()


def _field(entry: dict, key: str, valid, default=_MISSING):
    """``entry[key]`` (or ``default`` when absent), refused unless ``valid``."""
    value = entry.get(key, default)
    if value is _MISSING:
        raise DataFormatError(f"checkpoint header: missing {key!r}")
    if not valid(value):
        raise DataFormatError(f"checkpoint header: malformed {key!r}: {value!r}")
    return value


def _present(value) -> bool:
    """Any value: the object built from it checks it."""
    return True


def load_checkpoint(path):
    """Read a checkpoint; returns ``(NetworkSpec, header_dict)``.

    Raises :class:`DataFormatError` with the byte offset on any structural
    problem (bad magic, truncated header or payload, non-finite values), on
    a missing header field, and on a network that cannot be built.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4:
        raise DataFormatError(f"checkpoint truncated at byte {len(blob)}: no header")
    if blob[: len(MAGIC)] != MAGIC:
        raise DataFormatError(f"bad checkpoint magic at byte 0: {blob[:8]!r}")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_start = len(MAGIC) + 4
    header_end = header_start + header_len
    if len(blob) < header_end:
        raise DataFormatError(f"checkpoint truncated at byte {len(blob)}: header needs {header_end}")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"unparseable checkpoint header at byte {header_start}: {exc}") from exc
    if not isinstance(header, dict):
        raise DataFormatError(f"checkpoint header at byte {header_start} is not a JSON object")

    if (len(blob) - header_end) % 4:
        raise DataFormatError(f"payload truncated at byte {len(blob)}: "
                              "not a whole number of float32 values")
    payload = np.frombuffer(blob[header_end:], dtype="<f4")
    expected = _field(header, "payload_count",
                      lambda v: v is None or (type(v) is int and v >= 0), None)
    if expected is not None and payload.size != expected:
        raise DataFormatError(
            f"payload truncated at byte {header_end + payload.size * 4}: "
            f"have {payload.size} floats, header declares {expected}")
    finite = np.isfinite(payload)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataFormatError(f"non-finite payload value at byte {header_end + 4 * bad}")

    try:
        layers = []
        offset = 0
        for entry in _field(header, "layers",
                            lambda v: isinstance(v, list) and all(isinstance(e, dict) for e in v)):
            kind = entry.get("kind")
            if kind in WEIGHTED_KINDS:
                sizes = _field(entry, "shape", lambda v: isinstance(v, list) and len(v) > 0)
                shape = tuple(whole(size, "a weight axis", 0) for size in sizes)
                has_bias = _field(entry, "has_bias", lambda v: type(v) is bool, False)
                split = offset + math.prod(shape)
                end = split + (shape[0] if has_bias else 0)
                if end > payload.size:
                    raise DataFormatError(f"payload has {payload.size} floats but layers need {end}")
                w = payload[offset:split].astype(np.float64).reshape(shape)
                b = payload[split:end].astype(np.float64) if has_bias else None
                offset = end
                fields = {key: entry[key] for key in ("lam", "stride", "padding") if key in entry}
                layers.append(LayerParams(kind, w, b, **fields))
            elif kind == "avgpool2d":
                layers.append(LayerParams(kind=kind, pool=_field(entry, "pool", _present)))
            elif kind == "flatten":
                layers.append(LayerParams(kind=kind))
            else:
                raise DataFormatError(f"unknown layer kind {kind!r} in checkpoint header")
        if offset != payload.size:
            raise DataFormatError(f"payload has {payload.size} floats but layers consume {offset}")
        net = NetworkSpec(layers, _field(header, "quant_steps", _present),
                          _field(header, "input_shape", _present), header.get("normalization"))
    except (ParameterError, ShapeError) as exc:
        raise DataFormatError(f"checkpoint header describes no valid network: {exc}") from exc
    return net, header
