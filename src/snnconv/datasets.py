"""Dataset loading: IDX image/label files, CSV fallback, and a built-in
synthetic digit set for self-contained runs.

IDX layout (big-endian throughout):

    images: magic 0x00000803, then counts [n, rows, cols], then n*rows*cols
            unsigned bytes
    labels: magic 0x00000801, then count [n], then n unsigned bytes

Images are returned as float64 in [0, 1] shaped (n, 1, rows, cols); labels
as int64.  Malformed files raise DataFormatError with the byte offset of
the first problem; label values outside the class range raise
DataValidationError.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DataValidationError, ParameterError, finite, whole
from .output import open_output

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
NUM_CLASSES = 10


@dataclass
class DatasetHandle:
    images: np.ndarray     # (n, 1, rows, cols) float64 in [0, 1]
    labels: np.ndarray     # (n,) int64
    name: str = "dataset"

    def __len__(self):
        return self.images.shape[0]

    def subset(self, index) -> "DatasetHandle":
        return DatasetHandle(self.images[index], self.labels[index], self.name)


def _read_exact(fh, n: int, offset: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise DataFormatError(
            f"truncated {what}: wanted {n} bytes at offset {offset}, got {len(data)}")
    return data


def _read_idx(path, magic: int, what: str) -> np.ndarray:
    """The bytes of an IDX file shaped by its header, of rank ``magic``'s low byte."""
    path, header = Path(path), struct.Struct(f">{1 + (magic & 0xFF)}I")
    with open(path, "rb") as fh:
        found, *shape = header.unpack(_read_exact(fh, header.size, 0, f"{what} header"))
        if found != magic:
            raise DataFormatError(
                f"bad {what} magic 0x{found:08x} at offset 0 in {path.name}, "
                f"expected 0x{magic:08x}")
        count = math.prod(shape)
        raw = _read_exact(fh, count, header.size, f"{what} payload")
        if fh.read(1):
            raise DataFormatError(f"trailing bytes at offset {header.size + count} in {path.name}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def _write_idx(path, magic: int, data: np.ndarray) -> None:
    with open_output(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + data.ndim}I", magic, *data.shape))
        fh.write(data.tobytes())


def load_idx_images(path) -> np.ndarray:
    pixels = _read_idx(path, IDX_IMAGE_MAGIC, "image")[:, None]
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    labels = _read_idx(path, IDX_LABEL_MAGIC, "label").astype(np.int64)
    bad = np.nonzero(labels >= NUM_CLASSES)[0]
    if bad.size:
        i = int(bad[0])
        raise DataValidationError(
            f"label {labels[i]} at index {i} (byte offset {8 + i}) "
            f"outside 0..{NUM_CLASSES - 1}")
    return labels


def load_idx_pair(image_path, label_path, name: str = "idx") -> DatasetHandle:
    images = load_idx_images(image_path)
    labels = load_idx_labels(label_path)
    if images.shape[0] != labels.shape[0]:
        raise DataValidationError(
            f"{images.shape[0]} images but {labels.shape[0]} labels")
    return DatasetHandle(images, labels, name)


def write_idx_images(images: np.ndarray, path) -> None:
    """Inverse of load_idx_images; expects floats in [0, 1]."""
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[1] != 1:
        raise DataValidationError(f"expected (n, 1, rows, cols), got {images.shape}")
    pixels = np.clip(np.rint(images[:, 0] * 255.0), 0, 255).astype(np.uint8)
    _write_idx(path, IDX_IMAGE_MAGIC, pixels)


def write_idx_labels(labels: np.ndarray, path) -> None:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise DataValidationError(f"expected 1-d labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise DataValidationError("labels must fit in an unsigned byte")
    _write_idx(path, IDX_LABEL_MAGIC, labels.astype(np.uint8))


# ---------------------------------------------------------------------------
# CSV fallback: header "label,f0,f1,...", one sample per row


def load_csv_dataset(path, image_side: int = 28, name: str = "csv") -> DatasetHandle:
    path = Path(path)
    want = image_side * image_side
    labels = []
    pixels = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path.name}: empty file") from None
        if not header or header[0] != "label":
            raise DataFormatError(f"{path.name}: line 1: header must start with 'label'")
        if len(header) != want + 1:
            raise DataFormatError(
                f"{path.name}: line 1: expected {want + 1} columns, got {len(header)}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != want + 1:
                raise DataFormatError(
                    f"{path.name}: line {line_no}: expected {want + 1} values, "
                    f"got {len(row)}")
            try:
                labels.append(int(row[0]))
                pixels.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataFormatError(f"{path.name}: line {line_no}: {exc}") from None
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise DataFormatError(f"{path.name}: no data rows")
    bad = np.nonzero((labels < 0) | (labels >= NUM_CLASSES))[0]
    if bad.size:
        i = int(bad[0])
        raise DataValidationError(
            f"{path.name}: line {i + 2}: label {labels[i]} outside 0..{NUM_CLASSES - 1}")
    images = np.asarray(pixels, dtype=np.float64).reshape(-1, 1, image_side, image_side)
    # written so that NaN, which fails every comparison, is rejected too
    if not ((images >= 0.0) & (images <= 1.0)).all():
        raise DataValidationError(f"{path.name}: pixel values outside [0, 1] or not finite")
    return DatasetHandle(images, labels, name)


# ---------------------------------------------------------------------------
# synthetic digit glyphs
#
# 7x5 bitmaps per digit, upscaled to 28x28, randomly shifted and noised.
# Small enough to train in seconds yet hard enough that quantized nets
# leave visible headroom between coarse and fine step counts.

_GLYPHS = {
    0: ["01110",
        "10001",
        "10001",
        "10001",
        "10001",
        "10001",
        "01110"],
    1: ["00100",
        "01100",
        "00100",
        "00100",
        "00100",
        "00100",
        "01110"],
    2: ["01110",
        "10001",
        "00001",
        "00010",
        "00100",
        "01000",
        "11111"],
    3: ["11110",
        "00001",
        "00001",
        "01110",
        "00001",
        "00001",
        "11110"],
    4: ["00010",
        "00110",
        "01010",
        "10010",
        "11111",
        "00010",
        "00010"],
    5: ["11111",
        "10000",
        "11110",
        "00001",
        "00001",
        "10001",
        "01110"],
    6: ["00110",
        "01000",
        "10000",
        "11110",
        "10001",
        "10001",
        "01110"],
    7: ["11111",
        "00001",
        "00010",
        "00100",
        "01000",
        "01000",
        "01000"],
    8: ["01110",
        "10001",
        "10001",
        "01110",
        "10001",
        "10001",
        "01110"],
    9: ["01110",
        "10001",
        "10001",
        "01111",
        "00001",
        "00010",
        "01100"],
}


def _glyph_array(digit: int) -> np.ndarray:
    rows = _GLYPHS[digit]
    return np.array([[float(c) for c in row] for row in rows])


def synthetic_digits(n: int, seed: int = 0, max_shift: int = 3,
                     noise: float = 0.15) -> DatasetHandle:
    """Deterministic toy 28x28 digit set in the same shape as the IDX loaders.

    Each sample upscales a 7x5 glyph by 3x, pastes it at a random offset,
    scales its intensity, and adds clipped pixel noise.
    """
    side, scale = 28, 3
    gh, gw = 7 * scale, 5 * scale
    base_r = (side - gh) // 2
    base_c = (side - gw) // 2
    whole(n, "sample count", 0)
    if finite(noise, "noise") < 0:
        raise ParameterError(f"noise must be >= 0, got {noise}")
    if whole(max_shift, "max shift", 0) > base_r:  # the glyph stays on the canvas
        raise ParameterError(f"max shift must be <= {base_r}, got {max_shift}")
    rng = np.random.default_rng(whole(seed, "seed", 0))
    images = np.zeros((n, 1, side, side))
    labels = rng.integers(0, 10, size=n)
    for i in range(n):
        glyph = _glyph_array(int(labels[i]))
        big = np.kron(glyph, np.ones((scale, scale)))
        r = base_r + int(rng.integers(-max_shift, max_shift + 1))
        c = base_c + int(rng.integers(-max_shift, max_shift + 1))
        intensity = rng.uniform(0.6, 1.0)
        canvas = np.zeros((side, side))
        canvas[r:r + gh, c:c + gw] = big * intensity
        canvas += rng.normal(0.0, noise, size=(side, side))
        images[i, 0] = np.clip(canvas, 0.0, 1.0)
    return DatasetHandle(images, labels.astype(np.int64), "synthetic")


def materialize_idx(handle: DatasetHandle, directory, prefix: str) -> tuple:
    """Write a handle out as an IDX pair; returns the two paths."""
    directory = Path(directory)
    image_path = directory / f"{prefix}-images-idx3-ubyte"
    label_path = directory / f"{prefix}-labels-idx1-ubyte"
    write_idx_images(handle.images, image_path)
    write_idx_labels(handle.labels, label_path)
    return image_path, label_path


# ---------------------------------------------------------------------------
# input standardization


def standardization_stats(images: np.ndarray) -> tuple:
    """(mean, std) over the whole batch; std floored away from zero."""
    if images.size == 0:
        raise DataValidationError("no images to standardize")
    mean = float(images.mean())
    std = float(images.std())
    if std < 1e-8:
        std = 1.0
    return (mean, std)


def standardize(images: np.ndarray, stats) -> np.ndarray:
    mean, std = stats
    return (images - mean) / std
