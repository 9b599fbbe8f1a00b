import struct

import numpy as np
import pytest

from snnconv.datasets import (
    DatasetHandle,
    load_csv_dataset,
    load_idx_images,
    load_idx_labels,
    load_idx_pair,
    materialize_idx,
    standardization_stats,
    standardize,
    synthetic_digits,
    write_idx_images,
    write_idx_labels,
)
from snnconv.errors import DataFormatError, DataValidationError, ParameterError

from helpers import write_csv_dataset


def pack_images(path, pixels, rows=28, cols=28, magic=0x00000803):
    """Author an IDX image file byte by byte, independent of the writer."""
    n = len(pixels) // (rows * cols)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", magic, n, rows, cols))
        fh.write(bytes(pixels))


def pack_labels(path, labels, magic=0x00000801):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", magic, len(labels)))
        fh.write(bytes(labels))


class TestIdxImages:
    def test_four_image_fixture(self, tmp_path):
        path = tmp_path / "imgs"
        pixels = (list(range(256)) * 13)[:4 * 784]
        pack_images(path, pixels)
        images = load_idx_images(path)
        assert images.shape == (4, 1, 28, 28)
        assert images.dtype == np.float64
        assert images.min() == 0.0 and images.max() == 1.0
        assert images[0, 0, 0, 0] == 0.0
        assert images[0, 0, 0, 1] == 1 / 255

    def test_empty_file(self, tmp_path):
        path = tmp_path / "imgs"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError, match="offset 0"):
            load_idx_images(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "imgs"
        pack_images(path, [0] * 784, magic=0x00000804)
        with pytest.raises(DataFormatError, match="magic"):
            load_idx_images(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "imgs"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 28, 28))
            fh.write(bytes(784))  # one image short
        with pytest.raises(DataFormatError, match="offset 16"):
            load_idx_images(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "imgs"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 1, 28, 28))
            fh.write(bytes(785))
        with pytest.raises(DataFormatError, match="trailing"):
            load_idx_images(path)


class TestIdxLabels:
    def test_load(self, tmp_path):
        path = tmp_path / "labels"
        pack_labels(path, [3, 1, 4, 1])
        labels = load_idx_labels(path)
        assert labels.dtype == np.int64
        assert list(labels) == [3, 1, 4, 1]

    def test_out_of_range_label(self, tmp_path):
        path = tmp_path / "labels"
        pack_labels(path, [1, 255, 2])
        with pytest.raises(DataValidationError, match="255"):
            load_idx_labels(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "labels"
        pack_labels(path, [1], magic=0x00000803)
        with pytest.raises(DataFormatError, match="offset 0"):
            load_idx_labels(path)

    def test_pair_count_mismatch(self, tmp_path):
        ipath, lpath = tmp_path / "i", tmp_path / "l"
        pack_images(ipath, [0] * (2 * 784))
        pack_labels(lpath, [1, 2, 3])
        with pytest.raises(DataValidationError, match="2 images but 3 labels"):
            load_idx_pair(ipath, lpath)


class TestIdxWriters:
    def test_round_trip_exact_on_byte_grid(self, rng, tmp_path):
        images = rng.integers(0, 256, (6, 1, 9, 9)).astype(np.float64) / 255.0
        labels = rng.integers(0, 10, 6)
        handle = DatasetHandle(images, labels)
        ipath, lpath = materialize_idx(handle, tmp_path, "toy")
        assert ipath.name == "toy-images-idx3-ubyte"
        assert lpath.name == "toy-labels-idx1-ubyte"
        back = load_idx_pair(ipath, lpath)
        assert np.array_equal(back.images, images)
        assert np.array_equal(back.labels, labels)

    def test_general_floats_quantized_to_half_step(self, rng, tmp_path):
        images = rng.uniform(0, 1, (3, 1, 5, 5))
        path = tmp_path / "imgs"
        write_idx_images(images, path)
        assert np.abs(load_idx_images(path) - images).max() <= 0.5 / 255 + 1e-12

    def test_writer_validation(self, tmp_path):
        with pytest.raises(DataValidationError):
            write_idx_images(np.zeros((2, 3, 4, 4)), tmp_path / "x")
        with pytest.raises(DataValidationError):
            write_idx_labels(np.array([[1]]), tmp_path / "y")
        with pytest.raises(DataValidationError):
            write_idx_labels(np.array([300]), tmp_path / "z")


class TestCsv:
    def write(self, path, text):
        path.write_text(text)
        return path

    def test_two_row_fixture(self, tmp_path):
        path = self.write(tmp_path / "d.csv",
                          "label,f0,f1,f2,f3\n"
                          "7,0.000000,0.250000,0.500000,1.000000\n"
                          "0,1.000000,0.750000,0.000000,0.125000\n")
        handle = load_csv_dataset(path, image_side=2)
        assert handle.images.shape == (2, 1, 2, 2)
        assert list(handle.labels) == [7, 0]
        assert handle.images[0, 0, 0, 1] == 0.25
        assert handle.images[1, 0, 1, 1] == 0.125

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty"):
            load_csv_dataset(self.write(tmp_path / "d.csv", ""), image_side=2)

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path / "d.csv", "0,0.1,0.2,0.3,0.4\n")
        with pytest.raises(DataFormatError, match="line 1"):
            load_csv_dataset(path, image_side=2)

    def test_header_width(self, tmp_path):
        path = self.write(tmp_path / "d.csv", "label,f0,f1\n")
        with pytest.raises(DataFormatError, match="expected 5 columns"):
            load_csv_dataset(path, image_side=2)

    def test_ragged_row_reports_line(self, tmp_path):
        path = self.write(tmp_path / "d.csv",
                          "label,f0,f1,f2,f3\n"
                          "1,0.1,0.2,0.3,0.4\n"
                          "2,0.1,0.2\n")
        with pytest.raises(DataFormatError, match="line 3"):
            load_csv_dataset(path, image_side=2)

    def test_non_numeric_reports_line(self, tmp_path):
        path = self.write(tmp_path / "d.csv",
                          "label,f0,f1,f2,f3\n"
                          "1,0.1,oops,0.3,0.4\n")
        with pytest.raises(DataFormatError, match="line 2"):
            load_csv_dataset(path, image_side=2)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path / "d.csv", "label,f0,f1,f2,f3\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv_dataset(path, image_side=2)

    def test_label_range(self, tmp_path):
        path = self.write(tmp_path / "d.csv",
                          "label,f0,f1,f2,f3\n"
                          "11,0.1,0.2,0.3,0.4\n")
        with pytest.raises(DataValidationError, match="line 2"):
            load_csv_dataset(path, image_side=2)

    def test_pixel_range(self, tmp_path):
        path = self.write(tmp_path / "d.csv",
                          "label,f0,f1,f2,f3\n"
                          "1,0.1,0.2,0.3,1.4\n")
        with pytest.raises(DataValidationError, match="pixel"):
            load_csv_dataset(path, image_side=2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_pixel(self, tmp_path, value):
        path = self.write(tmp_path / "d.csv",
                          "label,f0,f1,f2,f3\n"
                          f"1,0.1,{value},0.3,0.4\n")
        with pytest.raises(DataValidationError, match="pixel"):
            load_csv_dataset(path, image_side=2)

    def test_large_round_trip_exact(self, rng, tmp_path):
        # values on the 1e-6 grid survive the %.6f serialization bitwise
        n, side = 10_000, 7
        images = rng.integers(0, 1_000_001, (n, 1, side, side)) / 1e6
        labels = rng.integers(0, 10, n)
        path = tmp_path / "big.csv"
        write_csv_dataset(DatasetHandle(images, labels), path)
        back = load_csv_dataset(path, image_side=side)
        assert np.array_equal(back.images, images)
        assert np.array_equal(back.labels, labels)


class TestSyntheticDigits:
    def test_shapes_and_ranges(self):
        handle = synthetic_digits(32, seed=0)
        assert handle.images.shape == (32, 1, 28, 28)
        assert handle.labels.shape == (32,)
        assert handle.images.min() >= 0.0 and handle.images.max() <= 1.0
        assert set(np.unique(handle.labels)) <= set(range(10))

    def test_deterministic_per_seed(self):
        a = synthetic_digits(16, seed=5)
        b = synthetic_digits(16, seed=5)
        c = synthetic_digits(16, seed=6)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.images, c.images)

    def test_classes_are_separable_by_template(self):
        # with small jitter a nearest-template readout nails nearly all of it
        handle = synthetic_digits(200, seed=1, max_shift=1, noise=0.05)
        templates = np.stack([
            handle.images[handle.labels == d].mean(axis=0).ravel()
            for d in range(10)])
        flat = handle.images.reshape(len(handle), -1)
        pred = np.argmax(flat @ templates.T
                         - 0.5 * np.sum(templates ** 2, axis=1), axis=1)
        assert np.mean(pred == handle.labels) > 0.9

    @pytest.mark.parametrize("kwargs", [{"n": -1}, {"n": 4, "noise": -1.0},
                                        {"n": 4, "noise": float("nan")}])
    def test_bad_count_or_noise(self, kwargs):
        with pytest.raises(ParameterError):
            synthetic_digits(**kwargs)

    def test_handle_subset(self):
        handle = synthetic_digits(10, seed=0)
        sub = handle.subset(slice(0, 4))
        assert len(sub) == 4
        assert np.array_equal(sub.images, handle.images[:4])


class TestStandardization:
    def test_stats_and_apply(self, rng):
        images = rng.uniform(0, 1, (50, 1, 4, 4))
        mean, std = standardization_stats(images)
        assert mean == pytest.approx(images.mean())
        assert std == pytest.approx(images.std())
        z = standardize(images, (mean, std))
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_input_does_not_divide_by_zero(self):
        images = np.full((3, 1, 2, 2), 0.25)
        mean, std = standardization_stats(images)
        assert std == 1.0
        assert np.all(standardize(images, (mean, std)) == 0.0)
