import gzip
import struct

import numpy as np
import pytest

from slimnet.mnist import (
    IdxFormatError,
    MissingDataError,
    load_data_dir,
    load_idx_images,
    load_idx_labels,
    make_splits,
    one_hot,
    one_hot_labels,
)
from tests.conftest import require_mnist


# Independent byte-writer: builds fixtures without going through the
# package's own writers, so loader bugs cannot cancel out.
def build_image_bytes(images, magic=2051):
    arr = np.asarray(images, dtype=np.uint8)
    header = struct.pack(">iiii", magic, *arr.shape)
    return header + arr.tobytes()


def build_label_bytes(labels, magic=2049):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">ii", magic, len(arr)) + arr.tobytes()


def test_single_pixel_255_loads_as_one(tmp_path):
    img = np.zeros((1, 28, 28), dtype=np.uint8)
    img[0, 3, 4] = 255
    path = tmp_path / "one.idx"
    path.write_bytes(build_image_bytes(img))
    loaded = load_idx_images(path)
    assert loaded.shape == (1, 28, 28, 1)
    assert loaded[0, 3, 4, 0] == 1.0
    assert loaded.min() == 0.0


def test_normalization_optional(tmp_path):
    img = np.full((2, 4, 4), 51, dtype=np.uint8)
    path = tmp_path / "n.idx"
    path.write_bytes(build_image_bytes(img))
    assert load_idx_images(path).max() == pytest.approx(51 / 255)
    assert load_idx_images(path, normalize=False).max() == 51.0


def test_gzip_transparent(tmp_path):
    img = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
    path = tmp_path / "img.idx.gz"
    path.write_bytes(gzip.compress(build_image_bytes(img)))
    loaded = load_idx_images(path, normalize=False)
    np.testing.assert_array_equal(loaded[0, :, :, 0], img[0])


def test_labels_load_and_one_hot(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(build_label_bytes([7, 0, 9]))
    labels = load_idx_labels(path)
    np.testing.assert_array_equal(labels, [7, 0, 9])
    encoded = one_hot_labels(labels)
    assert encoded[0, 7] == 1.0 and encoded[0].sum() == 1.0


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(build_image_bytes(np.zeros((1, 4, 4), dtype=np.uint8), magic=1234))
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx_images(path)
    path2 = tmp_path / "bad2.idx"
    path2.write_bytes(build_label_bytes([1], magic=2051))
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx_labels(path2)


def test_truncated_payload_rejected(tmp_path):
    good = build_image_bytes(np.zeros((2, 4, 4), dtype=np.uint8))
    path = tmp_path / "short.idx"
    path.write_bytes(good[:-5])
    with pytest.raises(IdxFormatError, match="payload"):
        load_idx_images(path)


def test_dimension_mismatch_rejected(tmp_path):
    # header promises 3 images but carries bytes for 2
    arr = np.zeros((2, 4, 4), dtype=np.uint8)
    header = struct.pack(">iiii", 2051, 3, 4, 4)
    path = tmp_path / "mismatch.idx"
    path.write_bytes(header + arr.tobytes())
    with pytest.raises(IdxFormatError):
        load_idx_images(path)


def test_one_hot_basics():
    np.testing.assert_array_equal(one_hot(0), np.eye(10)[0])
    np.testing.assert_array_equal(one_hot(9), np.eye(10)[9])
    for label in range(10):
        assert one_hot(label).sum() == 1.0
    with pytest.raises(ValueError):
        one_hot(10)
    with pytest.raises(ValueError):
        one_hot(-1)


# --- splits -------------------------------------------------------------------


def _fake_corpus():
    rng = np.random.default_rng(0)
    train_images = rng.integers(0, 256, size=(60000, 28, 28, 1)).astype(np.float64) / 255.0
    train_labels = rng.integers(0, 10, size=60000)
    test_images = rng.integers(0, 256, size=(10000, 28, 28, 1)).astype(np.float64) / 255.0
    test_labels = rng.integers(0, 10, size=10000)
    return train_images, train_labels, test_images, test_labels


def test_make_splits_sizes_and_order():
    ti, tl, xi, xl = _fake_corpus()
    splits = make_splits(ti, tl, xi, xl)
    assert len(splits.train.images) == 55000
    assert len(splits.validation.images) == 5000
    assert len(splits.test.images) == 10000
    np.testing.assert_array_equal(splits.train.images[54999], ti[54999])
    np.testing.assert_array_equal(splits.validation.images[0], ti[55000])
    # partition: train + validation re-assembles the source file
    np.testing.assert_array_equal(
        np.concatenate([splits.train.images, splits.validation.images]), ti
    )
    assert splits.train.labels.shape == (55000, 10)
    np.testing.assert_array_equal(splits.train.labels.sum(axis=1), np.ones(55000))


def test_make_splits_rejects_wrong_sizes():
    ti, tl, xi, xl = _fake_corpus()
    with pytest.raises(ValueError, match="60000"):
        make_splits(ti[:100], tl[:100], xi, xl)
    with pytest.raises(ValueError, match="10000"):
        make_splits(ti, tl, xi[:5], xl[:5])
    with pytest.raises(ValueError, match="disagree"):
        make_splits(ti, tl[:59999], xi, xl)


@pytest.mark.parametrize("bad", [10, -1])
def test_make_splits_rejects_out_of_range_labels(bad):
    ti, tl, xi, xl = _fake_corpus()
    tl[123] = bad
    with pytest.raises(IdxFormatError, match="training labels"):
        make_splits(ti, tl, xi, xl)
    tl[123] = 0
    xl[-1] = bad
    with pytest.raises(IdxFormatError, match="test labels"):
        make_splits(ti, tl, xi, xl)


def test_load_data_dir_lists_missing_files(tmp_path):
    with pytest.raises(MissingDataError, match="train-images-idx3-ubyte"):
        load_data_dir(tmp_path)


def test_load_data_dir_round_trips_synthetic(synth_data_dir):
    splits = load_data_dir(synth_data_dir)
    assert splits.train.images.shape == (55000, 28, 28, 1)
    assert splits.test.labels.shape == (10000, 10)
    assert 0.0 <= splits.train.images.min() and splits.train.images.max() <= 1.0


def test_loading_is_deterministic(synth_data_dir):
    a = load_data_dir(synth_data_dir)
    b = load_data_dir(synth_data_dir)
    np.testing.assert_array_equal(a.train.images, b.train.images)
    np.testing.assert_array_equal(a.test.labels, b.test.labels)


# --- real data (skipped when the canonical files are absent) ---------------------


def test_official_files_have_canonical_counts():
    directory = require_mnist()
    splits = load_data_dir(directory)
    assert splits.train.images.shape == (55000, 28, 28, 1)
    assert splits.validation.images.shape == (5000, 28, 28, 1)
    assert splits.test.images.shape == (10000, 28, 28, 1)
