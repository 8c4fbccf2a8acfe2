import gzip
import struct

import numpy as np
import pytest

from slimnet.mnist import (
    CANONICAL_FILES,
    IdxFormatError,
    MissingDataError,
    load_data_dir,
    load_idx_images,
    load_idx_labels,
    make_splits,
    write_idx_images,
    write_idx_labels,
)
from slimnet.network import forward
from tests.conftest import peak_alloc_bytes, pixel_spec, require_mnist, whole_batch_forward


# Independent byte-writer: builds fixtures without going through the
# package's own writers, so loader bugs cannot cancel out.
def build_image_bytes(images, magic=2051):
    arr = np.asarray(images, dtype=np.uint8)
    header = struct.pack(">iiii", magic, *arr.shape)
    return header + arr.tobytes()


def build_label_bytes(labels, magic=2049):
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">ii", magic, len(arr)) + arr.tobytes()


def _decode(images):
    """The pixels as they enter the network: `network.forward` on a net with no layer but the flatten."""
    return whole_batch_forward(pixel_spec(), {}, images)[0].reshape(images.shape)


def test_single_pixel_255_loads_as_one(tmp_path):
    img = np.zeros((1, 28, 28), dtype=np.uint8)
    img[0, 3, 4] = 255
    path = tmp_path / "one.idx"
    path.write_bytes(build_image_bytes(img))
    loaded = load_idx_images(path)
    assert loaded.shape == (1, 28, 28, 1)
    assert loaded.dtype == np.uint8 and not loaded.flags.writeable
    decoded = _decode(loaded)
    assert decoded[0, 3, 4, 0] == 1.0
    assert decoded.min() == 0.0


def test_gzip_transparent(tmp_path):
    img = np.arange(16, dtype=np.uint8).reshape(1, 4, 4)
    path = tmp_path / "img.idx.gz"
    path.write_bytes(gzip.compress(build_image_bytes(img)))
    loaded = load_idx_images(path)
    np.testing.assert_array_equal(loaded[0, :, :, 0], img[0])
    assert not loaded.flags.writeable


def _write_bytes(path, data, compress):
    path.write_bytes(gzip.compress(data) if compress else data)
    return path


def _write_images(path, images, compress):
    return _write_bytes(path, build_image_bytes(images), compress)


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_decode_is_the_two_step_quotient_bitwise(tmp_path, compress):
    img = (np.arange(40 * 28 * 28) % 256).astype(np.uint8).reshape(40, 28, 28)  # every byte value
    path = _write_images(tmp_path / "img.idx", img, compress)
    as_float = img.reshape(40, 28, 28, 1).astype(np.float64)
    assert load_idx_images(path).tobytes() == img.tobytes()
    assert _decode(load_idx_images(path)).tobytes() == (as_float / 255.0).tobytes()


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_decode_allocates_one_float64_copy(tmp_path, compress):
    img = np.random.default_rng(3).integers(0, 256, size=(2000, 28, 28), dtype=np.uint8)
    path = _write_images(tmp_path / "img.idx", img, compress)
    payload = img.nbytes
    # One float64 copy is 8 bytes a pixel; a second one (astype, then a
    # fresh quotient) would need 16.
    assert peak_alloc_bytes(lambda: _decode(load_idx_images(path))) <= 1.25 * 8 * payload + payload


def test_labels_load_as_the_uint8_indices_of_the_file(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(build_label_bytes([7, 0, 9]))
    labels = load_idx_labels(path)
    np.testing.assert_array_equal(labels, [7, 0, 9])
    assert labels.dtype == np.uint8 and labels.shape == (3,)


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


# Headers over a 100-byte payload: a size that overflows a read, 1 TiB and 2 GiB.
HUGE_HEADERS = {
    "images-overflow": (load_idx_images, struct.pack(">iiii", 2051, *(2**31 - 1,) * 3)),
    "images-tebibyte": (load_idx_images, struct.pack(">iiii", 2051, 2**20, 2**10, 2**10)),
    "labels-2gib": (load_idx_labels, struct.pack(">ii", 2049, 2**31 - 1)),
}


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
@pytest.mark.parametrize("loader, header", HUGE_HEADERS.values(), ids=HUGE_HEADERS)
def test_a_header_promising_more_than_the_file_holds_allocates_nothing(tmp_path, loader, header, compress):
    path = _write_bytes(tmp_path / "huge.idx", header + bytes(100), compress)

    def load():
        with pytest.raises(IdxFormatError, match="payload holds 100 bytes"):
            loader(path)

    assert peak_alloc_bytes(load) < 2**20


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_trailing_payload_bytes_are_rejected(tmp_path, compress):
    data = build_image_bytes(np.zeros((2, 4, 4), dtype=np.uint8)) + b"\0"
    with pytest.raises(IdxFormatError, match="payload holds 33 bytes, header promises 32"):
        load_idx_images(_write_bytes(tmp_path / "long.idx", data, compress))


def test_write_idx_images_round_trips_one_channel(tmp_path):
    img = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4, 1)
    write_idx_images(tmp_path / "one.idx", img)
    assert (tmp_path / "one.idx").read_bytes() == build_image_bytes(img[..., 0])


@pytest.mark.parametrize("shape", [(2, 28, 28, 3), (2, 28, 28, 1, 1), (28, 28)],
                         ids=["three-channels", "five-dims", "two-dims"])
def test_write_idx_images_rejects_other_shapes(tmp_path, shape):
    with pytest.raises(ValueError, match=r"\[N, H, W\] or \[N, H, W, 1\]"):
        write_idx_images(tmp_path / "bad.idx", np.zeros(shape, dtype=np.uint8))
    assert not (tmp_path / "bad.idx").exists()


@pytest.mark.parametrize("shape", [(0, 28, 28), (0, 28, 28, 1), (2, 0, 28)],
                         ids=["no-images", "no-images-one-channel", "no-rows"])
def test_write_idx_images_refuses_what_its_reader_refuses(tmp_path, shape):
    # the reader refuses a header with a zero extent, so the writer must not make one
    with pytest.raises(ValueError, match=r"non-empty \[N, H, W\]"):
        write_idx_images(tmp_path / "bad.idx", np.zeros(shape, dtype=np.uint8))
    assert not (tmp_path / "bad.idx").exists()


@pytest.mark.parametrize(
    "labels",
    [np.eye(10)[[1, 2, 3]], np.array([0.0, 3.7]), np.array([12]), np.array([], dtype=np.uint8)],
    ids=["one-hot", "float", "index-12", "empty"],
)
def test_write_idx_labels_refuses_what_its_reader_refuses(tmp_path, labels):
    with pytest.raises(ValueError, match=r"non-empty \[N\] integer array within 0..9"):
        write_idx_labels(tmp_path / "bad.idx", labels)
    assert not (tmp_path / "bad.idx").exists()


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
    np.testing.assert_array_equal(splits.train.labels, tl[:55000])
    np.testing.assert_array_equal(splits.validation.labels, tl[55000:])


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


@pytest.mark.parametrize("kind", ["float", "one-hot"])
def test_make_splits_rejects_labels_that_are_not_class_indices(kind):
    ti, tl, xi, xl = _fake_corpus()
    bad = {"float": lambda y: y.astype(np.float64), "one-hot": lambda y: np.eye(10)[y]}[kind]
    with pytest.raises(IdxFormatError, match="training labels must be a 1-D integer array"):
        make_splits(ti, bad(tl), xi, xl)
    with pytest.raises(IdxFormatError, match="test labels must be a 1-D integer array"):
        make_splits(ti, tl, xi, bad(xl))


def test_load_data_dir_lists_missing_files(tmp_path):
    with pytest.raises(MissingDataError, match="train-images-idx3-ubyte"):
        load_data_dir(tmp_path)


def test_load_data_dir_round_trips_synthetic(synth_data_dir):
    splits = load_data_dir(synth_data_dir)
    assert splits.train.images.shape == (55000, 28, 28, 1)
    assert splits.test.labels.shape == (10000,)
    assert splits.train.labels.dtype == splits.test.labels.dtype == np.uint8
    assert splits.train.images.dtype == np.uint8
    # the pixels enter the network scaled into [0, 1]
    decoded, _ = forward(pixel_spec(), {}, splits.train.images[:1000])
    assert decoded.dtype == np.float64
    assert 0.0 <= decoded.min() and decoded.max() <= 1.0


def test_load_data_dir_holds_the_payload_bytes_without_a_float_copy(synth_data_dir):
    loaded = []
    peak = peak_alloc_bytes(lambda: loaded.append(load_data_dir(synth_data_dir)))
    splits = loaded[0]
    payload = (60000 + 10000) * 28 * 28
    for split in (splits.train, splits.validation, splits.test):
        assert split.images.dtype == np.uint8
    # the labels add 1 byte a record
    assert peak <= 1.25 * payload
    raw = load_idx_images(synth_data_dir / CANONICAL_FILES["test_images"])
    np.testing.assert_array_equal(splits.test.images, raw)


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
