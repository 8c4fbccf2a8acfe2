"""MNIST-style IDX ingestion, one-hot encoding, and the canonical splits.

The IDX container is big-endian: a 32-bit magic (2051 for image files,
2049 for label files), one 32-bit extent per dimension, then the raw
unsigned-byte payload in row-major order.  Gzipped files are accepted
transparently.  Pixels are scaled into [0, 1]; the 60,000-record training
file is split 55,000 / 5,000 (validation = the last 5,000, a documented
deterministic choice) and the test file supplies the remaining 10,000.

Nothing here touches the network: obtain the four canonical files from
any MNIST mirror and point the loaders at the directory holding them.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "IdxFormatError",
    "MissingDataError",
    "Dataset",
    "DataSplits",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "CANONICAL_FILES",
    "load_idx_images",
    "load_idx_labels",
    "one_hot",
    "one_hot_labels",
    "make_splits",
    "load_data_dir",
    "write_idx_images",
    "write_idx_labels",
]

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049

TRAIN_SIZE = 55000
VALIDATION_SIZE = 5000
TEST_SIZE = 10000

CANONICAL_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


class IdxFormatError(ValueError):
    """File is not well-formed IDX."""


class MissingDataError(FileNotFoundError):
    """A required data file is absent; the message lists what to provide."""


class Dataset(NamedTuple):
    images: np.ndarray  # [N, 28, 28, 1] float64 in [0, 1]
    labels: np.ndarray  # [N, 10] one-hot float64


@dataclass(frozen=True)
class DataSplits:
    train: Dataset
    validation: Dataset
    test: Dataset


def _open_maybe_gzip(path):
    with open(path, "rb") as probe:
        head = probe.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_header(f, path, expected_magic: int, rank: int) -> tuple[int, ...]:
    head = f.read(4)
    if len(head) != 4:
        raise IdxFormatError(f"{path}: too short to hold an IDX magic number")
    (magic,) = struct.unpack(">i", head)
    if magic != expected_magic:
        raise IdxFormatError(f"{path}: magic {magic} != expected {expected_magic}")
    extents = []
    for _ in range(rank):
        raw = f.read(4)
        if len(raw) != 4:
            raise IdxFormatError(f"{path}: truncated header")
        extents.append(struct.unpack(">i", raw)[0])
    if any(e <= 0 for e in extents):
        raise IdxFormatError(f"{path}: non-positive dimension extent in header: {extents}")
    return tuple(extents)


def load_idx_images(path, normalize: bool = True) -> np.ndarray:
    """Read an IDX image file into `[N, H, W, 1]`, scaled into [0, 1]."""
    with _open_maybe_gzip(path) as f:
        n, h, w = _read_header(f, path, IMAGE_MAGIC, rank=3)
        payload = f.read(n * h * w + 1)
    if len(payload) != n * h * w:
        raise IdxFormatError(
            f"{path}: payload holds {len(payload)} bytes, header promises {n * h * w}"
        )
    images = np.frombuffer(payload, dtype=np.uint8).reshape(n, h, w, 1).astype(np.float64)
    return images / 255.0 if normalize else images


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an integer `[N]` array."""
    with _open_maybe_gzip(path) as f:
        (n,) = _read_header(f, path, LABEL_MAGIC, rank=1)
        payload = f.read(n + 1)
    if len(payload) != n:
        raise IdxFormatError(f"{path}: payload holds {len(payload)} bytes, header promises {n}")
    labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"{path}: label {labels.max()} out of range 0..9")
    return labels


def one_hot(label: int) -> np.ndarray:
    """Length-10 vector with a single 1 at `label`."""
    if not 0 <= label <= 9:
        raise ValueError(f"label must be in 0..9, got {label}")
    vec = np.zeros(10, dtype=np.float64)
    vec[label] = 1.0
    return vec


def one_hot_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() > 9):
        raise ValueError("labels must lie in 0..9")
    out = np.zeros((len(labels), 10), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def make_splits(train_images, train_labels, test_images, test_labels) -> DataSplits:
    """Slice the standard 60k/10k files into 55,000/5,000/10,000.

    Slicing is positional and deterministic: records 0..54,999 of the
    training file become the training split, the final 5,000 the
    validation split.  Wrong record counts and labels outside 0..9 raise
    `IdxFormatError`: they are faults of the data files.
    """
    if len(train_images) != TRAIN_SIZE + VALIDATION_SIZE:
        raise IdxFormatError(f"expected {TRAIN_SIZE + VALIDATION_SIZE} training records, got {len(train_images)}")
    if len(test_images) != TEST_SIZE:
        raise IdxFormatError(f"expected {TEST_SIZE} test records, got {len(test_images)}")
    if len(train_labels) != len(train_images) or len(test_labels) != len(test_images):
        raise IdxFormatError("image/label record counts disagree")
    for split, labels in (("training", train_labels), ("test", test_labels)):
        labels = np.asarray(labels)
        if labels.size and (labels.min() < 0 or labels.max() > 9):
            raise IdxFormatError(f"{split} labels span {labels.min()}..{labels.max()}, outside 0..9")
    train = Dataset(train_images[:TRAIN_SIZE], one_hot_labels(train_labels[:TRAIN_SIZE]))
    validation = Dataset(train_images[TRAIN_SIZE:], one_hot_labels(train_labels[TRAIN_SIZE:]))
    test = Dataset(test_images, one_hot_labels(test_labels))
    return DataSplits(train=train, validation=validation, test=test)


def _resolve(directory: Path, stem: str) -> Path | None:
    for candidate in (directory / stem, directory / (stem + ".gz")):
        if candidate.exists():
            return candidate
    return None


def load_data_dir(data_dir) -> DataSplits:
    """Load the four canonical MNIST files (optionally gzipped) from a directory."""
    directory = Path(data_dir)
    paths = {}
    missing = []
    for key, stem in CANONICAL_FILES.items():
        found = _resolve(directory, stem)
        if found is None:
            missing.append(stem + "[.gz]")
        paths[key] = found
    if missing:
        raise MissingDataError(
            f"data directory {directory} is missing: {', '.join(missing)}. "
            "Provide the canonical MNIST IDX files (gzipped or plain) under those names."
        )
    return make_splits(
        load_idx_images(paths["train_images"]),
        load_idx_labels(paths["train_labels"]),
        load_idx_images(paths["test_images"]),
        load_idx_labels(paths["test_labels"]),
    )


def write_idx_images(path, images: np.ndarray) -> None:
    """Write `[N, H, W]` or `[N, H, W, 1]` uint8 images as an IDX file."""
    arr = np.asarray(images)
    if arr.ndim == 4:
        arr = arr[:, :, :, 0]
    if arr.dtype != np.uint8:
        raise ValueError(f"images must be uint8, got {arr.dtype}")
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IMAGE_MAGIC, *arr.shape))
        f.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels)
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("labels out of byte range")
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", LABEL_MAGIC, len(arr)))
        f.write(arr.astype(np.uint8).tobytes())
