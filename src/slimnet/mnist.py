"""MNIST-style IDX ingestion and the canonical splits.

The IDX container is big-endian: a 32-bit magic (2051 for image files,
2049 for label files), one 32-bit extent per dimension, then the raw
unsigned-byte payload in row-major order.  Gzipped files are accepted
transparently.  A split holds the uint8 pixels and class indices (0..9)
as the files hold them; `network.forward` reads pixels as pixel / 255.
The 60,000-record training file is split 55,000 / 5,000 (validation =
the last 5,000, a documented deterministic choice) and the test file
supplies the remaining 10,000.

Nothing here touches the network: obtain the four canonical files from
any MNIST mirror and point the loaders at the directory holding them.
"""

from __future__ import annotations

import gzip
import os
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

_GZIP_PIECE = 1 << 16  # bytes per read of a gzipped payload

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
    images: np.ndarray  # [N, 28, 28, 1] uint8 pixels (float64 in [0, 1] is also accepted)
    labels: np.ndarray  # [N] uint8 class indices 0..9 (any integer dtype is also accepted)


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


def _read_payload(f, path, size: int) -> memoryview:
    """A read-only view of the `size` payload bytes the header promises.

    A count other than `size` raises `IdxFormatError`.  A plain file is
    checked against its length, then read in one call.  A gzipped one is
    read a bounded piece at a time into one growing buffer, so a header
    that promises more than the file holds allocates no more than it holds.
    """
    if isinstance(f, gzip.GzipFile):
        payload = bytearray()
        while len(payload) <= size and (piece := f.read(min(_GZIP_PIECE, size + 1 - len(payload)))):
            payload += piece
        held = len(payload)
    else:
        held = os.fstat(f.fileno()).st_size - f.tell()
        payload = f.read(size) if held == size else b""
    if len(payload) != size:  # a header's extents are positive
        raise IdxFormatError(f"{path}: payload holds {held} bytes, header promises {size}")
    return memoryview(payload).toreadonly()


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into a read-only uint8 `[N, H, W, 1]` view of its payload."""
    with _open_maybe_gzip(path) as f:
        n, h, w = _read_header(f, path, IMAGE_MAGIC, rank=3)
        payload = _read_payload(f, path, n * h * w)
    return np.frombuffer(payload, dtype=np.uint8).reshape(n, h, w, 1)


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into a read-only uint8 `[N]` view of its payload."""
    with _open_maybe_gzip(path) as f:
        (n,) = _read_header(f, path, LABEL_MAGIC, rank=1)
        payload = _read_payload(f, path, n)
    labels = np.frombuffer(payload, dtype=np.uint8)
    if labels.size and labels.max() > 9:
        raise IdxFormatError(f"{path}: label {labels.max()} out of range 0..9")
    return labels


def make_splits(train_images, train_labels, test_images, test_labels) -> DataSplits:
    """Slice the standard 60k/10k files into 55,000/5,000/10,000.

    Slicing is positional and deterministic: records 0..54,999 of the
    training file become the training split, the final 5,000 the
    validation split.  Wrong record counts and labels that are not `[N]`
    integers within 0..9 raise `IdxFormatError`: they are faults of the data files.
    """
    train_labels, test_labels = np.asarray(train_labels), np.asarray(test_labels)
    if len(train_images) != TRAIN_SIZE + VALIDATION_SIZE:
        raise IdxFormatError(f"expected {TRAIN_SIZE + VALIDATION_SIZE} training records, got {len(train_images)}")
    if len(test_images) != TEST_SIZE:
        raise IdxFormatError(f"expected {TEST_SIZE} test records, got {len(test_images)}")
    if len(train_labels) != len(train_images) or len(test_labels) != len(test_images):
        raise IdxFormatError("image/label record counts disagree")
    for split, labels in (("training", train_labels), ("test", test_labels)):
        if labels.ndim != 1 or labels.dtype.kind not in "iu":
            raise IdxFormatError(f"{split} labels must be a 1-D integer array, got {labels.dtype} {labels.shape}")
        if labels.size and (labels.min() < 0 or labels.max() > 9):
            raise IdxFormatError(f"{split} labels span {labels.min()}..{labels.max()}, outside 0..9")
    train = Dataset(train_images[:TRAIN_SIZE], train_labels[:TRAIN_SIZE])
    validation = Dataset(train_images[TRAIN_SIZE:], train_labels[TRAIN_SIZE:])
    test = Dataset(test_images, test_labels)
    return DataSplits(train=train, validation=validation, test=test)


def _resolve(directory: Path, stem: str) -> Path | None:
    for candidate in (directory / stem, directory / (stem + ".gz")):
        if candidate.exists():
            return candidate
    return None


def load_data_dir(data_dir) -> DataSplits:
    """Load the four canonical MNIST files (optionally gzipped) from a directory.

    Images and labels stay the uint8 bytes read from disk, 1 byte a pixel
    or label where a float64 copy would take 8.
    """
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
    """Write non-empty `[N, H, W]` or `[N, H, W, 1]` uint8 images as an IDX file."""
    arr = np.asarray(images)
    if arr.ndim < 3 or arr.shape[3:] not in ((), (1,)) or not arr.size:
        raise ValueError(f"images must be a non-empty [N, H, W] or [N, H, W, 1] array, got shape {arr.shape}")
    arr = arr.reshape(arr.shape[:3])
    if arr.dtype != np.uint8:
        raise ValueError(f"images must be uint8, got {arr.dtype}")
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", IMAGE_MAGIC, *arr.shape))
        f.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Write a non-empty `[N]` integer array of class indices 0..9 as an IDX file."""
    arr = np.asarray(labels)
    if arr.ndim != 1 or not arr.size or arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() > 9:
        raise ValueError(f"labels must be a non-empty [N] integer array within 0..9, got {arr.dtype} {arr.shape}")
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", LABEL_MAGIC, len(arr)))
        f.write(arr.astype(np.uint8).tobytes())
