"""Procedurally rendered digit images.

A deterministic stand-in corpus for demos, pipeline tests and CI
machines that do not have the real MNIST files on disk: ten fixed 7x7
glyphs upscaled to 28x28 and perturbed per sample with a random shift,
amplitude and pixel noise.  It is a classification task of the same
shape (28x28x1 grayscale, 10 classes) that small conv nets learn
quickly; it is not MNIST and accuracy numbers on it are not comparable.
"""

from __future__ import annotations

import numpy as np

from .mnist import CANONICAL_FILES, Dataset, DataSplits, write_idx_images, write_idx_labels
from .rng import substream

__all__ = ["synthetic_corpus", "synthetic_splits", "write_synthetic_data_dir"]

_GLYPH_ROWS = {
    0: (".#####.", "#.....#", "#.....#", "#.....#", "#.....#", "#.....#", ".#####."),
    1: ("...#...", "..##...", "...#...", "...#...", "...#...", "...#...", "..###.."),
    2: (".#####.", "#.....#", "......#", "....##.", "..##...", "##.....", "#######"),
    3: (".#####.", "#.....#", "......#", "...###.", "......#", "#.....#", ".#####."),
    4: ("....##.", "...#.#.", "..#..#.", ".#...#.", "#######", ".....#.", ".....#."),
    5: ("#######", "#......", "#......", "######.", "......#", "#.....#", ".#####."),
    6: (".#####.", "#......", "#......", "######.", "#.....#", "#.....#", ".#####."),
    7: ("#######", "......#", ".....#.", "....#..", "...#...", "..#....", "..#...."),
    8: (".#####.", "#.....#", "#.....#", ".#####.", "#.....#", "#.....#", ".#####."),
    9: (".#####.", "#.....#", "#.....#", ".######", "......#", "......#", ".#####."),
}

_MAX_SHIFT = 3


def _glyphs28() -> np.ndarray:
    """[10, 28, 28] float glyph templates with intensity 1.0."""
    out = np.zeros((10, 28, 28))
    for digit, rows in _GLYPH_ROWS.items():
        mask = np.array([[ch == "#" for ch in row] for row in rows], dtype=np.float64)
        out[digit] = np.kron(mask, np.ones((4, 4)))
    return out


def _render(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Render uint8 images for `labels` with per-sample jitter and noise."""
    n = len(labels)
    base = _glyphs28()[labels]  # [n, 28, 28]
    padded = np.pad(base, ((0, 0), (_MAX_SHIFT, _MAX_SHIFT), (_MAX_SHIFT, _MAX_SHIFT)))
    shifts = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=(n, 2))
    amplitude = rng.uniform(0.55, 1.0, size=n)
    noise = rng.normal(0.0, 0.12, size=(n, 28, 28))
    images = np.empty((n, 28, 28))
    for dy in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
        for dx in range(-_MAX_SHIFT, _MAX_SHIFT + 1):
            sel = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
            if not sel.any():
                continue
            y0, x0 = _MAX_SHIFT + dy, _MAX_SHIFT + dx
            images[sel] = padded[sel, y0 : y0 + 28, x0 : x0 + 28]
    images = images * amplitude[:, None, None] + noise
    return (np.clip(images, 0.0, 1.0) * 255.0).round().astype(np.uint8)


def synthetic_corpus(n_train: int = 60000, n_test: int = 10000, seed: int = 0):
    """(train_images u8 [N,28,28], train_labels u8 [N], test_images, test_labels)."""
    label_rng = substream(seed, "synth-labels")
    train_labels = label_rng.integers(0, 10, size=n_train).astype(np.uint8)
    test_labels = label_rng.integers(0, 10, size=n_test).astype(np.uint8)
    train_images = _render(train_labels, substream(seed, "synth-train"))
    test_images = _render(test_labels, substream(seed, "synth-test"))
    return train_images, train_labels, test_images, test_labels


def synthetic_splits(n_train: int = 2000, n_validation: int = 500, n_test: int = 1000,
                     seed: int = 0) -> DataSplits:
    """Desk-scale ready-to-train splits: uint8 `[N,28,28,1]` pixels, uint8 `[N]` labels.

    The splits are held as `mnist.load_data_dir` holds them; `network.forward`
    reads the pixels as pixel / 255.
    """
    ti, tl, vi2, vl2 = synthetic_corpus(n_train + n_validation, n_test, seed)
    images = ti[..., None]
    test_images = vi2[..., None]
    return DataSplits(
        train=Dataset(images[:n_train], tl[:n_train]),
        validation=Dataset(images[n_train:], tl[n_train:]),
        test=Dataset(test_images, vl2),
    )


def write_synthetic_data_dir(directory, seed: int = 0, n_train: int = 60000,
                             n_test: int = 10000) -> None:
    """Write the four canonical IDX files rendered from the glyph corpus."""
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ti, tl, xi, xl = synthetic_corpus(n_train, n_test, seed)
    write_idx_images(directory / CANONICAL_FILES["train_images"], ti)
    write_idx_labels(directory / CANONICAL_FILES["train_labels"], tl)
    write_idx_images(directory / CANONICAL_FILES["test_images"], xi)
    write_idx_labels(directory / CANONICAL_FILES["test_labels"], xl)
