import os

# One BLAS thread, as the benchmark's workers run: a second thread saves
# little here, and beside another BLAS-heavy process it made the suite
# many times slower.  Set before numpy is first imported, which reads it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slimnet.mnist import CANONICAL_FILES, load_data_dir
from slimnet.netspec import LayerSpec, NetSpec
from slimnet.network import forward
from slimnet.synth import synthetic_splits

REPO_ROOT = Path(__file__).resolve().parent.parent

# Real MNIST is looked up here; tests that need it skip when absent.
DATA_DIR_CANDIDATES = [os.environ.get("SLIMNET_DATA_DIR"), str(REPO_ROOT / "data")]


def find_mnist_dir():
    for cand in DATA_DIR_CANDIDATES:
        if not cand:
            continue
        directory = Path(cand)
        if all(
            (directory / stem).exists() or (directory / (stem + ".gz")).exists()
            for stem in CANONICAL_FILES.values()
        ):
            return directory
    return None


def require_mnist():
    directory = find_mnist_dir()
    if directory is None:
        pytest.skip(
            "real MNIST IDX files not found (set SLIMNET_DATA_DIR or put the four "
            "canonical files under ./data)"
        )
    return directory


def peak_alloc_bytes(fn, setup=None) -> int:
    """Peak bytes allocated while `fn()` runs, above what was live when it began.

    Counts what `tracemalloc` sees, which includes numpy's array buffers,
    and it sees only blocks allocated while it traces: freeing an array
    made before tracing began lowers no count.  So a call that frees one
    set of arrays and then allocates another reads as the whole second
    set unless the first was made under the same trace.  `setup()`, when
    given, runs just before `fn()` with tracing already on, and what it
    allocates and `fn()` frees is counted as freed; the peak is still
    taken from the start of `fn()`, so it may read less than the second
    set.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        if setup is not None:
            setup()
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()


def pixel_spec():
    """No layer but the flatten: `network.forward` returns the decoded input."""
    return NetSpec("pixels", (LayerSpec.input(28, 28, 1), LayerSpec.flatten()))


def whole_batch_forward(spec, params, x):
    """`(logits, caches)` of the whole batch in one chain: a training forward
    with every dropout layer at keep=1, which is the identity and draws nothing.

    Its logits are the reference an evaluation forward, which runs the image
    layers a chunk at a time and skips dropout, must give bit for bit.
    """
    layers = tuple(replace(layer, keep_prob=1.0) if layer.kind == "dropout" else layer for layer in spec.layers)
    return forward(NetSpec(spec.name, layers), params, x, training=True, dropout_rng=np.random.default_rng(0))


@pytest.fixture(scope="session")
def mnist_splits():
    return load_data_dir(require_mnist())


@pytest.fixture(scope="session")
def synth_data():
    """Desk-scale synthetic digit splits shared across tests."""
    return synthetic_splits(n_train=2000, n_validation=300, n_test=1000, seed=7)


@pytest.fixture(scope="session")
def synth_data_dir(tmp_path_factory):
    """A full-size (60k/10k) synthetic data directory in canonical IDX layout."""
    from slimnet.synth import write_synthetic_data_dir

    directory = tmp_path_factory.mktemp("synth-data")
    write_synthetic_data_dir(directory, seed=1, n_train=60000, n_test=10000)
    return directory


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
