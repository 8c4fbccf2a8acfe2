import struct

import numpy as np
import pytest

from slimnet.container import (
    ContainerError,
    load_checkpoint,
    read_tensors,
    save_checkpoint,
    write_tensors,
)
from slimnet.netspec import dropped_conv2_spec, optimized_spec
from slimnet.ops import ShapeError
from slimnet.rng import substream
from slimnet.trainer import TrainConfig, init_adam_state, init_params
from tests.conftest import peak_alloc_bytes, whole_batch_forward


def test_round_trip_exact_bits(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {
        "a": rng.normal(size=(3, 4)),
        "b.nested/name": rng.normal(size=7),
        "scalar": np.float64(42.5),
        "cube": rng.normal(size=(2, 2, 2, 2)),
    }
    path = tmp_path / "t.bin"
    write_tensors(path, tensors)
    loaded = read_tensors(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        got = loaded[name]
        want = np.asarray(tensors[name])
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)  # bit-exact round trip


def test_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(4)
    tensors = {"z": rng.normal(size=5), "a": rng.normal(size=(2, 3))}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_tensors(p1, tensors)
    write_tensors(p2, dict(reversed(list(tensors.items()))))  # insertion order must not matter
    assert p1.read_bytes() == p2.read_bytes()


def reference_write_tensors(path, tensors):
    """The container writer as first written: each payload through `astype("<f8").tobytes()`."""
    with open(path, "wb") as f:
        f.write(b"NTBX" + struct.pack(">I", 1) + struct.pack(">Q", len(tensors)))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype=np.float64)
            raw = name.encode("utf-8")
            f.write(struct.pack(">I", len(raw)) + raw + struct.pack(">I", arr.ndim))
            for extent in arr.shape:
                f.write(struct.pack(">Q", extent))
            f.write(arr.astype("<f8").tobytes())


def test_writer_bytes_match_the_copying_reference_for_every_layout(tmp_path):
    rng = np.random.default_rng(5)
    block = rng.normal(size=(6, 8))
    tensors = {
        "c-ordered": rng.normal(size=(3, 4, 5)),
        "f-ordered": np.asfortranarray(rng.normal(size=(4, 7))),
        "strided-slice": block[1::2, ::-3],
        "transposed": block.T,
        "zero-d": np.float64(-0.0),
        "zero-d-array": np.array(np.nan),
        "empty": np.zeros((3, 0, 2)),
        "big-endian": rng.normal(size=5).astype(">f8"),
        "float32": rng.normal(size=(2, 3)).astype(np.float32),
        "integers": np.arange(-3, 4),
    }
    write_tensors(tmp_path / "ours", tensors)
    reference_write_tensors(tmp_path / "reference", tensors)
    assert (tmp_path / "ours").read_bytes() == (tmp_path / "reference").read_bytes()


def test_checkpoint_writer_copies_no_payload(tmp_path):
    params = init_params(dropped_conv2_spec(), TrainConfig(), substream(0, "init"))
    state = init_adam_state(params)
    assert params["fc1"].weights.nbytes > 48 * 2**20
    assert peak_alloc_bytes(lambda: save_checkpoint(tmp_path / "ckpt", params, state, 3)) < 2**20


def test_a_write_that_fails_midway_leaves_the_earlier_file_whole(tmp_path):
    path = tmp_path / "ckpt.bin"
    write_tensors(path, {"a": np.arange(3.0)})
    before = path.read_bytes()

    class Unreadable:
        def __array__(self, dtype=None, copy=None):
            raise OSError("tensor lost")

    with pytest.raises(OSError, match="tensor lost"):  # after "a", 800 kB, has been written
        write_tensors(path, {"a": np.arange(1e5), "b": Unreadable()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]  # no temporary file left behind


def test_header_fields(tmp_path):
    path = tmp_path / "t.bin"
    write_tensors(path, {"x": np.zeros(2)})
    raw = path.read_bytes()
    assert raw[:4] == b"NTBX"
    assert int.from_bytes(raw[4:8], "big") == 1  # version
    assert int.from_bytes(raw[8:16], "big") == 1  # tensor count


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ContainerError, match="magic"):
        read_tensors(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "t.bin"
    write_tensors(path, {"x": np.arange(10.0)})
    (tmp_path / "cut.bin").write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ContainerError, match="truncated"):
        read_tensors(tmp_path / "cut.bin")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.bin"
    write_tensors(path, {"x": np.arange(4.0)})
    (tmp_path / "fat.bin").write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ContainerError, match="trailing"):
        read_tensors(tmp_path / "fat.bin")


@pytest.mark.parametrize("shape", [(2**32, 2**32), (2**63, 2), (3, 2**63), (2**63, 0)])
def test_extents_past_the_file_or_numpy_are_refused(tmp_path, shape):
    # products of 2**64, 2**64 and 3 * 2**63 wrap in int64; the last holds nothing but cannot be indexed
    path = tmp_path / "big.bin"
    path.write_bytes(b"NTBX" + struct.pack(">IQI", 1, 1, 1) + b"x" + struct.pack(">I", len(shape))
                     + b"".join(struct.pack(">Q", e) for e in shape) + bytes(64))
    with pytest.raises(ContainerError, match="needs|extents"):
        read_tensors(path)


def test_a_name_length_past_the_file_is_refused_before_it_is_read(tmp_path):
    path = tmp_path / "long-name.bin"
    path.write_bytes(b"NTBX" + struct.pack(">IQI", 1, 1, 0xFFFFFFF0) + b"abc")
    assert path.stat().st_size == 23

    def refused():
        with pytest.raises(ContainerError, match="name"):
            read_tensors(path)
    assert peak_alloc_bytes(refused) < 2**20


def test_a_name_that_is_not_utf8_is_a_container_error(tmp_path):
    path = tmp_path / "bad-name.bin"
    path.write_bytes(b"NTBX" + struct.pack(">IQI", 1, 1, 2) + b"\xff\xfe" + struct.pack(">I", 0) + bytes(8))
    with pytest.raises(ContainerError, match="tensor name is not UTF-8"):
        read_tensors(path)


def test_checkpoint_round_trip(tmp_path):
    spec = optimized_spec()
    params = init_params(spec, TrainConfig(), substream(9, "init"))
    state = init_adam_state(params)
    state.t = 17
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params, state, iteration=123)
    ckpt = load_checkpoint(path)
    assert ckpt.iteration == 123
    assert ckpt.adam.t == 17
    assert set(ckpt.params) == set(params)
    for name in params:
        np.testing.assert_array_equal(ckpt.params[name].weights, params[name].weights)
        np.testing.assert_array_equal(ckpt.params[name].bias, params[name].bias)
        assert type(ckpt.params[name]) is type(params[name])
    for key in state.m:
        np.testing.assert_array_equal(ckpt.adam.m[key], state.m[key])


def test_checkpoint_with_a_short_bias_loads_and_fails_at_its_first_use(tmp_path):
    spec = optimized_spec()
    params = init_params(spec, TrainConfig(), substream(9, "init"))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, params, init_adam_state(params), iteration=0)
    tensors = read_tensors(path)
    tensors["param.fc1.b"] = tensors["param.fc1.b"][:-1]
    write_tensors(path, tensors)
    ckpt = load_checkpoint(path)
    assert ckpt.params["fc1"].bias.shape == (params["fc1"].bias.size - 1,)
    with pytest.raises(ShapeError, match="^dense_forward: bias shape"):
        whole_batch_forward(spec, ckpt.params, np.zeros((2, 28, 28, 1), np.uint8))
