"""Binary tensor container and training checkpoints.

Layout (byte order fixed for cross-platform replay):

    magic   4 bytes  b"NTBX"
    version u32 BE   currently 1
    count   u64 BE   number of tensors
    then per tensor, in ascending name order:
      name_len u32 BE, name UTF-8,
      rank     u32 BE, extents rank x u64 BE,
      payload  float64 LE, row-major

Rank-0 tensors carry a single value and are used for scalars such as the
optimizer timestep.  Writing is deterministic: identical tensor dicts
produce identical bytes.  Each payload is written from the tensor's own
buffer, so a C-ordered float64 tensor is not copied (a checkpoint's
largest tensors would otherwise set the peak memory of a training run).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import ops
from .network import Params, param_arrays
from .trainer import AdamState

__all__ = ["ContainerError", "write_tensors", "read_tensors", "save_checkpoint", "load_checkpoint"]

MAGIC = b"NTBX"
VERSION = 1


class ContainerError(ValueError):
    """Malformed or truncated tensor container."""


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write into a temporary file beside `path`, then rename it over `path`: a write
    that fails or dies midway leaves what was at `path` whole.  Nothing is synced to
    disk, so this guards against a crash, not a power loss."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack(">I", VERSION))
            f.write(struct.pack(">Q", len(tensors)))
            for name in sorted(tensors):
                arr = np.asarray(tensors[name], dtype=np.float64)
                raw = name.encode("utf-8")
                f.write(struct.pack(">I", len(raw)))
                f.write(raw)
                f.write(struct.pack(">I", arr.ndim))
                for extent in arr.shape:
                    f.write(struct.pack(">Q", extent))
                f.write(np.ascontiguousarray(arr, dtype="<f8").data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed
            os.remove(tmp)


def _read_exact(f, n: int, what: str) -> bytes:
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:  # checked before a read of `n` bytes, which a header field sets
        raise ContainerError(f"truncated container: {what} needs {n} bytes, {left} remain")
    return f.read(n)


def read_tensors(path) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise ContainerError(f"bad magic in {path}: not a tensor container")
        (version,) = struct.unpack(">I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise ContainerError(f"unsupported container version {version} (expected {VERSION})")
        (count,) = struct.unpack(">Q", _read_exact(f, 8, "tensor count"))
        for _ in range(count):
            (name_len,) = struct.unpack(">I", _read_exact(f, 4, "name length"))
            try:
                name = _read_exact(f, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContainerError(f"tensor name is not UTF-8: {exc}") from None
            (rank,) = struct.unpack(">I", _read_exact(f, 4, "rank"))
            shape = tuple(
                struct.unpack(">Q", _read_exact(f, 8, f"extent of {name}"))[0] for _ in range(rank)
            )
            payload = _read_exact(f, 8 * math.prod(shape), f"{name} {shape}")
            try:
                tensors[name] = np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(shape)
            except ValueError as exc:  # an empty tensor with an extent numpy cannot index
                raise ContainerError(f"tensor {name} has extents {shape}: {exc}") from None
        trailing = f.read(1)
    if trailing:
        raise ContainerError(f"trailing bytes after last tensor in {path}")
    return tensors


# --- checkpoints -------------------------------------------------------------


@dataclass
class Checkpoint:
    params: Params
    adam: AdamState
    iteration: int


def save_checkpoint(path, params: Params, adam: AdamState, iteration: int) -> None:
    """Pack parameters, optimizer moments and counters into one container."""
    tensors = {f"param.{key}": arr for key, arr in param_arrays(params)}
    for key, arr in adam.m.items():
        tensors[f"adam.m.{key}"] = arr
    for key, arr in adam.v.items():
        tensors[f"adam.v.{key}"] = arr
    tensors["adam.t"] = np.float64(adam.t)
    tensors["iteration"] = np.float64(iteration)
    write_tensors(path, tensors)


def load_checkpoint(path) -> Checkpoint:
    tensors = read_tensors(path)
    names = sorted(
        {k[len("param.") : -2] for k in tensors if k.startswith("param.") and k.endswith(".w")}
    )
    params: Params = {name: ops.Params(tensors[f"param.{name}.w"], tensors[f"param.{name}.b"]) for name in names}
    m = {k[len("adam.m.") :]: v for k, v in tensors.items() if k.startswith("adam.m.")}
    v = {k[len("adam.v.") :]: val for k, val in tensors.items() if k.startswith("adam.v.")}
    adam = AdamState(m=m, v=v, t=int(tensors["adam.t"]))
    return Checkpoint(params=params, adam=adam, iteration=int(tensors["iteration"]))
