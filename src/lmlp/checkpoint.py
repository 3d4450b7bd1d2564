"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  b"LMLP"
    version u32      currently 1
    config  u32 length + UTF-8 run-config text
    step    u64      training step the snapshot was taken at
    params  u32 count, then per parameter:
              u32 name length + name bytes
              u32 rank (1 or 2) + u32 extents
              float32 data, little-endian
    opt     u8 flag, always 1; u64 update count, equal to step; then for
            every parameter in order: float32 first-moment data, float32
            second-moment data (shapes match the parameter)

A checkpoint is the whole state of an ``AdamW``: its named parameters, its
update count and its moments, so a resume continues the run exactly. A file
without moments, or whose update count is not its step, does not load.
Parameters are stored as 32-bit floats, so checkpointed models are built
with dtype float32 and round-trip bitwise. A checkpoint is written to a
temporary file next to its path and renamed into place, so a write that
fails part-way leaves any earlier file at that path as it was. A state with
a non-finite value, which the loader would refuse, is not written at all.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import UlMlpModel, build_model
from .config import RunConfig, parse_config, serialize_config
from .optim import AdamW
from .tensor import NonFiniteError, UsageError

MAGIC = b"LMLP"
VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass
class Checkpoint:
    config: RunConfig
    step: int
    params: dict[str, np.ndarray]
    opt_exp_avg: list[np.ndarray]
    opt_exp_avg_sq: list[np.ndarray]


@contextmanager
def atomic_open(path):
    """Binary file handle on a temporary file next to ``path``; it replaces
    ``path`` only when the block finishes, and is removed if the block raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as out:
            yield out
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_array(out, arr: np.ndarray) -> None:
    out.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _first_non_finite(optimizer: AdamW) -> str:
    """The first record, in file order, of ``optimizer``'s state that holds
    a non-finite value, named as the loader names it."""
    records = list(zip(optimizer.names, (p.data for p in optimizer.params)))
    for name, m, v in zip(optimizer.names, optimizer.exp_avg, optimizer.exp_avg_sq):
        records += [(f"first moment of {name}", m), (f"second moment of {name}", v)]
    return next(what for what, arr in records if not np.isfinite(arr).all())


def save_checkpoint(path, config: RunConfig, optimizer: AdamW) -> None:
    """Write ``optimizer``'s parameters, its update count as the step, and its
    moments; a non-finite value among them raises ``NonFiniteError`` first."""
    if optimizer.flat.dtype != np.float32:
        raise UsageError("checkpoints store 32-bit values; build the model with float32")
    if not all(np.isfinite(buf).all() for buf in (optimizer.flat, optimizer.m, optimizer.v)):
        raise NonFiniteError(f"cannot save {path}: {_first_non_finite(optimizer)} holds "
                             "a non-finite value")
    config_bytes = serialize_config(config).encode()
    with atomic_open(path) as out:
        out.write(MAGIC + struct.pack("<I", VERSION))
        out.write(struct.pack("<I", len(config_bytes)) + config_bytes)
        out.write(struct.pack("<QI", optimizer.step_count, len(optimizer.params)))
        for name, param in zip(optimizer.names, optimizer.params):
            name_bytes = name.encode()
            out.write(struct.pack("<I", len(name_bytes)) + name_bytes)
            out.write(struct.pack(f"<I{param.ndim}I", param.ndim, *param.shape))
            _write_array(out, param.data)
        out.write(struct.pack("<BQ", 1, optimizer.step_count))
        for m, v in zip(optimizer.exp_avg, optimizer.exp_avg_sq):
            _write_array(out, m)
            _write_array(out, v)


class _Reader:
    def __init__(self, path):
        self.path = path
        self.raw = Path(path).read_bytes()
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        out = self.raw[self.pos:self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        values = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return values[0] if len(values) == 1 else values

    def text(self, count: int, what: str) -> str:
        try:
            return self.take(count).decode()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{self.path}: {what} is not UTF-8 text") from exc

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        data = np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{self.path}: {what} holds a non-finite value")
        return data.reshape(shape).astype(np.float32)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed content raises ``CheckpointError``."""
    reader = _Reader(path)
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    version = reader.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    config_len = reader.unpack("<I")
    try:
        config = parse_config(reader.text(config_len, "embedded config"))
    except UsageError as exc:
        raise CheckpointError(f"{path}: bad embedded config: {exc}") from exc
    step = reader.unpack("<Q")
    count = reader.unpack("<I")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = reader.unpack("<I")
        name = reader.text(name_len, "parameter name")
        if name in params:
            raise CheckpointError(f"{path}: parameter {name!r} is stored twice")
        rank = reader.unpack("<I")
        if rank not in (1, 2):  # every model parameter is a vector or a matrix
            raise CheckpointError(f"{path}: parameter {name!r} has rank {rank}")
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        params[name] = reader.array(shape, name)
    flag, opt_step = reader.unpack("<BQ")
    if flag != 1 or opt_step != step:
        raise CheckpointError(f"{path}: optimizer flag {flag} and update count {opt_step} "
                              f"do not give the moments of step {step}")
    opt_avg, opt_avg_sq = [], []
    for name, param in params.items():
        opt_avg.append(reader.array(param.shape, f"first moment of {name}"))
        opt_avg_sq.append(reader.array(param.shape, f"second moment of {name}"))
    if reader.pos != len(reader.raw):
        raise CheckpointError(f"{path}: {len(reader.raw) - reader.pos} trailing bytes")
    return Checkpoint(config, step, params, opt_avg, opt_avg_sq)


def restore_model(snapshot: Checkpoint) -> UlMlpModel:
    """Rebuild the model from the embedded config and overwrite every parameter.

    The stored records must name the model's parameters in the model's order,
    because the optimizer moments follow them by position."""
    model = build_model(snapshot.config.backbone_config(), snapshot.config.seed,
                        dtype=np.float32)
    names = [name for name, _ in model.named_parameters()]
    if names != list(snapshot.params):
        unmatched = sorted(set(names).symmetric_difference(snapshot.params))
        raise CheckpointError("parameter records do not list the model's names in its "
                              f"order (names on one side only: {unmatched})")
    for name, param in model.named_parameters():
        stored = snapshot.params[name]
        if stored.shape != param.shape:
            raise CheckpointError(f"shape mismatch for {name}: {stored.shape} vs {param.shape}")
        param.data[...] = stored
    return model


__all__ = [
    "Checkpoint",
    "CheckpointError",
    "MAGIC",
    "VERSION",
    "atomic_open",
    "load_checkpoint",
    "restore_model",
    "save_checkpoint",
]
