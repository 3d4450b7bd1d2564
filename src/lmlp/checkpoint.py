"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  b"LMLP"
    version u32      currently 1
    config  u32 length + UTF-8 run-config text
    step    u64      training step the snapshot was taken at
    params  u32 count, then per parameter:
              u32 name length + name bytes
              u32 rank + u32 extents
              float32 data, little-endian
    opt     u8 flag; when 1: u64 moment-update count, then for every
            parameter in order: float32 first-moment data, float32
            second-moment data (shapes match the parameter)

Parameters are stored as 32-bit floats, so checkpointed models are built
with dtype float32 and round-trip bitwise. A checkpoint is written to a
temporary file next to its path and renamed into place, so a write that
fails part-way leaves any earlier file at that path as it was.
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
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .optim import AdamW
from .tensor import UsageError

MAGIC = b"LMLP"
VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass
class Checkpoint:
    config: RunConfig
    step: int
    params: dict[str, np.ndarray]
    opt_step: int | None
    opt_exp_avg: list[np.ndarray] | None
    opt_exp_avg_sq: list[np.ndarray] | None


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


def save_checkpoint(path, config: RunConfig, model: UlMlpModel, step: int,
                    optimizer: AdamW | None = None) -> None:
    if model.dtype != np.float32:
        raise UsageError("checkpoints store 32-bit values; build the model with float32")
    named = list(model.named_parameters())
    if optimizer is not None and optimizer.names != [name for name, _ in named]:
        raise UsageError("optimizer does not track the model's parameter list")
    config_bytes = serialize_config(config).encode()
    with atomic_open(path) as out:
        out.write(MAGIC + struct.pack("<I", VERSION))
        out.write(struct.pack("<I", len(config_bytes)) + config_bytes)
        out.write(struct.pack("<QI", step, len(named)))
        for name, param in named:
            name_bytes = name.encode()
            out.write(struct.pack("<I", len(name_bytes)) + name_bytes)
            out.write(struct.pack(f"<I{param.ndim}I", param.ndim, *param.shape))
            _write_array(out, param.data)
        if optimizer is None:
            out.write(struct.pack("<B", 0))
        else:
            out.write(struct.pack("<BQ", 1, optimizer.step_count))
            for m, v in zip(optimizer.exp_avg, optimizer.exp_avg_sq):
                _write_array(out, m)
                _write_array(out, v)


class _Reader:
    def __init__(self, raw: bytes):
        self.raw = raw
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.raw):
            raise CheckpointError("truncated checkpoint")
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
            raise CheckpointError(f"{what} is not UTF-8 text") from exc

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        data = np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{what} holds a non-finite value")
        return data.reshape(shape).astype(np.float32)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed content raises ``CheckpointError``."""
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    version = reader.unpack("<I")
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    config_len = reader.unpack("<I")
    try:
        config = parse_config(reader.text(config_len, "embedded config"))
    except (ConfigError, UsageError) as exc:
        raise CheckpointError(f"{path}: bad embedded config: {exc}") from exc
    step = reader.unpack("<Q")
    count = reader.unpack("<I")
    params: dict[str, np.ndarray] = {}
    shapes: list[tuple[int, ...]] = []
    for _ in range(count):
        name_len = reader.unpack("<I")
        name = reader.text(name_len, "parameter name")
        if name in params:
            raise CheckpointError(f"{path}: parameter {name!r} is stored twice")
        rank = reader.unpack("<I")
        if rank == 0:
            shape: tuple[int, ...] = ()
        elif rank == 1:
            shape = (reader.unpack("<I"),)
        else:
            shape = tuple(reader.unpack(f"<{rank}I"))
        params[name] = reader.array(shape, name)
        shapes.append(shape)
    has_opt = reader.unpack("<B")
    if has_opt not in (0, 1):
        raise CheckpointError(f"{path}: bad optimizer flag {has_opt}")
    opt_step = opt_avg = opt_avg_sq = None
    if has_opt:
        opt_step = reader.unpack("<Q")
        opt_avg, opt_avg_sq = [], []
        for name, shape in zip(params, shapes):
            opt_avg.append(reader.array(shape, f"first moment of {name}"))
            opt_avg_sq.append(reader.array(shape, f"second moment of {name}"))
    if reader.pos != len(reader.raw):
        raise CheckpointError(f"{path}: {len(reader.raw) - reader.pos} trailing bytes")
    return Checkpoint(config, step, params, opt_step, opt_avg, opt_avg_sq)


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
