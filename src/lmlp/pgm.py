"""Binary PGM (P5) and PPM (P6) image files with 8-bit samples.

``write_pnm`` writes a (H, W) array as P5 and a (H, W, 3) array as P6;
``read_pnm`` reads either back, picking the shape from the file's magic.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def _read_header(raw: bytes) -> tuple[bytes, int, int, int, int]:
    magic = raw[:2]
    if magic not in (b"P5", b"P6"):
        raise ValueError("not a P5 or P6 file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(raw[start:pos]))
    return magic, fields[0], fields[1], fields[2], pos + 1


def write_pnm(path, values: np.ndarray) -> None:
    """Write a (H, W) uint8 array as binary PGM, or a (H, W, 3) one as PPM."""
    values = np.asarray(values, dtype=np.uint8)
    if values.ndim == 2:
        magic = "P5"
    elif values.ndim == 3 and values.shape[2] == 3:
        magic = "P6"
    else:
        raise ValueError(f"PNM wants a (H, W) or (H, W, 3) array, got {values.shape}")
    height, width = values.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{width} {height}\n255\n".encode())
        fh.write(values.tobytes())


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM as (H, W) or a binary PPM as (H, W, 3) uint8."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, width, height, maxval, offset = _read_header(raw)
    if maxval != 255:
        raise ValueError("only 8-bit PNM supported")
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    return np.frombuffer(raw, dtype=np.uint8, count=math.prod(shape),
                         offset=offset).reshape(shape).copy()


def to_bytes(values: np.ndarray) -> np.ndarray:
    """Quantize floats in [0, 1] to uint8 by round-to-nearest."""
    return np.clip(np.rint(np.asarray(values) * 255.0), 0, 255).astype(np.uint8)


def write_image(out_dir, stem: str, image: np.ndarray) -> None:
    """Write a (C, H, W) image of floats in [0, 1] as ``<stem>.ppm`` when it
    has 3 channels, otherwise channel 0 as ``<stem>.pgm``."""
    if image.shape[0] == 3:
        write_pnm(Path(out_dir) / f"{stem}.ppm", to_bytes(np.moveaxis(image, 0, -1)))
    else:
        write_pnm(Path(out_dir) / f"{stem}.pgm", to_bytes(image[0]))


__all__ = ["read_pnm", "to_bytes", "write_image", "write_pnm"]
