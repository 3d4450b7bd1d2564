"""Binary PGM (P5) and PPM (P6) image files with 8-bit samples."""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _read_header(raw: bytes, magic: bytes) -> tuple[int, int, int, int]:
    if not raw.startswith(magic):
        raise ValueError(f"not a {magic.decode()} file")
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
    return fields[0], fields[1], fields[2], pos + 1


def write_pgm(path, values: np.ndarray) -> None:
    """Write a (H, W) uint8 array as binary PGM."""
    values = np.asarray(values, dtype=np.uint8)
    if values.ndim != 2:
        raise ValueError("PGM wants a 2-d array")
    height, width = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(values.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    width, height, maxval, offset = _read_header(raw, b"P5")
    if maxval != 255:
        raise ValueError("only 8-bit PGM supported")
    return np.frombuffer(raw, dtype=np.uint8, count=width * height,
                         offset=offset).reshape(height, width).copy()


def write_ppm(path, values: np.ndarray) -> None:
    """Write a (H, W, 3) uint8 array as binary PPM."""
    values = np.asarray(values, dtype=np.uint8)
    if values.ndim != 3 or values.shape[2] != 3:
        raise ValueError("PPM wants a (H, W, 3) array")
    height, width = values.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{width} {height}\n255\n".encode())
        fh.write(values.tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    width, height, maxval, offset = _read_header(raw, b"P6")
    if maxval != 255:
        raise ValueError("only 8-bit PPM supported")
    return np.frombuffer(raw, dtype=np.uint8, count=width * height * 3,
                         offset=offset).reshape(height, width, 3).copy()


def to_bytes(values: np.ndarray) -> np.ndarray:
    """Quantize floats in [0, 1] to uint8 by round-to-nearest."""
    return np.clip(np.rint(np.asarray(values) * 255.0), 0, 255).astype(np.uint8)


def write_image(out_dir, stem: str, image: np.ndarray) -> None:
    """Write a (C, H, W) image of floats in [0, 1] as ``<stem>.ppm`` when it
    has 3 channels, otherwise channel 0 as ``<stem>.pgm``."""
    if image.shape[0] == 3:
        write_ppm(Path(out_dir) / f"{stem}.ppm", to_bytes(np.moveaxis(image, 0, -1)))
    else:
        write_pgm(Path(out_dir) / f"{stem}.pgm", to_bytes(image[0]))


__all__ = ["read_pgm", "read_ppm", "to_bytes", "write_image", "write_pgm", "write_ppm"]
