"""Procedural conditional toy images.

Each sample is a small image showing one shape at one position with one
intensity, plus the caption token ids describing it. Generation is a pure
function of (seed, index): the caption controls the image family and the
per-index generator only jitters placement and brightness within it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pgm
from .tensor import UsageError

NULL_ID = 0
NULL_WORD = "<null>"

SHAPES = ("square", "disk", "cross")
POSITIONS = ("top-left", "top-right", "bottom-left", "bottom-right", "center")
INTENSITIES = ("dim", "bright")

WORDS = SHAPES + POSITIONS + INTENSITIES
VOCAB = {NULL_WORD: NULL_ID, **{word: i + 1 for i, word in enumerate(WORDS)}}
ID_TO_WORD = {i: w for w, i in VOCAB.items()}
VOCAB_SIZE = len(VOCAB)

BACKGROUND = 0.05


def encode_caption(words: list[str], text_tokens: int) -> np.ndarray:
    """Words -> fixed-length id vector padded with the null id."""
    if len(words) > text_tokens:
        raise UsageError(f"caption {' '.join(words)!r} has {len(words)} words; "
                         f"the model reads at most {text_tokens}")
    ids = []
    for word in words:
        if word not in VOCAB:
            raise UsageError(f"unknown caption token {word!r}")
        ids.append(VOCAB[word])
    return np.array(ids + [NULL_ID] * (text_tokens - len(ids)), dtype=np.int64)


def decode_caption(ids) -> list[str]:
    words = []
    for token in np.asarray(ids).reshape(-1):
        if int(token) not in ID_TO_WORD:
            raise UsageError(f"unknown caption token id {int(token)}")
        if int(token) != NULL_ID:
            words.append(ID_TO_WORD[int(token)])
    return words


@dataclass(frozen=True)
class ToyDatasetConfig:
    """Toy image size, channels, caption slots and seed; refuses bad values when built."""
    side: int = 8
    channels: int = 1
    text_tokens: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.side not in (8, 16):
            raise UsageError(f"toy images come in sides 8 or 16, not image_side {self.side}")
        if not 1 <= self.channels <= 3:
            raise UsageError(f"toy images have 1 to 3 channels, not in_channels {self.channels}")
        if self.text_tokens < 3:
            raise UsageError(f"toy captions have 3 words, too many for "
                             f"text_tokens {self.text_tokens}")
        if self.seed < 0:
            raise UsageError(f"toy data seed must be non-negative, got {self.seed}")


def _stencil(shape: str, size: int) -> np.ndarray:
    out = np.zeros((size, size))
    mid = size // 2
    if shape == "square":
        out[:, :] = 1.0
    elif shape == "disk":
        rows, cols = np.indices((size, size))
        radius = size / 2.0
        out[(rows - mid) ** 2 + (cols - mid) ** 2 <= radius ** 2] = 1.0
    elif shape == "cross":
        out[mid, :] = 1.0
        out[:, mid] = 1.0
    else:  # pragma: no cover - caller draws from SHAPES
        raise UsageError(f"unknown shape {shape!r}")
    return out


def sample(config: ToyDatasetConfig, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Image (C, side, side) in [0, 1] and caption ids of length text_tokens."""
    rng = np.random.default_rng((config.seed, index))
    shape = SHAPES[rng.integers(len(SHAPES))]
    position = POSITIONS[rng.integers(len(POSITIONS))]
    intensity = INTENSITIES[rng.integers(len(INTENSITIES))]

    side = config.side
    quadrant = side // 2
    size = quadrant - 1
    canvas = BACKGROUND + rng.uniform(0.0, 0.02, size=(side, side))
    value = rng.uniform(0.35, 0.5) if intensity == "dim" else rng.uniform(0.8, 0.95)

    slack = quadrant - size
    if position == "center":
        base = (side - size) // 2
        row = base + int(rng.integers(-1, 2))
        col = base + int(rng.integers(-1, 2))
    else:
        row = int(rng.integers(0, slack + 1))
        col = int(rng.integers(0, slack + 1))
        if position.startswith("bottom"):
            row += quadrant
        if position.endswith("right"):
            col += quadrant
    patch = canvas[row:row + size, col:col + size]
    canvas[row:row + size, col:col + size] = np.maximum(patch, value * _stencil(shape, size))

    image = np.repeat(canvas[None, :, :], config.channels, axis=0)
    ids = encode_caption([shape, position, intensity], config.text_tokens)
    return image, ids


def generate_arrays(config: ToyDatasetConfig, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Materialize ``count`` samples as stacked arrays (images, caption ids)."""
    images = np.empty((count, config.channels, config.side, config.side))
    captions = np.empty((count, config.text_tokens), dtype=np.int64)
    for index in range(count):
        images[index], captions[index] = sample(config, index)
    return images, captions


def write_dataset(config: ToyDatasetConfig, count: int, out_dir) -> None:
    """Flat-file layout: NNNNN.pgm (or .ppm for 3 channels) plus captions.tsv."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["index\ttoken_ids"]
    for index in range(count):
        image, ids = sample(config, index)
        pgm.write_image(out, f"{index:05d}", image)
        lines.append(f"{index}\t{' '.join(str(int(i)) for i in ids)}")
    (out / "captions.tsv").write_text("\n".join(lines) + "\n")


def quadrant_means(image: np.ndarray) -> dict[str, float]:
    """Mean intensity of each quadrant of the first channel."""
    side = image.shape[-1]
    half = side // 2
    plane = image[0] if image.ndim == 3 else image
    return {
        "top-left": float(plane[:half, :half].mean()),
        "top-right": float(plane[:half, half:].mean()),
        "bottom-left": float(plane[half:, :half].mean()),
        "bottom-right": float(plane[half:, half:].mean()),
    }


__all__ = [
    "BACKGROUND",
    "ID_TO_WORD",
    "INTENSITIES",
    "NULL_ID",
    "NULL_WORD",
    "POSITIONS",
    "SHAPES",
    "ToyDatasetConfig",
    "VOCAB",
    "VOCAB_SIZE",
    "decode_caption",
    "encode_caption",
    "generate_arrays",
    "quadrant_means",
    "sample",
    "write_dataset",
]
