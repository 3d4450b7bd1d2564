"""Inspection of the first-stage branch weights.

The left branch mixes tokens (an L x L map), so its weight matrix can be
read against the [time | text | image] token layout; the right branch mixes
channels (D x D). Maps are normalized to [0, 1] for visualization and split
into the four token-region submatrices for summary statistics.
"""

from __future__ import annotations

import csv as csv_mod
from dataclasses import dataclass, replace

import numpy as np

from . import pgm, tensor as T
from .blocks import LmlpBlock

SIDES = ("left", "right")
REGION_NAMES = ("text_to_text", "image_to_text", "text_to_image", "image_to_image")


@dataclass
class WeightMap:
    """2-d weight matrix with provenance and optional token-region boundaries.

    ``boundaries`` holds the (time|text, text|image) column/row indices of the
    left-branch map; the right branch has no token axis and carries None.
    Rows are outputs, columns inputs.
    """

    matrix: np.ndarray
    side: str
    layer_index: int
    boundaries: tuple[int, int] | None = None


def extract_first_stage(model, layer: int, side: str) -> WeightMap:
    """Copy one branch weight matrix out of a two-branch layer of the model."""
    if side not in SIDES:
        raise T.UsageError(f"side must be one of {SIDES}")
    if layer < 0 or layer >= len(model.blocks):
        raise T.UsageError(f"layer {layer} out of range [0, {len(model.blocks)})")
    block = model.blocks[layer]
    if not isinstance(block, LmlpBlock):
        raise T.UsageError(f"layer {layer} is a {type(block).__name__}, "
                           "not a two-branch block")
    if side == "left":
        return WeightMap(block.fnn_l.weight.data.copy(), "left", layer,
                         boundaries=model.config.token_boundaries)
    return WeightMap(block.fnn_r.weight.data.copy(), "right", layer)


def normalize_unit(wmap: WeightMap) -> WeightMap:
    """Linear rescale to [0, 1]; a constant matrix maps to all 0.5."""
    lo = wmap.matrix.min()
    hi = wmap.matrix.max()
    if hi == lo:
        return replace(wmap, matrix=np.full_like(wmap.matrix, 0.5))
    return replace(wmap, matrix=(wmap.matrix - lo) / (hi - lo))


def region_stats(wmap: WeightMap) -> dict[str, tuple[float, float]]:
    """(mean, population std) over the four token-region submatrices.

    The time row/column is folded into the text region, so the partition is
    cut at the text|image boundary only.
    """
    if wmap.boundaries is None:
        raise T.UsageError("region statistics need a map with token boundaries")
    cut = wmap.boundaries[1]
    size = wmap.matrix.shape[0]
    spans = {"text": (0, cut), "image": (cut, size)}
    out: dict[str, tuple[float, float]] = {}
    for name in REGION_NAMES:
        source, _, target = name.partition("_to_")
        r0, r1 = spans[target]
        c0, c1 = spans[source]
        sub = wmap.matrix[r0:r1, c0:c1]
        mean = np.mean(sub)
        std = np.sqrt(np.mean((sub - mean) ** 2))
        out[name] = (float(mean), float(std))
    return out


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def export_map(wmap: WeightMap, path, fmt: str, mark_boundaries: bool = False) -> None:
    """Write a normalized map as plain CSV decimals or an 8-bit PGM image."""
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv_mod.writer(fh)
            for row in wmap.matrix:
                writer.writerow([f"{value:.8f}" for value in row])
        return
    if fmt == "pgm":
        bytes_img = pgm.to_bytes(wmap.matrix)
        if mark_boundaries and wmap.boundaries is not None:
            for index in wmap.boundaries:
                bytes_img[index, :] = 255
                bytes_img[:, index] = 255
        pgm.write_pnm(path, bytes_img)
        return
    raise T.UsageError(f"unknown export format {fmt!r}")


__all__ = [
    "REGION_NAMES",
    "SIDES",
    "WeightMap",
    "export_map",
    "extract_first_stage",
    "normalize_unit",
    "region_stats",
]
