"""U-shaped token backbone: patch embedding, [time | text | image] token
assembly, a stack of blocks whose encoder/decoder halves are tied by additive
long skip connections, and a linear head mapping image tokens back to pixels,
optionally followed by a 3x3 convolution.

The network predicts the noise component of its input, so input and output
share the B x C x H x W layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import (
    LayerNorm,
    LinearLayer,
    Module,
    make_block,
    preset_config,
    trunc_normal,
)
from .diffusion import check_timesteps
from .tensor import Tensor

SKIP_MODES = ("none", "first_stage", "second_stage")
HEAD_KINDS = ("linear", "conv3x3_postprocess")


# ---------------------------------------------------------------------------
# patch rearrangement
# ---------------------------------------------------------------------------

def patchify(img: Tensor, patch: int) -> Tensor:
    """B x C x H x W -> B x (H/p)(W/p) x p*p*C, patches in row-major order."""
    if img.ndim != 4:
        raise T.ShapeError(f"expected an image batch of rank 4, got {img.shape}")
    batch, channels, height, width = img.shape
    if patch < 1 or height % patch or width % patch:
        raise T.ShapeError(f"extents {height}x{width} not divisible by patch {patch}")
    rows, cols = height // patch, width // patch
    x = T.reshape(img, (batch, channels, rows, patch, cols, patch))
    x = T.permute(x, (0, 2, 4, 1, 3, 5))
    return T.reshape(x, (batch, rows * cols, channels * patch * patch))


def unpatchify(tokens: Tensor, side: int, channels: int, patch: int) -> Tensor:
    """Inverse of patchify for square images."""
    if tokens.ndim != 3:
        raise T.ShapeError(f"expected tokens of rank 3, got {tokens.shape}")
    rows = side // patch
    batch = tokens.shape[0]
    if tokens.shape[1] != rows * rows or tokens.shape[2] != channels * patch * patch:
        raise T.ShapeError(f"token shape {tokens.shape} does not fit side {side}, "
                           f"channels {channels}, patch {patch}")
    x = T.reshape(tokens, (batch, rows, rows, channels, patch, patch))
    x = T.permute(x, (0, 3, 1, 4, 2, 5))
    return T.reshape(x, (batch, channels, side, side))


def sinusoidal_encoding(t: np.ndarray, dim: int) -> np.ndarray:
    """(B,) integer steps -> (B, dim): sin at geometric frequencies, then cos."""
    if dim % 2:
        raise T.ShapeError("sinusoidal encoding needs an even dimension")
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = 10000.0 ** (-2.0 * np.arange(half) / dim)
    angles = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackboneConfig:
    """Backbone geometry, block preset and wiring; refuses bad values when built."""
    image_side: int = 8
    in_channels: int = 1
    patch: int = 2
    embed_dim: int = 64
    depth: int = 4
    text_tokens: int = 4
    vocab_size: int = 16          # rows of the text embedding table, id 0 = null
    preset: str = "F2"
    mlp_scale: float = 4.0
    skip_mode: str = "second_stage"
    head_kind: str = "linear"
    num_timesteps: int = 1000

    @property
    def image_tokens(self) -> int:
        return (self.image_side // self.patch) ** 2

    @property
    def token_boundaries(self) -> tuple[int, int]:
        """Where the text and the image tokens start in the
        [time | text | image] sequence."""
        return 1, 1 + self.text_tokens

    @property
    def seq_len(self) -> int:
        return self.token_boundaries[1] + self.image_tokens

    def __post_init__(self) -> None:
        if self.patch < 1 or self.image_side % self.patch:
            raise T.UsageError(f"image_side {self.image_side} not divisible by patch {self.patch}")
        if self.embed_dim < 2 or self.embed_dim % 2:
            raise T.UsageError("embed_dim must be even (sinusoidal time encoding)")
        if self.depth < 1:
            raise T.UsageError("depth must be at least 1")
        if self.skip_mode not in SKIP_MODES:
            raise T.UsageError(f"unknown skip_mode {self.skip_mode!r}")
        if self.skip_mode != "none" and self.depth < 2:
            raise T.UsageError("skip connections need depth >= 2")
        if self.head_kind not in HEAD_KINDS:
            raise T.UsageError(f"unknown head_kind {self.head_kind!r}")
        if self.text_tokens < 0 or self.in_channels < 1 or self.vocab_size < 1:
            raise T.UsageError("text_tokens, in_channels and vocab_size must be positive")
        if self.num_timesteps < 1:
            raise T.UsageError("num_timesteps must be positive")
        preset_config(self.preset, self.seq_len, self.embed_dim, self.mlp_scale)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

class Embedding(Module):
    """Lookup table: each id selects one trainable row."""

    def __init__(self, rows: int, dim: int, rng: np.random.Generator, dtype=np.float64):
        self.table = Tensor(trunc_normal(rng, (rows, dim)).astype(dtype), requires_grad=True)

    def __call__(self, ids: np.ndarray) -> Tensor:
        return T.gather_rows(self.table, ids)


class UlMlpModel(Module):
    """Token backbone with floor(depth/2) encoder/decoder skip pairs."""

    def __init__(self, config: BackboneConfig, rng: np.random.Generator, dtype=np.float64):
        self.config = config
        self.dtype = dtype
        patch_in = config.patch * config.patch * config.in_channels
        dim = config.embed_dim
        self.patch_embed = LinearLayer(patch_in, dim, rng, dtype)
        self.time_embed = LinearLayer(dim, dim, rng, dtype)
        self.text_embed = Embedding(config.vocab_size, dim, rng, dtype)
        block_cfg = preset_config(config.preset, config.seq_len, dim, config.mlp_scale)
        self.blocks = [make_block(block_cfg, rng, dtype) for _ in range(config.depth)]
        self.final_norm = LayerNorm(dim, dtype)
        self.head = LinearLayer(dim, patch_in, rng, dtype)
        if config.head_kind == "conv3x3_postprocess":
            c = config.in_channels
            self.head_conv = LinearLayer(9 * c, c, rng, dtype)
        else:
            self.head_conv = None

    # -- embedding ----------------------------------------------------------
    def embed_timestep(self, t) -> Tensor:
        """(B,) steps -> (B, 1, D) time tokens."""
        t = check_timesteps(t, self.config.num_timesteps)
        enc = sinusoidal_encoding(t, self.config.embed_dim).astype(self.dtype)
        return self.time_embed(Tensor(enc[:, None, :]))

    def embed_text(self, text_ids: np.ndarray) -> Tensor:
        text_ids = np.asarray(text_ids)
        if text_ids.ndim != 2 or text_ids.shape[1] != self.config.text_tokens:
            raise T.ShapeError(
                f"text ids must be (B, {self.config.text_tokens}), got {text_ids.shape}"
            )
        return self.text_embed(text_ids)

    def assemble_tokens(self, img_tokens: Tensor, text_ids: np.ndarray, t) -> Tensor:
        """Join [time | text | image] embeddings into one B x L x D sequence:
        the time token, then ``text_tokens`` text tokens, then the image."""
        time_tok = self.embed_timestep(t)
        text_tok = self.embed_text(text_ids)
        return T.concat([time_tok, text_tok, img_tokens], axis=1)

    # -- forward ------------------------------------------------------------
    def run_blocks(self, x: Tensor) -> Tensor:
        """Decoder block ``depth - 1 - i`` takes encoder block i's output as a
        long skip, for i < depth // 2: added to the block's input
        (``first_stage``) or by the block where its second stage begins
        (``second_stage``)."""
        depth, mode = self.config.depth, self.config.skip_mode
        half = 0 if mode == "none" else depth // 2
        encoded: list[Tensor] = []
        for index, block in enumerate(self.blocks):
            skip = encoded.pop() if index >= depth - half else None
            if skip is not None and mode == "first_stage":
                x, skip = x + skip, None
            x = block.forward(x, skip=skip)
            if index < half:
                encoded.append(x)
        return x

    def output_head(self, tokens: Tensor) -> Tensor:
        """Project the image tokens (after the time and text tokens) back to
        B x C x H x W."""
        cfg = self.config
        start = cfg.token_boundaries[1]
        img = T.narrow(tokens, 1, start, tokens.shape[1] - start)
        pixels = self.head(img)
        out = unpatchify(pixels, cfg.image_side, cfg.in_channels, cfg.patch)
        if self.head_conv is not None:
            out = self._conv3x3(out)
        return out

    def _conv3x3(self, img: Tensor) -> Tensor:
        """Zero-padded 3x3 convolution: one row lookup gathers every window."""
        batch, channels, side, _ = img.shape
        size = img.size
        b, i, j, k, c = np.ogrid[:batch, :side, :side, :9, :channels]
        row, col = i + k // 3 - 1, j + k % 3 - 1
        inside = (row >= 0) & (row < side) & (col >= 0) & (col < side)
        # Index into the flattened image; taps off the image read the zero row.
        ids = np.where(inside, ((b * channels + c) * side + row) * side + col, size)
        zero = Tensor(np.zeros((1, 1), dtype=img.dtype))
        table = T.concat([T.reshape(img, (size, 1)), zero], axis=0)
        windows = T.reshape(T.gather_rows(table, ids), (batch, side, side, 9 * channels))
        mixed = self.head_conv(windows)
        return T.permute(mixed, (0, 3, 1, 2))

    def forward(self, x_t: Tensor, text_ids: np.ndarray, t) -> Tensor:
        """Predict the noise component of ``x_t`` given text ids and timesteps."""
        cfg = self.config
        if x_t.ndim != 4 or x_t.shape[1:] != (cfg.in_channels, cfg.image_side, cfg.image_side):
            raise T.ShapeError(
                f"expected input of shape (B, {cfg.in_channels}, {cfg.image_side}, "
                f"{cfg.image_side}), got {x_t.shape}"
            )
        img_tokens = self.patch_embed(patchify(x_t, cfg.patch))
        t = np.atleast_1d(np.asarray(t))
        if t.size == 1 and x_t.shape[0] > 1:
            t = np.full(x_t.shape[0], t[0])
        mixed = self.run_blocks(self.assemble_tokens(img_tokens, text_ids, t))
        return self.output_head(self.final_norm(mixed))

    __call__ = forward


def build_model(config: BackboneConfig, seed: int, dtype=np.float64) -> UlMlpModel:
    """Deterministic model construction: same seed, bitwise-identical weights."""
    return UlMlpModel(config, np.random.default_rng(seed), dtype)


__all__ = [
    "BackboneConfig",
    "Embedding",
    "HEAD_KINDS",
    "SKIP_MODES",
    "UlMlpModel",
    "build_model",
    "patchify",
    "sinusoidal_encoding",
    "unpatchify",
]
