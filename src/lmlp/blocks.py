"""Sequence-to-sequence blocks over B x L x D token tensors.

The two-branch lateralized block normalizes and transforms the token axis
(left branch, mapped along L in place) and the channel axis (right branch)
in parallel, merges the branches, projects, and optionally runs a joint
channel MLP. Every layer takes the axis it maps, so no block copies its
input into a permuted layout. Named presets cover the full design-variant
grid plus token-mixing, gated-MLP and self-attention baselines behind the
same interface, so backbones can swap block families with one config key.
Every block's ``forward(x, skip=None)`` adds a given long skip where its
second stage begins; which skip reaches which block is the backbone's choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


class UnsupportedBlockError(ValueError):
    """Requested design-axis combination is not part of the supported grid."""


INIT_STD = 0.02
INIT_CLIP = 2.0  # in units of sigma


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std^2) resampled until every draw lies within +-2 sigma."""
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    # Only redrawn entries can change, so each round re-checks just those.
    # The indices stay ascending, so draws land in the flat order a boolean
    # mask over the whole array would give them.
    bad = np.flatnonzero(np.abs(flat) > INIT_CLIP)
    while bad.size:
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > INIT_CLIP]
    return std * out


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class Module:
    """Names its parameters from its attributes, in assignment order."""

    def named_parameters(self, prefix: str = ""):
        """(name, tensor) for every trainable tensor reachable from the
        attributes, in the order ``__init__`` assigned them: a tensor is named
        by its attribute, a submodule's parameters go under ``attr.`` and a
        list's under ``attr.<index>.``. This order is the checkpoint's record
        order and AdamW's buffer order."""
        for attr, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + attr, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{attr}.")
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    yield from item.named_parameters(f"{prefix}{attr}.{index}.")


class LinearLayer(Module):
    """y = x @ W^T + b over the trailing extent (``axis=-1``), or y = W @ x + b
    over the extent before it (``axis=-2``); every other extent passes through."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 dtype=np.float64, zero_weight: bool = False, axis: int = -1):
        weight = np.zeros((out_dim, in_dim)) if zero_weight else trunc_normal(rng, (out_dim, in_dim))
        self.weight = Tensor(weight.astype(dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)
        self.axis = axis

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight, self.bias, self.axis)


class LayerNorm(Module):
    """Normalizes the extent at ``axis`` (-1: trailing, -2: the one before it)."""

    def __init__(self, extent: int, dtype=np.float64, axis: int = -1):
        self.axis = axis
        self.gain = Tensor(np.ones(extent, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(extent, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, self.axis)


class MlpLayer(Module):
    """Two-layer MLP with a GELU between, over the extent at ``axis``; output
    extent equals input extent."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator,
                 dtype=np.float64, zero_out: bool = False, axis: int = -1):
        self.fc1 = LinearLayer(dim, hidden, rng, dtype, axis=axis)
        self.fc2 = LinearLayer(hidden, dim, rng, dtype, zero_weight=zero_out, axis=axis)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(T.gelu(self.fc1(x)))


def mlp_hidden(dim: int, scale: float) -> int:
    """Hidden width for a given capacity scale factor (at least 1)."""
    return max(1, round(scale * dim))


class BranchNet(LinearLayer):
    """Square map over the extent at ``axis``: Linear, optionally followed by GELU."""

    def __init__(self, extent: int, with_gelu: bool, rng: np.random.Generator,
                 dtype=np.float64, axis: int = -1):
        super().__init__(extent, extent, rng, dtype, axis=axis)
        self.with_gelu = with_gelu

    def __call__(self, x: Tensor) -> Tensor:
        out = super().__call__(x)
        return T.gelu(out) if self.with_gelu else out


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

KINDS = ("lmlp", "transformer", "mixer", "gmlp")
LMLP_AXIS_VALUES = {"first_stage": ("linear", "one_layer_mlp"),
                    "left_activation": ("none", "gelu"), "merge_op": ("sum", "product", "glu"),
                    "merge_projection": ("linear", "none"), "second_stage": ("none", "mlp")}


@dataclass(frozen=True)
class BlockConfig:
    """Topology and sizes of one block; refuses unsupported values when built."""
    seq_len: int
    embed_dim: int
    kind: str = "lmlp"
    first_stage: str = "linear"
    left_activation: str = "none"     # gelu applies to the token (left) branch only
    merge_op: str = "sum"
    merge_projection: str = "linear"
    second_stage: str = "mlp"
    mlp_scale: float = 4.0

    @property
    def heads(self) -> int:  # of a transformer block: one per 64 channels
        return max(1, self.embed_dim // 64)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise UnsupportedBlockError(f"unknown block kind {self.kind!r}")
        if self.seq_len < 1 or self.embed_dim < 1:
            raise T.ShapeError("seq_len and embed_dim must be positive")
        if self.kind == "lmlp":
            for axis, allowed in LMLP_AXIS_VALUES.items():
                if getattr(self, axis) not in allowed:
                    raise UnsupportedBlockError(f"unknown {axis.replace('_', ' ')} "
                                                f"{getattr(self, axis)!r}")
            if self.merge_op == "glu" and self.merge_projection == "none":
                raise UnsupportedBlockError("glu merge requires the merge projection")
        if not 0 < self.mlp_scale < np.inf:
            raise UnsupportedBlockError("mlp_scale must be a positive finite number")
        try:
            mlp_hidden(self.embed_dim, self.mlp_scale)
        except OverflowError:
            raise UnsupportedBlockError(f"mlp_scale {self.mlp_scale!r} gives no finite "
                                        f"hidden width at embed_dim {self.embed_dim}") from None
        if self.kind == "transformer" and self.embed_dim % self.heads:
            raise UnsupportedBlockError(f"embed_dim {self.embed_dim} not divisible into "
                                        f"{self.heads} heads")


_LMLP_AXES = {
    # (first_stage, left_activation, merge_op, merge_projection, second_stage)
    "A1": ("one_layer_mlp", "none", "sum", "linear", "none"),
    "B1": ("one_layer_mlp", "none", "product", "linear", "none"),
    "B2": ("one_layer_mlp", "none", "glu", "linear", "none"),
    "B3": ("one_layer_mlp", "none", "sum", "none", "none"),
    "C1": ("one_layer_mlp", "none", "sum", "linear", "mlp"),
    "D1": ("linear", "none", "product", "linear", "mlp"),
    "D2": ("linear", "none", "sum", "linear", "mlp"),
    "E1": ("linear", "gelu", "product", "linear", "mlp"),
    "E2": ("linear", "gelu", "sum", "linear", "mlp"),
}
# All three name the D2 block. The paper's F-variants differ in skip placement,
# depth and MLP scale, which the backbone keys skip_mode, depth and mlp_scale
# set; the preset name selects none of them.
_ALIASES = {"F1": "D2", "F2": "D2", "F2-DEEP": "D2"}
_BASELINES = {"A2": "mixer", "A3": "gmlp", "TRANSFORMER": "transformer"}

PRESET_NAMES = tuple(_LMLP_AXES) + tuple(_ALIASES) + tuple(_BASELINES)


def preset_config(name: str, seq_len: int, embed_dim: int, mlp_scale: float = 4.0) -> BlockConfig:
    """BlockConfig for a named design-grid preset (topology only; sizes are args)."""
    key = name.strip().upper().replace("_", "-")
    key = _ALIASES.get(key, key)
    if key in _BASELINES:
        return BlockConfig(seq_len=seq_len, embed_dim=embed_dim, kind=_BASELINES[key],
                           mlp_scale=mlp_scale)
    if key not in _LMLP_AXES:
        raise UnsupportedBlockError(f"unknown preset {name!r}")
    first, act, merge, proj, second = _LMLP_AXES[key]
    return BlockConfig(seq_len=seq_len, embed_dim=embed_dim, kind="lmlp",
                       first_stage=first, left_activation=act, merge_op=merge,
                       merge_projection=proj, second_stage=second, mlp_scale=mlp_scale)


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

def _check_tokens(x: Tensor, cfg: BlockConfig) -> None:
    if x.ndim != 3 or x.shape[1] != cfg.seq_len or x.shape[2] != cfg.embed_dim:
        raise T.ShapeError(
            f"expected tokens of shape (B, {cfg.seq_len}, {cfg.embed_dim}), got {x.shape}"
        )


class LmlpBlock(Module):
    """Two-branch block: normalize and square-map the token axis (left) and the
    channel axis (right), merge, project, residual, then an optional joint
    channel MLP."""

    def __init__(self, cfg: BlockConfig, rng: np.random.Generator, dtype=np.float64):
        seq, dim = cfg.seq_len, cfg.embed_dim
        gelu_everywhere = cfg.first_stage == "one_layer_mlp"
        self.cfg = cfg
        self.norm_r = LayerNorm(dim, dtype)
        self.norm_l = LayerNorm(seq, dtype, axis=-2)
        self.fnn_r = BranchNet(dim, gelu_everywhere, rng, dtype)
        self.fnn_l = BranchNet(seq, gelu_everywhere or cfg.left_activation == "gelu",
                               rng, dtype, axis=-2)
        if cfg.merge_projection == "linear":
            # Zero weight so a fresh block is the identity map.
            self.merge_proj = LinearLayer(dim, dim, rng, dtype, zero_weight=True)
        else:
            self.merge_proj = None
        if cfg.second_stage == "mlp":
            self.norm_2 = LayerNorm(dim, dtype)
            self.fnn_c = MlpLayer(dim, mlp_hidden(dim, cfg.mlp_scale), rng, dtype,
                                  zero_out=True)
        else:
            self.norm_2 = None
            self.fnn_c = None

    def forward(self, x: Tensor, skip: Tensor | None = None) -> Tensor:
        _check_tokens(x, self.cfg)
        r = self.fnn_r(self.norm_r(x))
        left = self.fnn_l(self.norm_l(x))
        if self.cfg.merge_op == "sum":
            merged = left + r
        elif self.cfg.merge_op == "product":
            merged = left * r
        else:  # glu
            merged = left * T.sigmoid(r)
        z = self.merge_proj(merged) if self.merge_proj is not None else merged
        h = x + z
        if skip is not None:
            h = h + skip
        if self.fnn_c is not None:
            return h + self.fnn_c(self.norm_2(h))
        return h

    __call__ = forward


class TransformerBlock(Module):
    """Pre-norm multi-head self-attention plus pre-norm MLP, standard residuals."""

    def __init__(self, cfg: BlockConfig, rng: np.random.Generator, dtype=np.float64):
        dim = cfg.embed_dim
        self.cfg = cfg
        self.heads = cfg.heads
        self.norm_1 = LayerNorm(dim, dtype)
        self.w_q = LinearLayer(dim, dim, rng, dtype)
        self.w_k = LinearLayer(dim, dim, rng, dtype)
        self.w_v = LinearLayer(dim, dim, rng, dtype)
        self.w_o = LinearLayer(dim, dim, rng, dtype)
        self.norm_2 = LayerNorm(dim, dtype)
        self.mlp = MlpLayer(dim, mlp_hidden(dim, cfg.mlp_scale), rng, dtype)

    def forward(self, x: Tensor, skip: Tensor | None = None) -> Tensor:
        _check_tokens(x, self.cfg)
        n = self.norm_1(x)
        h = x + self.w_o(T.attention(self.w_q(n), self.w_k(n), self.w_v(n), self.heads))
        if skip is not None:
            h = h + skip
        return h + self.mlp(self.norm_2(h))

    __call__ = forward


class MixerBlock(Module):
    """Pre-norm token-mixing MLP over L, then pre-norm channel-mixing MLP over D."""

    def __init__(self, cfg: BlockConfig, rng: np.random.Generator, dtype=np.float64):
        seq, dim = cfg.seq_len, cfg.embed_dim
        self.cfg = cfg
        self.norm_1 = LayerNorm(dim, dtype)
        self.token_mlp = MlpLayer(seq, seq, rng, dtype, axis=-2)
        self.norm_2 = LayerNorm(dim, dtype)
        self.channel_mlp = MlpLayer(dim, mlp_hidden(dim, cfg.mlp_scale), rng, dtype)

    def forward(self, x: Tensor, skip: Tensor | None = None) -> Tensor:
        _check_tokens(x, self.cfg)
        h = x + self.token_mlp(self.norm_1(x))
        if skip is not None:
            h = h + skip
        return h + self.channel_mlp(self.norm_2(h))

    __call__ = forward


class GmlpBlock(Module):
    """Pre-norm channel expansion with a spatial gating unit over the token axis.

    One half of the expanded channels gates the other half after the latter is
    normalized and mixed by a linear map over L; single residual around the block.
    """

    def __init__(self, cfg: BlockConfig, rng: np.random.Generator, dtype=np.float64):
        seq, dim = cfg.seq_len, cfg.embed_dim
        hidden = mlp_hidden(dim, cfg.mlp_scale)
        self.cfg = cfg
        self.hidden = hidden
        self.norm_in = LayerNorm(dim, dtype)
        self.proj_in = LinearLayer(dim, 2 * hidden, rng, dtype)
        self.norm_gate = LayerNorm(hidden, dtype)
        self.spatial = LinearLayer(seq, seq, rng, dtype, axis=-2)
        self.proj_out = LinearLayer(hidden, dim, rng, dtype)

    def forward(self, x: Tensor, skip: Tensor | None = None) -> Tensor:
        _check_tokens(x, self.cfg)
        expanded = T.gelu(self.proj_in(self.norm_in(x)))
        u = T.narrow(expanded, -1, 0, self.hidden)
        v = self.norm_gate(T.narrow(expanded, -1, self.hidden, self.hidden))
        out = x + self.proj_out(u * self.spatial(v))
        if skip is not None:
            out = out + skip
        return out

    __call__ = forward


Block = LmlpBlock | TransformerBlock | MixerBlock | GmlpBlock

_BLOCK_CLASSES = {
    "lmlp": LmlpBlock,
    "transformer": TransformerBlock,
    "mixer": MixerBlock,
    "gmlp": GmlpBlock,
}


def make_block(cfg: BlockConfig, rng: np.random.Generator, dtype=np.float64) -> Block:
    return _BLOCK_CLASSES[cfg.kind](cfg, rng, dtype)


def build_block(cfg: BlockConfig | str, rng_seed: int, *, seq_len: int | None = None,
                embed_dim: int | None = None, mlp_scale: float = 4.0,
                dtype=np.float64) -> Block:
    """Construct a block from a config or preset name; deterministic per seed."""
    if isinstance(cfg, str):
        if seq_len is None or embed_dim is None:
            raise T.UsageError("preset construction needs seq_len and embed_dim")
        cfg = preset_config(cfg, seq_len, embed_dim, mlp_scale)
    return make_block(cfg, np.random.default_rng(rng_seed), dtype)


def parameter_count(block) -> int:
    """Every trainable scalar in the block (weights, biases, norm affines)."""
    return sum(p.size for _, p in block.named_parameters())


def zero_parameters(block) -> None:
    for _, p in block.named_parameters():
        p.data[...] = 0.0


__all__ = [
    "Block",
    "BlockConfig",
    "BranchNet",
    "GmlpBlock",
    "LayerNorm",
    "LinearLayer",
    "LmlpBlock",
    "MixerBlock",
    "MlpLayer",
    "Module",
    "PRESET_NAMES",
    "TransformerBlock",
    "UnsupportedBlockError",
    "build_block",
    "make_block",
    "mlp_hidden",
    "parameter_count",
    "preset_config",
    "trunc_normal",
    "zero_parameters",
]
