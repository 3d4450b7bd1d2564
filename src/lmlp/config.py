"""Run configuration: one flat dataclass, serialized as a sectioned
``key = value`` text file. Parsing and serialization are inverse up to
canonical formatting, so parse -> serialize -> parse is a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import dataset
from .backbone import BackboneConfig, ConfigError
from .diffusion import NoiseSchedule, SamplerConfig, check_beta_range
from .optim import check_betas


@dataclass(frozen=True)
class RunConfig:
    """Every key of a run; refuses a bad value when built, naming its key, by
    its own rules and those of the backbone, data and sampler configs."""
    # run
    seed: int = 0
    train_steps: int = 2000
    batch_size: int = 32
    learning_rate: float = 2e-4
    weight_decay: float = 0.03
    beta1: float = 0.9
    beta2: float = 0.9
    warmup_steps: int = 50
    grad_accumulation: int = 1
    checkpoint_every: int = 500
    out_dir: str = "runs/desk"
    # model
    image_side: int = 8
    in_channels: int = 1
    patch: int = 2
    embed_dim: int = 64
    depth: int = 4
    text_tokens: int = 4
    preset: str = "F2"
    mlp_scale: float = 4.0
    skip_mode: str = "second_stage"
    head_kind: str = "linear"
    # diffusion
    train_timesteps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 2e-2
    # guidance
    guidance_scale: float = 1.0
    caption_keep_prob: float = 0.9
    # sampler
    sample_steps: int = 50
    # data
    data_seed: int = 0
    num_samples: int = 2048

    def __post_init__(self) -> None:
        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)!r}")
        for key, low in _INT_MINIMUMS.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.caption_keep_prob <= 1.0:
            raise ConfigError("caption_keep_prob must lie in [0, 1]")
        check_betas(self.beta1, self.beta2)
        check_beta_range(self.beta_start, self.beta_end)
        self.backbone_config()
        self.dataset_config()
        self.sampler_config()

    # -- derived component configs -------------------------------------------
    def backbone_config(self) -> BackboneConfig:
        return BackboneConfig(
            image_side=self.image_side, in_channels=self.in_channels, patch=self.patch,
            embed_dim=self.embed_dim, depth=self.depth, text_tokens=self.text_tokens,
            vocab_size=dataset.VOCAB_SIZE, preset=self.preset, mlp_scale=self.mlp_scale,
            skip_mode=self.skip_mode, head_kind=self.head_kind,
            num_timesteps=self.train_timesteps,
        )

    def noise_schedule(self) -> NoiseSchedule:
        return NoiseSchedule(self.train_timesteps, self.beta_start, self.beta_end)

    def sampler_config(self) -> SamplerConfig:
        return SamplerConfig(num_steps=self.sample_steps)

    def dataset_config(self) -> dataset.ToyDatasetConfig:
        return dataset.ToyDatasetConfig(side=self.image_side, channels=self.in_channels,
                                        text_tokens=self.text_tokens, seed=self.data_seed)


SECTIONS: dict[str, tuple[str, ...]] = {
    "run": ("seed", "train_steps", "batch_size", "learning_rate", "weight_decay",
            "beta1", "beta2", "warmup_steps", "grad_accumulation", "checkpoint_every",
            "out_dir"),
    "model": ("image_side", "in_channels", "patch", "embed_dim", "depth", "text_tokens",
              "preset", "mlp_scale", "skip_mode", "head_kind"),
    "diffusion": ("train_timesteps", "beta_start", "beta_end"),
    "guidance": ("guidance_scale", "caption_keep_prob"),
    "sampler": ("sample_steps",),
    "data": ("data_seed", "num_samples"),
}

_INT_MINIMUMS = {"seed": 0, "data_seed": 0, "train_steps": 0, "warmup_steps": 0,
                 **dict.fromkeys(("batch_size", "grad_accumulation", "checkpoint_every",
                                  "num_samples", "train_timesteps", "sample_steps"), 1)}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_FLOAT_KEYS = tuple(key for key, kind in _FIELD_TYPES.items() if kind == "float")
_KEY_SECTION = {key: section for section, keys in SECTIONS.items() for key in keys}


def _convert(key: str, raw: str, where: str):
    kind = _FIELD_TYPES[key]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for key '{key}' {where}: {raw!r}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse sectioned ``key = value`` lines; '#' starts a comment."""
    values: dict[str, object] = {}
    section = None
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTIONS:
                raise ConfigError(f"unknown section '{section}' at line {number}")
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' at line {number}: {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _KEY_SECTION:
            raise ConfigError(f"unknown key '{key}' at line {number}")
        if section is not None and _KEY_SECTION[key] != section:
            raise ConfigError(f"key '{key}' at line {number} belongs to "
                              f"section [{_KEY_SECTION[key]}]")
        if key in values:
            raise ConfigError(f"duplicate key '{key}' at line {number}")
        values[key] = _convert(key, raw_value.strip(), f"at line {number}")
    return RunConfig(**values)


def serialize_config(config: RunConfig) -> str:
    lines = []
    for section, keys in SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(config, key)
            rendered = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{key} = {rendered}")
        lines.append("")
    return "\n".join(lines)


def apply_overrides(config: RunConfig, overrides: dict[str, str]) -> RunConfig:
    """Replace config values by flat key name (CLI flags win over the file)."""
    values = {f.name: getattr(config, f.name) for f in fields(RunConfig)}
    for key, raw in overrides.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key '{key}' in override")
        values[key] = _convert(key, raw, "in override") if isinstance(raw, str) else raw
    return RunConfig(**values)


__all__ = [
    "ConfigError",
    "RunConfig",
    "SECTIONS",
    "apply_overrides",
    "parse_config",
    "serialize_config",
]
