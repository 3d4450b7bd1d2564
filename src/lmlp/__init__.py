"""Two-branch lateralized MLP blocks, a U-shaped diffusion backbone around
them, and the desk-scale tooling (training, sampling, cost accounting,
weight inspection) needed to exercise the design end to end."""

from .backbone import BackboneConfig, UlMlpModel, build_model
from .blocks import BlockConfig, build_block, preset_config
from .config import RunConfig
from .diffusion import GuidanceConfig, NoiseSchedule, SamplerConfig
from .tensor import Tensor, no_grad

__all__ = [
    "BackboneConfig",
    "BlockConfig",
    "GuidanceConfig",
    "NoiseSchedule",
    "RunConfig",
    "SamplerConfig",
    "Tensor",
    "UlMlpModel",
    "build_block",
    "build_model",
    "no_grad",
    "preset_config",
]
