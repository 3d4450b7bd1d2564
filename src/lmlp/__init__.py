"""Two-branch lateralized MLP blocks, a U-shaped diffusion backbone around
them, and the desk-scale tooling (training, sampling, cost accounting,
weight inspection) needed to exercise the design end to end."""

import ctypes
import os

from .backbone import BackboneConfig, UlMlpModel, build_model
from .blocks import BlockConfig, build_block, preset_config
from .config import RunConfig
from .diffusion import GuidanceConfig, NoiseSchedule, SamplerConfig
from .tensor import Tensor, no_grad


def _hold_freed_heap() -> None:
    """Keep freed arrays in glibc's heap instead of handing them back to the kernel.

    A training step frees megabytes of activations and allocates them again
    in the next step. Under glibc's dynamic thresholds the freed top of the
    heap is trimmed and then faulted back in page by page, on every step.
    The thresholds set here are where glibc's own rule ends up after it has
    freed a 32 MB block: arrays above 32 MB are mmapped, and the heap is
    trimmed only when 64 MB at its top are free. Other C libraries are left
    alone, and so are values this glibc refuses.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return
    if mallopt(-3, 32 << 20):          # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)          # M_TRIM_THRESHOLD


_hold_freed_heap()

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
