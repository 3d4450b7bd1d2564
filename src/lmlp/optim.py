"""Adaptive-moment optimizer with decoupled weight decay and linear warmup.

``AdamW`` owns one flat array each for the parameters (``flat``), their
gradients (``grad``) and the two moments (``m``, ``v``), in parameter order.
Each ``p.data`` and ``p.grad`` is a view into its flat array, and ``backward``
adds gradients into those views in place, so a step, ``zero_grad`` and a
gradient-accumulation divide are whole-array ops. A parameter whose ``data``
or ``grad`` is rebound would drop out of the update, so ``step`` refuses it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, UsageError


def check_betas(beta1: float, beta2: float) -> None:
    """AdamW's rule for its moment decay rates: each lies in [0, 1)."""
    for key, value in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= value < 1.0:
            raise UsageError(f"{key} must lie in [0, 1), got {value!r}")


class AdamW:
    """Moment estimates per scalar; weight decay is applied directly to the
    parameter (decoupled from the adaptive update)."""

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float = 2e-4,
                 betas: tuple[float, float] = (0.9, 0.9), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        check_betas(*betas)
        self.names = [name for name, _ in named_params]
        self.params = [p for _, p in named_params]
        dtypes = sorted({p.dtype.name for p in self.params})
        if len(dtypes) != 1:
            raise UsageError(f"AdamW needs parameters of one dtype, got {dtypes}")
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.flat = np.concatenate([p.data.reshape(-1) for p in self.params])
        self.grad, self.m, self.v = (np.zeros_like(self.flat) for _ in range(3))
        ends = np.cumsum([p.size for p in self.params])[:-1]
        data, grad, self.exp_avg, self.exp_avg_sq = (
            [part.reshape(p.shape) for part, p in zip(np.split(buf, ends), self.params)]
            for buf in (self.flat, self.grad, self.m, self.v))
        for p, p_data, p_grad in zip(self.params, data, grad):
            p.data, p.grad = p_data, p_grad

    def zero_grad(self) -> None:
        self.grad[...] = 0

    def step(self, lr: float | None = None) -> None:
        """One update using the accumulated gradient."""
        for name, p in zip(self.names, self.params):
            if p.data.base is not self.flat or getattr(p.grad, "base", None) is not self.grad:
                raise UsageError(f"{name}: data or grad was rebound after AdamW was built")
        lr_now = self.lr if lr is None else lr
        beta1, beta2 = self.betas
        self.step_count += 1
        bias1 = 1.0 - beta1 ** self.step_count
        bias2 = 1.0 - beta2 ** self.step_count
        m, v, g = self.m, self.v, self.grad
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        self.flat -= lr_now * (update + self.weight_decay * self.flat)

    def load_state(self, step_count: int, exp_avg: list[np.ndarray],
                   exp_avg_sq: list[np.ndarray]) -> None:
        if len(exp_avg) != len(self.params) or len(exp_avg_sq) != len(self.params):
            raise UsageError("optimizer state does not match the parameter list")
        self.step_count = step_count
        self.m[...] = np.concatenate([a.reshape(-1) for a in exp_avg])
        self.v[...] = np.concatenate([a.reshape(-1) for a in exp_avg_sq])


def warmup_lr(base_lr: float, step: int, warmup_steps: int) -> float:
    """Linear ramp to base_lr over warmup_steps, constant afterwards."""
    if warmup_steps <= 0:
        return base_lr
    return base_lr * min(1.0, (step + 1) / warmup_steps)


__all__ = ["AdamW", "check_betas", "warmup_lr"]
