"""Discrete-time denoising diffusion: noise schedule, noise-prediction
training objective, guidance mixing of conditional and unconditional
predictions, and a deterministic first-order sampler.

The network predicts the injected noise; the score of the noised marginal is
recovered as -eps / sigma_t where sigma_t = sqrt(1 - alpha_bar_t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dataset, tensor as T
from .tensor import Tensor


def check_beta_range(beta_start: float, beta_end: float) -> None:
    """The linear schedule's rule: 0 < beta_start <= beta_end < 1."""
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise T.UsageError(f"betas must satisfy 0 < beta_start <= beta_end < 1, got "
                           f"beta_start {beta_start!r} and beta_end {beta_end!r}")


class NoiseSchedule:
    """Linear beta schedule with cumulative signal/noise coefficients.

    alpha_bar decreases strictly from ~1 at t=0 to ~0 at t=T-1;
    sigma_t = sqrt(1 - alpha_bar_t) increases accordingly.
    """

    def __init__(self, num_steps: int = 1000, beta_start: float = 1e-4,
                 beta_end: float = 2e-2):
        if num_steps < 1:
            raise T.UsageError("schedule needs at least one step")
        check_beta_range(beta_start, beta_end)
        self.num_steps = num_steps
        self.betas = np.linspace(beta_start, beta_end, num_steps)
        self.alphas = 1.0 - self.betas
        self.alpha_bars = np.cumprod(self.alphas)
        self.sigmas = np.sqrt(1.0 - self.alpha_bars)


def check_timesteps(t, num_steps: int) -> np.ndarray:
    """``t`` as a 1-d integer array, each step in [0, num_steps)."""
    t = np.atleast_1d(np.asarray(t))
    if not np.issubdtype(t.dtype, np.integer):
        raise T.UsageError("timesteps must be integers")
    if t.size and (t.min() < 0 or t.max() >= num_steps):
        raise T.UsageError(f"timestep out of range [0, {num_steps})")
    return t


@dataclass(frozen=True)
class SamplerConfig:
    """Number of denoising steps; refuses fewer than one when built."""
    num_steps: int = 50

    def __post_init__(self) -> None:
        if self.num_steps < 1:
            raise T.UsageError("sampler needs at least one step")

    def timesteps(self, train_steps: int) -> np.ndarray:
        """Strictly decreasing evaluation times from T-1 down to 0, uniform stride."""
        knots = np.round(np.linspace(train_steps - 1, 0, self.num_steps)).astype(int)
        return np.unique(knots)[::-1]


# ---------------------------------------------------------------------------
# forward process and objective
# ---------------------------------------------------------------------------

def _per_example(coeff: np.ndarray, t: np.ndarray, ndim: int):
    """Index per-example coefficients and shape them for broadcasting."""
    values = coeff[t]
    return values.reshape(values.shape + (1,) * (ndim - 1))


def forward_noise(x0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """x_t = sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps.

    Per-example integer t is broadcast over the trailing extents.
    """
    t = check_timesteps(t, sched.num_steps)
    x0, eps = np.asarray(x0), np.asarray(eps)
    if eps.shape != x0.shape:
        raise T.ShapeError("noise must match the data shape")
    if t.size not in (1, x0.shape[0] if x0.ndim else 1):
        raise T.UsageError("need one timestep per example (or a single shared one)")
    signal = np.sqrt(_per_example(sched.alpha_bars, t, x0.ndim))
    noise = _per_example(sched.sigmas, t, x0.ndim)
    return signal * x0 + noise * eps


def training_loss(model, x0: np.ndarray, text_ids: np.ndarray, sched: NoiseSchedule,
                  caption_keep_prob: float, rng: np.random.Generator) -> Tensor:
    """Mean squared error between injected and predicted noise; each caption is
    kept with ``caption_keep_prob``, otherwise replaced by ``dataset.NULL_ID``.

    Draw order from ``rng`` (fixed, so runs are reproducible per seed and a
    test oracle can replay it): per-example timesteps, then the noise field,
    then the per-example caption-keep coin flips.
    """
    x0 = np.asarray(x0)
    if x0.ndim != 4 or x0.shape[0] == 0:
        raise T.UsageError("x0 must be a non-empty (B, C, H, W) batch")
    batch = x0.shape[0]
    t = rng.integers(0, sched.num_steps, size=batch)
    eps = rng.standard_normal(x0.shape)
    keep = rng.random(batch) < caption_keep_prob
    ids = np.where(keep[:, None], text_ids, dataset.NULL_ID)
    x_t = forward_noise(x0, t, eps, sched)
    pred = model.forward(Tensor(x_t.astype(model.dtype)), ids, t)
    diff = pred - Tensor(eps.astype(model.dtype))
    return (diff * diff).mean()


def score_from_eps(eps_hat: np.ndarray, t, sched: NoiseSchedule) -> np.ndarray:
    """Score of the noised marginal: S = -eps_hat / sigma_t."""
    t = check_timesteps(t, sched.num_steps)
    sigma = sched.sigmas[t]
    if np.any(sigma <= 0.0):
        raise T.UsageError("score undefined where sigma_t = 0 (alpha_bar = 1)")
    eps_hat = np.asarray(eps_hat)
    factor = -1.0 / sigma.reshape(sigma.shape + (1,) * (eps_hat.ndim - 1))
    return factor * eps_hat


def cfg_eps(model, x_t: Tensor, text_ids: np.ndarray, t, omega: float) -> Tensor:
    """Guided prediction (1 + omega) * eps(cond) - omega * eps(uncond).

    Affine in omega; omega = 0 returns the conditional branch itself, without
    running the unconditional one, and omega = -1 the unconditional one.

    Outside recording (under ``no_grad``, as in ``sample``), the
    unconditional forward runs on the worker thread beside the conditional
    one when ``tensor._submit`` takes it, and serially after it otherwise.
    Each forward runs the same ops in the same order either way, so the
    result is bitwise the serial one, and an error in the conditional
    forward is the one raised. A recorded call always runs serially, so its
    graph nodes keep their order.
    """
    if omega == 0:
        return model.forward(x_t, text_ids, t)
    null_ids = np.full_like(np.asarray(text_ids), dataset.NULL_ID)

    def cond():
        return model.forward(x_t, text_ids, t)

    def uncond():
        return model.forward(x_t, null_ids, t)

    join = None if T._STATE.grad_enabled else T._submit(uncond)
    eps_c, eps_u = (cond(), uncond()) if join is None else T._join_after(cond, join)
    return eps_c * (1.0 + omega) - eps_u * omega


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _denoise(model, state: Tensor, text_ids: np.ndarray, t: np.ndarray, omega: float,
             ratio: float, eps_scale: float) -> Tensor:
    """One sampler update: ratio * x - eps_scale * eps_hat."""
    eps_hat = cfg_eps(model, state, text_ids, t, omega)
    return state * ratio - eps_hat * eps_scale


def sample(model, text_ids: np.ndarray, sched: NoiseSchedule,
           sampler: SamplerConfig, omega: float, rng_seed: int) -> Tensor:
    """Deterministic first-order denoising from seeded Gaussian noise.

    Each update maps the state at evaluation time t to the next time t' via
    x' = sqrt(abar')/sqrt(abar) * x - (sqrt(abar')/sqrt(abar) * sigma - sigma') * eps_hat.
    The transition out of the last evaluation (t=0) targets the clean state
    (abar' = 1, sigma' = 0), so a one-step schedule collapses exactly to the
    predicted clean image (x - sigma * eps_hat) / sqrt(abar).

    Each step (the guided prediction and the update) runs through
    ``tensor._checked_once``: the new state is checked once, and a failed
    check replays the step from the kept previous state, which raises
    ``NonFiniteError`` naming the step, its time and the op. A non-finite
    value inside a step that does not reach the state, such as one in the
    tokens that ``narrow`` drops before the head, is no error.
    """
    if not np.isfinite(omega):
        raise T.UsageError(f"guidance scale must be finite, got {omega!r}")
    if rng_seed < 0:
        raise T.UsageError(f"sampling seed rng_seed must be non-negative, got {rng_seed}")
    cfg = model.config
    text_ids = np.asarray(text_ids)
    batch = text_ids.shape[0]
    shape = (batch, cfg.in_channels, cfg.image_side, cfg.image_side)
    x = np.random.default_rng(rng_seed).standard_normal(shape).astype(model.dtype)
    times = sampler.timesteps(sched.num_steps)
    with T.no_grad():
        state = Tensor(x)
        for step, t in enumerate(times):
            if step + 1 < len(times):
                t_next = int(times[step + 1])
                root_next = float(np.sqrt(sched.alpha_bars[t_next]))
                sigma_next = float(sched.sigmas[t_next])
            else:
                root_next, sigma_next = 1.0, 0.0
            ratio = root_next / float(np.sqrt(sched.alpha_bars[t]))
            state = T._checked_once(
                f"sampling step {step} (t={t})", _denoise,
                (model, state, text_ids, np.full(batch, t, dtype=int), omega,
                 ratio, ratio * float(sched.sigmas[t]) - sigma_next),
                lambda new_state: np.isfinite(new_state.data).all())
    return state


__all__ = [
    "NoiseSchedule",
    "SamplerConfig",
    "cfg_eps",
    "check_beta_range",
    "check_timesteps",
    "forward_noise",
    "sample",
    "score_from_eps",
    "training_loss",
]
