"""Discrete-time denoising diffusion: noise schedule, noise-prediction
training objective, guidance mixing of conditional and unconditional
predictions, and a deterministic first-order sampler.

The network predicts the injected noise; the score of the noised marginal is
recovered as -eps / sigma_t where sigma_t = sqrt(1 - alpha_bar_t).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
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
    running the unconditional one, and omega = -1 the unconditional one. The
    conditional forward runs first, then the unconditional one, both on the
    calling thread. ``sample`` may run the unconditional one in a helper
    process instead (see ``_Helper``); it mixes the two with the same ops.
    """
    if omega == 0:
        return model.forward(x_t, text_ids, t)
    eps_c = model.forward(x_t, text_ids, t)
    return _guide(eps_c, model.forward(x_t, _null_ids(text_ids), t), omega)


def _null_ids(text_ids) -> np.ndarray:
    return np.full_like(np.asarray(text_ids), dataset.NULL_ID)


def _guide(eps_c: Tensor, eps_u: Tensor, omega: float) -> Tensor:
    return eps_c * (1.0 + omega) - eps_u * omega


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class _Helper:
    """A forked child process that runs the unconditional forwards of one
    guided ``sample`` call while the parent runs the conditional ones.

    The child gets the model copy-on-write when it is forked. Each step the
    parent sends it (state, t), runs the conditional forward itself, then
    reads back eps(uncond) and the MACs the child counted, which it adds to
    its own open ``count_macs`` counters. The child runs each forward under
    ``no_grad`` with the per-op checks off, as the parent's unchecked step
    does. It holds its own second core, so no op splits there, and it ends
    with ``os._exit`` when the parent's end of the pipe closes. Both
    forwards run the same ops on the same bits as serially, so the result
    is bitwise the serial one.

    A child that fails or dies is dropped: its forward, and every later
    one, runs in the parent, so the call returns the serial result or
    raises the serial error; a fork that fails runs the call serially. The
    fork is safe for lmlp's own worker thread, which is idle while the call
    holds the second core (``tensor._second_core``).
    """

    def __init__(self, model, text_ids: np.ndarray):
        from multiprocessing import Pipe

        self.null_ids = _null_ids(text_ids)
        self.conn, there = Pipe()
        self.pid = os.fork()
        if self.pid == 0:
            self.conn.close()
            _serve(there, model, self.null_ids)
        there.close()

    def close(self) -> None:
        """Close the pipe, which ends the child, and reap the child."""
        self.conn.close()
        os.waitpid(self.pid, 0)

    def eps(self, model, state: Tensor, text_ids: np.ndarray, t: np.ndarray,
            omega: float) -> Tensor:
        """``cfg_eps`` for omega != 0, with the unconditional forward in the
        child while it lives."""
        self._exchange(self.conn.send, (state.data, t))
        eps_c = model.forward(state, text_ids, t)
        reply = self._exchange(self.conn.recv)
        if reply is None:
            return _guide(eps_c, model.forward(state, self.null_ids, t), omega)
        eps_u, macs = reply
        T._note_macs(macs)
        return _guide(eps_c, Tensor._wrap(eps_u), omega)

    def _exchange(self, fn, *args):
        """``fn(*args)`` while the child lives; None, with the pipe closed,
        once it is gone."""
        if self.conn.closed:
            return None
        try:
            return fn(*args)
        except (EOFError, OSError):
            self.conn.close()
            return None


def _serve(conn, model, null_ids: np.ndarray) -> None:
    """The helper child's loop: one unconditional forward per request until
    the parent's end of the pipe closes. Never returns; an error ends the
    child without a reply."""
    code = 1
    try:
        with T._second_core(), T.no_grad(), T._unchecked():
            while True:
                try:
                    state, t = conn.recv()
                except EOFError:
                    code = 0
                    break
                with T.count_macs() as counter:
                    eps_u = model.forward(Tensor._wrap(state), null_ids, t)
                conn.send((eps_u.data, counter.total))
    finally:
        os._exit(code)


@contextmanager
def _helper_for(model, text_ids: np.ndarray, omega: float):
    """A ``_Helper`` for one guided ``sample`` call, or None. It runs when
    omega != 0, ``os.fork`` exists and the call gets the second core
    (``tensor._second_core``), which it then holds through the call, so no
    op splits beside the two forwards. The child is reaped on the way out,
    also on an error. A failed fork frees the core and yields None."""
    if omega != 0 and hasattr(os, "fork"):
        with T._second_core() as held:
            try:
                helper = _Helper(model, text_ids) if held else None
            except OSError:
                helper = None
            if helper is not None:
                try:
                    yield helper
                finally:
                    helper.close()
                return
    yield None


def _denoise(model, state: Tensor, text_ids: np.ndarray, t: np.ndarray, omega: float,
             ratio: float, eps_scale: float, helper: _Helper | None) -> Tensor:
    """One sampler update: ratio * x - eps_scale * eps_hat. A checked replay
    runs ``cfg_eps`` here even with a helper, so it raises the serial error."""
    if helper is None or T._STATE.checks:
        eps_hat = cfg_eps(model, state, text_ids, t, omega)
    else:
        eps_hat = helper.eps(model, state, text_ids, t, omega)
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

    A guided call (omega != 0) may run its unconditional forwards in a
    forked helper process (``_Helper``), forked once the noise is drawn and
    reaped before the call returns or raises. The images are bitwise the
    serial ones.
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
    with T.no_grad(), _helper_for(model, text_ids, omega) as helper:
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
                 ratio, ratio * float(sched.sigmas[t]) - sigma_next, helper),
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
