"""Seed-deterministic training loop.

Every optimizer step derives its own generator from (seed, step), so a run
resumed from a checkpoint at step n continues with exactly the randomness
the uninterrupted run would have used; combined with the bitwise parameter
and moment round-trip of the checkpoint format, the loss log continues
identically. A run drops the log rows of the steps it runs again, so a run
resumed (or restarted) over an earlier log writes each step once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import build_model
from .checkpoint import atomic_open, load_checkpoint, restore_model, save_checkpoint
from .config import SECTIONS, RunConfig
from .dataset import generate_arrays
from .diffusion import training_loss
from .optim import AdamW, warmup_lr

LOG_NAME = "loss_log.csv"
LOG_HEADER = "step,loss"
# A resume must agree with its checkpoint on these: they fix the model, the noise
# schedule, the data and the RNG streams.
_RESUME_KEYS = SECTIONS["model"] + SECTIONS["diffusion"] + (
    "seed", "data_seed", "num_samples", "batch_size", "grad_accumulation")


@dataclass
class TrainResult:
    final_checkpoint: Path
    log_path: Path
    losses: list[float]


def checkpoint_name(step: int) -> str:
    return f"checkpoint_{step:06d}.lmlp"


def _row_step(log_path: Path, number: int, line: str) -> int:
    """The step of a complete ``<step>,<loss>`` row, line ``number`` of the log."""
    try:
        step, loss = line.split(",")
        float(loss)
        return int(step)
    except ValueError:
        raise ValueError(f"{log_path}, line {number}: {line.rstrip()!r} is not "
                         f"a <step>,<loss> row") from None


def _truncate_log(log_path: Path, step: int) -> None:
    """Keep the header and the complete rows of steps before ``step``; refuse
    a log whose header or complete rows are malformed."""
    lines = log_path.read_text().splitlines(keepends=True)
    if lines and lines[0] != LOG_HEADER + "\n":
        raise ValueError(f"{log_path}, line 1: {lines[0].rstrip()!r} is not "
                         f"the header {LOG_HEADER!r}")
    kept = [line for number, line in enumerate(lines[1:], 2)
            if line.endswith("\n") and _row_step(log_path, number, line) < step]
    if len(kept) < len(lines) - 1:
        with atomic_open(log_path) as out:
            out.write("".join(lines[:1] + kept).encode())


def _step_gradient(model, optimizer: AdamW, config: RunConfig, x0_all: np.ndarray,
                   captions: np.ndarray, sched, step: int) -> float:
    """Accumulate step ``step``'s gradient, from zero, over its micro-batches
    into ``optimizer.grad``; returns the step's mean loss."""
    rng = np.random.default_rng((config.seed, step))
    optimizer.zero_grad()
    step_loss = 0.0
    for _ in range(config.grad_accumulation):
        batch_idx = rng.integers(0, config.num_samples, size=config.batch_size)
        loss = training_loss(model, x0_all[batch_idx], captions[batch_idx],
                             sched, config.caption_keep_prob, rng)
        loss.backward()
        step_loss += loss.item()
        del loss  # frees this micro-batch's graph before the next forward
    if config.grad_accumulation > 1:
        optimizer.grad /= config.grad_accumulation
    return step_loss / config.grad_accumulation


def run_training(config: RunConfig, resume: str | None = None) -> TrainResult:
    """Train per the config; write loss log and periodic checkpoints to out_dir.

    Each step runs through ``tensor._checked_once``: its loss and flat
    gradient are checked once, before its log row and update, and a failed
    check replays the step from a zeroed gradient and its own generator,
    which raises ``NonFiniteError`` naming the step and the op. The gradient
    check is its float32 sum of squares, one dot product, so an entry whose
    square overflows, and would make AdamW's second moment infinite, fails
    it too. Parameters, moments, log and checkpoints then stay as the
    previous step left them.
    A non-finite forward value that no vjp reads and the loss does not
    reach is no error.
    """
    sched = config.noise_schedule()

    if resume is not None:
        snapshot = load_checkpoint(resume)
        for key in _RESUME_KEYS:
            ours, stored = getattr(config, key), getattr(snapshot.config, key)
            if ours != stored:
                raise T.UsageError(f"cannot resume from {resume}: {key} is {ours!r} "
                                   f"here but {stored!r} in the checkpoint")
        if config.train_steps < snapshot.step:
            raise T.UsageError(f"cannot resume from {resume}: train_steps is "
                               f"{config.train_steps} here but the checkpoint is at "
                               f"step {snapshot.step}")
        model = restore_model(snapshot)
        start_step = snapshot.step
    else:
        snapshot = None
        model = build_model(config.backbone_config(), config.seed, dtype=np.float32)
        start_step = 0
    optimizer = AdamW(list(model.named_parameters()), betas=(config.beta1, config.beta2),
                      weight_decay=config.weight_decay)
    if snapshot is not None:
        optimizer.load_state(snapshot.step, snapshot.opt_exp_avg, snapshot.opt_exp_avg_sq)

    images, captions = generate_arrays(config.dataset_config(), config.num_samples)
    x0_all = (2.0 * images - 1.0).astype(np.float32)
    del images  # only x0_all is read from here on

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once the resume checks passed
    log_path = out_dir / LOG_NAME
    if log_path.exists():
        _truncate_log(log_path, start_step)
    new_log = not log_path.exists() or log_path.stat().st_size == 0
    losses: list[float] = []
    with open(log_path, "a") as log:
        if new_log:
            print(LOG_HEADER, file=log)
        if start_step == config.train_steps:
            # nothing to train: still leave the final checkpoint the result names
            save_checkpoint(out_dir / checkpoint_name(start_step), config, optimizer)
        for step in range(start_step, config.train_steps):
            step_loss = T._checked_once(
                f"training step {step}", _step_gradient,
                (model, optimizer, config, x0_all, captions, sched, step),
                lambda loss: math.isfinite(loss) and math.isfinite(float(
                    optimizer.grad @ optimizer.grad)))
            optimizer.step(warmup_lr(config.learning_rate, step, config.warmup_steps))
            losses.append(step_loss)
            print(f"{step},{step_loss!r}", file=log)
            done = step + 1
            if done % config.checkpoint_every == 0 or done == config.train_steps:
                save_checkpoint(out_dir / checkpoint_name(done), config, optimizer)
    final = out_dir / checkpoint_name(config.train_steps)
    return TrainResult(final_checkpoint=final, log_path=log_path, losses=losses)


__all__ = ["LOG_HEADER", "LOG_NAME", "TrainResult", "checkpoint_name", "run_training"]
