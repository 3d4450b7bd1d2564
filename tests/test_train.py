import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import count_isfinite
from lmlp import tensor as T, train
from lmlp.checkpoint import load_checkpoint, restore_model, save_checkpoint
from lmlp.config import RunConfig
from lmlp.optim import AdamW
from lmlp.train import LOG_HEADER, LOG_NAME, checkpoint_name, run_training


def tiny_config(out_dir, **overrides):
    base = dict(image_side=8, embed_dim=8, depth=2, text_tokens=3, mlp_scale=2.0,
                preset="F2", skip_mode="second_stage", num_samples=16, train_steps=6,
                batch_size=2, warmup_steps=2, checkpoint_every=2, out_dir=str(out_dir))
    base.update(overrides)
    return RunConfig(**base)


class TestTraining:
    def test_zero_steps_writes_init_checkpoint_and_empty_log(self, tmp_path):
        config = tiny_config(tmp_path / "zero", train_steps=0)
        result = run_training(config)
        assert (tmp_path / "zero" / checkpoint_name(0)).exists()
        assert result.log_path.read_text() == LOG_HEADER + "\n"

    def test_loss_log_format(self, tmp_path):
        config = tiny_config(tmp_path / "run")
        result = run_training(config)
        lines = result.log_path.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + config.train_steps
        step, loss = lines[3].split(",")
        assert int(step) == 2
        assert np.isfinite(float(loss))

    def test_checkpoints_written_on_schedule(self, tmp_path):
        config = tiny_config(tmp_path / "ckpt")
        run_training(config)
        names = sorted(p.name for p in (tmp_path / "ckpt").glob("*.lmlp"))
        assert names == [checkpoint_name(2), checkpoint_name(4), checkpoint_name(6)]

    def test_training_is_deterministic_per_seed(self, tmp_path):
        log_a = run_training(tiny_config(tmp_path / "a")).log_path.read_text()
        log_b = run_training(tiny_config(tmp_path / "b")).log_path.read_text()
        assert log_a == log_b

    def test_different_seed_changes_losses(self, tmp_path):
        log_a = run_training(tiny_config(tmp_path / "a")).log_path.read_text()
        log_c = run_training(tiny_config(tmp_path / "c", seed=1)).log_path.read_text()
        assert log_a != log_c

    def test_resume_reproduces_uninterrupted_log_bitwise(self, tmp_path):
        full = run_training(tiny_config(tmp_path / "full", train_steps=6))
        half_dir = tmp_path / "half"
        run_training(tiny_config(half_dir, train_steps=3, checkpoint_every=3))
        resumed = run_training(tiny_config(half_dir, train_steps=6, checkpoint_every=3),
                               resume=half_dir / checkpoint_name(3))
        assert resumed.log_path.read_text() == full.log_path.read_text()

    def test_resume_over_later_rows_truncates_the_log(self, tmp_path):
        run_dir = tmp_path / "rerun"
        config = tiny_config(run_dir, train_steps=5, checkpoint_every=3)
        first = run_training(config).log_path.read_text()
        resumed = run_training(config, resume=run_dir / checkpoint_name(3))
        text = resumed.log_path.read_text()
        steps = [int(line.split(",")[0]) for line in text.splitlines()[1:]]
        assert steps == [0, 1, 2, 3, 4]
        assert text == first

    @pytest.mark.parametrize("text, line", [
        (f"{LOG_HEADER}\n0,1.5\n\n", 3),
        (f"{LOG_HEADER}\nfoo,1\n", 2),
        (f"{LOG_HEADER}\n0,1.5,2\n", 2),
        ("steps,loss\n0,1.5\n", 1),
    ], ids=["blank_row", "bad_step", "three_fields", "bad_header"])
    def test_malformed_log_is_refused_naming_its_line(self, tmp_path, text, line):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / LOG_NAME).write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(run_dir / LOG_NAME))}, "
                                             f"line {line}: "):
            run_training(tiny_config(run_dir, train_steps=1))
        assert (run_dir / LOG_NAME).read_text() == text
        assert [path.name for path in run_dir.iterdir()] == [LOG_NAME]

    def test_rerun_into_same_directory_starts_a_new_log(self, tmp_path):
        config = tiny_config(tmp_path / "again", train_steps=3)
        first = run_training(config).log_path.read_text()
        assert run_training(config).log_path.read_text() == first

    def test_resumed_final_weights_match_uninterrupted(self, tmp_path):
        full = run_training(tiny_config(tmp_path / "f2", train_steps=6))
        half_dir = tmp_path / "h2"
        run_training(tiny_config(half_dir, train_steps=2, checkpoint_every=2))
        run_training(tiny_config(half_dir, train_steps=6, checkpoint_every=2),
                     resume=half_dir / checkpoint_name(2))
        a = load_checkpoint(full.final_checkpoint)
        b = load_checkpoint(half_dir / checkpoint_name(6))
        assert a.params.keys() == b.params.keys()
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name]), name

    def test_grad_accumulation_changes_effective_batch(self, tmp_path):
        plain = run_training(tiny_config(tmp_path / "p", grad_accumulation=1))
        accum = run_training(tiny_config(tmp_path / "q", grad_accumulation=2))
        assert plain.losses != accum.losses

    def test_checkpoint_embeds_config(self, tmp_path):
        config = tiny_config(tmp_path / "emb")
        result = run_training(config)
        snapshot = load_checkpoint(result.final_checkpoint)
        assert snapshot.config == config
        assert snapshot.step == config.train_steps


class TestNonFiniteStep:
    """A step whose loss or gradient is non-finite raises the error of the op
    that made it non-finite, and leaves the run as the step before left it."""

    @pytest.mark.parametrize("grad_accumulation", [1, 2])
    def test_overflowing_weight_names_the_op_and_changes_nothing(self, tmp_path, monkeypatch,
                                                                 grad_accumulation):
        run_dir = tmp_path / "run"
        config = tiny_config(run_dir, train_steps=2, checkpoint_every=1,
                             grad_accumulation=grad_accumulation)
        run_training(config)
        snapshot = load_checkpoint(run_dir / checkpoint_name(2))
        poisoned = AdamW(list(restore_model(snapshot).named_parameters()))
        poisoned.load_state(snapshot.step, snapshot.opt_exp_avg, snapshot.opt_exp_avg_sq)
        poisoned.params[poisoned.names.index("blocks.0.fnn_c.fc1.weight")].data[0, 0] = 3e38
        save_checkpoint(tmp_path / "poisoned.lmlp", config, poisoned)
        log = (run_dir / LOG_NAME).read_text()
        built = []
        monkeypatch.setattr(train, "AdamW", lambda *args, **kwargs: built.append(
            AdamW(*args, **kwargs)) or built[-1])

        with pytest.raises(T.NonFiniteError,
                           match="^training step 2: matmul produced a non-finite value$"):
            run_training(tiny_config(run_dir, train_steps=3, checkpoint_every=1,
                                     grad_accumulation=grad_accumulation),
                         resume=tmp_path / "poisoned.lmlp")
        optimizer, = built
        assert optimizer.step_count == 2
        for name in ("flat", "m", "v"):
            assert np.array_equal(getattr(optimizer, name), getattr(poisoned, name)), name
        assert (run_dir / LOG_NAME).read_text() == log
        assert not (run_dir / checkpoint_name(3)).exists()
        assert T._STATE.checks

    def test_non_finite_loss_outside_any_op_names_the_step_and_changes_nothing(
            self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        run_training(tiny_config(run_dir, train_steps=2, checkpoint_every=1))
        files = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        monkeypatch.setattr(train, "_step_gradient", lambda *args: float("nan"))

        with pytest.raises(T.NonFiniteError,
                           match="^training step 2 produced a non-finite value$") as info:
            run_training(tiny_config(run_dir, train_steps=3, checkpoint_every=1),
                         resume=run_dir / checkpoint_name(2))
        assert info.value.__cause__ is None
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == files
        assert T._STATE.checks

    def test_gradient_whose_square_overflows_is_refused_before_the_update(
            self, tmp_path, monkeypatch):
        """A finite gradient entry of 1e20 would make AdamW's second moment
        infinite; the step check refuses it before the update, with no numpy
        warning, and the run stays as the step before left it."""
        run_dir = tmp_path / "run"
        run_training(tiny_config(run_dir, train_steps=2, checkpoint_every=1))
        files = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        snapshot = load_checkpoint(run_dir / checkpoint_name(2))
        step_gradient, built = train._step_gradient, []

        def huge_entry(model, optimizer, *args):
            loss = step_gradient(model, optimizer, *args)
            optimizer.grad[0] = 1e20
            return loss

        monkeypatch.setattr(train, "_step_gradient", huge_entry)
        monkeypatch.setattr(train, "AdamW", lambda *args, **kwargs: built.append(
            AdamW(*args, **kwargs)) or built[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.NonFiniteError,
                               match="^training step 2: the gradient's float32 sum of "
                                     "squares overflows$"):
                run_training(tiny_config(run_dir, train_steps=3, checkpoint_every=1),
                             resume=run_dir / checkpoint_name(2))
        optimizer, = built
        assert optimizer.step_count == 2
        assert np.array_equal(optimizer.flat, np.concatenate(
            [a.reshape(-1) for a in snapshot.params.values()]))
        for name, stored in (("m", snapshot.opt_exp_avg), ("v", snapshot.opt_exp_avg_sq)):
            assert np.array_equal(getattr(optimizer, name),
                                  np.concatenate([a.reshape(-1) for a in stored])), name
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == files

    def test_desk_step_checks_finiteness_once(self, tmp_path, monkeypatch):
        """An F2 desk step (B=32, L=21, D=64) checks the loss and flat
        gradient, not each op's result: the gradient check is one dot
        product, so np.isfinite, which every full-array check calls, runs at
        most twice per step, where the per-op checks ran it 286 times."""
        calls, stamps, step = count_isfinite(monkeypatch), [], AdamW.step

        def stamped(self, lr):
            stamps.append(calls[0])
            step(self, lr)

        monkeypatch.setattr(AdamW, "step", stamped)
        run_training(RunConfig(train_steps=4, num_samples=64, out_dir=str(tmp_path)))
        per_step = np.diff(stamps)
        assert (per_step == per_step[0]).all() and per_step[0] <= 2, per_step


class TestResumeConfig:
    @pytest.fixture()
    def half_run(self, tmp_path):
        run_training(tiny_config(tmp_path / "half", train_steps=2))
        return tmp_path / "half" / checkpoint_name(2)

    @pytest.mark.parametrize("key, value", [
        ("preset", "A2"), ("depth", 4),                       # [model]
        ("seed", 7), ("data_seed", 1),                        # random streams
        ("num_samples", 32), ("batch_size", 4), ("grad_accumulation", 2),  # data
        ("train_timesteps", 100), ("beta_end", 0.03),         # [diffusion]
    ])
    def test_mismatched_key_is_refused(self, tmp_path, half_run, key, value):
        config = tiny_config(tmp_path / "resumed", train_steps=4, **{key: value})
        with pytest.raises(T.UsageError, match=f"{key} is {value!r} here but"):
            run_training(config, resume=half_run)

    def test_train_steps_below_the_checkpoint_step_is_refused(self, half_run):
        run_dir = half_run.parent
        log = (run_dir / "loss_log.csv").read_text()
        config = tiny_config(run_dir, train_steps=1)
        with pytest.raises(T.UsageError, match="train_steps is 1 here but the checkpoint "
                                               "is at step 2"):
            run_training(config, resume=half_run)
        assert (run_dir / "loss_log.csv").read_text() == log
        assert not (run_dir / checkpoint_name(1)).exists()

    def test_resume_at_the_target_step_leaves_the_final_checkpoint(self, tmp_path, half_run):
        result = run_training(tiny_config(tmp_path / "resumed", train_steps=2),
                              resume=half_run)
        assert result.losses == []
        assert result.final_checkpoint == tmp_path / "resumed" / checkpoint_name(2)
        saved, stored = load_checkpoint(result.final_checkpoint), load_checkpoint(half_run)
        assert saved.step == 2
        for name in stored.params:
            assert np.array_equal(saved.params[name], stored.params[name]), name

    def test_run_and_optimizer_keys_may_differ(self, tmp_path, half_run):
        config = tiny_config(tmp_path / "resumed", train_steps=3, checkpoint_every=1,
                             learning_rate=1e-4, weight_decay=0.0, beta1=0.8)
        run_training(config, resume=half_run)
        assert load_checkpoint(tmp_path / "resumed" / checkpoint_name(3)).step == 3


STEADY_STATE_FAULTS = """
import resource

import numpy as np

from lmlp.backbone import build_model
from lmlp.config import RunConfig
from lmlp.dataset import generate_arrays
from lmlp.diffusion import training_loss
from lmlp.optim import AdamW

config = RunConfig()
model = build_model(config.backbone_config(), 0, dtype=np.float32)
optimizer = AdamW(list(model.named_parameters()))
images, captions = generate_arrays(config.dataset_config(), config.num_samples)
x0_all = (2.0 * images - 1.0).astype(np.float32)
sched = config.noise_schedule()
for step in range(50):
    if step == 20:
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rng = np.random.default_rng((0, step))
    optimizer.zero_grad()
    batch = rng.integers(0, config.num_samples, size=config.batch_size)
    loss = training_loss(model, x0_all[batch], captions[batch], sched,
                         config.caption_keep_prob, rng)
    loss.backward()
    del loss
    optimizer.step(config.learning_rate)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 30)
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (ValueError, OSError, AttributeError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the heap thresholds are set on glibc only")
def test_steady_state_desk_steps_do_not_fault_the_heap_back_in():
    """F2 desk steps (B=32, float32) in a fresh interpreter reuse the memory
    the previous step freed; with glibc's dynamic thresholds each step faulted
    several hundred pages back in."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", STEADY_STATE_FAULTS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 200
