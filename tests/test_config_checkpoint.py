import struct
from pathlib import Path

import numpy as np
import pytest

from lmlp import checkpoint, tensor as T
from lmlp.backbone import build_model
from lmlp.checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from lmlp.config import (
    RunConfig,
    apply_overrides,
    parse_config,
    serialize_config,
)
from lmlp.optim import AdamW, warmup_lr
from lmlp.train import checkpoint_name, run_training


def tiny_config(**overrides):
    base = dict(image_side=8, embed_dim=8, depth=2, text_tokens=3, mlp_scale=2.0,
                num_samples=16, train_steps=4, batch_size=2, warmup_steps=2,
                checkpoint_every=2)
    base.update(overrides)
    return RunConfig(**base)


class TestConfigFormat:
    def test_defaults_serialize_and_parse_back(self):
        text = serialize_config(RunConfig())
        assert parse_config(text) == RunConfig()

    def test_roundtrip_is_fixed_point(self):
        config = tiny_config(learning_rate=3.5e-4, preset="D2")
        once = serialize_config(parse_config(serialize_config(config)))
        twice = serialize_config(parse_config(once))
        assert once == twice

    def test_unknown_key_names_key_and_line(self):
        text = "[run]\nseed = 1\nbananas = 2\n"
        with pytest.raises(T.UsageError, match=r"bananas.*line 3"):
            parse_config(text)

    def test_bad_value_names_key(self):
        with pytest.raises(T.UsageError, match="seed"):
            parse_config("[run]\nseed = soon\n")

    def test_key_in_wrong_section_rejected(self):
        with pytest.raises(T.UsageError, match="patch"):
            parse_config("[run]\npatch = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(T.UsageError, match="duplicate"):
            parse_config("[run]\nseed = 1\nseed = 2\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# top note\n[run]\n\nseed = 7   # trailing\n"
        assert parse_config(text).seed == 7

    def test_overrides_replace_values(self):
        config = apply_overrides(RunConfig(), {"seed": "9", "preset": "D2"})
        assert config.seed == 9 and config.preset == "D2"

    def test_an_override_is_read_like_the_same_text_in_a_file(self):
        config = apply_overrides(RunConfig(), {"skip_mode": " none ", "out_dir": " runs/x "})
        assert config == parse_config("[run]\nout_dir =  runs/x \n[model]\nskip_mode =  none \n")
        assert parse_config(serialize_config(config)) == config

    @pytest.mark.parametrize("out_dir", ["runs/#1", "runs/a\nb", " runs/x"])
    def test_out_dir_that_cannot_read_back_is_refused(self, out_dir):
        with pytest.raises(T.UsageError, match="out_dir"):
            RunConfig(out_dir=out_dir)

    def test_override_unknown_key(self):
        with pytest.raises(T.UsageError):
            apply_overrides(RunConfig(), {"bananas": "1"})

    def test_validate_rejects_bad_geometry(self):
        with pytest.raises(Exception):
            tiny_config(image_side=5)

    def test_validate_rejects_unknown_preset(self):
        with pytest.raises(T.UsageError, match="ZZ"):
            tiny_config(preset="ZZ")


class TestOptimizer:
    def test_warmup_schedule(self):
        assert warmup_lr(1.0, 0, 4) == 0.25
        assert warmup_lr(1.0, 3, 4) == 1.0
        assert warmup_lr(1.0, 100, 4) == 1.0
        assert warmup_lr(1.0, 0, 0) == 1.0

    def test_single_step_matches_hand_computation(self):
        p = T.Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW([("p", p)], betas=(0.9, 0.99), weight_decay=0.0)
        p.grad[...] = [0.5, -0.5]
        opt.step(0.1)
        # first step: mhat = g, vhat = g^2 -> update = g / (|g| + eps) = sign(g)
        assert np.allclose(p.data, [1.0 - 0.1, -2.0 + 0.1], atol=1e-6)

    def test_decoupled_weight_decay_shrinks_without_gradient_coupling(self):
        p = T.Tensor(np.array([2.0], dtype=np.float32), requires_grad=True)
        opt = AdamW([("p", p)], betas=(0.9, 0.99), weight_decay=0.5)
        p.grad[...] = 0.0
        opt.step(0.1)
        assert np.allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    @pytest.mark.parametrize("attr", ["grad", "data"])
    def test_rebound_parameter_is_refused(self, attr):
        p = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        q = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        opt = AdamW([("p", p), ("q", q)])
        setattr(q, attr, np.zeros(3, dtype=np.float32))
        with pytest.raises(T.UsageError, match="q: data or grad was rebound"):
            opt.step(0.1)

    def test_mixed_parameter_dtypes_are_refused(self):
        p = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
        q = T.Tensor(np.ones(2, dtype=np.float64), requires_grad=True)
        with pytest.raises(T.UsageError, match="one dtype"):
            AdamW([("p", p), ("q", q)])

    def test_whole_array_step_matches_per_parameter_reference(self):
        """50 steps of the flat update equal, bitwise, the same float32 ops run
        one parameter at a time."""
        config = tiny_config()
        model = build_model(config.backbone_config(), config.seed, dtype=np.float32)
        named = list(model.named_parameters())
        beta1, beta2, eps, decay = 0.9, 0.99, 1e-8, 0.03
        opt = AdamW(named, betas=(beta1, beta2), weight_decay=decay)
        ref = [(p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for _, p in named]
        rng = np.random.default_rng(3)
        for step in range(1, 51):
            grads = [rng.standard_normal(p.shape).astype(np.float32) for _, p in named]
            opt.zero_grad()
            for (_, p), g in zip(named, grads):
                (p * T.Tensor(g)).sum().backward()  # leaves exactly g in p.grad
            lr = warmup_lr(1e-2, step - 1, 10)
            opt.step(lr)
            bias1, bias2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
            for (data, m, v), g in zip(ref, grads):
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g * g
                update = (m / bias1) / (np.sqrt(v / bias2) + eps)
                data -= lr * (update + decay * data)
        for (name, p), m, v, (data, ref_m, ref_v) in zip(named, opt.exp_avg,
                                                         opt.exp_avg_sq, ref):
            assert np.array_equal(p.data, data), name
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v), name


class TestCheckpoint:
    def build(self, config, model=None):
        if model is None:
            model = build_model(config.backbone_config(), config.seed, dtype=np.float32)
        optimizer = AdamW(list(model.named_parameters()), betas=(config.beta1, config.beta2),
                          weight_decay=config.weight_decay)
        return model, optimizer

    def test_roundtrip_is_bitwise(self, tmp_path):
        config = tiny_config()
        model, optimizer = self.build(config)
        rng = np.random.default_rng(0)
        for (_, p), m, v in zip(model.named_parameters(), optimizer.exp_avg,
                                optimizer.exp_avg_sq):
            p.data[...] = rng.standard_normal(p.shape).astype(np.float32)
            m[...] = rng.standard_normal(p.shape).astype(np.float32)
            v[...] = np.abs(rng.standard_normal(p.shape)).astype(np.float32)
        optimizer.step_count = 123
        path = tmp_path / "model.lmlp"
        save_checkpoint(path, config, optimizer)

        snapshot = load_checkpoint(path)
        assert snapshot.step == 123
        assert snapshot.config == config
        restored = restore_model(snapshot)
        for (name, p), (_, q) in zip(model.named_parameters(),
                                     restored.named_parameters()):
            assert np.array_equal(p.data, q.data), name
            assert q.data.dtype == np.float32
        _, opt2 = self.build(config, restored)
        opt2.load_state(snapshot.step, snapshot.opt_exp_avg, snapshot.opt_exp_avg_sq)
        assert opt2.step_count == 123
        for m, m2 in zip(optimizer.exp_avg, opt2.exp_avg):
            assert np.array_equal(m, m2)
        for v, v2 in zip(optimizer.exp_avg_sq, opt2.exp_avg_sq):
            assert np.array_equal(v, v2)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        config = tiny_config()
        model, optimizer = self.build(config)
        path = tmp_path / "model.lmlp"
        save_checkpoint(path, config, optimizer)
        before = path.read_bytes()
        for _, p in model.named_parameters():
            p.data += 1.0
        written = []
        files_at_failure = []
        real_write = checkpoint._write_array

        def fail_on_third_array(out, arr):
            if len(written) == 3:
                files_at_failure.extend(sorted(f.name for f in tmp_path.iterdir()))
                raise OSError("disk full")
            real_write(out, arr)
            written.append(arr.size)

        monkeypatch.setattr(checkpoint, "_write_array", fail_on_third_array)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, config, optimizer)
        assert len(files_at_failure) == 2, "the write was not in progress"
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.lmlp"]

    def test_save_rejects_float64_models(self, tmp_path):
        config = tiny_config()
        model = build_model(config.backbone_config(), 0, dtype=np.float64)
        with pytest.raises(T.UsageError):
            save_checkpoint(tmp_path / "bad.lmlp", config, AdamW(list(model.named_parameters())))

    def test_magic_bytes(self, tmp_path):
        config = tiny_config()
        _, optimizer = self.build(config)
        path = tmp_path / "m.lmlp"
        save_checkpoint(path, config, optimizer)
        assert path.read_bytes()[:4] == b"LMLP"

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.lmlp"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        config = tiny_config()
        _, optimizer = self.build(config)
        path = tmp_path / "m.lmlp"
        save_checkpoint(path, config, optimizer)
        (tmp_path / "cut.lmlp").write_bytes(path.read_bytes()[:100])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "cut.lmlp")

    def test_records_out_of_model_order_are_refused(self, tmp_path):
        """Moments follow the stored records by position, so restoring a file
        whose records are in another order would set every parameter by name
        and put every moment on the wrong one."""
        config = tiny_config()
        model, _ = self.build(config)
        named = list(model.named_parameters())[::-1]
        optimizer = AdamW(named)
        path = tmp_path / "reversed.lmlp"
        save_checkpoint(path, config, optimizer)
        snapshot = load_checkpoint(path)
        assert list(snapshot.params) == [name for name, _ in named]
        with pytest.raises(CheckpointError, match=r"order \(names on one side only: \[\]\)"):
            restore_model(snapshot)

    def test_records_of_another_model_are_refused(self, tmp_path):
        config = tiny_config()
        _, optimizer = self.build(config)
        path = tmp_path / "m.lmlp"
        save_checkpoint(path, config, optimizer)
        snapshot = load_checkpoint(path)
        snapshot.params = {name.replace("head.", "tail."): value
                           for name, value in snapshot.params.items()}
        with pytest.raises(CheckpointError, match=r"'head.bias', 'head.weight', 'tail.bias'"):
            restore_model(snapshot)


GOLDEN_DIR = Path(__file__).parent / "data"


@pytest.mark.parametrize("tag", ["f2", "a3", "transformer", "b2_conv"])
def test_golden_checkpoint_loads_restores_and_resaves_bitwise(tmp_path, tag):
    """Checkpoints written by an earlier version (embed_dim 4, depth 2, 2
    training steps; B2 with the conv head) still load and restore, and saving
    the restored model with its loaded AdamW state gives the same bytes."""
    path = GOLDEN_DIR / f"golden_{tag}.lmlp"
    snapshot = load_checkpoint(path)
    assert snapshot.step == 2
    model = restore_model(snapshot)
    optimizer = AdamW(list(model.named_parameters()))
    optimizer.load_state(snapshot.step, snapshot.opt_exp_avg, snapshot.opt_exp_avg_sq)
    out = tmp_path / path.name
    save_checkpoint(out, snapshot.config, optimizer)
    assert out.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("tag", ["f2", "a3", "transformer", "b2_conv"])
def test_retraining_a_golden_config_writes_the_golden_file(tmp_path, monkeypatch, tag):
    """Training numerics are pinned to files an earlier version wrote: the
    config embedded in each golden file, retrained from scratch, writes the
    same bytes. Its out_dir is relative, so the run writes under tmp_path."""
    path = GOLDEN_DIR / f"golden_{tag}.lmlp"
    config = load_checkpoint(path).config
    monkeypatch.chdir(tmp_path)
    result = run_training(config)
    assert result.final_checkpoint == Path(config.out_dir) / checkpoint_name(2)
    assert result.final_checkpoint.read_bytes() == path.read_bytes()


def _no_moments(raw, flag_at):
    return raw[:flag_at] + b"\x00"  # what a save without an optimizer wrote


def _flag_0(raw, flag_at):
    return raw[:flag_at] + b"\x00" + raw[flag_at + 1:]


def _count_not_step(raw, flag_at):
    return raw[:flag_at + 1] + struct.pack("<Q", 3) + raw[flag_at + 9:]


@pytest.mark.parametrize("corrupt", [_no_moments, _flag_0, _count_not_step],
                         ids=["no-moments", "flag-0", "count-not-step"])
def test_golden_checkpoint_without_its_step_moments_is_refused(tmp_path, corrupt):
    """A resume from a file without moments, or with moments of another
    update count, would drift from the uninterrupted run, so it does not load."""
    path = GOLDEN_DIR / "golden_f2.lmlp"
    raw = path.read_bytes()
    # the u8 flag and u64 count precede two float32 moments per parameter value
    moments = 8 * sum(p.size for p in load_checkpoint(path).params.values())
    bad = tmp_path / "bad.lmlp"
    bad.write_bytes(corrupt(raw, len(raw) - moments - 9))
    with pytest.raises(CheckpointError, match="bad.lmlp"):
        load_checkpoint(bad)


def _bad_utf8_config(raw, name):
    return raw[:12] + b"\xff" + raw[13:]          # first byte of the config text


def _bad_utf8_name(raw, name):
    return raw.replace(name, b"\xff" + name[1:], 1)


def _garbage_config(raw, name):
    length = int.from_bytes(raw[8:12], "little")
    return raw[:12] + b"?" * length + raw[12 + length:]


def _trailing_bytes(raw, name):
    return raw + b"\x00"


def _config_text(old, new):
    def corrupt(raw, name):
        assert len(old) == len(new) and old in raw  # no offset moves
        return raw.replace(old, new, 1)             # the config comes first
    return corrupt


def _non_finite_value(value):
    def corrupt(raw, name):
        # the first parameter's data follows its name, rank and extents
        start = raw.index(name) + len(name)
        rank = int.from_bytes(raw[start:start + 4], "little")
        offset = start + 4 + 4 * rank
        return raw[:offset] + np.float32(value).tobytes() + raw[offset + 4:]
    return corrupt


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("corrupt", [
        _bad_utf8_config, _bad_utf8_name, _garbage_config, _trailing_bytes,
        _non_finite_value(np.nan), _non_finite_value(np.inf),
        _config_text(b"depth = 2", b"depth = 0"), _config_text(b"patch = 2", b"patch = 3"),
        _config_text(b"preset = F2", b"preset = ZZ"),
        _config_text(b"caption_keep_prob = 0.9", b"caption_keep_prob = 9.0"),
        _config_text(b"text_tokens = 3", b"text_tokens = 2"),
        _config_text(b"guidance_scale = 1.0", b"guidance_scale = nan"),
        _config_text(b"mlp_scale = 2.0", b"mlp_scale = inf"),
    ], ids=["bad-utf8-config", "bad-utf8-name", "garbage-config", "trailing-bytes",
            "nan-value", "inf-value", "zero-depth", "patch-not-dividing", "unknown-preset",
            "keep-prob-above-one", "caption-longer-than-text-tokens", "nan-guidance-scale",
            "inf-mlp-scale"])
    def test_raises_checkpoint_error(self, tmp_path, corrupt):
        config = tiny_config()
        model = build_model(config.backbone_config(), config.seed, dtype=np.float32)
        path = tmp_path / "m.lmlp"
        save_checkpoint(path, config, AdamW(list(model.named_parameters())))
        name = next(model.named_parameters())[0].encode()
        bad = tmp_path / "bad.lmlp"
        bad.write_bytes(corrupt(path.read_bytes(), name))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("old, new, key", [
        (b"beta1 = 0.9", b"beta1 = 1.5", "beta1"),
        (b"beta_start = 0.0001", b"beta_start = 0.9999", "beta_start"),
    ])
    def test_embedded_config_error_names_the_key(self, tmp_path, old, new, key):
        """The embedded config is held to every rule a run config is."""
        config = tiny_config()
        model = build_model(config.backbone_config(), config.seed, dtype=np.float32)
        path = tmp_path / "m.lmlp"
        save_checkpoint(path, config, AdamW(list(model.named_parameters())))
        bad = tmp_path / "bad.lmlp"
        bad.write_bytes(_config_text(old, new)(path.read_bytes(), None))
        with pytest.raises(CheckpointError, match=f"bad embedded config: {key}|{key} "):
            load_checkpoint(bad)

    def test_non_finite_optimizer_moment_rejected(self, tmp_path):
        config = tiny_config()
        model = build_model(config.backbone_config(), config.seed, dtype=np.float32)
        optimizer = AdamW(list(model.named_parameters()))
        optimizer.exp_avg_sq[-1][...] = np.inf
        path = tmp_path / "m.lmlp"
        save_checkpoint(path, config, optimizer)
        with pytest.raises(CheckpointError, match="second moment"):
            load_checkpoint(path)
