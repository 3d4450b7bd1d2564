from pathlib import Path

import numpy as np
import pytest

from lmlp import analysis, blocks, pgm, tensor as T
from lmlp.checkpoint import load_checkpoint, restore_model
from lmlp.cli import main
from lmlp.config import RunConfig, serialize_config
from lmlp.train import checkpoint_name, run_training


GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_F2, GOLDEN_A3 = GOLDEN_DIR / "golden_f2.lmlp", GOLDEN_DIR / "golden_a3.lmlp"
FLOAT_KEYS = ("learning_rate", "weight_decay", "beta1", "beta2", "mlp_scale",
              "beta_start", "beta_end", "guidance_scale", "caption_keep_prob")


@pytest.fixture()
def trained_checkpoint(tmp_path):
    config = RunConfig(image_side=8, embed_dim=8, depth=2, text_tokens=3,
                       mlp_scale=2.0, num_samples=8, train_steps=2, batch_size=2,
                       warmup_steps=1, checkpoint_every=2,
                       out_dir=str(tmp_path / "train"))
    run_training(config)
    return tmp_path / "train" / checkpoint_name(2)


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        [],
        ["train", "--bananas", "1"],
        ["sample", "--checkpoint", "m.lmlp", "--captions", "c.txt", "--cfg-scale", "-inf"],
    ], ids=["missing-verb", "unknown-flag", "cfg-scale-read-as-a-flag"])
    def test_one_line_and_exit_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: lmlp") and captured.err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        assert main(["train", "--help"]) == 0
        assert "--config" in capsys.readouterr().out


def _run_config_refusal(key, value):
    """RunConfig(key=value) directly, and ``show-config`` with the flag."""
    flag = f"--{key.replace('_', '-')}={value}"
    return pytest.param(lambda out: RunConfig(**{key: value}), ["show-config", flag],
                        id=f"{key}={value}")


class TestOneUsageErrorType:
    @pytest.mark.parametrize("refuse, argv", [
        _run_config_refusal("depth", 0),
        _run_config_refusal("preset", "ZZ"),
        _run_config_refusal("beta1", 2.0),
        _run_config_refusal("image_side", 12),
        _run_config_refusal("text_tokens", 2),
        _run_config_refusal("sample_steps", 0),
        _run_config_refusal("mlp_scale", -1.0),
        pytest.param(lambda out: blocks.BlockConfig(seq_len=0, embed_dim=8),
                     ["bench", "--measure", "D2:0:8:2"], id="block-config"),
        pytest.param(lambda out: analysis.extract_first_stage(
                         restore_model(load_checkpoint(GOLDEN_A3)), 0, "left"),
                     ["inspect", "--checkpoint", str(GOLDEN_A3), "--layer", "0",
                      "--out-dir", "{out}"], id="inspect-a3-layer"),
        pytest.param(lambda out: run_training(RunConfig(seed=7, out_dir=str(out)),
                                              resume=str(GOLDEN_F2)),
                     ["train", "--seed", "7", "--out-dir", "{out}", "--resume", str(GOLDEN_F2)],
                     id="mismatched-resume"),
    ])
    def test_every_refusal_is_a_usage_error_and_exits_2(self, tmp_path, capsys, refuse, argv):
        """A bad config value, block, inspected layer or resume raises the one
        usage type, and its verb exits 2 with one line and writes nothing."""
        out = tmp_path / "out"
        with pytest.raises(T.UsageError):
            refuse(out)
        assert main([arg.format(out=out) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not out.exists()


class TestBench:
    def test_paper_rows(self, capsys):
        assert main(["bench", "--paper"]) == 0
        out = capsys.readouterr().out
        assert "transformer-s4" in out and "lmlp-s4" in out
        csv_line = [l for l in out.splitlines() if l.startswith("lmlp-s4,")][0]
        macs = float(csv_line.split(",")[4])
        assert abs(macs / 0.933e9 - 1.0) < 5e-3

    def test_csv_file_output(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        assert main(["bench", "--paper", "--csv", str(path)]) == 0
        assert path.read_text().startswith("name,L,D,s,macs,params,mp_ratio")

    def test_measure_reports_exact_match(self, capsys):
        for spec in ("D2:6:8:2", "TRANSFORMER:6:128:2"):
            assert main(["bench", "--measure", spec]) == 0
            assert "exact=yes" in capsys.readouterr().out, spec

    @pytest.mark.parametrize("spec, kind", [("A2:16:8:4", "mixer"), ("A3:16:8:4", "gmlp")])
    def test_measure_baseline_preset_without_a_formula(self, capsys, spec, kind):
        """A block kind without an analytic formula still reports what was measured."""
        assert main(["bench", "--measure", spec]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [line] = captured.out.splitlines()
        assert line.startswith(f"measured {spec.split(':')[0]} at L=16 D=8 s=4: macs ")
        assert "trainable scalars" in line
        assert f"no analytic formula for kind {kind!r}" in line

    def test_no_arguments_is_usage_error(self, capsys):
        assert main(["bench"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_row_spec(self, capsys):
        assert main(["bench", "--row", "x:1:2"]) == 2

    @pytest.mark.parametrize("scale", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("flag, spec", [("--measure", "D2:8:8:{}"),
                                            ("--row", "x:8:8:{}:lmlp")],
                             ids=["measure", "row"])
    def test_non_finite_scale_exits_2(self, capsys, flag, spec, scale):
        assert main(["bench", flag, spec.format(scale)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "positive finite" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--measure", "D2:0:8:2"],
                                      ["--measure", "D2:6:8:2", "--seed=-1"]],
                             ids=["zero-seq-len", "no-seed-flag"])
    def test_usage_mistake_exits_2(self, capsys, argv):
        assert main(["bench", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_custom_row(self, capsys):
        assert main(["bench", "--row", "mine:10:16:2:lmlp"]) == 0
        assert "mine" in capsys.readouterr().out


class TestTrainCommand:
    def test_train_with_flags(self, tmp_path, capsys):
        code = main(["train", "--image-side", "8", "--embed-dim", "8", "--depth", "2",
                     "--text-tokens", "3", "--mlp-scale", "2.0", "--num-samples", "8",
                     "--train-steps", "2", "--batch-size", "2", "--warmup-steps", "1",
                     "--checkpoint-every", "2", "--out-dir", str(tmp_path / "t")])
        assert code == 0
        assert (tmp_path / "t" / "loss_log.csv").exists()

    def test_train_with_config_file(self, tmp_path):
        config = RunConfig(image_side=8, embed_dim=8, depth=2, text_tokens=3,
                           mlp_scale=2.0, num_samples=8, train_steps=1, batch_size=2,
                           warmup_steps=1, checkpoint_every=1,
                           out_dir=str(tmp_path / "c"))
        path = tmp_path / "run.cfg"
        path.write_text(serialize_config(config))
        assert main(["train", "--config", str(path)]) == 0
        assert (tmp_path / "c" / checkpoint_name(1)).exists()

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[run]\nbananas = 1\n")
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bananas" in err and err.count("\n") == 1

    def test_resume_with_mismatched_seed_exits_2(self, trained_checkpoint, tmp_path, capsys):
        code = main(["train", "--image-side", "8", "--embed-dim", "8", "--depth", "2",
                     "--text-tokens", "3", "--mlp-scale", "2.0", "--num-samples", "8",
                     "--train-steps", "3", "--batch-size", "2", "--warmup-steps", "1",
                     "--checkpoint-every", "2", "--seed", "7",
                     "--out-dir", str(tmp_path / "r"), "--resume", str(trained_checkpoint)])
        assert code == 2
        err = capsys.readouterr().err
        assert "seed is 7 here but 0" in err and err.count("\n") == 1
        assert not (tmp_path / "r").exists()

    def test_resume_with_other_train_timesteps_exits_2(self, trained_checkpoint, tmp_path,
                                                        capsys):
        code = main(["train", "--image-side", "8", "--embed-dim", "8", "--depth", "2",
                     "--text-tokens", "3", "--mlp-scale", "2.0", "--num-samples", "8",
                     "--train-steps", "3", "--batch-size", "2", "--warmup-steps", "1",
                     "--checkpoint-every", "2", "--train-timesteps", "100",
                     "--out-dir", str(tmp_path / "r"), "--resume", str(trained_checkpoint)])
        assert code == 2
        err = capsys.readouterr().err
        assert "train_timesteps is 100 here but 1000" in err and err.count("\n") == 1

    def test_resume_past_train_steps_exits_2(self, trained_checkpoint, tmp_path, capsys):
        code = main(["train", "--image-side", "8", "--embed-dim", "8", "--depth", "2",
                     "--text-tokens", "3", "--mlp-scale", "2.0", "--num-samples", "8",
                     "--train-steps", "1", "--batch-size", "2", "--warmup-steps", "1",
                     "--checkpoint-every", "2",
                     "--out-dir", str(tmp_path / "r"), "--resume", str(trained_checkpoint)])
        assert code == 2
        err = capsys.readouterr().err
        assert "train_steps is 1 here but the checkpoint is at step 2" in err
        assert err.count("\n") == 1

    def test_show_config_round_trips(self, capsys):
        assert main(["show-config", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "seed = 9" in out

    def test_missing_config_file_exits_1(self, capsys):
        assert main(["train", "--config", "/no/such/file.cfg"]) == 1

    @pytest.mark.parametrize("flag, value", [("--depth", "0"), ("--patch", "3"),
                                             ("--preset", "ZZ"), ("--text-tokens", "2"),
                                             ("--image-side", "4")])
    def test_bad_model_config_exits_2(self, tmp_path, capsys, flag, value):
        code = main(["train", flag, value, "--train-steps", "1",
                     "--out-dir", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and err.count("\n") == 1
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_exits_2(self, tmp_path, capsys, key, value):
        flag = "--" + key.replace("_", "-")
        code = main(["train", "--image-side", "8", "--embed-dim", "8", "--depth", "2",
                     "--text-tokens", "3", "--mlp-scale", "2.0", "--num-samples", "8",
                     "--train-steps", "1", "--batch-size", "2", "--warmup-steps", "1",
                     flag, value, "--out-dir", str(tmp_path / "t")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{key} must be finite" in err and err.count("\n") == 1
        assert not (tmp_path / "t").exists()
        assert main(["show-config", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{key} must be finite" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("key, flags", [
        ("beta1", ["--beta1=1.5"]),
        ("beta2", ["--beta2=1"]),
        ("beta_start", ["--beta-start=0.5", "--beta-end=0.1"]),
        ("beta_start", ["--beta-start=0"]),
        ("beta_end", ["--beta-end=1"]),
        ("seed", ["--seed=-1"]),
        ("data_seed", ["--data-seed=-2"]),
        ("mlp_scale", ["--mlp-scale=1e308"]),
        ("embed_dim", ["--preset=TRANSFORMER", "--embed-dim=194"]),
        ("caption_keep_prob", ["--caption-keep-prob=1.5"]),
        ("learning_rate", ["--learning-rate=0"]),
        ("batch_size", ["--batch-size=0"]),
        ("sample_steps", ["--sample-steps=0"]),
        ("skip_mode", ["--skip-mode=sideways"]),
        ("in_channels", ["--in-channels=4"]),
    ])
    def test_every_run_rule_refuses_before_writing(self, tmp_path, capsys, key, flags):
        """A bad key exits 2 with one line naming it, from ``train`` before its
        out-dir exists and from ``show-config``."""
        out = tmp_path / "t"
        code = main(["train", "--image-side", "8", "--embed-dim", "8", "--depth", "2",
                     "--text-tokens", "3", "--mlp-scale", "2.0", "--num-samples", "8",
                     "--train-steps", "1", "--batch-size", "2", "--warmup-steps", "1",
                     *flags, "--out-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1
        assert not out.exists()
        assert main(["show-config", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--text-tokens", "2"), ("--image-side", "4")])
    def test_show_config_rejects_bad_data_keys(self, capsys, flag, value):
        assert main(["show-config", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[2:].replace("-", "_") in captured.err and captured.err.count("\n") == 1


class TestSampleCommand:
    def test_sample_writes_one_file_per_caption(self, trained_checkpoint, tmp_path, capsys):
        captions = tmp_path / "captions.txt"
        captions.write_text("square top-left bright\ndisk center dim\n"
                            "cross bottom-right bright\nsquare top-right dim\n")
        out = tmp_path / "samples"
        code = main(["sample", "--checkpoint", str(trained_checkpoint),
                     "--captions", str(captions), "--steps", "5", "--seed", "3",
                     "--out-dir", str(out)])
        assert code == 0
        images = sorted(p.name for p in out.glob("*.pgm"))
        assert len(images) == 4
        assert "seed3" in images[0] and "w1" in images[0]
        assert len(list(out.glob("*.csv"))) == 4

    def test_same_seed_bitwise_identical_files(self, trained_checkpoint, tmp_path):
        captions = tmp_path / "c.txt"
        captions.write_text("square center bright\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["sample", "--checkpoint", str(trained_checkpoint),
                         "--captions", str(captions), "--steps", "4", "--seed", "7",
                         "--out-dir", str(out)]) == 0
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_null_captions_make_guidance_scale_irrelevant(self, trained_checkpoint, tmp_path):
        """All-null captions tie the conditional and unconditional branches, so
        omega = 0 and omega = -1 produce identical images."""
        captions = tmp_path / "null.txt"
        captions.write_text("<null>\n")
        outputs = {}
        for omega in ("0", "-1"):
            out = tmp_path / f"w{omega}"
            assert main(["sample", "--checkpoint", str(trained_checkpoint),
                         "--captions", str(captions), "--cfg-scale", omega,
                         "--steps", "4", "--seed", "2", "--out-dir", str(out)]) == 0
            outputs[omega] = next(out.glob("*.csv")).read_bytes()
        assert outputs["0"] == outputs["-1"]

    @pytest.mark.parametrize("omega", ["nan", "inf"])
    def test_non_finite_cfg_scale_exits_2(self, trained_checkpoint, tmp_path, capsys, omega):
        captions = tmp_path / "c.txt"
        captions.write_text("square center bright\n")
        code = main(["sample", "--checkpoint", str(trained_checkpoint),
                     "--captions", str(captions), "--cfg-scale", omega, "--steps", "2",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert "guidance scale must be finite" in err and err.count("\n") == 1
        assert not (tmp_path / "s").exists()

    def test_negative_seed_exits_2(self, trained_checkpoint, tmp_path, capsys):
        captions = tmp_path / "c.txt"
        captions.write_text("square center bright\n")
        code = main(["sample", "--checkpoint", str(trained_checkpoint),
                     "--captions", str(captions), "--seed=-1", "--steps", "2",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert "rng_seed must be non-negative" in err and err.count("\n") == 1
        assert not (tmp_path / "s").exists()

    def test_checkpoint_with_bad_config_exits_1(self, trained_checkpoint, tmp_path, capsys):
        raw = trained_checkpoint.read_bytes()
        bad = tmp_path / "bad.lmlp"
        bad.write_bytes(raw.replace(b"preset = F2", b"preset = ZZ", 1))
        captions = tmp_path / "c.txt"
        captions.write_text("square center bright\n")
        code = main(["sample", "--checkpoint", str(bad), "--captions", str(captions),
                     "--steps", "1", "--out-dir", str(tmp_path / "s")])
        assert code == 1
        assert "embedded config" in capsys.readouterr().err

    def test_unknown_caption_token_exits_2(self, trained_checkpoint, tmp_path, capsys):
        captions = tmp_path / "bad.txt"
        captions.write_text("square warp-speed bright\n")
        code = main(["sample", "--checkpoint", str(trained_checkpoint),
                     "--captions", str(captions), "--steps", "2",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 2
        assert "warp-speed" in capsys.readouterr().err

    def test_over_long_caption_exits_2(self, trained_checkpoint, tmp_path, capsys):
        captions = tmp_path / "long.txt"
        captions.write_text("square center bright dim\n")
        code = main(["sample", "--checkpoint", str(trained_checkpoint),
                     "--captions", str(captions), "--steps", "2",
                     "--out-dir", str(tmp_path / "s")])
        assert code == 2
        assert "'square center bright dim' has 4 words" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestInspectCommand:
    def test_inspect_all_layers(self, trained_checkpoint, tmp_path):
        out = tmp_path / "maps"
        code = main(["inspect", "--checkpoint", str(trained_checkpoint),
                     "--all-layers", "--format", "pgm", "--out-dir", str(out)])
        assert code == 0
        maps = sorted(p.name for p in out.glob("*.pgm"))
        assert maps == ["weights_layer00_left.pgm", "weights_layer00_right.pgm",
                        "weights_layer01_left.pgm", "weights_layer01_right.pgm"]
        stats = (out / "region_stats.csv").read_text().splitlines()
        assert stats[0] == "layer,side,region,mean,std"
        assert len(stats) == 1 + 2 * 4  # four regions per left map

    def test_exported_values_in_unit_range(self, trained_checkpoint, tmp_path):
        out = tmp_path / "maps_csv"
        assert main(["inspect", "--checkpoint", str(trained_checkpoint),
                     "--layer", "0", "--side", "left", "--format", "csv",
                     "--out-dir", str(out)]) == 0
        values = np.loadtxt(out / "weights_layer00_left.csv", delimiter=",")
        assert values.min() >= 0.0 and values.max() <= 1.0

    @pytest.mark.parametrize("tag, flags", [("f2", ["--layer", "99"]), ("a3", ["--all-layers"])],
                             ids=["layer-out-of-range", "no-two-branch-layer"])
    def test_refused_layer_leaves_no_out_dir(self, capsys, tmp_path, tag, flags):
        out = tmp_path / "maps"
        assert main(["inspect", "--checkpoint", str(GOLDEN_DIR / f"golden_{tag}.lmlp"),
                     *flags, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_layer_without_flag_is_usage_error(self, trained_checkpoint, tmp_path):
        assert main(["inspect", "--checkpoint", str(trained_checkpoint),
                     "--out-dir", str(tmp_path / "x")]) == 2


class TestGenDataCommand:
    def test_gen_data_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["gen-data", "--seed", "5", "--count", "4",
                         "--out-dir", str(out)]) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        img = pgm.read_pnm(a / "00000.pgm")
        assert img.shape == (8, 8)

    def test_zero_count(self, tmp_path):
        out = tmp_path / "zero"
        assert main(["gen-data", "--seed", "1", "--count", "0",
                     "--out-dir", str(out)]) == 0
        assert (out / "captions.tsv").read_text() == "index\ttoken_ids\n"

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        assert main(["gen-data", "--seed=-1", "--count", "1",
                     "--out-dir", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_bad_side_exits_2(self, tmp_path, capsys):
        assert main(["gen-data", "--seed", "1", "--count", "1", "--side", "9",
                     "--out-dir", str(tmp_path / "x")]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2
