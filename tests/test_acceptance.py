"""End-to-end verification gates.

Each test implements one release criterion at its stated tolerance and prints
one PASS line when it holds (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines; test outcomes themselves give the pass/fail report).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from helpers import check_gradients
from lmlp import blocks, tensor as T
from lmlp.analysis import WeightMap, normalize_unit, region_stats
from lmlp.backbone import BackboneConfig, build_model
from lmlp.checkpoint import load_checkpoint, restore_model, save_checkpoint
from lmlp.cli import main
from lmlp.complexity import cost_table, lmlp_cost, measure, reference_rows
from lmlp.config import RunConfig
from lmlp.diffusion import (
    NoiseSchedule,
    SamplerConfig,
    cfg_eps,
    sample,
    training_loss,
)
from lmlp.optim import AdamW
from lmlp.tensor import Tensor
from lmlp.train import checkpoint_name, run_training

TABLE1_PRESETS = ["A1", "A2", "A3", "B1", "B2", "B3", "C1", "D1", "D2", "E1", "E2", "F2"]


def report(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS - {message}")


def randomize(module, seed):
    rng = np.random.default_rng(seed)
    for _, p in module.named_parameters():
        p.data[...] = 0.2 * rng.standard_normal(p.shape)


def test_criterion_01_reference_cost_table():
    """Complexity column matches the published 1.165e9 / 1.143e9 / 0.933e9 at
    3 significant figures; two-branch parameters at s=4 within 1% of 2.74M."""
    start = time.perf_counter()
    _, csv_text = cost_table(reference_rows())
    elapsed = time.perf_counter() - start
    rows = {line.split(",")[0]: line.split(",") for line in csv_text.strip().splitlines()[1:]}
    expected = {"transformer-s4": 1.165e9, "lmlp-s5.2": 1.143e9, "lmlp-s4": 0.933e9}
    for name, quoted in expected.items():
        macs = float(rows[name][4])
        assert f"{macs:.3g}" == f"{quoted:.3g}", (name, macs)
        assert abs(macs / quoted - 1.0) < 5e-3
    params = float(rows["lmlp-s4"][5])
    assert abs(params / 2.74e6 - 1.0) < 0.01
    assert elapsed < 1.0
    assert main(["bench", "--paper"]) == 0
    report(1, f"reference MACs {', '.join(f'{float(r[4]):.4g}' for r in rows.values())} "
              f"in {elapsed * 1000:.0f} ms")


def test_criterion_02_measured_equals_analytic():
    """Instrumented matmul MACs equal the formula exactly; enumerated weight
    elements equal (2+2s)D^2 + L^2 exactly. Both operating points."""
    start = time.perf_counter()
    for seq, dim, scale in ((6, 8, 2.0), (334, 512, 4.0)):
        block = blocks.build_block("D2", 0, seq_len=seq, embed_dim=dim, mlp_scale=scale)
        macs, _ = measure(block, seq, dim)
        analytic = lmlp_cost(seq, dim, scale)
        assert macs == int(analytic.macs)
        weight_elements = sum(p.size for name, p in block.named_parameters()
                              if name.endswith(".weight"))
        assert weight_elements == int(analytic.params)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"exact MAC and leading-term parameter match in {elapsed:.1f} s")


def test_criterion_03_gradient_correctness():
    """Finite-difference checks (64-bit, step 1e-5, rel err <= 1e-4) for every
    design-grid preset, the depth-4 U-shaped model with second-stage skips,
    and the training loss end to end."""
    start = time.perf_counter()
    worst = 0.0
    x = Tensor(np.random.default_rng(0).standard_normal((2, 6, 8)))
    for preset in TABLE1_PRESETS:
        block = blocks.build_block(preset, 1, seq_len=6, embed_dim=8, mlp_scale=2.0)
        randomize(block, seed=2)
        params = [p for _, p in block.named_parameters()]
        worst = max(worst, check_gradients(lambda: (block(x) * block(x)).mean(), params))

    cfg = BackboneConfig(image_side=4, in_channels=1, patch=2, embed_dim=8, depth=4,
                         text_tokens=2, vocab_size=6, preset="F2", mlp_scale=2.0,
                         skip_mode="second_stage", num_timesteps=100)
    model = build_model(cfg, 3)
    randomize(model, seed=4)
    rng = np.random.default_rng(5)
    xb = Tensor(rng.standard_normal((2, 1, 4, 4)))
    ids = rng.integers(0, 6, size=(2, 2))
    t = rng.integers(0, 100, size=2)
    params = [p for _, p in model.named_parameters()]
    worst = max(worst, check_gradients(lambda: (model(xb, ids, t) * model(xb, ids, t)).mean(),
                                       params))

    sched = NoiseSchedule(100)
    x0 = rng.standard_normal((2, 1, 4, 4))

    def loss():
        return training_loss(model, x0, ids, sched, 0.9,
                             np.random.default_rng(6))

    worst = max(worst, check_gradients(loss, params))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(3, f"worst relative gradient error {worst:.2e} across presets, "
              f"backbone and loss in {elapsed:.0f} s")


def test_criterion_04_identity_at_init():
    """Zero-initialized two-branch blocks are exact identities, and so are
    fresh blocks thanks to the zero merge projection (and zero second-stage
    output layer)."""
    x = Tensor(np.random.default_rng(7).standard_normal((2, 6, 8)))
    lmlp_presets = [p for p in TABLE1_PRESETS if p not in ("A2", "A3")]
    for preset in lmlp_presets:
        block = blocks.build_block(preset, 8, seq_len=6, embed_dim=8, mlp_scale=2.0)
        blocks.zero_parameters(block)
        assert np.array_equal(block(x).data, x.data), f"{preset} zero-init"
    fresh_identity = 0
    for preset in lmlp_presets:
        block = blocks.build_block(preset, 9, seq_len=6, embed_dim=8, mlp_scale=2.0)
        if block.merge_proj is not None:
            assert np.array_equal(block(x).data, x.data), f"{preset} fresh"
            fresh_identity += 1
    report(4, f"exact identity for {len(lmlp_presets)} zero-init presets and "
              f"{fresh_identity} fresh merge-projection presets")


def test_criterion_05_guidance_algebra():
    """cfg prediction equals cond + omega * (cond - uncond) within 1e-12 at
    64-bit for omega in {-1, 0, 2}; omega = 0 equals the conditional bitwise."""
    cfg = BackboneConfig(image_side=4, in_channels=1, patch=2, embed_dim=8, depth=2,
                         text_tokens=2, vocab_size=6, preset="F2", mlp_scale=2.0,
                         skip_mode="second_stage", num_timesteps=100)
    model = build_model(cfg, 10)
    randomize(model, seed=11)
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 1, 4, 4)))
    ids = np.array([[1, 2], [3, 4]])
    t = np.array([5, 50])
    with T.no_grad():
        cond = model(x, ids, t).data
        uncond = model(x, np.zeros_like(ids), t).data
        for omega in (-1.0, 0.0, 2.0):
            guided = cfg_eps(model, x, ids, t, omega).data
            assert np.abs(guided - (cond + omega * (cond - uncond))).max() < 1e-12
        assert np.array_equal(cfg_eps(model, x, ids, t, 0.0).data, cond)
    report(5, "guidance affine identity within 1e-12; omega=0 bitwise conditional")


def test_criterion_06_sampler_determinism_and_degenerate_form():
    """Same seed gives bitwise-identical 50-step samples; with a zero-noise
    model the trajectory matches the scalar recurrence to 1e-10."""
    sched = NoiseSchedule()
    cfg = BackboneConfig(image_side=8, in_channels=1, patch=2, embed_dim=16, depth=2,
                         text_tokens=2, vocab_size=6, preset="F2", mlp_scale=2.0,
                         skip_mode="second_stage")
    model = build_model(cfg, 13)
    randomize(model, seed=14)
    ids = np.array([[1, 2]])
    a = sample(model, ids, sched, SamplerConfig(50), 1.0, rng_seed=15).data
    b = sample(model, ids, sched, SamplerConfig(50), 1.0, rng_seed=15).data
    assert np.array_equal(a, b)

    class ZeroModel:
        dtype = np.float64
        config = cfg

        def forward(self, x_t, text_ids, t):
            return Tensor(np.zeros(x_t.shape))

    out = sample(ZeroModel(), ids, sched, SamplerConfig(50), 1.0, rng_seed=16).data
    times = SamplerConfig(50).timesteps(sched.num_steps)
    factor = 1.0
    for i, t in enumerate(times):
        root_next = float(np.sqrt(sched.alpha_bars[times[i + 1]])) \
            if i + 1 < len(times) else 1.0
        factor *= root_next / float(np.sqrt(sched.alpha_bars[t]))
    init = np.random.default_rng(16).standard_normal((1, 1, 8, 8))
    deviation = np.abs(out - init * factor).max()
    assert deviation < 1e-10
    report(6, f"bitwise-reproducible sampling; zero-noise trajectory within "
              f"{deviation:.1e} of the closed form")


@pytest.mark.slow
def test_criterion_07_toy_training_signal(tmp_path):
    """Desk-scale run (F2, D=64, depth 4, 2000 steps): final-100-step mean loss
    at most half the first-100-step mean; token-mixing and gated baselines
    train to completion without NaN under the identical config."""
    start = time.perf_counter()
    ratios = {}
    for preset in ("F2", "A2", "A3"):
        config = RunConfig(preset=preset, out_dir=str(tmp_path / preset))
        result = run_training(config)
        losses = np.array(result.losses)
        assert np.isfinite(losses).all(), f"{preset} produced a non-finite loss"
        ratios[preset] = losses[-100:].mean() / losses[:100].mean()
    assert ratios["F2"] <= 0.5, f"loss ratio {ratios['F2']:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    report(7, f"loss ratios F2={ratios['F2']:.3f}, A2={ratios['A2']:.3f}, "
              f"A3={ratios['A3']:.3f}; all finite in {elapsed / 60:.1f} min")


def test_criterion_08_persistence(tmp_path):
    """Checkpoint round-trip is bitwise; a run interrupted at step 3 and
    resumed reproduces the uninterrupted loss log exactly."""
    base = dict(image_side=8, embed_dim=8, depth=2, text_tokens=3, mlp_scale=2.0,
                num_samples=16, batch_size=2, warmup_steps=2, checkpoint_every=3)
    config = RunConfig(train_steps=3, out_dir=str(tmp_path / "snap"), **base)
    model = build_model(config.backbone_config(), 0, dtype=np.float32)
    optimizer = AdamW(list(model.named_parameters()), betas=(0.9, 0.9))
    rng = np.random.default_rng(17)
    for (_, p), m, v in zip(model.named_parameters(), optimizer.exp_avg,
                            optimizer.exp_avg_sq):
        p.data[...] = rng.standard_normal(p.shape).astype(np.float32)
        m[...] = rng.standard_normal(p.shape).astype(np.float32)
        v[...] = np.abs(rng.standard_normal(p.shape)).astype(np.float32)
    optimizer.step_count = 3
    path = tmp_path / "model.lmlp"
    save_checkpoint(path, config, optimizer)
    snapshot = load_checkpoint(path)
    restored = restore_model(snapshot)
    for (name, p), (_, q) in zip(model.named_parameters(), restored.named_parameters()):
        assert np.array_equal(p.data, q.data), name
    opt2 = AdamW(list(restored.named_parameters()), betas=(0.9, 0.9))
    opt2.load_state(snapshot.step, snapshot.opt_exp_avg, snapshot.opt_exp_avg_sq)
    for m, m2 in zip(optimizer.exp_avg, opt2.exp_avg):
        assert np.array_equal(m, m2)

    full = run_training(RunConfig(train_steps=6, out_dir=str(tmp_path / "full"), **base))
    half_dir = tmp_path / "half"
    run_training(RunConfig(train_steps=3, out_dir=str(half_dir), **base))
    resumed = run_training(RunConfig(train_steps=6, out_dir=str(half_dir), **base),
                           resume=half_dir / checkpoint_name(3))
    assert resumed.log_path.read_text() == full.log_path.read_text()
    report(8, "bitwise checkpoint round-trip and bitwise-identical resumed loss log")


def test_criterion_09_analysis_pipeline():
    """normalize_unit idempotence and positive-affine invariance within 1e-12;
    region statistics equal a brute-force submatrix oracle exactly on 20 maps."""
    rng = np.random.default_rng(18)
    for _ in range(20):
        size = int(rng.integers(4, 16))
        cut = int(rng.integers(1, size - 1))
        matrix = rng.standard_normal((size, size))
        wmap = WeightMap(matrix, "left", 0, (1, cut))
        once = normalize_unit(wmap)
        assert np.abs(normalize_unit(once).matrix - once.matrix).max() < 1e-12
        scale, shift = float(rng.uniform(0.1, 5.0)), float(rng.uniform(-3.0, 3.0))
        again = normalize_unit(WeightMap(scale * matrix + shift, "left", 0, (1, cut)))
        assert np.abs(again.matrix - once.matrix).max() < 1e-12

        stats = region_stats(wmap)
        spans = {"text": range(0, cut), "image": range(cut, size)}
        for name, (mean, std) in stats.items():
            source, _, target = name.partition("_to_")
            listed = np.array([matrix[r, c] for r in spans[target] for c in spans[source]])
            oracle_mean = np.mean(listed)
            oracle_std = np.sqrt(np.mean((listed - oracle_mean) ** 2))
            assert mean == float(oracle_mean) and std == float(oracle_std), name
    report(9, "normalization invariants within 1e-12; exact region statistics on 20 maps")


def test_criterion_10_out_of_reach_results_documented():
    """Full-scale image-quality scores (FID / CLIP score) and GPU wall-clock
    throughput are documented as out of desk-scale reach and asserted nowhere."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "FID" in text and "not" in text.lower()
    assert "wall-clock" in text.lower() or "throughput" in text.lower()
    report(10, "README states which published results stay out of desk-scale reach")
