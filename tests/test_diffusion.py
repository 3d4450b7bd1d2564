import errno
import os
import select
import signal
import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import check_gradients, count_forks, count_isfinite, force_split
from lmlp import dataset, diffusion, tensor as T
from lmlp.backbone import BackboneConfig, build_model
from lmlp.config import RunConfig
from lmlp.diffusion import (
    NoiseSchedule,
    SamplerConfig,
    cfg_eps,
    forward_noise,
    sample,
    score_from_eps,
    training_loss,
)
from lmlp.tensor import Tensor


@pytest.fixture()
def sched():
    return NoiseSchedule()


def desk_model(seed=0, dtype=np.float64, **overrides):
    base = dict(image_side=4, in_channels=1, patch=2, embed_dim=8, depth=2,
                text_tokens=2, vocab_size=6, preset="F2", mlp_scale=2.0,
                skip_mode="second_stage", num_timesteps=1000)
    base.update(overrides)
    return build_model(BackboneConfig(**base), seed, dtype)


class StubModel:
    """Minimal duck-typed backbone for sampler/guidance tests."""

    def __init__(self, fn, side=4, channels=1, text_tokens=2):
        self.fn = fn
        self.dtype = np.float64
        self.config = BackboneConfig(image_side=side, in_channels=channels,
                                     patch=2, embed_dim=8, depth=2,
                                     text_tokens=text_tokens, vocab_size=6)

    def forward(self, x_t, text_ids, t):
        return self.fn(x_t, np.asarray(text_ids), t)


class TestNoiseSchedule:
    def test_monotonicity(self, sched):
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert np.all(np.diff(sched.sigmas) > 0)
        assert np.all((sched.betas > 0) & (sched.betas < 1))
        assert np.all(np.diff(sched.betas) >= 0)

    def test_endpoints(self, sched):
        assert sched.alpha_bars[0] > 0.999
        assert sched.alpha_bars[-1] < 1e-3

    def test_bad_betas_rejected(self):
        with pytest.raises(T.UsageError):
            NoiseSchedule(beta_start=0.0)
        with pytest.raises(T.UsageError):
            NoiseSchedule(beta_start=0.5, beta_end=0.1)


class TestForwardNoise:
    def test_zero_noise_scales_signal(self, sched):
        x0 = np.ones((2, 1, 4, 4))
        out = forward_noise(x0, np.array([100, 100]), np.zeros_like(x0), sched)
        assert np.allclose(out, np.sqrt(sched.alpha_bars[100]) * x0)

    def test_near_clean_limit(self, sched):
        x0 = np.random.default_rng(0).standard_normal((1, 1, 4, 4))
        out = forward_noise(x0, np.array([0]), np.zeros_like(x0), sched)
        assert np.allclose(out, np.sqrt(sched.alpha_bars[0]) * x0)
        assert abs(np.sqrt(sched.alpha_bars[0]) - 1.0) < 1e-4

    def test_variance_matches_monte_carlo(self, sched):
        """With x0 = 0 the marginal variance is 1 - alpha_bar_t."""
        rng = np.random.default_rng(1)
        t = 400
        draws = forward_noise(np.zeros(100_000), np.array([t]),
                              rng.standard_normal(100_000), sched)
        expected = 1.0 - sched.alpha_bars[t]
        assert abs(draws.var() / expected - 1.0) < 0.02

    def test_out_of_range_t(self, sched):
        with pytest.raises(T.UsageError):
            forward_noise(np.zeros((1, 1, 2, 2)), np.array([1000]),
                          np.zeros((1, 1, 2, 2)), sched)


class TestTrainingLoss:
    def batch(self, seed=0, batch=3):
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((batch, 1, 4, 4))
        ids = rng.integers(1, 6, size=(batch, 2))
        return x0, ids

    def test_perfect_oracle_gives_zero_loss(self, sched):
        """A model that returns the exact drawn noise: loss must be exactly 0.

        The documented draw order (t, noise, keep flags) is replayed here with
        an identical generator to precompute that noise.
        """
        x0, ids = self.batch(seed=2)
        shadow = np.random.default_rng(42)
        shadow.integers(0, sched.num_steps, size=3)
        eps = shadow.standard_normal(x0.shape)
        oracle = StubModel(lambda x_t, i, t: Tensor(eps))
        loss = training_loss(oracle, x0, ids, sched, 0.9,
                             np.random.default_rng(42))
        assert loss.item() == 0.0

    def test_zero_model_loss_is_unit_variance(self, sched):
        """Predicting zero leaves the full noise: expected per-dim loss 1."""
        zero = StubModel(lambda x_t, i, t: Tensor(np.zeros(x_t.shape)))
        total, count = 0.0, 0
        for rep in range(10):
            x0 = np.zeros((10, 1, 10, 10))
            ids = np.ones((10, 2), dtype=int)
            loss = training_loss(zero, x0, ids, sched, 0.9,
                                 np.random.default_rng(100 + rep))
            total += loss.item()
            count += 1
        assert abs(total / count - 1.0) < 0.03

    def test_caption_dropping_uses_null_ids(self, sched):
        seen = []
        spy = StubModel(lambda x_t, i, t: (seen.append(i.copy()), Tensor(np.zeros(x_t.shape)))[1])
        x0 = np.zeros((400, 1, 4, 4))
        ids = np.ones((400, 2), dtype=int)
        training_loss(spy, x0, ids, sched, 0.9,
                      np.random.default_rng(3))
        dropped = (seen[0] == 0).all(axis=1).mean()
        assert 0.05 < dropped < 0.2

    def test_empty_batch_rejected(self, sched):
        with pytest.raises(T.UsageError):
            training_loss(StubModel(lambda x, i, t: x), np.zeros((0, 1, 4, 4)),
                          np.zeros((0, 2), dtype=int), sched, 0.9,
                          np.random.default_rng(0))

    def test_loss_gradients_match_finite_differences(self, sched):
        model = desk_model(seed=4)
        rng = np.random.default_rng(5)
        for _, p in model.named_parameters():
            p.data[...] = 0.2 * rng.standard_normal(p.shape)
        x0, ids = self.batch(seed=6, batch=2)
        params = [p for _, p in model.named_parameters()]

        def loss():
            return training_loss(model, x0, ids, sched, 0.9,
                                 np.random.default_rng(7))

        check_gradients(loss, params)


    @staticmethod
    def desk_step_nodes(**overrides) -> int:
        config = RunConfig(**overrides)
        model = build_model(config.backbone_config(), 0, dtype=np.float32)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((2, 1, config.image_side, config.image_side))
        ids = np.ones((2, config.text_tokens), dtype=int)
        loss = training_loss(model, x0, ids, config.noise_schedule(),
                             config.caption_keep_prob, rng)
        return len(T._graph_nodes(loss))

    def test_desk_step_records_at_most_63_graph_nodes(self):
        """Every block family at the desk defaults (depth 4, L=21, D=64): one
        node per dense layer, norm, activation, attention and residual add,
        and no permutes inside the blocks."""
        expected = {"F2": 63, "TRANSFORMER": 63, "A3": 55, "A2": 55, "B2": 55}
        for preset, count in expected.items():
            assert self.desk_step_nodes(preset=preset) == count, preset

    def test_conv_head_adds_at_most_6_graph_nodes(self):
        """The 3x3 conv head gathers its nine windows with one row lookup."""
        plain = self.desk_step_nodes()
        conv = self.desk_step_nodes(head_kind="conv3x3_postprocess")
        assert conv <= plain + 6
        assert conv == 69

    def test_desk_step_graph_keeps_at_most_11_mb(self):
        """The loss of one F2 desk step (B=32, float32) keeps alive only what
        backward reads: the bytes allocated by the forward and still held."""
        config = RunConfig()
        model = build_model(config.backbone_config(), 0, dtype=np.float32)
        rng = np.random.default_rng(0)
        side = config.image_side
        x0 = rng.standard_normal((config.batch_size, 1, side, side)).astype(np.float32)
        ids = np.ones((config.batch_size, config.text_tokens), dtype=int)
        sched = config.noise_schedule()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = training_loss(model, x0, ids, sched, config.caption_keep_prob, rng)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        assert kept <= 11 * 2**20


class TestScore:
    def test_zero_eps_zero_score(self, sched):
        assert np.array_equal(score_from_eps(np.zeros(4), 100, sched), np.zeros(4))

    def test_unit_sigma_negates(self, sched):
        t = int(np.argmin(np.abs(sched.sigmas - 1.0)))
        eps = np.random.default_rng(8).standard_normal(5)
        out = score_from_eps(eps, t, sched)
        assert np.allclose(out, -eps / sched.sigmas[t])

    def test_single_gaussian_consistency(self, sched):
        """For x0 = 0 the marginal at sigma ~ 1 is N(0,1) whose score is -x."""
        t = sched.num_steps - 1
        x_t = np.random.default_rng(9).standard_normal(100)
        eps = x_t / sched.sigmas[t] * sched.sigmas[t]
        assert np.allclose(score_from_eps(eps, t, sched), -x_t / sched.sigmas[t])

    def test_degenerate_sigma_rejected(self, sched):
        sched.sigmas[0] = 0.0
        with pytest.raises(T.UsageError):
            score_from_eps(np.ones(3), 0, sched)
        sched.sigmas[0] = np.sqrt(1 - sched.alpha_bars[0])


class TestGuidance:
    def guided_stub(self):
        def fn(x_t, ids, t):
            shift = float(ids.sum())
            return x_t * (1.0 + 0.1 * shift)
        return StubModel(fn)

    def test_omega_zero_is_conditional_bitwise(self):
        model = self.guided_stub()
        x = Tensor(np.random.default_rng(10).standard_normal((2, 1, 4, 4)))
        ids = np.array([[1, 2], [3, 4]])
        t = np.zeros(2, dtype=int)
        guided = cfg_eps(model, x, ids, t, 0.0)
        cond = model.forward(x, ids, t)
        assert np.array_equal(guided.data, cond.data)

    def test_omega_minus_one_is_unconditional(self):
        model = self.guided_stub()
        x = Tensor(np.random.default_rng(11).standard_normal((2, 1, 4, 4)))
        ids = np.array([[1, 2], [3, 4]])
        t = np.zeros(2, dtype=int)
        guided = cfg_eps(model, x, ids, t, -1.0)
        uncond = model.forward(x, np.zeros_like(ids), t)
        assert np.allclose(guided.data, uncond.data, atol=1e-15)

    @pytest.mark.parametrize("omega", [-1.0, 0.0, 2.0])
    def test_affine_identity(self, omega):
        model = self.guided_stub()
        x = Tensor(np.random.default_rng(12).standard_normal((2, 1, 4, 4)))
        ids = np.array([[1, 2], [3, 4]])
        t = np.zeros(2, dtype=int)
        cond = model.forward(x, ids, t).data
        uncond = model.forward(x, np.zeros_like(ids), t).data
        guided = cfg_eps(model, x, ids, t, omega).data
        assert np.abs(guided - (cond + omega * (cond - uncond))).max() < 1e-12

    def test_tied_branches_invariant_in_omega(self):
        model = StubModel(lambda x_t, i, t: x_t * 2.0)
        x = Tensor(np.random.default_rng(13).standard_normal((1, 1, 4, 4)))
        ids = np.array([[1, 2]])
        t = np.zeros(1, dtype=int)
        outs = [cfg_eps(model, x, ids, t, w).data for w in (-1.0, 0.0, 3.0)]
        assert np.allclose(outs[0], outs[1], atol=1e-15)
        assert np.allclose(outs[1], outs[2], atol=1e-14)

    @pytest.mark.parametrize("omega, forwards", [(0.0, 1), (1.0, 2)])
    def test_omega_zero_skips_unconditional_pass(self, omega, forwards):
        calls = []
        model = StubModel(lambda x_t, i, t: calls.append(i) or x_t * 2.0)
        x = Tensor(np.random.default_rng(14).standard_normal((1, 1, 4, 4)))
        cfg_eps(model, x, np.array([[1, 2]]), np.zeros(1, dtype=int), omega)
        assert len(calls) == forwards


class TestSampler:
    def test_timestep_sequence_shape(self, sched):
        times = SamplerConfig(50).timesteps(sched.num_steps)
        assert len(times) == 50
        assert times[0] == sched.num_steps - 1
        assert times[-1] == 0
        assert np.all(np.diff(times) < 0)

    def test_zero_model_matches_scalar_recurrence(self, sched):
        model = StubModel(lambda x_t, i, t: Tensor(np.zeros(x_t.shape)))
        ids = np.zeros((2, 2), dtype=int)
        out = sample(model, ids, sched, SamplerConfig(50), 1.0, rng_seed=77).data

        # independent scalar recurrence over the same knots
        times = SamplerConfig(50).timesteps(sched.num_steps)
        factor = 1.0
        for i, t in enumerate(times):
            if i + 1 < len(times):
                root_next = float(np.sqrt(sched.alpha_bars[times[i + 1]]))
            else:
                root_next = 1.0
            factor *= root_next / float(np.sqrt(sched.alpha_bars[t]))
        init = np.random.default_rng(77).standard_normal((2, 1, 4, 4))
        assert np.abs(out - init * factor).max() < 1e-10

    def test_one_step_schedule_collapses_to_clean_estimate(self, sched):
        const = 0.25
        model = StubModel(lambda x_t, i, t: Tensor(np.full(x_t.shape, const)))
        ids = np.zeros((1, 2), dtype=int)
        out = sample(model, ids, sched, SamplerConfig(1), 0.0, rng_seed=5).data
        init = np.random.default_rng(5).standard_normal((1, 1, 4, 4))
        t_last = sched.num_steps - 1
        expected = (init - sched.sigmas[t_last] * const) / np.sqrt(sched.alpha_bars[t_last])
        assert np.abs(out - expected).max() < 1e-12

    def test_same_seed_bitwise_identical(self, sched):
        model = desk_model(seed=30, num_timesteps=1000)
        ids = np.array([[1, 2]])
        a = sample(model, ids, sched, SamplerConfig(50), 1.0, rng_seed=9).data
        b = sample(model, ids, sched, SamplerConfig(50), 1.0, rng_seed=9).data
        assert np.array_equal(a, b)

    def test_random_model_stays_finite(self, sched):
        model = desk_model(seed=31)
        rng = np.random.default_rng(32)
        for _, p in model.named_parameters():
            p.data[...] = 0.05 * rng.standard_normal(p.shape)
        out = sample(model, np.array([[1, 2]]), sched, SamplerConfig(50), 1.0, 10)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_non_finite_guidance_scale_refused(self, sched, omega):
        model = StubModel(lambda x_t, i, t: Tensor(np.zeros(x_t.shape)))
        with pytest.raises(T.UsageError, match="guidance scale must be finite"):
            sample(model, np.zeros((1, 2), dtype=int), sched, SamplerConfig(2), omega, 0)

    def test_divergence_reports_step(self, sched):
        model = StubModel(lambda x_t, i, t: x_t * 1e30)
        with pytest.raises(T.NonFiniteError, match=r"^sampling step [1-9]"):
            sample(model, np.zeros((1, 2), dtype=int), sched, SamplerConfig(50), 0.0, 3)

    def test_overflowing_weight_names_the_op(self, sched):
        model = desk_model(seed=34, dtype=np.float32)
        dict(model.named_parameters())["blocks.0.fnn_c.fc1.weight"].data[0, 0] = 3e38
        with pytest.raises(T.NonFiniteError, match=r"^sampling step 0 \(t=999\): matmul "
                           r"produced a non-finite value$") as info:
            sample(model, np.array([[1, 2]]), sched, SamplerConfig(5), 1.0, 0)
        assert isinstance(info.value.__cause__, T.NonFiniteError)
        assert str(info.value.__cause__) == "matmul produced a non-finite value"
        assert T._STATE.checks

    def test_non_finite_state_outside_any_op_names_the_step(self, sched, monkeypatch):
        model = StubModel(lambda x_t, i, t: Tensor(np.zeros(x_t.shape)))
        monkeypatch.setattr(diffusion, "_denoise", lambda model, state, *args: Tensor._wrap(
            np.full(state.shape, np.nan, dtype=state.dtype)))
        label_only = r"^sampling step 0 \(t=999\) produced a non-finite value$"
        with pytest.raises(T.NonFiniteError, match=label_only) as info:
            sample(model, np.zeros((1, 2), dtype=int), sched, SamplerConfig(5), 1.0, 0)
        assert info.value.__cause__ is None
        assert T._STATE.checks

    def test_guided_desk_step_checks_finiteness_once(self, sched, monkeypatch):
        """A guided step at desk scale (F2, L=21, D=64, 30 captions) checks
        the new state, not each op's result: np.isfinite, which every
        full-array check calls, runs once per step in this process, where
        the per-op checks ran it 154 times. That holds serially and with the
        unconditional forward in the helper process."""
        model = build_model(RunConfig().backbone_config(), 35, dtype=np.float32)
        calls, stamps = count_isfinite(monkeypatch), []
        denoise, forks = diffusion._denoise, count_forks(monkeypatch)

        def stamped(*args):
            stamps.append(calls[0])
            return denoise(*args)

        monkeypatch.setattr(diffusion, "_denoise", stamped)
        ids = np.arange(30 * 4).reshape(30, 4) % 8
        for helper in (False, True):
            force_split(monkeypatch, helper)
            stamps.clear()
            sample(model, ids, sched, SamplerConfig(5), 1.0, 0)
            per_step = np.diff(stamps)
            assert (per_step == per_step[0]).all() and per_step[0] <= 1, per_step
        assert len(forks) == hasattr(os, "fork")


def desk_captions(count=30):
    """``count`` captions of the desk vocabulary, none of them null."""
    return np.arange(count * 4).reshape(count, 4) % (dataset.VOCAB_SIZE - 1) + 1


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
SECOND_CORE_FREE = T._second_core_free  # the unpatched rule


def no_child_left():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def poison(model, caption_row=None, null_row=None):
    """Overwrite the embedding rows of the first desk caption's first token
    and of the null token."""
    table = model.text_embed.table.data
    if caption_row is not None:
        table[desk_captions()[0, 0]] = caption_row
    if null_row is not None:
        table[dataset.NULL_ID] = null_row


@needs_fork
class TestTwoCoreGuidance:
    """With a second core free, a guided sample forks one helper process
    that runs the unconditional forwards beside the conditional ones, and
    changes no result; otherwise it runs serially and forks nothing."""

    @staticmethod
    def guided(model, sched, steps=3, omega=1.0):
        """A guided desk sample of 30 captions and the MACs it counted."""
        with T.count_macs() as counter:
            out = sample(model, desk_captions(), sched, SamplerConfig(steps), omega, 0)
        return out.data, counter.total

    @pytest.mark.parametrize("preset", ["F2", "A3", "TRANSFORMER"])
    def test_guided_desk_sample_is_bitwise_the_serial_one(self, sched, monkeypatch, preset):
        model = build_model(RunConfig(preset=preset).backbone_config(), 36,
                            dtype=np.float32)
        forks = count_forks(monkeypatch)
        force_split(monkeypatch, False)
        serial, serial_macs = self.guided(model, sched)
        assert forks == []
        asked = force_split(monkeypatch, True)
        both, macs = self.guided(model, sched)
        assert len(asked) == len(forks) == 1
        assert np.array_equal(both, serial)
        assert macs == serial_macs
        assert no_child_left()

    def test_ops_that_ask_inside_either_forward_run_whole(self, sched, monkeypatch,
                                                          tmp_path):
        """With every float32 op large enough to split, a guided sample
        neither deadlocks nor splits an op, in this process or in its
        helper: the call holds the second core here, and the helper its own.
        Each ``_second_core`` entry, in either process, appends its pid and
        whether it got the core to a log file."""
        monkeypatch.setattr(T, "_SPLIT_MIN_MACS", 1)
        monkeypatch.setattr(T, "_SPLIT_MIN_ELEMENTS", 1)
        model = build_model(RunConfig(preset="A3").backbone_config(), 37, dtype=np.float32)
        force_split(monkeypatch, False)
        serial = self.guided(model, sched)
        force_split(monkeypatch, True)
        forks, second_core, log = count_forks(monkeypatch), T._second_core, tmp_path / "asks"

        @contextmanager
        def logged():
            with second_core() as held:
                with open(log, "a") as out:
                    out.write(f"{os.getpid()} {held}\n")
                yield held

        monkeypatch.setattr(T, "_second_core", logged)
        results = []
        thread = threading.Thread(target=lambda: results.append(self.guided(model, sched)),
                                  daemon=True)
        thread.start()
        thread.join(120)
        assert not thread.is_alive(), "the guided sample hung"
        (both, macs), = results
        entries = [line.split() for line in log.read_text().splitlines()]
        by_pid = {pid: [held for p, held in entries if p == pid] for pid, _ in entries}
        assert set(by_pid) == {str(os.getpid()), str(forks[0])}
        # the sample, and the helper, take the core first; every op then asks in vain
        for held in by_pid.values():
            assert held[0] == "True" and len(held) > 1 and set(held[1:]) == {"False"}
        assert np.array_equal(both, serial[0])
        assert macs == serial[1]

    # (caption row, null row): 3e38 overflows in an add; NaN fails its lookup
    @pytest.mark.parametrize("caption_row, null_row", [
        (3e38, None), (None, 3e38), (3e38, np.nan),
    ], ids=["caption", "null", "caption_then_earlier_null"])
    def test_poisoned_embedding_row_raises_the_serial_error(self, sched, monkeypatch,
                                                            caption_row, null_row):
        """The helper runs unchecked, as the step does; the replayed step
        runs both forwards here, checked, and names the same op as the
        serial one. In the last case the helper's forward meets the bad row
        too, but the conditional forward's error is the one raised."""
        model = build_model(RunConfig().backbone_config(), 38, dtype=np.float32)
        poison(model, caption_row, null_row)

        def raised():
            with pytest.raises(T.NonFiniteError) as info:
                self.guided(model, sched)
            return str(info.value), str(info.value.__cause__)

        forks = count_forks(monkeypatch)
        force_split(monkeypatch, False)
        serial = raised()
        asked = force_split(monkeypatch, True)
        assert raised() == serial == (
            "sampling step 0 (t=999): add produced a non-finite value",
            "add produced a non-finite value")
        assert len(asked) == len(forks) == 1
        assert no_child_left()

    def test_recorded_cfg_eps_runs_serially(self, monkeypatch):
        model = build_model(RunConfig().backbone_config(), 39, dtype=np.float32)
        rng = np.random.default_rng(40)
        x = Tensor(rng.standard_normal((4, 1, 8, 8)).astype(np.float32))
        g = Tensor(rng.standard_normal((4, 1, 8, 8)).astype(np.float32))
        params = [p for _, p in model.named_parameters()]

        def grads():
            for p in params:
                p.zero_grad()
            (cfg_eps(model, x, desk_captions(4), np.full(4, 500), 1.0) * g).sum().backward()
            return [p.grad.copy() for p in params]

        force_split(monkeypatch, False)
        serial = grads()
        asked, forks = force_split(monkeypatch, True), count_forks(monkeypatch)
        recorded = grads()
        assert asked == [] and forks == []
        assert all(np.array_equal(a, b) for a, b in zip(recorded, serial))

    @pytest.mark.parametrize("case", ["no_free_core", "one_cpu", "no_fork", "omega_zero",
                                      "slot_held"])
    def test_serial_fallback_forks_nothing(self, sched, monkeypatch, case):
        model = build_model(RunConfig().backbone_config(), 41, dtype=np.float32)
        omega = 0.0 if case == "omega_zero" else 1.0
        force_split(monkeypatch, False)
        serial = self.guided(model, sched, omega=omega)
        if case == "one_cpu":
            monkeypatch.setattr(T, "_second_core_free", SECOND_CORE_FREE)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            force_split(monkeypatch, case != "no_free_core")
        forks = count_forks(monkeypatch)
        if case == "no_fork":
            monkeypatch.delattr(os, "fork")
        slot = T._worker_slot
        if case == "slot_held":
            slot.acquire()
        try:
            out = self.guided(model, sched, omega=omega)
        finally:
            if case == "slot_held":
                slot.release()
        assert forks == []
        assert np.array_equal(out[0], serial[0]) and out[1] == serial[1]

    def test_a_failed_fork_runs_serially_and_frees_the_second_core(self, sched,
                                                                   monkeypatch):
        """A guided call whose ``os.fork`` fails returns the serial images
        and MACs, leaves no child, and frees the second core: the next large
        float32 op splits again, checking its halves on two threads."""
        model = build_model(RunConfig().backbone_config(), 45, dtype=np.float32)
        force_split(monkeypatch, False)
        serial = self.guided(model, sched)
        force_split(monkeypatch, True)
        tried = []

        def failing_fork():
            tried.append(1)
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", failing_fork)
        out = self.guided(model, sched)
        assert tried == [1]
        assert np.array_equal(out[0], serial[0]) and out[1] == serial[1]
        assert no_child_left()
        checked_on, check = set(), T._check_finite
        monkeypatch.setattr(T, "_check_finite", lambda arr, op: (
            checked_on.add(threading.get_ident()) or check(arr, op)))
        T.gelu(Tensor(np.ones(T._SPLIT_MIN_ELEMENTS, np.float32)))
        assert len(checked_on) == 2

    @pytest.mark.parametrize("failure", ["killed", "raises"])
    def test_a_failed_helper_leaves_the_serial_result(self, sched, monkeypatch, failure):
        """A helper killed, or one whose forward raises, in step 1 is
        dropped; this process runs that unconditional forward and every
        later one itself."""
        model = build_model(RunConfig().backbone_config(), 42, dtype=np.float32)
        force_split(monkeypatch, False)
        serial = self.guided(model, sched)
        force_split(monkeypatch, True)
        forks, forward, parent, conditional = (count_forks(monkeypatch), model.forward,
                                               os.getpid(), [])

        def failing(x_t, text_ids, t):
            if os.getpid() == parent and (text_ids != dataset.NULL_ID).any():
                conditional.append(1)
                if len(conditional) == 2 and failure == "killed":
                    os.kill(forks[0], signal.SIGKILL)
            elif os.getpid() != parent and failure == "raises" and t[0] < 999:
                raise RuntimeError("the helper's forward failed")
            return forward(x_t, text_ids, t)

        monkeypatch.setattr(model, "forward", failing)
        out = self.guided(model, sched)
        assert len(forks) == 1 and len(conditional) == 3
        assert np.array_equal(out[0], serial[0]) and out[1] == serial[1]
        assert no_child_left()

    @pytest.mark.parametrize("case", ["normal", "poisoned", "interrupted"])
    def test_no_process_outlives_sample(self, sched, monkeypatch, case):
        """The helper is reaped when the call returns, when the step's
        replay raises, and when an error in this process's conditional
        forward cuts a step short while the helper runs its forward."""
        model = build_model(RunConfig().backbone_config(), 43, dtype=np.float32)
        force_split(monkeypatch, True)
        forks, forward, conditional = count_forks(monkeypatch), model.forward, []
        if case == "poisoned":
            poison(model, caption_row=3e38)

        def interrupted(x_t, text_ids, t):
            if (text_ids != dataset.NULL_ID).any():
                conditional.append(1)
                if len(conditional) == 2:
                    raise RuntimeError("interrupted")
            return forward(x_t, text_ids, t)

        if case == "interrupted":
            monkeypatch.setattr(model, "forward", interrupted)
        error = {"normal": None, "poisoned": T.NonFiniteError,
                 "interrupted": RuntimeError}[case]
        if error is None:
            self.guided(model, sched)
        else:
            with pytest.raises(error):
                self.guided(model, sched)
        assert len(forks) == 1
        assert no_child_left()

    def test_helper_ends_when_its_parent_is_killed(self, sched, monkeypatch):
        """A process killed mid-way through a guided sample leaves no helper
        behind: the helper closes its copy of the parent's pipe end, so it
        reads EOF and exits. Both processes inherit the write end of a
        probe pipe, which reads EOF once both have exited."""
        model = build_model(RunConfig().backbone_config(), 44, dtype=np.float32)
        force_split(monkeypatch, True)
        started_r, started_w = os.pipe()
        alive_r, alive_w = os.pipe()
        fork = os.fork

        def announced():
            pid = fork()
            if pid:
                os.write(started_w, b"x")
            return pid

        pid = os.fork()
        if pid == 0:
            try:
                os.close(started_r)
                os.close(alive_r)
                monkeypatch.setattr(os, "fork", announced)
                self.guided(model, sched, steps=1000)
            finally:
                os._exit(1)
        os.close(started_w)
        os.close(alive_w)
        try:
            assert select.select([started_r], [], [], 60)[0], "no helper was forked"
            assert os.read(started_r, 1) == b"x"
            time.sleep(0.2)
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(started_r)
        try:
            assert select.select([alive_r], [], [], 10)[0], "the helper outlived its parent"
            assert os.read(alive_r, 1) == b""
        finally:
            os.close(alive_r)
