import numpy as np
import pytest

from helpers import check_gradients
from lmlp import blocks, tensor as T

LMLP_PRESETS = ["A1", "B1", "B2", "B3", "C1", "D1", "D2", "E1", "E2", "F1", "F2", "F2-Deep"]
ALL_PRESETS = LMLP_PRESETS + ["A2", "A3", "transformer"]


def tokens(batch=2, seq=6, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.standard_normal((batch, seq, dim)))


def small_block(preset, seed=0, seq=6, dim=8, scale=2.0):
    return blocks.build_block(preset, seed, seq_len=seq, embed_dim=dim, mlp_scale=scale)


def randomize(block, seed=123):
    rng = np.random.default_rng(seed)
    for _, p in block.named_parameters():
        p.data[...] = 0.2 * rng.standard_normal(p.shape)


def mask_loop_trunc_normal(rng, shape, std):
    """Reference: redraw under a boolean mask that rescans the whole array."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > blocks.INIT_CLIP
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > blocks.INIT_CLIP
    return std * out


class TestTruncNormal:
    @pytest.mark.parametrize("shape", [(0,), (1,), (7, 3), (3, 4, 5), (2048, 512)])
    @pytest.mark.parametrize("std", [blocks.INIT_STD, 1.0])
    def test_bitwise_equal_to_mask_loop(self, shape, std):
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            out = blocks.trunc_normal(rng, shape, std)
            ref = mask_loop_trunc_normal(ref_rng, shape, std)
            assert out.shape == ref.shape and np.array_equal(out, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_every_draw_within_two_sigma(self):
        out = blocks.trunc_normal(np.random.default_rng(0), (512, 512), 0.5)
        assert np.abs(out).max() <= 1.0


class TestConstruction:
    def test_parameters_are_named_by_attribute_path_in_assignment_order(self):
        class Leaf(blocks.Module):
            def __init__(self):
                self.w = T.Tensor(np.ones(2), requires_grad=True)
                self.const = T.Tensor(np.ones(2))
                self.absent = None

        class Root(blocks.Module):
            def __init__(self):
                self.z = Leaf()
                self.items = [Leaf(), Leaf()]
                self.a = T.Tensor(np.zeros(1), requires_grad=True)

        names = [name for name, _ in Root().named_parameters("m.")]
        assert names == ["m.z.w", "m.items.0.w", "m.items.1.w", "m.a"]

    def test_same_seed_bitwise_identical(self):
        a = small_block("D2", seed=7)
        b = small_block("D2", seed=7)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(pa.data, pb.data)

    def test_preset_a2_is_mixer(self):
        assert isinstance(small_block("A2"), blocks.MixerBlock)

    def test_preset_a3_is_gmlp(self):
        assert isinstance(small_block("A3"), blocks.GmlpBlock)

    def test_glu_without_projection_rejected(self):
        with pytest.raises(blocks.UnsupportedBlockError):
            blocks.BlockConfig(seq_len=6, embed_dim=8, merge_op="glu",
                               merge_projection="none", second_stage="none")

    def test_f2_first_stage_parameter_count(self):
        """Branch linears plus merge projection: 2*D^2 + L^2 weights (+ biases)."""
        seq, dim = 334, 512
        block = blocks.build_block("F2", 0, seq_len=seq, embed_dim=dim, mlp_scale=5.2)
        weights = (block.fnn_r.weight.size
                   + block.fnn_l.weight.size
                   + block.merge_proj.weight.size)
        assert weights == 2 * dim * dim + seq * seq
        biases = (block.fnn_r.bias.size
                  + block.fnn_l.bias.size
                  + block.merge_proj.bias.size)
        assert biases == 2 * dim + seq

    def test_mlp_hidden_rounds_fractional_scale(self):
        assert blocks.mlp_hidden(512, 5.2) == round(5.2 * 512)
        assert blocks.mlp_hidden(1, 0.1) == 1

    @pytest.mark.parametrize("alias", ["F1", "F2", "F2-Deep", "f2_deep"])
    def test_skip_presets_are_d2_at_block_level(self, alias):
        assert blocks.preset_config(alias, 6, 8) == blocks.preset_config("D2", 6, 8)

    def test_unknown_preset_rejected(self):
        with pytest.raises(blocks.UnsupportedBlockError):
            small_block("Z9")


class TestShapeAndIdentity:
    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_shape_preserved(self, preset):
        block = small_block(preset, seed=3)
        x = tokens(seed=4)
        assert block(x).shape == x.shape

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_zero_initialized_block_is_identity(self, preset):
        block = small_block(preset, seed=5)
        blocks.zero_parameters(block)
        x = tokens(seed=6)
        assert np.array_equal(block(x).data, x.data)

    @pytest.mark.parametrize("preset", LMLP_PRESETS)
    def test_fresh_block_with_zero_merge_projection_is_identity(self, preset):
        """Fresh blocks start with a zero merge projection (and zero second-stage
        output layer), so every preset that has the projection is an identity map."""
        block = small_block(preset, seed=8)
        x = tokens(seed=9)
        out = block(x)
        if block.merge_proj is not None:
            assert np.array_equal(out.data, x.data)
        else:  # B3: no projection to silence the random branches
            assert not np.array_equal(out.data, x.data)

    def test_extent_mismatch_rejected(self):
        block = small_block("D2")
        with pytest.raises(T.ShapeError):
            block(tokens(seq=5))


class TestForwardSemantics:
    def test_merge_ops_differ(self):
        x = tokens(seed=11)
        outs = {}
        for preset in ("D1", "D2"):
            block = small_block(preset, seed=12)
            randomize(block, seed=13)
            outs[preset] = block(x).data
        assert not np.allclose(outs["D1"], outs["D2"])

    def test_first_stage_reduces_to_residual_of_norm(self):
        """fnn_l zero, fnn_r identity, projection identity: h = x + norm_r(x)."""
        block = small_block("D2", seed=14)
        dim = 8
        block.fnn_l.weight.data[...] = 0.0
        block.fnn_l.bias.data[...] = 0.0
        block.fnn_r.weight.data[...] = np.eye(dim)
        block.fnn_r.bias.data[...] = 0.0
        block.merge_proj.weight.data[...] = np.eye(dim)
        block.merge_proj.bias.data[...] = 0.0
        xt = tokens(seed=15)
        out = block(xt)
        normed = T.layer_norm(xt, block.norm_r.gain, block.norm_r.bias)
        assert np.allclose(out.data, (xt + normed).data, atol=1e-12)

    def test_token_mixing_reaches_other_positions(self):
        block = small_block("D2", seed=16)
        randomize(block, seed=17)
        x = tokens(batch=1, seed=18)
        base = block(x).data.copy()
        bumped = x.data.copy()
        bumped[0, 3, :] += 1.0
        moved = block(T.Tensor(bumped)).data
        assert not np.allclose(base[0, 0], moved[0, 0])

    def test_left_gelu_only_on_permuted_branch(self):
        """E2 vs D2 differ exactly by the left-branch GELU."""
        d2 = small_block("D2", seed=19)
        e2 = small_block("E2", seed=19)
        for (_, p), (_, q) in zip(d2.named_parameters(), e2.named_parameters()):
            q.data[...] = p.data
        randomize(d2, seed=20)
        for (_, p), (_, q) in zip(d2.named_parameters(), e2.named_parameters()):
            q.data[...] = p.data
        x = tokens(seed=21)
        assert not np.allclose(d2(x).data, e2(x).data)

    def test_attention_rows_sum_to_one(self):
        block = small_block("transformer", seed=22)
        randomize(block, seed=23)
        normed = block.norm_1(tokens(seed=24))
        ones = T.Tensor(np.ones(normed.shape))
        # every output is a weighted sum of ones, so it is one when the rows sum to one
        out = T.attention(block.w_q(normed), block.w_k(normed), ones, block.heads)
        assert np.abs(out.data - 1.0).max() < 1e-12

    def test_second_stage_skip_enters_before_second_norm(self):
        block = small_block("D2", seed=25)
        randomize(block, seed=26)
        x = tokens(seed=27)
        skip = tokens(seed=28)
        with_skip = block(x, skip=skip).data
        zero_skip = block(x, skip=T.Tensor(np.zeros(x.shape))).data
        plain = block(x).data
        assert np.array_equal(zero_skip, plain)
        assert not np.allclose(with_skip, plain)

    @pytest.mark.parametrize("preset,second_out", [
        ("D2", "fnn_c.fc2."), ("A2", "channel_mlp.fc2."), ("transformer", "mlp.fc2."),
        ("A3", None),
    ])
    def test_skip_joins_where_second_stage_begins(self, preset, second_out):
        """With the second stage's output layer zeroed, the skip reaches the
        output unchanged; gMLP has no second stage and adds it after its residual."""
        block = small_block(preset, seed=29)
        randomize(block, seed=30)
        for name, p in block.named_parameters():
            if second_out and name.startswith(second_out):
                p.data[...] = 0.0
        x, skip = tokens(seed=31), tokens(seed=32)
        assert np.array_equal(block(x, skip=skip).data, (block(x) + skip).data)


# Reference: the same blocks written with permutes. Token-axis layers run on
# the permuted tensor and are permuted back, and every linear layer maps the
# trailing extent.

def permute_linear(layer, x):
    return T.matmul(x, layer.weight, layer.bias, -1)


def permute_norm(norm, x):
    return T.layer_norm(x, norm.gain, norm.bias)


def permute_mlp(mlp, x):
    return permute_linear(mlp.fc2, T.gelu(permute_linear(mlp.fc1, x)))


def along_tokens(fn, x):
    return T.permute(fn(T.permute(x, (0, 2, 1))), (0, 2, 1))


def permute_lmlp(block, x):
    def branch(net, norm, x):
        out = permute_linear(net, permute_norm(norm, x))
        return T.gelu(out) if net.with_gelu else out

    r = branch(block.fnn_r, block.norm_r, x)
    left = along_tokens(lambda t: branch(block.fnn_l, block.norm_l, t), x)
    merged = {"sum": lambda: left + r, "product": lambda: left * r,
              "glu": lambda: left * T.sigmoid(r)}[block.cfg.merge_op]()
    h = x + (permute_linear(block.merge_proj, merged) if block.merge_proj else merged)
    if block.fnn_c is None:
        return h
    return h + permute_mlp(block.fnn_c, permute_norm(block.norm_2, h))


def permute_mixer(block, x):
    h = x + along_tokens(lambda t: permute_mlp(block.token_mlp, t),
                         permute_norm(block.norm_1, x))
    return h + permute_mlp(block.channel_mlp, permute_norm(block.norm_2, h))


def permute_gmlp(block, x):
    expanded = T.gelu(permute_linear(block.proj_in, permute_norm(block.norm_in, x)))
    u = T.narrow(expanded, -1, 0, block.hidden)
    v = permute_norm(block.norm_gate, T.narrow(expanded, -1, block.hidden, block.hidden))
    v = along_tokens(lambda t: permute_linear(block.spatial, t), v)
    return x + permute_linear(block.proj_out, u * v)


class TestPermuteFormulation:
    @pytest.mark.parametrize("preset, reference", [(p, permute_lmlp) for p in LMLP_PRESETS]
                             + [("A2", permute_mixer), ("A3", permute_gmlp)])
    def test_forward_equals_permute_formulation(self, preset, reference):
        block = small_block(preset, seed=50)
        randomize(block, seed=51)
        x = tokens(seed=52)
        expected = reference(block, x).data
        assert np.allclose(block(x).data, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("preset", ["F2", "A2", "A3", "TRANSFORMER"])
    def test_blocks_record_no_permute(self, preset, monkeypatch):
        def refuse(*args):
            raise AssertionError("permute called")

        block = small_block(preset, seed=53)
        monkeypatch.setattr(T, "permute", refuse)
        block(tokens(seed=54))


class TestGradients:
    @pytest.mark.parametrize("preset", ALL_PRESETS)
    def test_parameter_gradients_match_finite_differences(self, preset):
        block = small_block(preset, seed=40)
        randomize(block, seed=41)
        x = tokens(seed=42)
        params = [p for _, p in block.named_parameters()]
        check_gradients(lambda: block(x).sum() + (block(x) * block(x)).mean(), params)

    def test_d2_gradients_through_sum_of_output(self):
        block = small_block("D2", seed=43)
        randomize(block, seed=44)
        x = tokens(seed=45)
        params = [p for _, p in block.named_parameters()]
        check_gradients(lambda: block(x).sum(), params)
