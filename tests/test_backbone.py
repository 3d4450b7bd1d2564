import numpy as np
import pytest

from helpers import check_gradients
from lmlp import backbone, blocks, tensor as T
from lmlp.backbone import BackboneConfig, build_model, patchify, sinusoidal_encoding, unpatchify


def desk_config(**overrides):
    base = dict(image_side=4, in_channels=1, patch=2, embed_dim=8, depth=4,
                text_tokens=2, vocab_size=6, preset="F2", mlp_scale=2.0,
                skip_mode="second_stage", num_timesteps=50)
    base.update(overrides)
    return BackboneConfig(**base)


def randomize(model, seed=99):
    rng = np.random.default_rng(seed)
    for _, p in model.named_parameters():
        p.data[...] = 0.2 * rng.standard_normal(p.shape)


class TestPatchify:
    def test_single_patch_layout(self):
        img = T.Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = patchify(img, 2)
        assert out.shape == (1, 1, 4)
        assert np.array_equal(out.data[0, 0], [1.0, 2.0, 3.0, 4.0])

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        img = T.Tensor(rng.standard_normal((2, 4, 8, 8)))
        back = unpatchify(patchify(img, 2), 8, 4, 2)
        assert np.array_equal(back.data, img.data)

    def test_row_major_patch_order(self):
        img = np.arange(16.0).reshape(1, 1, 4, 4)
        out = patchify(T.Tensor(img), 2)
        # second token is the top-right patch
        assert np.array_equal(out.data[0, 1], [2.0, 3.0, 6.0, 7.0])

    def test_indivisible_extent_rejected(self):
        with pytest.raises(T.ShapeError):
            patchify(T.Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_reference_token_count(self):
        cfg = BackboneConfig(image_side=32, in_channels=4, patch=2, embed_dim=512,
                             depth=16, text_tokens=77, vocab_size=8)
        assert cfg.seq_len == (32 // 2) ** 2 + 77 + 1 == 334


class TestTimeEmbedding:
    def test_zero_step_structure(self):
        enc = sinusoidal_encoding(np.array([0]), 8)
        assert np.array_equal(enc[0], [0, 0, 0, 0, 1, 1, 1, 1])

    def test_distinct_steps_distinct_encodings(self):
        model = build_model(desk_config(), 0)
        a = model.embed_timestep(np.array([1])).data.reshape(-1)
        b = model.embed_timestep(np.array([7])).data.reshape(-1)
        cosine = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cosine < 1.0 - 1e-9

    def test_deterministic(self):
        model = build_model(desk_config(), 0)
        first = model.embed_timestep(np.array([3])).data
        second = model.embed_timestep(np.array([3])).data
        assert np.array_equal(first, second)

    def test_out_of_range_rejected(self):
        model = build_model(desk_config(), 0)
        with pytest.raises(T.UsageError):
            model.embed_timestep(np.array([50]))
        with pytest.raises(T.UsageError):
            model.embed_timestep(np.array([-1]))


class TestTokenAssembly:
    def test_ranges(self):
        """[time | text | image]: one time token, text_tokens text tokens, then the image."""
        model = build_model(desk_config(), 1)
        img_tokens = T.Tensor(np.random.default_rng(6).standard_normal((1, 4, 8)))
        ids = np.array([[1, 2]])
        seq = model.assemble_tokens(img_tokens, ids, np.array([0]))
        assert seq.shape == (1, 7, 8)
        assert np.array_equal(seq.data[:, 0:1], model.embed_timestep(np.array([0])).data)
        assert np.array_equal(seq.data[:, 1:3], model.embed_text(ids).data)
        assert np.array_equal(seq.data[:, 3:7], img_tokens.data)

    def test_null_ids_repeat_null_row(self):
        model = build_model(desk_config(), 2)
        emb = model.embed_text(np.zeros((1, 2), dtype=int))
        assert np.array_equal(emb.data[0, 0], model.text_embed.table.data[0])
        assert np.array_equal(emb.data[0, 1], model.text_embed.table.data[0])

    def test_unknown_id_rejected(self):
        model = build_model(desk_config(), 3)
        with pytest.raises(T.UsageError):
            model.embed_text(np.full((1, 2), 99))

    def test_bitwise_repeatable(self):
        model = build_model(desk_config(), 4)
        img_tokens = T.Tensor(np.random.default_rng(5).standard_normal((2, 4, 8)))
        ids = np.array([[1, 2], [0, 3]])
        t = np.array([4, 9])
        a = model.assemble_tokens(img_tokens, ids, t).data
        b = model.assemble_tokens(img_tokens, ids, t).data
        assert np.array_equal(a, b)


class TestForward:
    def batch(self, cfg, seed=0):
        rng = np.random.default_rng(seed)
        x = T.Tensor(rng.standard_normal((2, cfg.in_channels, cfg.image_side, cfg.image_side)))
        ids = rng.integers(0, cfg.vocab_size, size=(2, cfg.text_tokens))
        t = rng.integers(0, cfg.num_timesteps, size=2)
        return x, ids, t

    def test_zero_head_depth_one_outputs_zero(self):
        cfg = desk_config(depth=1, skip_mode="none")
        model = build_model(cfg, 6)
        blocks.zero_parameters(model.blocks[0])
        model.head.weight.data[...] = 0.0
        model.head.bias.data[...] = 0.0
        x, ids, t = self.batch(cfg)
        assert np.array_equal(model(x, ids, t).data, np.zeros(x.shape))

    def test_zero_skip_equals_no_skip(self):
        cfg = desk_config()
        skipped = build_model(cfg, 7)
        plain = build_model(desk_config(skip_mode="none"), 7)
        for (_, p), (_, q) in zip(skipped.named_parameters(), plain.named_parameters()):
            q.data[...] = p.data
        randomize(skipped, seed=8)
        for (_, p), (_, q) in zip(skipped.named_parameters(), plain.named_parameters()):
            q.data[...] = p.data
        x, ids, t = self.batch(cfg, seed=9)

        # Zero every encoder output flowing across a skip: run the skipped model
        # but patch the stored tensors to zero via monkey wrap.
        stored_zero = []
        original_forwards = [b.forward for b in skipped.blocks]
        half = cfg.depth // 2
        for i, block in enumerate(skipped.blocks):
            if i >= cfg.depth - half:
                def wrapped(xx, skip=None, _f=original_forwards[i]):
                    if skip is not None:
                        skip = T.Tensor(np.zeros(skip.shape))
                        stored_zero.append(True)
                    return _f(xx, skip=skip)
                block.forward = wrapped
                block.__call__ = wrapped
        out_zeroskip = skipped.run_blocks(plain_tokens(skipped, x, ids, t)).data
        out_plain = plain.run_blocks(plain_tokens(plain, x, ids, t)).data
        assert stored_zero, "no skip was exercised"
        assert np.allclose(out_zeroskip, out_plain, atol=1e-12)

    def test_shape_preserved_and_finite(self):
        cfg = desk_config()
        model = build_model(cfg, 10)
        x, ids, t = self.batch(cfg, seed=11)
        out = model(x, ids, t)
        assert out.shape == x.shape
        assert np.isfinite(out.data).all()

    def test_scalar_timestep_broadcasts_over_batch(self):
        cfg = desk_config()
        model = build_model(cfg, 10)
        x, ids, t = self.batch(cfg, seed=11)
        shared = model(x, ids, 7).data
        explicit = model(x, ids, np.array([7, 7])).data
        assert np.array_equal(shared, explicit)

    def test_text_conditioning_reaches_image_output(self):
        cfg = desk_config()
        model = build_model(cfg, 12)
        randomize(model, seed=13)
        x, _, t = self.batch(cfg, seed=14)
        a = model(x, np.array([[1, 2], [1, 2]]), t).data
        b = model(x, np.array([[3, 4], [3, 4]]), t).data
        assert not np.allclose(a, b)

    def test_middle_block_of_odd_depth_gets_no_skip(self):
        cfg = desk_config(depth=5)
        model = build_model(cfg, 15)
        seen = {}
        for i, block in enumerate(model.blocks):
            def wrapped(xx, skip=None, _f=block.forward, _i=i):
                seen[_i] = skip is not None
                return _f(xx, skip=skip)
            block.forward = wrapped
            block.__call__ = wrapped
        x, ids, t = self.batch(cfg, seed=16)
        model(x, ids, t)
        assert seen == {0: False, 1: False, 2: False, 3: True, 4: True}

    def test_second_stage_skip_reaches_mirrored_block(self):
        cfg = desk_config()
        model = build_model(cfg, 35)
        randomize(model, seed=36)
        x, ids, t = self.batch(cfg, seed=37)
        tokens = plain_tokens(model, x, ids, t)
        b = model.blocks
        e0 = b[0](tokens)
        e1 = b[1](e0)
        expect = b[3](b[2](e1, skip=e1), skip=e0)
        assert np.array_equal(model.run_blocks(tokens).data, expect.data)

    def test_first_stage_skip_equals_shifted_input(self):
        cfg = desk_config(skip_mode="first_stage")
        model = build_model(cfg, 38)
        randomize(model, seed=39)
        x, ids, t = self.batch(cfg, seed=40)
        tokens = plain_tokens(model, x, ids, t)
        b = model.blocks
        e0 = b[0](tokens)
        e1 = b[1](e0)
        expect = b[3](b[2](e1 + e1) + e0)
        assert np.array_equal(model.run_blocks(tokens).data, expect.data)

    def test_skip_with_depth_one_rejected(self):
        with pytest.raises(T.UsageError):
            desk_config(depth=1)

    def test_blocks_never_reorder_tokens(self):
        """With every block zeroed (identity maps) the assembled sequence passes
        through the stack untouched, so the modality ranges stay valid."""
        cfg = desk_config(skip_mode="none")
        model = build_model(cfg, 33)
        for block in model.blocks:
            blocks.zero_parameters(block)
        x, ids, t = self.batch(cfg, seed=34)
        tokens = plain_tokens(model, x, ids, t)
        out = model.run_blocks(tokens)
        assert np.array_equal(out.data, tokens.data)

    def test_gradient_check_full_model(self):
        cfg = desk_config()
        model = build_model(cfg, 17)
        randomize(model, seed=18)
        x, ids, t = self.batch(cfg, seed=19)
        params = [p for _, p in model.named_parameters()]

        def loss():
            out = model(x, ids, t)
            return (out * out).mean()

        check_gradients(loss, params)


class TestOutputHead:
    def test_zero_weight_head_gives_zero_image(self):
        cfg = desk_config()
        model = build_model(cfg, 20)
        model.head.weight.data[...] = 0.0
        model.head.bias.data[...] = 0.0
        out = model.output_head(T.Tensor(np.ones((2, cfg.seq_len, 8))))
        assert np.array_equal(out.data, np.zeros((2, 1, 4, 4)))

    def test_head_matches_per_patch_matmul_oracle(self):
        cfg = desk_config()
        model = build_model(cfg, 21)
        randomize(model, seed=22)
        rng = np.random.default_rng(23)
        tokens_np = rng.standard_normal((2, cfg.seq_len, cfg.embed_dim))
        out = model.output_head(T.Tensor(tokens_np)).data

        # brute force: per image token, multiply by the head matrix and place
        # the p*p pixels into the right patch position
        w, b = model.head.weight.data, model.head.bias.data
        side, p = cfg.image_side, cfg.patch
        rows = side // p
        expect = np.zeros((2, cfg.in_channels, side, side))
        for batch in range(2):
            for token in range(cfg.image_tokens):
                vec = tokens_np[batch, 1 + cfg.text_tokens + token] @ w.T + b
                r, c = divmod(token, rows)
                block = vec.reshape(cfg.in_channels, p, p)
                expect[batch, :, r * p:(r + 1) * p, c * p:(c + 1) * p] = block
        assert np.allclose(out, expect, atol=1e-12)

    def test_conv_head_preserves_shape(self):
        cfg = desk_config(head_kind="conv3x3_postprocess", in_channels=2)
        model = build_model(cfg, 24)
        rng = np.random.default_rng(25)
        x = T.Tensor(rng.standard_normal((2, 2, 4, 4)))
        ids = np.zeros((2, 2), dtype=int)
        t = np.array([0, 1])
        assert model(x, ids, t).shape == (2, 2, 4, 4)

    def test_conv_head_matches_zero_padded_convolution(self):
        cfg = desk_config(head_kind="conv3x3_postprocess", in_channels=2)
        model = build_model(cfg, 29)
        randomize(model, seed=30)
        img = np.random.default_rng(31).standard_normal((2, 2, 4, 4))
        out = model._conv3x3(T.Tensor(img)).data
        padded = np.pad(img, ((0, 0), (0, 0), (1, 1), (1, 1)))
        # weight column (3 * di + dj) * C + c reads channel c at offset (di - 1, dj - 1)
        w = model.head_conv.weight.data.reshape(2, 3, 3, 2)
        expect = np.zeros_like(img)
        for i in range(4):
            for j in range(4):
                window = padded[:, :, i:i + 3, j:j + 3]
                expect[:, :, i, j] = np.einsum("bcxy,oxyc->bo", window, w)
        expect += model.head_conv.bias.data[None, :, None, None]
        assert np.allclose(out, expect, atol=1e-12)

    def test_conv_head_input_gradient(self):
        cfg = desk_config(head_kind="conv3x3_postprocess", in_channels=2)
        model = build_model(cfg, 32)
        randomize(model, seed=33)
        img = T.Tensor(np.random.default_rng(34).standard_normal((1, 2, 4, 4)),
                       requires_grad=True)
        params = [img, model.head_conv.weight, model.head_conv.bias]
        check_gradients(lambda: (model._conv3x3(img) * model._conv3x3(img)).sum(), params)

    def test_conv_head_gradients(self):
        cfg = desk_config(head_kind="conv3x3_postprocess", depth=2)
        model = build_model(cfg, 26)
        randomize(model, seed=27)
        rng = np.random.default_rng(28)
        x = T.Tensor(rng.standard_normal((1, 1, 4, 4)))
        ids = np.zeros((1, 2), dtype=int)
        t = np.array([3])
        params = [model.head_conv.weight, model.head_conv.bias]
        check_gradients(lambda: (model(x, ids, t) * model(x, ids, t)).mean(), params)


def plain_tokens(model, x, ids, t):
    img_tokens = model.patch_embed(backbone.patchify(x, model.config.patch))
    return model.assemble_tokens(img_tokens, ids, t)
