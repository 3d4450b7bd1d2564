import numpy as np
import pytest

from lmlp import dataset, pgm, tensor as T
from lmlp.dataset import (
    NULL_ID,
    ToyDatasetConfig,
    VOCAB,
    VOCAB_SIZE,
    decode_caption,
    encode_caption,
    quadrant_means,
    sample,
    write_dataset,
)


class TestVocabulary:
    def test_size_within_budget(self):
        assert VOCAB_SIZE <= 33  # 32 words plus the null id
        assert VOCAB["<null>"] == NULL_ID == 0

    def test_encode_pads_with_null(self):
        ids = encode_caption(["square", "center", "bright"], 5)
        assert ids.shape == (5,)
        assert ids[3] == NULL_ID and ids[4] == NULL_ID

    def test_encode_unknown_word_names_token(self):
        with pytest.raises(T.UsageError, match="banana"):
            encode_caption(["banana"], 4)

    def test_encode_over_long_caption_names_it(self):
        with pytest.raises(T.UsageError, match="'square center bright' has 3 words"):
            encode_caption(["square", "center", "bright"], 2)

    def test_roundtrip(self):
        words = ["disk", "top-right", "dim"]
        assert decode_caption(encode_caption(words, 4)) == words


class TestGeneration:
    def test_pure_function_of_seed_and_index(self):
        cfg = ToyDatasetConfig(seed=5)
        img_a, ids_a = sample(cfg, 17)
        img_b, ids_b = sample(cfg, 17)
        assert np.array_equal(img_a, img_b)
        assert np.array_equal(ids_a, ids_b)

    def test_different_indices_differ(self):
        cfg = ToyDatasetConfig(seed=5)
        img_a, _ = sample(cfg, 0)
        img_b, _ = sample(cfg, 1)
        assert not np.array_equal(img_a, img_b)

    def test_image_range_and_shape(self):
        cfg = ToyDatasetConfig(side=16, channels=3)
        img, ids = sample(cfg, 3)
        assert img.shape == (3, 16, 16)
        assert ids.shape == (4,)
        assert img.min() >= 0.0 and img.max() <= 1.0

    @pytest.mark.parametrize("side", [8, 16])
    def test_caption_property_holds_for_100_samples(self, side):
        """The named quadrant is the brightest one, sample after sample."""
        cfg = ToyDatasetConfig(side=side, seed=11)
        checked = 0
        index = 0
        while checked < 100:
            img, ids = sample(cfg, index)
            index += 1
            words = decode_caption(ids)
            position = words[1]
            if position == "center":
                continue
            means = quadrant_means(img)
            named = means.pop(position)
            assert named > max(means.values()), f"sample {index - 1} violates caption"
            checked += 1

    def test_intensity_word_separates_brightness(self):
        cfg = ToyDatasetConfig(seed=2)
        bright_max, dim_max = [], []
        for index in range(200):
            img, ids = sample(cfg, index)
            words = decode_caption(ids)
            (bright_max if words[2] == "bright" else dim_max).append(img.max())
        assert min(bright_max) > max(dim_max)

    def test_invalid_side_rejected(self):
        with pytest.raises(T.UsageError):
            sample(ToyDatasetConfig(side=12), 0)


def quantize(values):
    return np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)


class TestFiles:
    def test_write_is_bitwise_reproducible(self, tmp_path):
        cfg = ToyDatasetConfig(seed=9)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        write_dataset(cfg, 5, a_dir)
        write_dataset(cfg, 5, b_dir)
        for name in sorted(p.name for p in a_dir.iterdir()):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_zero_count_header_only(self, tmp_path):
        write_dataset(ToyDatasetConfig(), 0, tmp_path / "empty")
        content = (tmp_path / "empty" / "captions.tsv").read_text()
        assert content == "index\ttoken_ids\n"

    def test_layout(self, tmp_path):
        write_dataset(ToyDatasetConfig(seed=1), 3, tmp_path / "d")
        files = sorted(p.name for p in (tmp_path / "d").iterdir())
        assert files == ["00000.pgm", "00001.pgm", "00002.pgm", "captions.tsv"]
        lines = (tmp_path / "d" / "captions.tsv").read_text().splitlines()
        assert lines[0] == "index\ttoken_ids"
        assert len(lines) == 4
        index, ids = lines[1].split("\t")
        assert index == "0"
        assert len(ids.split()) == 4

    def test_three_channel_writes_ppm(self, tmp_path):
        cfg = ToyDatasetConfig(channels=3, seed=2)
        write_dataset(cfg, 1, tmp_path / "rgb")
        image, _ = sample(cfg, 0)
        back = pgm.read_pnm(tmp_path / "rgb" / "00000.ppm")
        assert np.array_equal(back, quantize(np.moveaxis(image, 0, -1)))

    def test_two_channels_write_channel_zero_as_pgm(self, tmp_path):
        cfg = ToyDatasetConfig(channels=2, seed=4)
        write_dataset(cfg, 1, tmp_path / "two")
        image, _ = sample(cfg, 0)
        back = pgm.read_pnm(tmp_path / "two" / "00000.pgm")
        assert np.array_equal(back, quantize(image[0]))

    def test_generate_arrays_matches_samples(self):
        cfg = ToyDatasetConfig(seed=3)
        images, captions = dataset.generate_arrays(cfg, 4)
        img2, ids2 = sample(cfg, 2)
        assert np.array_equal(images[2], img2)
        assert np.array_equal(captions[2], ids2)
