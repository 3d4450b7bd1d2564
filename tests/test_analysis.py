import numpy as np
import pytest

from lmlp import analysis, pgm, tensor as T
from lmlp.analysis import (
    WeightMap,
    export_map,
    extract_first_stage,
    normalize_unit,
    region_stats,
)
from lmlp.backbone import BackboneConfig, build_model


def model_with(preset="F2", depth=3, text=2):
    cfg = BackboneConfig(image_side=4, in_channels=1, patch=2, embed_dim=8,
                         depth=depth, text_tokens=text, vocab_size=6, preset=preset,
                         mlp_scale=2.0, skip_mode="none")
    return build_model(cfg, 0)


class TestExtraction:
    def test_left_map_is_raw_branch_weight(self):
        model = model_with()
        wmap = extract_first_stage(model, 1, "left")
        assert np.array_equal(wmap.matrix, model.blocks[1].fnn_l.weight.data)
        assert wmap.matrix.shape == (7, 7)  # 4 image + 2 text + 1 time tokens
        assert wmap.side == "left" and wmap.layer_index == 1

    def test_right_map_has_no_boundaries(self):
        wmap = extract_first_stage(model_with(), 0, "right")
        assert wmap.matrix.shape == (8, 8)
        assert wmap.boundaries is None

    def test_boundaries_reference_layout(self):
        cfg = BackboneConfig(image_side=32, in_channels=4, patch=2, embed_dim=512,
                             depth=2, text_tokens=77, vocab_size=8, preset="F2",
                             skip_mode="none")
        model = build_model(cfg, 0)
        wmap = extract_first_stage(model, 0, "left")
        assert wmap.boundaries == (1, 78)
        assert wmap.matrix.shape == (334, 334)

    def test_layer_out_of_range(self):
        with pytest.raises(T.UsageError):
            extract_first_stage(model_with(), 5, "left")

    def test_non_lateralized_block_rejected(self):
        model = model_with(preset="A2")
        with pytest.raises(T.UsageError):
            extract_first_stage(model, 0, "left")

    def test_bad_side_rejected(self):
        with pytest.raises(T.UsageError):
            extract_first_stage(model_with(), 0, "middle")


class TestNormalize:
    def wmap(self, matrix):
        return WeightMap(np.asarray(matrix, dtype=float), "left", 0, (1, 3))

    def test_linear_rescale(self):
        out = normalize_unit(self.wmap([[0.0, 2.0, 4.0]]))
        assert np.array_equal(out.matrix, [[0.0, 0.5, 1.0]])

    def test_already_unit_range_unchanged(self):
        src = [[0.0, 0.25], [0.75, 1.0]]
        assert np.array_equal(normalize_unit(self.wmap(src)).matrix, src)

    def test_constant_matrix_maps_to_half(self):
        out = normalize_unit(self.wmap(np.full((3, 3), 7.0)))
        assert np.array_equal(out.matrix, np.full((3, 3), 0.5))

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent_on_nonconstant(self, seed):
        rng = np.random.default_rng(seed)
        once = normalize_unit(self.wmap(rng.standard_normal((6, 6))))
        twice = normalize_unit(once)
        assert np.abs(twice.matrix - once.matrix).max() < 1e-12

    @pytest.mark.parametrize("scale,shift", [(2.0, 0.0), (0.5, 3.0), (7.25, -1.5)])
    def test_positive_affine_invariance(self, scale, shift):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((5, 5))
        direct = normalize_unit(self.wmap(base)).matrix
        rescaled = normalize_unit(self.wmap(scale * base + shift)).matrix
        assert np.abs(direct - rescaled).max() < 1e-12


class TestRegionStats:
    def test_block_constant_regions(self):
        matrix = np.zeros((6, 6))
        cut = 3
        matrix[:cut, :cut] = 1.0   # text -> text
        matrix[:cut, cut:] = 2.0   # image -> text
        matrix[cut:, :cut] = 3.0   # text -> image
        matrix[cut:, cut:] = 4.0   # image -> image
        stats = region_stats(WeightMap(matrix, "left", 0, (1, cut)))
        assert stats["text_to_text"] == (1.0, 0.0)
        assert stats["image_to_text"] == (2.0, 0.0)
        assert stats["text_to_image"] == (3.0, 0.0)
        assert stats["image_to_image"] == (4.0, 0.0)

    def test_all_zero_map(self):
        stats = region_stats(WeightMap(np.zeros((5, 5)), "left", 0, (1, 2)))
        assert all(pair == (0.0, 0.0) for pair in stats.values())

    def test_missing_boundaries_rejected(self):
        with pytest.raises(T.UsageError):
            region_stats(WeightMap(np.zeros((4, 4)), "right", 0))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bruteforce_submatrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(4, 12))
        cut = int(rng.integers(1, size - 1))
        matrix = rng.standard_normal((size, size))
        stats = region_stats(WeightMap(matrix, "left", 0, (1, cut)))

        def gather(rows, cols):
            listed = []
            for r in rows:
                for c in cols:
                    listed.append(matrix[r, c])
            arr = np.array(listed)
            mean = np.mean(arr)
            return float(mean), float(np.sqrt(np.mean((arr - mean) ** 2)))

        text, image = range(0, cut), range(cut, size)
        assert stats["text_to_text"] == gather(text, text)
        assert stats["image_to_text"] == gather(text, image)
        assert stats["text_to_image"] == gather(image, text)
        assert stats["image_to_image"] == gather(image, image)

    def test_partition_covers_matrix_without_overlap(self):
        matrix = np.ones((7, 7))
        cut = 3
        stats = region_stats(WeightMap(matrix, "left", 0, (1, cut)))
        sizes = [cut * cut, cut * (7 - cut), (7 - cut) * cut, (7 - cut) * (7 - cut)]
        assert sum(sizes) == 49
        assert all(mean == 1.0 for mean, _ in stats.values())


class TestExport:
    def test_pgm_pixel_values(self, tmp_path):
        wmap = WeightMap(np.array([[0.0, 1.0], [1.0, 0.0]]), "left", 0, None)
        path = tmp_path / "map.pgm"
        export_map(wmap, path, "pgm")
        img = pgm.read_pnm(path)
        assert np.array_equal(img, [[0, 255], [255, 0]])

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        wmap = normalize_unit(WeightMap(rng.standard_normal((4, 4)), "left", 0, None))
        path = tmp_path / "map.csv"
        export_map(wmap, path, "csv")
        back = np.loadtxt(path, delimiter=",")
        assert np.abs(back - wmap.matrix).max() < 1e-6

    def test_pgm_quantization_bound(self, tmp_path):
        rng = np.random.default_rng(4)
        wmap = normalize_unit(WeightMap(rng.standard_normal((16, 16)), "left", 0, None))
        path = tmp_path / "map16.pgm"
        export_map(wmap, path, "pgm")
        back = pgm.read_pnm(path).astype(float) / 255.0
        assert np.abs(back - wmap.matrix).max() <= 0.5 / 255.0 + 1e-12

    def test_boundary_marking(self, tmp_path):
        wmap = WeightMap(np.zeros((6, 6)), "left", 2, (1, 3))
        path = tmp_path / "marked.pgm"
        export_map(wmap, path, "pgm", mark_boundaries=True)
        img = pgm.read_pnm(path)
        assert (img[1, :] == 255).all() and (img[:, 3] == 255).all()
        assert img[0, 0] == 0

    def test_unknown_format(self, tmp_path):
        with pytest.raises(T.UsageError):
            export_map(WeightMap(np.zeros((2, 2)), "left", 0, None),
                       tmp_path / "x.bin", "bin")

    def test_unwritable_path_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            export_map(WeightMap(np.zeros((2, 2)), "left", 0, None),
                       tmp_path / "no_such_dir" / "x.csv", "csv")
