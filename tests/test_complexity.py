import numpy as np
import pytest

from lmlp import blocks, tensor as T
from lmlp.complexity import (
    CSV_HEADER,
    cost_table,
    lmlp_cost,
    measure,
    reference_rows,
    transformer_cost,
)

# published reference values at L=334, D=512
REF_TRANSFORMER_MACS = 1.165e9
REF_LMLP_MACS_S52 = 1.143e9
REF_LMLP_MACS_S4 = 0.933e9
REF_LMLP_PARAMS_S4 = 2.74e6
REF_LMLP_MP_S4 = 341.24


def rel(a, b):
    return abs(a / b - 1.0)


class TestAnalyticFormulas:
    def test_transformer_reference_macs(self):
        cost = transformer_cost(334, 512, 4.0)
        assert rel(cost.macs, REF_TRANSFORMER_MACS) < 5e-3  # 3 s.f. agreement

    def test_lmlp_reference_macs(self):
        assert rel(lmlp_cost(334, 512, 5.2).macs, REF_LMLP_MACS_S52) < 5e-3
        assert rel(lmlp_cost(334, 512, 4.0).macs, REF_LMLP_MACS_S4) < 5e-3

    def test_zero_length_sequence(self):
        assert transformer_cost(0, 512, 4.0).macs == 0.0

    def test_transformer_parameter_formula(self):
        assert transformer_cost(0, 512, 4.0).params == 12 * 512 * 512 == 3_145_728

    def test_lmlp_parameter_value(self):
        cost = lmlp_cost(334, 512, 4.0)
        assert cost.params == 10 * 512 * 512 + 334 * 334 == 2_732_996
        assert rel(cost.params, REF_LMLP_PARAMS_S4) < 0.01

    def test_mp_ratio_published_figures(self):
        """The published ratio divides the weight-MAC column by the parameter
        column; reproduce it from those figures and from our own formulas."""
        assert abs(0.935e9 / 2.74e6 - REF_LMLP_MP_S4) < 0.01
        ours = lmlp_cost(334, 512, 4.0).mp_ratio
        assert rel(ours, REF_LMLP_MP_S4) < 5e-3

    def test_mp_ratio_favors_lmlp_at_reference_point(self):
        lm = lmlp_cost(334, 512, 4.0)
        tr = transformer_cost(334, 512, 4.0)
        assert lm.mp_ratio > tr.mp_ratio

    def test_lmlp_cheaper_than_transformer_everywhere(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            seq = int(rng.integers(1, 2000))
            dim = int(rng.integers(1, 2000))
            s = float(rng.uniform(0.1, 10.0))
            gap = transformer_cost(seq, dim, s).macs - lmlp_cost(seq, dim, s).macs
            assert gap == pytest.approx(2 * seq * dim * dim + seq * seq * dim)
            assert gap > 0

    def test_scaling_homogeneity(self):
        base = lmlp_cost(100, 64, 4.0)
        double = lmlp_cost(200, 64, 4.0)
        # L D^2 term doubles, L^2 D term quadruples
        ld2 = (2 + 8) * 100 * 64 * 64
        l2d = 100 * 100 * 64
        assert double.macs == pytest.approx(2 * ld2 + 4 * l2d)
        assert base.macs == pytest.approx(ld2 + l2d)

    def test_bad_scale_rejected(self):
        with pytest.raises(T.UsageError):
            lmlp_cost(10, 10, 0.0)


class TestMeasurement:
    def test_single_linear_macs(self):
        layer = blocks.LinearLayer(8, 8, np.random.default_rng(0))
        x = T.Tensor(np.ones((1, 6, 8)))
        with T.count_macs() as counter:
            layer(x)
        assert counter.total == 6 * 8 * 8

    @pytest.mark.parametrize("seq,dim,scale", [(6, 8, 2.0), (334, 512, 4.0)])
    def test_lmlp_measured_equals_analytic_exactly(self, seq, dim, scale):
        block = blocks.build_block("D2", 0, seq_len=seq, embed_dim=dim, mlp_scale=scale)
        macs, _ = measure(block, seq, dim)
        assert macs == int(lmlp_cost(seq, dim, scale).macs)

    def test_transformer_measured_equals_analytic_exactly(self):
        block = blocks.build_block("TRANSFORMER", 0, seq_len=64, embed_dim=128,
                                   mlp_scale=4.0)
        macs, _ = measure(block, 64, 128)
        assert macs == int(transformer_cost(64, 128, 4.0).macs)

    def test_parameter_gap_is_exactly_biases_and_norm_affines(self):
        seq, dim, scale = 6, 8, 2.0
        block = blocks.build_block("D2", 1, seq_len=seq, embed_dim=dim, mlp_scale=scale)
        _, params = measure(block, seq, dim)
        hidden = blocks.mlp_hidden(dim, scale)
        biases = dim + seq + dim + hidden + dim           # fnn_r, fnn_l, proj, fc1, fc2
        norms = 2 * dim + 2 * seq + 2 * dim               # norm_r, norm_l, norm_2
        analytic = int(lmlp_cost(seq, dim, scale).params)
        assert params - analytic == biases + norms

    def test_fractional_scale_rounding_gap_is_small(self):
        seq, dim, scale = 334, 512, 5.2
        block = blocks.build_block("D2", 2, seq_len=seq, embed_dim=dim, mlp_scale=scale)
        macs, _ = measure(block, seq, dim)
        assert rel(macs, lmlp_cost(seq, dim, scale).macs) < 1e-3

    @pytest.mark.parametrize("preset", blocks.PRESET_NAMES)
    def test_float32_and_float64_blocks_measure_the_same(self, preset):
        counts = [measure(blocks.build_block(preset, 0, seq_len=6, embed_dim=8,
                                             mlp_scale=2.0, dtype=dtype), 6, 8)
                  for dtype in (np.float32, np.float64)]
        assert counts[0] == counts[1]


class TestCostTable:
    def test_reference_rows_markers(self):
        text, csv = cost_table(reference_rows())
        assert "transformer-s4" in text and "lmlp-s5.2" in text
        lines = csv.strip().splitlines()
        assert lines[0] == CSV_HEADER
        macs = [float(line.split(",")[4]) for line in lines[1:]]
        assert rel(macs[0], REF_TRANSFORMER_MACS) < 5e-3
        assert rel(macs[1], REF_LMLP_MACS_S52) < 5e-3
        assert rel(macs[2], REF_LMLP_MACS_S4) < 5e-3

    def test_empty_rows_give_header_only(self):
        text, csv = cost_table([])
        assert csv.strip() == CSV_HEADER
        assert text.splitlines()[0].startswith("name")

    def test_csv_parses_back(self):
        _, csv = cost_table(reference_rows())
        for line in csv.strip().splitlines()[1:]:
            parts = line.split(",")
            assert len(parts) == 7
            float(parts[4]), float(parts[5]), float(parts[6])
