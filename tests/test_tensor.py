import math
import os
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from scipy import special

from helpers import check_gradients, fd_gradient, force_split, max_rel_error
from lmlp import tensor as T


def rand(shape, seed, requires_grad=False):
    rng = np.random.default_rng(seed)
    return T.Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def f32(values, requires_grad=False):
    return T.Tensor(np.asarray(values, dtype=np.float32), requires_grad=requires_grad)


def twice_big(a):
    """A loss whose two gradients of ``a`` are finite but sum past float32's range."""
    return (a * f32([3e38])).sum() + (a * f32([3e38])).sum()


def swap_last_two(x):
    return T.permute(x, tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2))


class TestConstruction:
    def test_shape_data_consistency(self):
        x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert x.shape == (2, 2)
        assert x.size == 4
        assert x.data.flags["C_CONTIGUOUS"]

    def test_default_dtype_is_64_bit(self):
        assert T.Tensor([1, 2, 3]).dtype == np.float64

    def test_float32_is_preserved(self):
        x = T.Tensor(np.ones(3, dtype=np.float32))
        assert x.dtype == np.float32
        assert (x + 1.0).dtype == np.float32
        assert T.gelu(x).dtype == np.float32

    def test_non_finite_input_rejected(self):
        with pytest.raises(T.NonFiniteError):
            T.Tensor([1.0, float("nan")])


class TestPermute:
    def test_two_by_two(self):
        x = T.Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        out = T.permute(x, (0, 2, 1))
        assert np.array_equal(out.data, [[[1.0, 3.0], [2.0, 4.0]]])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_involution(self, seed):
        x = rand((2, 3, 5), seed)
        twice = T.permute(T.permute(x, (0, 2, 1)), (0, 2, 1))
        assert np.array_equal(twice.data, x.data)

    def test_gradient_of_sum_is_ones(self):
        x = rand((2, 3, 4), 0, requires_grad=True)
        T.permute(x, (2, 0, 1)).sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3, 4)))

    def test_rank_one_rejected(self):
        with pytest.raises(T.ShapeError):
            T.permute(T.Tensor([1.0, 2.0]), (1, 0))


def dense_params(out_dim, in_dim, seed):
    rng = np.random.default_rng(seed)
    return (T.Tensor(rng.standard_normal((out_dim, in_dim)), requires_grad=True),
            T.Tensor(rng.standard_normal(out_dim), requires_grad=True))


class TestDense:
    SHAPES = [(5, 3), (2, 5, 3), (2, 3, 5, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_channel_axis_is_x_times_w_transposed_plus_b(self, shape):
        x = rand(shape, 60)
        w, b = dense_params(4, shape[-1], 61)
        out = T.matmul(x, w, b, axis=-1)
        assert np.allclose(out.data, x.data @ w.data.T + b.data, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_token_axis_is_w_times_x_plus_b(self, shape):
        x = rand(shape, 62)
        w, b = dense_params(4, shape[-2], 63)
        out = T.matmul(x, w, b, axis=-2)
        assert np.allclose(out.data, w.data @ x.data + b.data[:, None], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gradients_against_finite_differences(self, shape, axis):
        x = rand(shape, 64, requires_grad=True)
        w, b = dense_params(2, shape[axis], 65)
        y = T.Tensor(np.random.default_rng(66).standard_normal(
            T.matmul(x, w, b, axis).shape))
        err = check_gradients(lambda: (T.matmul(x, w, b, axis) * y).sum()
                              + (T.matmul(x, w, b, axis) * T.matmul(x, w, b, axis)).mean(),
                              [x, w, b], tol=1e-6)
        assert err <= 1e-6

    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_macs_are_rows_times_in_times_out(self, shape, axis):
        x = rand(shape, 67)
        w, b = dense_params(7, shape[axis], 68)
        rows = x.size // shape[axis]
        with T.count_macs() as counter:
            T.matmul(x, w, b, axis)
        assert counter.total == rows * shape[axis] * 7

    def test_one_graph_node_per_call(self):
        x = rand((2, 5, 3), 69)
        w, b = dense_params(4, 3, 70)
        assert len(T._graph_nodes(T.matmul(x, w, b, axis=-1))) == 1

    @pytest.mark.parametrize("axis", [-1, -2])
    @pytest.mark.parametrize("x_grad", [False, True])
    def test_input_gradient_only_when_the_input_needs_one(self, axis, x_grad):
        x = rand((2, 3, 3), 72, requires_grad=x_grad)
        w, b = dense_params(4, 3, 73)
        out = T.matmul(x, w, b, axis)
        dx, dw, db = out._node.vjp(np.ones(out.shape))
        assert (dx is not None) == x_grad
        assert dw.shape == w.shape and db.shape == b.shape

    @pytest.mark.parametrize("axis", [0, 1, -3, 2])
    def test_bad_axis_rejected(self, axis):
        w, b = dense_params(4, 3, 71)
        with pytest.raises(T.ShapeError):
            T.matmul(rand((2, 3, 3), 72), w, b, axis)

    @pytest.mark.parametrize("shape, axis", [((2, 5, 4), -1), ((2, 4, 3), -2), ((3,), -2)])
    def test_extent_mismatch_rejected(self, shape, axis):
        w, b = dense_params(4, 3, 73)
        with pytest.raises(T.ShapeError):
            T.matmul(rand(shape, 74), w, b, axis)

    def test_bias_extent_mismatch_rejected(self):
        w, _ = dense_params(4, 3, 75)
        with pytest.raises(T.ShapeError):
            T.matmul(rand((2, 3), 76), w, T.Tensor(np.zeros(3)), -1)

    def test_bias_without_axis_rejected(self):
        """The dense form needs its bias."""
        w, b = dense_params(4, 3, 77)
        with pytest.raises(T.UsageError):
            T.matmul(rand((2, 3), 78), w, None, -1)


class TestLayerNorm:
    def gains(self, n):
        return T.Tensor(np.ones(n), requires_grad=True), T.Tensor(np.zeros(n), requires_grad=True)

    def test_constant_slice_maps_to_zero(self):
        g, b = self.gains(3)
        out = T.layer_norm(T.Tensor([5.0, 5.0, 5.0]), g, b)
        assert np.array_equal(out.data, np.zeros(3))

    def test_two_point_slice(self):
        g, b = self.gains(2)
        out = T.layer_norm(T.Tensor([1.0, 3.0]), g, b)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_normalized_statistics(self):
        """Zero mean, and variance var / (var + 1e-6) for a slice of variance var."""
        rng = np.random.default_rng(7)
        g, b = self.gains(16)
        x = rng.standard_normal((4, 16))
        out = T.layer_norm(T.Tensor(x), g, b)
        var = x.var(axis=-1)
        assert np.abs(out.data.mean(axis=-1)).max() <= 1e-10
        assert np.abs(out.data.var(axis=-1) - var / (var + 1e-6)).max() <= 1e-12

    def test_empty_extent_rejected(self):
        g, b = self.gains(0)
        with pytest.raises(T.ShapeError):
            T.layer_norm(T.Tensor(np.zeros((2, 0))), g, b)

    def test_gradient_against_finite_differences(self):
        x = rand((2, 8), 20, requires_grad=True)
        g = T.Tensor(np.random.default_rng(21).standard_normal(8), requires_grad=True)
        b = T.Tensor(np.random.default_rng(22).standard_normal(8), requires_grad=True)

        def loss():
            out = T.layer_norm(x, g, b)
            return (out * out).sum()

        err = check_gradients(loss, [x, g, b], tol=1e-5)
        assert err <= 1e-5


    @pytest.mark.parametrize("shape", [(8, 3), (2, 8, 3), (2, 2, 8, 3)])
    def test_token_axis_equals_permuted_trailing_axis(self, shape):
        x = rand(shape, 23)
        g = T.Tensor(np.random.default_rng(24).standard_normal(8))
        b = T.Tensor(np.random.default_rng(25).standard_normal(8))
        along = T.layer_norm(x, g, b, axis=-2)
        permuted = swap_last_two(T.layer_norm(swap_last_two(x), g, b))
        assert np.allclose(along.data, permuted.data, rtol=0, atol=1e-12)

    def test_token_axis_gradient_against_finite_differences(self):
        x = rand((2, 8, 3), 26, requires_grad=True)
        g = T.Tensor(np.random.default_rng(27).standard_normal(8), requires_grad=True)
        b = T.Tensor(np.random.default_rng(28).standard_normal(8), requires_grad=True)

        def loss():
            out = T.layer_norm(x, g, b, axis=-2)
            return (out * out).sum()

        err = check_gradients(loss, [x, g, b], tol=1e-5)
        assert err <= 1e-5

    @pytest.mark.parametrize("shape, axis", [((2, 8, 3), 0), ((2, 3, 8), -2), ((8,), -2)])
    def test_bad_axis_or_extent_rejected(self, shape, axis):
        g, b = self.gains(8)
        with pytest.raises(T.ShapeError):
            T.layer_norm(T.Tensor(np.zeros(shape)), g, b, axis=axis)

    @pytest.mark.parametrize("gain_shape, bias_shape", [((8,), (7,)), ((1, 8), (1, 8)),
                                                         ((8,), (1, 8))])
    def test_gain_and_bias_must_be_one_vector_shape(self, gain_shape, bias_shape):
        g, b = T.Tensor(np.ones(gain_shape)), T.Tensor(np.zeros(bias_shape))
        with pytest.raises(T.ShapeError, match="gain"):
            T.layer_norm(T.Tensor(np.zeros((2, 8))), g, b)

    @pytest.mark.parametrize("x_dtype, gain_dtype, bias_dtype", [
        (np.float32, np.float64, np.float64),
        (np.float64, np.float32, np.float64),
        (np.float32, np.float32, np.float64),
    ])
    def test_mixed_dtypes_rejected(self, x_dtype, gain_dtype, bias_dtype):
        x = T.Tensor(np.zeros((2, 8)), dtype=x_dtype)
        g, b = T.Tensor(np.ones(8), dtype=gain_dtype), T.Tensor(np.zeros(8), dtype=bias_dtype)
        with pytest.raises(T.UsageError, match="one dtype"):
            T.layer_norm(x, g, b)


def permute_attention(q, k, v, heads):
    """Reference in plain numpy: heads copied into a head-major layout."""
    batch, seq, dim = q.shape
    head_dim = dim // heads

    def split(t):
        return np.ascontiguousarray(t.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3))

    logits = split(q) @ np.ascontiguousarray(np.swapaxes(split(k), -1, -2))
    logits /= math.sqrt(head_dim)
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    return (weights @ split(v)).transpose(0, 2, 1, 3).reshape(batch, seq, dim)


class TestAttention:
    @staticmethod
    def operands(seed, shape=(2, 5, 6)):
        return [rand(shape, seed + i, requires_grad=True) for i in range(3)]

    @pytest.mark.parametrize("heads", [1, 2])
    def test_equals_permute_formulation(self, heads):
        q, k, v = self.operands(80)
        out = T.attention(q, k, v, heads)
        expected = permute_attention(q.data, k.data, v.data, heads)
        assert np.allclose(out.data, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_gradients_against_finite_differences(self, heads):
        q, k, v = self.operands(83)
        w = rand(q.shape, 86)

        def loss():
            out = T.attention(q, k, v, heads)
            return (out * w).sum() + (out * out).mean()

        err = check_gradients(loss, [q, k, v], tol=1e-6)
        assert err <= 1e-6

    def test_macs_are_two_b_l_squared_d(self):
        q, k, v = self.operands(87, shape=(3, 7, 4))
        with T.count_macs() as counter:
            T.attention(q, k, v, 2)
        assert counter.total == 2 * 3 * 7 * 7 * 4

    def test_one_graph_node_per_call(self):
        q, k, v = self.operands(88)
        assert len(T._graph_nodes(T.attention(q, k, v, 2))) == 1

    @pytest.mark.parametrize("shapes, heads", [
        ([(2, 5, 6)] * 3, 4),                       # D % heads != 0
        ([(2, 5, 6)] * 3, 0),
        ([(2, 5, 6), (2, 4, 6), (2, 4, 6)], 1),     # key length differs
        ([(2, 5, 6), (2, 5, 6), (2, 5, 3)], 1),     # value width differs
        ([(5, 6)] * 3, 1),                          # not (B, L, D)
    ])
    def test_bad_operands_rejected(self, shapes, heads):
        with pytest.raises(T.ShapeError):
            T.attention(*(rand(shape, 89 + i) for i, shape in enumerate(shapes)), heads)

    def test_infinite_logit_raises(self):
        q = T.Tensor(np.full((1, 2, 2), 1e200))
        with pytest.raises(T.NonFiniteError, match="attention produced a non-finite value"):
            T.attention(q, q, q, 1)


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor([0.0])).data[0] == 0.0

    def test_unit_value_matches_error_function(self):
        expected = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        assert abs(T.gelu(T.Tensor([1.0])).data[0] - expected) < 1e-12

    def test_strongly_negative_input_vanishes(self):
        assert abs(T.gelu(T.Tensor([-10.0])).data[0]) < 1e-8

    def test_gradient(self):
        x = rand((3, 5), 30, requires_grad=True)
        check_gradients(lambda: T.gelu(x).sum(), [x])

    @staticmethod
    def float32_grid():
        """2^21 + 1 float32 points on [-12, 12] and the float64 reference there."""
        x32 = np.linspace(-12.0, 12.0, 2 ** 21 + 1).astype(np.float32)
        x = x32.astype(np.float64)
        cdf = special.ndtr(x)
        dgelu = cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        return x32, x, x * cdf, dgelu

    def test_float32_forward_within_bound(self):
        x32, x, gelu64, _ = self.float32_grid()
        out = T.gelu(T.Tensor(x32)).data
        assert out.dtype == np.float32
        assert np.all(np.abs(out - gelu64) <= 2.0 ** -22 * np.abs(x))

    def test_float32_gradient_within_bound(self):
        x32, _, _, dgelu64 = self.float32_grid()
        x = T.Tensor(x32, requires_grad=True)
        T.gelu(x).sum().backward()
        assert x.grad.dtype == np.float32
        assert np.abs(x.grad - dgelu64).max() <= 2.0 ** -22

    def test_float32_zero_and_negative_tail(self):
        out = T.gelu(T.Tensor(np.array([0.0, -10.0], dtype=np.float32))).data
        assert out[0] == 0.0
        assert abs(out[1]) < 1e-8

    def test_float32_path_makes_no_scipy_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy erf called")

        monkeypatch.setattr(special, "erf", refuse)
        T.gelu(T.Tensor(np.linspace(-3.0, 3.0, 7, dtype=np.float32)))

    def test_float32_derivative_factor_is_bitwise_the_whole_array_formula(self):
        x32, _, _, _ = self.float32_grid()
        cdf, t = np.empty_like(x32), np.empty_like(x32)
        T._gelu32_block(x32, np.empty_like(x32), cdf, t, False)
        factor = np.multiply(x32, np.float32(-0.5))
        factor *= x32
        factor -= T._LOG_SQRT_2PI
        np.exp(factor, out=factor)
        factor *= x32
        factor += cdf
        x = T.Tensor(x32, requires_grad=True)
        T.gelu(x).sum().backward()
        assert np.array_equal(x.grad, factor)

    def test_float64_is_bitwise_the_erf_form(self):
        x = rand((4, 7), 31).data * 4.0
        expected = x * (0.5 * (1.0 + special.erf(x * (1.0 / math.sqrt(2.0)))))
        assert np.array_equal(T.gelu(T.Tensor(x)).data, expected)


class TestElementwise:
    def test_add(self):
        out = T.Tensor([1.0, 2.0]) + T.Tensor([3.0, 4.0])
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_mul_by_zeros_forward_and_grad(self):
        x = rand((2, 3), 40, requires_grad=True)
        (x * T.Tensor(np.zeros((2, 3)))).sum().backward()
        assert np.array_equal(x.grad, np.zeros((2, 3)))

    def test_mean_of_ones(self):
        assert T.Tensor(np.ones((2, 2))).mean().item() == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.Tensor(np.zeros((2, 3))) + T.Tensor(np.zeros((3, 2)))

    def test_bias_broadcast_gradient(self):
        x = rand((2, 3, 4), 41, requires_grad=True)
        bias = rand((4,), 42, requires_grad=True)
        check_gradients(lambda: ((x + bias) * (x + bias)).sum(), [x, bias])

    def test_sigmoid_gradient_and_range(self):
        x = rand((4, 4), 43, requires_grad=True)
        out = T.sigmoid(x)
        assert out.data.min() > 0.0 and out.data.max() < 1.0
        check_gradients(lambda: (T.sigmoid(x) * T.sigmoid(x)).sum(), [x])

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = T.sigmoid(T.Tensor([-1000.0, 1000.0]))
        assert np.allclose(out.data, [0.0, 1.0])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = rand((3, 2), 50, requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_square_gradient(self):
        x = rand((4,), 51, requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_repeated_backward_accumulates(self):
        x = rand((4,), 52, requires_grad=True)
        loss = x.sum()
        loss.backward()
        loss.backward()
        assert np.allclose(x.grad, 2.0 * np.ones(4))

    def test_leaf_gradients_never_alias(self):
        a, b = rand((3,), 57, requires_grad=True), rand((3,), 58, requires_grad=True)
        (a + b).sum().backward()
        assert a.grad is not b.grad
        a.grad /= 2
        assert np.array_equal(b.grad, np.ones(3))

    def test_scalar_leaf_loss_gets_unit_grad_and_accumulates(self):
        x = T.Tensor(np.array(3.0), requires_grad=True)
        x.backward()
        assert x.grad == 1.0
        x.backward()
        assert x.grad == 2.0

    def test_non_scalar_loss_rejected(self):
        x = rand((2, 2), 53, requires_grad=True)
        with pytest.raises(T.UsageError):
            (x * x).backward()

    def test_disconnected_loss_rejected(self):
        with pytest.raises(T.UsageError):
            rand((1,), 54).sum().backward()

    def test_no_grad_suppresses_recording(self):
        x = rand((2, 2), 55, requires_grad=True)
        with T.no_grad():
            y = (x * x).sum()
        assert not y.requires_grad
        assert T._graph_nodes(y) == []

    def test_graph_is_freed_with_its_loss(self):
        x = rand((3, 4), 90, requires_grad=True)
        y = T.gelu(x)
        activation = weakref.ref(y.data)
        loss = (y * y).sum()  # mul's vjp reads y
        del y
        assert activation() is not None
        del loss
        assert activation() is None

    def test_activation_no_vjp_reads_is_freed_while_the_loss_lives(self):
        a, b = rand((3, 4), 96, requires_grad=True), rand((3, 4), 97, requires_grad=True)
        c = rand((3, 4), 98)
        h = a + b
        activation = weakref.ref(h.data)
        loss = (h * c).sum()  # c needs no gradient, so no vjp reads h
        del h
        assert activation() is None
        loss.backward()
        assert np.array_equal(a.grad, c.data) and np.array_equal(b.grad, c.data)

    def test_failed_forward_leaves_nothing_alive(self):
        x = T.Tensor(np.full(4, 1e200), requires_grad=True)
        activations = []

        def forward():
            h = x * 2.0
            activations.append(weakref.ref(h.data))
            return (h * h).sum()  # overflows halfway through the forward

        with pytest.raises(T.NonFiniteError):
            forward()
        assert activations[0]() is None

    def test_two_live_graphs_match_solo_runs(self):
        x = rand((3, 4), 91)

        def params(seed):
            """Weight and bias of three dense layers."""
            return [rand(shape, seed + i, requires_grad=True)
                    for i, shape in enumerate([(4, 4), (4,)] * 3)]

        def losses(*param_sets):
            """One loss per parameter set, their ops interleaved layer by layer."""
            hs = [x] * len(param_sets)
            for layer in range(3):
                hs = [T.gelu(T.matmul(h, ps[2 * layer], ps[2 * layer + 1], -1)) + h
                      for h, ps in zip(hs, param_sets)]
            return [h.sum() for h in hs]

        solo = []
        for seed in (92, 95):
            ps = params(seed)
            losses(ps)[0].backward()
            solo.append([p.grad for p in ps])
        for order in ((0, 1), (1, 0)):
            sets = [params(92), params(95)]
            pair = losses(*sets)
            for i in order:
                pair[i].backward()
            for ps, expected in zip(sets, solo):
                for p, g in zip(ps, expected):
                    assert np.array_equal(p.grad, g)

    def test_shared_operand_used_twice(self):
        x = rand((3,), 56, requires_grad=True)

        def loss():
            y = x * x
            return (y * x).sum()  # x^3

        check_gradients(loss, [x])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        x = rand((2, 6), 60, requires_grad=True)
        check_gradients(lambda: (T.reshape(x, (3, 4)) * T.reshape(x, (3, 4))).sum(), [x])

    def test_concat_and_narrow_inverse(self):
        a, b = rand((2, 3), 61), rand((2, 2), 62)
        joined = T.concat([a, b], axis=1)
        assert np.array_equal(T.narrow(joined, 1, 0, 3).data, a.data)
        assert np.array_equal(T.narrow(joined, 1, 3, 2).data, b.data)

    def test_concat_gradient(self):
        a = rand((2, 3), 63, requires_grad=True)
        b = rand((2, 2), 64, requires_grad=True)

        def loss():
            j = T.concat([a, b], axis=1)
            return (j * j).sum()

        check_gradients(loss, [a, b])

    def test_narrow_bounds(self):
        with pytest.raises(T.ShapeError):
            T.narrow(rand((2, 3), 65), 1, 2, 5)

    def test_non_finite_entry_in_the_narrowed_slice_names_the_op(self):
        x = f32(np.ones((1, 334, 4096)))
        x.data[0, -1, 3000] = np.inf  # an entry the constructor never saw
        with pytest.raises(T.NonFiniteError, match="narrow produced a non-finite value"):
            T.narrow(x, -1, 2048, 2048)

    @pytest.mark.parametrize("run", [
        lambda x: T.narrow(x, 3, 0, 1), lambda x: T.narrow(x, 5, 0, 2),
        lambda x: T.narrow(x, -4, 0, 1), lambda x: T.concat([x, x], 3),
        lambda x: T.concat([x, x], -5),
    ], ids=["narrow-3", "narrow-5", "narrow-minus-4", "concat-3", "concat-minus-5"])
    def test_axis_outside_the_rank_rejected(self, run):
        """An axis in [-ndim, ndim) is one of x's; any other is refused, not wrapped."""
        x = rand((2, 3, 4), 66)
        assert T.concat([x, x], -3).shape == (4, 3, 4)
        assert T.narrow(x, -3, 1, 1).shape == (1, 3, 4)
        with pytest.raises(T.ShapeError, match="axis"):
            run(x)

    def test_gather_rows_lookup_and_scatter(self):
        table = rand((5, 4), 67, requires_grad=True)
        ids = np.array([[0, 2], [2, 4]])
        out = T.gather_rows(table, ids)
        assert out.shape == (2, 2, 4)
        assert np.array_equal(out.data[1, 0], table.data[2])
        check_gradients(lambda: (T.gather_rows(table, ids) * T.gather_rows(table, ids)).sum(),
                        [table])

    def test_gather_rows_bad_id(self):
        with pytest.raises(T.UsageError):
            T.gather_rows(rand((5, 4), 68), np.array([7]))


class TestEngineInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_composite_gradients(self, seed):
        """Mixed pipeline exercising most ops against the finite-difference oracle."""
        x = rand((2, 4, 6), seed, requires_grad=True)
        w = rand((6, 6), seed + 100, requires_grad=True)
        c = rand((6,), seed + 200, requires_grad=True)
        g = T.Tensor(np.ones(6), requires_grad=True)
        b = T.Tensor(np.zeros(6), requires_grad=True)

        def loss():
            h = T.matmul(x, w, c, -1)
            h = T.gelu(h)
            h = T.layer_norm(h, g, b)
            h = T.permute(h, (0, 2, 1))
            return (h * h).mean()

        check_gradients(loss, [x, w, c, g, b])

    def test_non_finite_result_raises(self):
        big = T.Tensor(np.full((2, 2), 1e308))
        with pytest.raises(T.NonFiniteError):
            big * big  # noqa: B018 - evaluated for the raise

    @pytest.mark.parametrize("message, run", [
        ("add produced", lambda: T.add(f32([3e38, 3e38]), f32([3e38, 3e38]))),
        ("sub produced", lambda: T.sub(f32([3e38, 3e38]), f32([-3e38, -3e38]))),
        ("layer_norm produced", lambda: T.layer_norm(f32([[3e38, 3e38, -3e38]]),
                                                     f32([1, 1, 1]), f32([0, 0, 0]))),
        ("sum produced", lambda: T.tensor_sum(f32([3e38, 3e38]))),
        ("mean produced", lambda: T.tensor_mean(f32([3e38, 3e38]))),
        ("matmul backward produced", lambda: T.matmul(
            f32(np.full((1, 4), 1e-30), True), f32(np.full((4, 4), 3e38), True),
            f32(np.zeros(4), True), -1).sum().backward()),
        ("leaf gradient sum produced", lambda: twice_big(f32([1e-30], True)).backward()),
        ("adjoint sum produced", lambda: twice_big(f32([1e-30], True) * 1).backward()),
        ("tensor construction produced", lambda: f32([1.0]) * 1e40),
        ("tensor construction produced", lambda: T.Tensor(np.array([1e40]), dtype=np.float32)),
    ], ids=["add", "sub", "layer_norm", "sum", "mean", "matmul_backward", "leaf_sum",
            "adjoint_sum", "scalar_cast", "construction_cast"])
    def test_overflow_names_the_op_without_a_numpy_warning(self, message, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.NonFiniteError, match=message):
                run()

    @pytest.mark.parametrize("op, run", [
        ("add", lambda a, b: T.add(a, b)),
        ("sub", lambda a, b: T.sub(b, a)),
        ("mul", lambda a, b: T.mul(a, b)),
        ("matmul", lambda a, b: T.matmul(a, T.Tensor(np.ones((3, 4))),
                                         T.Tensor(np.zeros(3)), -1)),
        ("attention", lambda a, b: T.attention(a, b, b, 1)),
        ("concat", lambda a, b: T.concat([a, b], 0)),
    ], ids=["add", "sub", "mul", "matmul", "attention", "concat"])
    def test_mixed_dtypes_are_refused(self, op, run):
        """No op promotes a float32 operand to float64."""
        x32 = f32(np.ones((1, 2, 4)), requires_grad=True)
        x64 = T.Tensor(np.ones((1, 2, 4)))
        with pytest.raises(T.UsageError, match=f"{op} needs one dtype"):
            run(x32, x64)

    def test_number_and_array_operands_take_the_tensor_dtype(self):
        x = f32([1.0, 2.0])
        for out in (2.0 * x, x - 1.0, x + np.ones(2), T.mul(0.5, x),
                    T.matmul(np.ones((1, 2)), f32(np.ones((3, 2))), f32(np.zeros(3)), -1)):
            assert out.dtype == np.float32

    def test_mac_counter_counts_matmul_contractions(self):
        w, b = dense_params(2, 5, 71)
        with T.count_macs() as counter:
            T.matmul(rand((3, 4, 5), 70), w, b, -1)
        assert counter.total == 3 * 4 * 5 * 2

    def test_finite_difference_oracle_self_check(self):
        """The oracle itself must recover a known analytic gradient."""
        x = T.Tensor([1.0, 2.0, -0.5])
        fd = fd_gradient(lambda: float((x.data ** 3).sum()), x)
        assert max_rel_error(3.0 * x.data ** 2, fd) < 1e-8


class TestThreadState:
    """Grad mode, finiteness checks and MAC counters belong to the thread
    that set them."""

    def test_no_grad_in_another_thread_leaves_recording_on(self):
        entered, release = threading.Event(), threading.Event()

        def hold():
            with T.no_grad():
                entered.set()
                release.wait(30)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(30)
            x = rand((2, 2), 60, requires_grad=True)
            assert (x * x).requires_grad
        finally:
            release.set()
            thread.join(30)
        assert not thread.is_alive()

    def test_count_macs_counts_only_its_own_thread(self):
        w, b = dense_params(2, 5, 61)
        totals = []

        def count_in_thread():
            with T.count_macs() as counter:
                T.matmul(rand((3, 5), 62), w, b, -1)
            totals.append(counter.total)

        with T.count_macs() as counter:
            thread = threading.Thread(target=count_in_thread)
            thread.start()
            thread.join(30)
        assert not thread.is_alive()
        assert totals == [3 * 5 * 2]
        assert counter.total == 0

    def test_unchecked_passes_non_finite_values_on_silently(self):
        x = f32([3e38, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with T._unchecked():
                product = T.mul(x, x).data
                bare = x.data * x.data  # warns outside, under numpy's default errstate
        assert np.isinf(product[0]) and np.isinf(bare[0])
        with pytest.raises(T.NonFiniteError, match="^mul produced a non-finite value$"):
            T.mul(x, x)

    def test_unchecked_is_per_thread_and_ends_with_an_error(self):
        errors = np.geterr()
        seen = []
        with pytest.raises(ZeroDivisionError):
            with T._unchecked():
                thread = threading.Thread(target=lambda: seen.append(T._STATE.checks))
                thread.start()
                thread.join(30)
                1 / 0
        assert not thread.is_alive()
        assert seen == [True]
        assert T._STATE.checks and np.geterr() == errors
        with pytest.raises(T.NonFiniteError):
            T.Tensor([np.nan])


@pytest.fixture
def one_blas_thread():
    """OpenBLAS on one thread for the test, the only setting in which ops
    split outside tests: a threaded gemv sums a norm's rows in other groups,
    so its whole-array result is not the one-thread serial one."""
    import ctypes
    from numpy._core import _multiarray_umath

    blas_user = ctypes.CDLL(_multiarray_umath.__file__)
    setter = next((getattr(blas_user, name) for name in (
        "scipy_openblas_set_num_threads64_", "openblas_set_num_threads")
        if hasattr(blas_user, name)), None)
    query = T._blas_thread_query()
    if setter is None or query is None:
        pytest.skip("numpy's OpenBLAS exports no thread-count setter")
    setter.argtypes, setter.restype = [ctypes.c_int], None
    before = query()
    setter(1)
    yield
    setter(before)


class TestSplit:
    """Large ops split over two threads give the serial result bitwise."""

    @staticmethod
    def both_ways(monkeypatch, run):
        """run() with the split off and then forced on, and how many ops split."""
        force_split(monkeypatch, False)
        serial = run()
        asked = force_split(monkeypatch, True)
        return serial, run(), len(asked)

    # (x shape, out_dim, axis); the first three are the reference point's
    # channel MLP up and down projections and its token-mixing layer.
    @pytest.mark.parametrize("shape, out_dim, axis", [
        ((2, 334, 512), 2048, -1),
        ((1, 334, 2048), 512, -1),
        ((2, 334, 512), 334, -2),
        ((1, 334, 512), 2049, -1),
        ((2, 334, 512), 667, -2),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_forward_is_bitwise_the_serial_one(self, monkeypatch, shape, out_dim,
                                                     axis, dtype):
        rng = np.random.default_rng(80)
        x = T.Tensor(rng.standard_normal(shape).astype(dtype))
        in_dim = shape[axis]
        w = T.Tensor(rng.standard_normal((out_dim, in_dim)).astype(dtype))
        b = T.Tensor(rng.standard_normal(out_dim).astype(dtype))
        serial, split, splits = self.both_ways(monkeypatch,
                                               lambda: T.matmul(x, w, b, axis).data)
        assert np.array_equal(serial, split)
        # float64 column blocks are not bitwise the whole GEMM, so it stays serial
        assert splits == (1 if dtype == np.float32 else 0)

    def test_gelu_is_bitwise_the_serial_one_up_to_huge_inputs(self, monkeypatch):
        values = np.random.default_rng(81).standard_normal(T._SPLIT_MIN_ELEMENTS + 3) * 4
        values[::1000] = 1e30
        values[1::1000] = -1e30
        x = T.Tensor(values.astype(np.float32), requires_grad=True)

        def run():
            x.zero_grad()
            out = T.gelu(x)
            out.sum().backward()
            return out.data, x.grad

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (serial_out, serial_grad), (out, grad), splits = self.both_ways(monkeypatch, run)
        assert splits == 1
        assert np.array_equal(serial_out, out)
        assert np.array_equal(serial_grad, grad)

    def test_non_finite_split_op_names_the_op(self, monkeypatch):
        force_split(monkeypatch, True)
        x = f32(np.full((1, 334, 512), 1e20))
        w = f32(np.full((2048, 512), 1e20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.NonFiniteError, match="matmul produced"):
                T.matmul(x, w, f32(np.zeros(2048)), -1)

    def test_workers_half_follows_the_callers_checks(self, monkeypatch):
        asked = force_split(monkeypatch, True)
        x = f32(np.zeros(T._SPLIT_MIN_ELEMENTS))
        x.data[-1] = np.nan  # in the half [n // 2, n) that the worker runs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with T._unchecked():
                out = T.gelu(x).data
            with pytest.raises(T.NonFiniteError, match="gelu produced a non-finite value"):
                T.gelu(x)
        assert len(asked) == 2
        assert np.isnan(out[-1]) and (out[:-1] == 0).all()

    def test_mac_count_is_the_serial_one(self, monkeypatch):
        rng = np.random.default_rng(82)
        x = f32(rng.standard_normal((1, 334, 512)))
        w, b = f32(rng.standard_normal((2048, 512))), f32(np.zeros(2048))

        def run():
            with T.count_macs() as counter:
                T.matmul(x, w, b, -1)
            return counter.total

        serial, split, splits = self.both_ways(monkeypatch, run)
        assert splits == 1
        assert split == serial == 334 * 512 * 2048

    def test_bias_overflow_in_the_workers_half_names_the_op(self, monkeypatch):
        force_split(monkeypatch, True)
        bias = np.zeros(2048, dtype=np.float32)
        bias[1024:] = 3e38  # only in the worker's half of the columns
        x = f32(np.ones((1, 334, 512)))
        w = f32(np.full((2048, 512), 1e35))  # every GEMM entry is 5.1e37
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.NonFiniteError, match="matmul produced a non-finite value"):
                T.matmul(x, w, f32(bias), -1)

    # (batch, heads, embed_dim) at the reference point's 334 tokens
    @pytest.mark.parametrize("batch, heads, dim", [(1, 8, 512), (2, 8, 512), (1, 3, 384)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_is_bitwise_the_serial_one(self, monkeypatch, batch, heads, dim,
                                                 dtype):
        rng = np.random.default_rng(83)
        q, k, v = (T.Tensor(rng.standard_normal((batch, 334, dim)).astype(dtype),
                            requires_grad=True) for _ in range(3))
        g = T.Tensor(rng.standard_normal((batch, 334, dim)).astype(dtype))

        def run():
            for t in (q, k, v):
                t.zero_grad()
            out = T.attention(q, k, v, heads)
            (out * g).sum().backward()
            return out.data, q.grad, k.grad, v.grad

        serial, split, splits = self.both_ways(monkeypatch, run)
        # like float64 dense layers, float64 attention stays serial
        assert splits == (1 if dtype == np.float32 else 0)
        for a, b in zip(serial, split):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("head", [0, 7], ids=["callers_half", "workers_half"])
    def test_non_finite_attention_in_either_half_names_the_op(self, monkeypatch, head):
        force_split(monkeypatch, True)
        q = np.ones((1, 334, 512), dtype=np.float32)
        q[..., head * 64:(head + 1) * 64] = 1e30
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.NonFiniteError, match="attention produced a non-finite value"):
                T.attention(f32(q), f32(q), f32(np.ones_like(q)), 8)

    def test_attention_mac_count_is_the_serial_one(self, monkeypatch):
        q = f32(np.random.default_rng(84).standard_normal((1, 334, 512)))

        def run():
            with T.count_macs() as counter:
                T.attention(q, q, q, 8)
            return counter.total

        serial, split, splits = self.both_ways(monkeypatch, run)
        assert splits == 1
        assert split == serial == 2 * 334 * 334 * 512

    def test_one_head_attention_never_splits(self, monkeypatch):
        q = f32(np.random.default_rng(85).standard_normal((1, 334, 512)))
        serial, split, splits = self.both_ways(monkeypatch,
                                               lambda: T.attention(q, q, q, 1).data)
        assert splits == 0
        assert np.array_equal(serial, split)

    # (1, 333, 2048) and (3, 335, 1024) cut at row 160 and 496, not at half
    @pytest.mark.parametrize("shape", [(1, 334, 2048), (1, 333, 2048), (3, 335, 1024)])
    @pytest.mark.usefixtures("one_blas_thread")
    def test_layer_norm_and_its_vjp_are_bitwise_the_serial_ones(self, monkeypatch, shape):
        rng = np.random.default_rng(86)
        n = shape[-1]
        # rows of differing mean and scale
        values = rng.standard_normal(shape) * rng.uniform(0.1, 10, shape[:-1] + (1,))
        x = f32(values + rng.standard_normal(shape[:-1] + (1,)), requires_grad=True)
        gain, bias = (f32(rng.standard_normal(n), requires_grad=True) for _ in range(2))
        g = rng.standard_normal(shape).astype(np.float32)

        def run():
            out = T.layer_norm(x, gain, bias)
            return (out.data, *out._node.vjp(g))

        serial, split, splits = self.both_ways(monkeypatch, run)
        assert splits == 1
        for a, b in zip(serial, split):
            assert np.array_equal(a, b)

    # (shape, axis, start, length): A3's gate half at the reference point,
    # and the backbone's image tokens of a batch of four
    @pytest.mark.parametrize("shape, axis, start, length", [
        ((1, 334, 4096), -1, 2048, 2048),
        ((4, 300, 1024), 1, 10, 280),
    ])
    def test_narrow_is_bitwise_the_slice(self, monkeypatch, shape, axis, start, length):
        x = f32(np.random.default_rng(88).standard_normal(shape))
        serial, split, splits = self.both_ways(
            monkeypatch, lambda: T.narrow(x, axis, start, length).data)
        assert splits == 0  # a shape op, like concat, never splits
        index = [slice(None)] * len(shape)
        index[axis] = slice(start, start + length)
        assert split.flags.c_contiguous
        assert np.array_equal(serial, x.data[tuple(index)])
        assert np.array_equal(split, serial)

    @pytest.mark.parametrize("run", [
        lambda x: T.add(x, f32(np.ones(2048))),
        lambda x: T.layer_norm(T.Tensor(x.data.astype(np.float64)),
                               T.Tensor(np.ones(2048)), T.Tensor(np.zeros(2048))),
        lambda x: T.layer_norm(T.reshape(x, (1, 2048, 334)), f32(np.ones(2048)),
                               f32(np.zeros(2048)), axis=-2),
        lambda x: T.attention(*[T.Tensor(x.data[..., :512].astype(np.float64))] * 3, 8),
    ], ids=["bias_add", "float64_norm", "token_axis_norm", "float64_attention"])
    def test_broadcast_float64_and_token_axis_ops_never_split(self, monkeypatch, run):
        x = f32(np.random.default_rng(89).standard_normal((1, 334, 2048)))
        serial, split, splits = self.both_ways(monkeypatch, lambda: run(x).data)
        assert splits == 0
        assert np.array_equal(serial, split)

    @staticmethod
    def _huge_last_row_norm():
        # the last row's mean is near 3.3e38, so its one negative entry's
        # deviation overflows; row 333 is in the worker's half
        x = np.ones((1, 334, 2048), dtype=np.float32)
        x[0, -1] = 3.3e38
        x[0, -1, 0] = -3.3e38
        T.layer_norm(f32(x), f32(np.ones(2048)), f32(np.zeros(2048)))

    @pytest.mark.parametrize("message, run", [
        ("layer_norm produced", _huge_last_row_norm),
    ], ids=["layer_norm"])
    def test_non_finite_value_in_the_workers_half_names_the_op(self, monkeypatch,
                                                                message, run):
        asked = force_split(monkeypatch, True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(T.NonFiniteError, match=message):
                run()
        assert len(asked) == 1

    @pytest.mark.usefixtures("one_blas_thread")
    def test_gmlp_reference_block_is_bitwise_the_serial_one(self, monkeypatch):
        from lmlp import blocks

        block = blocks.build_block("A3", 90, seq_len=334, embed_dim=512, mlp_scale=4.0,
                                   dtype=np.float32)
        x = f32(np.random.default_rng(90).standard_normal((1, 334, 512)))

        def run():
            with T.no_grad(), T.count_macs() as counter:
                out = block.forward(x)
            return out.data, counter.total

        (serial, serial_macs), (split, split_macs), splits = self.both_ways(monkeypatch, run)
        # proj_in, GELU, norm_gate, spatial and proj_out split; both narrows
        # and the gate product run whole, and norm_in has 171k elements
        assert splits == 5
        assert split_macs == serial_macs
        assert np.array_equal(serial, split)

    @pytest.mark.parametrize("preset", ["F2", "A3", "TRANSFORMER"])
    def test_desk_training_and_sampling_steps_never_split(self, monkeypatch, preset):
        """At the desk defaults (B=32, L=21, D=64, float32) no op of a training
        step, forward and backward, or of a guided sampler step is large
        enough to ask for the second core. Without ``os.fork`` a guided
        sample runs both forwards here, with the worker free, and asks
        nothing."""
        from lmlp.backbone import build_model
        from lmlp.config import RunConfig
        from lmlp.diffusion import SamplerConfig, sample, training_loss

        config = RunConfig(preset=preset)
        model = build_model(config.backbone_config(), 0, dtype=np.float32)
        sched = config.noise_schedule()
        rng = np.random.default_rng(91)
        side, batch = config.image_side, config.batch_size
        x0 = rng.standard_normal((batch, 1, side, side)).astype(np.float32)
        ids = rng.integers(1, 5, (batch, config.text_tokens))
        asked = force_split(monkeypatch, True)
        training_loss(model, x0, ids, sched, config.caption_keep_prob, rng).backward()
        assert asked == []
        submit, submitted = T._submit, []
        monkeypatch.setattr(T, "_submit", lambda fn: submitted.append(1) or submit(fn))
        monkeypatch.delattr(os, "fork", raising=False)
        sample(model, ids, sched, SamplerConfig(num_steps=3), config.guidance_scale, 0)
        assert asked == [] and submitted == []

    @staticmethod
    def in_forked_child(child):
        """Run ``child()`` in a forked child; assert it returned within 30 s."""
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                child()
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid, "the forked child hung"
        assert os.waitstatus_to_exitcode(done[1]) == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_runs_a_split_op(self, monkeypatch):
        force_split(monkeypatch, True)
        x = f32(np.ones(T._SPLIT_MIN_ELEMENTS))
        T.gelu(x)                                    # the parent's worker now runs
        self.in_forked_child(lambda: T.gelu(x))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_submits_while_the_parents_worker_holds_a_job(self, monkeypatch):
        force_split(monkeypatch, True)
        release = threading.Event()
        join = T._submit(lambda: release.wait(30))

        def child():
            child_join = T._submit(lambda: 7)
            assert child_join is not None and child_join() == 7

        try:
            self.in_forked_child(child)
        finally:
            release.set()
            assert join() is True

    def test_submit_starts_nothing_without_a_free_core(self, monkeypatch):
        asked = force_split(monkeypatch, False)
        ran = []
        assert T._submit(lambda: ran.append(1)) is None
        assert asked == [1] and ran == []

    def test_submit_takes_one_job_and_none_from_the_worker(self, monkeypatch):
        """While the worker holds a job, neither the caller nor the job itself
        can hand it another; joining frees the worker for the next one."""
        asked = force_split(monkeypatch, True)
        release, from_job = threading.Event(), []

        def job():
            from_job.append(T._submit(lambda: "nested"))
            release.wait(30)
            return "first"

        join = T._submit(job)
        try:
            assert T._submit(lambda: "second") is None
        finally:
            release.set()
        assert join() == "first"
        assert from_job == [None]
        assert T._submit(lambda: "third")() == "third"
        assert len(asked) == 4

    def test_submit_from_more_threads_than_cores_hands_over_one_job_at_a_time(
            self, monkeypatch):
        force_split(monkeypatch, True)
        lock, holders, peak, handed, wrong = threading.Lock(), [0], [0], [0], []

        def caller(k):
            for i in range(300):
                join = T._submit(lambda: (k, i))  # joined before i moves on
                if join is None:
                    continue
                with lock:
                    holders[0] += 1
                    peak[0] = max(peak[0], holders[0])
                    handed[0] += 1
                time.sleep(0)
                with lock:
                    holders[0] -= 1
                if join() != (k, i):
                    wrong.append((k, i))

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert peak[0] == 1 and handed[0] > 0 and wrong == []

    def test_submitted_job_runs_under_the_callers_thread_state(self, monkeypatch):
        force_split(monkeypatch, True)
        w, b = dense_params(2, 5, 63)
        x, caller, seen = rand((3, 5), 64), threading.current_thread(), []

        def job():
            seen.append((threading.current_thread() is caller, T._STATE.grad_enabled,
                         T._STATE.checks, np.geterr()))
            return T.matmul(x, w, b, -1)

        with T.count_macs() as outer:
            with T.no_grad(), T._unchecked(), T.count_macs() as inner:
                errors = np.geterr()
                join = T._submit(job)
                out = join()
                assert inner.total == 3 * 5 * 2  # added by the join
        assert seen == [(False, False, False, errors)]
        assert out._node is None
        assert outer.total == 3 * 5 * 2
        assert T._STATE.grad_enabled and T._STATE.checks

    def test_join_after_always_joins_and_the_callers_error_wins(self, monkeypatch):
        force_split(monkeypatch, True)
        finished = threading.Event()

        def fail(message):
            raise T.NonFiniteError(message)

        def late_failure():
            time.sleep(0.2)
            finished.set()
            fail("worker")

        with pytest.raises(T.NonFiniteError, match="^caller$"):
            T._join_after(lambda: fail("caller"), T._submit(late_failure))
        assert finished.is_set()
        with pytest.raises(T.NonFiniteError, match="^worker$"):
            T._join_after(lambda: "here", T._submit(lambda: fail("worker")))
        assert T._join_after(lambda: "here", T._submit(lambda: "there")) == ("here", "there")
