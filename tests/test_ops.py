"""Convolution, pooling, normalization, and activation contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced
from lganet import ops
from lganet import tensor as T
from lganet.errors import ShapeError
from lganet.gradcheck import _weighted_sum, max_rel_error
from lganet.ops import Conv1dParams, LayerNormParams
from lganet.tensor import Tensor, tsum


def make_conv(w, b, padding=0):
    return Conv1dParams(Tensor(np.asarray(w, dtype=np.float64), dtype="f64"),
                        Tensor(np.asarray(b, dtype=np.float64), dtype="f64"), padding)


def cl(a):
    """Move a [B, C, L] array to the ops' [B, L, C] layout, or back: the swap is its own inverse."""
    return np.ascontiguousarray(np.asarray(a).transpose(0, 2, 1))


def conv1d_loops(x, w, b, stride, padding):
    """Independent nested-loop oracle for cross-correlation."""
    bsz, cin, length = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    l_out = (length + 2 * padding - k) // stride + 1
    out = np.zeros((bsz, cout, l_out))
    for n in range(bsz):
        for o in range(cout):
            for t in range(l_out):
                acc = 0.0
                for i in range(cin):
                    for j in range(k):
                        acc += w[o, i, j] * xp[n, i, t * stride + j]
                out[n, o, t] = acc + b[o]
    return out


def test_conv1d_identity_kernel():
    p = make_conv([[[1.0]]], [0.0])
    x = np.random.default_rng(0).uniform(-1, 1, (2, 1, 6))
    assert np.array_equal(cl(ops.conv1d(Tensor(cl(x), dtype="f64"), p).data), x)


def test_conv1d_hand_evaluated_edge_detector():
    p = make_conv([[[1.0, 0.0, -1.0]]], [0.0])
    x = Tensor(cl([[[1.0, 2.0, 3.0, 4.0]]]), dtype="f64")
    assert cl(ops.conv1d(x, p).data).tolist() == [[[-2.0, -2.0]]]


@pytest.mark.parametrize("cin,cout,k,stride,padding,length", [
    (1, 1, 3, 1, 0, 8),
    (3, 4, 3, 1, 1, 9),
    (2, 5, 5, 1, 2, 7),
    (4, 2, 1, 1, 0, 10),
])
def test_conv1d_matches_loop_oracle(cin, cout, k, stride, padding, length):
    rng = np.random.default_rng(cin * 100 + k)
    w = rng.uniform(-1, 1, (cout, cin, k))
    b = rng.uniform(-1, 1, cout)
    x = rng.uniform(-1, 1, (2, cin, length))
    p = make_conv(w, b, padding)
    got = cl(ops.conv1d(Tensor(cl(x), dtype="f64"), p).data)
    assert np.abs(got - conv1d_loops(x, w, b, stride, padding)).max() <= 1e-12


def test_recorded_conv1d_keeps_its_input_not_its_columns():
    # the k-major columns of this conv are 7x its input, 917,504 bytes
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 256, 16)), requires_grad=True, dtype="f64")
    p = Conv1dParams.create(16, 16, 7, 3, rng, dtype=np.float64)
    held, _, out = traced(lambda: ops.conv1d(x, p))
    assert held < x.data.nbytes + out.data.nbytes


def one_gemm_conv(x, p, g):
    """The conv as one GEMM over the whole k-major im2col: its output for ``x`` and, for
    the output gradient ``g``, its ``gx`` (one fold of the whole gradient columns) and ``dw``."""
    c_out, c, k = p.weight.shape
    pad = p.padding
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    cols = T._window_view(xp, k, 1).reshape(-1, k * c)
    w2 = p.weight.data.transpose(0, 2, 1).reshape(c_out, k * c)
    val = (cols @ w2.T).reshape(x.shape[0], -1, c_out) + p.bias.data
    g2 = g.reshape(-1, c_out)
    gx = T._fold_windows((g2 @ w2).reshape(*g.shape[:2], k, c), np.zeros_like(xp), 1)
    dw = (g2.T @ cols).reshape(c_out, k, c).transpose(0, 2, 1)
    return val, gx[:, pad : pad + x.shape[1]], dw


def blocked_conv(x, p, g):
    """``conv1d``'s output for ``x`` and its ``gx`` and ``dw`` for the output gradient ``g``."""
    x = Tensor(x, requires_grad=True, dtype=x.dtype)
    out = ops.conv1d(x, p)
    out.grad = g
    out._backward()
    return out.data, x.grad, p.weight.grad


# blocks per dtype (f32 | f64): 1 | 1; 16 of 2 items | 32 of 1; 3+2 items | 2+2+1;
# 3 items x (3 x 2250 + 2248 positions) | 3 x (6 x 1286 + 1282)
@pytest.mark.parametrize("shape,k,pad,c_out", [
    ((4, 256, 16), 7, 3, 16),
    ((32, 4096, 16), 7, 3, 16),
    ((5, 2048, 16), 7, 3, 16),
    ((3, 9000, 128), 3, 0, 32),
], ids=["one-block", "paper-conv2", "short-last-group", "position-split"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blocked_conv1d_is_bitwise_the_one_gemm_conv(shape, k, pad, c_out, dtype):
    rng = np.random.default_rng(8)
    p = Conv1dParams.create(shape[2], c_out, k, pad, rng, dtype=dtype)
    x = rng.standard_normal(shape).astype(dtype)
    g = rng.standard_normal((shape[0], shape[1] + 2 * pad - k + 1, c_out)).astype(dtype)
    (val, gx, dw), want = blocked_conv(x, p, g), one_gemm_conv(x, p, g)
    for got, ref in zip((val, gx, dw), want):
        assert got.dtype == ref.dtype
    assert val.tobytes() == want[0].tobytes()
    assert gx.tobytes() == np.ascontiguousarray(want[1]).tobytes()
    # dw sums its blocks in another order: f32 reads <= 7.7e-7 relative on these shapes
    dw_rtol = 1e-12 if dtype == np.float64 else 1e-5
    assert np.abs(dw - want[2]).max() <= dw_rtol * np.abs(want[2]).max()


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 4), length=st.integers(3, 12), cin=st.integers(1, 3),
       k=st.integers(1, 3), padding=st.integers(0, 1), block_rows=st.integers(1, 5))
def test_conv1d_in_blocks_of_a_few_rows_matches_loop_oracle(b, length, cin, k, padding,
                                                           block_rows):
    rng = np.random.default_rng(length * 10 + k)
    w = rng.uniform(-1, 1, (2, cin, k))
    bias = rng.uniform(-1, 1, 2)
    x = rng.uniform(-1, 1, (b, cin, length))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "COLUMN_BLOCK_BYTES", block_rows * k * cin * 8)
        got = cl(ops.conv1d(Tensor(cl(x), dtype="f64"), make_conv(w, bias, padding)).data)
    assert np.abs(got - conv1d_loops(x, w, bias, 1, padding)).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(b=st.integers(1, 4), length=st.integers(4, 12), cin=st.integers(1, 3),
       c_out=st.integers(1, 3), k=st.integers(1, 4), padding=st.integers(0, 2),
       block_rows=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_conv1d_backward_in_blocks_of_a_few_rows_is_the_one_gemm_backward(
        b, length, cin, c_out, k, padding, block_rows, seed):
    # block_rows < L_out splits an item's positions, so blocks share k - 1 halo rows of gx.
    # A GEMM of a few rows may take another BLAS kernel, so bits can differ here.
    rng = np.random.default_rng(seed)
    p = Conv1dParams.create(cin, c_out, k, padding, rng, dtype=np.float64)
    x = rng.uniform(-1, 1, (b, length, cin))
    g = rng.uniform(-1, 1, (b, length + 2 * padding - k + 1, c_out))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "COLUMN_BLOCK_BYTES", block_rows * k * cin * 8)
        got = blocked_conv(x, p, g)
    for a, want in zip(got, one_gemm_conv(x, p, g)):
        assert np.abs(a - want).max() <= 1e-12


def test_conv1d_forward_holds_at_most_two_column_blocks():
    # the whole k-major columns of this conv are 56 MiB
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((32, 4096, 16)), dtype="f32")
    p = Conv1dParams.create(16, 16, 7, 3, rng, dtype=np.float32)
    padded_nbytes = 32 * (4096 + 2 * 3) * 16 * 4
    with T.no_grad():
        _, peak, out = traced(lambda: ops.conv1d(x, p))
    assert peak < out.data.nbytes + padded_nbytes + 2 * ops.COLUMN_BLOCK_BYTES


def test_conv1d_backward_holds_at_most_two_column_blocks():
    # the whole k-major columns of this conv, and its whole gradient columns, are 56 MiB each
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((32, 4096, 16)), requires_grad=True, dtype="f32")
    p = Conv1dParams.create(16, 16, 7, 3, rng, dtype=np.float32)
    padded_nbytes = 32 * (4096 + 2 * 3) * 16 * 4
    out = ops.conv1d(x, p)
    out.grad = rng.standard_normal(out.shape).astype(np.float32)
    # the padded input, the padded gx and x.grad, plus the blocks
    _, peak, _ = traced(out._backward)
    assert peak < 2 * padded_nbytes + x.data.nbytes + 2 * ops.COLUMN_BLOCK_BYTES


def test_conv1d_window_too_large():
    p = make_conv(np.zeros((1, 1, 5)), [0.0])
    with pytest.raises(ShapeError):
        ops.conv1d(Tensor(cl(np.zeros((1, 1, 3)))), p)


def test_conv1d_channel_mismatch():
    p = make_conv(np.zeros((1, 2, 1)), [0.0])
    with pytest.raises(ShapeError):
        ops.conv1d(Tensor(cl(np.zeros((1, 3, 4)))), p)


@settings(max_examples=60, deadline=None)
@given(length=st.integers(1, 40), k=st.integers(1, 9), stride=st.integers(1, 4),
       padding=st.integers(0, 4))
def test_length_algebra(length, k, stride, padding):
    if length + 2 * padding < k:
        with pytest.raises(ShapeError):
            ops.conv_out_len(length, k, stride, padding)
        return
    expected = (length + 2 * padding - k) // stride + 1
    assert ops.conv_out_len(length, k, stride, padding) == expected
    x = Tensor(cl(np.ones((1, 1, length))))
    conv = Conv1dParams(Tensor(np.ones((1, 1, k))), Tensor(np.zeros(1)), padding)
    assert ops.conv1d(x, conv).shape == (1, length + 2 * padding - k + 1, 1)
    if length >= k:  # the pools slide unpadded, at any stride
        assert ops.max_pool1d(x, k, stride).shape == (1, (length - k) // stride + 1, 1)


def test_shift_relation_stride1_no_padding():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (1, 2, 16))
    shifted = np.concatenate([rng.uniform(-1, 1, (1, 2, 1)), x[:, :, :-1]], axis=2)
    p = make_conv(rng.uniform(-1, 1, (3, 2, 3)), rng.uniform(-1, 1, 3))
    out = cl(ops.conv1d(Tensor(cl(x), dtype="f64"), p).data)
    out_shifted = cl(ops.conv1d(Tensor(cl(shifted), dtype="f64"), p).data)
    assert np.array_equal(out_shifted[:, :, 1:], out[:, :, :-1])


def test_layer_norm_constant_row_is_zero():
    p = LayerNormParams.create(4, dtype=np.float64)
    x = Tensor(np.full((2, 3, 4), 7.5), dtype="f64")
    assert np.array_equal(ops.layer_norm(x, p).data, np.zeros((2, 3, 4)))


def test_layer_norm_standardized_row_kept():
    p = LayerNormParams.create(2, dtype=np.float64)
    out = ops.layer_norm(Tensor([[1.0, -1.0]], dtype="f64"), p)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-4)


def test_layer_norm_statistics():
    p = LayerNormParams.create(16, dtype=np.float64)
    rng = np.random.default_rng(6)
    x = Tensor(rng.uniform(-5, 5, (3, 7, 16)), dtype="f64")
    out = ops.layer_norm(x, p).data  # gamma=1, beta=0: output is the standardized value
    assert np.abs(out.mean(axis=-1)).max() <= 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() <= 1e-4


def test_max_pool_basic():
    out = ops.max_pool1d(Tensor(cl([[[1.0, 3.0, 2.0, 5.0]]])), 2, 2)
    assert cl(out.data).tolist() == [[[3.0, 5.0]]]


def test_max_pool_constant_input():
    out = ops.max_pool1d(Tensor(cl(np.full((1, 2, 6), 4.0))), 3, 3)
    assert np.array_equal(cl(out.data), np.full((1, 2, 2), 4.0))


def test_max_pool_tie_routes_gradient_to_first_index():
    x = Tensor(cl([[[2.0, 2.0]]]), requires_grad=True, dtype="f64")
    tsum(ops.max_pool1d(x, 2, 2)).backward()
    assert cl(x.grad).tolist() == [[[1.0, 0.0]]]


def max_pool_argmax_oracle(x, kernel, stride, cotangent):
    """The former max_pool1d: max and first-index argmax over a strided window
    view, with the gradient scattered back per window offset."""
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)[:, :, ::stride]
    idx = windows.argmax(axis=-1)
    l_out = windows.shape[2]
    g = np.zeros_like(x)
    for j in range(kernel):
        g[:, :, j : j + (l_out - 1) * stride + 1 : stride] += np.where(idx == j, cotangent, 0)
    return np.ascontiguousarray(windows.max(axis=-1)), g


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("kernel,stride,length", [(2, 2, 12), (2, 2, 13), (3, 2, 11), (3, 2, 12)])
def test_max_pool_matches_argmax_oracle_bit_for_bit(dtype, kernel, stride, length):
    rng = np.random.default_rng(kernel * 100 + length)
    # small integers make many ties, which must route to the first index
    for data in (rng.integers(0, 3, (2, 3, length)), rng.uniform(-1, 1, (2, 3, length))):
        x = Tensor(cl(data), requires_grad=True, dtype=dtype)
        out = ops.max_pool1d(x, kernel, stride)
        cot = rng.uniform(-1, 1, out.shape).astype(x.dtype)
        tsum(T.mul(out, Tensor(cot, dtype=dtype))).backward()
        val, grad = max_pool_argmax_oracle(cl(x.data), kernel, stride, cl(cot))
        assert out.data.dtype == val.dtype and out.data.flags.c_contiguous
        assert np.array_equal(cl(out.data), val)
        assert np.array_equal(cl(x.grad), grad)
        with T.no_grad():
            assert np.array_equal(cl(ops.max_pool1d(x, kernel, stride).data), val)


def test_max_pool_window_too_large():
    with pytest.raises(ShapeError):
        ops.max_pool1d(Tensor(cl(np.zeros((1, 1, 3)))), 4, 1)


def test_avg_pool_basic():
    out = ops.avg_pool1d(Tensor(cl([[[1.0, 3.0, 2.0, 5.0]]])), 2, 2)
    assert cl(out.data).tolist() == [[[2.0, 3.5]]]


def test_avg_pool_kernel_one_is_identity():
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3, 5)), dtype="f64")
    assert np.array_equal(ops.avg_pool1d(x, 1, 1).data, x.data)


@pytest.mark.parametrize("k,stride,length", [(2, 2, 8), (3, 1, 7), (4, 2, 11), (5, 3, 12)])
def test_avg_pool_matches_loop_oracle(k, stride, length):
    rng = np.random.default_rng(k * 10 + stride)
    x = rng.uniform(-1, 1, (2, 3, length))
    l_out = (length - k) // stride + 1
    expected = np.zeros((2, 3, l_out))
    for t in range(l_out):
        expected[:, :, t] = x[:, :, t * stride : t * stride + k].mean(axis=-1)
    got = cl(ops.avg_pool1d(Tensor(cl(x), dtype="f64"), k, stride).data)
    assert np.abs(got - expected).max() <= 1e-12


def test_linear_identity_and_zero_weight():
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (4, 3)), dtype="f64")
    eye, zero = Tensor(np.eye(3), dtype="f64"), Tensor(np.zeros(3), dtype="f64")
    assert np.array_equal(ops.linear(x, eye, zero).data, x.data)
    b = Tensor([1.0, 2.0, 3.0], dtype="f64")
    out = ops.linear(x, Tensor(np.zeros((3, 3)), dtype="f64"), b)
    assert np.array_equal(out.data, np.broadcast_to(b.data, (4, 3)))


def test_linear_matches_matmul_oracle():
    rng = np.random.default_rng(2)
    x, w, b = rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, 3)
    got = ops.linear(Tensor(x, dtype="f64"), Tensor(w, dtype="f64"), Tensor(b, dtype="f64")).data
    assert np.abs(got - (x @ w + b)).max() <= 1e-12


def test_relu_values():
    assert ops.relu(Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]


def test_sigmoid_values():
    assert ops.sigmoid(Tensor([0.0])).data.tolist() == [0.5]
    out = ops.sigmoid(Tensor([800.0, -800.0], dtype="f64")).data
    assert np.allclose(out, [1.0, 0.0])


def test_sigmoid_gradient_vs_finite_differences():
    x = Tensor(np.random.default_rng(3).uniform(-3, 3, (4, 5)), requires_grad=True, dtype="f64")
    err = max_rel_error(lambda: tsum(ops.sigmoid(x)), [x])
    assert err <= 1e-4


# in != k != out with a non-uniform upstream gradient: a weight or input
# gradient read back as [in, k] where it was built as [k, in] gets wrong values;
# ids read loss-cin-cout-k-stride-padding
@pytest.mark.parametrize("loss,cin,cout,k,padding", [
    (tsum, 2, 3, 3, 1),
    (_weighted_sum, 4, 5, 3, 1),
    (_weighted_sum, 3, 2, 1, 0),
], ids=["sum-2-3-3-1-1", "weighted-4-5-3-1-1", "weighted-3-2-1-1-0"])
def test_conv_and_pool_gradients(loss, cin, cout, k, padding):
    rng = np.random.default_rng(4)
    p = Conv1dParams.create(cin, cout, k, padding=padding, rng=rng, dtype=np.float64)
    x = Tensor(cl(rng.uniform(-1, 1, (2, cin, 9))), requires_grad=True, dtype="f64")
    err = max_rel_error(lambda: loss(ops.conv1d(x, p)), [x, p.weight, p.bias])
    assert err <= 1e-4
    x2 = Tensor(cl(rng.permutation(24).reshape(2, 2, 6) * 0.1), requires_grad=True, dtype="f64")
    assert max_rel_error(lambda: loss(ops.max_pool1d(x2, 2, 2)), [x2]) <= 1e-4
    assert max_rel_error(lambda: loss(ops.avg_pool1d(x2, 3, 2)), [x2]) <= 1e-4
