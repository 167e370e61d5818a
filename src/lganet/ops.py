"""Neural building blocks: 1-D convolution, pooling, layer norm, linear, activations.

All layers are pure functions of their inputs and parameters that hand
``_result`` their forward value and a ``backward(g, *sinks)``, so they compose
freely with the ops in ``tensor``. Sequences are channels-last, [B, L, C], for
every layer: the layout of the attention stack, so no op needs a transpose
around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _fold_windows, _records, _result, _window_view, add, matmul


def conv_out_len(length: int, kernel: int, stride: int, padding: int) -> int:
    """Output length of a 1-D conv/pool window sweep; raises when it cannot fit."""
    padded = length + 2 * padding
    if padded < kernel:
        raise ShapeError(
            f"window of size {kernel} does not fit input of length {length} with padding {padding}"
        )
    return (padded - kernel) // stride + 1


@dataclass
class Conv1dParams:
    """Weights and padding of one stride-1 1-D convolution (cross-correlation, zero padded)."""

    weight: Tensor  # [out, in, k]
    bias: Tensor    # [out]
    padding: int

    def __post_init__(self):
        if self.weight.ndim != 3:
            raise ShapeError(f"conv weight must be [out, in, k], got shape {self.weight.shape}")
        if self.bias.shape != (self.out_channels,):
            raise ShapeError(f"conv bias shape {self.bias.shape} != ({self.out_channels},)")

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.weight.shape[2]

    @classmethod
    def create(cls, in_channels, out_channels, kernel_size, padding,
               rng: np.random.Generator, dtype=np.float32) -> "Conv1dParams":
        bound = 1.0 / np.sqrt(in_channels * kernel_size)
        w = rng.uniform(-bound, bound, (out_channels, in_channels, kernel_size))
        b = rng.uniform(-bound, bound, out_channels)
        return cls(Tensor(w, requires_grad=True, dtype=dtype),
                   Tensor(b, requires_grad=True, dtype=dtype), padding)


# Bytes of k-major columns the forward copies per GEMM: big enough for BLAS's
# large-matrix kernels (smaller blocks change f32 bits), small enough to stay in cache.
COLUMN_BLOCK_BYTES = 4 << 20


def _padded(data: np.ndarray, pad: int) -> np.ndarray:
    """[B, L, C] zero padded by ``pad`` on both ends of L."""
    if not pad:
        return data
    b, length, c = data.shape
    xp = np.zeros((b, length + 2 * pad, c), data.dtype)
    xp[:, pad : pad + length] = data
    return xp


def _even_step(total: int, most: int) -> int:
    """Part size when ``total`` splits evenly into the fewest parts of at most ``most``."""
    return -(-total // -(-total // most))


def _blocks(b: int, l_out: int, row_bytes: int) -> list[tuple[slice, slice]]:
    """(items, positions) slices of the blocks of at most ``COLUMN_BLOCK_BYTES`` of
    im2col rows of ``row_bytes`` each: whole batch items when one item fits, else an
    even split of one item's positions."""
    rows = COLUMN_BLOCK_BYTES // row_bytes or 1
    if l_out <= rows:
        items, span = _even_step(max(b, 1), rows // l_out), l_out
    else:
        items, span = 1, _even_step(l_out, rows)
    return [(slice(i, i + items), slice(j, j + span))
            for i in range(0, b, items) for j in range(0, l_out, span)]


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Cross-correlate [B, L, C_in] with p.weight -> [B, L_out, C_out] as a GEMM over
    k-major im2col columns (in channels-last an output's k x C patch is contiguous),
    walked in the blocks of ``_blocks``; each forward GEMM writes its rows of the output
    in place. The node keeps its input, not the columns. Backward copies each block's
    columns again for ``dw`` and folds its gradient columns into its rows of one padded
    ``gx``, last block first, so a row two blocks share adds its taps in ascending
    order, as one fold of the whole gradient columns does."""
    if x.ndim != 3:
        raise ShapeError(f"conv1d expects [B, L, C], got {x.shape}")
    b, length, c = x.shape
    c_out, c_in, k = p.weight.shape
    if c != c_in:
        raise ShapeError(f"conv1d input has {c} channels, params expect {c_in}")
    pad = p.padding
    l_out = conv_out_len(length, k, 1, pad)
    # one matmul per block of output positions, the weight read as [out, k, in]
    w2 = p.weight.data.transpose(0, 2, 1).reshape(c_out, k * c)
    windows = _window_view(_padded(x.data, pad), k, 1)  # [B, L_out, k, C]
    val = np.empty((b, l_out, c_out), np.result_type(x.data, w2))
    blocks = _blocks(b, l_out, k * c * windows.itemsize)
    for at in blocks:
        np.matmul(windows[at].reshape(-1, k * c), w2.T, out=val[at].reshape(-1, c_out))
    val += p.bias.data
    x_data = x.data if p.weight.requires_grad else None  # dw reads the input, gx the weight
    def backward(g, sx, sw, sb):  # g: [B, L_out, C_out]
        if sb is not None:
            sb._accumulate(g.sum(axis=(0, 1)))
        if sw is not None:
            cols = _window_view(_padded(x_data, pad), k, 1)
            dw = np.zeros((c_out, k * c), g.dtype)
        if sx is not None:
            gx = np.zeros((b, length + 2 * pad, c), g.dtype)
        for items, positions in reversed(blocks):
            g_blk = g[items, positions]
            g2 = g_blk.reshape(-1, c_out)
            if sw is not None:
                dw += g2.T @ cols[items, positions].reshape(-1, k * c)
            if sx is not None:
                rows = slice(positions.start, positions.stop + k - 1)
                _fold_windows((g2 @ w2).reshape(*g_blk.shape[:2], k, c), gx[items, rows], 1)
        if sw is not None:
            sw._accumulate(dw.reshape(c_out, k, c).transpose(0, 2, 1))
        if sx is not None:
            sx._accumulate(gx[:, pad : pad + length] if pad else gx)
    return _result(val, (x, p.weight, p.bias), "conv1d", backward)


LAYER_NORM_EPS = 1e-5


@dataclass
class LayerNormParams:
    """Per-feature affine parameters for layer normalization over the last axis."""

    gamma: Tensor  # [D]
    beta: Tensor   # [D]

    def __post_init__(self):
        if self.gamma.ndim != 1 or self.beta.shape != self.gamma.shape:
            raise ShapeError(f"layer norm gamma {self.gamma.shape}, beta {self.beta.shape}: need [D]")

    @classmethod
    def create(cls, dim: int, dtype=np.float32) -> "LayerNormParams":
        return cls(Tensor(np.ones(dim), requires_grad=True, dtype=dtype),
                   Tensor(np.zeros(dim), requires_grad=True, dtype=dtype))


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Standardize the last axis to zero mean / unit variance, then apply gamma, beta."""
    d = p.gamma.shape[0]
    if x.shape[-1] != d:
        raise ShapeError(f"layer_norm dim {d} does not match input {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    def backward(g, sx, sg, sb):
        lead = tuple(range(g.ndim - 1))
        if sg is not None:
            sg._accumulate((g * xhat).sum(axis=lead))
        if sb is not None:
            sb._accumulate(g.sum(axis=lead))
        if sx is not None:
            gh = g * p.gamma.data
            s1 = gh.sum(axis=-1, keepdims=True)
            s2 = (gh * xhat).sum(axis=-1, keepdims=True)
            sx._accumulate((inv / d) * (d * gh - s1 - xhat * s2))
    return _result(p.gamma.data * xhat + p.beta.data, (x, p.gamma, p.beta), "layer_norm", backward)


def max_pool1d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Windowed maximum over L of [B, L, C] -> [B, L_out, C]; ties route gradient
    to the first index."""
    if x.ndim != 3:
        raise ShapeError(f"max_pool1d expects [B, L, C], got {x.shape}")
    span = (conv_out_len(x.shape[1], kernel, stride, 0) - 1) * stride + 1
    val = x.data[:, 0:span:stride].copy()
    # first index of each window's maximum: a later element wins only when strictly larger
    idx = np.zeros(val.shape, np.min_scalar_type(kernel - 1)) if _records((x,)) else None
    for j in range(1, kernel):
        sl = x.data[:, j : j + span : stride]
        if idx is not None:
            np.copyto(idx, j, where=sl > val)
        np.maximum(val, sl, out=val)
    def backward(g, sx):  # window j of each output takes g where its maximum sat at j
        hit = idx[:, :, None] == np.arange(kernel)[:, None]  # [B, L_out, kernel, C]
        sx._accumulate(_fold_windows(hit * g[:, :, None], np.zeros(sx.shape, g.dtype), stride))
    return _result(val, (x,), "max_pool1d", backward)


def avg_pool1d(x: Tensor, kernel: int, stride: int) -> Tensor:
    """Windowed mean over L of [B, L, C] -> [B, L_out, C]; gradient splits uniformly
    across the window."""
    if x.ndim != 3:
        raise ShapeError(f"avg_pool1d expects [B, L, C], got {x.shape}")
    span = (conv_out_len(x.shape[1], kernel, stride, 0) - 1) * stride + 1
    val = x.data[:, 0:span:stride].copy()
    for j in range(1, kernel):
        val += x.data[:, j : j + span : stride]
    val /= kernel
    def backward(g, sx):  # every member of a window takes an equal share
        b, l_out, c = g.shape
        share = np.broadcast_to((g / kernel)[:, :, None], (b, l_out, kernel, c))
        sx._accumulate(_fold_windows(share, np.zeros(sx.shape, share.dtype), stride))
    return _result(val, (x,), "avg_pool1d", backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the last axis: x @ weight + bias."""
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear input dim {x.shape[-1]} != weight rows {weight.shape[0]}")
    return add(matmul(x, weight), bias)


def linear_params(d_in: int, d_out: int, rng: np.random.Generator,
                  dtype=np.float32) -> tuple[Tensor, Tensor]:
    bound = 1.0 / np.sqrt(d_in)
    w = rng.uniform(-bound, bound, (d_in, d_out))
    b = rng.uniform(-bound, bound, d_out)
    return (Tensor(w, requires_grad=True, dtype=dtype),
            Tensor(b, requires_grad=True, dtype=dtype))


def relu(x: Tensor) -> Tensor:
    """max(x, 0); the backward masks with its own output (y > 0 exactly where x > 0),
    so the graph keeps no input value."""
    y = np.maximum(x.data, 0)
    return _result(y, (x,), "relu", lambda g, sx: sx._accumulate(g * (y > 0)))


def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    # piecewise form avoids exp overflow for large |z|
    pos = z >= 0
    out = np.empty_like(z)
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid_np(x.data)
    return _result(y, (x,), "sigmoid", lambda g, sx: sx._accumulate(g * y * (1.0 - y)))
