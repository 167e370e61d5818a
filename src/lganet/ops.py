"""Neural building blocks: 1-D convolution, pooling, layer norm, linear, activations.

All layers are pure functions of their inputs and parameters that hand
``_result`` their forward value and a ``backward(g)``, so they compose freely
with the ops in ``tensor``. Sequences are channels-last, [B, L, C], for every
layer: the layout of the attention stack, so no op needs a transpose around it.
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
    def in_channels(self) -> int:
        return self.weight.shape[1]

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


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Cross-correlate [B, L, C_in] with p.weight -> [B, L_out, C_out]."""
    if x.ndim != 3:
        raise ShapeError(f"conv1d expects [B, L, C], got {x.shape}")
    b, length, c = x.shape
    c_out, c_in, k = p.weight.shape
    if c != c_in:
        raise ShapeError(f"conv1d input has {c} channels, params expect {c_in}")
    pad = p.padding
    l_out = conv_out_len(length, k, 1, pad)
    xp = x.data
    if pad:
        xp = np.zeros((b, length + 2 * pad, c), x.dtype)
        xp[:, pad : pad + length] = x.data
    # k-major im2col, one matmul for every output position: in channels-last an
    # output's k x C patch is contiguous, so rows copy whole; weight read as [out, k, in]
    cols = _window_view(xp, k, 1).reshape(b * l_out, k * c)
    w2 = p.weight.data.transpose(0, 2, 1).reshape(c_out, k * c)
    val = (cols @ w2.T).reshape(b, l_out, c_out)
    val += p.bias.data
    def backward(g):  # g: [B, L_out, C_out]
        if p.bias.requires_grad:
            p.bias._accumulate(g.sum(axis=(0, 1)))
        g2 = g.reshape(b * l_out, c_out)
        if p.weight.requires_grad:
            dw = (g2.T @ cols).reshape(c_out, k, c)
            p.weight._accumulate(dw.transpose(0, 2, 1))
        if x.requires_grad:
            gx = _fold_windows((g2 @ w2).reshape(b, l_out, k, c), length + 2 * pad, 1)
            x._accumulate(gx[:, pad : pad + length] if pad else gx)
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
    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if p.gamma.requires_grad:
            p.gamma._accumulate((g * xhat).sum(axis=lead))
        if p.beta.requires_grad:
            p.beta._accumulate(g.sum(axis=lead))
        if x.requires_grad:
            gh = g * p.gamma.data
            s1 = gh.sum(axis=-1, keepdims=True)
            s2 = (gh * xhat).sum(axis=-1, keepdims=True)
            x._accumulate((inv / d) * (d * gh - s1 - xhat * s2))
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
    def backward(g):  # window j of each output takes g where its maximum sat at j
        hit = idx[:, :, None] == np.arange(kernel)[:, None]  # [B, L_out, kernel, C]
        x._accumulate(_fold_windows(hit * g[:, :, None], x.shape[1], stride))
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
    def backward(g):  # every member of a window takes an equal share
        b, l_out, c = g.shape
        share = np.broadcast_to((g / kernel)[:, :, None], (b, l_out, kernel, c))
        x._accumulate(_fold_windows(share, x.shape[1], stride))
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
    return _result(np.maximum(x.data, 0), (x,), "relu", lambda g: x._accumulate(g * (x.data > 0)))


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
    return _result(y, (x,), "sigmoid", lambda g: x._accumulate(g * y * (1.0 - y)))
