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
from .tensor import Tensor, _records, _result, _window_view, add, matmul


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
    """Weights and geometry of one 1-D convolution (cross-correlation, zero padded)."""

    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int
    padding: int
    weight: Tensor  # [out, in, k]
    bias: Tensor    # [out]

    def __post_init__(self):
        expected = (self.out_channels, self.in_channels, self.kernel_size)
        if self.weight.shape != expected:
            raise ShapeError(f"conv weight shape {self.weight.shape} != {expected}")
        if self.bias.shape != (self.out_channels,):
            raise ShapeError(f"conv bias shape {self.bias.shape} != ({self.out_channels},)")

    @classmethod
    def create(cls, in_channels, out_channels, kernel_size, stride=1, padding=0,
               rng: np.random.Generator | None = None, dtype=np.float32) -> "Conv1dParams":
        fan_in = in_channels * kernel_size
        bound = 1.0 / np.sqrt(fan_in)
        if rng is None:
            w = np.zeros((out_channels, in_channels, kernel_size))
            b = np.zeros(out_channels)
        else:
            w = rng.uniform(-bound, bound, (out_channels, in_channels, kernel_size))
            b = rng.uniform(-bound, bound, out_channels)
        return cls(in_channels, out_channels, kernel_size, stride, padding,
                   Tensor(w, requires_grad=True, dtype=dtype),
                   Tensor(b, requires_grad=True, dtype=dtype))


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Cross-correlate [B, L, C_in] with p.weight -> [B, L_out, C_out]."""
    if x.ndim != 3:
        raise ShapeError(f"conv1d expects [B, L, C], got {x.shape}")
    b, length, c = x.shape
    if c != p.in_channels:
        raise ShapeError(f"conv1d input has {c} channels, params expect {p.in_channels}")
    k, s, pad = p.kernel_size, p.stride, p.padding
    l_out = conv_out_len(length, k, s, pad)
    xp = np.pad(x.data, ((0, 0), (pad, pad), (0, 0))) if pad else x.data
    # k-major im2col, one matmul for every output position: in channels-last an
    # output's k x C patch is contiguous, so rows copy whole; weight read as [out, k, in]
    cols = _window_view(xp, k, s).swapaxes(2, 3).reshape(b * l_out, k * c)
    w2 = p.weight.data.transpose(0, 2, 1).reshape(p.out_channels, k * c)
    val = (cols @ w2.T).reshape(b, l_out, p.out_channels)
    val += p.bias.data
    def backward(g):  # g: [B, L_out, C_out]
        if p.bias.requires_grad:
            p.bias._accumulate(g.sum(axis=(0, 1)))
        g2 = g.reshape(b * l_out, p.out_channels)
        if p.weight.requires_grad:
            dw = (g2.T @ cols).reshape(p.out_channels, k, c)
            p.weight._accumulate(dw.transpose(0, 2, 1))
        if x.requires_grad:
            dcols = (g2 @ w2).reshape(b, l_out, k, c)
            gx = np.zeros((b, length + 2 * pad, c), dtype=x.dtype)
            for j in range(k):
                gx[:, j : j + (l_out - 1) * s + 1 : s] += dcols[:, :, j]
            x._accumulate(gx[:, pad : pad + length] if pad else gx)
    return _result(val, (x, p.weight, p.bias), "conv1d", backward)


@dataclass
class LayerNormParams:
    """Per-feature affine parameters for layer normalization over the last axis."""

    dim: int
    gamma: Tensor
    beta: Tensor
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.gamma.shape != (self.dim,) or self.beta.shape != (self.dim,):
            raise ShapeError(f"layer norm affine shapes must be ({self.dim},)")

    @classmethod
    def create(cls, dim: int, dtype=np.float32, epsilon: float = 1e-5) -> "LayerNormParams":
        return cls(dim,
                   Tensor(np.ones(dim), requires_grad=True, dtype=dtype),
                   Tensor(np.zeros(dim), requires_grad=True, dtype=dtype),
                   epsilon)


def layer_norm(x: Tensor, p: LayerNormParams) -> Tensor:
    """Standardize the last axis to zero mean / unit variance, then apply gamma, beta."""
    if x.shape[-1] != p.dim:
        raise ShapeError(f"layer_norm dim {p.dim} does not match input {x.shape}")
    d = p.dim
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + p.epsilon)
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
    def backward(g):
        gx = np.zeros_like(x.data)
        for j in range(kernel):
            gx[:, j : j + span : stride] += np.where(idx == j, g, 0)
        x._accumulate(gx)
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
    def backward(g):
        share = g / kernel
        gx = np.zeros_like(x.data)
        for j in range(kernel):
            gx[:, j : j + span : stride] += share
        x._accumulate(gx)
    return _result(val, (x,), "avg_pool1d", backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map over the last axis: x @ weight + bias."""
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"linear input dim {x.shape[-1]} != weight rows {weight.shape[0]}")
    return add(matmul(x, weight), bias)


def linear_params(d_in: int, d_out: int, rng: np.random.Generator | None = None,
                  dtype=np.float32) -> tuple[Tensor, Tensor]:
    bound = 1.0 / np.sqrt(d_in)
    if rng is None:
        w, b = np.zeros((d_in, d_out)), np.zeros(d_out)
    else:
        w = rng.uniform(-bound, bound, (d_in, d_out))
        b = rng.uniform(-bound, bound, d_out)
    return (Tensor(w, requires_grad=True, dtype=dtype),
            Tensor(b, requires_grad=True, dtype=dtype))


def relu(x: Tensor) -> Tensor:
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    return _result(np.maximum(x_t.data, 0), (x_t,), "relu",
                   lambda g: x_t._accumulate(g * (x_t.data > 0)))


def _sigmoid_np(z: np.ndarray) -> np.ndarray:
    # piecewise form avoids exp overflow for large |z|
    pos = z >= 0
    out = np.empty_like(z)
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    y = _sigmoid_np(x_t.data)
    return _result(y, (x_t,), "sigmoid", lambda g: x_t._accumulate(g * y * (1.0 - y)))
