"""Local-global attention: averaged windowed queries attending to global keys/values.

The main layer normalizes its input, builds one query per overlapping
temporal window (convolutional projection averaged over the window),
attends to keys/values convolved from the whole sequence, and adds the
query tensor back as a residual. Four alternative attention mechanisms
and three positional-encoding strategies live behind the same interface
for ablation runs.

Every variant is scaled dot-product attention and differs only in how it
builds Q, K, V and the relative score bias: each core builds those as
`[B', M, D]` queries and `[B', N, D]` keys/values and calls the one kernel,
`_mha`. It is one op, recorded as one graph node whose parents are Q, K, V and
the bias: it splits heads, forms scores, biases and softmaxes them and takes
the weighted sum in blocks of whole batch rows (at most `COLUMN_BLOCK_BYTES`
of scores unless one row is larger), and its backward recomputes each block's
softmax instead of keeping it, so neither a no-grad forward nor a recorded
graph holds all the scores at once. A no-grad `Model.forward` already runs its
stages on item blocks sized by one item's stage-1 scores, so at the paper's
shapes it hands `_mha` a single block. Only `SWIN_LIKE`, whose windows do not
overlap, makes every window a batch row. `LOCAL_QKV` masks its scores to each
window's band of keys, so its captured weights are `[B, H, M, N + 2·halo]`, zero
off the band.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .ops import Conv1dParams, LayerNormParams, _blocks, avg_pool1d, conv1d, layer_norm
from .tensor import (
    Tensor,
    _check_finite,
    _result,
    add,
    concatenate,
    narrow,
    pad_axis,
    reshape,
    take_rows,
    transpose,
)

VARIANT_LGA = "LGA"
VARIANT_VIT = "VIT_LIKE"
VARIANT_SWIN = "SWIN_LIKE"
VARIANT_GLOBAL_QKV = "GLOBAL_QKV"
VARIANT_LOCAL_QKV = "LOCAL_QKV"
VARIANTS = (VARIANT_LGA, VARIANT_VIT, VARIANT_SWIN, VARIANT_GLOBAL_QKV, VARIANT_LOCAL_QKV)

PE_NONE = "NONE"
PE_SINUSOIDAL = "SINUSOIDAL_APE"
PE_LEARNABLE = "LEARNABLE_APE"
PE_RELATIVE = "RELATIVE"
POS_ENCODINGS = (PE_NONE, PE_SINUSOIDAL, PE_LEARNABLE, PE_RELATIVE)


@dataclass
class LgaConfig:
    """Hyperparameters of one attention layer."""

    embed_dim: int
    heads: int
    window_len: int
    stride: int = 2
    query_kernel: int = 3
    kv_kernel: int = 3
    variant: str = VARIANT_LGA
    pos_encoding: str = PE_NONE
    halving: bool = True
    max_len: int | None = None  # positional table capacity

    @property
    def halo(self) -> int:
        """Zero padding per side used in halving mode so M = N / stride."""
        return (self.window_len - self.stride) // 2 if self.halving else 0

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown attention variant {self.variant!r}, expected one of {VARIANTS}")
        if self.pos_encoding not in POS_ENCODINGS:
            raise ConfigError(f"unknown positional encoding {self.pos_encoding!r}, expected one of {POS_ENCODINGS}")
        if self.embed_dim <= 0 or self.heads <= 0 or self.embed_dim % self.heads:
            raise ConfigError(f"embed_dim {self.embed_dim} must be a positive multiple of heads {self.heads}")
        if not self.window_len >= self.stride >= 1:
            raise ConfigError(f"need window_len >= stride >= 1, got {self.window_len}, {self.stride}")
        if self.query_kernel < 1 or self.query_kernel % 2 == 0:
            raise ConfigError(f"query_kernel must be positive and odd, got {self.query_kernel}")
        if self.kv_kernel < 1 or self.kv_kernel % 2 == 0:
            raise ConfigError(f"kv_kernel must be positive and odd, got {self.kv_kernel}")
        if self.halving and (self.window_len - self.stride) % 2:
            raise ConfigError(
                f"halving mode needs even window_len-stride, got {self.window_len}-{self.stride}"
            )
        if self.pos_encoding != PE_NONE and (self.max_len is None or self.max_len < 1):
            raise ConfigError("positional encodings require a positive max_len table capacity")


def sinusoidal_encoding(n: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Fixed interleaved sin/cos table: row p is [sin(p/w_0), cos(p/w_0), sin(p/w_1), ...]."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    pair = np.arange(0, dim, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, pair / dim)
    table = np.zeros((n, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)[:, : dim // 2]
    return table.astype(dtype)


@dataclass
class LgaWeights:
    """Learnable state of one attention layer (including its layer norm)."""

    norm: LayerNormParams
    conv_q: Conv1dParams | None
    conv_k: Conv1dParams | None
    conv_v: Conv1dParams | None
    ape: Tensor | None = None  # [max_len, D]; fixed for sinusoidal, learnable otherwise
    rel: Tensor | None = None  # [2*max_len + 1] offset table gathered into score bias

    @classmethod
    def create(cls, cfg: LgaConfig, rng: np.random.Generator, dtype=np.float32) -> "LgaWeights":
        cfg.validate()
        d = cfg.embed_dim
        norm = LayerNormParams.create(d, dtype)
        conv_q = conv_k = conv_v = None
        if cfg.variant != VARIANT_LOCAL_QKV:
            kernels = ((cfg.query_kernel, cfg.kv_kernel, cfg.kv_kernel)
                       if cfg.variant in (VARIANT_LGA, VARIANT_GLOBAL_QKV) else (1, 1, 1))
            conv_q, conv_k, conv_v = (Conv1dParams.create(d, d, k, (k - 1) // 2, rng, dtype)
                                      for k in kernels)
        ape = rel = None
        if cfg.pos_encoding == PE_SINUSOIDAL:
            ape = Tensor(sinusoidal_encoding(cfg.max_len, d, dtype))
        elif cfg.pos_encoding == PE_LEARNABLE:
            ape = Tensor(rng.uniform(-0.02, 0.02, (cfg.max_len, d)),
                         requires_grad=True, dtype=dtype)
        elif cfg.pos_encoding == PE_RELATIVE:
            # zero init: identical to no encoding until trained
            rel = Tensor(np.zeros(2 * cfg.max_len + 1), requires_grad=True, dtype=dtype)
        return cls(norm, conv_q, conv_k, conv_v, ape, rel)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {f"{prefix}.norm.gamma": self.norm.gamma, f"{prefix}.norm.beta": self.norm.beta}
        for tag, conv in (("q", self.conv_q), ("k", self.conv_k), ("v", self.conv_v)):
            if conv is not None:
                out[f"{prefix}.conv_{tag}.weight"] = conv.weight
                out[f"{prefix}.conv_{tag}.bias"] = conv.bias
        if self.ape is not None and self.ape.requires_grad:
            out[f"{prefix}.ape"] = self.ape
        if self.rel is not None:
            out[f"{prefix}.rel"] = self.rel
        return out


def window_count(n: int, window_len: int, stride: int, halving: bool = True) -> int:
    """Number of query windows over a length-n sequence."""
    if not window_len >= stride >= 1:
        raise ShapeError(f"need window_len >= stride >= 1, got {window_len}, {stride}")
    if halving:
        if n < stride:
            raise ShapeError(f"sequence length {n} shorter than stride {stride}")
        return n // stride
    if n < window_len:
        raise ShapeError(f"sequence length {n} shorter than window {window_len} (unpadded mode)")
    return (n - window_len) // stride + 1


# -- positional encoding helpers ----------------------------------------------


def _ape_rows(w: LgaWeights, cfg: LgaConfig, n: int) -> Tensor:
    """Absolute encodings for positions 0..n-1 as [1, n, D]."""
    return reshape(narrow(w.ape, slice(0, n)), (1, n, cfg.embed_dim))


def _halo_pad(t: Tensor, cfg: LgaConfig) -> Tensor:
    """Zero-pad the sequence axis of [B, N, D] by the halving halo on each side."""
    return pad_axis(t, 1, cfg.halo, cfg.halo) if cfg.halo else t


def _relative_bias(w: LgaWeights, cfg: LgaConfig, m: int, n: int,
                   step: int = 1, start: int = 0) -> Tensor | None:
    """[m, n] score bias gathered from the offset table for queries at
    positions start + i * step and keys at 0..n-1, offsets clipped to the
    table's +-max_len; None unless RELATIVE."""
    if cfg.pos_encoding != PE_RELATIVE:
        return None
    cap = cfg.max_len
    offsets = np.arange(n)[None, :] - (np.arange(m) * step + start)[:, None]
    return take_rows(w.rel, np.clip(offsets, -cap, cap) + cap)


# -- core attention pieces -----------------------------------------------------


def _mha(q: Tensor, k: Tensor, v: Tensor, heads: int,
         bias: Tensor | None, capture: dict | None) -> Tensor:
    """Multi-head scaled dot-product attention; q is [B', M, D], k/v [B', N, D] -> [B', M, D].

    One op, walked in the batch-row blocks of ``ops._blocks`` (at most
    ``COLUMN_BLOCK_BYTES`` of scores unless one row is larger): a block splits its rows
    into heads (K straight to [b, H, Dh, N]), softmaxes its scores plus the [M, N]
    ``bias`` in place and writes its rows of one [B', H, M, Dh] output. A capture dict
    gets the weights as one [B', H, M, N] array. The node keeps q, k, v and the bias;
    its backward recomputes each block's weights, so the graph holds no scores.
    """
    b, m, d = q.shape
    n = k.shape[1]
    dh = d // heads
    # a Python float is a "weak" scalar (NEP 50): a numpy float64 here would promote f32 to f64
    scale = float(1.0 / np.sqrt(dh))
    operands = (q, k, v) if bias is None else (q, k, v, bias)
    q_data, k_data, v_data = q.data, k.data, v.data
    bias_data = None if bias is None else bias.data
    dtype = np.result_type(*(t.data for t in operands))
    full = (b, heads, m, n)
    blocks = [at for at, _ in _blocks(b, 1, heads * m * n * dtype.itemsize)]

    def split(data, at, axes):  # the block's rows of [B', L, D] as heads
        return np.ascontiguousarray(data[at].reshape(-1, data.shape[1], heads, dh).transpose(axes))

    def weights_of(at):  # the block's heads of q and k, and its softmax weights
        qs, ks = split(q_data, at, (0, 2, 1, 3)), split(k_data, at, (0, 2, 3, 1))
        s = np.matmul(qs, ks)
        _check_finite(s, "matmul", ((b, heads, m, dh), (b, heads, dh, n)))
        s *= scale
        _check_finite(s, "mul_scalar", (full,))
        if bias_data is not None:
            s += bias_data
            _check_finite(s, "add", (full, bias_data.shape))
        s -= s.max(axis=-1, keepdims=True)  # softmax, in tensor.softmax's order
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        _check_finite(s, "softmax", (full,))
        return qs, ks, s

    heads_out = np.empty((b, heads, m, dh), dtype)
    weights = np.empty(full, dtype) if capture is not None else None
    for at in blocks:
        _, _, y = weights_of(at)
        if weights is not None:
            weights[at] = y
        np.matmul(y, split(v_data, at, (0, 2, 1, 3)), out=heads_out[at])
    if weights is not None:
        capture.setdefault("attn", []).append(weights)

    def backward(g, sq, sk, sv, sb=None):
        # per block, the steps of matmul, softmax, add, mul and matmul backward in turn
        gq, gk, gv = (np.empty(shape, dtype) for shape in
                      ((b, heads, m, dh), (b, heads, dh, n), (b, heads, n, dh)))
        gb = np.zeros((m, n), dtype)
        for at in blocks:
            qs, ks, y = weights_of(at)
            np.matmul(np.swapaxes(y, -1, -2), g[at], out=gv[at])
            gs = np.matmul(g[at], np.swapaxes(split(v_data, at, (0, 2, 1, 3)), -1, -2))
            gs -= (gs * y).sum(axis=-1, keepdims=True)
            gs *= y
            if sb is not None:  # one [M, N] row at a time, in order, as sum(axis=(0, 1)) adds
                for row in gs.reshape(-1, m, n):
                    gb += row
            gs *= scale
            np.matmul(gs, np.swapaxes(ks, -1, -2), out=gq[at])
            np.matmul(np.swapaxes(qs, -1, -2), gs, out=gk[at])
        for sink, grad, merge in ((sq, gq, (0, 2, 1, 3)), (sk, gk, (0, 3, 1, 2)),
                                  (sv, gv, (0, 2, 1, 3))):
            if sink is not None:
                sink._accumulate(grad.transpose(merge).reshape(sink.shape))
        if sb is not None:
            sb._accumulate(gb)

    out = _result(heads_out, operands, "attention", backward)
    return reshape(transpose(out, (0, 2, 1, 3)), (b, m, d))


def local_queries(x_norm: Tensor, cfg: LgaConfig, w: LgaWeights) -> Tensor:
    """One averaged convolutional query per overlapping window -> [B, M, D].

    Convolves the whole (halo-padded) sequence once and average-pools with
    kernel=window_len, stride=stride.
    """
    window_count(x_norm.shape[1], cfg.window_len, cfg.stride, cfg.halving)  # shape validation
    # the conv's own zero padding also supplies the halo
    conv = replace(w.conv_q, padding=w.conv_q.padding + cfg.halo)
    return avg_pool1d(conv1d(x_norm, conv), cfg.window_len, cfg.stride)


def global_kv(x_norm: Tensor, cfg: LgaConfig, w: LgaWeights) -> tuple[Tensor, Tensor]:
    """Shape-preserving convolutions over the whole sequence -> (K, V), each [B, N, D].

    K and V share one conv with 2·D output channels, so each im2col block is copied once
    for both.
    """
    ck, cv = w.conv_k, w.conv_v
    d = ck.out_channels
    kv = replace(ck, weight=concatenate([ck.weight, cv.weight]),
                 bias=concatenate([ck.bias, cv.bias]))
    out = conv1d(x_norm, kv)
    return narrow(out, (..., slice(0, d))), narrow(out, (..., slice(d, None)))


def _pointwise_qkv(x_norm: Tensor, cfg: LgaConfig, w: LgaWeights) -> tuple[Tensor, Tensor, Tensor]:
    """1x1-conv Q, K, V over every position, absolute encodings added to Q and K."""
    q, k, v = (conv1d(x_norm, c) for c in (w.conv_q, w.conv_k, w.conv_v))
    if cfg.pos_encoding in (PE_SINUSOIDAL, PE_LEARNABLE):
        pe = _ape_rows(w, cfg, x_norm.shape[1])
        q, k = add(q, pe), add(k, pe)
    return q, k, v


def _lga_core(x_norm: Tensor, cfg: LgaConfig, w: LgaWeights, capture: dict | None) -> Tensor:
    if cfg.variant == VARIANT_GLOBAL_QKV:
        # queries built exactly like keys/values, then pooled: window == stride
        cfg = replace(cfg, window_len=cfg.stride)
    n = x_norm.shape[1]
    q = local_queries(x_norm, cfg, w)
    k, v = global_kv(x_norm, cfg, w)
    if cfg.pos_encoding in (PE_SINUSOIDAL, PE_LEARNABLE):
        pe = _ape_rows(w, cfg, n)
        q = add(q, avg_pool1d(_halo_pad(pe, cfg), cfg.window_len, cfg.stride))
        k = add(k, pe)
    # a query sits at its window start in true (unpadded) coordinates
    bias = _relative_bias(w, cfg, q.shape[1], n, cfg.stride, -cfg.halo)
    return add(_mha(q, k, v, cfg.heads, bias, capture), q)  # Q kept as a residual


def _vit_core(x_norm: Tensor, cfg: LgaConfig, w: LgaWeights, capture: dict | None) -> Tensor:
    n = x_norm.shape[1]
    q, k, v = _pointwise_qkv(x_norm, cfg, w)
    return _mha(q, k, v, cfg.heads, _relative_bias(w, cfg, n, n), capture)


def _swin_core(x_norm: Tensor, cfg: LgaConfig, w: LgaWeights, capture: dict | None) -> Tensor:
    b, n, d = x_norm.shape
    win = min(cfg.window_len, n)
    if n % win:
        raise ConfigError(f"sequence length {n} not divisible by attention window {win}")
    # each non-overlapping window attends within itself, as one batch row
    q, k, v = (reshape(t, (b * (n // win), win, d)) for t in _pointwise_qkv(x_norm, cfg, w))
    o = _mha(q, k, v, cfg.heads, _relative_bias(w, cfg, win, win), capture)
    return avg_pool1d(reshape(o, (b, n, d)), cfg.stride, cfg.stride)


def _local_core(x_norm: Tensor, cfg: LgaConfig, w: LgaWeights, capture: dict | None) -> Tensor:
    n, l, s = x_norm.shape[1], cfg.window_len, cfg.stride
    window_count(n, l, s, cfg.halving)  # shape validation
    xp = k = _halo_pad(x_norm, cfg)
    q = avg_pool1d(xp, l, s)  # mean of raw window embeddings
    if cfg.pos_encoding in (PE_SINUSOIDAL, PE_LEARNABLE):
        pe = _halo_pad(_ape_rows(w, cfg, n), cfg)
        q, k = add(q, avg_pool1d(pe, l, s)), add(k, pe)
    # query i sees only its window's keys i*s .. i*s+l-1: -1e30 (_result refuses -inf)
    # keeps every score finite and gives each key outside the band a weight of exactly 0
    offsets = np.arange(xp.shape[1]) - s * np.arange(q.shape[1])[:, None]
    bias = Tensor(np.where((offsets >= 0) & (offsets < l), 0.0, -1e30), dtype=x_norm.dtype)
    rel = _relative_bias(w, cfg, *offsets.shape, s)
    return add(_mha(q, k, xp, cfg.heads, bias if rel is None else add(rel, bias), capture), q)


_CORES = {
    VARIANT_LGA: _lga_core,
    VARIANT_VIT: _vit_core,
    VARIANT_SWIN: _swin_core,
    VARIANT_GLOBAL_QKV: _lga_core,
    VARIANT_LOCAL_QKV: _local_core,
}


def attention_core(x_norm: Tensor, cfg: LgaConfig, w: LgaWeights,
                   capture: dict | None = None) -> Tensor:
    """Dispatch the configured variant on an already-normalized input."""
    try:
        core = _CORES[cfg.variant]
    except KeyError:
        raise ConfigError(f"unknown attention variant {cfg.variant!r}") from None
    n = x_norm.shape[1]
    if cfg.pos_encoding != PE_NONE and n > cfg.max_len:
        raise ConfigError(f"sequence length {n} exceeds positional table capacity {cfg.max_len}")
    return core(x_norm, cfg, w, capture)


def attention_variant(x: Tensor, cfg: LgaConfig, w: LgaWeights, capture: dict | None = None) -> Tensor:
    """Layer norm followed by the configured attention variant."""
    return attention_core(layer_norm(x, w.norm), cfg, w, capture)
