"""Full network: convolutional front-end, halving attention blocks, multi-label head."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from typing import Mapping

import numpy as np

from . import tensor
from .attention import VARIANT_SWIN, VARIANT_VIT, LgaConfig, LgaWeights, attention_core
from .errors import ConfigError, FormatError, LganetError
from .ops import (
    Conv1dParams,
    LayerNormParams,
    _blocks,
    conv1d,
    layer_norm,
    linear,
    linear_params,
    max_pool1d,
    relu,
)
from .tensor import Tensor, add, read_weights, resolve_dtype, tmean, transpose, write_weights

FRONT_BLOCKS = 4
FRONT_KERNEL = 7
FRONT_POOL = 2


@dataclass
class ModelConfig:
    """Architecture knobs; `Model` derives every block's geometry from them."""

    leads: int = 12
    input_len: int = 4096
    embed_dim: int = 128
    heads: int = 4
    num_stages: int = 4
    num_classes: int = 6
    window_len: int = 64
    stride: int = LgaConfig.stride
    query_kernel: int = LgaConfig.query_kernel
    kv_kernel: int = LgaConfig.kv_kernel
    variant: str = LgaConfig.variant
    pos_encoding: str = LgaConfig.pos_encoding
    precision: str = "f32"

    @classmethod
    def create(cls, **knobs) -> "ModelConfig":
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(knobs) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown model config fields: {sorted(unknown)}")
        for name, value in knobs.items():
            if type(value) is not type(defaults[name]):
                raise ConfigError(f"model config field {name!r} must be "
                                  f"{type(defaults[name]).__name__}, got {value!r}")
        cfg = cls(**knobs)
        cfg.validate()
        return cfg

    def stage_len(self, i: int) -> int:
        """Sequence length entering 1-based stage i (i = num_stages + 1: the head)."""
        return (self.input_len >> FRONT_BLOCKS) // self.stride ** (i - 1)

    def stage_config(self, i: int) -> LgaConfig:
        """Attention config of 1-based stage i; the positional capacity is its input length."""
        return LgaConfig(
            embed_dim=self.embed_dim, heads=self.heads, window_len=self.window_len,
            stride=self.stride, query_kernel=self.query_kernel, kv_kernel=self.kv_kernel,
            variant=self.variant, pos_encoding=self.pos_encoding, max_len=self.stage_len(i),
        )

    def validate(self) -> None:
        if self.leads < 1 or self.num_classes < 1 or self.num_stages < 1 or self.stride < 1:
            raise ConfigError("leads, num_classes, num_stages and stride must be positive")
        down = (1 << FRONT_BLOCKS) * self.stride ** self.num_stages
        if self.input_len % down or self.stage_len(self.num_stages + 1) < 1:
            raise ConfigError(
                f"input_len {self.input_len} must be a positive multiple of {down} "
                f"(front-end pools + {self.num_stages} stages of stride {self.stride})"
            )
        if self.embed_dim % 4:
            raise ConfigError(f"embed_dim must be a multiple of 4, got {self.embed_dim}")
        try:
            resolve_dtype(self.precision)
        except Exception:
            raise ConfigError(f"precision must be 'f32' or 'f64', got {self.precision!r}") from None
        self.stage_config(1).validate()  # the stages differ only in max_len, always >= 1 here
        if self.variant == VARIANT_SWIN:
            for i in range(1, self.num_stages + 1):
                n = self.stage_len(i)
                if n % min(self.window_len, n):
                    raise ConfigError(f"SWIN_LIKE window_len {self.window_len} does not divide "
                                      f"stage {i}'s sequence length {n}")

    @property
    def dtype(self) -> np.dtype:
        return resolve_dtype(self.precision)


def _within(part: str, exc: LganetError) -> LganetError:
    """``exc`` again, of the same type, its message prefixed with the model ``part``
    (``front2``, ``stage1``, ``head``) whose forward raised it."""
    return type(exc)(f"{part}: {exc}").with_traceback(exc.__traceback__)


class ResBlock:
    """conv(k) -> ReLU -> conv(k) -> add skip -> ReLU -> halving max pool, on [B, L, C]."""

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator, dtype):
        pad = FRONT_KERNEL // 2
        self.conv1 = Conv1dParams.create(in_channels, out_channels, FRONT_KERNEL, pad, rng, dtype)
        self.conv2 = Conv1dParams.create(out_channels, out_channels, FRONT_KERNEL, pad, rng, dtype)
        self.skip = None
        if in_channels != out_channels:
            self.skip = Conv1dParams.create(in_channels, out_channels, 1, 0, rng, dtype)

    def forward(self, x: Tensor) -> Tensor:
        # nested, so an unrecorded intermediate is freed as soon as the op reading it returns
        return max_pool1d(relu(add(conv1d(relu(conv1d(x, self.conv1)), self.conv2),
                                   x if self.skip is None else conv1d(x, self.skip))),
                          FRONT_POOL, FRONT_POOL)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = {
            f"{prefix}.conv1.weight": self.conv1.weight, f"{prefix}.conv1.bias": self.conv1.bias,
            f"{prefix}.conv2.weight": self.conv2.weight, f"{prefix}.conv2.bias": self.conv2.bias,
        }
        if self.skip is not None:
            out[f"{prefix}.skip.weight"] = self.skip.weight
            out[f"{prefix}.skip.bias"] = self.skip.bias
        return out


class TransformerBlock:
    """Attention with pooled 1x1-conv residual path, then a stage-widened MLP."""

    def __init__(self, lga: LgaConfig, mlp_hidden: int, rng: np.random.Generator, dtype):
        self.lga = lga
        d = lga.embed_dim
        self.attn = LgaWeights.create(lga, rng, dtype)
        self.res_conv = Conv1dParams.create(d, d, 1, 0, rng, dtype)
        self.reduce = None
        if lga.variant == VARIANT_VIT:
            # full-length attention output needs the same pooled reduction
            self.reduce = Conv1dParams.create(d, d, 1, 0, rng, dtype)
        self.norm2 = LayerNormParams.create(d, dtype)
        self.w1, self.b1 = linear_params(d, mlp_hidden, rng, dtype)
        self.w2, self.b2 = linear_params(mlp_hidden, d, rng, dtype)

    def _pool_reduce(self, t: Tensor, conv: Conv1dParams) -> Tensor:
        s = self.lga.stride
        return conv1d(max_pool1d(t, s, s), conv)

    def forward(self, x: Tensor, capture: dict | None = None) -> Tensor:
        if x.shape[1] % self.lga.stride:
            raise ConfigError(f"block input length {x.shape[1]} not divisible by stride")
        x_norm = layer_norm(x, self.attn.norm)
        y = attention_core(x_norm, self.lga, self.attn, capture)
        if self.reduce is not None:
            y = self._pool_reduce(y, self.reduce)
        z = add(y, self._pool_reduce(x_norm, self.res_conv))
        h = linear(relu(linear(layer_norm(z, self.norm2), self.w1, self.b1)), self.w2, self.b2)
        return add(z, h)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        out = self.attn.parameters(f"{prefix}.attn")
        out[f"{prefix}.res.weight"] = self.res_conv.weight
        out[f"{prefix}.res.bias"] = self.res_conv.bias
        if self.reduce is not None:
            out[f"{prefix}.reduce.weight"] = self.reduce.weight
            out[f"{prefix}.reduce.bias"] = self.reduce.bias
        out[f"{prefix}.norm2.gamma"] = self.norm2.gamma
        out[f"{prefix}.norm2.beta"] = self.norm2.beta
        out[f"{prefix}.mlp.w1"] = self.w1
        out[f"{prefix}.mlp.b1"] = self.b1
        out[f"{prefix}.mlp.w2"] = self.w2
        out[f"{prefix}.mlp.b2"] = self.b2
        return out


class Model:
    """End-to-end classifier emitting one logit per class."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.dtype = config.dtype
        rng = np.random.default_rng(seed)
        d = config.embed_dim
        # leads -> D/8 -> D/4 -> D/2 -> D; stage i's MLP is (D/4) * 2i wide
        chans = [config.leads] + [max(1, d >> (FRONT_BLOCKS - 1 - j)) for j in range(FRONT_BLOCKS)]
        self.res_blocks = [ResBlock(a, b, rng, self.dtype) for a, b in zip(chans, chans[1:])]
        self.blocks = [TransformerBlock(config.stage_config(i), d // 4 * 2 * i, rng, self.dtype)
                       for i in range(1, config.num_stages + 1)]
        self.head_w, self.head_b = linear_params(d, config.num_classes, rng, self.dtype)
        # (name, block) in forward order; every walk over the model reads this one list
        self.parts = ([(f"front{i}", blk) for i, blk in enumerate(self.res_blocks, 1)]
                      + [(f"stage{i}", blk) for i, blk in enumerate(self.blocks, 1)])

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 3 or x.shape[1] != self.config.leads or x.shape[2] != self.config.input_len:
            raise ConfigError(
                f"input shape {x.shape} does not match (B, {self.config.leads}, {self.config.input_len})"
            )
        if x.dtype != self.dtype:
            raise ConfigError(f"input dtype {x.dtype} does not match model precision {self.config.precision}")

    def _run(self, h: Tensor, parts: list, *args) -> Tensor:
        """``h`` through each block of ``parts`` in turn, ``args`` passed to each; an
        error raised inside a block names its part: ``stage2: ...``. It looks up
        ``blk.forward`` at each call, so a patch of the block's class applies."""
        for name, blk in parts:
            try:
                h = blk.forward(h, *args)
            except LganetError as exc:
                raise _within(name, exc) from None
        return h

    def front_end(self, x: Tensor) -> Tensor:
        self._check_input(x)
        # [B, leads, N] -> [B, N, leads], outside every part: an error here names none
        return self._run(transpose(x, (0, 2, 1)), self.parts[:FRONT_BLOCKS])

    def _pooled(self, x: Tensor, capture: dict | None = None) -> Tensor:
        """[B, D] features of ``x``: the front end, every stage, then the mean over
        positions (an error there names the ``head``).

        When nothing records (``no_grad``, no ``capture``) and B > 1, this runs on the
        whole-item row blocks of ``ops._blocks`` sized by one item's [H, N, N] stage-1
        scores, so the forward never holds the whole batch's intermediates and ``_mha``
        runs a block in one pass at the paper's shapes. An error raised inside a block
        of several also names its rows: ``rows 4:8: stage1: ...``."""
        self._check_input(x)
        cfg, b = self.config, x.shape[0]
        blocks = [slice(0, b)]
        if capture is None and not tensor._grad_enabled and b > 1:
            blocks = [rows for rows, _ in _blocks(b, 1, cfg.heads * cfg.stage_len(1) ** 2
                                                   * self.dtype.itemsize)]
        if len(blocks) == 1:
            h = self._run(self.front_end(x), self.parts[FRONT_BLOCKS:], capture)
            try:
                return tmean(h, axis=1)
            except LganetError as exc:
                raise _within("head", exc) from None
        pooled = np.empty((b, cfg.embed_dim), self.dtype)
        for rows in blocks:
            try:
                pooled[rows] = self._pooled(Tensor(x.data[rows])).data
            except LganetError as exc:
                raise _within(f"rows {rows.start}:{min(rows.stop, b)}", exc) from None
        return Tensor(pooled)

    def forward(self, x: Tensor, capture: dict | None = None) -> Tensor:
        """Logits [B, classes] of an input [B, leads, input_len]: ``_pooled``, then the
        head once on the whole batch, whose GEMM a block of one or two items would
        round differently, so a blocked forward's logits are the one-block forward's,
        bit for bit. An error raised inside a front-end block, a stage or the head
        names it: ``stage2: ...``."""
        pooled = self._pooled(x, capture)
        try:
            return linear(pooled, self.head_w, self.head_b)
        except LganetError as exc:
            raise _within("head", exc) from None

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, blk in self.parts:
            out.update(blk.parameters(name))
        out["head.weight"] = self.head_w
        out["head.bias"] = self.head_b
        return out

    def state_snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.parameters().items()}

    def load_state(self, state: Mapping[str, np.ndarray]) -> None:
        params = self.parameters()
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise FormatError(f"weight names mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for name, param in params.items():
            arr = np.asarray(state[name])
            if arr.shape != param.shape:
                raise FormatError(f"weight {name!r} has shape {arr.shape}, expected {param.shape}")
            param.data = arr.astype(self.dtype, copy=True)
            param.grad = None

    def save(self, path) -> None:
        """Write the weights to ``path`` and the config to ``path + ".json"``, each
        first to a temp file in the same directory; only once both are whole do they
        replace the earlier pair, so a failed save leaves that pair as it was."""
        weights, sidecar = str(path), str(path) + ".json"
        temps = {name: f"{name}.{os.getpid()}.tmp" for name in (weights, sidecar)}
        try:
            write_weights(temps[weights], self.parameters())
            with open(temps[sidecar], "w", encoding="utf-8") as fh:
                json.dump({"model": asdict(self.config)}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            for name, temp in temps.items():
                os.replace(temp, name)
        finally:
            for temp in temps.values():
                if os.path.exists(temp):
                    os.remove(temp)

    @classmethod
    def load(cls, path, precision: str | None = None) -> "Model":
        sidecar = str(path) + ".json"
        try:
            with open(sidecar, "r", encoding="utf-8") as fh:
                meta = json.load(fh)
        except FileNotFoundError:
            raise FormatError(f"missing weight sidecar {sidecar}") from None
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid weight sidecar {sidecar}: {exc}") from None
        if not isinstance(meta, dict) or not isinstance(meta.get("model"), dict):
            raise FormatError(f"weight sidecar {sidecar} lacks a 'model' section")
        cfg_dict = dict(meta["model"])
        if precision is not None:
            cfg_dict["precision"] = precision
        try:
            config = ModelConfig.create(**cfg_dict)
        except ConfigError as exc:
            raise FormatError(f"invalid weight sidecar {sidecar}: {exc}") from None
        model = cls(config, seed=0)
        model.load_state(read_weights(path))
        return model


def count_parameters(params: Mapping[str, Tensor]) -> int:
    """Total element count across a named parameter mapping."""
    return sum(t.size for t in params.values())
