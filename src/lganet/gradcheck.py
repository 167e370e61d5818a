"""Finite-difference verification of every backward implementation.

Each check builds a scalar loss from float64 inputs, compares the analytic
gradient against central differences coordinate by coordinate, and reports
the worst relative error. Used by the test suite and the `gradcheck` CLI
command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import attention, ops, tensor
from .training import bce_loss
from .model import Model, ModelConfig
from .tensor import Tensor

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-3


def rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / scale


def coordinate_rel_errors(fn: Callable[[], Tensor], inputs: Sequence[Tensor],
                          eps: float = DEFAULT_EPS) -> np.ndarray:
    """Relative error between analytic and central-difference gradients,
    one entry per coordinate of every input.

    `fn` must rebuild the forward pass from the live `inputs` tensors on
    every call; their data buffers are perturbed in place and restored.
    Only the analytic call records a graph; the finite-difference calls
    run under `no_grad`, which leaves their values unchanged.
    """
    for t in inputs:
        t.grad = None
    loss = fn()
    loss.backward()
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs]
    errors = []
    for t, ga in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        gn = np.zeros_like(flat)
        with tensor.no_grad():
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = fn().item()
                flat[i] = keep - eps
                lo = fn().item()
                flat[i] = keep
                gn[i] = (hi - lo) / (2.0 * eps)
        errors.append(rel_error(ga.reshape(-1), gn))
    for t in inputs:
        t.grad = None
    return np.concatenate(errors) if errors else np.zeros(0)


def max_rel_error(fn: Callable[[], Tensor], inputs: Sequence[Tensor],
                  eps: float = DEFAULT_EPS) -> float:
    errs = coordinate_rel_errors(fn, inputs, eps)
    return float(errs.max()) if errs.size else 0.0


def _rand(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, shape), requires_grad=True, dtype=np.float64)


def _weighted_sum(out: Tensor) -> Tensor:
    """Project onto a fixed random cotangent so errors cannot cancel.

    The generator is re-seeded per call, so repeated forward passes of one
    check see the identical loss function.
    """
    w = np.random.default_rng(12345).uniform(-1.0, 1.0, out.shape)
    return tensor.tsum(tensor.mul(out, Tensor(w, dtype=np.float64)))


@dataclass
class CheckResult:
    name: str
    max_rel: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel <= self.tol


def op_checks(seed: int = 0) -> list[tuple[str, Callable[[], float]]]:
    """One named check per differentiable operation."""
    checks: list[tuple[str, Callable[[], float]]] = []

    def register(name: str, build: Callable[[np.random.Generator], tuple]):
        def run() -> float:
            rng = np.random.default_rng(seed)
            fn, inputs = build(rng)
            return max_rel_error(fn, inputs)
        checks.append((name, run))

    def simple(name, make_inputs, forward):
        def build(rng):
            inputs = make_inputs(rng)
            return (lambda: _weighted_sum(forward(*inputs))), list(inputs)
        register(name, build)

    simple("add", lambda r: (_rand(r, (3, 4)), _rand(r, (3, 4))), tensor.add)
    simple("add_broadcast", lambda r: (_rand(r, (3, 4)), _rand(r, (4,))), tensor.add)
    simple("sub", lambda r: (_rand(r, (3, 4)), _rand(r, (3, 4))), tensor.sub)
    simple("mul", lambda r: (_rand(r, (2, 5)), _rand(r, (2, 5))), tensor.mul)
    simple("mul_scalar", lambda r: (_rand(r, (2, 5)),), lambda x: tensor.mul(x, 1.7))
    simple("add_scalar", lambda r: (_rand(r, (2, 5)),), lambda x: tensor.add(x, -0.3))
    simple("matmul", lambda r: (_rand(r, (4, 5)), _rand(r, (5, 3))), tensor.matmul)
    simple("matmul_batched", lambda r: (_rand(r, (2, 3, 4, 5)), _rand(r, (2, 3, 5, 2))), tensor.matmul)
    simple("softmax", lambda r: (_rand(r, (3, 6)),), lambda x: tensor.softmax(x, axis=-1))
    simple("sum_axis", lambda r: (_rand(r, (3, 4, 2)),), lambda x: tensor.tsum(x, axis=1))
    simple("mean_axis", lambda r: (_rand(r, (3, 4, 2)),), lambda x: tensor.tmean(x, axis=2))
    simple("transpose", lambda r: (_rand(r, (2, 3, 4)),), lambda x: tensor.transpose(x, (2, 0, 1)))
    simple("reshape", lambda r: (_rand(r, (2, 6)),), lambda x: tensor.reshape(x, (3, 4)))
    simple("slice", lambda r: (_rand(r, (4, 6)),), lambda x: x[1:3, ::2])
    simple("concat", lambda r: (_rand(r, (2, 3)), _rand(r, (2, 2))),
           lambda a, b: tensor.concatenate([a, b], axis=1))
    simple("stack", lambda r: (_rand(r, (2, 3)), _rand(r, (2, 3))),
           lambda a, b: tensor.stack([a, b], axis=1))
    simple("broadcast_to", lambda r: (_rand(r, (1, 3)),), lambda x: tensor.broadcast_to(x, (4, 3)))
    simple("pad_axis", lambda r: (_rand(r, (2, 3, 5)),), lambda x: tensor.pad_axis(x, 2, 2, 1))
    simple("unfold_windows", lambda r: (_rand(r, (2, 8, 3)),), lambda x: tensor.unfold_windows(x, 4, 2))
    simple("take_rows", lambda r: (_rand(r, (5, 3)),),
           lambda t: tensor.take_rows(t, np.array([[0, 2], [4, 2]])))
    # keep activations away from their kinks so central differences stay valid
    simple("relu", lambda r: (Tensor(r.uniform(0.1, 1.0, (3, 4)) * r.choice([-1.0, 1.0], (3, 4)),
                                     requires_grad=True, dtype=np.float64),), ops.relu)
    simple("sigmoid", lambda r: (_rand(r, (3, 4), -3, 3),), ops.sigmoid)

    def conv_build(rng):
        p = ops.Conv1dParams.create(3, 4, 3, stride=2, padding=1, rng=rng, dtype=np.float64)
        x = _rand(rng, (2, 9, 3))  # [B, L, C]
        return (lambda: _weighted_sum(ops.conv1d(x, p))), [x, p.weight, p.bias]
    register("conv1d", conv_build)

    def ln_build(rng):
        p = ops.LayerNormParams.create(6, dtype=np.float64)
        p.gamma.data = rng.uniform(0.5, 1.5, 6)
        p.beta.data = rng.uniform(-0.5, 0.5, 6)
        x = _rand(rng, (2, 3, 6))
        return (lambda: _weighted_sum(ops.layer_norm(x, p))), [x, p.gamma, p.beta]
    register("layer_norm", ln_build)

    def maxpool_build(rng):
        # well-separated values keep the argmax stable under the probe step
        vals = rng.permutation(2 * 12 * 3).reshape(2, 12, 3) * 0.05
        x = Tensor(vals, requires_grad=True, dtype=np.float64)
        return (lambda: _weighted_sum(ops.max_pool1d(x, 3, 2))), [x]
    register("max_pool1d", maxpool_build)

    simple("avg_pool1d", lambda r: (_rand(r, (2, 11, 3)),), lambda x: ops.avg_pool1d(x, 4, 2))

    def linear_build(rng):
        w, b = ops.linear_params(4, 3, rng, np.float64)
        x = _rand(rng, (5, 4))
        return (lambda: _weighted_sum(ops.linear(x, w, b))), [x, w, b]
    register("linear", linear_build)

    def bce_build(rng):
        z = _rand(rng, (4, 6), -3, 3)
        y = (rng.random((4, 6)) < 0.5).astype(np.float64)
        return (lambda: bce_loss(z, y)), [z]
    register("bce_loss", bce_build)

    def attn_build(variant, pe):
        def build(rng):
            cfg = attention.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2,
                                      variant=variant, pos_encoding=pe, max_len=8)
            w = attention.LgaWeights.create(cfg, rng, np.float64)
            x = _rand(rng, (2, 8, 4))
            inputs = [x] + list(w.parameters("a").values())
            return (lambda: _weighted_sum(attention.attention_variant(x, cfg, w))), inputs
        return build
    for variant in attention.VARIANTS:
        register(f"attention_{variant}", attn_build(variant, attention.PE_NONE))
    for pe in attention.POS_ENCODINGS[1:]:
        register(f"attention_pe_{pe}", attn_build(attention.VARIANT_LGA, pe))

    return checks


MINI_CONFIG = dict(leads=2, input_len=64, embed_dim=8, heads=2, num_stages=2,
                   num_classes=3, window_len=4, stride=2, precision="f64")


def model_check(config: ModelConfig | None = None, seed: int = 0,
                eps: float = DEFAULT_EPS) -> float:
    """End-to-end check: BCE loss of a miniature model against all parameters."""
    cfg = config or ModelConfig.create(**MINI_CONFIG)
    model = Model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = Tensor(rng.uniform(-1, 1, (1, cfg.leads, cfg.input_len)),
               requires_grad=True, dtype=np.float64)
    y = (rng.random((1, cfg.num_classes)) < 0.5).astype(np.float64)
    inputs = [x] + list(model.parameters().values())
    return max_rel_error(lambda: bce_loss(model.forward(x), y), inputs, eps)


def run_all(seed: int = 0, tol: float = DEFAULT_TOL) -> list[CheckResult]:
    results = [CheckResult(name, run(), tol) for name, run in op_checks(seed)]
    results.append(CheckResult("model_end_to_end", model_check(seed=seed), tol))
    return results
