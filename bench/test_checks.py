"""Tests of the benchmark's own machinery: every correctness check must pass
on a right output and fail on a deliberately wrong one, and the tracer must
leave lganet exactly as it found it.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import lganet  # noqa: E402
import lganet.gradcheck  # noqa: E402

import checks  # noqa: E402
import fixtures  # noqa: E402
import workloads  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402

MINI = dict(lganet.gradcheck.MINI_CONFIG)


def _mini_logits(precision: str, seed: int = 3, batch: int = 2):
    cfg = lganet.ModelConfig.create(**{**MINI, "precision": precision})
    model = lganet.Model(cfg, seed=seed)
    x = np.random.default_rng(seed).uniform(-1, 1, (batch, cfg.leads, cfg.input_len))
    return model, x


# -- infer_paper: logits ------------------------------------------------------------


def test_logits_match_f64_reference_and_wrong_ones_fail():
    model, x = _mini_logits("f32")
    ref_model, _ = _mini_logits("f64")
    ref_model.load_state(model.state_snapshot())
    with lganet.no_grad():
        logits = model.forward(lganet.Tensor(x.astype(np.float32))).data
        ref = ref_model.forward(lganet.Tensor(x, dtype="f64")).data
    assert checks.check_logits(logits, ref, 2, 3) == []
    assert checks.check_logits(logits[:1], ref, 2, 3)            # wrong batch
    assert checks.check_logits(logits[:, :2], ref, 2, 3)         # wrong class count
    bad = logits.copy()
    bad[1, 2] = np.nan
    assert checks.check_logits(bad, ref, 2, 3)
    assert checks.check_logits(logits + 1e-3, ref, 2, 3)


def test_logits_of_a_perturbed_model_fail():
    model, x = _mini_logits("f32")
    ref_model, _ = _mini_logits("f64")
    ref_model.load_state(model.state_snapshot())
    model.head_w.data[0, 0] += 0.05
    with lganet.no_grad():
        logits = model.forward(lganet.Tensor(x.astype(np.float32))).data
        ref = ref_model.forward(lganet.Tensor(x, dtype="f64")).data
    assert checks.check_logits(logits, ref, 2, 3)


# -- train_desk: losses -------------------------------------------------------------


def test_losses_must_be_finite_and_one_per_step():
    assert checks.check_losses([0.7, 0.69, 0.68], 3) == []
    assert checks.check_losses([0.7, float("nan"), 0.68], 3)
    assert checks.check_losses([0.7, float("inf"), 0.68], 3)
    assert checks.check_losses([0.7, 0.69], 3)


# -- fd_mini: finite differences ----------------------------------------------------


def test_fd_error_bound():
    tol = lganet.gradcheck.DEFAULT_TOL
    assert checks.check_fd(4.8e-6, tol) == []
    assert checks.check_fd(2e-3, tol)
    assert checks.check_fd(float("nan"), tol)


def test_fd_check_catches_a_wrong_gradient():
    cfg = lganet.ModelConfig.create(**MINI)
    model = lganet.Model(cfg, seed=0)
    rng = np.random.default_rng(100)
    x = lganet.Tensor(rng.uniform(-1, 1, (1, cfg.leads, cfg.input_len)),
                      requires_grad=True, dtype=np.float64)
    y = (rng.random((1, cfg.num_classes)) < 0.5).astype(np.float64)
    w = model.head_w

    def loss():
        return lganet.bce_loss(model.forward(x), y)

    tol = lganet.gradcheck.DEFAULT_TOL
    assert checks.check_fd(lganet.gradcheck.max_rel_error(loss, [w]), tol) == []

    def wrong_loss():  # backward reports twice the true gradient
        out = loss()
        inner = out._backward

        def doubled():
            out.grad = out.grad * 2.0
            inner()
        out._backward = doubled
        return out

    assert checks.check_fd(lganet.gradcheck.max_rel_error(wrong_loss, [w]), tol)


# -- ingest: batch cover and bytes --------------------------------------------------


def test_batch_cover():
    assert checks.check_batch_cover([np.array([2, 0]), np.array([1, 3])], 4) == []
    assert checks.check_batch_cover([np.array([2, 0]), np.array([1, 1])], 4)   # 3 missing
    assert checks.check_batch_cover([np.array([2, 0, 3]), np.array([1, 3])], 4)
    assert checks.check_batch_cover([np.array([0, 1, 2, 4])], 4)
    assert checks.check_batch_cover([], 2)


def test_same_bytes_is_exact():
    a = np.zeros(4, dtype=np.float32)
    assert checks.check_same_bytes(a, a.copy(), "x") == []
    b = a.copy()
    b[2] = -0.0  # equal as a number, different bytes
    assert checks.check_same_bytes(a, b, "x")
    assert checks.check_same_bytes(a, a.astype(np.float64), "x")


def test_canaries_match_the_committed_digests(tmp_path):
    for kind, expected in fixtures.REFERENCE_SHA256.items():
        actual = fixtures.canary_sha256(kind, str(tmp_path / kind))
        assert checks.check_digest(actual, expected, kind) == []
    assert list(tmp_path.iterdir()) == []
    other = lganet.synth_dataset(fixtures.CANARY_RECORDS, 6, seed=fixtures.REFERENCE_SEED + 1,
                                 leads=12, length=1024)
    lganet.write_dataset(other, tmp_path / "other.lgae")
    assert checks.check_digest(fixtures.sha256_of(tmp_path / "other.lgae"),
                               fixtures.REFERENCE_SHA256["desk"], "desk")


def test_fixture_rows_detect_a_corrupted_file(tmp_path):
    records = lganet.synth_dataset(5, 6, seed=1, leads=2, length=16)
    path = tmp_path / "tiny.lgae"
    lganet.write_dataset(records, path)
    read = lganet.read_dataset(path)
    with open(path, "rb") as fh:
        pids, labels, signals = workloads._fixture_rows(fh, [3, 0], 2, 16, 6)
    assert pids == [3, 0]
    assert checks.check_same_bytes(signals, np.stack([read[3].signal, read[0].signal]), "s") == []
    assert checks.check_same_bytes(labels[0], read[3].labels, "l") == []
    raw = bytearray(path.read_bytes())
    raw[fixtures.HEADER_BYTES + 3 * fixtures.record_bytes(2, 16) + 20] ^= 0x01
    path.write_bytes(bytes(raw))
    with open(path, "rb") as fh:
        _, _, signals = workloads._fixture_rows(fh, [3], 2, 16, 6)
    assert checks.check_same_bytes(signals[0], read[3].signal, "s")


# -- tracer -------------------------------------------------------------------------


def test_coverage_gate():
    assert checks.check_coverage(0.95, 1.0) == []
    assert checks.check_coverage(0.85, 1.0)
    assert checks.check_coverage(1.15, 1.0)
    assert checks.check_coverage(0.0, 0.0)
    assert checks.check_attribution(0.05, 1.0) == []
    assert checks.check_attribution(0.15, 1.0)
    assert checks.check_attribution(0.0, 0.0)


def test_restored_gate_and_patches():
    assert checks.check_restored([]) == []
    assert checks.check_restored(["tensor.add"])

    class Owner:
        value = 1

    patches = Patches()
    patches.set(Owner, "value", 2)
    saved = patches.snapshot()
    patches.restore()
    assert Owner.value == 1 and Patches.verify_restored(saved) == []
    Owner.value = 3
    assert Patches.verify_restored(saved) == ["Owner.value"]


def _train_step(model, x, y):
    loss = lganet.bce_loss(model.forward(x), y)
    loss.backward()
    grads = {k: p.grad.copy() for k, p in model.parameters().items()}
    for p in model.parameters().values():
        p.grad = None
    return float(loss.data), grads


def test_tracer_records_spans_changes_nothing_and_restores():
    cfg = lganet.ModelConfig.create(**MINI)
    model = lganet.Model(cfg, seed=0)
    rng = np.random.default_rng(5)
    x = lganet.Tensor(rng.uniform(-1, 1, (2, cfg.leads, cfg.input_len)), dtype=np.float64)
    y = (rng.random((2, cfg.num_classes)) < 0.5).astype(np.float64)
    before = {name: getattr(lganet.tensor, name) for name in ("add", "matmul", "transpose")}
    plain_loss, plain_grads = _train_step(model, x, y)

    tracer = Tracer(lganet)
    tracer.install()
    assert lganet.tensor.add is not before["add"]
    assert getattr(lganet.attention.transpose, "_bench_wrapped", False)
    tracer.bucket = "unit"
    traced_loss, traced_grads = _train_step(model, x, y)
    tracer.bucket = "other"
    assert tracer.uninstall() == []

    for name, fn in before.items():
        assert getattr(lganet.tensor, name) is fn
    assert traced_loss == plain_loss
    for k in plain_grads:
        np.testing.assert_array_equal(traced_grads[k], plain_grads[k])

    agg = tracer.agg["unit"]
    assert agg["model.forward"].calls == 1
    assert agg["model.front1"].calls == 1 and agg["model.stage2"].calls == 1
    assert agg["tensor.backward"].calls == 1
    metrics = workloads.layer_metrics(tracer, 1)
    assert metrics["ops.conv1d.calls"] > 0 and metrics["ops.conv1d.bwd_ms"] > 0
    assert metrics["model.stage1.bwd_ms"] > 0 and metrics["model.head.bwd_ms"] > 0
    assert metrics["attention.transposes"] > 0
    # spans nest: every parent id refers to a recorded span that encloses the child
    spans = {s[0]: s for s in tracer.spans}
    for span_id, _, start, end, parent in tracer.spans:
        if parent:
            p = spans[parent]
            assert p[2] <= start <= end <= p[3]
    roots = sum(end - start for _, _, start, end, parent in tracer.spans if parent == 0)
    assert tracer.covered_seconds() == pytest.approx(roots, rel=1e-6)
    assert checks.check_attribution(tracer.scope_self_seconds(),
                                    agg["model.forward"].incl) == []


def test_attribution_gate_fails_when_an_op_wrapper_is_missing():
    cfg = lganet.ModelConfig.create(**MINI)
    model = lganet.Model(cfg, seed=0)
    x = lganet.Tensor(np.random.default_rng(5).uniform(-1, 1, (2, cfg.leads, cfg.input_len)),
                      dtype=np.float64)
    tracer = Tracer(lganet)
    tracer.install()
    for module in (lganet.model, lganet.attention):  # as if conv1d had not been wrapped
        module.conv1d = module.conv1d.__wrapped__
    tracer.bucket = "unit"
    with lganet.no_grad():
        model.forward(x)
    tracer.bucket = "other"
    assert tracer.uninstall() == []
    forward_s = tracer.agg["unit"]["model.forward"].incl
    assert checks.check_attribution(tracer.scope_self_seconds(), forward_s)
