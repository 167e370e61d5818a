"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import json
import time

import numpy as np
import pytest
from test_attention import reference_queries

from lganet import attention as A
from lganet.cli import main
from lganet.data import SplitSpec, split_by_patient, synth_dataset
from lganet.gradcheck import MINI_CONFIG, model_check, op_checks
from lganet.model import Model, ModelConfig
from lganet.ops import layer_norm
from lganet.tensor import Tensor
from lganet.training import (
    ScheduleSpec,
    TrainSpec,
    compute_metrics,
    cosine_lr,
    evaluate,
    should_stop,
    train,
)

PASS_LINE = "[criterion {n:02d}] PASS  {what}"


def report(n, what):
    print("\n" + PASS_LINE.format(n=n, what=what), flush=True)


def miniature_config(**overrides):
    return ModelConfig.create(**{**MINI_CONFIG, **overrides})


def test_criterion_01_gradient_fidelity(model_checks):
    start = time.monotonic()
    worst_name, worst = "", 0.0
    for name, run in op_checks(seed=0):
        err = run()
        assert err <= 1e-3, f"{name}: max relative error {err:.3e} > 1e-3"
        if err > worst:
            worst_name, worst = name, err
    model_err = model_check(miniature_config(), seed=0, eps=1e-5)
    model_checks.record(model_err, miniature_config(), seed=0, eps=1e-5)  # timed here, reused later
    assert model_err <= 1e-3, f"miniature model: {model_err:.3e} > 1e-3"
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"gradient fidelity took {elapsed:.0f}s > 2 min"
    report(1, f"all ops + miniature model <= 1e-3 (worst op {worst_name} {worst:.1e}, "
              f"model {model_err:.1e}, {elapsed:.0f}s)")


def test_criterion_02_query_path_equivalence():
    start = time.monotonic()
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(5000 + trial)
        d = int(rng.choice([2, 4, 8]))
        s = int(rng.choice([1, 2, 4]))
        l = s + 2 * int(rng.integers(0, 4))
        halving = bool(rng.integers(0, 2))
        n = s * int(rng.integers(2, 12))
        if not halving and n < l:
            n = l + s * int(rng.integers(0, 6))
        cfg = A.LgaConfig(embed_dim=d, heads=1, window_len=l, stride=s,
                          query_kernel=int(rng.choice([1, 3, 5])), halving=halving)
        w = A.LgaWeights.create(cfg, rng, np.float64)
        x = Tensor(rng.uniform(-1, 1, (2, n, d)), dtype="f64")
        fast = A.local_queries(x, cfg, w).data
        ref = reference_queries(x, cfg, w).data
        if halving and fast.shape[1] > 2:
            diff = np.abs(fast[:, 1:-1] - ref[:, 1:-1]).max()  # interior windows
        else:
            diff = np.abs(fast - ref).max()
        worst = max(worst, float(diff))
    assert worst <= 1e-12, f"fast vs reference query path differs by {worst:.2e}"
    report(2, f"fast == reference query path over 100 configs (worst {worst:.1e}, "
              f"{time.monotonic() - start:.1f}s)")


def test_criterion_03_shape_laws():
    # (a) unpadded count reproduces the floor formula
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = int(rng.integers(1, 6))
        l = s + int(rng.integers(0, 12))
        n = l + int(rng.integers(0, 64))
        assert A.window_count(n, l, s, halving=False) == (n - l) // s + 1
    # (b) halving mode halves exactly at stride 2
    for n in range(2, 130, 2):
        assert A.window_count(n, 8, 2, halving=True) == n // 2
    # (c) default model trace
    model = Model(ModelConfig.create(), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(-0.5, 0.5, (1, 12, 4096)).astype(np.float32))
    h = model.front_end(x)
    lengths = [h.shape[1]]
    for blk in model.blocks:
        h = blk.forward(h)
        lengths.append(h.shape[1])
    logits = model.forward(x)
    assert lengths == [256, 128, 64, 32, 16] and logits.shape == (1, 6)
    report(3, "window-count law, exact halving, and 4096->256->128->64->32->16->6 trace")


def test_criterion_04_attention_rows_normalized():
    checked = 0
    for variant in A.VARIANTS:
        for pe in A.POS_ENCODINGS:
            cfg = A.LgaConfig(embed_dim=8, heads=2, window_len=4, stride=2,
                              variant=variant, pos_encoding=pe, max_len=32)
            w = A.LgaWeights.create(cfg, np.random.default_rng(3), np.float64)
            if w.ape is not None:
                w.ape.data[:] = np.random.default_rng(4).uniform(-0.5, 0.5, w.ape.shape)
            if w.rel is not None:
                w.rel.data[:] = np.random.default_rng(5).uniform(-0.5, 0.5, w.rel.shape)
            x = Tensor(np.random.default_rng(6).uniform(-1, 1, (2, 16, 8)), dtype="f64")
            capture = {}
            A.attention_variant(x, cfg, w, capture=capture)
            assert capture["attn"]
            for attn in capture["attn"]:
                assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-6
                checked += 1
    report(4, f"softmax rows sum to 1 +/- 1e-6 in {checked} matrices "
              f"(5 variants x 4 encodings)")


def test_criterion_05_degenerate_oracles():
    # single token: identity projections collapse to output = 2 * LN(x)
    cfg = A.LgaConfig(embed_dim=3, heads=1, window_len=1, stride=1,
                      query_kernel=1, kv_kernel=1)
    w = A.LgaWeights.create(cfg, np.random.default_rng(7), np.float64)
    eye = np.eye(3)[:, :, None]
    for conv in (w.conv_q, w.conv_k, w.conv_v):
        conv.weight.data = eye.copy()
        conv.bias.data = np.zeros(3)
    x = Tensor(np.random.default_rng(8).uniform(-1, 1, (2, 1, 3)), dtype="f64")
    out = A.attention_variant(x, cfg, w)
    assert np.array_equal(out.data, 2.0 * layer_norm(x, w.norm).data)

    # all-equal keys: every query attends to the temporal mean of V
    cfg2 = A.LgaConfig(embed_dim=4, heads=2, window_len=4, stride=2, kv_kernel=1)
    w2 = A.LgaWeights.create(cfg2, np.random.default_rng(9), np.float64)
    w2.conv_k.weight.data[:] = 0.0
    x2 = Tensor(np.random.default_rng(10).uniform(-1, 1, (2, 8, 4)), dtype="f64")
    xn = layer_norm(x2, w2.norm)
    q = A.local_queries(xn, cfg2, w2)
    _, v = A.global_kv(xn, cfg2, w2)
    attended = A.attention_variant(x2, cfg2, w2).data - q.data
    err = np.abs(attended - v.data.mean(axis=1, keepdims=True)).max()
    assert err <= 1e-10
    report(5, f"single-token output == 2*LN(x) exactly; uniform-key mean within {err:.1e}")


def test_criterion_06_schedule_and_stopping():
    spec = ScheduleSpec(1e-4, 1e-5, 50)
    assert cosine_lr(0, spec) == 1e-4
    assert cosine_lr(49, spec) == 1e-5
    assert not should_stop([1.0] + [1.0] * 6, patience=7)
    assert should_stop([1.0] + [1.0] * 7, patience=7)
    assert not should_stop([1.0] + [1.1] * 6 + [0.9] + [1.2] * 6, patience=7)
    assert should_stop([1.0] + [1.1] * 6 + [0.9] + [1.2] * 7, patience=7)
    assert not should_stop([1.0, 0.9, 0.8, 0.7, 0.6, 0.5], patience=7)
    report(6, "lr endpoints exact (1e-4 -> 1e-5); stop fires exactly at 7 stale epochs")


def test_criterion_07_metrics_oracle():
    rng = np.random.default_rng(12)
    probs = rng.random((1000, 6))
    labels = (rng.random((1000, 6)) < 0.35).astype(int)
    rep = compute_metrics(probs, labels, threshold=0.5)
    for k in range(6):
        tp = fp = fn = tn = 0
        for i in range(1000):
            p = probs[i, k] >= 0.5
            y = labels[i, k] == 1
            tp += p and y
            fp += p and not y
            fn += (not p) and y
            tn += (not p) and (not y)
        c = rep.classes[k]
        assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
    assert rep.macro_f1 == pytest.approx(np.mean([c.f1 for c in rep.classes]), abs=1e-15)
    report(7, "confusion counts equal brute force on 1000 pairs; macro-F1 is the mean")


def test_criterion_08_desk_scale_learning():
    start = time.monotonic()
    records = synth_dataset(512, 6, seed=42, leads=12, length=1024)
    tr, val, dev = split_by_patient(records, SplitSpec(seed=42), require_nonempty=True)
    config = ModelConfig.create(leads=12, input_len=1024, embed_dim=64, heads=4,
                                num_stages=3, window_len=16, num_classes=6)
    model = Model(config, seed=42)
    spec = TrainSpec(schedule=ScheduleSpec(3e-3, 3e-4, 50), batch_size=32,
                     seed=42, stop_macro_f1=0.999)
    log = train(model, tr, val, spec)
    assert len(log) <= 50
    rep = evaluate(model, dev)
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0, f"training took {elapsed:.0f}s > 10 min"
    assert rep.macro_f1 >= 0.95, f"held-out macro-F1 {rep.macro_f1:.4f} < 0.95"

    # a depth-0 majority predictor stays near chance on the same split
    train_labels = np.stack([r.labels for r in tr])
    majority = (train_labels.mean(axis=0) >= 0.5).astype(float)
    dev_labels = np.stack([r.labels for r in dev])
    baseline = compute_metrics(np.tile(majority, (len(dev), 1)), dev_labels)
    assert baseline.macro_f1 <= 0.5 < rep.macro_f1
    report(8, f"held-out macro-F1 {rep.macro_f1:.3f} >= 0.95 after {len(log)} epochs "
              f"({elapsed / 60:.1f} min); majority baseline {baseline.macro_f1:.2f}")


def _forward_trace_and_rows(config):
    model = Model(config, seed=1)
    x = Tensor(np.random.default_rng(2).uniform(-0.5, 0.5,
               (1, config.leads, config.input_len)).astype(np.float32))
    capture = {}
    h = model.front_end(x)
    n = h.shape[1]
    for blk in model.blocks:
        h = blk.forward(h, capture)
        n //= 2
        assert h.shape[1] == n
    for attn in capture["attn"]:
        assert np.abs(attn.sum(axis=-1) - 1.0).max() <= 1e-6
    logits = model.forward(x)
    assert logits.shape == (1, config.num_classes)


def test_criterion_09_ablation_parity(tmp_path, model_checks):
    settings = [("variant", v) for v in A.VARIANTS]
    settings += [("pos_encoding", p) for p in A.POS_ENCODINGS[1:]]
    for knob, value in settings:
        # criterion 1, unchanged: miniature end-to-end gradient fidelity
        err = model_checks(miniature_config(**{knob: value}), seed=0)
        assert err <= 1e-3, f"{knob}={value}: gradient error {err:.2e}"
        # criteria 3 and 4, unchanged: halving trace + normalized rows
        _forward_trace_and_rows(ModelConfig.create(
            leads=4, input_len=512, embed_dim=16, heads=2, num_stages=2,
            num_classes=6, window_len=4, stride=2, **{knob: value}))

    # the harness emits one row per setting, per-class F1 columns plus the macro
    data = tmp_path / "d.lgae"
    assert main(["synth", "--n", "30", "--out", str(data), "--seed", "9",
                 "--leads", "3", "--length", "256"]) == 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": 5,
        "model": {"leads": 3, "input_len": 256, "embed_dim": 16, "heads": 2,
                  "num_stages": 2, "num_classes": 6, "window_len": 4, "stride": 2},
        "train": {"lr_start": 3e-3, "lr_end": 3e-4, "epochs": 1, "batch_size": 8},
        "split": {"train": 0.7, "val": 0.2, "dev": 0.1, "seed": 0},
        "data": {"dataset": str(data)},
    }))
    out = tmp_path / "ablate"
    assert main(["ablate", "--config", str(cfg_path), "--axis", "attention",
                 "--out", str(out)]) == 0
    rows = (out / "ablation_attention.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + len(A.VARIANTS)
    header = rows[0].split(",")
    assert header[0] == "attention" and header[-1] == "macro_f1"
    assert sum(1 for c in header if c.startswith("f1_")) == 6
    assert main(["ablate", "--config", str(cfg_path), "--axis", "pe",
                 "--out", str(out)]) == 0
    pe_rows = (out / "ablation_pe.csv").read_text().strip().splitlines()
    assert len(pe_rows) == 1 + len(A.POS_ENCODINGS)
    report(9, "5 variants + 4 encodings pass gradient/shape/normalization checks; "
              "ablation tables have one row per setting")


def test_criterion_10_training_determinism(tmp_path):
    data = tmp_path / "d.lgae"
    assert main(["synth", "--n", "30", "--out", str(data), "--seed", "13",
                 "--leads", "3", "--length", "256"]) == 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": 21,
        "precision": "f64",
        "model": {"leads": 3, "input_len": 256, "embed_dim": 16, "heads": 2,
                  "num_stages": 2, "num_classes": 6, "window_len": 4, "stride": 2},
        "train": {"lr_start": 1e-3, "lr_end": 1e-4, "epochs": 2, "batch_size": 8},
        "split": {"train": 0.7, "val": 0.2, "dev": 0.1, "seed": 0},
        "data": {"dataset": str(data)},
    }))
    digests = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        h = hashlib.sha256()
        for name in ("weights.lgaw", "training_log.csv", "metrics.json",
                     "effective_config.json"):
            h.update((out / name).read_bytes())
        digests.append(h.hexdigest())
    assert digests[0] == digests[1]
    report(10, f"two identical f64 runs hash to {digests[0][:12]}... for weights and logs")
