"""Loss, optimizer, schedule, early stopping, metrics, and the training loop."""

import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lganet.training as TR
from lganet.data import SplitSpec, split_by_patient, synth_dataset
from lganet.errors import ConfigError
from lganet.model import Model, ModelConfig
from lganet.tensor import Tensor
from lganet.training import (
    OptimState,
    ScheduleSpec,
    TrainSpec,
    adamw_step,
    bce_loss,
    compute_metrics,
    cosine_lr,
    evaluate,
    should_stop,
    train,
)

MICRO = dict(leads=3, input_len=256, embed_dim=16, heads=2, num_stages=2,
             num_classes=6, window_len=4, stride=2)


def micro_model(seed=0, **overrides):
    return Model(ModelConfig.create(**{**MICRO, **overrides}), seed=seed)


# -- loss ---------------------------------------------------------------------


def test_bce_zero_logit_positive_label():
    loss = bce_loss(Tensor([[0.0]], dtype="f64"), np.array([[1.0]]))
    assert abs(loss.item() - math.log(2.0)) <= 1e-12


def test_bce_saturated_logit_no_overflow():
    loss = bce_loss(Tensor([[50.0]], dtype="f64"), np.array([[1.0]]))
    assert 0.0 <= loss.item() <= 1e-20


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(0)
    z = rng.uniform(-5, 5, (8, 6))
    y = (rng.random((8, 6)) < 0.5).astype(np.float64)
    got = bce_loss(Tensor(z, dtype="f64"), y).item()
    sig = 1.0 / (1.0 + np.exp(-z))
    expected = -(y * np.log(sig) + (1 - y) * np.log(1 - sig)).mean()
    assert abs(got - expected) <= 1e-10


def test_bce_shape_mismatch():
    from lganet.errors import ShapeError
    with pytest.raises(ShapeError):
        bce_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))


# -- optimizer -------------------------------------------------------------------


def test_adamw_single_step_hand_computed():
    p = Tensor([1.0], dtype="f64")
    p.grad = np.array([1.0])
    params = {"p": p}
    state = OptimState.create(params)
    adamw_step(params, state, lr=0.1, weight_decay=0.0)
    # bias-corrected m-hat = v-hat = 1 -> update = lr * 1/(1+eps)
    assert abs(p.data[0] - (1.0 - 0.1 / (1.0 + 1e-8))) <= 1e-12


def test_adamw_zero_gradient_leaves_parameters():
    p = Tensor([2.0, -3.0], dtype="f64")
    p.grad = np.zeros(2)
    params = {"p": p}
    state = OptimState.create(params)
    for _ in range(5):
        p.grad = np.zeros(2)
        adamw_step(params, state, lr=0.5, weight_decay=0.0)
    assert np.array_equal(p.data, [2.0, -3.0])


def test_adamw_pure_decay_shrinks_multiplicatively():
    p = Tensor([4.0], dtype="f64")
    params = {"p": p}
    state = OptimState.create(params)
    expected = 4.0
    for _ in range(3):
        p.grad = np.zeros(1)
        adamw_step(params, state, lr=0.5, weight_decay=0.1)
        expected *= 1.0 - 0.5 * 0.1
    assert abs(p.data[0] - expected) <= 1e-12


def test_adamw_with_zero_decay_matches_scalar_adam_oracle():
    rng = np.random.default_rng(1)
    grads = rng.uniform(-1, 1, 10)
    p = Tensor([0.7], dtype="f64")
    params = {"p": p}
    state = OptimState.create(params)
    # hand-rolled float64 Adam
    theta, m, v = 0.7, 0.0, 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([g])
        adamw_step(params, state, lr, weight_decay=0.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        assert abs(p.data[0] - theta) <= 1e-10


def test_adamw_shape_mismatch_rejected():
    from lganet.errors import ShapeError
    p = Tensor([1.0, 2.0], dtype="f64")
    p.grad = np.zeros(3)
    state = OptimState.create({"p": p})
    with pytest.raises(ShapeError):
        adamw_step({"p": p}, state, 0.1, weight_decay=0.0)


# -- schedule ---------------------------------------------------------------------


def test_cosine_endpoints_exact():
    spec = ScheduleSpec(1e-4, 1e-5, 50)
    assert cosine_lr(0, spec) == 1e-4
    assert cosine_lr(49, spec) == 1e-5


def test_cosine_midpoint():
    spec = ScheduleSpec(1e-4, 1e-5, 51)  # odd horizon: exact integer midpoint
    assert abs(cosine_lr(25, spec) - 5.5e-5) <= 1e-12


def test_cosine_monotone_decreasing():
    spec = ScheduleSpec(1e-3, 1e-5, 20)
    values = [cosine_lr(e, spec) for e in range(20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_single_epoch_horizon():
    assert cosine_lr(0, ScheduleSpec(1e-4, 1e-5, 1)) == 1e-4


# -- early stopping ------------------------------------------------------------------


def test_early_stopping_never_fires_on_strict_descent():
    assert not should_stop([1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2])


def test_early_stopping_after_seven_flat_epochs():
    assert not should_stop([1.0] + [1.0] * 6)
    assert should_stop([1.0] + [1.0] * 7)


def test_early_stopping_counter_resets_on_improvement():
    history = [1.0] + [1.1] * 6 + [0.9] + [1.2] * 6
    assert not should_stop(history)
    assert should_stop(history + [1.2])


def test_early_stopping_tracks_best_epoch():
    history = [0.5, 0.4, 0.45, 0.46, 0.47]
    # epoch 1 is the best; the three epochs after it are the stale run
    assert not should_stop(history[:4], patience=3)
    assert should_stop(history, patience=3)


def test_should_stop_rejects_patience_below_one():
    with pytest.raises(ConfigError):
        should_stop([1.0, 1.0], patience=0)


# -- metrics -----------------------------------------------------------------------


def test_metrics_hand_counted_example():
    pred = np.array([[1], [1]], dtype=bool)
    lab = np.array([[1], [0]])
    rep = compute_metrics(pred, lab)
    c = rep.classes[0]
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 0, 0)
    assert c.precision == 0.5 and c.recall == 1.0
    assert abs(c.f1 - 2.0 / 3.0) <= 1e-12


def test_metrics_perfect_predictor():
    lab = (np.random.default_rng(2).random((20, 4)) < 0.5).astype(int)
    rep = compute_metrics(lab.astype(bool), lab)
    assert rep.macro_f1 == 1.0
    assert rep.to_dict()["macro"] == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}


def test_metrics_zero_over_zero_conventions():
    rep = compute_metrics(np.zeros((5, 1), dtype=bool), np.zeros((5, 1), dtype=int))
    c = rep.classes[0]
    assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0
    assert c.accuracy == 1.0


def test_metrics_match_bruteforce_oracle_on_1000_pairs():
    rng = np.random.default_rng(3)
    probs = rng.random((1000, 6))
    labels = (rng.random((1000, 6)) < 0.4).astype(int)
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
    f1s = [c.f1 for c in rep.classes]
    assert abs(rep.macro_f1 - np.mean(f1s)) <= 1e-15


@settings(max_examples=50, deadline=None)
@given(tp=st.integers(0, 50), fp=st.integers(0, 50), fn=st.integers(0, 50), tn=st.integers(0, 50))
def test_f1_identity(tp, fp, fn, tn):
    c = TR.ClassMetrics(tp, fp, fn, tn)
    if c.precision + c.recall > 0:
        expected = 2 * c.precision * c.recall / (c.precision + c.recall)
        assert abs(c.f1 - expected) <= 1e-12
    else:
        assert c.f1 == 0.0


def test_evaluate_threshold_monotonicity():
    model = micro_model(seed=4)
    records = synth_dataset(24, 6, seed=5, leads=3, length=256)
    positives = []
    for thr in (0.3, 0.5, 0.7):
        rep = evaluate(model, records, threshold=thr)
        positives.append(sum(c.tp + c.fp for c in rep.classes))
    assert positives[0] >= positives[1] >= positives[2]


def test_evaluate_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        evaluate(micro_model(seed=6), [])


# -- training loop -------------------------------------------------------------------


def overfit_batch(model, records, steps, lr):
    from lganet.data import batches
    params = model.parameters()
    state = OptimState.create(params)
    losses = []
    for _ in range(steps):
        batch = next(batches(records, len(records), shuffle_seed=None, dtype=model.dtype))
        loss = bce_loss(model.forward(batch.signal), batch.labels)
        loss.backward()
        adamw_step(params, state, lr, weight_decay=0.0)
        losses.append(loss.item())
    return losses


def test_train_step_leaves_no_cyclic_garbage():
    """Backward releases the step's graph, so refcounting frees all of it and
    the cycle collector finds no Tensor to collect."""
    model = micro_model(seed=7)
    records = synth_dataset(4, 6, seed=8, leads=3, length=256)
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        overfit_batch(model, records, steps=1, lr=1e-3)
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, Tensor)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []


def test_one_batch_overfit_reaches_near_zero_loss():
    model = micro_model(seed=7)
    records = synth_dataset(8, 6, seed=8, leads=3, length=256)
    losses = overfit_batch(model, records, steps=200, lr=1e-2)
    assert min(losses) < 0.01


def test_loss_decreases_monotonically_at_small_lr():
    model = micro_model(seed=9)
    records = synth_dataset(8, 6, seed=10, leads=3, length=256)
    losses = overfit_batch(model, records, steps=11, lr=1e-4)
    for a, b in zip(losses[:10], losses[1:11]):
        assert b < a


def test_train_logs_cosine_schedule_and_is_seed_deterministic():
    records = synth_dataset(40, 6, seed=11, leads=3, length=256)
    tr, val, _ = split_by_patient(records, SplitSpec(0.8, 0.1, 0.1, seed=0))
    spec = TrainSpec(schedule=ScheduleSpec(1e-3, 1e-4, 3), batch_size=8, seed=3)

    model_a = micro_model(seed=12, precision="f64")
    log_a = train(model_a, tr, val, spec)
    assert [row.lr for row in log_a] == [cosine_lr(e, spec.schedule) for e in range(len(log_a))]

    model_b = micro_model(seed=12, precision="f64")
    log_b = train(model_b, tr, val, spec)
    assert log_a[0].train_loss == log_b[0].train_loss
    assert log_a[-1].val_loss == log_b[-1].val_loss
    pa, pb = model_a.parameters(), model_b.parameters()
    for name in pa:
        assert np.array_equal(pa[name].data, pb[name].data)


def test_train_restores_best_epoch_weights():
    records = synth_dataset(30, 6, seed=13, leads=3, length=256)
    tr, val, _ = split_by_patient(records, SplitSpec(0.7, 0.2, 0.1, seed=1))
    spec = TrainSpec(schedule=ScheduleSpec(5e-3, 5e-4, 4), batch_size=8, seed=5)
    model = micro_model(seed=14, precision="f64")
    log = train(model, tr, val, spec)
    best_epoch = min(log, key=lambda row: row.val_loss)
    got = TR.validation_loss(model, val, spec.batch_size)
    assert abs(got - best_epoch.val_loss) <= 1e-12


def test_train_stops_at_the_first_stale_run_and_restores_the_best_epoch():
    records = synth_dataset(30, 6, seed=13, leads=3, length=256)
    tr, val, _ = split_by_patient(records, SplitSpec(0.7, 0.2, 0.1, seed=1))
    epochs = 8
    spec = TrainSpec(schedule=ScheduleSpec(3e-2, 3e-2, epochs), batch_size=8, seed=5, patience=2)
    model = micro_model(seed=14, precision="f64")
    log = train(model, tr, val, spec)
    history = [row.val_loss for row in log]
    assert len(log) < epochs
    assert len(log) == next(n for n in range(1, epochs + 1) if should_stop(history[:n], spec.patience))
    best = min(log, key=lambda row: row.val_loss)
    assert best is not log[-1]
    assert abs(TR.validation_loss(model, val, spec.batch_size) - best.val_loss) <= 1e-12


def test_stop_macro_f1_ends_the_run_but_keeps_the_lowest_loss_weights(monkeypatch):
    records = synth_dataset(30, 6, seed=13, leads=3, length=256)
    tr, val, _ = split_by_patient(records, SplitSpec(0.7, 0.2, 0.1, seed=1))
    scripted = [(0.5, False), (0.3, False), (0.4, True)]  # (val loss, macro-F1 target reached)
    snapshots = []

    def scripted_evaluate(model, *args, **kwargs):
        snapshots.append(model.state_snapshot())
        loss, hit = scripted[len(snapshots) - 1]
        counts = TR.ClassMetrics(1, 0, 0, 0) if hit else TR.ClassMetrics(0, 1, 1, 0)
        return TR.MetricsReport([counts], loss=loss)

    monkeypatch.setattr(TR, "evaluate", scripted_evaluate)
    spec = TrainSpec(schedule=ScheduleSpec(5e-3, 5e-4, 5), batch_size=8, seed=5,
                     stop_macro_f1=0.999)
    model = micro_model(seed=14, precision="f64")
    log = train(model, tr, val, spec)
    assert [(row.val_loss, row.macro_f1) for row in log] == [(0.5, 0.0), (0.3, 0.0), (0.4, 1.0)]
    lowest, target, kept = snapshots[1], snapshots[2], model.state_snapshot()
    assert any(not np.array_equal(lowest[k], target[k]) for k in lowest)
    for name in lowest:
        assert np.array_equal(kept[name], lowest[name]), name


def test_best_epoch_is_the_first_of_tied_minima():
    log = [TR.EpochLog(epoch, 1e-3, 1.0, TR.MetricsReport([], loss=loss))
           for epoch, loss in enumerate([0.5, 0.2, 0.3, 0.2])]
    assert TR.best_epoch(log) is log[1]


def test_train_rejects_empty_sets():
    with pytest.raises(ConfigError):
        train(micro_model(), [], [], TrainSpec())


def test_train_spec_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed"):
        TrainSpec(seed=-1).validate()


def test_write_log_csv(tmp_path):
    rows = [TR.EpochLog(0, 1e-4, 0.5, TR.MetricsReport([TR.ClassMetrics(1, 0, 0, 0)], loss=0.6)),
            TR.EpochLog(1, 9e-5, 0.4, TR.MetricsReport([TR.ClassMetrics(1, 0, 0, 0)], loss=0.5))]
    path = tmp_path / "log.csv"
    TR.write_log_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_loss,macro_f1"
    assert lines[1].split(",")[0] == "0"
    assert float(lines[2].split(",")[1]) == 9e-5
