"""Loss, decoupled-decay Adam, cosine learning-rate schedule, early stopping,
multi-label metrics, and the epoch training loop."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import EcgRecord, batches
from .errors import ConfigError, ShapeError
from .model import Model
from .ops import _sigmoid_np
from .tensor import Tensor, _result, no_grad


def bce_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all logits, computed in the stable logit form."""
    y = np.asarray(labels, dtype=logits.dtype)
    if y.shape != logits.shape:
        raise ShapeError(f"labels shape {y.shape} != logits shape {logits.shape}")
    z = logits.data
    # max(z,0) - z*y + log(1+exp(-|z|)) avoids overflow on both tails
    val = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    return _result(np.asarray(val.mean()), (logits,), "bce_loss",
                   lambda g, sz: sz._accumulate(g * (_sigmoid_np(z) - y) / z.size))


@dataclass
class ScheduleSpec:
    lr_start: float = 1e-4
    lr_end: float = 1e-5
    total_epochs: int = 50

    def validate(self) -> None:
        if not self.lr_start >= self.lr_end > 0:
            raise ConfigError(f"need lr_start >= lr_end > 0, got {self.lr_start}, {self.lr_end}")
        if self.total_epochs < 1:
            raise ConfigError(f"total_epochs must be >= 1, got {self.total_epochs}")


@dataclass
class TrainSpec:
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    batch_size: int = 32
    patience: int = 7
    weight_decay: float = 0.01
    seed: int = 42
    threshold: float = 0.5
    stop_macro_f1: float | None = None  # optional target-reached early exit

    def validate(self) -> None:
        self.schedule.validate()
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimState:
    """First/second moments per parameter plus the shared step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def create(cls, params: dict[str, Tensor]) -> "OptimState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adamw_step(params: dict[str, Tensor], state: OptimState, lr: float,
               weight_decay: float) -> None:
    """One update; weight decay is applied directly to the weights (decoupled)."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name!r}")
        if weight_decay:
            p.data -= lr * weight_decay * p.data
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.grad = None


def cosine_lr(epoch: int, spec: ScheduleSpec) -> float:
    """Cosine anneal from lr_start (epoch 0) to lr_end (epoch total_epochs-1)."""
    last = spec.total_epochs - 1
    if epoch <= 0 or last == 0:
        return spec.lr_start
    if epoch >= last:
        return spec.lr_end
    return spec.lr_end + 0.5 * (spec.lr_start - spec.lr_end) * (1.0 + math.cos(math.pi * epoch / last))


def should_stop(val_history: Sequence[float], patience: int = TrainSpec.patience) -> bool:
    """Did `patience` consecutive losses in the history fail to improve the best before them?"""
    if patience < 1:
        raise ConfigError(f"patience must be >= 1, got {patience}")
    best, stale = math.inf, 0
    for loss in val_history:
        if loss < best:
            best, stale = loss, 0
        else:
            stale += 1
            if stale >= patience:
                return True
    return False


@dataclass
class ClassMetrics:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fp + self.fn + self.tn
        return (self.tp + self.tn) / total if total else 0.0

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def f1(self) -> float:
        pr = self.precision + self.recall
        return 2.0 * self.precision * self.recall / pr if pr else 0.0


@dataclass
class MetricsReport:
    classes: list[ClassMetrics]
    threshold: float = TrainSpec.threshold
    loss: float | None = None  # mean BCE when built by `evaluate`; not in to_dict

    def _macro(self, attr: str) -> float:
        return float(np.mean([getattr(c, attr) for c in self.classes])) if self.classes else 0.0

    @property
    def macro_f1(self) -> float:
        return self._macro("f1")

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "per_class": [
                {"tp": c.tp, "fp": c.fp, "fn": c.fn, "tn": c.tn,
                 "accuracy": c.accuracy, "precision": c.precision,
                 "recall": c.recall, "f1": c.f1}
                for c in self.classes
            ],
            "macro": {attr: self._macro(attr) for attr in ("accuracy", "precision", "recall", "f1")},
        }


def compute_metrics(predictions: np.ndarray, labels: np.ndarray,
                    threshold: float = TrainSpec.threshold) -> MetricsReport:
    """Confusion counts per class from [n, K] prediction/label matrices."""
    pred = np.asarray(predictions)
    lab = np.asarray(labels).astype(bool)
    if pred.shape != lab.shape:
        raise ShapeError(f"predictions {pred.shape} and labels {lab.shape} differ")
    hit = pred.astype(bool) if pred.dtype == bool else pred >= threshold
    out = []
    for k in range(lab.shape[1]):
        p, y = hit[:, k], lab[:, k]
        out.append(ClassMetrics(
            tp=int(np.sum(p & y)), fp=int(np.sum(p & ~y)),
            fn=int(np.sum(~p & y)), tn=int(np.sum(~p & ~y))))
    return MetricsReport(out, threshold)


def evaluate(model: Model, records: Sequence[EcgRecord], threshold: float = TrainSpec.threshold,
             batch_size: int = 64) -> MetricsReport:
    """Metrics and mean binary cross-entropy from one no-grad pass over a dataset."""
    if not records:
        raise ConfigError("cannot evaluate an empty dataset")
    total = 0.0
    probs, labels = [], []
    with no_grad():
        for batch in batches(records, batch_size, shuffle_seed=None, dtype=model.dtype):
            logits = model.forward(batch.signal)
            total += bce_loss(logits, batch.labels).item() * batch.labels.size
            probs.append(_sigmoid_np(logits.data))
            labels.append(batch.labels)
    y = np.concatenate(labels)
    report = compute_metrics(np.concatenate(probs), y, threshold)
    report.loss = total / y.size
    return report


def validation_loss(model: Model, records: Sequence[EcgRecord], batch_size: int = 64) -> float:
    """Mean binary cross-entropy over a dataset, without recording gradients."""
    return evaluate(model, records, batch_size=batch_size).loss


@dataclass
class EpochLog:
    epoch: int
    lr: float
    train_loss: float
    report: MetricsReport  # the epoch's validation pass

    @property
    def val_loss(self) -> float:
        return self.report.loss

    @property
    def macro_f1(self) -> float:
        return self.report.macro_f1


def best_epoch(log: Sequence[EpochLog]) -> EpochLog:
    """The row whose weights a run keeps: the first with the lowest validation loss."""
    return min(log, key=lambda row: row.val_loss)


def train(model: Model, train_records: Sequence[EcgRecord], val_records: Sequence[EcgRecord],
          spec: TrainSpec, verbose: bool = False) -> list[EpochLog]:
    """Epoch loop: AdamW + cosine schedule, one validation pass per epoch, stop by
    `should_stop` or `stop_macro_f1`, then load the weights of `best_epoch(log)`."""
    spec.validate()
    if not train_records or not val_records:
        raise ConfigError("training needs non-empty train and validation sets")
    params = model.parameters()
    state = OptimState.create(params)
    log: list[EpochLog] = []
    for epoch in range(spec.schedule.total_epochs):
        lr = cosine_lr(epoch, spec.schedule)
        seen = 0
        running = 0.0
        for batch in batches(train_records, spec.batch_size,
                             shuffle_seed=spec.seed + epoch, dtype=model.dtype):
            loss = bce_loss(model.forward(batch.signal), batch.labels)
            loss.backward()
            adamw_step(params, state, lr, spec.weight_decay)
            running += loss.item() * batch.labels.size
            seen += batch.labels.size
        report = evaluate(model, val_records, spec.threshold, spec.batch_size)
        log.append(EpochLog(epoch, lr, running / seen, report))
        if verbose:
            print(f"epoch {epoch:3d} lr {lr:.3e} train {running / seen:.4f} "
                  f"val {report.loss:.4f} macroF1 {report.macro_f1:.4f}", flush=True)
        if best_epoch(log) is log[-1]:  # epoch 0 always is: its loss is finite
            kept = model.state_snapshot()
        if should_stop([row.val_loss for row in log], spec.patience) or (
                spec.stop_macro_f1 is not None and report.macro_f1 >= spec.stop_macro_f1):
            break
    model.load_state(kept)
    return log


def write_log_csv(log: Sequence[EpochLog], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "lr", "train_loss", "val_loss", "macro_f1"))
        for row in log:
            writer.writerow((row.epoch, repr(row.lr), repr(row.train_loss),
                             repr(row.val_loss), repr(row.macro_f1)))
