"""Record container, bit-exact dataset file, patient-wise splits, batching,
and a deterministic synthetic signal generator for desk-scale training."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, FormatError
from .model import ModelConfig
from .tensor import Tensor, _Reader

DATASET_MAGIC = b"LGAE"
DATASET_VERSION = 1
DEFAULT_SAMPLE_RATE = 400
DEFAULT_CLASS_NAMES = ("1st_AVB", "RBBB", "LBBB", "SB", "AF", "ST")
SYNTH_NOISE = 0.05  # std of the Gaussian noise synth_dataset adds, millivolts


@dataclass(eq=False)
class EcgRecord:
    signal: np.ndarray  # [C, N] float32, millivolts
    labels: np.ndarray  # [K] uint8 multi-hot
    patient_id: int

    def __post_init__(self):
        self.signal = np.asarray(self.signal, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.signal.ndim != 2:
            raise ConfigError(f"record signal must be [C, N], got {self.signal.shape}")
        if not np.all(np.isfinite(self.signal)):
            raise ConfigError("record signal contains non-finite values")
        if self.labels.ndim != 1 or not np.all((self.labels == 0) | (self.labels == 1)):
            raise ConfigError("record labels must be a 0/1 vector")


@dataclass
class SplitSpec:
    train: float = 0.90
    val: float = 0.05
    dev: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        fracs = (self.train, self.val, self.dev)
        if any(f < 0 for f in fracs) or abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must be non-negative and sum to 1, got {fracs}")


@dataclass
class Batch:
    signal: Tensor        # [B, C, N]
    labels: np.ndarray    # [B, K] float, same dtype as signal
    indices: np.ndarray   # positions in the source record list


def write_dataset(records: Sequence[EcgRecord], path, sample_rate: int = DEFAULT_SAMPLE_RATE) -> None:
    """Write records as LGAE: header (C, N, K, rate) then fixed-size record blocks."""
    if records:
        c, n = records[0].signal.shape
        k = records[0].labels.shape[0]
    else:
        c = n = k = 0
    for i, rec in enumerate(records):  # before opening, so a bad record leaves the file alone
        if rec.signal.shape != (c, n) or rec.labels.shape != (k,):
            raise FormatError(f"record {i} shape differs from header ({c}, {n}, K={k})")
        if not 0 <= rec.patient_id < 1 << 64:
            raise FormatError(f"record {i} patient id {rec.patient_id} does not fit in u64")
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIIII", DATASET_VERSION, len(records), c, n, k, sample_rate))
        for rec in records:
            fh.write(struct.pack("<Q", rec.patient_id))
            fh.write(rec.labels.astype(np.uint8).tobytes())
            fh.write(np.ascontiguousarray(rec.signal, dtype="<f4").tobytes())


def _read_header(r: _Reader) -> dict:
    """Read and check the 28-byte LGAE header at the start of a file."""
    magic = r.read(4, "magic")
    if magic != DATASET_MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {DATASET_MAGIC!r}")
    version, count, c, n, k, rate = struct.unpack("<IIIIII", r.read(24, "header"))
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version} at byte 4")
    return {"version": version, "records": count, "leads": c, "length": n,
            "classes": k, "sample_rate_hz": rate}


def read_dataset(path) -> list[EcgRecord]:
    """Read an LGAE file back; raises FormatError with a byte offset on corruption."""
    records: list[EcgRecord] = []
    with open(path, "rb") as fh:
        r = _Reader(fh)
        head = _read_header(r)
        count, c, n, k = head["records"], head["leads"], head["length"], head["classes"]
        sig_bytes = 4 * c * n
        for i in range(count):
            (patient,) = struct.unpack("<Q", r.read(8, f"record {i} patient id"))
            at = r.offset
            labels = np.frombuffer(r.read(k, f"record {i} labels"), dtype=np.uint8)
            if not np.all(labels <= 1):
                raise FormatError(f"record {i} has non-binary labels at byte {at}")
            at = r.offset
            signal = np.frombuffer(r.read(sig_bytes, f"record {i} signal"),
                                   dtype="<f4").reshape(c, n).astype(np.float32)
            try:  # EcgRecord's own check of the samples, the one not made above
                records.append(EcgRecord(signal, labels.copy(), int(patient)))
            except ConfigError as exc:
                raise FormatError(f"record {i} signal at byte {at}: {exc}") from None
        if r.offset < r.size:
            raise FormatError(f"trailing bytes at byte {r.offset} after {count} records")
    return records


def read_dataset_header(path) -> dict:
    with open(path, "rb") as fh:
        return _read_header(_Reader(fh))


def _apportion(total: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of `total` items over `fractions`."""
    quotas = [total * f for f in fractions]
    counts = [int(q) for q in quotas]
    short = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def split_by_patient(records: Sequence[EcgRecord], spec: SplitSpec,
                     require_nonempty: bool = False):
    """Partition records into (train, val, dev) so no patient spans two subsets."""
    spec.validate()
    patients = sorted({r.patient_id for r in records})
    if not patients:
        raise ConfigError("cannot split an empty dataset")
    rng = np.random.default_rng(spec.seed)
    shuffled = [patients[i] for i in rng.permutation(len(patients))]
    counts = _apportion(len(patients), (spec.train, spec.val, spec.dev))
    if require_nonempty and min(counts) == 0:
        raise ConfigError(
            f"{len(patients)} patients are too few to fill all three subsets at {spec.train}/{spec.val}/{spec.dev}"
        )
    bounds = np.cumsum([0] + counts)
    owner: dict[int, int] = {}
    for subset, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        for pid in shuffled[lo:hi]:
            owner[pid] = subset
    parts: tuple[list[EcgRecord], ...] = ([], [], [])
    for rec in records:
        parts[owner[rec.patient_id]].append(rec)
    return parts


def _gaussian_bump(length: int, center: float, width: float) -> np.ndarray:
    t = np.arange(length, dtype=np.float64)
    return np.exp(-0.5 * ((t - center) / width) ** 2)


def synth_dataset(n: int, num_classes: int = ModelConfig.num_classes, seed: int = 0,
                  leads: int = ModelConfig.leads, length: int = ModelConfig.input_len) -> list[EcgRecord]:
    """Deterministic beat-train generator with one injected signature per class.

    Class effects on the periodic Gaussian-bump baseline:
      0 widened bump, 1 inverted bump on the first half of the leads,
      2 echo bump after each beat, 3 lengthened inter-beat gap,
      4 jittered beat times, 5 shortened gap.
    One seed gives one byte stream; classes 3 and 5 never co-occur.
    """
    if n <= 0:
        raise ConfigError(f"need n > 0 records, got {n}")
    if num_classes < 1 or num_classes > 6:
        raise ConfigError(f"generator supports 1..6 classes, got {num_classes}")
    rng = np.random.default_rng(seed)
    base_period = length // 8
    records = []
    for i in range(n):
        labels = (rng.random(num_classes) < 0.3).astype(np.uint8)
        if num_classes > 5 and labels[3] and labels[5]:
            labels[5] = 0
        period = base_period
        if num_classes > 3 and labels[3]:
            period = int(base_period * 1.5)
        if num_classes > 5 and labels[5]:
            period = int(base_period * 0.65)
        width = max(2.0, base_period / 20.0)
        if labels[0]:
            width *= 3.0
        centers = np.arange(period // 2, length, period, dtype=np.float64)
        if num_classes > 4 and labels[4]:
            centers = centers + rng.integers(-period // 4, period // 4 + 1, centers.shape)
        beat = np.zeros(length, dtype=np.float64)
        for c0 in centers:
            beat += _gaussian_bump(length, c0, width)
            if num_classes > 2 and labels[2]:
                beat += _gaussian_bump(length, c0 + base_period / 4.0, width)
        gains = 0.6 + 0.8 * np.arange(leads, dtype=np.float64) / max(leads - 1, 1)
        signal = gains[:, None] * beat[None, :]
        if num_classes > 1 and labels[1]:
            signal[: leads // 2] *= -1.0
        signal += rng.normal(0.0, SYNTH_NOISE, (leads, length))
        records.append(EcgRecord(signal.astype(np.float32), labels, patient_id=i))
    return records


def batches(records: Sequence[EcgRecord], batch_size: int, shuffle_seed: int | None = None,
            dtype=np.float32) -> Iterator[Batch]:
    """Deterministically shuffled mini-batches; the final partial batch is emitted."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(records))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(records))
    for lo in range(0, len(records), batch_size):
        idx = order[lo : lo + batch_size]
        sig = np.stack([records[i].signal for i in idx]).astype(dtype, copy=False)
        lab = np.stack([records[i].labels for i in idx]).astype(dtype, copy=False)
        yield Batch(Tensor(sig, dtype=dtype), lab, idx)


def class_names(k: int) -> tuple[str, ...]:
    """The default six class names for K=6, otherwise class_0 .. class_{K-1}."""
    if k == len(DEFAULT_CLASS_NAMES):
        return DEFAULT_CLASS_NAMES
    return tuple(f"class_{i}" for i in range(k))
