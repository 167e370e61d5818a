"""Correctness checks applied to every operation the benchmark times.

Each check returns a list of problems; an empty list means the output is
correct. They are plain functions of the outputs so that
``test_checks.py`` can feed them deliberately wrong values.
"""

from __future__ import annotations

import math

import numpy as np

# f32 logits of the paper model against an f64 forward of the same weights.
# Measured gap on 12x4096 inputs is about 5e-8; the bound leaves three
# orders of magnitude of room and still catches any real change.
LOGIT_ATOL = 1e-4
LOGIT_RTOL = 1e-4

# Span self times must cover the unit wall time to within this share.
COVERAGE_TOLERANCE = 0.10
# Op spans must account for at least this share of Model.forward time; the
# rest is the self time of the model scopes (their own glue code).
ATTRIBUTION_MIN = 0.90


def check_logits(logits: np.ndarray, reference: np.ndarray, batch: int,
                 classes: int) -> list[str]:
    """f32 logits: finite, shape (batch, classes), close to the f64 reference rows."""
    logits = np.asarray(logits)
    if logits.shape != (batch, classes):
        return [f"logits shape {logits.shape} != {(batch, classes)}"]
    if not np.all(np.isfinite(logits)):
        return ["logits contain non-finite values"]
    gap = np.abs(logits.astype(np.float64) - reference)
    limit = LOGIT_ATOL + LOGIT_RTOL * np.abs(reference)
    if np.any(gap > limit):
        return [f"logits differ from the f64 forward by up to {gap.max():.3g}"]
    return []


def check_losses(losses, expected_steps: int) -> list[str]:
    """Every training step produced one finite loss."""
    if len(losses) != expected_steps:
        return [f"{len(losses)} step losses recorded, expected {expected_steps}"]
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        return [f"non-finite loss at steps {bad[:5]}"]
    return []


def check_fd(max_rel: float, tol: float) -> list[str]:
    """Finite-difference check: worst relative error within tolerance."""
    if not max_rel <= tol:  # also rejects NaN
        return [f"max relative error {max_rel:.3g} > {tol:g}"]
    return []


def check_batch_cover(batch_indices, count: int) -> list[str]:
    """Every record index in [0, count) was batched exactly once."""
    seen = np.concatenate([np.asarray(i, dtype=np.int64) for i in batch_indices]) \
        if batch_indices else np.zeros(0, dtype=np.int64)
    hits = np.bincount(seen, minlength=count) if seen.size else np.zeros(count, dtype=np.int64)
    if seen.size and (seen.min() < 0 or seen.max() >= count):
        return [f"batch index out of range [0, {count})"]
    problems = []
    missing = np.flatnonzero(hits == 0)
    repeated = np.flatnonzero(hits > 1)
    if missing.size:
        problems.append(f"{missing.size} records never batched (first {missing[:3].tolist()})")
    if repeated.size:
        problems.append(f"{repeated.size} records batched more than once")
    return problems


def check_same_bytes(actual: np.ndarray, expected: np.ndarray, what: str) -> list[str]:
    """Byte-for-byte equality of two arrays (same dtype and shape required)."""
    a, e = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    if a.dtype != e.dtype or a.shape != e.shape:
        return [f"{what}: {a.dtype}{a.shape} != {e.dtype}{e.shape}"]
    if a.tobytes() != e.tobytes():
        return [f"{what}: bytes differ from the fixture"]
    return []


def check_coverage(covered_s: float, wall_s: float) -> list[str]:
    """Span self times sum to within COVERAGE_TOLERANCE of the traced wall time."""
    if wall_s <= 0:
        return ["no traced wall time"]
    share = covered_s / wall_s
    if abs(share - 1.0) > COVERAGE_TOLERANCE:
        return [f"spans cover {share:.1%} of traced wall time"]
    return []


def check_attribution(scope_self_s: float, forward_s: float) -> list[str]:
    """Op spans cover at least ATTRIBUTION_MIN of the Model.forward span time."""
    if forward_s <= 0:
        return ["no traced Model.forward time"]
    share = 1.0 - scope_self_s / forward_s
    if share < ATTRIBUTION_MIN:
        return [f"op spans cover {share:.1%} of Model.forward time"]
    return []


def check_digest(actual: str, expected: str, what: str) -> list[str]:
    """A file's SHA-256 equals the committed one."""
    if actual != expected:
        return [f"{what}: SHA-256 {actual} != committed {expected}"]
    return []


def check_restored(unrestored) -> list[str]:
    """The traced run left no wrapper behind."""
    return [f"wrapper left in place: {name}" for name in unrestored]
