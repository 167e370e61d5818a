"""Dataset file format, patient-wise splitting, batching, synthetic generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lganet import data as D
from lganet import tensor as T
from lganet.errors import ConfigError, FormatError


def random_records(n, rng, leads=2, length=16, classes=3, patients=None):
    out = []
    for i in range(n):
        pid = int(rng.integers(0, patients)) if patients else i
        out.append(D.EcgRecord(
            rng.uniform(-1, 1, (leads, length)).astype(np.float32),
            (rng.random(classes) < 0.5).astype(np.uint8),
            pid))
    return out


# -- file format ---------------------------------------------------------------


def test_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    records = random_records(3, rng)
    path = tmp_path / "d.lgae"
    D.write_dataset(records, path)
    back = D.read_dataset(path)
    assert len(back) == 3
    for a, b in zip(records, back):
        assert a.patient_id == b.patient_id
        assert np.array_equal(a.labels, b.labels)
        assert a.signal.tobytes() == b.signal.tobytes()


def test_empty_dataset_is_header_only(tmp_path):
    path = tmp_path / "empty.lgae"
    D.write_dataset([], path)
    assert path.stat().st_size == 28  # magic + six u32 header words
    assert D.read_dataset(path) == []


def test_corrupted_magic_names_offset_zero(tmp_path):
    path = tmp_path / "bad.lgae"
    D.write_dataset(random_records(1, np.random.default_rng(1)), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as exc:
        D.read_dataset(path)
    assert "byte 0" in str(exc.value)


def test_unsupported_version_rejected_by_both_readers(tmp_path):
    path = tmp_path / "v2.lgae"
    D.write_dataset(random_records(1, np.random.default_rng(1)), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    for reader in (D.read_dataset, D.read_dataset_header):
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert "version 2 at byte 4" in str(exc.value)


def test_failed_write_leaves_existing_file_alone(tmp_path):
    path = tmp_path / "d.lgae"
    D.write_dataset(random_records(3, np.random.default_rng(7)), path)
    before = path.read_bytes()
    bad_shape = random_records(3, np.random.default_rng(8))
    bad_shape[2] = random_records(1, np.random.default_rng(9), length=8)[0]
    bad_id = random_records(3, np.random.default_rng(8))
    bad_id[2].patient_id = -1
    for records, match in ((bad_shape, "record 2 shape"), (bad_id, "record 2 patient id")):
        with pytest.raises(FormatError, match=match):
            D.write_dataset(records, path)
        assert path.read_bytes() == before


def test_truncated_record_reports_offset(tmp_path):
    path = tmp_path / "trunc.lgae"
    D.write_dataset(random_records(2, np.random.default_rng(2)), path)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(FormatError) as exc:
        D.read_dataset(path)
    assert "byte" in str(exc.value)


def test_non_finite_sample_reports_record_and_offset(tmp_path):
    path = tmp_path / "nan.lgae"
    D.write_dataset(random_records(2, np.random.default_rng(2)), path)
    raw = bytearray(path.read_bytes())
    signal_at = 28 + 8 + 3  # header, record 0's patient id and its 3 labels
    raw[signal_at + 4 : signal_at + 8] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=f"record 0 signal at byte {signal_at}: .*non-finite"):
        D.read_dataset(path)


def test_trailing_bytes_report_offset(tmp_path):
    path = tmp_path / "junk.lgae"
    D.write_dataset(random_records(2, np.random.default_rng(2)), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError) as exc:
        D.read_dataset(path)
    assert f"byte {size}" in str(exc.value)


def _small_lgae(path):
    D.write_dataset(random_records(2, np.random.default_rng(4)), path)
    return D.read_dataset


def _small_lgaw(path):
    T.write_weights(path, {"a": np.zeros((2, 3), np.float32), "b": np.ones(4, np.float32)})
    return T.read_weights


@pytest.mark.parametrize("make", [_small_lgae, _small_lgaw])
def test_truncated_or_bit_flipped_file_reads_or_raises_format_error(tmp_path, make):
    # the first 64 bytes hold every header and length field of both small files
    read = make(tmp_path / "good")
    good = (tmp_path / "good").read_bytes()
    corrupt = [good[:cut] for cut in range(len(good))]
    for bit in range(8 * 64):
        raw = bytearray(good)
        raw[bit // 8] ^= 1 << bit % 8
        corrupt.append(bytes(raw))
    for i, raw in enumerate(corrupt):
        path = tmp_path / str(i)
        path.write_bytes(raw)
        try:
            read(path)
        except FormatError:
            pass


def test_header_fields(tmp_path):
    path = tmp_path / "d.lgae"
    D.write_dataset(random_records(4, np.random.default_rng(3)), path, sample_rate=500)
    head = D.read_dataset_header(path)
    assert head == {"version": 1, "records": 4, "leads": 2, "length": 16,
                    "classes": 3, "sample_rate_hz": 500}


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 8), seed=st.integers(0, 1000))
def test_roundtrip_property(tmp_path_factory, n, seed):
    records = random_records(n, np.random.default_rng(seed))
    path = tmp_path_factory.mktemp("rt") / "d.lgae"
    D.write_dataset(records, path)
    back = D.read_dataset(path)
    assert len(back) == n
    for a, b in zip(records, back):
        assert a.signal.tobytes() == b.signal.tobytes()
        assert np.array_equal(a.labels, b.labels)


# -- splitting -------------------------------------------------------------------


def test_split_20_patients_rounds_to_18_1_1():
    records = random_records(20, np.random.default_rng(4))
    tr, val, dev = D.split_by_patient(records, D.SplitSpec(seed=0))
    assert (len(tr), len(val), len(dev)) == (18, 1, 1)


def test_split_single_patient_lands_in_one_subset():
    records = random_records(6, np.random.default_rng(5), patients=1)
    for r in records:
        r.patient_id = 7
    parts = D.split_by_patient(records, D.SplitSpec(seed=1))
    sizes = sorted(len(p) for p in parts)
    assert sizes == [0, 0, 6]


def test_split_require_nonempty_rejects_tiny_cohort():
    records = random_records(2, np.random.default_rng(6))
    with pytest.raises(ConfigError):
        D.split_by_patient(records, D.SplitSpec(seed=2), require_nonempty=True)


def test_split_empty_dataset_rejected():
    with pytest.raises(ConfigError):
        D.split_by_patient([], D.SplitSpec())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_split_patients_are_disjoint(seed):
    rng = np.random.default_rng(seed)
    records = random_records(200, rng, patients=40)
    tr, val, dev = D.split_by_patient(records, D.SplitSpec(seed=seed))
    ids = [set(r.patient_id for r in part) for part in (tr, val, dev)]
    assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
    assert sum(len(p) for p in (tr, val, dev)) == 200


def test_split_fraction_validation():
    with pytest.raises(ConfigError):
        D.split_by_patient(random_records(5, np.random.default_rng(7)),
                           D.SplitSpec(0.5, 0.2, 0.2))


# -- synthetic generator -----------------------------------------------------------


def dataset_digest(records):
    h = hashlib.sha256()
    for r in records:
        h.update(r.signal.tobytes())
        h.update(r.labels.tobytes())
        h.update(str(r.patient_id).encode())
    return h.hexdigest()


def test_synth_is_deterministic():
    a = D.synth_dataset(8, 6, seed=42, leads=3, length=256)
    b = D.synth_dataset(8, 6, seed=42, leads=3, length=256)
    assert dataset_digest(a) == dataset_digest(b)
    c = D.synth_dataset(8, 6, seed=43, leads=3, length=256)
    assert dataset_digest(a) != dataset_digest(c)


def test_synth_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        D.synth_dataset(0)
    with pytest.raises(ConfigError):
        D.synth_dataset(4, num_classes=9)


def test_synth_never_mixes_long_and_short_gap():
    records = D.synth_dataset(300, 6, seed=11, leads=2, length=256)
    for r in records:
        assert not (r.labels[3] and r.labels[5])


def matched_filter_scores(records, length):
    """Per-class detection statistic from cross-correlation with class templates."""
    period = length // 8
    width = max(2.0, period / 20.0)
    t = np.arange(length, dtype=np.float64)

    def bump(center, w):
        return np.exp(-0.5 * ((t[: int(6 * w) * 2 + 1] - 3 * w) / w) ** 2)

    def xcorr_max(sig, tmpl):
        tmpl = tmpl - tmpl.mean()
        tmpl /= np.linalg.norm(tmpl) + 1e-12
        return np.correlate(sig, tmpl, mode="valid").max()

    def two_bump(spacing, w):
        size = int(spacing + 6 * w)
        tt = np.arange(size, dtype=np.float64)
        return (np.exp(-0.5 * ((tt - 3 * w) / w) ** 2)
                + np.exp(-0.5 * ((tt - 3 * w - spacing) / w) ** 2))

    def echo_level(sig):
        """Mean signal at the echo offset behind every detected beat peak."""
        tmpl = bump(None, width)
        tmpl = tmpl - tmpl.mean()
        tmpl /= np.linalg.norm(tmpl)
        corr = np.correlate(sig, tmpl, mode="valid")
        thr = corr.max() * 0.5
        peaks = [i for i in range(1, len(corr) - 1)
                 if corr[i] >= thr and corr[i] >= corr[i - 1] and corr[i] >= corr[i + 1]]
        probe = int(3 * width) + int(period / 4.0)
        vals = [sig[p + probe] for p in peaks if p + probe < len(sig)]
        return float(np.mean(vals)) if vals else 0.0

    scores = np.zeros((len(records), 6))
    for i, rec in enumerate(records):
        clean = rec.signal[-1].astype(np.float64)  # last lead is never inverted
        wide = xcorr_max(clean, bump(None, 3 * width))
        narrow = xcorr_max(clean, bump(None, width))
        scores[i, 0] = wide - narrow
        scores[i, 1] = -min(xcorr_max(rec.signal[c].astype(np.float64), bump(None, width))
                            for c in range(rec.signal.shape[0]))
        scores[i, 2] = echo_level(clean)
        scores[i, 3] = xcorr_max(clean, two_bump(1.5 * period, width)) - xcorr_max(
            clean, two_bump(period, width))
        ac = np.correlate(clean - clean.mean(), clean - clean.mean(), mode="full")
        ac = ac[len(ac) // 2 :]
        # window spans the shortened and lengthened gap variants too
        lag_lo, lag_hi = int(0.55 * period), int(1.7 * period)
        scores[i, 4] = -ac[lag_lo:lag_hi].max() / (ac[0] + 1e-12)
        scores[i, 5] = xcorr_max(clean, two_bump(0.65 * period, width)) - xcorr_max(
            clean, two_bump(period, width))
    return scores


def rank_auc(scores, labels):
    pos, neg = scores[labels == 1], scores[labels == 0]
    if not len(pos) or not len(neg):
        return float("nan")
    greater = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return greater / (len(pos) * len(neg))


def test_class_signatures_detectable_by_matched_filter():
    length = 1024
    records = D.synth_dataset(256, 6, seed=7, leads=4, length=length)
    labels = np.stack([r.labels for r in records])
    scores = matched_filter_scores(records, length)
    for k in range(6):
        auc = rank_auc(scores[:, k], labels[:, k])
        assert auc > 0.9, f"class {k} matched-filter AUC {auc:.3f}"


# -- batching ----------------------------------------------------------------------


def test_batches_sizes_and_partial_tail():
    records = random_records(10, np.random.default_rng(8))
    sizes = [len(b.indices) for b in D.batches(records, 4, shuffle_seed=0)]
    assert sizes == [4, 4, 2]


def test_batches_same_seed_same_order():
    records = random_records(12, np.random.default_rng(9))
    order1 = [tuple(b.indices) for b in D.batches(records, 5, shuffle_seed=3)]
    order2 = [tuple(b.indices) for b in D.batches(records, 5, shuffle_seed=3)]
    assert order1 == order2
    order3 = [tuple(b.indices) for b in D.batches(records, 5, shuffle_seed=4)]
    assert order1 != order3


def test_batches_cover_the_dataset_exactly_once():
    records = random_records(17, np.random.default_rng(10))
    seen = np.concatenate([b.indices for b in D.batches(records, 5, shuffle_seed=1)])
    assert sorted(seen.tolist()) == list(range(17))
    stacked = np.concatenate(
        [b.signal.data for b in D.batches(records, 5, shuffle_seed=1)], axis=0)
    assert stacked.shape == (17, 2, 16)
