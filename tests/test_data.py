import csv

import numpy as np
import pytest

from seqnas.data import (CsvSchema, DataError, SequenceRecord, batches,
                         ingest_csv, make_windows, split_for_search, synth_generate)

rng = np.random.default_rng(41)


def csv_text(rows):
    return "subject,session,ch0,ch1\n" + "\n".join(rows) + "\n"


def ingest_text(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    return ingest_csv(path)


def test_ingest_groups_by_subject_and_session(tmp_path):
    rows = []
    for subj in ("a", "b"):
        for sess in (1, 2):
            rows += [f"{subj},{sess},{i}.0,{i * 2}.0" for i in range(5)]
    records = ingest_text(tmp_path, csv_text(rows))
    assert len(records) == 4
    assert {(r.subject_id, r.session_id) for r in records} == {
        ("a", 1), ("a", 2), ("b", 1), ("b", 2)}
    assert records[0].length == 5
    assert records[0].channel_names == ["ch0", "ch1"]


def test_single_nan_interpolates_to_neighbor_mean(tmp_path):
    rows = ["a,1,0.0,5.0", "a,1,nan,5.0", "a,1,4.0,5.0",
            "b,1,1.0,1.0", "b,1,1.0,1.0"]
    records = ingest_text(tmp_path, csv_text(rows))
    a = next(r for r in records if r.subject_id == "a")
    assert a.channels["ch0"][1] == pytest.approx(2.0)  # mean of 0 and 4


def test_long_nan_run_splits_record(tmp_path):
    # gaps of up to 50 samples (50 ms at 1 kHz) are filled; a 60-sample gap must split
    good = [f"a,1,{i}.0,0.0" for i in range(80)]
    gap = ["a,1,nan,0.0"] * 60
    tail = [f"a,1,{i}.0,0.0" for i in range(70)]
    records = ingest_text(tmp_path, csv_text(good + gap + tail))
    assert len(records) == 2
    assert sorted(r.length for r in records) == [70, 80]


def test_short_nan_run_is_filled_not_split(tmp_path):
    good = [f"a,1,{float(i)},0.0" for i in range(30)]
    gap = ["a,1,nan,0.0"] * 10
    tail = [f"a,1,{float(i)},0.0" for i in range(30)]
    records = ingest_text(tmp_path, csv_text(good + gap + tail))
    assert len(records) == 1
    assert records[0].length == 70
    assert np.all(np.isfinite(records[0].channels["ch0"]))


def test_missing_column_and_empty_file_errors(tmp_path):
    with pytest.raises(DataError, match="session"):
        ingest_text(tmp_path, "subject,ch0\na,1.0\n")
    with pytest.raises(DataError, match="empty"):
        ingest_text(tmp_path, "")
    with pytest.raises(DataError, match="empty"):
        ingest_text(tmp_path, "subject,session,ch0\n")


def test_export_ingest_roundtrip(tmp_path):
    records = synth_generate(3, sessions=2, length=64, channels=2, seed=5)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject", "session", "ch0", "ch1"])
        for rec in records:
            for a, b in zip(rec.channels["ch0"], rec.channels["ch1"]):
                writer.writerow([rec.subject_id, rec.session_id, repr(float(a)), repr(float(b))])
    back = ingest_csv(path)
    assert len(back) == len(records)
    by_key = {(r.subject_id, r.session_id): r for r in back}
    for rec in records:
        twin = by_key[(rec.subject_id, rec.session_id)]
        for name in rec.channel_names:
            assert np.array_equal(rec.channels[name], twin.channels[name])


def _flat_records(n_subjects=2, length=100):
    out = []
    for s in range(n_subjects):
        for sess in (1, 2):
            out.append(SequenceRecord(
                subject_id=f"S{s}", session_id=sess,
                channels={"ch0": rng.standard_normal(length),
                          "ch1": rng.standard_normal(length)}))
    return out


def test_window_counts_exact_tiling_and_overlap():
    records = _flat_records(length=100)
    ds = make_windows(records, 50, 50)
    assert sum(ds.sessions == 1) == 2 * 2  # 2 windows x 2 subjects
    ds = make_windows(records, 50, 25)
    assert sum(ds.sessions == 1) == 3 * 2


def test_window_too_long_names_records():
    records = _flat_records(length=40)
    with pytest.raises(DataError, match="S0"):
        make_windows(records, 64, 32)


def test_long_nan_gap_skips_short_segment(tmp_path):
    # an 80-sample gap at 300-380 of a 400-sample record leaves 20 samples
    # after it: too few for a 128-sample window, so that segment is skipped
    rng = np.random.default_rng(5)
    rows = []
    for subject in ("S0", "S1"):
        for session in (1, 2):
            values = rng.standard_normal((400, 2))
            if (subject, session) == ("S0", 1):
                values[300:380] = np.nan
            rows += [f"{subject},{session},{a},{b}" for a, b in values.tolist()]
    records = ingest_text(tmp_path, csv_text(rows))
    assert sorted(r.length for r in records if (r.subject_id, r.session_id) == ("S0", 1)) \
        == [20, 300]
    ds = make_windows(records, 128, 64)
    s0_first = (ds.labels == 0) & (ds.sessions == 1)
    assert s0_first.sum() == 3  # windows at 0, 64 and 128 of the 300-sample segment
    assert ds.sessions.tolist().count(1) == 3 + 5


def test_z_normalization_uses_session1_statistics_only():
    records = _flat_records(length=200)
    # bias session 2 so its stats differ
    for r in records:
        if r.session_id == 2:
            for c in r.channels.values():
                c += 10.0
    ds = make_windows(records, 50, 25)
    s1 = ds.windows[ds.sessions == 1]
    assert abs(float(s1.mean(axis=(0, 2))[0])) < 1e-6
    assert abs(float(s1.std(axis=(0, 2))[0]) - 1.0) < 1e-6
    s2 = ds.windows[ds.sessions == 2]
    assert float(s2.mean()) > 5.0  # session-1 stats applied unchanged


def test_synth_same_seed_bit_identical():
    a = synth_generate(4, sessions=2, length=256, seed=9)
    b = synth_generate(4, sessions=2, length=256, seed=9)
    for ra, rb in zip(a, b):
        assert ra.subject_id == rb.subject_id
        for name in ra.channel_names:
            assert np.array_equal(ra.channels[name], rb.channels[name])
    c = synth_generate(4, sessions=2, length=256, seed=10)
    assert not np.array_equal(a[0].channels["ch0"], c[0].channels["ch0"])


def dominant_bin(x):
    mag = np.abs(np.fft.rfft(x))
    return int(np.argmax(mag[1:]) + 1)


def test_synth_spectral_signatures():
    records = synth_generate(6, sessions=2, length=1024, seed=3)
    by_subject = {}
    for r in records:
        by_subject.setdefault(r.subject_id, {})[r.session_id] = r
    peaks = {}
    for subj, sessions in by_subject.items():
        p1 = [dominant_bin(sessions[1].channels[c]) for c in ("ch0", "ch1")]
        p2 = [dominant_bin(sessions[2].channels[c]) for c in ("ch0", "ch1")]
        # same subject across sessions: dominant frequency persists
        assert p1 == p2, subj
        # noise realization differs
        assert not np.array_equal(sessions[1].channels["ch0"],
                                  sessions[2].channels["ch0"])
        peaks[subj] = tuple(p1)
    # different subjects: different spectra
    assert len(set(peaks.values())) == len(peaks)


def test_fft_nearest_centroid_separability():
    """The generator guarantees a trivially learnable task at desk scale."""
    records = synth_generate(20, sessions=2, length=1280, seed=0)
    ds = make_windows(records, 128, 64)

    def features(w):
        return np.array([np.argmax(np.abs(np.fft.rfft(w[c]))[1:]) + 1
                         for c in range(w.shape[0])], dtype=float)

    s1 = ds.sessions == 1
    s2 = ds.sessions == 2
    feats = np.stack([features(w) for w in ds.windows])
    centroids = np.stack([feats[s1 & (ds.labels == k)].mean(axis=0)
                          for k in range(ds.num_classes)])
    pred = np.argmin(
        np.linalg.norm(feats[s2][:, None, :] - centroids[None], axis=2), axis=1)
    accuracy = float(np.mean(pred == ds.labels[s2]))
    assert accuracy > 0.95, accuracy


def test_split_is_stratified_disjoint_and_seeded():
    records = _flat_records(n_subjects=3, length=250)
    ds = make_windows(records, 50, 25).session_view(1)
    assert len(ds) == 27  # 9 windows per subject
    train, val = split_for_search(ds, 0.5, seed=4)
    for k in range(3):
        assert sum(train.labels == k) == 4
        assert sum(val.labels == k) == 5
    # disjoint by window identity
    tset = {w.tobytes() for w in train.windows}
    vset = {w.tobytes() for w in val.windows}
    assert not (tset & vset)
    train2, val2 = split_for_search(ds, 0.5, seed=4)
    assert np.array_equal(train.windows, train2.windows)


def test_split_exact_halves():
    records = _flat_records(n_subjects=2, length=500)
    ds = make_windows(records, 50, 50).session_view(1)
    train, val = split_for_search(ds, 0.5, seed=0)
    assert sum(train.labels == 0) == 5 and sum(val.labels == 0) == 5


def test_split_single_window_subject_rejected():
    records = _flat_records(n_subjects=2, length=100)
    ds = make_windows(records, 100, 100).session_view(1)
    with pytest.raises(DataError, match="single window"):
        split_for_search(ds, 0.5, seed=0)


def test_batches_cast_to_default_dtype():
    records = _flat_records(length=100)
    ds = make_windows(records, 50, 50)
    xb, yb = next(iter(batches(ds, 4)))
    assert xb.dtype == np.float32
    assert xb.shape == (4, 2, 50)
    assert yb.dtype == np.int64
