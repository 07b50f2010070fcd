"""Dataset handling: CSV ingestion, windowing, splits, synthetic subjects.

A dataset is a list of SequenceRecord (one per subject x session) turned
into fixed-length windows.  Session 1 feeds search and training; session 2
is held out for verification testing.  Normalization statistics always
come from session-1 windows and are applied unchanged to session 2.

CSV schema: a header row naming the subject column, the session column,
and one column per channel; rows are samples in time order, grouped by
(subject, session).  See README for a worked example.
"""

import csv
import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .autograd import Tensor, default_dtype


# NaN runs up to this many samples (50 ms at 1 kHz) are interpolated; longer
# ones split the record
MAX_NAN_GAP = 50


class DataError(ValueError):
    """Raised for malformed inputs, impossible windowing, or bad splits."""


@dataclass
class CsvSchema:
    subject_col: str = "subject"
    session_col: str = "session"
    channel_cols: tuple = ()  # empty = every other column, header order


@dataclass
class SequenceRecord:
    subject_id: str
    session_id: int
    channels: dict  # name -> 1-D float array, all equal length

    @property
    def length(self):
        return len(next(iter(self.channels.values())))

    @property
    def channel_names(self):
        return list(self.channels.keys())


def _interpolate_short_gaps(values, bad, max_gap):
    """Linearly fill NaN runs of length <= max_gap; return segment bounds.

    Runs longer than max_gap (and runs touching either end) split the
    record instead of being filled.
    """
    n = len(bad)
    edges = np.flatnonzero(np.diff(bad, prepend=False, append=False)).tolist()
    bounds = [0]  # segment k is bounds[2k:2k + 2]
    for i, j in zip(edges[::2], edges[1::2]):  # the NaN run bad[i:j]
        if i == 0 or j == n or (j - i) > max_gap:
            bounds += (i, j)
        else:
            steps = j - i + 1
            for col in values.values():
                left, right = col[i - 1], col[j]
                col[i:j] = left + (right - left) * np.arange(1, steps) / steps
    bounds.append(n)
    return [(a, b) for a, b in zip(bounds[::2], bounds[1::2]) if a < b]


def ingest_csv(path, schema: CsvSchema = None):
    """Parse a CSV file into records grouped by (subject, session)."""
    schema = schema or CsvSchema()
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return _ingest(fh, schema)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _ingest(fh, schema):
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file: no header row") from None
    for col in (schema.subject_col, schema.session_col):
        if col not in header:
            raise DataError(f"missing column {col!r} in header {header}")
    channel_cols = list(schema.channel_cols) or [
        c for c in header if c not in (schema.subject_col, schema.session_col)
    ]
    if not channel_cols:
        raise DataError("no channel columns in header")
    for col in channel_cols:
        if col not in header:
            raise DataError(f"missing channel column {col!r}")
    idx = {c: header.index(c) for c in header}

    groups = {}
    try:
        for row in reader:
            if not row:
                continue
            c = schema.subject_col
            subject = row[idx[c]]
            c = schema.session_col
            key = (subject, int(row[idx[c]]))
            if key not in groups:
                groups[key] = {name: [] for name in channel_cols}
            for c in channel_cols:
                cell = row[idx[c]].strip()
                groups[key][c].append(float(cell) if cell not in ("", "nan", "NaN") else np.nan)
    except (ValueError, IndexError) as exc:
        problem = "row is too short" if isinstance(exc, IndexError) else exc
        raise DataError(f"line {reader.line_num}, column {c!r}: {problem}") from None
    if not groups:
        raise DataError("empty file: no data rows")

    records = []
    for key in sorted(groups):
        subject, session = key
        values = {c: np.asarray(groups[key][c], dtype=np.float64) for c in channel_cols}
        bad = np.zeros(len(next(iter(values.values()))), dtype=bool)
        for col in values.values():
            bad |= ~np.isfinite(col)
        segments = _interpolate_short_gaps(values, bad, MAX_NAN_GAP)
        for a, b in segments:
            records.append(SequenceRecord(
                subject_id=subject,
                session_id=session,
                channels={c: values[c][a:b].copy() for c in channel_cols},
            ))
    return records


@dataclass
class WindowedDataset:
    windows: np.ndarray  # (N, C, T)
    labels: np.ndarray  # subject index per window
    sessions: np.ndarray  # session id per window
    subject_ids: list  # index -> subject id
    # (subject, session, length) of each segment too short for a window, not hashed
    dropped: list = field(default_factory=list)

    def __len__(self):
        return len(self.windows)

    @property
    def num_classes(self):
        return len(self.subject_ids)

    def session_view(self, session):
        return self.subset(np.flatnonzero(self.sessions == session))

    def subset(self, indices):
        indices = np.asarray(indices)
        return replace(self, windows=self.windows[indices], labels=self.labels[indices],
                       sessions=self.sessions[indices])

    def content_hash(self):
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.windows).tobytes())
        h.update(self.labels.tobytes())
        h.update(self.sessions.tobytes())
        return h.hexdigest()


def make_windows(records, window_len, stride):
    """Slice records into fixed windows; z-score with session-1 statistics.

    Records shorter than the window (segments cut by long NaN gaps) are
    skipped and listed in the dataset's dropped; a (subject, session) left
    with no window is a DataError."""
    if not records:
        raise DataError("no records to window")
    kept = [r for r in records if r.length >= window_len]
    dropped = [(r.subject_id, r.session_id, r.length) for r in records
               if r.length < window_len]
    windowed = {(r.subject_id, r.session_id) for r in kept}
    too_short = [seg for seg in dropped if seg[:2] not in windowed]
    if too_short:
        raise DataError(
            f"window length {window_len} exceeds record length for: {too_short[:5]}"
        )
    records = kept
    names = records[0].channel_names
    subjects = sorted({r.subject_id for r in records})
    sub_index = {s: i for i, s in enumerate(subjects)}

    wins, labels, sessions = [], [], []
    for rec in sorted(records, key=lambda r: (r.subject_id, r.session_id)):
        stacked = np.stack([rec.channels[c] for c in names])  # (C, L)
        for start in range(0, rec.length - window_len + 1, stride):
            wins.append(stacked[:, start : start + window_len])
            labels.append(sub_index[rec.subject_id])
            sessions.append(rec.session_id)
    windows = np.stack(wins)
    labels = np.asarray(labels, dtype=np.int64)
    sessions = np.asarray(sessions, dtype=np.int64)

    ref = windows[sessions == 1]
    if len(ref) == 0:
        raise DataError("z-normalization needs session-1 windows")
    mean = ref.mean(axis=(0, 2))
    std = ref.std(axis=(0, 2))
    std = np.where(std < 1e-12, 1.0, std)
    windows = (windows - mean[None, :, None]) / std[None, :, None]
    return WindowedDataset(windows=windows, labels=labels, sessions=sessions,
                           subject_ids=subjects, dropped=dropped)


def split_for_search(dataset, ratio, seed):
    """Disjoint label-stratified split of (session-1) windows."""
    if not 0 < ratio < 1:
        raise DataError(f"split ratio must be in (0,1), got {ratio}")
    rng = np.random.default_rng([int(seed), 0x511])
    train_idx, val_idx = [], []
    for label in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == label)
        if len(idx) == 0:
            continue
        if len(idx) < 2:
            raise DataError(
                f"subject {dataset.subject_ids[label]!r} has a single window; "
                f"cannot stratify"
            )
        perm = rng.permutation(idx)
        n_train = min(max(int(len(idx) * ratio), 1), len(idx) - 1)
        train_idx.extend(perm[:n_train].tolist())
        val_idx.extend(perm[n_train:].tolist())
    return dataset.subset(sorted(train_idx)), dataset.subset(sorted(val_idx))


# the generator's spectral layout: subject tones live strictly below the
# distractor sweep band, so narrowband identity and broadband nuisance are
# separable by any filter that learns the cut.  The distractor is a
# periodic FM tone, so its spectrum is a comb of lines 1/period apart
# across the sweep band; a period of 90-140 samples spreads its energy
# over some 10-16 lines, and amplitude 1.2 keeps the strongest of them
# below the unit subject tone in every 128-sample window (worst per-bin
# ratio 0.90 over seeds 0-15, where a 40-90 period at amplitude 1.5
# reached 1.31).  Its total power is still 1.44x the tone's, which is
# what masks identity from untrained filters: at amplitude 1.0 untrained
# nets no longer verify at chance.
SUBJECT_BAND = (0.05, 0.36)
DISTRACTOR_BAND = (0.375, 0.485)
DISTRACTOR_AMPLITUDE = 1.2
DISTRACTOR_PERIOD = (90.0, 140.0)


def synth_generate(num_subjects, sessions=2, length=1920, channels=2, seed=0):
    """Seeded synthetic subjects with persistent spectral signatures.

    Each subject gets a distinct base frequency per channel inside
    SUBJECT_BAND, a jump process imitating saccade velocity spikes, and
    white noise.  Session 2 reuses the signature with fresh phases, jumps,
    and noise, emulating a test-retest gap.

    Every record also carries a strong frequency-roving distractor: an FM
    tone of amplitude DISTRACTOR_AMPLITUDE sweeping DISTRACTOR_BAND on a
    triangular schedule with a period drawn from DISTRACTOR_PERIOD and a
    random phase.  Its total energy dominates untrained random-filter
    embeddings (so untrained networks verify at chance), while its
    per-bin spectral peak stays below the subject tone's in every
    128-sample window, so the per-window spectral argmax still finds the
    subject tone and an FFT-peak nearest-centroid classifier separates
    the subjects.  Shorter windows resolve fewer of the distractor's
    spectral lines and do not carry this guarantee.
    """
    if num_subjects < 2:
        raise DataError("need at least 2 subjects")
    rng = np.random.default_rng([int(seed), 0x5EED])

    perms = [rng.permutation(num_subjects) for _ in range(channels)]
    lo, hi = SUBJECT_BAND
    base = lo + (hi - lo) * np.arange(num_subjects) / num_subjects
    fm_lo, fm_hi = DISTRACTOR_BAND

    t = np.arange(length)
    records = []
    for s in range(num_subjects):
        for session in range(1, sessions + 1):
            chans = {}
            for c in range(channels):
                f = base[perms[c][s]]
                sig = np.sin(2 * math.pi * f * t + rng.uniform(0, 2 * math.pi))
                period = rng.uniform(*DISTRACTOR_PERIOD)
                frac = (t / period + rng.uniform(0, 1)) % 1.0
                inst = fm_lo + (fm_hi - fm_lo) * (1.0 - np.abs(2 * frac - 1.0))
                sig += DISTRACTOR_AMPLITUDE * np.sin(
                    2 * math.pi * np.cumsum(inst) + rng.uniform(0, 2 * math.pi))
                n_jumps = rng.poisson(length / 96)
                if n_jumps > 0:
                    starts = rng.integers(0, length, size=n_jumps)
                    mags = 2.0 * rng.standard_normal(n_jumps)
                    for start, mag in zip(starts, mags):
                        span = min(8, length - start)
                        sig[start : start + span] += mag * np.exp(-np.arange(span) / 3.0)
                sig += 0.35 * rng.standard_normal(length)
                chans[f"ch{c}"] = sig
            records.append(SequenceRecord(
                subject_id=f"S{s:03d}", session_id=session, channels=chans))
    return records


def epoch_order(seed, epoch, n, stream):
    """One epoch's batch order, seeded by (seed, epoch, stream) so resumes match."""
    return np.random.default_rng([int(seed), int(epoch), int(stream)]).permutation(n)


def batches(dataset, batch_size, order=None):
    """Yield (Tensor(B,C,T), labels) batches in the given index order."""
    order = np.arange(len(dataset)) if order is None else np.asarray(order)
    dtype = default_dtype()
    for i in range(0, len(order), batch_size):
        idx = order[i : i + batch_size]
        yield (Tensor(dataset.windows[idx].astype(dtype)), dataset.labels[idx])


def num_batches(n, batch_size):
    return -(-n // batch_size)
