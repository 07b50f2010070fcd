"""Verification metrics: embeddings, score protocol, EER, FRR at fixed FAR.

Scores are cosine similarities between L2-normalized probe embeddings and
per-subject enrollment centroids.  The empirical DET is evaluated at every
distinct score (plus open endpoints); both error rates are step functions
of the threshold, so the reported operating points interpolate linearly
between adjacent empirical points.  All metrics depend on score ranks
only: any strictly increasing transform of the scores leaves them
unchanged.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .autograd import Tensor, default_dtype, no_grad
from .serialize import atomic_write


class MetricError(ValueError):
    """Raised for degenerate score sets (an empty genuine or impostor pile)."""


@dataclass
class ScoreSet:
    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        self.genuine = np.asarray(self.genuine, dtype=np.float64).ravel()
        self.impostor = np.asarray(self.impostor, dtype=np.float64).ravel()
        if (self.genuine.size and not np.all(np.isfinite(self.genuine))) or (
                self.impostor.size and not np.all(np.isfinite(self.impostor))):
            raise MetricError("scores must be finite")

    def require_nonempty(self):
        if self.genuine.size == 0:
            raise MetricError("score set has no genuine scores")
        if self.impostor.size == 0:
            raise MetricError(
                "score set has no impostor scores (single-subject protocol?)"
            )


def det_curve(scores: ScoreSet):
    """DET points (thresholds, FAR, FRR) over all distinct scores.

    Acceptance means score >= threshold.  FAR is nonincreasing and FRR
    nondecreasing in the threshold; the endpoints (-inf, +inf) pin the
    curve at (1, 0) and (0, 1).  Each pile is sorted once and counted at
    every distinct score by one binary search.
    """
    scores.require_nonempty()
    gen = np.sort(scores.genuine)
    imp = np.sort(scores.impostor)
    uniq = np.unique(np.concatenate([gen, imp]))
    far = (imp.size - np.searchsorted(imp, uniq, side="left")) / imp.size
    frr = np.searchsorted(gen, uniq, side="left") / gen.size
    return (np.concatenate(([-np.inf], uniq, [np.inf])),
            np.concatenate(([1.0], far, [0.0])),
            np.concatenate(([0.0], frr, [1.0])))


def _eer(far, frr):
    """FAR=FRR crossing of DET arrays; d = FAR - FRR runs from +1 to -1."""
    d = far - frr
    i = int(np.argmax(d <= 0))
    if d[i] == 0:
        return float(far[i])
    s = d[i - 1] / (d[i - 1] - d[i])
    return float(far[i - 1] + s * (far[i] - far[i - 1]))


def _frr_at_far(far, frr, n_impostor, far_target):
    """(FRR at the first DET point with FAR <= target, under_resolved)."""
    under_resolved = n_impostor < 1.0 / far_target
    i = int(np.argmax(far <= far_target))
    if far[i] == far_target or i == 0:
        return float(frr[i]), under_resolved
    u = (far[i - 1] - far_target) / (far[i - 1] - far[i])
    return float(frr[i - 1] + u * (frr[i] - frr[i - 1])), under_resolved


def compute_eer(scores: ScoreSet):
    """Equal error rate: the FAR=FRR crossing of the empirical DET.

    Between adjacent DET points both rates are interpolated linearly, so
    the crossing depends only on the bracketing rate values.
    """
    _, far, frr = det_curve(scores)
    return _eer(far, frr)


def frr_at_far(scores: ScoreSet, far_target):
    """FRR where the DET reaches the target FAR (linear interpolation).

    Returns (frr, under_resolved); the flag marks targets finer than the
    impostor count can resolve (fewer impostors than 1/far_target).
    """
    if not 0 < far_target < 1:
        raise MetricError(f"far_target must be in (0,1), got {far_target}")
    _, far, frr = det_curve(scores)
    return _frr_at_far(far, frr, scores.impostor.size, far_target)


def embed(net, windows, batch_size=256):
    """L2-normalized pre-logit embeddings for a stack of windows."""
    net.eval()
    rows = []
    with no_grad():
        for i in range(0, len(windows), batch_size):
            xb = Tensor(np.asarray(windows[i : i + batch_size]).astype(default_dtype()))
            _, pooled = net.forward_with_embedding(xb)
            rows.append(pooled.data.astype(np.float64))
    emb = np.concatenate(rows, axis=0)
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    return emb / np.maximum(norms, 1e-12)


def score_protocol(emb_session1, labels1, emb_session2, labels2):
    """Centroid enrollment on session 1, cosine scoring of session 2.

    Each subject's enrollment is the re-normalized mean of their session-1
    embeddings; every session-2 embedding is scored against every
    enrollment.  Same-subject pairs land in the genuine pile, the rest in
    the impostor pile.  Subjects present in only one session are excluded
    with a warning.
    """
    labels1 = np.asarray(labels1)
    labels2 = np.asarray(labels2)
    s1, s2 = set(labels1.tolist()), set(labels2.tolist())
    shared = sorted(s1 & s2)
    skipped = sorted((s1 | s2) - (s1 & s2))
    if skipped:
        warnings.warn(
            f"subjects present in only one session are excluded: {skipped}",
            stacklevel=2,
        )
    if not shared:
        raise MetricError("no subject appears in both sessions")

    centroids = []
    for subject in shared:
        rows = emb_session1[labels1 == subject]
        c = rows.mean(axis=0)
        centroids.append(c / max(np.linalg.norm(c), 1e-12))
    centroids = np.stack(centroids)

    keep = np.isin(labels2, shared)
    probes = emb_session2[keep]
    probe_labels = labels2[keep]
    sims = probes @ centroids.T  # (n_probes, n_subjects)
    genuine_mask = probe_labels[:, None] == np.asarray(shared)[None, :]
    return ScoreSet(genuine=sims[genuine_mask], impostor=sims[~genuine_mask])


FAR_TARGETS = ((1e-1, "1e-1"), (1e-2, "1e-2"), (1e-3, "1e-3"))


def metrics_report(scores: ScoreSet):
    """The metrics document written by the evaluator (see schemas/)."""
    _, far, frr = det_curve(scores)
    report = {
        "eer": _eer(far, frr),
        "frr_at_far": {},
        "n_genuine": int(scores.genuine.size),
        "n_impostor": int(scores.impostor.size),
        "under_resolved": [],
    }
    for target, label in FAR_TARGETS:
        value, flagged = _frr_at_far(far, frr, scores.impostor.size, target)
        report["frr_at_far"][label] = value
        if flagged:
            report["under_resolved"].append(label)
    return report


# rows converted to Python floats at a time: a whole-curve .tolist() would
# hold three boxed floats per distinct score in memory at once
_DET_CSV_ROWS = 8192


def write_det_csv(scores: ScoreSet, path):
    """det.csv: one row per DET point, floats written as repr(float)."""
    thresholds, far, frr = det_curve(scores)
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("threshold", "far", "frr"))
        for i in range(0, len(thresholds), _DET_CSV_ROWS):
            part = slice(i, i + _DET_CSV_ROWS)
            writer.writerows(zip(thresholds[part].tolist(), far[part].tolist(),
                                 frr[part].tolist()))
