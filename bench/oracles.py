"""Reference computations the benchmark checks the program's outputs against.

Written apart from ``seqnas.metrics`` and ``seqnas.cell``: scores, error
rates and the DET come from the embeddings alone, and the genotype is
re-derived from the raw alpha and beta arrays of a search checkpoint.
``self_test`` compares the vectorized score oracle with a brute-force
sweep on tiny random score sets and checks that only score ranks matter.
"""

import base64
import math

import numpy as np

FAR_TARGETS = {"1e-1": 1e-1, "1e-2": 1e-2, "1e-3": 1e-3}
GATE_CUT = 0.2
GATE_SCALE = 2.0
NUM_NODES = 4


class CheckFailed(AssertionError):
    """An output of the program disagrees with its oracle."""


def require(cond, what):
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# scores


def unit_rows(a):
    a = np.asarray(a, dtype=np.float64)
    return a / np.maximum(np.linalg.norm(a, axis=1, keepdims=True), 1e-12)


def centroid_scores(emb1, labels1, emb2, labels2):
    """Genuine and impostor cosine scores of session-2 probes vs centroids."""
    subjects = np.intersect1d(labels1, labels2)
    cents = []
    for s in subjects:
        # the 1-D norm per centroid, as the evaluator takes it: the row-wise
        # norm of a stacked array can differ in the last bit, and a 1-ulp
        # score change can reorder a genuine/impostor pair in the DET
        c = emb1[labels1 == s].mean(axis=0)
        cents.append(c / max(np.linalg.norm(c), 1e-12))
    cents = np.stack(cents)
    keep = np.isin(labels2, subjects)
    sims = emb2[keep] @ cents.T
    same = labels2[keep][:, None] == subjects[None, :]
    return sims[same], sims[~same]


def det(genuine, impostor):
    """(thresholds, far, frr): accept when score >= threshold, endpoints pinned."""
    gen, imp = np.sort(genuine), np.sort(impostor)
    thr = np.unique(np.concatenate([gen, imp]))
    far = (imp.size - np.searchsorted(imp, thr, side="left")) / imp.size
    frr = np.searchsorted(gen, thr, side="left") / gen.size
    return (np.concatenate(([-np.inf], thr, [np.inf])),
            np.concatenate(([1.0], far, [0.0])),
            np.concatenate(([0.0], frr, [1.0])))


def eer(far, frr):
    d = far - frr
    i = int(np.argmax(d <= 0))
    if d[i] == 0:
        return float(far[i])
    s = d[i - 1] / (d[i - 1] - d[i])
    return float(far[i - 1] + s * (far[i] - far[i - 1]))


def frr_at(far, frr, target):
    i = int(np.argmax(far <= target))
    if far[i] == target or i == 0:
        return float(frr[i])
    u = (far[i - 1] - target) / (far[i - 1] - far[i])
    return float(frr[i - 1] + u * (frr[i] - frr[i - 1]))


def score_report(genuine, impostor):
    """The metrics document the evaluator should have written."""
    _, far, frr = det(genuine, impostor)
    return {
        "eer": eer(far, frr),
        "frr_at_far": {k: frr_at(far, frr, t) for k, t in FAR_TARGETS.items()},
        "n_genuine": int(genuine.size),
        "n_impostor": int(impostor.size),
        "under_resolved": [k for k, t in FAR_TARGETS.items()
                           if impostor.size < 1.0 / t],
    }


def _brute_report(genuine, impostor):
    """Pure-python DET sweep over every candidate threshold."""
    thresholds = [-math.inf] + sorted(set(genuine) | set(impostor)) + [math.inf]
    far = np.array([sum(s >= t for s in impostor) / len(impostor) for t in thresholds])
    frr = np.array([sum(s < t for s in genuine) / len(genuine) for t in thresholds])
    return far, frr


def self_test(trials=150, seed=0):
    """Vectorized oracle == brute force, and ranks alone decide the metrics."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n_gen, n_imp = int(rng.integers(1, 12)), int(rng.integers(1, 30))
        gen = rng.integers(-6, 8, n_gen).astype(np.float64)
        imp = rng.integers(-8, 6, n_imp).astype(np.float64)
        _, far, frr = det(gen, imp)
        bfar, bfrr = _brute_report(gen.tolist(), imp.tolist())
        require(np.array_equal(far, bfar) and np.array_equal(frr, bfrr),
                f"oracle self-test: DET differs from brute force (trial {trial})")
        ref = score_report(gen, imp)
        require(ref["eer"] == eer(bfar, bfrr),
                f"oracle self-test: EER differs from brute force (trial {trial})")
        # a strictly increasing map keeps every rank, so every metric
        for f in (lambda s: 3.0 * s + 7.0, np.exp, lambda s: np.cbrt(s) - 100.0):
            require(score_report(f(gen), f(imp)) == ref,
                    f"oracle self-test: metrics moved under a rank-preserving map "
                    f"(trial {trial})")


def check_metrics(doc, ref, tol=1e-9):
    """metrics.json from the program against the oracle's report."""
    require(doc["n_genuine"] == ref["n_genuine"],
            f"n_genuine {doc['n_genuine']} != oracle {ref['n_genuine']}")
    require(doc["n_impostor"] == ref["n_impostor"],
            f"n_impostor {doc['n_impostor']} != oracle {ref['n_impostor']}")
    require(sorted(doc["under_resolved"]) == sorted(ref["under_resolved"]),
            f"under_resolved {doc['under_resolved']} != oracle {ref['under_resolved']}")
    require(abs(doc["eer"] - ref["eer"]) <= tol,
            f"eer {doc['eer']} != oracle {ref['eer']}")
    for k, v in ref["frr_at_far"].items():
        require(abs(doc["frr_at_far"][k] - v) <= tol,
                f"frr_at_far[{k}] {doc['frr_at_far'][k]} != oracle {v}")


def check_det_csv(path, genuine, impostor, tol=1e-12):
    """det.csv holds the oracle's DET, FAR non-increasing and FRR non-decreasing."""
    with open(path) as fh:
        header = fh.readline().strip()
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    require(header == "threshold,far,frr", f"det.csv header {header!r}")
    thr, far, frr = det(genuine, impostor)
    require(table.shape == (len(thr), 3),
            f"det.csv has {table.shape[0]} rows, oracle {len(thr)}")
    require(bool(np.all(np.diff(table[:, 1]) <= 0)), "det.csv FAR increases")
    require(bool(np.all(np.diff(table[:, 2]) >= 0)), "det.csv FRR decreases")
    require(np.allclose(table[:, 1], far, rtol=0, atol=tol)
            and np.allclose(table[:, 2], frr, rtol=0, atol=tol),
            "det.csv rates differ from the oracle's DET")
    require(np.array_equal(table[1:-1, 0], thr[1:-1]),
            "det.csv thresholds differ from the distinct scores")


# ---------------------------------------------------------------------------
# genotype


def decode_checkpoint_array(entry):
    raw = base64.b64decode(entry["data"])
    return np.frombuffer(raw, dtype=np.dtype(entry["dtype"])).reshape(entry["shape"])


def _softmax(a, axis=-1):
    a = np.asarray(a, dtype=np.float64)
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def derive(alphas, betas, kinds, vocab):
    """Genotype cells from raw per-cell alpha (14 x ops) and beta (2) arrays.

    Each edge scores its best non-``none`` softmax weight; a node keeps its
    two best edges, ties toward the lower from-node, then the lower op
    index.  An input is pruned when 2 * softmax(beta) falls below 0.2.
    """
    none = vocab.index("none")
    cells = []
    for alpha, beta, kind in zip(alphas, betas, kinds):
        w = _softmax(alpha)
        w[:, none] = -np.inf
        nodes, row = [], 0
        for j in range(NUM_NODES):
            cand = []
            for frm in range(j + 2):
                op = int(np.argmax(w[row]))  # first maximum: lowest op index
                cand.append((-w[row, op], frm, vocab[op]))
                row += 1
            kept = sorted(sorted(cand)[:2], key=lambda c: c[1])
            nodes.append([{"op": op, "from": frm} for _, frm, op in kept])
        coeff = GATE_SCALE * _softmax(beta)
        cells.append({"kind": kind, "nodes": nodes,
                      "gates": {"s0": float(coeff[0]), "s1": float(coeff[1]),
                                "pruned": [bool(c < GATE_CUT) for c in coeff]}})
    return cells


def check_genotype(genotype_doc, checkpoint_doc):
    """genotype.json against the oracle's derivation from checkpoints/last.json."""
    cfg = checkpoint_doc["config"]
    kinds = list(cfg["layout"])
    arrays = checkpoint_doc["arrays"]
    n = len(kinds)
    alphas = [decode_checkpoint_array(arrays[f"net:alpha.cell{i}"]) for i in range(n)]
    betas = [decode_checkpoint_array(arrays[f"net:beta.cell{i}"]) for i in range(n)]
    vocab = list(genotype_doc["vocab"])
    expected = derive(alphas, betas, kinds, vocab)
    got = genotype_doc["cells"]
    require(len(got) == n, f"genotype has {len(got)} cells, layout {n}")
    for i, (g, e) in enumerate(zip(got, expected)):
        require(g["kind"] == e["kind"], f"cell {i} kind {g['kind']} != {e['kind']}")
        require(g["nodes"] == e["nodes"], f"cell {i} nodes differ from the oracle")
        require(g["gates"]["pruned"] == e["gates"]["pruned"],
                f"cell {i} pruned {g['gates']['pruned']} != {e['gates']['pruned']}")
        for k in ("s0", "s1"):
            require(abs(g["gates"][k] - e["gates"][k]) <= 1e-9,
                    f"cell {i} gate {k} {g['gates'][k]} != {e['gates'][k]}")
        require(abs(g["gates"]["s0"] + g["gates"]["s1"] - GATE_SCALE) <= 1e-9,
                f"cell {i} gates sum to {g['gates']['s0'] + g['gates']['s1']}")
