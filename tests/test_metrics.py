import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqnas.cell import CellGenotype, Genotype
from seqnas.metrics import (FAR_TARGETS, MetricError, ScoreSet, compute_eer,
                            det_curve, embed, frr_at_far, metrics_report,
                            score_protocol, write_det_csv)
from seqnas.network import SupernetConfig, instantiate_discrete
from helpers import eer_oracle, frr_at_far_oracle, sweep_det_oracle

rng = np.random.default_rng(53)


def test_perfect_separation_eer_zero():
    s = ScoreSet(genuine=[0.9, 0.8, 0.7], impostor=[0.4, 0.3, 0.2])
    assert compute_eer(s) == 0.0
    for target, _ in FAR_TARGETS:
        assert frr_at_far(s, target)[0] == 0.0


def test_worked_overlap_example_eer_third():
    s = ScoreSet(genuine=[0.9, 0.6, 0.4], impostor=[0.7, 0.3, 0.2])
    assert compute_eer(s) == pytest.approx(1 / 3)


def test_identical_multisets_eer_half():
    vals = [0.1, 0.4, 0.4, 0.7, 0.9]
    s = ScoreSet(genuine=vals, impostor=list(vals))
    assert compute_eer(s) == pytest.approx(0.5)


def test_empty_piles_rejected():
    with pytest.raises(MetricError, match="genuine"):
        compute_eer(ScoreSet(genuine=[], impostor=[0.1]))
    with pytest.raises(MetricError, match="impostor"):
        compute_eer(ScoreSet(genuine=[0.1], impostor=[]))
    with pytest.raises(MetricError):
        ScoreSet(genuine=[np.nan], impostor=[0.1])


def test_det_monotone_in_threshold():
    s = ScoreSet(genuine=rng.standard_normal(300) + 1.0,
                 impostor=rng.standard_normal(500))
    _, far, frr = det_curve(s)
    assert np.all(np.diff(far) <= 1e-15)
    assert np.all(np.diff(frr) >= -1e-15)


def test_loose_far_target_with_overlapping_ranges():
    # a target just under 1 accepts nearly everything: FRR at the loosest
    # threshold is 0 when the score ranges overlap
    s = ScoreSet(genuine=[0.2, 0.5, 0.9], impostor=[0.1, 0.4, 0.8])
    value, flagged = frr_at_far(s, 1.0 - 1e-9)
    assert value == 0.0
    assert not flagged  # 1/target ~ 1 impostor suffices


def test_under_resolved_flag():
    s = ScoreSet(genuine=rng.random(50), impostor=rng.random(50))
    _, flagged = frr_at_far(s, 1e-3)
    assert flagged
    s = ScoreSet(genuine=rng.random(50), impostor=rng.random(2000))
    _, flagged = frr_at_far(s, 1e-3)
    assert not flagged


@settings(deadline=None, max_examples=60)
@given(
    gen=st.lists(st.integers(-40, 40), min_size=1, max_size=60),
    imp=st.lists(st.integers(-40, 40), min_size=1, max_size=60),
    target=st.sampled_from([0.1, 0.25, 0.5, 0.01]),
)
def test_metrics_agree_exactly_with_sweep_oracle(gen, imp, target):
    # integer-derived scores maximize duplicate/tie coverage
    g = [v / 7.0 for v in gen]
    i = [v / 7.0 for v in imp]
    s = ScoreSet(genuine=g, impostor=i)
    assert compute_eer(s) == eer_oracle(g, i)
    assert frr_at_far(s, target)[0] == frr_at_far_oracle(g, i, target)


@settings(deadline=None, max_examples=80)
@given(
    gen=st.lists(st.integers(-6, 6), min_size=1, max_size=120),
    imp=st.lists(st.integers(-6, 6), min_size=1, max_size=120),
)
def test_det_and_report_equal_sweep_oracle_on_heavy_ties(gen, imp):
    # 13 possible values over up to 240 scores: nearly every threshold is tied
    s = ScoreSet(genuine=gen, impostor=imp)
    for got, want in zip(det_curve(s), sweep_det_oracle(gen, imp)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    report = metrics_report(s)
    assert report["eer"] == eer_oracle(gen, imp)
    for target, label in FAR_TARGETS:
        assert report["frr_at_far"][label] == frr_at_far_oracle(gen, imp, target)
        assert (label in report["under_resolved"]) == (len(imp) < 1.0 / target)


def test_report_and_det_csv_bytes_pinned(tmp_path):
    # hashes of the output written by the per-threshold loop this DET replaced
    pin = np.random.default_rng(20240)
    gen = np.round(pin.normal(0.55, 0.2, 1000), 3)
    imp = np.concatenate([np.round(pin.normal(0.1, 0.2, 9500), 3),
                          pin.normal(0.1, 0.2, 9500)])
    s = ScoreSet(genuine=gen, impostor=imp)
    text = json.dumps(metrics_report(s), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3d15ec1575d7313a80c9d294a2b0a4123c9e92a0ae8c3204ff7403f6060e4887"
    path = tmp_path / "det.csv"
    write_det_csv(s, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "d6aea5dc2de6a1774202511a033ff39f41e8e55167e9eee453b33c0301afde0d"


@settings(deadline=None, max_examples=30)
@given(scale=st.floats(0.1, 10), shift=st.floats(-5, 5))
def test_rank_invariance_under_increasing_transforms(scale, shift):
    g = rng.standard_normal(40)
    i = rng.standard_normal(55) - 0.5
    base = ScoreSet(genuine=g, impostor=i)
    affine = ScoreSet(genuine=g * scale + shift, impostor=i * scale + shift)
    warped = ScoreSet(genuine=np.tanh(g), impostor=np.tanh(i))
    assert compute_eer(base) == compute_eer(affine) == compute_eer(warped)
    for target in (0.1, 0.31):
        assert frr_at_far(base, target)[0] == frr_at_far(affine, target)[0]
        assert frr_at_far(base, target)[0] == frr_at_far(warped, target)[0]


def test_protocol_orthogonal_embeddings():
    emb1 = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels1 = np.array([0, 0, 1, 1])
    emb2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels2 = np.array([0, 1])
    s = score_protocol(emb1, labels1, emb2, labels2)
    assert np.allclose(sorted(s.genuine), [1.0, 1.0])
    assert np.allclose(sorted(s.impostor), [0.0, 0.0])


def test_protocol_score_census():
    subjects, windows, dim = 5, 7, 16
    labels1 = np.repeat(np.arange(subjects), 3)
    emb1 = rng.standard_normal((len(labels1), dim))
    emb1 /= np.linalg.norm(emb1, axis=1, keepdims=True)
    labels2 = np.repeat(np.arange(subjects), windows)
    emb2 = rng.standard_normal((len(labels2), dim))
    emb2 /= np.linalg.norm(emb2, axis=1, keepdims=True)
    s = score_protocol(emb1, labels1, emb2, labels2)
    assert s.genuine.size == subjects * windows
    assert s.impostor.size == subjects * (subjects - 1) * windows


def test_protocol_single_subject_rejected_downstream():
    emb = rng.standard_normal((4, 8))
    s = score_protocol(emb, np.zeros(4, int), emb, np.zeros(4, int))
    assert s.impostor.size == 0
    with pytest.raises(MetricError, match="impostor"):
        compute_eer(s)


def test_protocol_warns_on_session_exclusive_subjects():
    emb1 = rng.standard_normal((4, 8))
    emb2 = rng.standard_normal((4, 8))
    with pytest.warns(UserWarning, match="excluded"):
        s = score_protocol(emb1, np.array([0, 0, 1, 1]),
                           emb2, np.array([0, 0, 2, 2]))
    assert s.genuine.size == 2  # only subject 0 is shared
    with pytest.warns(UserWarning, match="excluded"), \
            pytest.raises(MetricError, match="no subject appears in both sessions"):
        score_protocol(emb1, np.array([0, 0, 1, 1]), emb2, np.array([2, 2, 3, 3]))


def _tiny_trained_net():
    nodes = [[("sep_conv_3", 0), ("skip_connect", 1)] for _ in range(4)]
    g = Genotype(cells=[CellGenotype("normal", nodes),
                        CellGenotype("reduction", nodes)]).validate()
    cfg = SupernetConfig(num_cells=2, layout=("normal", "reduction"),
                         init_channels=4, num_classes=3, input_channels=2)
    return instantiate_discrete(g, cfg, seed=1)


def test_embed_rows_unit_norm_and_deterministic():
    net = _tiny_trained_net()
    windows = rng.standard_normal((7, 2, 32))
    e1 = embed(net, windows, batch_size=3)
    e2 = embed(net, windows, batch_size=7)
    assert e1.shape == (7, net.feature_dim)
    assert np.allclose(np.linalg.norm(e1, axis=1), 1.0, atol=1e-6)
    assert np.allclose(e1, e2, atol=1e-6)
    # identical windows produce identical embeddings
    same = embed(net, np.stack([windows[0], windows[0]]))
    assert np.array_equal(same[0], same[1])


def test_metrics_report_matches_schema(tmp_path):
    import jsonschema
    from importlib import resources

    s = ScoreSet(genuine=rng.random(200) + 0.3, impostor=rng.random(400))
    report = metrics_report(s)
    schema = json.loads(
        resources.files("seqnas").joinpath("schemas/metrics.schema.json")
        .read_text())
    jsonschema.validate(report, schema)
    assert set(report["frr_at_far"]) == {"1e-1", "1e-2", "1e-3"}

    path = tmp_path / "det.csv"
    write_det_csv(s, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "threshold,far,frr"
    assert len(rows) > 3
