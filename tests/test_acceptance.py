"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The end-to-end and ablation criteria run real searches on the
seeded synthetic set; expect the module to take several minutes on a
single CPU.
"""

import json
import math
import time

import numpy as np
import pytest

from seqnas import functional as F
from seqnas import search
from seqnas.autograd import backward, no_grad, reset_tape, using_dtype
from seqnas.cell import NUM_EDGES
from seqnas.cli import EvalConfig, main
from seqnas.data import make_windows, split_for_search, synth_generate
from seqnas.metrics import ScoreSet, compute_eer, frr_at_far
from seqnas.network import Supernet, SupernetConfig, gate_coefficients
from seqnas.optim import (OptimizerConfig, _arch_grads_unrolled,
                          make_triple_state, triple_step)
from seqnas.ops import mixed_forward
from seqnas.search import SearchRunConfig, run_search
from seqnas.serialize import load_arrays
from seqnas.train import TrainConfig
from helpers import eer_oracle, frr_at_far_oracle

rng = np.random.default_rng(2024)


def report(n, text):
    print(f"\n[ACCEPTANCE {n}] PASS — {text}")


def tiny_supernet_config():
    return SupernetConfig(num_cells=2, layout=("normal", "reduction"),
                          init_channels=2, num_classes=2, input_channels=2,
                          independent_alpha=True, use_gates=True)


# ---------------------------------------------------------------------------
# 1. gradient integrity


def test_criterion_1_gradient_integrity():
    """w, alpha, beta gradients vs central finite differences, 64-bit.

    alpha and beta are checked per scalar.  The weight class is checked by
    per-scalar sweeps over representative tensors of every op family
    (stem, separable/dilated convs, projections, normalization, head) plus
    global random-direction probes spanning the full weight vector.
    """
    start = time.time()
    with using_dtype(np.float64):
        net = Supernet(tiny_supernet_config(), seed=1)
        x = rng.standard_normal((2, 2, 16))
        labels = np.array([0, 1])

        def loss_value():
            with no_grad():
                return float(F.cross_entropy(net.forward(x), labels).data)

        reset_tape()
        net.zero_grad()
        for p in net.arch_parameters() + net.gate_parameters():
            p.zero_grad()
        backward(F.cross_entropy(net.forward(x), labels))

        eps = 1e-5

        def check_scalar(arr, grad, i, label):
            orig = arr.reshape(-1)[i]
            arr.reshape(-1)[i] = orig + eps
            lp = loss_value()
            arr.reshape(-1)[i] = orig - eps
            lm = loss_value()
            arr.reshape(-1)[i] = orig
            numeric = (lp - lm) / (2 * eps)
            analytic = grad.reshape(-1)[i]
            err = abs(analytic - numeric)
            tol = max(1e-4 * max(abs(analytic), abs(numeric)), 1e-7)
            assert err <= tol, f"{label}[{i}]: {analytic} vs {numeric}"

        checked = 0
        for p in net.arch_parameters() + net.gate_parameters():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            for i in range(p.size):
                check_scalar(p.data, g, i, p.name)
                checked += 1

        ws = net.weight_parameters()
        by_name = {p.name: p for p in ws}
        representatives = [by_name["stem.w"], by_name["head.w"], by_name["head.b"],
                           by_name["stem.norm.gamma"], by_name["stem.norm.beta"]]
        for key in ("sep_conv_3.dw1", "sep_conv_5.pw1", "dil_conv_3.dw",
                    "skip_connect.w1", "pre0.w", "norm1.gamma"):
            representatives.append(next(p for p in ws if key in p.name))
        for p in representatives:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            for i in range(p.size):
                check_scalar(p.data, g, i, p.name)
                checked += 1

        # global directional probes over the entire weight vector
        probe_rng = np.random.default_rng(99)
        for k in range(10):
            vs = [probe_rng.standard_normal(p.shape) for p in ws]
            norm = math.sqrt(sum(float(np.sum(v * v)) for v in vs))
            vs = [v / norm for v in vs]
            analytic = sum(
                float(np.sum((p.grad if p.grad is not None else 0.0) * v))
                for p, v in zip(ws, vs))
            orig = [p.data.copy() for p in ws]
            for p, v in zip(ws, vs):
                p.data = p.data + eps * v
            lp = loss_value()
            for p, o, v in zip(ws, orig, vs):
                p.data = o - eps * v
            lm = loss_value()
            for p, o in zip(ws, orig):
                p.data = o
            numeric = (lp - lm) / (2 * eps)
            err = abs(analytic - numeric)
            tol = max(1e-4 * max(abs(analytic), abs(numeric)), 1e-7)
            assert err <= tol, f"direction {k}: {analytic} vs {numeric}"

    elapsed = time.time() - start
    assert elapsed < 60, f"gradient integrity took {elapsed:.1f}s (budget 60s)"
    report(1, f"w/alpha/beta match finite differences "
              f"({checked} scalars + 10 global directions) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. mixed-operation semantics


def test_criterion_2_mixed_op_semantics(tmp_path, monkeypatch):
    from seqnas.autograd import Tensor
    from seqnas.ops import MixedOp

    m = MixedOp(4, 1, np.random.default_rng(0), np.float32)
    x = Tensor(rng.standard_normal((2, 4, 16)).astype(np.float32))
    uniform = Tensor(np.full(8, 1.3, dtype=np.float32))
    mixed = mixed_forward(m, x, uniform)
    mean = np.mean([op.forward(x).data for op in m.candidates], axis=0)
    assert np.allclose(mixed.data, mean, atol=1e-6)
    reset_tape()

    records = synth_generate(4, sessions=2, length=320, seed=2)
    ds = make_windows(records, 64, 32)
    worst = []
    step = search.triple_step

    def watch(net, *args):
        losses = step(net, *args)
        for a in net.arch_parameters():
            z = a.data - a.data.max(axis=1, keepdims=True)
            e = np.exp(z)
            rows = (e / e.sum(axis=1, keepdims=True)).sum(axis=1)
            worst.append(float(np.abs(rows - 1.0).max()))
        return losses

    monkeypatch.setattr(search, "triple_step", watch)
    cfg = SearchRunConfig(epochs=2, train_batch=8, val_batch=8, seed=0,
                          tier="relax", num_cells=2,
                          layout=("normal", "reduction"), init_channels=4)
    run_search(cfg, ds, out_dir=str(tmp_path / "search"))
    assert worst and max(worst) < 1e-6
    report(2, f"uniform-alpha mean within 1e-6; softmax rows sum to 1 "
              f"(max |dev| {max(worst):.2e}) across a 2-epoch search")


# ---------------------------------------------------------------------------
# 3. gate semantics


def test_criterion_3_gate_semantics():
    net = Supernet(tiny_supernet_config(), seed=3)
    for p, val in zip(net.gate_parameters(), ((0.7, -0.4), (-1.2, 0.5))):
        p.data[:] = val
    net.forward(rng.standard_normal((2, 2, 16)).astype(np.float32))
    reset_tape()
    for g0, g1 in net.last_gates:
        assert abs(g0 + g1 - 2.0) < 1e-6

    g = gate_coefficients(np.array([3.0, 0.0]))
    assert g[1] < 0.2  # 0.0949: pruned at derivation
    net.gate_parameters()[0].data[:] = (3.0, 0.0)
    net.gate_parameters()[1].data[:] = (math.log(9.0), 0.0)
    genotype = net.derive()
    assert genotype.cells[0].pruned == (False, True)
    boundary = gate_coefficients(np.array([math.log(9.0), 0.0]))
    assert abs(boundary[1] - 0.2) < 1e-9
    assert genotype.cells[1].pruned == (False, False)
    report(3, "coefficients sum to 2 each forward; beta=(3,0) prunes at "
              "c=0.2; beta=(ln9,0) sits on the boundary and survives")


# ---------------------------------------------------------------------------
# 4. independent-alpha structure


def test_criterion_4_independent_alpha_structure():
    layout = ("normal", "reduction") * 3
    relax = Supernet(SupernetConfig(num_cells=6, layout=layout, init_channels=4,
                                    num_classes=4, input_channels=2,
                                    independent_alpha=True, use_gates=True), seed=0)
    alphas = relax.arch_parameters()
    assert len(alphas) == 6 and len({id(a) for a in alphas}) == 6

    darts = Supernet(SupernetConfig(num_cells=6, layout=layout, init_channels=4,
                                    num_classes=4, input_channels=2,
                                    independent_alpha=False, use_gates=False), seed=0)
    for a in darts.arch_parameters():
        a.data[...] = rng.standard_normal(a.shape)
    g = darts.derive()
    normal_entries = [c.nodes for c in g.cells if c.kind == "normal"]
    assert normal_entries[0] == normal_entries[1] == normal_entries[2]

    alpha_tier = Supernet(SupernetConfig(num_cells=6, layout=layout,
                                         init_channels=4, num_classes=4,
                                         input_channels=2,
                                         independent_alpha=True,
                                         use_gates=False), seed=0)
    for i, a in enumerate(alpha_tier.arch_parameters()):
        a.data[...] = 0.0
        a.data[:, 1 + (i % 7)] = 30.0  # distinct saturated pattern per cell
    g = alpha_tier.derive()
    entries = [c.nodes for c in g.cells]
    assert all(entries[i] != entries[j]
               for i in range(6) for j in range(i + 1, 6))
    report(4, "darts tier: identical Normal entries; alpha tier: distinct "
              "saturated patterns derive distinct cells; relax holds 6 alphas")


# ---------------------------------------------------------------------------
# 5. algorithm fidelity (zero-lr no-op; second-order oracle)


def test_criterion_5_algorithm_fidelity(tmp_path):
    records = synth_generate(4, sessions=2, length=320, seed=4)
    ds = make_windows(records, 64, 32)
    cfg = SearchRunConfig(epochs=1, train_batch=8, val_batch=8, seed=9,
                          tier="relax", num_cells=2,
                          layout=("normal", "reduction"), init_channels=4,
                          optimizer=OptimizerConfig(w_lr0=0.0, arch_lr=0.0))
    probe = Supernet(cfg.supernet_config(ds.num_classes, 2), seed=cfg.seed)
    before = {k: v.copy() for k, v in probe.state_arrays().items()}
    state = make_triple_state(probe, cfg.optimizer)
    session1 = ds.session_view(1)
    train_split, val_split = split_for_search(session1, 0.5, cfg.seed)
    from seqnas.data import batches

    tb = next(iter(batches(train_split, 8)))
    vb = next(iter(batches(val_split, 8)))
    triple_step(probe, tb, vb, state, lr_w=0.0)
    after = probe.state_arrays()
    for k, v in before.items():
        assert np.array_equal(v, after[k]), k

    genotype = run_search(cfg, ds, out_dir=str(tmp_path / "zero_lr"))
    init_net = Supernet(cfg.supernet_config(ds.num_classes, 2), seed=cfg.seed)
    expected = init_net.derive(meta={"seed": cfg.seed, "tier": cfg.tier,
                                     "config_hash": cfg.config_hash()})
    assert genotype.to_json() == expected.to_json()

    # second order: engine gradient vs the unrolled-loss FD oracle
    with using_dtype(np.float64):
        xi = 0.05
        net = Supernet(tiny_supernet_config(), seed=6)
        r = np.random.default_rng(7)
        train_b = (r.standard_normal((2, 2, 16)), np.array([0, 1]))
        val_b = (r.standard_normal((2, 2, 16)), np.array([1, 0]))
        snapshot = {k: v.copy() for k, v in net.state_arrays().items()}
        d_arch, _ = _arch_grads_unrolled(net, train_b, val_b, xi)
        load_arrays(net.state_arrays(), snapshot)

        def unrolled_loss():
            ws = net.weight_parameters()
            orig = [p.data.copy() for p in ws]
            reset_tape()
            net.zero_grad()
            backward(F.cross_entropy(net.forward(train_b[0]), train_b[1]))
            for p in ws:
                if p.grad is not None:
                    p.data = p.data - xi * p.grad
            with no_grad():
                val = float(F.cross_entropy(net.forward(val_b[0]), val_b[1]).data)
            for p, o in zip(ws, orig):
                p.data = o
            return val

        eps = 1e-5
        arch = net.arch_parameters() + net.gate_parameters()
        worst_rel = 0.0
        for t_idx, p in enumerate(arch):
            flat = p.data.reshape(-1)
            numeric = np.zeros(p.size)
            for i in range(p.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = unrolled_loss()
                flat[i] = orig - eps
                lm = unrolled_loss()
                flat[i] = orig
                numeric[i] = (lp - lm) / (2 * eps)
            engine = d_arch[t_idx].reshape(-1)
            rel = np.linalg.norm(engine - numeric) / max(np.linalg.norm(numeric), 1e-12)
            worst_rel = max(worst_rel, float(rel))
        assert worst_rel < 1e-3, worst_rel
    report(5, f"zero-lr search is a parameter no-op; second-order arch "
              f"gradient matches the unrolled oracle (worst rel {worst_rel:.2e})")


# ---------------------------------------------------------------------------
# 6. metric oracle


def test_criterion_6_metric_oracle():
    r = np.random.default_rng(606)
    targets = (1e-1, 1e-2, 1e-3)
    for trial in range(200):
        n_gen = int(r.integers(1, 500))
        n_imp = int(r.integers(1, 1000 - n_gen + 1))
        if r.random() < 0.5:
            gen = np.round(r.standard_normal(n_gen) * 3, 1) + 0.5
            imp = np.round(r.standard_normal(n_imp) * 3, 1)
        else:
            gen = r.standard_normal(n_gen) + 1.0
            imp = r.standard_normal(n_imp)
        s = ScoreSet(genuine=gen, impostor=imp)
        assert compute_eer(s) == eer_oracle(gen, imp), trial
        for t in targets:
            assert frr_at_far(s, t)[0] == frr_at_far_oracle(gen, imp, t), (trial, t)

    assert compute_eer(ScoreSet(genuine=[0.9, 0.8], impostor=[0.2, 0.1])) == 0.0
    vals = r.random(400)
    assert compute_eer(ScoreSet(genuine=vals, impostor=vals.copy())) == pytest.approx(0.5)
    report(6, "EER and FRR@FAR agree exactly with the brute-force sweep on "
              "200 randomized score sets; boundary cases hold")


# ---------------------------------------------------------------------------
# 7 + 8 + 9: end-to-end desk scale, ablation echo, determinism
# (shared fixtures keep the runtime manageable)

DESK_DATA = ["--synthetic", "--synth-subjects", "20", "--synth-length", "1280",
             "--window", "128", "--stride", "64"]


def run_cli(args):
    return main([str(a) for a in args])


def test_criterion_7_end_to_end_desk_scale(tmp_path):
    start = time.time()
    search_dir = tmp_path / "search"
    assert run_cli(["search", *DESK_DATA, "--tier", "relax", "--epochs", "10",
                    "--seed", "11", "--out", search_dir]) == 0
    train_dir = tmp_path / "train"
    assert run_cli(["train", *DESK_DATA, "--genotype", search_dir / "genotype.json",
                    "--epochs", "30", "--seed", "11", "--out", train_dir]) == 0
    eval_dir = tmp_path / "eval"
    assert run_cli(["eval", *DESK_DATA, "--weights", train_dir / "weights.json",
                    "--out", eval_dir]) == 0
    elapsed = time.time() - start
    assert elapsed < 900, f"pipeline took {elapsed:.0f}s (budget 15 min)"

    report_doc = json.loads((eval_dir / "metrics.json").read_text())
    trained_eer = report_doc["eer"]
    assert trained_eer < 0.15, trained_eer

    # identification accuracy of the trained network on its training split
    from seqnas.data import make_windows, synth_generate
    from seqnas.train import load_trained

    net, _, _ = load_trained(str(train_dir / "weights.json"))
    ds = make_windows(synth_generate(20, 2, 1280, 2, seed=11), 128, 64)
    s1 = ds.session_view(1)
    hits = 0
    with no_grad():
        for i in range(0, len(s1), 256):
            xb = s1.windows[i : i + 256].astype(np.float32)
            hits += int(np.sum(np.argmax(net.forward(xb).data, axis=1)
                               == s1.labels[i : i + 256]))
    train_acc = hits / len(s1)
    assert train_acc > 0.9, train_acc

    # search loss must actually decrease across the run
    import csv as csv_mod

    with open(search_dir / "log.csv") as fh:
        rows = list(csv_mod.DictReader(fh))
    first_epoch = [float(r["val_loss"]) for r in rows if r["epoch"] == "0"]
    last_epoch = [float(r["val_loss"]) for r in rows
                  if int(r["epoch"]) == max(int(q["epoch"]) for q in rows)]
    assert np.mean(last_epoch) < np.mean(first_epoch)

    # chance level: untrained random-weight nets over 5 seeds
    chance = []
    for seed in range(5):
        t_dir = tmp_path / f"untrained{seed}"
        assert run_cli(["train", *DESK_DATA, "--genotype",
                        search_dir / "genotype.json", "--epochs", "0",
                        "--seed", seed, "--out", t_dir]) == 0
        e_dir = tmp_path / f"untrained_eval{seed}"
        assert run_cli(["eval", *DESK_DATA, "--weights", t_dir / "weights.json",
                        "--out", e_dir]) == 0
        chance.append(json.loads((e_dir / "metrics.json").read_text())["eer"])
    assert all(0.35 <= c <= 0.65 for c in chance), chance
    report(7, f"trained EER {trained_eer:.4f} < 0.15 (train acc {train_acc:.3f}) "
              f"in {elapsed:.0f}s; untrained EER per seed "
              f"{np.round(chance, 3).tolist()} within [0.35, 0.65]")


ABLATION_DATA = ["--synthetic", "--synth-subjects", "12", "--synth-length", "1280",
                 "--window", "128", "--stride", "64"]


def test_criterion_8_ablation_ordering_echo(tmp_path):
    """Three seeds x three tiers at reduced desk scale (12 subjects,
    6 search epochs, 16 training epochs); ordering checked on medians."""
    eers = {"darts": [], "alpha": [], "relax": []}
    report_text = None
    for seed in (0, 1, 2):
        out = tmp_path / f"seed{seed}"
        assert run_cli(["ablate", *ABLATION_DATA, "--seed", seed,
                        "--search-epochs", "6", "--train-epochs", "16",
                        "--out", out]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert [r["tier"] for r in doc["rows"]] == ["darts", "alpha", "relax"]
        for row in doc["rows"]:
            assert set(row["frr_at_far"]) == {"1e-1", "1e-2", "1e-3"}
            eers[row["tier"]].append(row["eer"])
        report_text = (out / "report.txt").read_text()

    lines = [l for l in report_text.splitlines() if l]
    assert lines[0].startswith("tier") and "FRR@1e-3" in lines[0]
    assert len(lines) == 5  # header, rule, three tier rows

    med = {tier: float(np.median(v)) for tier, v in eers.items()}
    band = 0.05
    assert med["relax"] <= med["alpha"] + band, med
    assert med["alpha"] <= med["darts"] + band, med
    flag = ""
    if not (med["relax"] <= med["alpha"] <= med["darts"]):
        flag = " [FLAG: ordering inverted within the tolerance band]"
    report(8, f"median EER darts={med['darts']:.3f} alpha={med['alpha']:.3f} "
              f"relax={med['relax']:.3f}; three-row report layout intact{flag}")


def test_criterion_9_byte_determinism(tmp_path):
    micro = ["--synthetic", "--synth-subjects", "5", "--synth-length", "320",
             "--window", "64", "--stride", "32", "--init-channels", "4"]
    outputs = []
    for name in ("d1", "d2"):
        s_dir = tmp_path / name / "search"
        t_dir = tmp_path / name / "train"
        e_dir = tmp_path / name / "eval"
        assert run_cli(["search", *micro, "--tier", "relax", "--epochs", "2",
                        "--seed", "13", "--out", s_dir]) == 0
        assert run_cli(["train", *micro, "--genotype", s_dir / "genotype.json",
                        "--epochs", "2", "--seed", "13", "--out", t_dir]) == 0
        assert run_cli(["eval", *micro, "--weights", t_dir / "weights.json",
                        "--out", e_dir]) == 0
        outputs.append((
            (s_dir / "genotype.json").read_bytes(),
            (e_dir / "metrics.json").read_bytes(),
        ))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    report(9, "same seed and config: genotype.json and metrics.json are "
              "byte-identical across independent runs")


# ---------------------------------------------------------------------------
# 10. hyperparameter fidelity


def test_criterion_10_hyperparameter_fidelity():
    opt, train = OptimizerConfig(), TrainConfig()
    assert (opt.w_lr0, opt.momentum, opt.weight_decay) == (0.025, 0.9, 5e-4)
    assert train.drop_path_p == 0.3
    assert (SearchRunConfig().epochs, train.epochs) == (50, 300)
    assert (train.batch, EvalConfig().batch) == (32, 256)
    from seqnas.optim import cosine_lr

    assert cosine_lr(0, 50, opt.w_lr0) == 0.025
    assert abs(cosine_lr(50, 50, opt.w_lr0)) < 1e-18
    report(10, "resolved defaults equal the published schedule "
               "(lr 0.025→0 cosine, momentum 0.9, wd 5e-4, drop-path 0.3, "
               "50/300 epochs, batches 32/256)")
