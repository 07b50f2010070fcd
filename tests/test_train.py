import numpy as np
import pytest

from seqnas.autograd import Tensor, reset_tape
from seqnas.cell import CellGenotype, Genotype
from seqnas.data import DataError, make_windows, synth_generate
from seqnas.network import SupernetConfig, instantiate_discrete
from seqnas.optim import OptimizerConfig
from seqnas import train as T
from seqnas.train import TrainConfig, drop_path, load_trained, save_trained, train_final

rng = np.random.default_rng(61)


def test_drop_path_identity_when_disabled():
    x = Tensor(rng.standard_normal((4, 3, 8)).astype(np.float32))
    assert drop_path(x, 0.0, np.random.default_rng(0)) is x


def test_drop_path_masks_whole_samples_and_rescales():
    x = Tensor(np.ones((64, 2, 4), dtype=np.float32))
    out = drop_path(x, 0.3, np.random.default_rng(5))
    reset_tape()
    per_sample = out.data.reshape(64, -1)
    zeroed = np.all(per_sample == 0.0, axis=1)
    kept = np.all(np.abs(per_sample - 1.0 / 0.7) < 1e-6, axis=1)
    assert np.all(zeroed | kept)
    assert zeroed.any() and kept.any()


def test_drop_path_monte_carlo_expectation():
    p = 0.3
    x = Tensor(np.full((10_000, 1, 1), 2.0, dtype=np.float32))
    out = drop_path(x, p, np.random.default_rng(17))
    reset_tape()
    mc = float(out.data.mean())
    assert abs(mc - 2.0) / 2.0 < 0.05


def _tiny_setup(num_subjects=4, epochs=3, drop_path_p=0.3, seed=0, lr=0.02):
    records = synth_generate(num_subjects, sessions=2, length=320, seed=seed)
    ds = make_windows(records, 64, 32)
    nodes = [[("sep_conv_3", 0), ("max_pool_3", 1)] for _ in range(4)]
    g = Genotype(cells=[CellGenotype("normal", nodes),
                        CellGenotype("reduction", nodes)]).validate()
    cfg = SupernetConfig(num_cells=2, layout=("normal", "reduction"),
                         init_channels=4, num_classes=ds.num_classes,
                         input_channels=2)
    net = instantiate_discrete(g, cfg, seed=seed)
    tcfg = TrainConfig(epochs=epochs, batch=16, drop_path_p=drop_path_p,
                       seed=seed, optimizer=OptimizerConfig(w_lr0=lr))
    return net, g, ds, tcfg


def test_zero_lr_training_keeps_initial_weights():
    net, _, ds, tcfg = _tiny_setup(epochs=2, lr=0.0)
    before = {k: v.copy() for k, v in net.state_arrays().items()}
    train_final(net, ds, tcfg)
    after = net.state_arrays()
    for k, v in before.items():
        if k.endswith("running_mean") or k.endswith("running_var"):
            continue  # running stats move even at lr 0
        assert np.array_equal(v, after[k]), k


def test_history_rows_and_finite_losses():
    net, _, ds, tcfg = _tiny_setup(epochs=3)
    history = train_final(net, ds, tcfg)
    assert len(history) == 3
    assert all(np.isfinite(row["loss"]) for row in history)
    assert history[0]["lr"] == tcfg.optimizer.w_lr0


def test_class_count_mismatch_rejected():
    net, _, ds, tcfg = _tiny_setup()
    wrong = make_windows(synth_generate(6, sessions=2, length=320, seed=1), 64, 32)
    with pytest.raises(DataError, match="classes"):
        train_final(net, wrong, tcfg)


def test_heavy_drop_path_degrades_training_accuracy():
    net_a, _, ds, cfg_a = _tiny_setup(epochs=8, drop_path_p=0.3, lr=0.05)
    hist_a = train_final(net_a, ds, cfg_a)
    net_b, _, _, cfg_b = _tiny_setup(epochs=8, drop_path_p=0.95, lr=0.05)
    cfg_b = TrainConfig(epochs=8, batch=16, drop_path_p=0.95, seed=0,
                        optimizer=OptimizerConfig(w_lr0=0.05))
    hist_b = train_final(net_b, ds, cfg_b)
    assert max(r["accuracy"] for r in hist_a) > max(r["accuracy"] for r in hist_b)


def test_training_ramps_drop_path_per_epoch(monkeypatch):
    net, _, ds, tcfg = _tiny_setup(epochs=4, drop_path_p=0.3)
    per_epoch = [set()]

    def spy(x, p, rng):
        per_epoch[-1].add(p)
        return drop_path(x, p, rng)

    monkeypatch.setattr(T, "drop_path", spy)
    train_final(net, ds, tcfg, epoch_callback=lambda *_: per_epoch.append(set()))
    per_epoch.pop()
    assert per_epoch[0] == set()  # epoch 0 draws no drop-path mask at all
    assert all(len(ps) == 1 for ps in per_epoch[1:]), per_epoch
    # epoch e uses drop_path_p * e / epochs: drop_path_p is never exceeded
    assert [ps.pop() for ps in per_epoch[1:]] == pytest.approx([0.075, 0.15, 0.225])


def test_eval_mode_forward_is_deterministic_after_training():
    net, _, ds, tcfg = _tiny_setup(epochs=2)
    train_final(net, ds, tcfg)
    x = ds.windows[:8].astype(np.float32)
    a = net.forward(Tensor(x))
    reset_tape()
    b = net.forward(Tensor(x))
    reset_tape()
    assert np.array_equal(a.data, b.data)


def test_trained_checkpoint_roundtrip(tmp_path):
    net, g, ds, tcfg = _tiny_setup(epochs=2)
    history = train_final(net, ds, tcfg)
    path = tmp_path / "weights.json"
    save_trained(path, net, g, tcfg, history)
    net2, g2, doc = load_trained(path)
    assert g2.to_json() == g.to_json()
    for k, v in net.state_arrays().items():
        assert np.array_equal(v, net2.state_arrays()[k]), k
    assert doc["counters"]["epochs"] == 2
