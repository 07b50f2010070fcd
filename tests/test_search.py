import csv
import json
import os

import numpy as np
import pytest

from seqnas.data import make_windows, synth_generate
from seqnas.optim import NumericsError, OptimizerConfig
from seqnas.search import TIERS, SearchRunConfig, resume, run_search, search_split
from seqnas.serialize import CheckpointError, encode_array, load_checkpoint, save_checkpoint


def micro_dataset(num_subjects=4, seed=0):
    records = synth_generate(num_subjects, sessions=2, length=320, seed=seed)
    return make_windows(records, 64, 32)


def micro_config(epochs=2, tier="relax", seed=0, **kw):
    base = dict(num_cells=2, layout=("normal", "reduction"), init_channels=4,
                optimizer=OptimizerConfig())
    base.update(kw)
    return SearchRunConfig(epochs=epochs, train_batch=8, val_batch=8,
                           seed=seed, tier=tier, **base)


def test_zero_lr_search_returns_init_genotype():
    ds = micro_dataset()
    cfg = micro_config(epochs=1, optimizer=OptimizerConfig(w_lr0=0.0, arch_lr=0.0))
    genotype = run_search(cfg, ds)

    from seqnas.network import Supernet
    net = Supernet(cfg.supernet_config(ds.num_classes, 2), seed=cfg.seed)
    init_genotype = net.derive(meta={"seed": cfg.seed, "tier": cfg.tier,
                                     "config_hash": cfg.config_hash()})
    assert genotype.to_json() == init_genotype.to_json()


def test_every_tier_searches_on_the_same_split():
    # ablate takes one split hash for all tiers from a single search_split call
    ds = micro_dataset()
    hashes = {search_split(micro_config(tier=tier), ds)[2] for tier in TIERS}
    assert len(hashes) == 1


def test_search_is_seed_deterministic(tmp_path):
    ds = micro_dataset()
    for run in ("a", "b"):
        cfg = micro_config(epochs=2, seed=5)
        run_search(cfg, ds, out_dir=str(tmp_path / run))
    ga = (tmp_path / "a" / "genotype.json").read_bytes()
    gb = (tmp_path / "b" / "genotype.json").read_bytes()
    assert ga == gb


def test_darts_tier_shares_alpha_across_normal_cells():
    ds = micro_dataset()
    cfg = micro_config(epochs=1, tier="darts", num_cells=4,
                       layout=("normal", "reduction", "normal", "reduction"))
    g = run_search(cfg, ds)
    normal = [c.nodes for c in g.cells if c.kind == "normal"]
    assert normal[0] == normal[1]
    reductions = [c.nodes for c in g.cells if c.kind == "reduction"]
    assert reductions[0] == reductions[1]


def test_run_dir_layout_and_log(tmp_path):
    ds = micro_dataset()
    out = str(tmp_path / "run")
    cfg = micro_config(epochs=2)
    run_search(cfg, ds, out_dir=out)
    assert os.path.exists(os.path.join(out, "config.json"))
    assert os.path.exists(os.path.join(out, "genotype.json"))
    assert os.path.exists(os.path.join(out, "checkpoints", "last.json"))
    assert os.path.exists(os.path.join(out, "checkpoints", "best.json"))
    with open(os.path.join(out, "log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    steps = [int(r["step"]) for r in rows]
    assert steps == list(range(len(rows)))  # monotone, no gaps
    assert all(np.isfinite(float(r["train_loss"])) for r in rows)
    assert all(np.isfinite(float(r["val_loss"])) for r in rows)
    epochs = {int(r["epoch"]) for r in rows}
    assert epochs == {0, 1}


def test_resume_matches_uninterrupted_run(tmp_path):
    ds = micro_dataset(seed=3)

    full_cfg = micro_config(epochs=4, seed=7)
    g_full = run_search(full_cfg, ds, out_dir=str(tmp_path / "full"))

    half_cfg = micro_config(epochs=4, seed=7)
    part_dir = str(tmp_path / "part")
    # run only epochs 0-1 by checkpointing: emulate an interrupt by running
    # a 4-epoch config but stopping through a callback exception
    class Stop(Exception):
        pass

    calls = {"n": 0}

    def stopper(net, state, tl, vl):
        calls["n"] += 1
        if state.epoch >= 2:
            raise Stop()

    with pytest.raises(Stop):
        run_search(half_cfg, ds, out_dir=part_dir, step_callback=stopper)

    ckpt = os.path.join(part_dir, "checkpoints", "last.json")
    assert load_checkpoint(ckpt)["counters"]["epoch"] == 2
    g_resumed = resume(ckpt, ds, out_dir=str(tmp_path / "resumed"))
    assert g_resumed.to_json() == g_full.to_json()
    full_bytes = (tmp_path / "full" / "genotype.json").read_bytes()
    resumed_bytes = (tmp_path / "resumed" / "genotype.json").read_bytes()
    assert full_bytes == resumed_bytes

    # resuming into the interrupted run's own directory drops the rows
    # logged after the checkpoint instead of repeating them
    with open(os.path.join(part_dir, "log.csv")) as fh:
        last = list(csv.DictReader(fh))[-1]
    assert int(last["step"]) == load_checkpoint(ckpt)["counters"]["step"]
    with open(os.path.join(part_dir, "log.csv"), "a") as fh:
        fh.write("1,0,0.")  # a row cut short by a kill mid-write
    resume(ckpt, ds, out_dir=part_dir)
    with open(os.path.join(part_dir, "log.csv")) as fh:
        steps = [int(r["step"]) for r in csv.DictReader(fh)]
    assert steps == list(range(len(steps)))
    for name in ("log.csv", "genotype.json"):
        assert (tmp_path / "full" / name).read_bytes() == \
            (tmp_path / "part" / name).read_bytes(), name


def test_resume_into_own_directory_keeps_checkpoint_bytes(tmp_path):
    """last.json carries the best validation loss of the epochs it covers, so a
    resume picks the same best epoch as the uninterrupted run."""
    import hashlib

    ds = micro_dataset(seed=3)
    run_search(micro_config(epochs=4, seed=7), ds, out_dir=str(tmp_path / "full"))

    class Stop(Exception):
        pass

    def stopper(net, state, tl, vl):
        if state.epoch >= 3:
            raise Stop()

    part = tmp_path / "part"
    with pytest.raises(Stop):
        run_search(micro_config(epochs=4, seed=7), ds, out_dir=str(part),
                   step_callback=stopper)
    resume(str(part / "checkpoints" / "last.json"), ds, out_dir=str(part))
    for name in ("last.json", "best.json"):
        digests = [hashlib.sha256((d / "checkpoints" / name).read_bytes()).hexdigest()
                   for d in (tmp_path / "full", part)]
        assert digests[0] == digests[1], name


def test_resume_from_final_checkpoint_returns_immediately(tmp_path):
    ds = micro_dataset()
    cfg = micro_config(epochs=2)
    out = str(tmp_path / "done")
    g = run_search(cfg, ds, out_dir=out)
    ckpt = os.path.join(out, "checkpoints", "last.json")
    calls = {"n": 0}

    def counter(net, state, tl, vl):
        calls["n"] += 1

    g2 = resume(ckpt, ds, step_callback=counter)
    assert calls["n"] == 0
    assert g2.to_json() == g.to_json()


def test_resume_decodes_the_checkpoint_once(tmp_path, monkeypatch):
    import seqnas.search as S

    ds = micro_dataset()
    out = tmp_path / "x"
    run_search(micro_config(epochs=2), ds, out_dir=str(out))
    calls = []
    load = S.load_checkpoint
    monkeypatch.setattr(S, "load_checkpoint",
                        lambda *a, **k: calls.append(a) or load(*a, **k))
    resume(str(out / "checkpoints" / "last.json"), ds)
    assert len(calls) == 1


@pytest.mark.parametrize("damage", ["missing", "one_element"])
def test_resume_checks_every_array_before_loading_any(tmp_path, monkeypatch, damage):
    """A damaged optimizer buffer fails the resume with every live array intact."""
    import seqnas.search as S

    ds = micro_dataset()
    out = tmp_path / "x"
    run_search(micro_config(epochs=1), ds, out_dir=str(out))
    ckpt = out / "checkpoints" / "last.json"
    doc = json.loads(ckpt.read_text())
    key = sorted(k for k in doc["arrays"] if k.startswith("opt:w:"))[-1]
    if damage == "missing":
        del doc["arrays"][key]
    else:
        doc["arrays"][key] = encode_array(np.ones(1, dtype=np.float32))
    ckpt.write_text(json.dumps(doc))

    live, before = {}, {}
    make = S.make_triple_state

    def capture(net, config):  # the arrays the resume loads into, fresh from init
        state = make(net, config)
        live.update({**net.state_arrays(), **state.state_arrays()})
        before.update({k: v.copy() for k, v in live.items()})
        return state

    monkeypatch.setattr(S, "make_triple_state", capture)
    with pytest.raises(CheckpointError, match="mismatch"):
        resume(str(ckpt), ds)
    assert live
    for k, v in live.items():
        assert np.array_equal(v, before[k]), k


def test_corrupted_checkpoint_is_structured_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{definitely not json")
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(str(path))

    path2 = tmp_path / "bad2.json"
    path2.write_text(json.dumps({"format": "other", "version": 1}))
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(str(path2))

    save_checkpoint(str(tmp_path / "v9.json"), "search", {}, {}, {})
    doc = json.loads((tmp_path / "v9.json").read_text())
    doc["version"] = 99
    (tmp_path / "v9.json").write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(str(tmp_path / "v9.json"))

    # truncated base64 payload
    save_checkpoint(str(tmp_path / "t.json"), "search", {}, {},
                    {"x": np.ones(4, dtype=np.float32)})
    doc = json.loads((tmp_path / "t.json").read_text())
    doc["arrays"]["x"]["data"] = doc["arrays"]["x"]["data"][:5]
    (tmp_path / "t.json").write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="corrupted"):
        load_checkpoint(str(tmp_path / "t.json"))


def test_failed_checkpoint_write_keeps_previous_file(tmp_path):
    path = tmp_path / "last.json"
    save_checkpoint(str(path), "search", {"a": 1}, {"step": 3},
                    {"x": np.arange(4, dtype=np.float32)})
    before = path.read_bytes()
    # sorted keys put "arrays" ahead of "extra", so the dump fails mid-write
    with pytest.raises(TypeError):
        save_checkpoint(str(path), "search", {"a": 1}, {"step": 4},
                        {"x": np.zeros(4, dtype=np.float32)},
                        extra={"bad": object()})
    assert path.read_bytes() == before
    doc = load_checkpoint(str(path))
    assert doc["counters"]["step"] == 3
    assert np.array_equal(doc["arrays"]["x"], np.arange(4, dtype=np.float32))
    assert os.listdir(tmp_path) == ["last.json"]


def test_resume_rejects_config_mismatch(tmp_path):
    ds = micro_dataset()
    out = str(tmp_path / "x")
    run_search(micro_config(epochs=2, seed=1), ds, out_dir=out)
    ckpt = os.path.join(out, "checkpoints", "last.json")
    other = micro_config(epochs=3, seed=1)
    with pytest.raises(CheckpointError, match="different search config"):
        run_search(other, ds, resume_from=ckpt)


def test_checkpoint_config_is_checked_on_resume(tmp_path):
    from seqnas.config import ConfigError

    ds = micro_dataset()
    out = tmp_path / "x"
    run_search(micro_config(epochs=1), ds, out_dir=str(out))
    ckpt = out / "checkpoints" / "last.json"
    doc = json.loads(ckpt.read_text())
    doc["config"]["optimizer"]["x1"] = 0.01
    ckpt.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="unknown key 'config.optimizer.x1'"):
        resume(str(ckpt), ds)


def test_nan_loss_aborts_with_checkpoint(tmp_path):
    ds = micro_dataset()
    cfg = micro_config(epochs=3)
    out = str(tmp_path / "nan")

    def poison(net, state, tl, vl):
        if state.step == 3:
            net.stem_w.data[...] = np.nan

    with pytest.raises(NumericsError):
        run_search(cfg, ds, out_dir=out, step_callback=poison)
    assert os.path.exists(os.path.join(out, "abort.json"))
    # the last epoch checkpoint is the last good state
    assert os.path.exists(os.path.join(out, "checkpoints", "last.json"))


def test_softmax_rows_sum_to_one_throughout_search():
    ds = micro_dataset()
    cfg = micro_config(epochs=2)
    sums = []

    def watch(net, state, tl, vl):
        for a in net.arch_parameters():
            z = a.data - a.data.max(axis=1, keepdims=True)
            e = np.exp(z)
            sums.append(float(np.abs((e / e.sum(axis=1, keepdims=True)).sum(axis=1) - 1).max()))

    run_search(cfg, ds, step_callback=watch)
    assert sums and max(sums) < 1e-6
