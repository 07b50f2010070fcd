import csv
import json
import os

import numpy as np
import pytest

import seqnas.search as S
from seqnas.data import make_windows, synth_generate
from seqnas.optim import NumericsError, OptimizerConfig
from seqnas.search import TIERS, SearchRunConfig, run_search, search_split
from seqnas.serialize import CheckpointError, encode_array, load_checkpoint, save_checkpoint
from helpers import blas_core, pin_context, pinned


def micro_dataset(num_subjects=4, seed=0):
    records = synth_generate(num_subjects, sessions=2, length=320, seed=seed)
    return make_windows(records, 64, 32)


def micro_config(epochs=2, tier="relax", seed=0, **kw):
    base = dict(num_cells=2, layout=("normal", "reduction"), init_channels=4,
                optimizer=OptimizerConfig())
    base.update(kw)
    return SearchRunConfig(epochs=epochs, train_batch=8, val_batch=8,
                           seed=seed, tier=tier, **base)


def around_each_step(monkeypatch, before=None, after=None):
    """Run before(net, state) ahead of every triple step of a search and
    after(net, state) once it returns."""
    step = S.triple_step

    def wrapped(net, train_batch, val_batch, state, lr):
        if before is not None:
            before(net, state)
        losses = step(net, train_batch, val_batch, state, lr)
        if after is not None:
            after(net, state)
        return losses

    monkeypatch.setattr(S, "triple_step", wrapped)


class Stop(Exception):
    pass


def interrupt(monkeypatch, config, dataset, out_dir, epoch):
    """Run a search into out_dir and stop it on entry to the second step of
    `epoch`, so log.csv holds one row past the epoch checkpoint."""
    entered = []

    def stop(net, state):
        if state.epoch == epoch:
            entered.append(state.step)
            if len(entered) == 2:
                raise Stop()

    with monkeypatch.context() as m:
        around_each_step(m, before=stop)
        with pytest.raises(Stop):
            run_search(config, dataset, out_dir=out_dir)


def fresh_dir(tmp_path):
    """An empty directory under tmp_path, for a run that must write nothing."""
    path = tmp_path / "fresh"
    path.mkdir()
    return path


def test_zero_lr_search_returns_init_genotype(tmp_path):
    ds = micro_dataset()
    cfg = micro_config(epochs=1, optimizer=OptimizerConfig(w_lr0=0.0, arch_lr=0.0))
    genotype = run_search(cfg, ds, out_dir=str(tmp_path))

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


def test_darts_tier_shares_alpha_across_normal_cells(tmp_path):
    ds = micro_dataset()
    cfg = micro_config(epochs=1, tier="darts", num_cells=4,
                       layout=("normal", "reduction", "normal", "reduction"))
    g = run_search(cfg, ds, out_dir=str(tmp_path))
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
    assert os.listdir(os.path.join(out, "checkpoints")) == ["last.json"]
    with open(os.path.join(out, "log.csv")) as fh:
        rows = list(csv.DictReader(fh))
    steps = [int(r["step"]) for r in rows]
    assert steps == list(range(len(rows)))  # monotone, no gaps
    assert all(np.isfinite(float(r["train_loss"])) for r in rows)
    assert all(np.isfinite(float(r["val_loss"])) for r in rows)
    epochs = {int(r["epoch"]) for r in rows}
    assert epochs == {0, 1}


def test_resume_matches_uninterrupted_run(tmp_path, monkeypatch):
    ds = micro_dataset(seed=3)

    full_cfg = micro_config(epochs=4, seed=7)
    g_full = run_search(full_cfg, ds, out_dir=str(tmp_path / "full"))

    half_cfg = micro_config(epochs=4, seed=7)
    part_dir = str(tmp_path / "part")
    # run only epochs 0-1 by checkpointing: emulate an interrupt by running
    # a 4-epoch config but stopping it early in epoch 2
    interrupt(monkeypatch, half_cfg, ds, part_dir, epoch=2)

    ckpt = os.path.join(part_dir, "checkpoints", "last.json")
    assert load_checkpoint(ckpt)["counters"]["epoch"] == 2
    g_resumed = run_search(half_cfg, ds, out_dir=str(tmp_path / "resumed"), resume_from=ckpt)
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
    run_search(half_cfg, ds, out_dir=part_dir, resume_from=ckpt)
    with open(os.path.join(part_dir, "log.csv")) as fh:
        steps = [int(r["step"]) for r in csv.DictReader(fh)]
    assert steps == list(range(len(steps)))
    for name in ("log.csv", "genotype.json"):
        assert (tmp_path / "full" / name).read_bytes() == \
            (tmp_path / "part" / name).read_bytes(), name


def test_resume_into_own_directory_keeps_checkpoint_bytes(tmp_path, monkeypatch):
    """A search interrupted in epoch 3 and resumed into its own directory ends
    with the same last.json bytes as the uninterrupted run."""
    ds = micro_dataset(seed=3)
    cfg = micro_config(epochs=4, seed=7)
    run_search(cfg, ds, out_dir=str(tmp_path / "full"))

    part = tmp_path / "part"
    interrupt(monkeypatch, cfg, ds, str(part), epoch=3)
    run_search(cfg, ds, out_dir=str(part), resume_from=str(part / "checkpoints" / "last.json"))
    assert (tmp_path / "full" / "checkpoints" / "last.json").read_bytes() == \
        (part / "checkpoints" / "last.json").read_bytes()


@pytest.mark.parametrize("damage", [
    None,
    lambda extra: extra.pop("split_hash"),
    lambda extra: extra.update(split_hash=12345),
], ids=["other-data", "no-split_hash", "split_hash-int"])
def test_resume_refuses_other_data_before_writing(tmp_path, monkeypatch, damage):
    """A resume whose extra.split_hash is missing, not a string, or not the
    search split of the dataset it is given raises and leaves the run as it was."""
    ds = micro_dataset(seed=3)
    cfg = micro_config(epochs=4, seed=7)
    part = tmp_path / "part"
    interrupt(monkeypatch, cfg, ds, str(part), epoch=2)
    ckpt = part / "checkpoints" / "last.json"
    if damage is None:
        ds = micro_dataset(seed=4)
    else:
        doc = json.loads(ckpt.read_text())
        damage(doc["extra"])
        ckpt.write_text(json.dumps(doc))
    before = {p: p.read_bytes() for p in part.rglob("*") if p.is_file()}

    with pytest.raises(CheckpointError, match="extra.split_hash"):
        run_search(cfg, ds, out_dir=str(part), resume_from=str(ckpt))
    assert {p: p.read_bytes() for p in part.rglob("*") if p.is_file()} == before


def test_resume_from_final_checkpoint_returns_immediately(tmp_path, monkeypatch):
    ds = micro_dataset()
    cfg = micro_config(epochs=2)
    out = str(tmp_path / "done")
    g = run_search(cfg, ds, out_dir=out)
    ckpt = os.path.join(out, "checkpoints", "last.json")
    calls = {"n": 0}

    def counter(net, state):
        calls["n"] += 1

    around_each_step(monkeypatch, after=counter)
    g2 = run_search(cfg, ds, out_dir=str(tmp_path / "again"), resume_from=ckpt)
    assert calls["n"] == 0
    assert g2.to_json() == g.to_json()


def test_resume_decodes_the_checkpoint_once(tmp_path, monkeypatch):
    ds = micro_dataset()
    out = tmp_path / "x"
    run_search(micro_config(epochs=2), ds, out_dir=str(out))
    calls = []
    load = S.load_checkpoint
    monkeypatch.setattr(S, "load_checkpoint",
                        lambda *a, **k: calls.append(a) or load(*a, **k))
    run_search(micro_config(epochs=2), ds, out_dir=str(tmp_path / "again"),
               resume_from=str(out / "checkpoints" / "last.json"))
    assert len(calls) == 1


@pytest.mark.parametrize("damage", ["missing", "one_element"])
def test_resume_checks_every_array_before_loading_any(tmp_path, monkeypatch, damage):
    """A damaged optimizer buffer fails the resume with every live array intact."""
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
    fresh = fresh_dir(tmp_path)
    with pytest.raises(CheckpointError, match="mismatch"):
        run_search(micro_config(epochs=1), ds, out_dir=str(fresh), resume_from=str(ckpt))
    assert os.listdir(fresh) == []
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


@pytest.mark.parametrize("damage, named", [
    (lambda doc: doc.pop("extra"), "extra"),
    (lambda doc: doc["counters"].pop("beta_t"), "counters.beta_t"),
    (lambda doc: doc["counters"].update(epoch="one"), "counters.epoch"),
], ids=["no-extra", "no-beta_t", "epoch-string"])
def test_resume_names_a_missing_or_bad_checkpoint_field(tmp_path, damage, named):
    ds = micro_dataset()
    out = tmp_path / "run"
    run_search(micro_config(epochs=1), ds, out_dir=str(out))
    ckpt = out / "checkpoints" / "last.json"
    doc = json.loads(ckpt.read_text())
    damage(doc)
    ckpt.write_text(json.dumps(doc))
    fresh = fresh_dir(tmp_path)
    with pytest.raises(CheckpointError, match=f"checkpoint {named} must be"):
        run_search(micro_config(epochs=1), ds, out_dir=str(fresh), resume_from=str(ckpt))
    assert os.listdir(fresh) == []


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
    fresh = fresh_dir(tmp_path)
    with pytest.raises(CheckpointError, match="different search config"):
        run_search(other, ds, out_dir=str(fresh), resume_from=ckpt)
    assert os.listdir(fresh) == []


def test_checkpoint_config_is_checked_on_resume(tmp_path):
    from seqnas.config import ConfigError

    ds = micro_dataset()
    out = tmp_path / "x"
    run_search(micro_config(epochs=1), ds, out_dir=str(out))
    ckpt = out / "checkpoints" / "last.json"
    doc = json.loads(ckpt.read_text())
    doc["config"]["optimizer"]["x1"] = 0.01
    ckpt.write_text(json.dumps(doc))
    fresh = fresh_dir(tmp_path)
    with pytest.raises(ConfigError, match="unknown key 'config.optimizer.x1'"):
        run_search(micro_config(epochs=1), ds, out_dir=str(fresh), resume_from=str(ckpt))
    assert os.listdir(fresh) == []


def test_nan_loss_aborts_with_checkpoint(tmp_path, monkeypatch):
    ds = micro_dataset()
    cfg = micro_config(epochs=3)
    out = str(tmp_path / "nan")

    def poison(net, state):
        if state.step == 3:
            net.stem_w.data[...] = np.nan

    around_each_step(monkeypatch, after=poison)
    with pytest.raises(NumericsError):
        run_search(cfg, ds, out_dir=out)
    assert os.path.exists(os.path.join(out, "abort.json"))
    # the last epoch checkpoint is the last good state
    assert os.path.exists(os.path.join(out, "checkpoints", "last.json"))


def test_softmax_rows_sum_to_one_throughout_search(tmp_path, monkeypatch):
    ds = micro_dataset()
    cfg = micro_config(epochs=2)
    sums = []

    def watch(net, state):
        for a in net.arch_parameters():
            z = a.data - a.data.max(axis=1, keepdims=True)
            e = np.exp(z)
            sums.append(float(np.abs((e / e.sum(axis=1, keepdims=True)).sum(axis=1) - 1).max()))

    around_each_step(monkeypatch, after=watch)
    run_search(cfg, ds, out_dir=str(tmp_path))
    assert sums and max(sums) < 1e-6


def test_search_state_after_three_triple_steps_is_pinned():
    # every parameter, norm buffer and optimizer array after 2 first-order and
    # 1 unrolled (xi=0.01) triple step at the benchmark's shapes: the desk-scale
    # synthetic set, batch 32, init_channels 8; a kernel change that reorders a
    # single float operation moves this digest
    from dataclasses import replace
    from hashlib import sha256

    from seqnas.data import batches
    from seqnas.network import Supernet
    from seqnas.optim import make_triple_state, triple_step

    dataset = make_windows(synth_generate(20, sessions=2, length=1280, channels=2, seed=1),
                           128, 64)
    config = SearchRunConfig(epochs=1, train_batch=32, val_batch=32, seed=1, tier="relax",
                             init_channels=8, optimizer=OptimizerConfig())
    train, val, _ = search_split(config, dataset)
    net = Supernet(config.supernet_config(dataset.num_classes, dataset.windows.shape[1]),
                   seed=config.seed)
    state = make_triple_state(net, config.optimizer)
    for step, (tb, vb) in enumerate(zip(batches(train, 32), batches(val, 32))):
        if step == 2:
            state.config = replace(state.config, xi=0.01)
        elif step == 3:
            break
        triple_step(net, tb, vb, state, config.optimizer.w_lr0)
    h = sha256()
    arrays = {**net.state_arrays(), **{f"opt:{k}": v for k, v in state.state_arrays().items()}}
    for name, arr in sorted(arrays.items()):
        h.update(f"{name}:{arr.dtype.name}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == pinned({
        "SkylakeX": "0e2fa14fe5f1df92515563f2642c73f98ff6c419268242bdf681e4744cf51a94",
        "Haswell": "198142e18372a0ffd9bb23568647fb77bc8598ab6a9d5fb3b09d98de7dd47a8a",
    }), pin_context()


def test_pin_context_names_the_blas_core_and_numpy():
    core = blas_core()
    assert core and core.isprintable()
    assert pin_context() == f"OpenBLAS core {core}, numpy {np.__version__}"
