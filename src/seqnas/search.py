"""The end-to-end search loop: epochs of alternating updates, derivation.

Every epoch pairs one validation batch with one training batch per step,
cycling the shorter loader.  Batch order is derived from (seed, epoch), so
resuming from an epoch checkpoint reproduces the uninterrupted run
exactly.  One checkpoint, checkpoints/last.json, is rewritten at the end of
every epoch; a resume from it refuses another config or other data.  The
genotype is derived from the final alpha and beta, as in DARTS.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field, fields

from . import data as D
from .config import spec
from .network import CellStackConfig, Supernet, SupernetConfig
from .optim import (NumericsError, OptimizerConfig, cosine_lr,
                    make_triple_state, triple_step)
from .serialize import (CheckpointError, RunLog, atomic_write, load_arrays,
                        load_checkpoint, save_checkpoint, write_json)

TIERS = ("darts", "alpha", "relax")
LOG_COLUMNS = ("step", "epoch", "train_loss", "val_loss", "lr")


@dataclass
class SearchRunConfig(CellStackConfig):
    """One search run (config section `search`); config_hash identifies it."""

    epochs: int = spec(50, min=1)
    train_batch: int = spec(32, min=1)
    val_batch: int = spec(32, min=1)
    seed: int = spec(0, min=0)
    tier: str = spec("relax", choices=TIERS)
    split_ratio: float = spec(0.5, above=0, below=1)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def supernet_config(self, num_classes, input_channels):
        stack = {f.name: getattr(self, f.name) for f in fields(CellStackConfig)}
        return SupernetConfig(**stack, num_classes=num_classes, input_channels=input_channels,
                              independent_alpha=self.tier in ("alpha", "relax"),
                              use_gates=self.tier == "relax")

    def config_hash(self):
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def search_split(config, dataset):
    """The (train, val) split of the session-1 windows and its content hash."""
    session1 = dataset.session_view(1)
    if len(session1) == 0:
        raise D.DataError("dataset has no session-1 windows to search on")
    train_split, val_split = D.split_for_search(session1, config.split_ratio, config.seed)
    split_hash = hashlib.sha256(
        (train_split.content_hash() + val_split.content_hash()).encode()
    ).hexdigest()[:16]
    return train_split, val_split, split_hash


def _checkpoint_arrays(net, state):
    """The live arrays of a search checkpoint, by the names it stores them under."""
    arrays = {f"net:{k}": v for k, v in net.state_arrays().items()}
    arrays.update({f"opt:{k}": v for k, v in state.state_arrays().items()})
    return arrays


def _write_checkpoint(path, config, net, state, split_hash):
    save_checkpoint(path, "search", config.to_dict(), state.counters(),
                    _checkpoint_arrays(net, state), extra={"split_hash": split_hash})


def _derive(net, config):
    return net.derive(meta={
        "seed": config.seed,
        "tier": config.tier,
        "config_hash": config.config_hash(),
    })


def run_search(config: SearchRunConfig, dataset, out_dir, resume_from=None):
    """Run a search, or resume one, and return the genotype derived from the
    final alpha and beta.

    dataset: a WindowedDataset; only its session-1 windows participate.
    out_dir: receives config.json, log.csv, checkpoints/last.json after every
    epoch, genotype.json, and abort.json before a NumericsError propagates.
    resume_from: a search checkpoint to continue from.  Its config must parse
    and hash like `config`, and its extra.split_hash must be the search split
    of `dataset`; otherwise a ConfigError or CheckpointError is raised before
    anything in out_dir is written.
    """
    train_split, val_split, split_hash = search_split(config, dataset)
    sup_cfg = config.supernet_config(dataset.num_classes, dataset.windows.shape[1])
    net = Supernet(sup_cfg, seed=config.seed)
    state = make_triple_state(net, config.optimizer)
    if resume_from is not None:
        doc = load_checkpoint(resume_from, expect_kind="search")
        saved = SearchRunConfig.from_dict(doc["config"], "config")
        if saved.config_hash() != config.config_hash():
            raise CheckpointError("checkpoint was produced by a different search config")
        saved_hash = doc["extra"].get("split_hash")
        if saved_hash != split_hash:
            raise CheckpointError(f"checkpoint extra.split_hash must be {split_hash!r}, the "
                                  f"search split of this dataset; got {saved_hash!r}")
        load_arrays(_checkpoint_arrays(net, state), doc["arrays"])
        state.load_counters(doc["counters"])

    ckpt_dir = os.path.join(out_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "config.json"), config.to_dict())
    log = RunLog(os.path.join(out_dir, "log.csv"), LOG_COLUMNS, first=state.step)

    net.train(True)
    n_train, n_val = len(train_split), len(val_split)
    steps_per_epoch = max(D.num_batches(n_train, config.train_batch),
                          D.num_batches(n_val, config.val_batch))

    for epoch in range(state.epoch, config.epochs):
        lr = cosine_lr(epoch, config.epochs, config.optimizer.w_lr0)
        train_order = D.epoch_order(config.seed, epoch, n_train, stream=1)
        val_order = D.epoch_order(config.seed, epoch, n_val, stream=2)
        train_batches = list(D.batches(train_split, config.train_batch, train_order))
        val_batches = list(D.batches(val_split, config.val_batch, val_order))

        for s in range(steps_per_epoch):
            tb = train_batches[s % len(train_batches)]
            vb = val_batches[s % len(val_batches)]
            step_id = state.step
            try:
                train_loss, val_loss = triple_step(net, tb, vb, state, lr)
            except NumericsError:
                with atomic_write(os.path.join(out_dir, "abort.json")) as fh:
                    json.dump({"epoch": epoch, "step": step_id,
                               "reason": "non-finite loss or gradient"}, fh)
                raise
            log.append(step_id, epoch, train_loss, val_loss, lr)

        state.epoch = epoch + 1
        _write_checkpoint(os.path.join(ckpt_dir, "last.json"), config, net, state, split_hash)

    genotype = _derive(net, config)
    with atomic_write(os.path.join(out_dir, "genotype.json")) as fh:
        fh.write(genotype.to_json())
    return genotype
