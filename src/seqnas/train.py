"""From-scratch training of a derived network with drop-path regularization."""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import data as D
from . import functional as F
from .autograd import Tensor, backward, reset_tape
from .cell import Genotype
from .config import Config, spec
from .network import DiscreteNetwork, SupernetConfig
from .optim import NumericsError, OptimizerConfig, clip_grad_norm, cosine_lr, SGD
from .serialize import CheckpointError, RunLog, load_arrays, save_checkpoint


@dataclass
class TrainConfig(Config):
    """Final training of a derived network (config section `train`)."""

    epochs: int = spec(300, min=0)
    batch: int = spec(32, min=1)
    drop_path_p: float = spec(0.3, min=0, below=1)
    seed: int = spec(0, min=0)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)


def drop_path(x, p, rng):
    """Zero whole per-sample edge outputs of Tensor x with probability p, rescaled.

    Identity at p=0.  Masks are independent across calls (edges) and across
    samples within the batch.
    """
    if p <= 0:
        return x
    keep = (rng.random(x.shape[0]) >= p).astype(x.dtype)
    mask = np.broadcast_to((keep / (1.0 - p))[:, None, None], x.shape)
    return F.mul(x, Tensor(np.ascontiguousarray(mask)))


def train_final(net, dataset, config: TrainConfig, out_dir=None, epoch_callback=None):
    """Identification training on session-1 windows; keeps the best epoch.

    Drop-path ramps linearly as in DARTS: epoch e uses
    drop_path_p * e / epochs, so epoch 0 draws no mask and drop_path_p
    bounds the ramp from above.

    Returns a list of per-epoch dicts (epoch, loss, accuracy, lr).  The
    network is left holding the weights of its best-accuracy epoch.
    """
    session1 = dataset.session_view(1)
    if len(session1) == 0:
        raise D.DataError("no session-1 windows to train on")
    if dataset.num_classes != net.config.num_classes:
        raise D.DataError(
            f"network head has {net.config.num_classes} classes, "
            f"dataset has {dataset.num_classes}"
        )

    opt = SGD(net.parameters(), config.optimizer.momentum, config.optimizer.weight_decay)
    history = []
    best = {"accuracy": -1.0, "arrays": None, "epoch": -1}
    net.train(True)
    n = len(session1)

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    log = RunLog(os.path.join(out_dir, "log.csv") if out_dir else None,
                 ("epoch", "loss", "accuracy", "lr"))

    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, config.epochs, config.optimizer.w_lr0)
        order = D.epoch_order(config.seed, epoch, n, stream=3)
        dp_rng = np.random.default_rng([config.seed, epoch, 4])
        p = config.drop_path_p * epoch / config.epochs
        reg = (lambda t: drop_path(t, p, dp_rng)) if p > 0 else None
        losses, hits, total = [], 0, 0
        for xb, yb in D.batches(session1, config.batch, order):
            reset_tape()
            net.zero_grad()
            logits = net.forward(xb, edge_regularizer=reg)
            loss = F.cross_entropy(logits, yb)
            if not math.isfinite(float(loss.data)):
                raise NumericsError(f"non-finite training loss at epoch {epoch}")
            backward(loss)
            clip_grad_norm(net.parameters(), config.optimizer.grad_clip)
            opt.step(lr)
            losses.append(float(loss.data))
            hits += int(np.sum(np.argmax(logits.data, axis=1) == yb))
            total += len(yb)
        row = {"epoch": epoch, "loss": float(np.mean(losses)),
               "accuracy": hits / total, "lr": lr}
        history.append(row)
        log.append(*row.values())
        if row["accuracy"] > best["accuracy"]:
            best = {"accuracy": row["accuracy"], "epoch": epoch,
                    "arrays": {k: v.copy() for k, v in net.state_arrays().items()}}
        if epoch_callback is not None:
            epoch_callback(net, row)

    if best["arrays"] is not None:
        net.load_state_arrays(best["arrays"])
    net.eval()
    return history


def save_trained(path, net, genotype, train_config, history):
    """Weights checkpoint consumable by the verification evaluator."""
    arrays = {f"net:{k}": v for k, v in net.state_arrays().items()}
    save_checkpoint(
        path, "train",
        {
            "train": train_config.to_dict(),
            "supernet": net.config.to_dict(),
            "genotype": genotype.to_json_dict(),
        },
        {"epochs": len(history)},
        arrays,
        extra={"best_epoch": max(range(len(history)),
                                 key=lambda i: history[i]["accuracy"]) if history else -1,
               "final_accuracy": history[-1]["accuracy"] if history else None},
    )


def load_trained(path):
    """Rebuild the discrete network held by a training checkpoint; its config must
    hold the genotype, supernet and train sections that eval reads."""
    # looked up per call: the benchmark's tracer times serialize.load_checkpoint
    # by patching that module attribute, which a top-level import would bypass
    from .serialize import load_checkpoint

    doc = load_checkpoint(path, expect_kind="train")
    config = doc["config"]
    if not isinstance(config, dict):
        raise CheckpointError(
            f"checkpoint config must be an object, got {type(config).__name__}")
    for section in ("genotype", "supernet", "train"):
        if not isinstance(config.get(section), dict):
            raise CheckpointError(f"checkpoint config.{section} is missing or not an object")
    genotype = Genotype.from_json_dict(config["genotype"])
    sup_cfg = SupernetConfig.from_dict(config["supernet"], "config.supernet")
    net = DiscreteNetwork(genotype, sup_cfg, seed=0)
    load_arrays({f"net:{k}": v for k, v in net.state_arrays().items()}, doc["arrays"])
    net.eval()
    return net, genotype, doc
