"""Operator entry point: search, train, eval, and the three-tier ablation.

Config precedence is flags > config file (--config, JSON) > built-in
defaults; the fully resolved configuration is dumped into every run
directory.  Each command writes a run manifest before compute starts, so
any output directory is self-describing.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import data as D
from . import metrics as M
from .cell import Genotype, GenotypeError
from .network import NetworkError, SupernetConfig, instantiate_discrete
from .optim import NumericsError, OptimizerConfig
from .search import SearchRunConfig, run_search
from .serialize import CheckpointError
from .train import TrainConfig, load_trained, save_trained, train_final

DATA_DEFAULTS = {
    "synth_subjects": 20,
    "synth_sessions": 2,
    "synth_length": 1280,
    "synth_channels": 2,
    "window": 128,
    "stride": 64,
}

EVAL_BATCH_DEFAULT = 256


def default_hyperparameters():
    """Published defaults, snapshot-tested: search/train schedules and sizes."""
    opt = OptimizerConfig()
    return {
        "w_lr0": opt.w_lr0,
        "momentum": opt.momentum,
        "weight_decay": opt.weight_decay,
        "drop_path_p": TrainConfig().drop_path_p,
        "search_epochs": SearchRunConfig().epochs,
        "train_epochs": TrainConfig().epochs,
        "train_batch": TrainConfig().batch,
        "eval_batch": EVAL_BATCH_DEFAULT,
    }


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve(defaults, file_cfg, flags):
    """defaults < config file < explicitly passed flags (non-None)."""
    return {**defaults, **file_cfg, **{k: v for k, v in flags.items() if v is not None}}


def _check_keys(path, known, given, where=""):
    """Reject any key of given that known lacks, recursing into dict-valued keys."""
    if not isinstance(given, dict):
        raise D.DataError(f"config file {path}: {where or 'top level'} must be an object")
    for k, v in given.items():
        name = f"{where}.{k}" if where else k
        if k not in known:
            raise D.DataError(f"config file {path}: unknown key {name!r}")
        if isinstance(known[k], dict):
            _check_keys(path, known[k], v, name)


def _load_config_file(path):
    """The config file's sections; unknown sections and keys are data errors."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise D.DataError(f"cannot read config file {path}: {exc}") from exc
    _check_keys(path, {"data": DATA_DEFAULTS, "search": SearchRunConfig().to_dict(),
                       "train": {**TrainConfig().to_dict(), "init_channels": None}}, doc)
    return doc


def _train_config(file_cfg, flags, default_width):
    """(TrainConfig, network width): flags > config file `train` > defaults."""
    resolved = _resolve({**TrainConfig().to_dict(), "init_channels": default_width},
                        file_cfg.get("train", {}), flags)
    width = resolved.pop("init_channels")
    return TrainConfig(**resolved), width


def _discrete_network(genotype, dataset, width, seed):
    """A freshly initialised network holding the genotype's kept ops, sized to the data."""
    return instantiate_discrete(genotype, SupernetConfig(
        num_cells=len(genotype.cells),
        layout=tuple(c.kind for c in genotype.cells),
        init_channels=width,
        num_classes=dataset.num_classes,
        input_channels=dataset.windows.shape[1],
        independent_alpha=True,
        use_gates=False,
    ), seed=seed)


def _data_flags(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="CSV file of gaze sequences")
    src.add_argument("--synthetic", action="store_true",
                     help="use the seeded synthetic generator")
    parser.add_argument("--subject-col", default=None)
    parser.add_argument("--session-col", default=None)
    parser.add_argument("--channels", default=None,
                        help="comma-separated channel column names")
    parser.add_argument("--synth-subjects", type=int, default=None)
    parser.add_argument("--synth-length", type=int, default=None)
    parser.add_argument("--synth-channels", type=int, default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--stride", type=int, default=None)


def _build_dataset(args, file_cfg, seed):
    cfg = _resolve(DATA_DEFAULTS, file_cfg.get("data", {}), {
        "synth_subjects": getattr(args, "synth_subjects", None),
        "synth_length": getattr(args, "synth_length", None),
        "synth_channels": getattr(args, "synth_channels", None),
        "window": getattr(args, "window", None),
        "stride": getattr(args, "stride", None),
    })
    if args.data:
        schema = D.CsvSchema(
            subject_col=args.subject_col or "subject",
            session_col=args.session_col or "session",
            channel_cols=tuple(args.channels.split(",")) if args.channels else (),
        )
        records = D.ingest_csv(args.data, schema)
        desc = {"source": "csv", "path": os.path.abspath(args.data),
                "window": cfg["window"], "stride": cfg["stride"]}
        input_hash = _sha256_file(args.data)
    else:
        gen = {
            "num_subjects": cfg["synth_subjects"],
            "sessions": cfg["synth_sessions"],
            "length": cfg["synth_length"],
            "channels": cfg["synth_channels"],
            "seed": seed,
        }
        records = D.synth_generate(**gen)
        desc = {"source": "synthetic", **gen,
                "window": cfg["window"], "stride": cfg["stride"]}
        input_hash = hashlib.sha256(
            json.dumps(desc, sort_keys=True).encode()).hexdigest()
    dataset = D.make_windows(records, cfg["window"], cfg["stride"])
    return dataset, desc, input_hash


def write_manifest(out_dir, command, config, input_hashes, outputs, seed):
    """Run manifest: written before compute, never touched afterward."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "engine_version": __version__,
        "seed": seed,
        "input_hashes": input_hashes,
        "outputs": outputs,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def _search_config(args, file_cfg, num_cells=None):
    base = SearchRunConfig().to_dict()
    resolved = _resolve(base, file_cfg.get("search", {}), {
        "epochs": args.epochs,
        "seed": args.seed,
        "tier": args.tier,
        "gate_scale": args.gate_scale,
        "gate_threshold": args.threshold,
        "init_channels": args.init_channels,
        "split_ratio": args.split_ratio,
    })
    if args.xi is not None:
        resolved["optimizer"]["xi"] = args.xi
    if num_cells is not None:
        resolved["num_cells"] = num_cells
    return SearchRunConfig.from_dict(resolved)


def cmd_search(args):
    file_cfg = _load_config_file(args.config)
    seed = args.seed if args.seed is not None else file_cfg.get("search", {}).get("seed", 0)
    dataset, data_desc, input_hash = _build_dataset(args, file_cfg, seed)
    config = _search_config(args, file_cfg)
    out = args.out
    write_manifest(
        out, "search",
        {"search": config.to_dict(), "data": data_desc},
        {"data": input_hash},
        {"genotype": "genotype.json", "log": "log.csv",
         "checkpoints": "checkpoints/"},
        config.seed,
    )
    genotype = run_search(config, dataset, out_dir=out)
    print(f"search done: genotype at {os.path.join(out, 'genotype.json')}")
    print(f"  tier={config.tier} epochs={config.epochs} seed={config.seed}")
    return 0


def cmd_train(args):
    file_cfg = _load_config_file(args.config)
    seed = args.seed if args.seed is not None else 0
    dataset, data_desc, input_hash = _build_dataset(args, file_cfg, seed)
    try:
        with open(args.genotype) as fh:
            genotype = Genotype.from_json(fh.read())
    except OSError as exc:
        raise D.DataError(f"cannot read genotype {args.genotype}: {exc}") from exc

    config, init_channels = _train_config(file_cfg, {
        "epochs": args.epochs,
        "drop_path_p": args.drop_path,
        "seed": args.seed,
        "init_channels": args.init_channels,
    }, 8)
    out = args.out
    write_manifest(
        out, "train",
        {"train": {**config.to_dict(), "init_channels": init_channels},
         "data": data_desc, "genotype_file": os.path.abspath(args.genotype)},
        {"data": input_hash, "genotype": _sha256_file(args.genotype)},
        {"weights": "weights.json", "log": "log.csv"},
        config.seed,
    )
    net = _discrete_network(genotype, dataset, init_channels, config.seed)
    history = train_final(net, dataset, config, out_dir=out)
    save_trained(os.path.join(out, "weights.json"), net, genotype, config, history)
    final = history[-1]["accuracy"] if history else None
    print(f"training done: weights at {os.path.join(out, 'weights.json')}")
    print(f"  epochs={config.epochs} final_train_accuracy={final}")
    return 0


def _evaluate(net, dataset, batch_size):
    sess1 = dataset.session_view(1)
    sess2 = dataset.session_view(2)
    if len(sess2) == 0:
        raise D.DataError("dataset has no session-2 windows to test on")
    emb1 = M.embed(net, sess1.windows, batch_size)
    emb2 = M.embed(net, sess2.windows, batch_size)
    scores = M.score_protocol(emb1, sess1.labels, emb2, sess2.labels)
    return scores, M.metrics_report(scores)


def cmd_eval(args):
    file_cfg = _load_config_file(args.config)
    net, genotype, doc = load_trained(args.weights)
    trained_channels = doc["config"]["supernet"]["init_channels"]
    if args.init_channels is not None and args.init_channels != trained_channels:
        raise D.DataError(
            f"--init-channels {args.init_channels} disagrees with the "
            f"checkpoint, which was trained with {trained_channels}")
    seed = doc["config"]["train"].get("seed", 0)
    dataset, data_desc, input_hash = _build_dataset(args, file_cfg, seed)
    batch = args.batch or EVAL_BATCH_DEFAULT
    out = args.out
    write_manifest(
        out, "eval",
        {"weights_file": os.path.abspath(args.weights), "data": data_desc,
         "batch": batch},
        {"data": input_hash, "weights": _sha256_file(args.weights)},
        {"metrics": "metrics.json", "det": "det.csv"},
        seed,
    )
    scores, report = _evaluate(net, dataset, batch)
    with open(os.path.join(out, "metrics.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    M.write_det_csv(scores, os.path.join(out, "det.csv"))
    print(f"eval done: EER={report['eer']:.4f} "
          f"FRR@FAR(1e-1,1e-2,1e-3)="
          f"({report['frr_at_far']['1e-1']:.4f}, "
          f"{report['frr_at_far']['1e-2']:.4f}, "
          f"{report['frr_at_far']['1e-3']:.4f})")
    return 0


def _format_report(rows):
    header = f"{'tier':<16}{'EER':>8}  {'FRR@1e-1':>10}{'FRR@1e-2':>10}{'FRR@1e-3':>10}"
    lines = [header, "-" * len(header)]
    for row in rows:
        f = row["frr_at_far"]
        lines.append(
            f"{row['tier']:<16}{row['eer']:>8.4f}  "
            f"{f['1e-1']:>10.4f}{f['1e-2']:>10.4f}{f['1e-3']:>10.4f}"
        )
    return "\n".join(lines) + "\n"


def cmd_ablate(args):
    file_cfg = _load_config_file(args.config)
    seed = args.seed if args.seed is not None else 0
    dataset, data_desc, input_hash = _build_dataset(args, file_cfg, seed)

    search_base = _search_config(args, file_cfg).to_dict()
    search_base["epochs"] = args.search_epochs or search_base["epochs"]
    # --init-channels sets the search width; training defaults to it
    tcfg, train_width = _train_config(file_cfg, {
        "epochs": args.train_epochs,
        "drop_path_p": args.drop_path,
        "seed": args.seed,
    }, search_base["init_channels"])

    out = args.out
    write_manifest(
        out, "ablate",
        {"search": search_base, "train": {**tcfg.to_dict(), "init_channels": train_width},
         "data": data_desc},
        {"data": input_hash},
        {"report": "report.txt", "report_json": "report.json"},
        seed,
    )

    rows = []
    split_hashes = {}
    for tier in ("darts", "alpha", "relax"):
        tier_cfg = dict(search_base)
        tier_cfg["tier"] = tier
        config = SearchRunConfig.from_dict(tier_cfg)
        tier_dir = os.path.join(out, tier)
        genotype = run_search(config, dataset, out_dir=tier_dir)
        ckpt = os.path.join(tier_dir, "checkpoints", "last.json")
        from .serialize import load_checkpoint

        split_hashes[tier] = load_checkpoint(ckpt)["extra"]["split_hash"]

        net = _discrete_network(genotype, dataset, train_width, tcfg.seed)
        # training gets its own directory so the search's log.csv survives
        train_dir = os.path.join(tier_dir, "train")
        history = train_final(net, dataset, tcfg, out_dir=train_dir)
        save_trained(os.path.join(train_dir, "weights.json"),
                     net, genotype, tcfg, history)
        _, report = _evaluate(net, dataset, EVAL_BATCH_DEFAULT)
        with open(os.path.join(tier_dir, "metrics.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        rows.append({"tier": tier, **report})

    if len(set(split_hashes.values())) != 1:
        raise D.DataError(f"tiers saw different data splits: {split_hashes}")

    report_doc = {
        "rows": rows,
        "seed": seed,
        "split_hash": split_hashes["relax"],
        "search_epochs": search_base["epochs"],
        "train_epochs": tcfg.epochs,
    }
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report_doc, fh, indent=2, sort_keys=True)
    text = _format_report(rows)
    with open(os.path.join(out, "report.txt"), "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seqnas",
        description="architecture search, training, and verification scoring "
                    "for multi-channel time series",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run the architecture search")
    _data_flags(p)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--tier", choices=("darts", "alpha", "relax"), default=None)
    p.add_argument("--xi", type=float, default=None,
                   help="unrolling step size; 0 = first order")
    p.add_argument("--gate-scale", type=float, choices=(1.0, 2.0), default=None)
    p.add_argument("--threshold", type=float, default=None,
                   help="gate pruning threshold at derivation")
    p.add_argument("--init-channels", type=int, default=None)
    p.add_argument("--split-ratio", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="train a derived network from scratch")
    _data_flags(p)
    p.add_argument("--genotype", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--drop-path", type=float, default=None)
    p.add_argument("--init-channels", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="verification metrics on session 2")
    _data_flags(p)
    p.add_argument("--weights", required=True)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--init-channels", type=int, default=None,
                   help="must match the checkpoint's width if given")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="search+train+eval for all three tiers")
    _data_flags(p)
    p.add_argument("--search-epochs", type=int, default=None)
    p.add_argument("--train-epochs", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--tier", default=None, help=argparse.SUPPRESS)
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--gate-scale", type=float, choices=(1.0, 2.0), default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--drop-path", type=float, default=None)
    p.add_argument("--init-channels", type=int, default=None)
    p.add_argument("--split-ratio", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except (D.DataError, GenotypeError, CheckpointError, NetworkError,
            M.MetricError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericsError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
