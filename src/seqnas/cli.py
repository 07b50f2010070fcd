"""Operator entry point: search, train, eval, and the three-tier ablation.

Config precedence is flags > config file (--config, JSON) > the defaults
declared on the config fields (see seqnas.config); a value that does not
fit its field exits 3 naming its section.key and flag.  The fully
resolved configuration is dumped into every run directory.  Each command
writes a run manifest before compute starts, so any output directory is
self-describing.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

from . import __version__
from . import data as D
from . import metrics as M
from .cell import Genotype, GenotypeError
from .config import Config, ConfigError, declared, spec
from .network import NetworkError, SupernetConfig, instantiate_discrete
from .optim import NumericsError, OptimizerConfig
from .search import TIERS, SearchRunConfig, run_search, search_split
from .serialize import CheckpointError, atomic_write
from .train import TrainConfig, load_trained, save_trained, train_final


@dataclasses.dataclass
class DataConfig(Config):
    """The `data` section: the synthetic set's size and the windowing."""

    synth_subjects: int = spec(20, min=2)
    synth_sessions: int = spec(2, min=1)
    synth_length: int = spec(1280, min=1)
    synth_channels: int = spec(2, min=1)
    window: int = spec(128, min=1)
    stride: int = spec(64, min=1)


@dataclasses.dataclass
class TrainSection(TrainConfig):
    """The `train` section: TrainConfig plus the network width, which stays out of
    weights.json's `train`; None is 8 for train and the search width for ablate."""

    init_channels: int = spec(None, min=1)


@dataclasses.dataclass
class EvalConfig(Config):
    """The `eval` section, which only flags set: the embedding batch."""

    batch: int = spec(256, min=1)


SECTIONS = {"data": DataConfig, "search": SearchRunConfig, "train": TrainSection,
            "eval": EvalConfig}
FILE_SECTIONS = ("data", "search", "train")


def default_hyperparameters():
    """Published defaults, snapshot-tested: search/train schedules and sizes."""
    opt, train = OptimizerConfig(), TrainConfig()
    return {
        "w_lr0": opt.w_lr0,
        "momentum": opt.momentum,
        "weight_decay": opt.weight_decay,
        "drop_path_p": train.drop_path_p,
        "search_epochs": SearchRunConfig().epochs,
        "train_epochs": train.epochs,
        "train_batch": train.batch,
        "eval_batch": EvalConfig().batch,
    }


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_config_file(path):
    """The config file's sections, each checked; unknown sections and keys are errors."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise D.DataError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise D.DataError(f"config file {path}: top level must be an object")
    for name, section in doc.items():
        if name not in FILE_SECTIONS:
            raise ConfigError(name)
        SECTIONS[name].from_dict(section, name)
    return doc


def _resolve(args):
    """Every section: flags > config file > declared defaults, each value checked;
    a ConfigError names the flag that set the value, if any."""
    doc = _load_config_file(args.config)
    set_by = {}
    for option, dest, keys in args.config_flags:
        value = getattr(args, dest)
        if value is None:
            continue
        for key in keys:
            *path, name = key.split(".")
            node = doc
            for part in path:
                node = node.setdefault(part, {})
            node[name] = value
            set_by[key] = option
    try:
        return {name: cls.from_dict(doc.get(name, {}), name) for name, cls in SECTIONS.items()}
    except ConfigError as exc:
        exc.flag = set_by.get(exc.key)
        raise


def _train_config(section, default_width):
    """(TrainConfig, network width) from a resolved `train` section."""
    doc = section.to_dict()
    width = doc.pop("init_channels")
    return TrainConfig.from_dict(doc), default_width if width is None else width


def _discrete_network(genotype, dataset, width, seed):
    """A freshly initialised network holding the genotype's kept ops, sized to the data."""
    return instantiate_discrete(genotype, SupernetConfig(
        num_cells=len(genotype.cells),
        layout=tuple(c.kind for c in genotype.cells),
        init_channels=width,
        num_classes=dataset.num_classes,
        input_channels=dataset.windows.shape[1],
        use_gates=False,
    ), seed=seed)


def _flag(parser, option, *keys, **kw):
    """A flag setting config keys ("section.key") typed by the first key's field."""
    section, _, key = keys[0].partition(".")
    f = declared(SECTIONS[section], key)
    action = parser.add_argument(option, type=f.type, choices=f.metadata.get("choices"), **kw)
    return option, action.dest, keys


def _subcommand(sub, name, func, summary):
    """A subparser with the data, --config and --out flags; returns it and the
    config flags added so far."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(func=func)
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="CSV file of gaze sequences")
    src.add_argument("--synthetic", action="store_true",
                     help="use the seeded synthetic generator")
    parser.add_argument("--subject-col", default=None)
    parser.add_argument("--session-col", default=None)
    parser.add_argument("--channels", default=None,
                        help="comma-separated channel column names")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", required=True)
    keys = ("synth_subjects", "synth_length", "synth_channels", "window", "stride")
    return parser, [_flag(parser, "--" + key.replace("_", "-"), "data." + key) for key in keys]


def _search_flags(parser):
    """The search flags that search and ablate share."""
    return [_flag(parser, "--xi", "search.optimizer.xi",
                  help="unrolling step size; 0 = first order"),
            _flag(parser, "--gate-scale", "search.gate_scale"),
            _flag(parser, "--threshold", "search.gate_threshold",
                  help="gate pruning threshold at derivation"),
            _flag(parser, "--init-channels", "search.init_channels"),
            _flag(parser, "--split-ratio", "search.split_ratio")]


def _build_dataset(args, cfg, seed, test_session=False):
    """(dataset, description, input hash); test_session requires session-2 windows."""
    if args.data:
        schema = D.CsvSchema(
            subject_col=args.subject_col or "subject",
            session_col=args.session_col or "session",
            channel_cols=tuple(args.channels.split(",")) if args.channels else (),
        )
        records = D.ingest_csv(args.data, schema)
        desc = {"source": "csv", "path": os.path.abspath(args.data),
                "window": cfg.window, "stride": cfg.stride}
        input_hash = _sha256_file(args.data)
    else:
        gen = {
            "num_subjects": cfg.synth_subjects,
            "sessions": cfg.synth_sessions,
            "length": cfg.synth_length,
            "channels": cfg.synth_channels,
            "seed": seed,
        }
        records = D.synth_generate(**gen)
        desc = {"source": "synthetic", **gen,
                "window": cfg.window, "stride": cfg.stride}
        input_hash = hashlib.sha256(
            json.dumps(desc, sort_keys=True).encode()).hexdigest()
    dataset = D.make_windows(records, cfg.window, cfg.stride)
    if test_session and not (dataset.sessions == 2).any():
        raise D.DataError("dataset has no session-2 windows to test on")
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
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest


def _write_json(path, doc):
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def cmd_search(args):
    cfg = _resolve(args)
    config = cfg["search"]
    dataset, data_desc, input_hash = _build_dataset(args, cfg["data"], config.seed)
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
    cfg = _resolve(args)
    config, init_channels = _train_config(cfg["train"], 8)
    dataset, data_desc, input_hash = _build_dataset(args, cfg["data"], config.seed)
    try:
        with open(args.genotype) as fh:
            genotype = Genotype.from_json(fh.read())
    except OSError as exc:
        raise D.DataError(f"cannot read genotype {args.genotype}: {exc}") from exc

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
    emb1 = M.embed(net, sess1.windows, batch_size)
    emb2 = M.embed(net, sess2.windows, batch_size)
    scores = M.score_protocol(emb1, sess1.labels, emb2, sess2.labels)
    return scores, M.metrics_report(scores)


def cmd_eval(args):
    cfg = _resolve(args)
    net, genotype, doc = load_trained(args.weights)
    trained_channels = net.config.init_channels
    if args.init_channels is not None and args.init_channels != trained_channels:
        raise D.DataError(
            f"--init-channels {args.init_channels} disagrees with the "
            f"checkpoint, which was trained with {trained_channels}")
    seed = TrainConfig.from_dict(doc["config"]["train"], "config.train").seed
    dataset, data_desc, input_hash = _build_dataset(args, cfg["data"], seed, test_session=True)
    batch = cfg["eval"].batch
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
    _write_json(os.path.join(out, "metrics.json"), report)
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
    cfg = _resolve(args)
    search = cfg["search"]
    # --init-channels sets the search width; training defaults to it
    tcfg, train_width = _train_config(cfg["train"], search.init_channels)
    seed = search.seed
    dataset, data_desc, input_hash = _build_dataset(args, cfg["data"], seed, test_session=True)

    out = args.out
    write_manifest(
        out, "ablate",
        {"search": search.to_dict(),
         "train": {**tcfg.to_dict(), "init_channels": train_width}, "data": data_desc},
        {"data": input_hash},
        {"report": "report.txt", "report_json": "report.json"},
        seed,
    )

    # the split depends on the seed and split ratio alone, which every tier shares
    _, _, split_hash = search_split(search, dataset)
    rows = []
    for tier in TIERS:
        config = dataclasses.replace(search, tier=tier)
        tier_dir = os.path.join(out, tier)
        genotype = run_search(config, dataset, out_dir=tier_dir)

        net = _discrete_network(genotype, dataset, train_width, tcfg.seed)
        # training gets its own directory so the search's log.csv survives
        train_dir = os.path.join(tier_dir, "train")
        history = train_final(net, dataset, tcfg, out_dir=train_dir)
        save_trained(os.path.join(train_dir, "weights.json"),
                     net, genotype, tcfg, history)
        _, report = _evaluate(net, dataset, cfg["eval"].batch)
        _write_json(os.path.join(tier_dir, "metrics.json"), report)
        rows.append({"tier": tier, **report})

    _write_json(os.path.join(out, "report.json"), {
        "rows": rows,
        "seed": seed,
        "split_hash": split_hash,
        "search_epochs": search.epochs,
        "train_epochs": tcfg.epochs,
    })
    text = _format_report(rows)
    with atomic_write(os.path.join(out, "report.txt")) as fh:
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

    p, flags = _subcommand(sub, "search", cmd_search, "run the architecture search")
    p.set_defaults(config_flags=flags + _search_flags(p) + [
        _flag(p, "--epochs", "search.epochs"),
        _flag(p, "--tier", "search.tier"),
        _flag(p, "--seed", "search.seed"),
    ])

    p, flags = _subcommand(sub, "train", cmd_train, "train a derived network from scratch")
    p.add_argument("--genotype", required=True)
    p.set_defaults(config_flags=flags + [
        _flag(p, "--epochs", "train.epochs"),
        _flag(p, "--drop-path", "train.drop_path_p"),
        _flag(p, "--init-channels", "train.init_channels"),
        _flag(p, "--seed", "train.seed"),
    ])

    p, flags = _subcommand(sub, "eval", cmd_eval, "verification metrics on session 2")
    p.add_argument("--weights", required=True)
    p.add_argument("--init-channels", type=int, default=None,
                   help="must match the checkpoint's width if given")
    p.set_defaults(config_flags=flags + [_flag(p, "--batch", "eval.batch")])

    p, flags = _subcommand(sub, "ablate", cmd_ablate, "search+train+eval for all three tiers")
    p.set_defaults(config_flags=flags + _search_flags(p) + [
        _flag(p, "--search-epochs", "search.epochs"),
        _flag(p, "--train-epochs", "train.epochs"),
        _flag(p, "--drop-path", "train.drop_path_p"),
        _flag(p, "--seed", "search.seed", "train.seed"),
    ])

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
