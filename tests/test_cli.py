import json
import os

import numpy as np
import pytest

from seqnas.cli import default_hyperparameters, main

MICRO_DATA = ["--synthetic", "--synth-subjects", "4", "--synth-length", "192",
              "--window", "64", "--stride", "32"]
MICRO_NET = ["--init-channels", "4"]


def run_cli(args):
    return main([str(a) for a in args])


def test_usage_error_without_data_source(tmp_path, capsys):
    code = run_cli(["search", "--epochs", "1", "--out", tmp_path / "x"])
    assert code == 2


def test_unknown_tier_is_usage_error(tmp_path):
    code = run_cli(["search", "--synthetic", "--tier", "nonsense",
                    "--out", tmp_path / "x"])
    assert code == 2


def test_default_hyperparameters_snapshot():
    assert default_hyperparameters() == {
        "w_lr0": 0.025,
        "momentum": 0.9,
        "weight_decay": 5e-4,
        "drop_path_p": 0.3,
        "search_epochs": 50,
        "train_epochs": 300,
        "train_batch": 32,
        "eval_batch": 256,
    }


def test_search_writes_manifest_first_and_is_deterministic(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = run_cli(["search", *MICRO_DATA, *MICRO_NET,
                        "--tier", "relax", "--epochs", "2", "--seed", "7",
                        "--out", out])
        assert code == 0
        outs.append(out)
        manifest = json.loads((out / "manifest.json").read_text())
        for key in ("command", "config", "engine_version", "seed",
                    "input_hashes", "outputs", "started_at"):
            assert key in manifest
        assert manifest["command"] == "search"
        assert manifest["seed"] == 7
    g1 = (outs[0] / "genotype.json").read_bytes()
    g2 = (outs[1] / "genotype.json").read_bytes()
    assert g1 == g2


def test_darts_tier_gives_identical_normal_cells(tmp_path):
    out = tmp_path / "darts"
    assert run_cli(["search", *MICRO_DATA, *MICRO_NET, "--tier", "darts",
                    "--epochs", "1", "--seed", "1", "--out", out]) == 0
    doc = json.loads((out / "genotype.json").read_text())
    normals = [c["nodes"] for c in doc["cells"] if c["kind"] == "normal"]
    assert all(n == normals[0] for n in normals)
    # gates are neutral when the tier has no beta
    assert all(c["gates"]["pruned"] == [False, False] for c in doc["cells"])


def _searched_genotype(tmp_path, seed=3):
    out = tmp_path / "search"
    assert run_cli(["search", *MICRO_DATA, *MICRO_NET, "--tier", "relax",
                    "--epochs", "1", "--seed", seed, "--out", out]) == 0
    return out / "genotype.json"


def test_train_epochs_zero_equals_initialization(tmp_path):
    geno = _searched_genotype(tmp_path)
    out = tmp_path / "train0"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "0", "--seed", "5", "--out", out]) == 0

    from seqnas.cell import Genotype
    from seqnas.network import SupernetConfig, instantiate_discrete
    from seqnas.train import load_trained

    net, genotype, _ = load_trained(str(out / "weights.json"))
    fresh = instantiate_discrete(
        genotype,
        SupernetConfig(num_cells=len(genotype.cells),
                       layout=tuple(c.kind for c in genotype.cells),
                       init_channels=4, num_classes=4, input_channels=2,
                       use_gates=False),
        seed=5)
    for k, v in fresh.state_arrays().items():
        assert np.array_equal(v, net.state_arrays()[k]), k


def test_train_log_rows_match_epochs(tmp_path):
    geno = _searched_genotype(tmp_path)
    out = tmp_path / "train"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "3", "--seed", "5", "--out", out]) == 0
    rows = (out / "log.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3  # header + one row per epoch


def test_invalid_genotype_file_is_data_error(tmp_path):
    bad = tmp_path / "geno.json"
    bad.write_text("{broken")
    code = run_cli(["train", *MICRO_DATA, "--genotype", bad,
                    "--epochs", "1", "--out", tmp_path / "t"])
    assert code == 3
    missing = run_cli(["train", *MICRO_DATA, "--genotype", tmp_path / "nope.json",
                       "--epochs", "1", "--out", tmp_path / "t2"])
    assert missing == 3


def test_eval_pipeline_metrics_and_det(tmp_path):
    geno = _searched_genotype(tmp_path)
    train_out = tmp_path / "train"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "2", "--seed", "5", "--out", train_out]) == 0
    eval_out = tmp_path / "eval"
    assert run_cli(["eval", *MICRO_DATA, "--weights", train_out / "weights.json",
                    "--out", eval_out]) == 0

    import jsonschema
    from importlib import resources

    report = json.loads((eval_out / "metrics.json").read_text())
    schema = json.loads(resources.files("seqnas")
                        .joinpath("schemas/metrics.schema.json").read_text())
    jsonschema.validate(report, schema)
    det = (eval_out / "det.csv").read_text().splitlines()
    assert det[0] == "threshold,far,frr"

    twice = tmp_path / "eval2"
    assert run_cli(["eval", *MICRO_DATA, "--weights", train_out / "weights.json",
                    "--out", twice]) == 0
    assert (twice / "metrics.json").read_bytes() == \
        (eval_out / "metrics.json").read_bytes()


def test_eval_builds_det_at_most_twice(tmp_path, monkeypatch):
    import seqnas.metrics as metrics

    geno = _searched_genotype(tmp_path)
    train_out = tmp_path / "train"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "1", "--seed", "5", "--out", train_out]) == 0
    calls = []
    det_curve = metrics.det_curve

    def counted(scores):
        calls.append(1)
        return det_curve(scores)

    monkeypatch.setattr(metrics, "det_curve", counted)
    assert run_cli(["eval", *MICRO_DATA, "--weights", train_out / "weights.json",
                    "--out", tmp_path / "eval"]) == 0
    assert 1 <= len(calls) <= 2


@pytest.mark.parametrize("rows, where", [
    ("S0,1,0.5,abc\n", "line 3, column 'ch1'"),
    ("S0,1,0.5\n", "line 3, column 'ch1'"),
    ("S0,x,0.5,0.5\n", "line 3, column 'session'"),
])
def test_malformed_csv_cell_is_data_error(tmp_path, capsys, rows, where):
    bad = tmp_path / "bad.csv"
    bad.write_text("subject,session,ch0,ch1\nS0,1,0.1,0.2\n" + rows)
    assert run_cli(["search", "--data", bad, "--out", tmp_path / "s"]) == 3
    assert where in capsys.readouterr().err


def test_eval_checks_init_channels_against_checkpoint(tmp_path):
    geno = _searched_genotype(tmp_path)
    train_out = tmp_path / "train"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "1", "--seed", "5", "--out", train_out]) == 0
    weights = train_out / "weights.json"
    assert run_cli(["eval", *MICRO_DATA, *MICRO_NET, "--weights", weights,
                    "--out", tmp_path / "match"]) == 0
    assert (tmp_path / "match" / "metrics.json").exists()
    assert run_cli(["eval", *MICRO_DATA, "--init-channels", "8",
                    "--weights", weights, "--out", tmp_path / "clash"]) == 3
    assert not (tmp_path / "clash" / "metrics.json").exists()


def test_missing_session_two_fails_before_manifest(tmp_path, capsys):
    cfg = tmp_path / "one_session.json"
    cfg.write_text(json.dumps({"data": {"synth_sessions": 1}}))
    geno = _searched_genotype(tmp_path)
    train_out = tmp_path / "train"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "0", "--out", train_out]) == 0
    runs = {"eval": ["eval", *MICRO_DATA, "--config", cfg,
                     "--weights", train_out / "weights.json"],
            "ablate": ["ablate", *MICRO_DATA, *MICRO_NET, "--config", cfg,
                       "--search-epochs", "1", "--train-epochs", "0"]}
    for name, args in runs.items():
        out = tmp_path / name
        assert run_cli(args + ["--out", out]) == 3, name
        assert "no session-2 windows" in capsys.readouterr().err
        assert not out.exists(), name  # no manifest.json, no tier directory


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"search": {"epochs": 1, "init_channels": 4,
                                          "num_cells": 2,
                                          "layout": ["normal", "reduction"]}}))
    out = tmp_path / "run"
    assert run_cli(["search", *MICRO_DATA, "--config", cfg, "--seed", "2",
                    "--out", out]) == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["epochs"] == 1  # from config file
    assert resolved["init_channels"] == 4
    assert resolved["seed"] == 2  # from flag


def test_train_init_channels_from_config_file_and_flag(tmp_path):
    geno = _searched_genotype(tmp_path)
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"train": {"init_channels": 4, "epochs": 0}}))
    from seqnas.train import load_trained

    for name, flags, width in (("file", [], 4),
                               ("flag", ["--init-channels", "6"], 6)):
        out = tmp_path / name
        assert run_cli(["train", *MICRO_DATA, "--genotype", geno, "--config", cfg,
                        *flags, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["train"]["init_channels"] == width
        assert manifest["config"]["train"]["epochs"] == 0  # from config file
        _, _, doc = load_trained(str(out / "weights.json"))
        assert doc["config"]["supernet"]["init_channels"] == width


def test_ablate_three_rows_and_reproducible(tmp_path, monkeypatch):
    import seqnas.cli as cli
    import seqnas.search as S
    import seqnas.serialize as SER

    args = ["ablate", *MICRO_DATA, *MICRO_NET, "--seed", "4",
            "--search-epochs", "1", "--train-epochs", "1"]
    out1, out2 = tmp_path / "a1", tmp_path / "a2"
    loads = []
    for owner in (cli, S, SER):  # the split hash comes from the config, not from last.json
        load = getattr(owner, "load_checkpoint", SER.load_checkpoint)
        monkeypatch.setattr(owner, "load_checkpoint",
                            lambda *a, load=load, **k: loads.append(a) or load(*a, **k),
                            raising=False)
    assert run_cli(args + ["--out", out1]) == 0
    assert run_cli(args + ["--out", out2]) == 0
    assert loads == []
    monkeypatch.undo()

    report = json.loads((out1 / "report.json").read_text())
    assert [r["tier"] for r in report["rows"]] == ["darts", "alpha", "relax"]
    for row in report["rows"]:
        assert set(row["frr_at_far"]) == {"1e-1", "1e-2", "1e-3"}
        assert 0.0 <= row["eer"] <= 1.0
    text = (out1 / "report.txt").read_text()
    assert text.splitlines()[0].startswith("tier")
    assert len([l for l in text.splitlines() if l and not l.startswith(("tier", "-"))]) == 3

    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    for tier in ("darts", "alpha", "relax"):
        ckpt = S.load_checkpoint(str(out1 / tier / "checkpoints" / "last.json"))
        assert ckpt["extra"]["split_hash"] == report["split_hash"]
        log = (out1 / tier / "log.csv").read_text().splitlines()
        assert log[0] == "step,epoch,train_loss,val_loss,lr"  # the search log survives
        assert len(log) > 1
        assert (out1 / tier / "train" / "log.csv").exists()


def test_ablate_trains_at_config_file_width(tmp_path):
    from seqnas.train import load_trained

    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"train": {"init_channels": 6}}))
    out = tmp_path / "ablate"
    assert run_cli(["ablate", *MICRO_DATA, *MICRO_NET, "--seed", "4", "--config", cfg,
                    "--search-epochs", "1", "--train-epochs", "1", "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["search"]["init_channels"] == 4  # the flag
    assert manifest["config"]["train"]["init_channels"] == 6  # the config file
    for tier in ("darts", "alpha", "relax"):
        _, _, doc = load_trained(str(out / tier / "train" / "weights.json"))
        assert doc["config"]["supernet"]["init_channels"] == 6


def test_ablate_train_width_defaults_to_search_width(tmp_path):
    out = tmp_path / "ablate"
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"search": {"num_cells": 2,
                                          "layout": ["normal", "reduction"]}}))
    assert run_cli(["ablate", *MICRO_DATA, *MICRO_NET, "--seed", "4", "--config", cfg,
                    "--search-epochs", "1", "--train-epochs", "0", "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["init_channels"] == 4


@pytest.mark.parametrize("doc, name", [
    ({"train": {"init_chanels": 6}}, "'train.init_chanels'"),
    ({"model": {"init_channels": 6}}, "'model'"),
    ({"search": {"optimizer": {"x1": 0.01}}}, "'search.optimizer.x1'"),
    ({"data": {"windw": 64}}, "'data.windw'"),
])
def test_unknown_config_key_is_data_error(tmp_path, capsys, doc, name):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "search"
    assert run_cli(["search", *MICRO_DATA, *MICRO_NET, "--config", cfg,
                    "--epochs", "1", "--out", out]) == 3
    assert f"unknown key {name}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


BAD_CONFIGS = [
    # (command, flags, config file, key named, flag named)
    ("search", [], {"search": {"epochs": "2"}}, "search.epochs", None),
    ("search", [], {"search": {"epochs": True}}, "search.epochs", None),
    ("search", ["--epochs", "0"], {}, "search.epochs", "--epochs"),
    ("search", [], {"search": {"tier": "nonsense"}}, "search.tier", None),
    ("search", [], {"search": {"gate_scale": 3.0}}, "search.gate_scale", None),
    ("search", [], {"search": {"optimizer": {"arch_lr": float("nan")}}},
     "search.optimizer.arch_lr", None),
    ("search", ["--xi", "inf"], {}, "search.optimizer.xi", "--xi"),
    ("search", ["--threshold", "1.5"], {}, "search.gate_threshold", "--threshold"),
    ("search", ["--split-ratio", "1"], {}, "search.split_ratio", "--split-ratio"),
    ("search", [], {"search": {"layout": "normal"}}, "search.layout", None),
    ("train", ["--drop-path", "1"], {}, "train.drop_path_p", "--drop-path"),
    ("train", ["--init-channels", "0"], {}, "train.init_channels", "--init-channels"),
    ("train", [], {"train": {"init_channels": 4.0}}, "train.init_channels", None),
    ("train", [], {"train": {"batch": False}}, "train.batch", None),
    ("train", [], {"train": {"optimizer": {"momentum": 1.0}}},
     "train.optimizer.momentum", None),
    ("train", ["--window", "0"], {}, "data.window", "--window"),
    ("train", [], {"data": {"stride": -1}}, "data.stride", None),
    ("eval", ["--batch", "0"], {}, "eval.batch", "--batch"),
    ("eval", [], {"eval": {"batch": 64}}, "eval", None),
    ("eval", ["--synth-subjects", "1"], {}, "data.synth_subjects", "--synth-subjects"),
    ("eval", [], {"data": {"synth_sessions": "2"}}, "data.synth_sessions", None),
    ("ablate", ["--search-epochs", "0"], {}, "search.epochs", "--search-epochs"),
    ("ablate", ["--train-epochs", "-1"], {}, "train.epochs", "--train-epochs"),
    ("ablate", ["--seed", "-3"], {}, "search.seed", "--seed"),
    ("ablate", [], {"train": {"seed": 1.5}}, "train.seed", None),
    ("ablate", [], {"search": {"train_batch": None}}, "search.train_batch", None),
    # the two gate coefficients sum to gate_scale: a cut above half could prune both
    ("search", ["--gate-scale", "1", "--threshold", "0.6"], {}, "search.gate_threshold",
     "--threshold"),
]


@pytest.mark.parametrize("command, flags, doc, key, flag", BAD_CONFIGS)
def test_bad_config_value_is_data_error_naming_key(tmp_path, capsys, command, flags,
                                                   doc, key, flag):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(doc))
    inputs = {"train": ["--genotype", tmp_path / "geno.json"],
              "eval": ["--weights", tmp_path / "weights.json"]}.get(command, [])
    out = tmp_path / "out"
    assert run_cli([command, *MICRO_DATA, *inputs, *flags, "--config", cfg,
                    "--out", out]) == 3
    err = capsys.readouterr().err
    assert repr(key) in err
    if flag:
        assert f"(set by {flag})" in err
    else:
        assert "set by" not in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("flags", [["--epochs", "abc"], ["--gate-scale", "3"],
                                   ["--seed", "1.5"]])
def test_unparsable_flag_is_usage_error(tmp_path, flags):
    assert run_cli(["search", *MICRO_DATA, *flags, "--out", tmp_path / "x"]) == 2


def test_file_seed_and_flag_seed_train_on_the_same_data(tmp_path):
    geno = _searched_genotype(tmp_path)
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"train": {"seed": 5}}))
    runs = {"file": ["--config", cfg], "flag": ["--seed", "5"]}
    for name, flags in runs.items():
        assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                        "--epochs", "2", *flags, "--out", tmp_path / name]) == 0
    for output in ("weights.json", "log.csv"):
        assert (tmp_path / "file" / output).read_bytes() == \
            (tmp_path / "flag" / output).read_bytes(), output
    seeds = [json.loads((tmp_path / name / "manifest.json").read_text())["config"]
             ["data"]["seed"] for name in runs]
    assert seeds == [5, 5]


@pytest.mark.parametrize("section, key, value", [
    ("supernet", "init_chanels", 4),
    ("supernet", "num_classes", "4"),
    ("train", "seed", True),
])
def test_bad_checkpoint_config_is_data_error(tmp_path, capsys, section, key, value):
    geno = _searched_genotype(tmp_path)
    weights = tmp_path / "train" / "weights.json"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "0", "--out", weights.parent]) == 0
    doc = json.loads(weights.read_text())
    doc["config"][section][key] = value
    weights.write_text(json.dumps(doc))
    assert run_cli(["eval", *MICRO_DATA, "--weights", weights,
                    "--out", tmp_path / "eval"]) == 3
    assert repr(f"config.{section}.{key}") in capsys.readouterr().err


@pytest.mark.parametrize("damage, named", [
    (lambda doc: doc["config"].pop("supernet"), "config.supernet"),
    (lambda doc: doc["config"].pop("train"), "config.train"),
    (lambda doc: doc.update(config="not a config"), "config must be an object"),
], ids=["no-supernet", "no-train", "config-string"])
def test_malformed_trained_checkpoint_is_data_error(tmp_path, capsys, damage, named):
    geno = _searched_genotype(tmp_path)
    weights = tmp_path / "train" / "weights.json"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "0", "--out", weights.parent]) == 0
    doc = json.loads(weights.read_text())
    damage(doc)
    weights.write_text(json.dumps(doc))
    out = tmp_path / "eval"
    assert run_cli(["eval", *MICRO_DATA, "--weights", weights, "--out", out]) == 3
    assert named in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_genotype_with_short_pruned_list_fails_before_manifest(tmp_path, capsys):
    geno = _searched_genotype(tmp_path)
    doc = json.loads(geno.read_text())
    doc["cells"][0]["gates"]["pruned"] = [True]
    geno.write_text(json.dumps(doc))
    out = tmp_path / "train"
    assert run_cli(["train", *MICRO_DATA, *MICRO_NET, "--genotype", geno,
                    "--epochs", "1", "--out", out]) == 3
    assert "cell 0: gates and pruned need one entry per input" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
