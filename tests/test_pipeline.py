"""A fixed-seed micro pipeline through the CLI, pinned by the sha256 of its outputs.

It runs a relax search, a darts search at xi=0.01, then train and eval of
the relax genotype and of a genotype that uses every op and prunes one
input.  Any change to what the program computes or writes moves a hash;
a change meant to keep the outputs (a refactor, a faster kernel) must
leave every hash as it is.  A change meant to alter outputs re-pins only
the hashes it moves and names each of them in CHANGES.md.  The hashes
were captured with numpy 2.4.6 on x86-64, one table per OpenBLAS core:
SkylakeX runs AVX-512 kernels and Haswell AVX2 ones, which sum in another
order; a failure names the core and numpy version it ran on.
"""

import hashlib
import json

from seqnas.cli import main
from helpers import pin_context, pinned

DATA = ["--synthetic", "--synth-subjects", "4", "--synth-length", "192",
        "--window", "64", "--stride", "32"]
CONFIG = {"search": {"num_cells": 2, "layout": ["normal", "reduction"],
                     "train_batch": 8, "val_batch": 8}}
OPS = ("none", "skip_connect", "max_pool_3", "avg_pool_3", "sep_conv_3",
       "sep_conv_5", "dil_conv_3", "dil_conv_5")


def every_op_genotype():
    """Two cells whose 16 edges use every op; the reduction cell prunes s0."""
    used = OPS[1:] * 3
    cells = []
    for ci, kind in enumerate(("normal", "reduction")):
        nodes = [[{"op": used[8 * ci + 2 * j], "from": 0},
                  {"op": used[8 * ci + 2 * j + 1], "from": j + 1}] for j in range(4)]
        pruned = [ci == 1, False]
        cells.append({"kind": kind, "nodes": nodes,
                      "gates": {"s0": 0.1 if pruned[0] else 1.0,
                                "s1": 1.9 if pruned[0] else 1.0, "pruned": pruned}})
    return {"cells": cells, "vocab": list(OPS), "meta": {"seed": 0}}


def run(args):
    assert main([str(a) for a in args]) == 0, args


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(root):
    """Every pinned output of the pipeline, by its path under root."""
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    common = [*DATA, "--init-channels", "4", "--config", cfg]
    run(["search", *common, "--tier", "relax", "--epochs", "3", "--seed", "7",
         "--out", root / "relax"])
    run(["search", *common, "--tier", "darts", "--xi", "0.01", "--epochs", "3",
         "--seed", "7", "--out", root / "darts"])
    (root / "every_op.json").write_text(json.dumps(every_op_genotype()))
    for name, genotype in (("relax", root / "relax" / "genotype.json"),
                           ("every_op", root / "every_op.json")):
        run(["train", *common, "--genotype", genotype, "--epochs", "3", "--seed", "5",
             "--out", root / f"train_{name}"])
        run(["eval", *DATA, "--weights", root / f"train_{name}" / "weights.json",
             "--out", root / f"eval_{name}"])
    outputs = [f"{tier}/{name}" for tier in ("relax", "darts")
               for name in ("genotype.json", "checkpoints/last.json", "log.csv")]
    outputs += [f"{stage}_{name}/{out}" for name in ("relax", "every_op")
                for stage, outs in (("train", ("log.csv", "weights.json")),
                                    ("eval", ("metrics.json", "det.csv")))
                for out in outs]
    return {out: sha256(root / out) for out in outputs}


PINNED = {
    "SkylakeX": {
        "relax/genotype.json":
            "4b01dc7b343d692d8f4f1670ce560805f008e14585835e535c2306f9cb5426b5",
        "relax/checkpoints/last.json":
            "31f7b63be70600441e7b25284410534493bd0d4571216113424ca427de07890c",
        "relax/log.csv":
            "59534072e3b121724d48a1e31c53a191502d89433a0d809da2a589a410bc9147",
        "darts/genotype.json":
            "b446122cc76579e5c5348157754832ca475821f1c1ae200efe64aa5bbcd65fbb",
        "darts/checkpoints/last.json":
            "6dd94c88ca2632cca99b5fc137bdd34df2b45268657d305bf8ea3e35df01d9b0",
        "darts/log.csv":
            "ad6b1758737c19804ac9ef5e41e4509fec1907ebbbba4ca3d6d806dc6cd9da34",
        "train_relax/log.csv":
            "0952a077f2995606aca092486f22b9de10090534600763295690c891dc86f58c",
        "train_relax/weights.json":
            "1ef2d8a15f287eaeb8c244c326d886fa386086fdd4a7d6a7a27d5259024e43e6",
        "eval_relax/metrics.json":
            "ada544a2aa313657d0c7226e7475a78740e598350bd80e021d874f32e822a1fa",
        "eval_relax/det.csv":
            "b36696062d8f44f3de1bdcce19221be81585d84aa83ba6c551859c18b4f3a610",
        "train_every_op/log.csv":
            "936c27d3fbfc1eca96932d77725ec80d94ec5a55ecffcf4b34b0b3b5fd09d9b3",
        "train_every_op/weights.json":
            "bf81fbd98466d8728fbe0cd1ec6583de8aa93d49f63cae5a85079a8fe537c951",
        "eval_every_op/metrics.json":
            "9252a46b28cab0b4143d30038737f0855f378815ad623a43b58c89710dba7d46",
        "eval_every_op/det.csv":
            "20871ebdf573ac1e2fcc25357d6bfd54bce2e1988d6b09de1617d3d1b5276fe8",
    },
    "Haswell": {
        "relax/genotype.json":
            "e4395d65823fcc78a920aa15d686949005ab762e825c93ff2f4b1758a7ff1a20",
        "relax/checkpoints/last.json":
            "9d4d0123687230c168f293c0cbf90e236c3f69d1a2a1e121b7802c5bd22f0719",
        "relax/log.csv":
            "ce4b0b7a7f79d12567c407d914308b982c9088ed6f002471280b3624ea4ec627",
        "darts/genotype.json":
            "b446122cc76579e5c5348157754832ca475821f1c1ae200efe64aa5bbcd65fbb",
        "darts/checkpoints/last.json":
            "065b35deb45035bff1fd7fd42a4114ba2cf2771820f203a75b154e16a9121217",
        "darts/log.csv":
            "f7c98dce7874d59b008dbde345ea4965178472af0a3063d380730369b8d6bfe5",
        "train_relax/log.csv":
            "13f7bab3edc157d5b578b7fcb378f2760de3c53308fdf44d8a04317af261a75e",
        "train_relax/weights.json":
            "e27db3a95f050f7663034d0d495be0ec7266d9101baf46ccc22c4f4aacbe4be5",
        "eval_relax/metrics.json":
            "ada544a2aa313657d0c7226e7475a78740e598350bd80e021d874f32e822a1fa",
        "eval_relax/det.csv":
            "ed7547632aa61e6c5ed44058a3d82e8cb65f09098f8fd2b779f75900ea4870a8",
        "train_every_op/log.csv":
            "cb5f3395a123582763006c0ccc91bcec94506e980bd618485edd84660b9074f5",
        "train_every_op/weights.json":
            "b78ed621948d311f1ebeb6a9f2d5c76f1f6754021748ea56b29c43a4d58deb33",
        "eval_every_op/metrics.json":
            "9252a46b28cab0b4143d30038737f0855f378815ad623a43b58c89710dba7d46",
        "eval_every_op/det.csv":
            "f43eba2fd16b29328c3a359094110fb85441e035e5db2827337ff3e082b99aa0",
    },
}


def test_micro_pipeline_outputs_pinned(tmp_path):
    assert run_pipeline(tmp_path) == pinned(PINNED), pin_context()
