"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the program is made here from one seed:

- the desk-scale synthetic set (the one acceptance criterion 7 uses:
  20 subjects, 2 sessions, 1280 samples, 2 channels, windows of 128 with
  stride 64), described by ``DESK`` and generated inside the program by
  ``seqnas.data.synth_generate``;
- the population-scale CSV for ``train-verify``: ``POP_SUBJECTS``
  synthetic subjects, 2 sessions, with short NaN gaps that the CSV
  ingest interpolates (every gap is at most ``MAX_GAP`` samples and
  lies strictly inside its record);
- the fixed genotype that ``train-verify`` trains: every cell uses each
  of the seven non-``none`` ops once plus ``EXTRA_OP``, so the op mix,
  and with it the cost, is the same for every seed; one cell prunes one
  of its inputs.

Regenerate the CSV and the genotype of a seed with

    python3 bench/inputs.py --seed 7 --out bench-inputs
"""

import argparse
import json
import os
import sys

import numpy as np

DESK = {"subjects": 20, "sessions": 2, "length": 1280, "channels": 2,
        "window": 128, "stride": 64}
POP_SUBJECTS = 100
MAX_GAP = 50  # samples; 50 ms at the CSV schema's 1000 Hz default
GAPS_PER_RECORD = (1, 3)
LAYOUT = ("normal", "reduction") * 3
NON_NONE_OPS = ("skip_connect", "max_pool_3", "avg_pool_3", "sep_conv_3",
                "sep_conv_5", "dil_conv_3", "dil_conv_5")
EXTRA_OP = "sep_conv_3"
VOCAB = ("none",) + NON_NONE_OPS


def _rng(seed, stream):
    return np.random.default_rng([int(seed), 0xBE4C, stream])


def genotype_doc(seed):
    """A genotype JSON document using every non-none op; one input pruned."""
    rng = _rng(seed, 1)
    pruned_cell = int(rng.integers(len(LAYOUT)))
    pruned_input = int(rng.integers(2))
    cells = []
    for ci, kind in enumerate(LAYOUT):
        ops = list(NON_NONE_OPS) + [EXTRA_OP]
        ops = [ops[i] for i in rng.permutation(len(ops))]
        nodes = []
        for j in range(4):
            frm = sorted(int(f) for f in rng.choice(j + 2, size=2, replace=False))
            nodes.append([{"op": ops[2 * j], "from": frm[0]},
                          {"op": ops[2 * j + 1], "from": frm[1]}])
        gates = {"s0": 1.0, "s1": 1.0, "pruned": [False, False]}
        if ci == pruned_cell:
            low = 0.1
            gates["s0" if pruned_input == 0 else "s1"] = low
            gates["s1" if pruned_input == 0 else "s0"] = 2.0 - low
            gates["pruned"][pruned_input] = True
        cells.append({"kind": kind, "nodes": nodes, "gates": gates})
    return {"cells": cells, "vocab": list(VOCAB),
            "meta": {"seed": int(seed), "source": "bench/inputs.py"}}


def write_population_csv(path, seed, synth_generate):
    """Write the population CSV (subject, session, ch0, ch1) for a seed."""
    records = synth_generate(POP_SUBJECTS, DESK["sessions"], DESK["length"],
                             DESK["channels"], seed=seed)
    rng = _rng(seed, 2)
    lines = [",".join(["subject", "session"] + records[0].channel_names)]
    for rec in records:
        cols = np.stack([rec.channels[c] for c in rec.channel_names], axis=1)
        # one gap per equal slot of the record, never touching a slot edge,
        # so gaps neither merge into a run longer than MAX_GAP nor reach
        # either end of the record (both would split it instead)
        k = int(rng.integers(GAPS_PER_RECORD[0], GAPS_PER_RECORD[1] + 1))
        slot = len(cols) // k
        for i in range(k):
            width = int(rng.integers(1, MAX_GAP + 1))
            start = i * slot + int(rng.integers(1, slot - width))
            cols[start : start + width] = np.nan
        prefix = f"{rec.subject_id},{rec.session_id},"
        for sample in cols:
            lines.append(prefix + ",".join("" if v != v else repr(float(v))
                                           for v in sample))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from seqnas.data import synth_generate

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "genotype.json"), "w") as fh:
        json.dump(genotype_doc(args.seed), fh, indent=2, sort_keys=True)
    write_population_csv(os.path.join(args.out, "population.csv"), args.seed,
                         synth_generate)
    print(f"wrote genotype.json and population.csv for seed {args.seed} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
