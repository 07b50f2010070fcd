"""Benchmark of the seqnas engine: search, final training and verification.

    python3 bench/run.py --workload search-first-order --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

- ``search-first-order``: ``run_search``, relax tier, ``xi = 0``, one epoch
  (7 triple steps and a checkpoint) of the desk-scale synthetic set;
- ``search-unrolled``: the same with ``xi = 0.01``;
- ``train-verify``: ``train_final`` of a fixed genotype on the desk-scale
  set, ``save_trained``, then ``seqnas eval --data`` on a 100-subject CSV.

A run builds the inputs from ``--seed``, sets up ``SETUPS`` times, then
runs whole rounds (one round per ``NOMINAL_ROUND_S`` of ``--seconds``, at
least one) and checks every round's outputs against the oracles in
``oracles.py``.  The last line of stdout is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
``tracing.py`` with ``--trace 1``.  Outputs go to ``.bench_runs/`` at the
repository root.  BLAS threads are set to the number of usable cores
before numpy loads.
"""

import argparse
import contextlib
import csv
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = os.path.join(ROOT, ".bench_runs")
SETUPS = 5
# wall time of one round on the 2-core reference machine; a run makes
# seconds // NOMINAL_ROUND_S rounds, so the work is fixed for a given
# --seconds and never depends on how fast the program happens to be
NOMINAL_ROUND_S = {"search-first-order": 14, "search-unrolled": 36, "train-verify": 32}
# 10 epochs gave desk-scale EERs of 0.05-0.19 over seeds 1-30; criterion 7's
# untrained band is [0.35, 0.65]
DESK_EER_MAX = 0.25
TRAIN_EPOCHS = 10
BATCH = 32
INIT_CHANNELS = 8


def clock():
    return time.perf_counter()


class SearchWorkload:
    """One-epoch relaxed search on the desk-scale set."""

    def __init__(self, seed, xi):
        self.seed, self.xi = seed, xi

    def prepare(self, run_dir):
        pass

    def config(self):
        return S.SearchRunConfig(
            epochs=1, train_batch=BATCH, val_batch=BATCH, seed=self.seed, tier="relax",
            init_channels=INIT_CHANNELS, optimizer=S.OptimizerConfig(xi=self.xi))

    def build(self):
        self.dataset = desk_dataset(self.seed)
        cfg = self.config()
        train, val = D.split_for_search(self.dataset.session_view(1), cfg.split_ratio, cfg.seed)
        net = N.Supernet(cfg.supernet_config(self.dataset.num_classes,
                                             self.dataset.windows.shape[1]), seed=cfg.seed)
        S.make_triple_state(net, cfg.optimizer)
        sizes = [[min(BATCH, n - i) for i in range(0, n, BATCH)]
                 for n in (len(train), len(val))]
        self.steps = max(len(s) for s in sizes)
        self.windows = sum(sizes[0][s % len(sizes[0])] + sizes[1][s % len(sizes[1])]
                           for s in range(self.steps))
        self.ops, self.evals = self.steps, 0

    def run_round(self, out, tracer):
        with root_span(tracer, "bench.search"):
            t0 = clock()
            S.run_search(self.config(), self.dataset, out_dir=out)
            wall = clock() - t0
        return {"loop_s": wall, "round_s": wall, "windows": self.windows}

    def check(self, out):
        with open(os.path.join(out, "genotype.json")) as fh:
            genotype = json.load(fh)
        with open(os.path.join(out, "checkpoints", "last.json")) as fh:
            checkpoint = json.load(fh)
        O.check_genotype(genotype, checkpoint)
        with open(os.path.join(out, "log.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        O.require([int(r["step"]) for r in rows] == list(range(self.steps)),
                  f"log.csv step ids {[r['step'] for r in rows]}, expected 0..{self.steps - 1}")
        O.require(all(math.isfinite(float(r[k])) for r in rows
                      for k in ("train_loss", "val_loss")), "log.csv has a non-finite loss")


class TrainVerifyWorkload:
    """Final training of a fixed genotype, then verification at population scale."""

    def __init__(self, seed):
        self.seed = seed

    def prepare(self, run_dir):
        self.inputs = os.path.join(run_dir, "inputs")
        os.makedirs(self.inputs)
        self.genotype_path = os.path.join(self.inputs, "genotype.json")
        with open(self.genotype_path, "w") as fh:
            json.dump(I.genotype_doc(self.seed), fh, indent=2, sort_keys=True)
        self.csv_path = os.path.join(self.inputs, "population.csv")
        I.write_population_csv(self.csv_path, self.seed, D.synth_generate)
        O.self_test()

    def build(self):
        self.dataset = desk_dataset(self.seed)
        with open(self.genotype_path) as fh:
            self.genotype = C.Genotype.from_json(fh.read())
        self.sup_cfg = N.SupernetConfig(
            num_cells=len(self.genotype.cells),
            layout=tuple(c.kind for c in self.genotype.cells),
            init_channels=INIT_CHANNELS, num_classes=self.dataset.num_classes,
            input_channels=self.dataset.windows.shape[1],
            independent_alpha=True, use_gates=False)
        N.instantiate_discrete(self.genotype, self.sup_cfg, seed=self.seed)
        n = len(self.dataset.session_view(1))
        self.windows = n * TRAIN_EPOCHS
        self.steps = D.num_batches(n, BATCH) * TRAIN_EPOCHS
        self.evals = 1
        self.ops = self.steps + self.evals

    def run_round(self, out, tracer):
        net = N.instantiate_discrete(self.genotype, self.sup_cfg, seed=self.seed)
        config = T.TrainConfig(epochs=TRAIN_EPOCHS, batch=BATCH, seed=self.seed)
        weights = os.path.join(out, "weights.json")
        with root_span(tracer, "bench.train"):
            t0 = clock()
            history = T.train_final(net, self.dataset, config, out_dir=os.path.join(out, "train"))
            t_train = clock() - t0
            T.save_trained(weights, net, self.genotype, config, history)
        argv = ["eval", "--data", self.csv_path, "--weights", weights,
                "--out", os.path.join(out, "eval")]
        with root_span(tracer, "bench.eval"), contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        wall = clock() - t0
        if code != 0:
            raise RuntimeError(f"seqnas eval exited {code}")
        return {"loop_s": t_train, "round_s": wall, "windows": self.windows}

    def check(self, out):
        net, _, _ = T.load_trained(os.path.join(out, "weights.json"))
        pop = D.make_windows(D.ingest_csv(self.csv_path), I.DESK["window"], I.DESK["stride"])
        s1, s2 = pop.sessions == 1, pop.sessions == 2
        emb = embeddings(net, pop.windows)
        genuine, impostor = O.centroid_scores(emb[s1], pop.labels[s1], emb[s2], pop.labels[s2])
        with open(os.path.join(out, "eval", "metrics.json")) as fh:
            doc = json.load(fh)
        O.check_metrics(doc, O.score_report(genuine, impostor))
        probes, subjects = int(s2.sum()), len(set(pop.labels[s2].tolist()))
        O.require(doc["n_genuine"] == probes and doc["n_impostor"] == probes * (subjects - 1),
                  f"{doc['n_genuine']} genuine / {doc['n_impostor']} impostor scores for "
                  f"{probes} probes of {subjects} subjects")
        O.check_det_csv(os.path.join(out, "eval", "det.csv"), genuine, impostor)

        batch = M.embed(net, pop.windows[:256])
        for i in (0, 101, 255):
            alone = M.embed(net, pop.windows[i : i + 1])[0]
            O.require(bool(abs(alone - batch[i]).max() <= 1e-6),
                      f"window {i} embeds differently alone and in a batch of 256")

        desk = self.dataset
        d1, d2 = desk.sessions == 1, desk.sessions == 2
        demb = embeddings(net, desk.windows)
        _, far, frr = O.det(*O.centroid_scores(demb[d1], desk.labels[d1],
                                               demb[d2], desk.labels[d2]))
        desk_eer = O.eer(far, frr)
        O.require(desk_eer <= DESK_EER_MAX,
                  f"trained desk-scale EER {desk_eer:.3f} is not below {DESK_EER_MAX}")


WORKLOADS = {
    "search-first-order": lambda seed: SearchWorkload(seed, xi=0.0),
    "search-unrolled": lambda seed: SearchWorkload(seed, xi=0.01),
    "train-verify": TrainVerifyWorkload,
}


def desk_dataset(seed):
    d = I.DESK
    records = D.synth_generate(d["subjects"], d["sessions"], d["length"], d["channels"],
                               seed=seed)
    return D.make_windows(records, d["window"], d["stride"])


def embeddings(net, windows, batch=256):
    """Unit-norm pooled features, computed here rather than by seqnas.metrics."""
    net.eval()
    rows = []
    with A.no_grad():
        for i in range(0, len(windows), batch):
            x = A.Tensor(windows[i : i + batch].astype(A.default_dtype()))
            rows.append(net.forward_with_embedding(x)[1].data.astype("float64"))
    return O.unit_rows(np.concatenate(rows))


def root_span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, name, seconds, trace, import_s):
    run_dir = os.path.join(RUNS, name + ("-trace" if trace else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    workload.prepare(run_dir)

    tracer = tracing.Tracer() if trace else None
    installed = tracer.installed() if trace else contextlib.nullcontext()
    builds = []
    with installed:
        for _ in range(SETUPS):
            with root_span(tracer, "bench.setup"):
                t0 = clock()
                workload.build()
                builds.append(clock() - t0)

    rounds = max(1, int(seconds // NOMINAL_ROUND_S[name]))
    # a traced run first makes one untraced round to measure tracing overhead
    plan = [False] + [True] * rounds if trace else [False] * rounds
    attempted = failed = 0
    correct = True
    done = []
    for i, traced in enumerate(plan):
        out = os.path.join(run_dir, f"round{i}")
        attempted += workload.ops
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                rec = workload.run_round(out, tracer if traced else None)
            workload.check(out)
        except O.CheckFailed as exc:
            print(f"round {i}: check failed: {exc}", file=sys.stderr)
            failed += workload.ops
            correct = False
            continue
        except Exception:  # a raising round counts as failed; the run goes on
            traceback.print_exc()
            failed += workload.ops
            continue
        rec["traced"] = traced
        done.append(rec)
        if i > 0:
            shutil.rmtree(os.path.join(run_dir, f"round{i - 1}"), ignore_errors=True)

    timed = [r for r in done if not r["traced"]]
    if not timed or (trace and len(timed) == len(done)):
        print("no round completed; no metrics to report", file=sys.stderr)
        return None

    if trace:
        traced_s = statistics.median(r["round_s"] for r in done if r["traced"])
        overhead = 100.0 * (traced_s / timed[0]["round_s"] - 1.0)
        n_traced = sum(1 for r in done if r["traced"])
        metrics = tracer.layer_metrics(n_traced * workload.steps, n_traced * workload.evals,
                                       SETUPS, overhead)
        table = tracer.write(run_dir)
        print("".join(table.splitlines(True)[:30]), file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(builds), "unit": "s"},
            "windows_per_s": {"value": sum(r["windows"] for r in timed)
                              / sum(r["loop_s"] for r in timed), "unit": "windows/s"},
            "round_s": {"value": statistics.median(r["round_s"] for r in timed), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description="seqnas benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    global np, A, C, D, M, N, S, T, cli, I, O, tracing
    t0 = clock()
    try:
        import numpy as np
        from seqnas import autograd as A, cell as C, cli, data as D, metrics as M
        from seqnas import network as N, search as S, train as T
    except ImportError as exc:
        print(f"cannot import seqnas from {src}: {exc}", file=sys.stderr)
        return 2
    import_s = clock() - t0
    if not os.path.abspath(A.__file__).startswith(src + os.sep):
        print(f"seqnas was imported from {A.__file__}, not from {src}", file=sys.stderr)
        return 2
    import inputs as I
    import oracles as O
    import tracing

    result = measure(WORKLOADS[args.workload](args.seed), args.workload,
                     args.seconds, bool(args.trace), import_s)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
