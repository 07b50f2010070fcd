"""Span tracer for the traced benchmark run.

The tracer wraps the program's public functions where their callers look
them up (module attributes and class methods), and, in ``Tape.backward``,
every recorded pullback just before the sweep runs it.  Spans stay in
memory as ``[name, start, end, parent]``; ``write`` dumps them as a
Chrome trace (``trace.json.gz``, readable by Perfetto) and a table of
self times, and ``layer_metrics`` folds them into the per-layer metrics
named in ``BENCHMARK.json``.  Nothing is patched outside ``installed()``,
so untraced runs execute the program unmodified.

Span names used as benchmark roots: ``bench.setup`` (one data + network
build), ``bench.search`` (one ``run_search``), ``bench.train`` (one
``train_final`` plus ``save_trained``) and ``bench.eval`` (one
``seqnas eval``).  Per-layer figures are divided by the number of steps
(triple or training steps), evals or set-ups under those roots.
"""

import contextlib
import gzip
import json
import os
import time
from collections import Counter

import numpy as np

# the primitives whose forward and pullback times are reported
REPORTED_OPS = ("conv1d", "depthwise_conv1d", "channel_norm", "relu", "weighted_sum",
                "add", "mul", "max_pool1d", "avg_pool1d", "concat", "softmax", "take_row")
TRACED_PRIMITIVES = REPORTED_OPS + ("scale", "sum_all", "take", "shift_time",
                                    "global_avg_pool", "linear", "log_softmax",
                                    "cross_entropy")
# Node.op tag -> functional name, where they differ
NODE_OP_NAMES = {"multiply": "mul", "scalar-scale": "scale", "sum": "sum_all"}
CANDIDATE_CLASSES = ("Zero", "Identity", "FactorizedReduce", "MaxPool", "AvgPool",
                     "SepConv", "DilConv")
STEP_ROOTS = ("bench.search", "bench.train")

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.relu_inputs = set()
        self.val_batch = None
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def close(self, idx=None):
        """Close the innermost span, or every span down to and including idx."""
        now = time.perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if idx is None or top == idx:
                return

    def top_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        idx = self.stack[-1]
        try:
            yield
        finally:
            self.close(idx)

    def timed(self, name, fn):
        """Wrap fn in a span; name may be a callable evaluated per call."""
        tracer = self
        naming = name if callable(name) else (lambda *a, **k: name)

        def wrapper(*args, **kwargs):
            tracer.open(naming(*args, **kwargs))
            idx = tracer.stack[-1]
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, owner, attr, name):
        self._patch(owner, attr, self.timed(name, getattr(owner, attr)))

    @contextlib.contextmanager
    def installed(self):
        """Patch the program for tracing; restore every attribute on exit."""
        from seqnas import (autograd, cell, cli, data, functional, metrics,
                            network, ops, optim, search, serialize, train)

        try:
            self._install(autograd, cell, cli, data, functional, metrics,
                          network, ops, optim, search, serialize, train)
            yield self
        finally:
            for owner, attr, old in reversed(self._saved):
                setattr(owner, attr, old)
            self._saved.clear()

    def _install(self, autograd, cell, cli, data, functional, metrics,
                 network, ops, optim, search, serialize, train):
        tracer = self
        grad = autograd.grad_enabled

        # functional primitives: forwards split by grad mode
        for op in TRACED_PRIMITIVES:
            self._patch(functional, op,
                        self._primitive(op, getattr(functional, op), autograd))

        # autograd: tape size, then one span per pullback inside the sweep
        tape_backward = autograd.Tape.backward

        def backward(tape, loss):
            nodes = tape.nodes
            tracer.counts["autograd.nodes"] += len(nodes)
            tracer.counts["autograd.tape_bytes"] += sum(n.out.data.nbytes for n in nodes)
            for n in nodes:
                op = NODE_OP_NAMES.get(n.op, n.op)
                n.backward_fn = tracer.timed(f"functional.{op}.bwd", n.backward_fn)
            return tape_backward(tape, loss)

        self._patch(autograd.Tape, "backward", self.timed("autograd.backward", backward))

        # ops: mixed edges and which candidates they evaluate
        self._wrap(ops, "mixed_forward", "ops.mixed_forward")
        for cls_name in CANDIDATE_CLASSES:
            cls = getattr(ops, cls_name)
            self._patch(cls, "forward", self._candidate(cls.forward, cls_name != "Zero"))

        # cells and networks
        self._wrap(cell.SearchCell, "forward", "cell.search_forward")
        self._wrap(cell.DiscreteCell, "forward",
                   lambda *a, **k: "cell.discrete_forward" if grad() else "cell.eval_forward")
        for owner in (cell, network):
            self._wrap(owner, "derive_genotype", "cell.derive")
        self._wrap(network.Supernet, "forward_with_embedding", "network.supernet_forward")
        self._wrap(network.DiscreteNetwork, "forward_with_embedding",
                   lambda *a, **k: "network.discrete_forward" if grad()
                   else "network.eval_forward")

        # optim: the passes of a triple step, the unrolled gradient, updates
        def triple_step(net, train_batch, val_batch, state, lr_w):
            tracer.val_batch = val_batch
            return triple_step_orig(net, train_batch, val_batch, state, lr_w)

        triple_step_orig = search.triple_step
        self._patch(search, "triple_step", self.timed("optim.triple_step", triple_step))
        self._wrap(optim, "_arch_grads_unrolled", "optim.unrolled")

        batch_loss_orig, optim_backward_orig = optim._batch_loss, optim.backward

        def batch_loss(net, batch):
            # a pass runs from its loss forward to the end of its backward
            if any(tracer.spans[i][0] == "optim.unrolled" for i in tracer.stack):
                tracer.open("optim.unrolled_pass")
            elif batch is tracer.val_batch:
                tracer.open("optim.arch_pass")
            else:
                tracer.open("optim.weight_pass")
            return batch_loss_orig(net, batch)

        def optim_backward(loss):
            try:
                return optim_backward_orig(loss)
            finally:
                if (tracer.top_name() or "").endswith("_pass"):
                    tracer.close()

        self._patch(optim, "_batch_loss", batch_loss)
        self._patch(optim, "backward", optim_backward)
        for owner in (optim.SGD, optim.Adam):
            self._wrap(owner, "step", "optim.update")
        for owner in (optim, train):
            self._wrap(owner, "clip_grad_norm", "optim.update")

        # training steps run from reset_tape to the end of the SGD update
        reset_tape_orig, sgd_step = train.reset_tape, optim.SGD.step

        def train_reset_tape():
            tracer.open("train.step")
            return reset_tape_orig()

        def sgd_step_then_close(opt, lr):
            try:
                return sgd_step(opt, lr)
            finally:
                if tracer.top_name() == "train.step":
                    tracer.close()

        self._patch(train, "reset_tape", train_reset_tape)
        self._patch(optim.SGD, "step", sgd_step_then_close)
        self._wrap(train, "drop_path", "train.drop_path")

        # search loop, serialization
        self._wrap(search, "run_search", "search.run_search")
        self._wrap(search, "_write_checkpoint", "search.checkpoint")
        for owner in (search, train):
            self._patch(owner, "save_checkpoint", self._save(owner.save_checkpoint))
        for owner in (search, serialize):
            self._wrap(owner, "load_checkpoint", "serialize.load")
        self._wrap(train, "train_final", "train.train_final")
        self._wrap(train, "save_trained", "train.save_trained")
        self._wrap(cli, "load_trained", "train.load_trained")

        # data
        for name in ("synth_generate", "make_windows", "ingest_csv", "split_for_search"):
            self._wrap(data, name, f"data.{name}")
        self._patch(data, "batches", self._generator("data.batches", data.batches))

        # metrics and the eval command
        for name in ("embed", "score_protocol", "metrics_report", "compute_eer",
                     "frr_at_far", "write_det_csv", "det_curve"):
            self._wrap(metrics, name, f"metrics.{name}")
        self._wrap(cli, "main", "cli.main")

    def _primitive(self, op, fn, autograd):
        tracer, grad = self, autograd.grad_enabled
        fwd, eval_fwd = f"functional.{op}.fwd", f"functional.{op}.eval_fwd"
        naming = lambda *a, **k: fwd if grad() else eval_fwd  # noqa: E731
        if op != "relu":
            return self.timed(naming, fn)

        def relu(x):
            if grad():
                # relu inputs stay referenced by the tape, so ids are unique per tape
                tracer.relu_inputs.add((autograd.tape().id, id(x)))
            return fn(x)

        return self.timed(naming, relu)

    def _candidate(self, forward, useful):
        tracer = self

        def wrapper(module, x):
            if tracer.top_name() == "ops.mixed_forward":
                tracer.counts["ops.candidates"] += 1
                tracer.counts["ops.useful"] += useful
            return forward(module, x)

        return wrapper

    def _save(self, fn):
        tracer = self

        def save(path, *args, **kwargs):
            out = fn(path, *args, **kwargs)
            tracer.counts["serialize.saves"] += 1
            tracer.counts["serialize.bytes"] += os.path.getsize(path)
            return out

        return self.timed("serialize.save", save)

    def _generator(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with tracer.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        return wrapper

    # -- reporting ---------------------------------------------------------------

    def table(self):
        """Per span: names, durations, self times and the names of their root spans."""
        n = len(self.spans)
        names = [s[0] for s in self.spans]
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        root = list(range(n))
        for i in range(n):
            if parent[i] >= 0:
                root[i] = root[parent[i]]
        return names, dur, self_t, [names[r] for r in root]

    def layer_metrics(self, steps, evals, setups, overhead_pct):
        names, dur, self_t, roots = self.table()
        incl, excl, calls = Counter(), Counter(), Counter()
        for name, d, s, r in zip(names, dur, self_t, roots):
            kind = ("step" if r in STEP_ROOTS else "eval" if r == "bench.eval"
                    else "setup" if r == "bench.setup" else None)
            incl[kind, name] += d
            excl[kind, name] += s
            calls[kind, name] += 1
            if kind == "eval" and name.endswith(".eval_fwd"):
                incl["eval", "functional.eval_fwd"] += d

        def per(count, n):
            return count / n if n else 0.0

        c = self.counts
        m = {
            "autograd.nodes_per_step": (per(c["autograd.nodes"], steps), "count"),
            "autograd.tape_mb_per_step": (per(c["autograd.tape_bytes"] / MB, steps), "MB"),
            "autograd.backward_self_s": (per(excl["step", "autograd.backward"], steps), "s"),
        }
        for op in REPORTED_OPS:
            m[f"functional.{op}.fwd_s"] = (per(incl["step", f"functional.{op}.fwd"], steps), "s")
            m[f"functional.{op}.bwd_s"] = (per(incl["step", f"functional.{op}.bwd"], steps), "s")
            m[f"functional.{op}.calls"] = (per(calls["step", f"functional.{op}.fwd"], steps),
                                           "count")
        relu_calls = calls["step", "functional.relu.fwd"]
        m["functional.relu.distinct_input_ratio"] = (per(len(self.relu_inputs), relu_calls),
                                                     "ratio")
        m["functional.eval_fwd_s"] = (per(incl["eval", "functional.eval_fwd"], evals), "s")
        m["ops.mixed_forward_self_s"] = (per(excl["step", "ops.mixed_forward"], steps), "s")
        m["ops.useful_candidate_ratio"] = (per(c["ops.useful"], c["ops.candidates"]), "ratio")
        m["cell.search_forward_self_s"] = (per(excl["step", "cell.search_forward"], steps), "s")
        m["cell.derive_s"] = (per(incl["step", "cell.derive"], steps), "s")
        m["cell.discrete_forward_self_s"] = (
            per(excl["step", "cell.discrete_forward"], steps), "s")
        m["network.supernet_forward_s"] = (
            per(incl["step", "network.supernet_forward"], steps), "s")
        m["network.discrete_forward_s"] = (
            per(incl["step", "network.discrete_forward"], steps), "s")
        m["network.eval_forward_s"] = (per(incl["eval", "network.eval_forward"], evals), "s")
        for key in ("arch_pass", "unrolled", "weight_pass", "update"):
            m[f"optim.{key}_s"] = (per(incl["step", f"optim.{key}"], steps), "s")
        m["search.checkpoint_s"] = (per(incl["step", "search.checkpoint"], steps), "s")
        m["search.loop_self_s"] = (per(excl["step", "search.run_search"], steps), "s")
        m["serialize.save_s"] = (per(incl["step", "serialize.save"], steps), "s")
        m["serialize.checkpoint_mb"] = (per(c["serialize.bytes"] / MB, c["serialize.saves"]), "MB")
        m["serialize.load_s"] = (per(incl["eval", "serialize.load"], evals), "s")
        m["train.step_s"] = (per(incl["step", "train.step"], steps), "s")
        m["train.drop_path_s"] = (per(incl["step", "train.drop_path"], steps), "s")
        m["metrics.embed_s"] = (per(incl["eval", "metrics.embed"], evals), "s")
        m["metrics.score_protocol_s"] = (per(incl["eval", "metrics.score_protocol"], evals), "s")
        m["metrics.report_s"] = (per(incl["eval", "metrics.metrics_report"], evals), "s")
        m["metrics.det_curve_s"] = (per(incl["eval", "metrics.det_curve"], evals), "s")
        m["metrics.det_curve_calls"] = (per(calls["eval", "metrics.det_curve"], evals), "count")
        m["metrics.write_det_csv_s"] = (per(incl["eval", "metrics.write_det_csv"], evals), "s")
        m["data.synth_generate_s"] = (per(incl["setup", "data.synth_generate"], setups), "s")
        m["data.make_windows_s"] = (per(incl["setup", "data.make_windows"], setups), "s")
        m["data.ingest_csv_s"] = (per(incl["eval", "data.ingest_csv"], evals), "s")
        m["data.batches_s"] = (per(incl["step", "data.batches"], steps), "s")
        m["cli.eval_self_s"] = (per(excl["eval", "cli.main"], evals), "s")
        m["cli.eval_s"] = (per(incl["eval", "cli.main"], evals), "s")
        m["trace.overhead_pct"] = (overhead_pct, "%")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}

    def write(self, out_dir):
        """trace.json.gz (Chrome trace events) and self_times.txt; returns the table text."""
        os.makedirs(out_dir, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": round((start - t0) * 1e6, 3), "dur": round((end - start) * 1e6, 3),
                   "args": {"id": i, "parent": parent}}
                  for i, (name, start, end, parent) in enumerate(self.spans)]
        with gzip.open(os.path.join(out_dir, "trace.json.gz"), "wt", compresslevel=1) as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

        names, dur, self_t, _ = self.table()
        agg = {}
        for name, d, s in zip(names, dur, self_t):
            row = agg.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += d
            row[2] += s
        total = sum(r[2] for r in agg.values()) or 1.0
        lines = [f"{'span':<36}{'calls':>9}{'incl_s':>11}{'self_s':>11}{'self%':>8}"]
        for name, (n, d, s) in sorted(agg.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:<36}{n:>9}{d:>11.4f}{s:>11.4f}{100 * s / total:>8.2f}")
        text = "\n".join(lines) + "\n"
        with open(os.path.join(out_dir, "self_times.txt"), "w") as fh:
            fh.write(text)
        return text
