"""The traced benchmark patches methods in the class bodies that define them,
and module functions where their callers look them up.

If a method it wraps moves to a base class, or a search step stops reaching
``optim._batch_loss`` and ``optim.backward`` through their module, ``--trace 1``
breaks or misattributes time; these tests make that visible without running
a workload.
"""

import os
from collections import Counter

import numpy as np
import pytest

from seqnas import cell, metrics, network, search, train
from seqnas.cell import CellGenotype, Genotype
from seqnas.data import make_windows, synth_generate
from seqnas.optim import OptimizerConfig, make_triple_state

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_trace_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    owned = [(cell.SearchCell, "forward"), (cell.DiscreteCell, "forward"),
             (network.Supernet, "forward_with_embedding"),
             (network.DiscreteNetwork, "forward_with_embedding")]
    before = {key: key[0].__dict__[key[1]] for key in owned}
    tracer = tracing.Tracer()
    with tracer.installed():
        saved = list(tracer._saved)
        for owner, attr in owned:
            assert owner.__dict__[attr] is not before[owner, attr]
    assert saved and not tracer._saved
    originals = {}
    for owner, attr, old in saved:  # an attribute patched twice keeps its first original
        originals.setdefault((owner, attr), old)
    for (owner, attr), old in originals.items():
        assert owner.__dict__[attr] is old, f"{owner.__name__}.{attr} not restored"
    for (owner, attr), old in before.items():
        assert owner.__dict__[attr] is old


@pytest.mark.parametrize("xi, passes", [
    (0.0, {"optim.arch_pass": 1, "optim.weight_pass": 1}),
    (0.01, {"optim.unrolled_pass": 4, "optim.weight_pass": 1}),
])
def test_trace_attributes_every_pass_of_a_triple_step(monkeypatch, xi, passes):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    net = network.Supernet(network.SupernetConfig(
        num_cells=2, layout=("normal", "reduction"), init_channels=2,
        num_classes=2, input_channels=2), seed=0)
    state = make_triple_state(net, OptimizerConfig(xi=xi))
    r = np.random.default_rng(1)
    train_b = (r.standard_normal((2, 2, 8)), np.array([0, 1]))
    val_b = (r.standard_normal((2, 2, 8)), np.array([1, 0]))
    tracer = tracing.Tracer()
    with tracer.installed():
        search.triple_step(net, train_b, val_b, state, 0.01)

    spans = tracer.spans
    assert Counter(s[0] for s in spans if s[0].endswith("_pass")) == passes
    assert all(s[2] >= s[1] for s in spans)  # every span was closed
    unrolled = [i for i, s in enumerate(spans) if s[0] == "optim.unrolled"]
    assert len(unrolled) == (xi > 0)
    for s in spans:
        if s[0] == "optim.unrolled_pass":
            parent = s[3]
            while parent >= 0 and spans[parent][0] != "optim.unrolled":
                parent = spans[parent][3]
            assert parent == unrolled[0]


def test_trace_covers_final_training_and_embedding(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    ds = make_windows(synth_generate(3, sessions=2, length=128, seed=0), 32, 32)
    nodes = [[("sep_conv_3", 0), ("skip_connect", 1)] for _ in range(4)]
    genotype = Genotype(cells=[CellGenotype("normal", nodes),
                               CellGenotype("reduction", nodes)]).validate()
    net = network.instantiate_discrete(genotype, network.SupernetConfig(
        num_cells=2, layout=("normal", "reduction"), init_channels=2,
        num_classes=ds.num_classes, input_channels=2, use_gates=False), seed=0)
    config = train.TrainConfig(epochs=2, batch=8, drop_path_p=0.5)
    tracer = tracing.Tracer()
    with tracer.installed():
        train.train_final(net, ds, config)
        metrics.embed(net, ds.windows, 8)

    names = {s[0] for s in tracer.spans}
    for name in ("train.step", "train.drop_path", "cell.discrete_forward",
                 "cell.eval_forward", "functional.channel_norm.fwd",
                 "functional.channel_norm.eval_fwd", "functional.channel_norm.bwd"):
        assert name in names, name
    assert not tracer.stack
    assert all(s[2] >= s[1] for s in tracer.spans)  # every span was closed


def test_trace_times_every_pullback_inside_the_sweep(monkeypatch):
    # the tracer times each node.backward_fn the sweep calls; a sweep that stopped
    # calling it would zero every functional.*.bwd_s of the benchmark
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    net = network.Supernet(network.SupernetConfig(
        num_cells=2, layout=("normal", "reduction"), init_channels=2,
        num_classes=2, input_channels=2), seed=0)
    state = make_triple_state(net, OptimizerConfig(xi=0.0))
    r = np.random.default_rng(1)
    train_b = (r.standard_normal((2, 2, 8)), np.array([0, 1]))
    val_b = (r.standard_normal((2, 2, 8)), np.array([1, 0]))
    tracer = tracing.Tracer()
    with tracer.installed():
        search.triple_step(net, train_b, val_b, state, 0.01)

    closed = {s[0] for s in tracer.spans if s[2] >= s[1]}
    for op in ("conv1d", "depthwise_conv1d", "channel_norm", "weighted_sum", "add"):
        assert f"functional.{op}.bwd" in closed, op
