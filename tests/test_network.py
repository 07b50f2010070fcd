import hashlib
import math

import numpy as np
import pytest

from seqnas import functional as F
from seqnas.autograd import Tensor, backward, reset_tape, tape, using_dtype
from seqnas.cell import NUM_EDGES, CellGenotype, Genotype
from seqnas.network import (DiscreteNetwork, NetworkError, Supernet,
                            SupernetConfig, _check_temporal, gate_coefficients,
                            instantiate_discrete)
from seqnas.ops import OP_VOCAB, FactorizedReduce
from seqnas.serialize import CheckpointError, load_arrays
from helpers import finite_difference_check

rng = np.random.default_rng(23)


def small_config(**kw):
    base = dict(num_cells=2, layout=("normal", "reduction"), init_channels=4,
                num_classes=3, input_channels=2)
    base.update(kw)
    return SupernetConfig(**base)


def test_layout_validation():
    with pytest.raises(NetworkError):
        SupernetConfig(num_cells=3, layout=("normal", "reduction"))
    with pytest.raises(NetworkError):
        SupernetConfig(num_cells=1, layout=("weird",))


def test_three_reductions_leave_temporal_length_eight():
    layout = ("normal", "reduction") * 3
    lengths, final = _check_temporal(layout, 64)
    assert lengths == [64, 64, 32, 32, 16, 16]
    assert final == 8

    cfg = SupernetConfig(num_cells=6, layout=layout, init_channels=4,
                         num_classes=4, input_channels=2)
    net = Supernet(cfg, seed=0)
    x = rng.standard_normal((2, 2, 64)).astype(np.float32)
    logits, pooled = net.forward_with_embedding(x)
    reset_tape()
    assert logits.shape == (2, 4)
    assert pooled.shape == (2, net.feature_dim)
    assert np.all(np.isfinite(logits.data))


def test_temporal_underflow_names_offending_cell():
    layout = ("reduction",) * 3
    with pytest.raises(NetworkError, match="cell 2"):
        _check_temporal(layout, 4)


def test_gate_coefficients_examples():
    assert gate_coefficients(np.zeros(2)) == (1.0, 1.0)
    g = gate_coefficients(np.array([math.log(9.0), 0.0]))
    assert abs(g[0] - 1.8) < 1e-9 and abs(g[1] - 0.2) < 1e-9
    g = gate_coefficients(np.array([3.0, 0.0]))
    assert abs(g[0] - 1.9052) < 1e-4 and abs(g[1] - 0.0949) < 1e-4
    assert abs(g[0] + g[1] - 2.0) < 1e-6


def test_gate_sum_matches_scale_every_forward():
    net = Supernet(small_config(use_gates=True), seed=1)
    for p, val in zip(net.gate_parameters(), ((0.5, -1.0), (2.0, 0.3))):
        p.data[:] = val
    x = rng.standard_normal((2, 2, 16)).astype(np.float32)
    net.forward(x)
    reset_tape()
    assert len(net.last_gates) == 2
    for g0, g1 in net.last_gates:
        assert abs(g0 + g1 - 2.0) < 1e-6


def test_gates_off_equals_gates_on_with_equal_beta():
    x = rng.standard_normal((2, 2, 16)).astype(np.float32)
    on = Supernet(small_config(use_gates=True), seed=3)
    off = Supernet(small_config(use_gates=False), seed=3)
    # same seed, same construction order: identical weights
    lo = on.forward(x)
    reset_tape()
    lf = off.forward(x)
    reset_tape()
    assert np.allclose(lo.data, lf.data, atol=1e-6)


def test_literal_sum_to_one_gate_mode():
    net = Supernet(small_config(use_gates=True, gate_scale=1.0), seed=3)
    net.forward(rng.standard_normal((2, 2, 16)).astype(np.float32))
    reset_tape()
    for g0, g1 in net.last_gates:
        assert abs(g0 + g1 - 1.0) < 1e-6


def test_beta_gradients_match_finite_differences():
    with using_dtype(np.float64):
        cfg = small_config(use_gates=True)
        net = Supernet(cfg, seed=5)
        x0 = rng.standard_normal((2, 2, 8))
        labels = np.array([0, 2])

        def loss(t):
            net._betas[0] = t["b0"]
            net._betas[1] = t["b1"]
            return F.cross_entropy(net.forward(x0), labels)

        finite_difference_check(
            loss, {"b0": np.array([0.3, -0.2]), "b1": np.array([-0.5, 0.1])},
            rel_tol=1e-4)
        reset_tape()


def test_alpha_tensor_census_per_tier():
    relax = Supernet(small_config(num_cells=6,
                                  layout=("normal", "reduction") * 3,
                                  independent_alpha=True, use_gates=True), seed=0)
    assert len(relax.arch_parameters()) == 6
    assert len({id(a) for a in relax.arch_parameters()}) == 6
    assert len(relax.gate_parameters()) == 6

    shared = Supernet(small_config(num_cells=6,
                                   layout=("normal", "reduction") * 3,
                                   independent_alpha=False, use_gates=False), seed=0)
    assert len(shared.arch_parameters()) == 2
    assert shared.cell_alpha[0] is shared.cell_alpha[2] is shared.cell_alpha[4]
    assert shared.cell_alpha[1] is shared.cell_alpha[3] is shared.cell_alpha[5]
    assert shared.gate_parameters() == []


def test_shared_alpha_derives_identical_normal_entries():
    net = Supernet(small_config(num_cells=6, layout=("normal", "reduction") * 3,
                                independent_alpha=False, use_gates=False), seed=2)
    for a in net.arch_parameters():
        a.data[...] = rng.standard_normal(a.shape)
    g = net.derive()
    normal = [c.nodes for c in g.cells if c.kind == "normal"]
    assert normal[0] == normal[1] == normal[2]


def test_arch_params_never_appear_in_weight_list():
    net = Supernet(small_config(use_gates=True), seed=0)
    weight_ids = {id(p) for p in net.weight_parameters()}
    for a in net.arch_parameters() + net.gate_parameters():
        assert id(a) not in weight_ids


def test_state_arrays_roundtrip():
    net = Supernet(small_config(use_gates=True), seed=0)
    ref = {k: v.copy() for k, v in net.state_arrays().items()}
    other = Supernet(small_config(use_gates=True), seed=99)
    load_arrays(other.state_arrays(), ref)
    for k, v in other.state_arrays().items():
        assert np.array_equal(v, ref[k]), k
    with pytest.raises(CheckpointError, match="mismatch"):
        load_arrays(other.state_arrays(), {"stem.w": ref["stem.w"]})


def test_load_checks_every_shape_before_copying_any():
    net = Supernet(small_config(use_gates=True), seed=0)
    before = {k: v.copy() for k, v in net.state_arrays().items()}
    saved = {k: v + 1 for k, v in Supernet(small_config(use_gates=True), seed=99)
             .state_arrays().items()}
    last = list(saved)[-1]
    saved[last] = np.zeros(saved[last].size + 1, dtype=saved[last].dtype)
    with pytest.raises(CheckpointError, match="mismatch"):
        load_arrays(net.state_arrays(), saved)
    for k, v in net.state_arrays().items():
        assert np.array_equal(v, before[k]), k


def _distinct_genotype(num_cells=6):
    kinds = ("normal", "reduction") * (num_cells // 2)
    ops = [o for o in OP_VOCAB if o != "none"]
    cells = []
    for i in range(num_cells):
        op = ops[i % len(ops)]
        nodes = [[(op, 0), (op, 1)] for _ in range(4)]
        cells.append(CellGenotype(kind=kinds[i], nodes=nodes))
    return Genotype(cells=list(cells)).validate()


def test_discrete_instantiation_structurally_distinct_cells():
    net = Supernet(small_config(num_cells=6, layout=("normal", "reduction") * 3,
                                independent_alpha=True), seed=0)
    # force distinct saturated patterns per cell
    for i, a in enumerate(net.arch_parameters()):
        a.data[...] = 0.0
        a.data[:, 1 + (i % 7)] = 30.0
    g = net.derive()
    entries = [c.nodes for c in g.cells]
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            assert entries[i] != entries[j]
    dn = instantiate_discrete(g, net.config, seed=0)
    assert len(dn.cells) == 6


def test_discrete_same_seed_bit_identical():
    g = _distinct_genotype()
    cfg = small_config(num_cells=6, layout=("normal", "reduction") * 3)
    a = instantiate_discrete(g, cfg, seed=7)
    b = instantiate_discrete(g, cfg, seed=7)
    for k, v in a.state_arrays().items():
        assert np.array_equal(v, b.state_arrays()[k]), k
    c = instantiate_discrete(g, cfg, seed=8)
    assert any(not np.array_equal(v, c.state_arrays()[k])
               for k, v in a.state_arrays().items())


def test_discrete_forward_and_embedding():
    g = _distinct_genotype(2)
    cfg = small_config()
    net = instantiate_discrete(g, cfg, seed=0)
    net.eval()
    x = rng.standard_normal((3, 2, 16)).astype(np.float32)
    logits, pooled = net.forward_with_embedding(x)
    assert logits.shape == (3, 3)
    assert pooled.shape == (3, net.feature_dim)


def test_network_decides_the_norm_mode():
    # the supernet normalizes with batch statistics only; the discrete
    # network also updates running statistics in a training-mode forward
    def buffers(net):
        arrays = net.state_arrays()
        means = [v for k, v in arrays.items() if k.endswith(".running_mean")]
        variances = [v for k, v in arrays.items() if k.endswith(".running_var")]
        assert means and len(means) == len(variances)
        return means, variances

    x = rng.standard_normal((3, 2, 16)).astype(np.float32)
    supernet = Supernet(small_config(), seed=0)
    discrete = instantiate_discrete(_distinct_genotype(2), small_config(), seed=0)
    for net in (supernet, discrete):
        net.train(True)
        net.forward(x)
        reset_tape()
    means, variances = buffers(supernet)
    assert all(np.all(m == 0.0) for m in means)
    assert all(np.all(v == 1.0) for v in variances)
    means, variances = buffers(discrete)
    assert all(np.any(m != 0.0) for m in means)
    assert all(np.any(v != 1.0) for v in variances)


def test_discrete_vocab_and_count_mismatch_errors():
    g = _distinct_genotype(2)
    with pytest.raises(NetworkError, match="cells"):
        instantiate_discrete(g, small_config(num_cells=6,
                                             layout=("normal", "reduction") * 3))
    bad = Genotype(cells=g.cells, vocab=tuple(reversed(OP_VOCAB)))
    with pytest.raises(NetworkError, match="vocabulary"):
        instantiate_discrete(bad, small_config())
    with pytest.raises(NetworkError, match="cell kinds disagree"):
        instantiate_discrete(g, small_config(layout=("reduction", "normal")))


def test_all_skip_genotype_parameter_census():
    """Identity edges carry no weights; the census is purely projections."""
    cells = []
    for kind in ("normal", "reduction"):
        nodes = [[("skip_connect", 0), ("skip_connect", 1)] for _ in range(4)]
        cells.append(CellGenotype(kind=kind, nodes=nodes))
    g = Genotype(cells=cells).validate()
    cfg = small_config()
    net = instantiate_discrete(g, cfg, seed=0)

    c = cfg.init_channels

    def relu_conv_norm(c_in, c_out):
        return c_out * c_in * 1 + 2 * c_out

    def fact_reduce(c_in, c_out):
        return (c_out // 2) * c_in + (c_out - c_out // 2) * c_in + 2 * c_out

    expected = (cfg.input_channels * c * 3 + 2 * c)   # stem conv + norm
    # cell 0 (normal): pre0, pre1 from stem width c -> c; identity edges: 0
    expected += relu_conv_norm(c, c) * 2
    # cell 1 (reduction): c_curr = 2c; pre from (c, 4c); 8 input edges are
    # strided skip projections at 2c channels
    expected += relu_conv_norm(c, 2 * c) + relu_conv_norm(4 * c, 2 * c)
    expected += 8 * fact_reduce(2 * c, 2 * c)
    # head: 4 * 2c -> classes
    expected += cfg.num_classes * (4 * 2 * c) + cfg.num_classes

    assert sum(p.size for p in net.parameters()) == expected


def test_pruned_input_feeds_zeros():
    nodes = [[("sep_conv_3", 0), ("skip_connect", 1)] for _ in range(4)]
    base = Genotype(cells=[CellGenotype("normal", nodes)]).validate()
    pruned = Genotype(cells=[CellGenotype("normal", nodes, pruned=(True, False))]).validate()
    cfg = small_config(num_cells=1, layout=("normal",))
    x = rng.standard_normal((2, 2, 16)).astype(np.float32)

    a = instantiate_discrete(base, cfg, seed=3)
    b = instantiate_discrete(pruned, cfg, seed=3)
    a.eval(), b.eval()
    la = a.forward(x)
    reset_tape()
    lb = b.forward(x)
    reset_tape()
    # same weights, different wiring: pruning must change the output
    assert not np.allclose(la.data, lb.data, atol=1e-6)
    assert np.all(np.isfinite(lb.data))


def _state_sha256(net):
    h = hashlib.sha256()
    for name, arr in sorted(net.state_arrays().items()):
        h.update(f"{name}:{arr.dtype.name}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _closure_arrays(fn, name=""):
    """(name, ndarray) for every array a pullback's closure reaches, through
    lists, tuples, tensors and nested functions."""
    cells = zip(fn.__code__.co_freevars, fn.__closure__ or ())
    for var, cell in cells:
        yield from _reachable_arrays(cell.cell_contents, var)


def _reachable_arrays(value, name):
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, Tensor):
        yield name, value.data
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _reachable_arrays(v, name)
    elif callable(value) and hasattr(value, "__code__"):
        yield from _closure_arrays(value)


def _is_or_views(a, allowed):
    while a is not None:
        if any(a is d for d in allowed):
            return True
        a = a.base
    return False


def _released(t):
    """t's data is the zero-byte read-only NaN stand-in of Tensor.release."""
    return (t.remake is not None and not t.data.flags.writeable
            and not any(t.data.strides) and np.isnan(t.data).all())


def _holds_memory(t):
    """t's data is, or views all of, an array that owns its bytes."""
    a = t.data
    while a.base is not None:
        a = a.base
    return a.nbytes >= t.data.nbytes > 0


def test_tape_keeps_each_activation_once(monkeypatch):
    """After a grad-mode supernet forward, a pullback keeps nothing bigger than
    a per-channel vector beyond its node's input and output data (the normalised
    input xhat of the norm nodes excepted), no conv1d output feeds a
    channel_norm, no depthwise_conv1d is recorded, each FactorizedReduce records
    one node, and pools of one input with one op and stride share one buffer.
    Every MixedOp candidate output but Identity's, the pools' and none's is
    released, as is every SepConv inner output, so of the norm nodes' outputs
    only the cell states (the stem's and the preprocessed inputs) hold data,
    beside the xhat each norm node keeps.  No pullback reads an edge's
    weighted sum, a partial node sum, a cell's last node n3 or a gated cell
    input, so none of them holds memory; the states n0-n2, the preprocessed
    inputs s0 and s1 and the cell outputs still do."""
    fr_ops = []
    fr_forward = FactorizedReduce.forward

    def spy(module, x):
        start = len(tape().nodes)
        out = fr_forward(module, x)
        fr_ops.append([n.op for n in tape().nodes[start:]])
        return out

    monkeypatch.setattr(FactorizedReduce, "forward", spy)
    net = Supernet(small_config(), seed=2)
    net.forward(Tensor(rng.standard_normal((3, 2, 24)).astype(np.float32)))
    nodes = tape().nodes
    kept = 0
    for node in nodes:
        tensors = (*node.inputs, node.out)
        allowed = [t.data for t in tensors]
        channels = max((t.shape[1] for t in tensors if t.ndim >= 2), default=0)
        for var, a in _closure_arrays(node.backward_fn):
            if a.size <= channels or (
                    var == "xhat" and node.op in ("channel_norm", "conv1d_norm",
                                                  "relu_conv_norm", "factorized_reduce")):
                continue
            kept += 1
            assert _is_or_views(a, allowed), (node.op, var, a.shape)
    assert kept > 0  # some pullback does keep views of its inputs

    # a conv feeding a norm is one conv1d_norm node, which keeps no conv output
    conv_outs = {id(n.out) for n in nodes if n.op == "conv1d"}
    assert not any(id(n.inputs[0]) in conv_outs for n in nodes if n.op == "channel_norm")
    assert any(n.op == "conv1d_norm" for n in nodes)
    # each relu -> (depthwise ->) conv -> norm unit is one relu_conv_norm node
    assert not any(n.op == "depthwise_conv1d" for n in nodes)
    assert any(n.op == "relu_conv_norm" for n in nodes)
    # and each FactorizedReduce one factorized_reduce node: no relu, shift_time,
    # conv1d, concat or channel_norm node under it
    assert fr_ops and all(ops == ["factorized_reduce"] for ops in fr_ops)

    pools = {}
    for node in nodes:
        if node.op in ("max_pool1d", "avg_pool1d"):
            key = (id(node.inputs[0]), node.op, node.out.shape)
            pools.setdefault(key, []).append(node.out.data)
    assert max(len(outs) for outs in pools.values()) >= 4
    for outs in pools.values():
        assert all(o is outs[0] for o in outs) and not outs[0].flags.writeable

    # released: each candidate output but Identity's (x), the pools' and none's
    producer = {id(n.out): n for n in nodes}
    for node in (n for n in nodes if n.op == "weighted_sum"):
        for name, t in zip(OP_VOCAB, node.inputs[:-1]):
            made_by = producer.get(id(t))
            expect = name in ("sep_conv_3", "sep_conv_5", "dil_conv_3", "dil_conv_5") or (
                name == "skip_connect" and made_by.op == "factorized_reduce")
            assert _released(t) == expect, (name, made_by and made_by.op)
    # and each SepConv inner output, the input of a unit fed by a depthwise unit
    sep_inner = [n.inputs[0] for n in nodes if n.op == "relu_conv_norm"
                 and len(getattr(producer.get(id(n.inputs[0])), "inputs", ())) == 5]
    assert len(sep_inner) == 2 * 14 * 2  # two SepConvs per edge, 14 edges, 2 cells
    assert all(_released(t) for t in sep_inner)
    # so a norm node's output holds data only if it is a cell state
    states = {id(n.inputs[0]) for n in nodes if n.op in ("max_pool1d", "avg_pool1d")}
    for node in nodes:
        if node.op in ("conv1d_norm", "relu_conv_norm", "factorized_reduce"):
            state = node.op == "conv1d_norm" or id(node.out) in states  # the stem's, or pre0/1's
            assert _released(node.out) != state, node.op

    # freed: each edge's weighted sum and each node sum but n0-n2; released:
    # each gated cell input, which its readers pre0 and pre1 remake
    concats = [n for n in nodes if n.op == "concat"]
    kept_nodes = {id(t) for n in concats for t in n.inputs[:-1]}  # n0, n1, n2
    sums = [n.out for n in nodes if n.op in ("weighted_sum", "add")
            and id(n.out) not in kept_nodes]
    assert len(sums) == 2 * (14 + 10 - 3)  # per cell: 14 edge sums, 10 adds, 3 kept
    assert all(any(n.inputs[-1] is t for t in sums) for n in concats)  # each n3
    gated = [n.out for n in nodes if n.op == "multiply"]
    assert len(gated) == 2 * 2
    assert not any(_holds_memory(t) for t in sums + gated)
    assert all(np.isfinite(t.value()).all() for t in gated)
    preprocessed = [n.out for n in nodes if id(n.out) in states
                    and n.op in ("relu_conv_norm", "factorized_reduce")]
    assert len(preprocessed) == 2 * 2
    assert all(_holds_memory(t) for n in concats for t in (*n.inputs[:-1], n.out))
    assert all(_holds_memory(t) for t in preprocessed)


def test_discrete_max_pool_outputs_keep_their_memory():
    """max_pool1d's pullback reads its own output, so a grad-mode DiscreteNetwork
    forward must free no max pool output: only the supernet frees node sums."""
    from test_pipeline import every_op_genotype

    genotype = Genotype.from_json_dict(every_op_genotype())
    net = DiscreteNetwork(genotype, small_config(), seed=4)
    reset_tape()
    net.forward(Tensor(rng.standard_normal((3, 2, 24)).astype(np.float32)))
    pools = [n.out for n in tape().nodes if n.op == "max_pool1d"]
    assert len(pools) >= 2
    assert all(_holds_memory(t) and np.isfinite(t.data).all() for t in pools)


def test_initial_weights_pinned():
    # any change to parameter names or creation order changes these hashes
    layout = ("normal", "reduction", "normal")
    ops = [op for op in OP_VOCAB if op != "none"]
    cells = []
    for ci, kind in enumerate(layout):
        nodes = [[(ops[(2 * j + ci) % 7], 0), (ops[(2 * j + ci + 1) % 7], j + 1)]
                 for j in range(4)]
        cells.append(CellGenotype(kind=kind, nodes=nodes,
                                  gates=(1.9, 0.1) if ci == 1 else (1.0, 1.0),
                                  pruned=(False, True) if ci == 1 else (False, False)))
    genotype = Genotype(cells=cells).validate()
    cfg = dict(num_cells=3, layout=layout, init_channels=4, num_classes=5,
               input_channels=2)
    assert _state_sha256(Supernet(SupernetConfig(**cfg), seed=3)) == \
        "632ae35936ddd5813064c8efc84e3413fc431b57cb99a51e614cfb4236e37b5b"
    assert _state_sha256(instantiate_discrete(
        genotype, SupernetConfig(**cfg, use_gates=False), seed=3)) == \
        "7f8c4ddbb172e95e69378bc8e2e1222844df06f7952b4b96f72f11f52d654c82"
