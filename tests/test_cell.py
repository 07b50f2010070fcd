import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqnas.autograd import Tensor, reset_tape, using_dtype
from seqnas.cell import (EDGES, NUM_EDGES, CellGenotype, DiscreteCell, Genotype,
                         GenotypeError, SearchCell, derive_genotype,
                         genotype_to_dot)
from seqnas.ops import OP_VOCAB

rng = np.random.default_rng(11)


def test_edge_enumeration():
    assert NUM_EDGES == 14
    assert EDGES[:2] == ((0, 2), (1, 2))
    for frm, to in EDGES:
        assert frm < to


def onehot_alpha(picks, boost=40.0):
    """Saturate retained edges on an op and everything else on 'none'."""
    a = np.zeros((NUM_EDGES, len(OP_VOCAB)))
    a[:, 0] = boost
    for k, op in picks.items():
        a[k, 0] = 0.0
        a[k, op] = boost
    return a


def test_derive_keeps_saturated_edges():
    sep3 = OP_VOCAB.index("sep_conv_3")
    # node n0 fed from both inputs with sep_conv_3; remaining nodes get
    # arbitrary distinct picks on their first two incoming edges
    picks = {0: sep3, 1: sep3, 2: 6, 3: 7, 5: 2, 6: 3, 9: 4, 10: 5, 11: 6, 12: 7}
    g = derive_genotype([onehot_alpha(picks)], None, 0.2, ["normal"])
    assert g.cells[0].nodes[0] == [("sep_conv_3", 0), ("sep_conv_3", 1)]
    assert g.cells[0].nodes[1] == [("dil_conv_3", 0), ("dil_conv_5", 1)]


def test_derive_matches_independent_argmax_oracle():
    a = rng.standard_normal((NUM_EDGES, 8))
    g = derive_genotype([a], None, 0.2, ["reduction"])

    # oracle: softmax each row, drop 'none', rank edges per node
    e = np.exp(a - a.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    for j in range(4):
        incoming = [k for k, (i, to) in enumerate(EDGES) if to == j + 2]
        best = sorted(incoming, key=lambda k: -w[k, 1:].max())[:2]
        expected = sorted(
            (EDGES[k][0], OP_VOCAB[1 + int(np.argmax(w[k, 1:]))]) for k in best)
        got = sorted((frm, op) for op, frm in g.cells[0].nodes[j])
        assert got == expected


def test_derive_tiebreak_all_equal_alpha():
    g = derive_genotype([np.zeros((NUM_EDGES, 8))], None, 0.2, ["normal"])
    # documented tie-break: lowest from-node, then lowest op index (skip_connect)
    for j in range(4):
        assert g.cells[0].nodes[j] == [("skip_connect", 0), ("skip_connect", 1)]


def test_derive_is_pure_and_deterministic():
    a = rng.standard_normal((NUM_EDGES, 8))
    b = np.array([0.4, -0.2])
    g1 = derive_genotype([a], [b], 0.2, ["normal"])
    g2 = derive_genotype([a.copy()], [b.copy()], 0.2, ["normal"])
    assert g1.to_json() == g2.to_json()


@settings(deadline=None, max_examples=25)
@given(shift=st.floats(-10, 10))
def test_derive_row_shift_invariance(shift):
    a = rng.standard_normal((NUM_EDGES, 8))
    g1 = derive_genotype([a], None, 0.2, ["normal"])
    g2 = derive_genotype([a + shift], None, 0.2, ["normal"])
    assert g1.to_json_dict()["cells"] == g2.to_json_dict()["cells"]


def test_gate_pruning_at_paper_threshold():
    # coefficients (1.85, 0.15) with c = 0.2: the weak input is pruned
    beta = np.array([0.0, math.log(0.15 / 1.85)])
    g = derive_genotype([np.zeros((NUM_EDGES, 8))], [beta], 0.2, ["normal"])
    coeff = g.cells[0].gates
    assert abs(coeff[0] - 1.85) < 1e-9 and abs(coeff[1] - 0.15) < 1e-9
    assert g.cells[0].pruned == (False, True)


def test_gate_boundary_is_strict():
    # softmax(ln 9, 0) = (0.9, 0.1) -> (1.8, 0.2); 0.2 is NOT < 0.2
    beta = np.array([math.log(9.0), 0.0])
    g = derive_genotype([np.zeros((NUM_EDGES, 8))], [beta], 0.2, ["normal"])
    assert abs(g.cells[0].gates[1] - 0.2) < 1e-12
    assert g.cells[0].pruned == (False, False)


def test_both_gates_below_threshold_is_degenerate():
    with pytest.raises(ValueError, match="both gate"):
        derive_genotype([np.zeros((NUM_EDGES, 8))], [np.zeros(2)], 0.2,
                        ["normal"], gate_scale=0.3)


def test_genotype_json_roundtrip_lossless():
    a = [rng.standard_normal((NUM_EDGES, 8)) for _ in range(6)]
    b = [rng.standard_normal(2) * 0.5 for _ in range(6)]
    kinds = ["normal", "reduction"] * 3
    g = derive_genotype(a, b, 0.2, kinds, meta={"seed": 3, "tier": "relax"})
    text = g.to_json()
    g2 = Genotype.from_json(text)
    assert g2.to_json() == text
    assert json.loads(text)["vocab"] == list(OP_VOCAB)


def test_genotype_validation_rejects_bad_documents():
    good = derive_genotype([np.zeros((NUM_EDGES, 8))], None, 0.2, ["normal"])
    doc = good.to_json_dict()

    bad = json.loads(json.dumps(doc))
    bad["cells"][0]["nodes"][0][0]["op"] = "none"
    with pytest.raises(GenotypeError, match="none"):
        Genotype.from_json_dict(bad)

    bad = json.loads(json.dumps(doc))
    bad["cells"][0]["nodes"][2][1]["from"] = 5  # node n2 cannot see n3
    with pytest.raises(GenotypeError, match="earlier"):
        Genotype.from_json_dict(bad)

    bad = json.loads(json.dumps(doc))
    bad["cells"][0]["gates"]["pruned"] = [True, True]
    with pytest.raises(GenotypeError, match="both"):
        Genotype.from_json_dict(bad)

    with pytest.raises(GenotypeError, match="JSON"):
        Genotype.from_json("{not json")


def _some_genotype(n_cells=6, pruned_cell=None):
    kinds = ["normal", "reduction"] * (n_cells // 2) + ["normal"] * (n_cells % 2)
    cells = []
    for i in range(n_cells):
        nodes = [[("sep_conv_3", 0), ("skip_connect", 1)] for _ in range(4)]
        pruned = (False, False)
        if i == pruned_cell:
            pruned = (True, False)
        cells.append(CellGenotype(kind=kinds[i], nodes=nodes, gates=(1.0, 1.0),
                                  pruned=pruned))
    return Genotype(cells=cells).validate()


def test_dot_export_one_block_per_cell():
    g = _some_genotype(6)
    dot = genotype_to_dot(g)
    assert dot.count("digraph") == 6
    # parse-clean: balanced braces, statements end with ';'
    assert dot.count("{") == dot.count("}") == 6
    for line in dot.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(("digraph", "}")):
            assert stripped.endswith(";"), line


def test_dot_export_omits_pruned_input():
    g = _some_genotype(2, pruned_cell=0)
    blocks = genotype_to_dot(g).split("\n\n")
    assert '"s0"' not in blocks[0]
    assert '"s0" -> ' not in blocks[0]
    assert '"s0"' in blocks[1]


def test_cell_forward_lengths():
    with using_dtype(np.float64):
        r = np.random.default_rng(5)
        s0 = Tensor(r.standard_normal((2, 4, 64)))
        s1 = Tensor(r.standard_normal((2, 4, 64)))
        alpha = Tensor(r.standard_normal((NUM_EDGES, 8)) * 0.001)

        normal = SearchCell(4, 4, 4, False, False, r, np.float64)
        assert normal.forward(s0, s1, alpha).shape == (2, 16, 64)
        reset_tape()

        reduction = SearchCell(4, 4, 4, True, False, r, np.float64)
        assert reduction.forward(s0, s1, alpha).shape == (2, 16, 32)
        reset_tape()


def test_saturated_search_cell_equals_discrete_cell_with_its_weights():
    with using_dtype(np.float64):
        r = np.random.default_rng(9)
        # exactly two non-"none" edges per node so soft and hard sums agree
        picks = {0: 4, 1: 5, 2: 6, 3: 7, 5: 2, 6: 3, 9: 4, 10: 1}
        alpha_arr = onehot_alpha(picks)
        genotype = derive_genotype([alpha_arr], None, 0.2, ["normal"])

        search = SearchCell(3, 3, 3, False, False, r, np.float64)
        discrete = DiscreteCell(genotype.cells[0], 3, 3, 3, False, r, np.float64)
        # give every discrete module the weights of its search counterpart
        pairs = [(discrete.pre0, search.pre0), (discrete.pre1, search.pre1)]
        for j, inputs in enumerate(discrete.node_inputs):
            for frm, (op_name, op) in inputs:
                k = EDGES.index((frm, j + 2))
                pairs.append((op, search.mixed[k].candidates[OP_VOCAB.index(op_name)]))
        for dst, src in pairs:
            for p, q in zip(dst.parameters(), src.parameters(), strict=True):
                p.data[...] = q.data

        s0 = Tensor(r.standard_normal((2, 3, 10)))
        s1 = Tensor(r.standard_normal((2, 3, 10)))
        soft = search.forward(s0, s1, Tensor(alpha_arr))
        reset_tape()
        hard = discrete.forward(s0, s1)
        reset_tape()
        assert np.allclose(soft.data, hard.data, atol=1e-5)
        # the weights carry the equality: a fresh discrete cell disagrees
        fresh = DiscreteCell(genotype.cells[0], 3, 3, 3, False, r, np.float64)
        assert not np.allclose(fresh.forward(s0, s1).data, soft.data, atol=1e-2)
        reset_tape()
