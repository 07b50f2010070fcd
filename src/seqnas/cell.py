"""Cell DAG (2 inputs, 4 intermediate nodes), genotypes, and derivation.

Node indexing convention used everywhere, including genotype JSON:
0 = cell input s0, 1 = cell input s1, 2..5 = intermediate nodes n0..n3.
The cell output concatenates the four intermediate nodes on the channel
axis.  Edge k of the flat 14-row architecture matrix is EDGES[k].
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import functional as F
from .module import Module
from .ops import OP_VOCAB, MixedOp, ReLUConvNorm, FactorizedReduce, make_op

NUM_INTERMEDIATE = 4

# (from_node, to_node) for every i < j pair, grouped by destination node.
EDGES = tuple(
    (i, j + 2) for j in range(NUM_INTERMEDIATE) for i in range(j + 2)
)
NUM_EDGES = len(EDGES)  # 14


class GenotypeError(ValueError):
    """Raised for malformed or inconsistent genotypes."""


_JSON_TYPES = {"boolean": bool, "integer": int, "number": (int, float), "string": str}


def _json_value(value, kind, name):
    """value if it is a JSON `kind`: only a boolean may be a bool."""
    if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind]):
        raise GenotypeError(f"{name} must be a JSON {kind}, got {value!r}")
    return value


@dataclass
class CellGenotype:
    kind: str
    nodes: list  # 4 entries, each [(op_name, from_node), (op_name, from_node)]
    gates: tuple = (1.0, 1.0)
    pruned: tuple = (False, False)


@dataclass
class Genotype:
    """Discrete architecture: retained ops/edges plus input-pruning decisions."""

    cells: list
    vocab: tuple = OP_VOCAB
    meta: dict = field(default_factory=dict)

    def validate(self):
        if len(self.vocab) != len(OP_VOCAB):
            raise GenotypeError(f"vocabulary must have {len(OP_VOCAB)} ops")
        for ci, cell in enumerate(self.cells):
            if cell.kind not in ("normal", "reduction"):
                raise GenotypeError(f"cell {ci}: bad kind {cell.kind!r}")
            if len(cell.gates) != 2 or len(cell.pruned) != 2:
                raise GenotypeError(f"cell {ci}: gates and pruned need one entry per input")
            if len(cell.nodes) != NUM_INTERMEDIATE:
                raise GenotypeError(f"cell {ci}: expected {NUM_INTERMEDIATE} nodes")
            for j, entries in enumerate(cell.nodes):
                if len(entries) != 2:
                    raise GenotypeError(f"cell {ci} node {j}: needs exactly 2 edges")
                for op, frm in entries:
                    if op == "none":
                        raise GenotypeError(f"cell {ci} node {j}: retained 'none' op")
                    if op not in self.vocab:
                        raise GenotypeError(f"cell {ci} node {j}: unknown op {op!r}")
                    if not 0 <= frm < j + 2:
                        raise GenotypeError(
                            f"cell {ci} node {j}: from={frm} not an earlier node"
                        )
            if sum(bool(p) for p in cell.pruned) > 1:
                raise GenotypeError(f"cell {ci}: both inputs pruned")
        return self

    def to_json_dict(self):
        return {
            "cells": [
                {
                    "kind": c.kind,
                    "nodes": [
                        [{"op": op, "from": frm} for op, frm in entries]
                        for entries in c.nodes
                    ],
                    "gates": {
                        "s0": c.gates[0],
                        "s1": c.gates[1],
                        "pruned": [bool(c.pruned[0]), bool(c.pruned[1])],
                    },
                }
                for c in self.cells
            ],
            "vocab": list(self.vocab),
            "meta": self.meta,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        """The genotype of a JSON document; a value of the wrong JSON type is an
        error, never coerced (a bool is not a number, a number not a bool)."""
        try:
            cells = [
                CellGenotype(
                    kind=_json_value(c["kind"], "string", "kind"),
                    nodes=[
                        [(_json_value(e["op"], "string", "op"),
                          _json_value(e["from"], "integer", "from")) for e in entries]
                        for entries in c["nodes"]
                    ],
                    gates=tuple(float(_json_value(c["gates"][k], "number", k))
                                for k in ("s0", "s1")),
                    pruned=tuple(_json_value(p, "boolean", "pruned")
                                 for p in c["gates"]["pruned"]),
                )
                for c in d["cells"]
            ]
            g = cls(cells=cells, vocab=tuple(d["vocab"]), meta=dict(d.get("meta", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise GenotypeError(f"malformed genotype document: {exc}") from exc
        return g.validate()

    @classmethod
    def from_json(cls, text):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GenotypeError(f"genotype is not valid JSON: {exc}") from exc
        return cls.from_json_dict(d)


def _softmax64(x):
    """Softmax over the last axis of a Tensor or array, in float64."""
    return F._softmax(np.asarray(x.data if hasattr(x, "data") else x, dtype=np.float64), -1)


def gate_coefficients(beta, gate_scale=2.0):
    """(g0, g1) = gate_scale * softmax(beta); they sum to gate_scale."""
    sm = _softmax64(beta)
    return float(gate_scale * sm[0]), float(gate_scale * sm[1])


def derive_genotype(alphas, gates, threshold, kinds, gate_scale=2.0, meta=None):
    """Extract the discrete architecture from learned weights.

    Per intermediate node, the two incoming edges with the highest
    max-over-non-"none" softmax score are kept, each labeled with its argmax
    non-"none" op.  Ties break toward the lower from-node, then the lower op
    index.  Per cell, input k is pruned iff its gate coefficient falls below
    the threshold; soft gates apply only during search, the cut happens here.
    """
    if not 0 <= threshold < 1:
        raise ValueError(f"gate threshold must be in [0, 1), got {threshold}")
    if gates is None:
        gates = [None] * len(alphas)
    if not len(alphas) == len(gates) == len(kinds):
        raise ValueError("need one alpha, one gate, one kind per cell")
    none_idx = OP_VOCAB.index("none")
    op_indices = [i for i in range(len(OP_VOCAB)) if i != none_idx]

    cells = []
    for ci, (alpha, beta, kind) in enumerate(zip(alphas, gates, kinds)):
        w = _softmax64(alpha)
        if w.shape != (NUM_EDGES, len(OP_VOCAB)):
            raise ValueError(
                f"cell {ci}: alpha shape {w.shape}, expected ({NUM_EDGES}, {len(OP_VOCAB)})"
            )

        nodes = []
        for j in range(NUM_INTERMEDIATE):
            incoming = [k for k, (i, dst) in enumerate(EDGES) if dst == j + 2]
            scored = []
            for k in incoming:
                frm = EDGES[k][0]
                best_op = max(op_indices, key=lambda o: (w[k, o], -o))
                scored.append((-w[k, best_op], frm, OP_VOCAB[best_op]))
            scored.sort()
            kept = sorted(scored[:2], key=lambda s: s[1])
            nodes.append([(op, frm) for _, frm, op in kept])

        if beta is None:
            coeff = (1.0, 1.0)
            pruned = (False, False)
        else:
            coeff = gate_coefficients(beta, gate_scale)
            # strict "< threshold" with a guard wide enough for float32
            # parameter storage, so exact-boundary coefficients
            # (e.g. beta = (ln 9, 0) -> 0.2) never prune
            pruned = (coeff[0] < threshold - 1e-6, coeff[1] < threshold - 1e-6)
            if pruned[0] and pruned[1]:
                raise ValueError(
                    f"cell {ci}: both gate coefficients below threshold {threshold}"
                )
        cells.append(CellGenotype(kind=kind, nodes=nodes, gates=coeff, pruned=pruned))

    return Genotype(cells=cells, vocab=OP_VOCAB, meta=dict(meta or {})).validate()


def genotype_to_dot(genotype):
    """Render one directed-graph block per cell; pruned inputs are omitted."""
    names = {0: "s0", 1: "s1", 2: "n0", 3: "n1", 4: "n2", 5: "n3"}
    blocks = []
    for ci, cell in enumerate(genotype.cells):
        lines = [f"digraph cell_{ci} {{"]
        lines.append(f'  label="cell {ci} ({cell.kind})";')
        lines.append("  rankdir=LR;")
        lines.append("  node [shape=box];")
        for k in (0, 1):
            if not cell.pruned[k]:
                lines.append(f'  "s{k}";')
        for j in range(NUM_INTERMEDIATE):
            lines.append(f'  "n{j}";')
        lines.append('  "out";')
        for j, entries in enumerate(cell.nodes):
            for op, frm in entries:
                if frm in (0, 1) and cell.pruned[frm]:
                    continue
                lines.append(f'  "{names[frm]}" -> "n{j}" [label="{op}"];')
        for j in range(NUM_INTERMEDIATE):
            lines.append(f'  "n{j}" -> "out";')
        lines.append("}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


class _Cell(Module):
    """Input preprocessing and the node DAG shared by search and discrete cells.

    Reduction cells apply stride 2 only on edges that originate at the two
    cell inputs.  Inputs are projected to the cell's working width first; if
    the cell two steps back was a reduction, s0 additionally gets halved in
    time by a factorized reduction.  Subclasses fill self.node_inputs with
    one list of (from_node, edge) pairs per intermediate node.
    """

    def __init__(self, c_pp, c_p, channels, reduction, reduction_prev, rng, dtype, tag):
        super().__init__()
        self.c_pp = c_pp
        self.reduction = reduction
        if reduction_prev:
            self.pre0 = self.add_child(
                FactorizedReduce(c_pp, channels, rng, dtype, f"{tag}.pre0"))
        else:
            self.pre0 = self.add_child(
                ReLUConvNorm(c_pp, channels, 1, 1, rng, dtype, f"{tag}.pre0"))
        self.pre1 = self.add_child(
            ReLUConvNorm(c_p, channels, 1, 1, rng, dtype, f"{tag}.pre1"))
        self.node_inputs = [[] for _ in range(NUM_INTERMEDIATE)]

    def _stride(self, frm):
        return 2 if self.reduction and frm in (0, 1) else 1

    def _run(self, s0, s1, edge_forward):
        """Sum edge_forward(edge, state) over each node's inputs; concat n0..n3.
        Once read, each node sum's inputs, and n3, go to _read_by_sums."""
        if s0.shape[1] != self.c_pp:
            raise F.ShapeError(
                f"cell: s0 has {s0.shape[1]} channels, preprocessing expects {self.c_pp}"
            )
        s0 = self.pre0.forward(s0)
        s1 = self.pre1.forward(s1)
        if s0.shape != s1.shape:
            raise F.ShapeError(
                f"cell: preprocessed inputs disagree, {s0.shape} vs {s1.shape}"
            )
        states = [s0, s1]
        for inputs in self.node_inputs:
            acc = None
            for frm, edge in inputs:
                contrib = edge_forward(edge, states[frm])
                if acc is None:
                    acc = contrib
                else:
                    total = F.add(acc, contrib)
                    self._read_by_sums(acc, contrib)
                    acc = total
            states.append(acc)
        out = F.concat(states[2:], axis=1)
        self._read_by_sums(states[-1])
        return out

    def _read_by_sums(self, *tensors):
        """Keep them: a discrete edge output may be a state (Identity's) or read
        by its own pullback (a max pool's)."""


class SearchCell(_Cell):
    """One relaxed cell: a MixedOp on each of the 14 edges."""

    def __init__(self, c_pp, c_p, channels, reduction, reduction_prev, rng, dtype, tag=""):
        super().__init__(c_pp, c_p, channels, reduction, reduction_prev, rng, dtype, tag)
        self.mixed = []
        for k, (frm, dst) in enumerate(EDGES):
            self.mixed.append(self.add_child(
                MixedOp(channels, self._stride(frm), rng, dtype, tag=f"{tag}.edge{k}")))
            self.node_inputs[dst - 2].append((frm, k))

    def forward(self, s0, s1, alpha):
        return self._run(s0, s1, lambda k, x: self.mixed[k].forward(x, F.take_row(alpha, k)))

    def _read_by_sums(self, *tensors):
        """Free them: an edge's weighted sum, a partial node sum or n3 is read by no
        pullback (add's and concat's read nothing, weighted_sum's not its output)."""
        for t in tensors:
            t.free()


class DiscreteCell(_Cell):
    """A cell instantiated from a genotype entry, with fresh weights.

    Edge outputs can be regularized (drop-path) via edge_regularizer; every
    skip_connect edge, identity or stride-2 FactorizedReduce, skips it.
    """

    def __init__(self, entry, c_pp, c_p, channels, reduction_prev, rng, dtype, tag=""):
        super().__init__(c_pp, c_p, channels, entry.kind == "reduction", reduction_prev,
                         rng, dtype, tag)
        self.entry = entry
        for j, entries in enumerate(entry.nodes):
            for ei, (op_name, frm) in enumerate(entries):
                op = self.add_child(make_op(op_name, channels, self._stride(frm), rng, dtype,
                                            tag=f"{tag}.n{j}e{ei}.{op_name}"))
                self.node_inputs[j].append((frm, (op_name, op)))

    def forward(self, s0, s1, edge_regularizer=None):
        def edge_forward(edge, x):
            op_name, op = edge
            out = op.forward(x)
            if edge_regularizer is not None and op_name != "skip_connect":
                out = edge_regularizer(out)
            return out

        return self._run(s0, s1, edge_forward)
