"""Searchable supernet and discrete networks instantiated from genotypes.

The supernet stacks cells per the configured layout (default: Normal and
Reduction alternating three times) behind a small convolutional stem and in
front of a global-average-pool + linear head.  Each cell owns its own
architecture matrix when independent_alpha is on; otherwise all Normal
cells share one matrix and all Reduction cells another (the classic
weight-shared baseline).  Cell-input gates, when enabled, scale the two
inputs of every cell by gate_scale * softmax(beta).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import functional as F
from .autograd import Tensor, default_dtype, parameter
from .cell import (NUM_EDGES, DiscreteCell, SearchCell, derive_genotype,
                   gate_coefficients)
from .config import Config, ConfigError, spec
from .module import Module
from .ops import ChannelNorm, OP_VOCAB, he_normal

NODE_MULTIPLIER = 4  # cell output concatenates 4 intermediate nodes

DEFAULT_LAYOUT = ("normal", "reduction", "normal", "reduction", "normal", "reduction")


class NetworkError(ValueError):
    """Structural problems: bad layout, temporal underflow, vocab mismatch."""


@dataclass
class CellStackConfig(Config):
    """The cell stack and its input gates, shared by SupernetConfig and
    SearchRunConfig; the layout's length and cell kinds are NetworkErrors."""

    num_cells: int = spec(6, min=1)
    layout: tuple = DEFAULT_LAYOUT
    init_channels: int = spec(8, min=1)
    gate_scale: float = spec(2.0, choices=(1.0, 2.0))  # the gates' sum
    gate_threshold: float = spec(0.2, min=0, below=1)  # the cut at derivation

    def __post_init__(self):
        super().__post_init__()
        if self.gate_threshold > self.gate_scale / 2:  # both gates could fall below it
            raise ConfigError("gate_threshold", f"must be <= gate_scale / 2 = "
                              f"{self.gate_scale / 2}, got {self.gate_threshold!r}")
        if len(self.layout) != self.num_cells:
            raise NetworkError(
                f"layout has {len(self.layout)} entries for {self.num_cells} cells"
            )
        for kind in self.layout:
            if kind not in ("normal", "reduction"):
                raise NetworkError(f"bad cell kind {kind!r} in layout")


@dataclass
class SupernetConfig(CellStackConfig):
    """A network: the cell stack, its input and head, and the tier's switches."""

    num_classes: int = spec(10, min=1)
    input_channels: int = spec(2, min=1)
    independent_alpha: bool = True
    use_gates: bool = True


def _check_temporal(layout, t_in):
    """Walk the layout; return per-cell input lengths, or name the cell that underflows."""
    t = t_in
    lengths = []
    for i, kind in enumerate(layout):
        lengths.append(t)
        if kind == "reduction":
            if t < 2:
                raise NetworkError(
                    f"temporal length {t} underflows at reduction cell {i}; "
                    f"input is too short for this layout"
                )
            t = -(-t // 2)
    return lengths, t


class _Backbone(Module):
    """Shared stem/cell/head scaffolding for search and discrete networks."""

    def __init__(self, config, rng, dtype):
        super().__init__()
        self.config = config
        c, c_in = config.init_channels, config.input_channels
        self.stem_w = self.register(parameter(
            he_normal(rng, (c, c_in, 3), c_in * 3, dtype), "stem.w"))
        self.stem_norm = self.add_child(ChannelNorm(c, dtype, "stem.norm"))

    def _build(self, make_cell, rng, dtype):
        """Stack the cells of the layout, then the head, in parameter-creation order.

        make_cell(i, c_pp, c_p, channels, reduction, reduction_prev) builds cell i.
        """
        c_pp = c_p = c_curr = self.config.init_channels
        reduction_prev = False
        self.cells = []
        for i, kind in enumerate(self.config.layout):
            reduction = kind == "reduction"
            if reduction:
                c_curr *= 2
            self.cells.append(self.add_child(
                make_cell(i, c_pp, c_p, c_curr, reduction, reduction_prev)))
            c_pp, c_p = c_p, NODE_MULTIPLIER * c_curr
            reduction_prev = reduction
        self.feature_dim = c_p
        k = self.config.num_classes
        self.head_w = self.register(parameter(
            (rng.standard_normal((k, c_p)) / math.sqrt(c_p)).astype(dtype), "head.w"))
        self.head_b = self.register(parameter(np.zeros(k, dtype=dtype), "head.b"))

    def _run(self, x, run_cell):
        """Stem, run_cell(i, cell, s0, s1) per cell, pooling and head: (logits, pooled)."""
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 3 or x.shape[1] != self.config.input_channels:
            raise NetworkError(
                f"input must be (B, {self.config.input_channels}, T), got {x.shape}"
            )
        _check_temporal(self.config.layout, x.shape[2])
        s0 = s1 = F.conv1d_norm(x, self.stem_w, *self.stem_norm.args())
        for i, cell in enumerate(self.cells):
            s0, s1 = s1, run_cell(i, cell, s0, s1)
        pooled = F.global_avg_pool(s1)
        return F.linear(pooled, self.head_w, self.head_b), pooled

    def forward(self, x, **kw):
        """The logits of forward_with_embedding(x, **kw)."""
        return self.forward_with_embedding(x, **kw)[0]

    def state_arrays(self):
        """All learnable tensors plus normalization buffers, by unique name."""
        out = {}
        for p in self.parameters():
            if p.name is None or p.name in out:
                raise NetworkError(f"parameter name missing or duplicated: {p.name!r}")
            out[p.name] = p.data
        for m in self.walk():
            if isinstance(m, ChannelNorm):
                out[f"{m.tag}.running_mean"] = m.running_mean
                out[f"{m.tag}.running_var"] = m.running_var
        return out


class Supernet(_Backbone):
    def __init__(self, config: SupernetConfig, seed=0):
        rng = np.random.default_rng(seed)
        dtype = default_dtype()
        super().__init__(config, rng, dtype)

        self._build(lambda i, c_pp, c_p, c, reduction, reduction_prev: SearchCell(
            c_pp, c_p, c, reduction, reduction_prev, rng, dtype, tag=f"cell{i}"), rng, dtype)

        # architecture parameters live outside the module tree: the weight
        # optimizer must never see them.  One alpha per cell, or (darts tier)
        # one per cell kind, each drawn when the layout first reaches it
        alphas = {}
        self.cell_alpha = []
        for i, kind in enumerate(config.layout):
            key = f"cell{i}" if config.independent_alpha else kind
            if key not in alphas:
                alphas[key] = parameter((rng.standard_normal((NUM_EDGES, len(OP_VOCAB)))
                                         * 1e-3).astype(dtype), f"alpha.{key}")
            self.cell_alpha.append(alphas[key])
        self._alphas = [alphas[k] for k in (alphas if config.independent_alpha
                                            else sorted(alphas))]

        if config.use_gates:
            self._betas = [parameter(np.zeros(2, dtype=dtype), f"beta.cell{i}")
                           for i in range(config.num_cells)]
        else:
            self._betas = []
        self.last_gates = []

    def arch_parameters(self):
        return list(self._alphas)

    def gate_parameters(self):
        return list(self._betas)

    def weight_parameters(self):
        return self.parameters()

    def forward_with_embedding(self, x):
        self.last_gates = []

        def run_cell(i, cell, s0, s1):
            if self.config.use_gates:
                gvec = F.scale(F.softmax(self._betas[i], axis=-1), self.config.gate_scale)
                g0t, g1t = F.take(gvec, 0), F.take(gvec, 1)
                self.last_gates.append((float(g0t.data), float(g1t.data)))
                s0, s1 = F.mul(s0, g0t), F.mul(s1, g1t)
                out = cell.forward(s0, s1, self.cell_alpha[i])
                s0.release()  # only pre0 and pre1 read the gated inputs;
                s1.release()  # their pullbacks remake them
                return out
            return cell.forward(s0, s1, self.cell_alpha[i])

        return self._run(x, run_cell)

    def derive(self, meta=None):
        """Discrete genotype from the current per-cell alpha and beta."""
        gates = self._betas if self.config.use_gates else None
        return derive_genotype(
            self.cell_alpha,
            gates,
            self.config.gate_threshold,
            list(self.config.layout),
            gate_scale=self.config.gate_scale,
            meta=meta,
        )

    def state_arrays(self):
        out = super().state_arrays()
        for t in self._alphas + self._betas:
            out[t.name] = t.data
        return out


class DiscreteNetwork(_Backbone):
    """Network with only the retained ops of a genotype; fresh weights."""

    def __init__(self, genotype, config: SupernetConfig, seed=0):
        genotype.validate()
        if tuple(genotype.vocab) != OP_VOCAB:
            raise NetworkError(
                "genotype/vocabulary mismatch: file carries a different op order"
            )
        if len(genotype.cells) != config.num_cells:
            raise NetworkError(
                f"genotype has {len(genotype.cells)} cells, config expects {config.num_cells}"
            )
        kinds = tuple(c.kind for c in genotype.cells)
        if kinds != tuple(config.layout):
            raise NetworkError("genotype cell kinds disagree with configured layout")
        rng = np.random.default_rng(seed)
        dtype = default_dtype()
        super().__init__(config, rng, dtype)
        self._build(lambda i, c_pp, c_p, c, reduction, reduction_prev: DiscreteCell(
            genotype.cells[i], c_pp, c_p, c, reduction_prev, rng, dtype, tag=f"cell{i}"),
            rng, dtype)
        # only the final network keeps running statistics, for evaluation
        for m in self.walk():
            if isinstance(m, ChannelNorm):
                m.track_running = True

    def forward_with_embedding(self, x, edge_regularizer=None):
        def run_cell(i, cell, s0, s1):
            pruned = cell.entry.pruned
            s0 = F.zeros(s0.shape, dtype=s0.dtype) if pruned[0] else s0
            s1 = F.zeros(s1.shape, dtype=s1.dtype) if pruned[1] else s1
            return cell.forward(s0, s1, edge_regularizer=edge_regularizer)

        return self._run(x, run_cell)


def instantiate_discrete(genotype, config, seed=0):
    """Build a trainable network from a derived genotype (fresh init)."""
    return DiscreteNetwork(genotype, config, seed=seed)
