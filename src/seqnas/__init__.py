"""Differentiable architecture search for multi-feature temporal sequences.

Per-cell architecture matrices, learnable cell-input gates, an alternating
triple optimization loop, and the verification protocol used to score the
searched networks.
"""

__version__ = "0.1.0"

from .autograd import (Tensor, Tape, ShapeError, TapeError, backward,
                       no_grad, parameter, reset_tape, set_default_dtype,
                       using_dtype)
from .cell import (Genotype, GenotypeError, derive_genotype,
                   genotype_to_dot)
from .network import (DiscreteNetwork, NetworkError, Supernet, SupernetConfig,
                      gate_coefficients, instantiate_discrete)
from .optim import (NumericsError, OptimizerConfig, TripleState, cosine_lr,
                    make_triple_state, triple_step)
from .search import SearchRunConfig, resume, run_search
from .train import TrainConfig, drop_path, train_final
from .metrics import (MetricError, ScoreSet, compute_eer, det_curve, embed,
                      frr_at_far, metrics_report, score_protocol)
from .data import (CsvSchema, DataError, SequenceRecord, WindowedDataset,
                   ingest_csv, make_windows, split_for_search, synth_generate)
