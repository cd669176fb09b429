"""Auxiliary target-coding regularization for supervised representation
learning: fixed Hadamard codewords or learnable binary codes trained with a
margin triplet loss and a correlation-consistency penalty, on top of a
hand-rolled feedforward network with analytic gradients.
"""

from .codes import (
    CodeBank,
    activate,
    hadamard_matrix,
    init_learnable_codes,
    load_bank,
    save_bank,
    select_hadamard_codes,
    ste_backward,
    update_codes,
)
from .config import BASELINE, HTC, LTC, Hyperparams, TrainConfig
from .core import GradCheckReport, Rng, derive_seed, finite_diff_check
from .data import Dataset, batches, load_csv, long_tail_subsample, make_blobs, save_csv
from .losses import (
    LossBundle,
    compose_objective,
    corr_consistency,
    cross_entropy,
    mse_codes,
    triplet_global,
)
from .network import DenseLayer, ModelParams, Optimizer, backward, forward, init_model, init_optimizer, sgd_step
from .trainer import (
    EpochMetrics,
    RetrievalReport,
    TrainResult,
    evaluate,
    export_code_correlation,
    retrieval_eval,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BASELINE",
    "CodeBank",
    "Dataset",
    "DenseLayer",
    "EpochMetrics",
    "GradCheckReport",
    "HTC",
    "Hyperparams",
    "LTC",
    "LossBundle",
    "ModelParams",
    "Optimizer",
    "RetrievalReport",
    "Rng",
    "TrainConfig",
    "TrainResult",
    "activate",
    "backward",
    "batches",
    "compose_objective",
    "corr_consistency",
    "cross_entropy",
    "derive_seed",
    "evaluate",
    "export_code_correlation",
    "finite_diff_check",
    "forward",
    "hadamard_matrix",
    "init_learnable_codes",
    "init_model",
    "init_optimizer",
    "load_bank",
    "load_csv",
    "long_tail_subsample",
    "make_blobs",
    "mse_codes",
    "retrieval_eval",
    "save_bank",
    "save_csv",
    "select_hadamard_codes",
    "sgd_step",
    "ste_backward",
    "train",
    "triplet_global",
    "update_codes",
]
