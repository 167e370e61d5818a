"""Local-global attention networks for multi-label signal classification.

A self-contained stack: numpy-backed tensors with reverse-mode autodiff,
1-D convolutional building blocks, the local-global attention layer with
its ablation variants, a hierarchical halving classifier, binary dataset
and weight formats, and a deterministic training loop.
"""

import os as _os

# Honor LGA_THREADS before numpy wires up its BLAS thread pools.
_threads = _os.environ.get("LGA_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .attention import (  # noqa: E402
    POS_ENCODINGS,
    VARIANTS,
    LgaConfig,
    LgaWeights,
    attention_variant,
    global_kv,
    local_queries,
    window_count,
)
from .data import (  # noqa: E402
    EcgRecord,
    SplitSpec,
    batches,
    read_dataset,
    split_by_patient,
    synth_dataset,
    write_dataset,
)
from .errors import (  # noqa: E402
    ConfigError,
    FormatError,
    GraphError,
    LganetError,
    NumericsError,
    ShapeError,
)
from .model import Model, ModelConfig, count_parameters  # noqa: E402
from .tensor import Tensor, no_grad, read_weights, write_weights  # noqa: E402
from .training import (  # noqa: E402
    MetricsReport,
    OptimState,
    ScheduleSpec,
    TrainSpec,
    adamw_step,
    bce_loss,
    cosine_lr,
    evaluate,
    train,
)

__all__ = [
    "ConfigError", "EcgRecord", "FormatError", "GraphError",
    "LgaConfig", "LgaWeights", "LganetError", "MetricsReport", "Model",
    "ModelConfig", "NumericsError", "OptimState", "POS_ENCODINGS",
    "ScheduleSpec", "ShapeError", "SplitSpec", "Tensor", "TrainSpec",
    "VARIANTS", "adamw_step", "attention_variant", "batches", "bce_loss",
    "cosine_lr", "count_parameters", "evaluate", "global_kv",
    "local_queries", "no_grad", "read_dataset", "read_weights",
    "split_by_patient", "synth_dataset", "train", "window_count",
    "write_dataset", "write_weights",
]
