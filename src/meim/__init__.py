"""Multi-partition embedding interaction toolkit for knowledge graph link prediction."""

__version__ = "0.1.0"

from .data import FilterIndex, TripleStore, build_filter_index, load_triples  # noqa: F401
from .evaluation import MetricsReport, evaluate  # noqa: F401
from .model import (  # noqa: F401
    ModelConfig,
    ModelParams,
    count_params,
    score,
)
from .objective import build_targets, ortho_loss, total_loss  # noqa: F401
from .optim import Adam  # noqa: F401
from .tensor import GradTape, Tensor, backward, finite_diff_check  # noqa: F401
from .trainer import Checkpoint, RunConfig, load_checkpoint, save_checkpoint, train  # noqa: F401
