"""Training objective: link-prediction cross-entropy plus soft orthogonality.

Each batch of B triples is scored against all entities as the 2B tail and
head queries of `data.queries`; the cross-entropy targets are either
one-hot on the triple's answer ("1vsall") or uniform over every known-true
answer of the query ("kvsall"). The regularizer pushes the batch's
mapping matrices toward the Stiefel manifold and, optionally, the
relation partitions toward unit norm. It is one closed-form tape op,
`tensor.soft_orthogonality`, over the batch's distinct relations, each
weighted by its count, so both terms are batch means.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ValidationError
from .data import queries
from .model import ModelConfig, ModelParams, hidden_rows
from .tensor import Tensor


def build_targets(triples: np.ndarray, filter_index, sampling: str
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Groundtruth rows for the 2B queries of a batch, in the row order of `data.queries`.

    "1vsall" puts all mass on the batch triple's own answer; "kvsall"
    spreads it uniformly over the query's full answer set in `filter_index`
    (built from training triples, so the set is never empty for training
    queries). Returns the rows in CSR form: offsets, entity ids and
    weights, each row summing to one.
    """
    known, query, answer = queries(triples, filter_index.num_relations)
    if sampling == "1vsall":
        return np.arange(answer.size + 1), answer, np.ones(answer.size)
    if sampling != "kvsall":
        raise ConfigError(f"sampling must be '1vsall' or 'kvsall', got {sampling!r}")
    offsets, ids = filter_index.answers(known, query)
    lengths = np.diff(offsets)
    if np.any(lengths == 0):
        row = int(np.argmax(lengths == 0))
        q, num_relations = int(query[row]), filter_index.num_relations
        direction = "tail" if q < num_relations else "head"
        raise ValidationError(
            f"k-vs-all {direction} query ({int(known[row])}, {q % num_relations}) has no known answers"
        )
    return offsets, ids, np.repeat(1.0 / lengths, lengths)


def ortho_loss(mappings: Tensor, rel_partitions: Tensor, config: ModelConfig,
               counts: np.ndarray) -> Tensor:
    """Soft orthogonality penalty, a count-weighted mean over mapping rows.

    Per row: lambda_ortho * ( sum_k ||M_k^T M_k - I||_F^2
    + lambda_unitnorm * sum_k |r_k^T r_k - 1|^p ), with the weights and p
    of `config`. Note the nesting: the unit-norm term is scaled by both
    lambdas. A training batch passes the mappings of its distinct relations
    with `counts`, the number of examples of each; counts of one make the
    penalty a plain mean over the rows.
    """
    counts = np.asarray(counts, dtype=np.float64)
    weights = counts * (config.lambda_ortho / counts.sum())
    return T.soft_orthogonality(mappings, rel_partitions, weights, config.lambda_unitnorm,
                                config.p_norm)


def total_loss(params: ModelParams, triples: np.ndarray, targets: tuple,
               training: bool = False, rng=None) -> tuple[Tensor, dict]:
    """Link-prediction loss plus soft orthogonality; returns (loss, parts).

    The regularizer weights are those of `params.config`; with
    lambda_ortho = 0 the regularizer is skipped entirely, so the total is
    exactly the link-prediction term. The targets are the CSR rows of
    `build_targets`, one per query of `data.queries`. Each term is one taped
    scalar, which `backward` seeds; `loss` is their sum, untaped, and `parts`
    carries the float value of each term for logging.
    """
    if len(triples) == 0:
        raise ValidationError("total_loss needs a non-empty batch of triples")
    cfg = params.config
    known, query, _ = queries(triples, cfg.num_relations)
    hidden, mappings, rel_part, counts = hidden_rows(params, known, query, training, rng)
    lp = T.matmul_softmax_cross_entropy(hidden, params.entity_emb, *targets, 1.0 / len(triples))
    parts = {"link_prediction": lp.item(), "ortho": 0.0}
    if cfg.lambda_ortho > 0.0:
        penalty = ortho_loss(mappings, rel_part, cfg, counts)
        parts["ortho"] = penalty.item()
        return Tensor(lp.data + penalty.data), parts
    return Tensor(lp.data), parts
