"""Multi-partition bilinear interaction model.

Entity and relation embeddings are stored as per-partition matrices. A
relation-specific mapping matrix is generated for each partition by
contracting that partition's core tensor with the relation partition; the
triple score is the sum of per-partition quadratic forms. The core bank
holds either one tensor reused by every partition ("shared") or one
tensor per partition ("independent").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import check_ids, row_blocks
from .errors import ConfigError, ShapeError, ValidationError
from .tensor import Tensor

CORE_MODES = ("shared", "independent")
SAMPLING_MODES = ("1vsall", "kvsall")


@dataclass(frozen=True)
class ModelConfig:
    num_entities: int
    num_relations: int
    k: int  # number of partitions
    ce: int  # entity partition size
    cr: int  # relation partition size
    core_mode: str = "independent"
    input_dropout: float = 0.0
    hidden_dropout: float = 0.0
    lambda_ortho: float = 0.0
    lambda_unitnorm: float = 0.0
    p_norm: int = 3
    sampling: str = "kvsall"
    batchnorm: bool = True
    bn_per_partition: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("num_entities", "num_relations", "k", "ce", "cr", "p_norm"):
            # `type`, not isinstance, since a JSON meta can hold 8.0 or true (a bool is an int)
            if type(value := getattr(self, name)) is not int or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        for name in ("input_dropout", "hidden_dropout"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        for name in ("lambda_ortho", "lambda_unitnorm"):
            if not 0.0 <= (value := getattr(self, name)) < math.inf:  # False for NaN
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.core_mode not in CORE_MODES:
            raise ConfigError(f"core_mode must be one of {CORE_MODES}, got {self.core_mode!r}")
        if self.sampling not in SAMPLING_MODES:
            raise ConfigError(f"sampling must be one of {SAMPLING_MODES}, got {self.sampling!r}")

    @property
    def entity_dim(self) -> int:
        return self.k * self.ce

    @property
    def num_cores(self) -> int:
        return self.k if self.core_mode == "independent" else 1


def count_params(config: ModelConfig) -> int:
    """Trainable parameter count of the embedding tables and core bank.

    Batch-norm affine parameters and optimizer state are excluded.
    """
    shapes = state_shapes(config)
    return sum(math.prod(shapes[name]) for name in ("entity_emb", "relation_emb", "core"))


# each batch norm's arrays in checkpoint order, with the fill that starts it as the identity
_BN_STATE = {"gamma": 1.0, "beta": 0.0, "running_mean": 0.0, "running_var": 1.0}
_RUNNING = ("running_mean", "running_var")  # state, but not trained


def state_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name and shape of every array of the model's state, in checkpoint order.

    This is the one table of that state: `ModelParams.state` is keyed and
    ordered by it. Batch norm pools its statistics over partitions when
    `bn_per_partition` is set, so it then has Ce features, not K * Ce.
    """
    features = config.ce if config.bn_per_partition else config.entity_dim
    shapes = {"entity_emb": (config.num_entities, config.k, config.ce),
              "relation_emb": (config.num_relations, config.k, config.cr),
              "core": (config.num_cores, config.ce, config.ce, config.cr)}
    for prefix in ("bn_input", "bn_hidden"):
        shapes.update({f"{prefix}.{key}": (features,) for key in _BN_STATE})
    return shapes


def entity_minor(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized (E, ...) float64 array whose first axis is the fastest in memory.

    It is a view of a C-ordered (prod(shape[1:]), E) array: the memory order
    of the table gradient of `tensor.matmul_softmax_cross_entropy`, and of
    the Adam moments that `np.zeros_like` makes for a table in it, so Adam
    reads all four arrays of the entity table as one contiguous stream.
    """
    return np.empty((math.prod(shape[1:]), shape[0])).T.reshape(shape)


class ModelParams:
    """The full model state: embeddings, core bank and batch-norm arrays.

    `state` maps each name of `state_shapes` to its tensor, in that order;
    the running batch statistics are tensors that need no gradient.
    Tables are initialized uniform in [-b, b] with b = sqrt(6 / (fan_in +
    fan_out)) per slice: partition rows use fan_in = fan_out = C, and each
    core tensor is treated as a map from the relation partition (Cr) to a
    Ce x Ce matrix. The entity table is `entity_minor`, filled by one draw
    per `data.row_blocks` block, which continue one random stream: its
    values are those of a single draw of its shape, with no full-size copy.
    """

    entity_emb = property(lambda self: self.state["entity_emb"])
    relation_emb = property(lambda self: self.state["relation_emb"])
    core = property(lambda self: self.state["core"])

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        self.config = config
        rng = np.random.default_rng(config.seed) if rng is None else rng
        bounds = {"entity_emb": np.sqrt(3.0 / config.ce), "relation_emb": np.sqrt(3.0 / config.cr),
                  "core": np.sqrt(6.0 / (config.cr + config.ce * config.ce))}
        self.state: dict[str, Tensor] = {}
        for name, shape in state_shapes(config).items():
            if name == "entity_emb":
                table = entity_minor(shape)
                for rows in row_blocks(table):
                    table[rows] = rng.uniform(-bounds[name], bounds[name], size=table[rows].shape)
                self.state[name] = Tensor(table, requires_grad=True)
            elif name in bounds:
                self.state[name] = Tensor(rng.uniform(-bounds[name], bounds[name], size=shape),
                                          requires_grad=True)
            else:
                self.state[name] = Tensor(np.full(shape, _BN_STATE[name.partition(".")[2]]),
                                          requires_grad=not name.endswith(_RUNNING))

    @classmethod
    def from_state_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """The model whose `state_arrays()` are `arrays`, taken as given, with no random draw."""
        params = cls.__new__(cls)
        params.config = config
        params.state = {name: Tensor(arrays[name], requires_grad=not name.endswith(_RUNNING))
                        for name in state_shapes(config)}
        return params

    def leaves(self) -> list[tuple[str, Tensor]]:
        """Named trainable tensors, in the order of `state`; batch norm's only when it is on."""
        return [(name, t) for name, t in self.state.items()
                if t.requires_grad and (self.config.batchnorm or not name.startswith("bn_"))]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every array needed to reconstruct the model state bitwise."""
        return {name: t.data for name, t in self.state.items()}


def _normalize_and_drop(params: ModelParams, x: Tensor, prefix: str, drop_rate: float,
                        training: bool, rng) -> Tensor:
    """Batch norm `prefix` (if enabled) then inverted dropout over (B, K, Ce) rows."""
    if params.config.batchnorm:
        gamma, beta, mean, var = (params.state[f"{prefix}.{key}"] for key in _BN_STATE)
        x = T.batch_norm(x, gamma, beta, mean.data, var.data, training)
    return T.dropout(x, drop_rate, rng, training)


def hidden_rows(params: ModelParams, known_ids, query_ids, training: bool = False,
                rng=None) -> tuple[Tensor, Tensor, Tensor, np.ndarray]:
    """(N, K, C) hidden rows of (known entity, query id) queries, as encoded by `data.queries`.

    Each row is (dropout o bn)(e_known) mapped through M_q for a query id
    q < R, or through M_{q-R}^T for q >= R, then (dropout o bn) of the
    result; all rows share the normalization statistics. Each distinct
    mapping, or its transpose read in place, is applied to its group of rows
    by one GEMM. A row scores every entity by a dot product with its (K, C)
    embedding.
    Also returns, for the regularizer, the (U, K, Ce, Ce) mappings of the U
    distinct relations q mod R in ascending order, their (U, K, Cr)
    relation partitions, and how often each occurs; the counts are per
    query row, so a batch's triple counts twice. The mappings cost
    O(U K Ce^2 Cr) forward and backward, whatever the batch size.
    """
    cfg = params.config
    known_ids = np.asarray(known_ids, dtype=np.int64)
    query_ids = np.asarray(query_ids, dtype=np.int64)
    check_ids(known_ids, cfg.num_entities, "entity")
    check_ids(query_ids, 2 * cfg.num_relations, "query")  # so q mod R is a relation id
    uniq, inverse, counts = np.unique(query_ids % cfg.num_relations, return_inverse=True,
                                      return_counts=True)
    rel_part = T.gather_rows(params.relation_emb, uniq)  # (U, K, Cr)
    mappings = T.relation_mappings(params.core, rel_part)
    group = inverse + uniq.size * (query_ids >= cfg.num_relations)  # >= U: transposed
    x = T.gather_rows(params.entity_emb, known_ids)
    x = _normalize_and_drop(params, x, "bn_input", cfg.input_dropout, training, rng)
    hidden = T.grouped_matmul(x, mappings, group)
    hidden = _normalize_and_drop(params, hidden, "bn_hidden", cfg.hidden_dropout, training, rng)
    return hidden, mappings, rel_part, counts


def all_entity_logits(params: ModelParams, entity_ids, relation_ids, direction: str,
                      out: np.ndarray | None = None) -> Tensor:
    """Scores of every entity for a batch of (known entity, relation) queries, in evaluation mode.

    direction "tail" scores h^T M_r e over all e; direction "head" scores
    e^T M_r t over all e via the transposed mapping. Returns (B, |E|), one
    row per input row, forward-only: the product is not taped. When `out`,
    a C-contiguous (B, |E|) float64 array, is given, the scores are written
    into it and the result wraps it; any other `out` raises ShapeError.
    Each distinct (entity, relation) row is scored once, by one product of
    the distinct rows in order of first occurrence into the first rows of
    the result, which is bitwise that call on the distinct rows alone; a
    repeat's row is then a copy. A batch whose first rows are all its
    distinct queries copies only its repeats.
    """
    if direction not in ("tail", "head"):
        raise ValidationError(f"direction must be 'tail' or 'head', got {direction!r}")
    cfg = params.config
    entity_ids = np.asarray(entity_ids, dtype=np.int64)
    relation_ids = np.asarray(relation_ids, dtype=np.int64)
    check_ids(entity_ids, cfg.num_entities, "entity")  # before the dedup key can overflow
    check_ids(relation_ids, cfg.num_relations, "relation")
    if entity_ids.ndim != 1 or entity_ids.shape != relation_ids.shape:
        raise ShapeError(f"entity and relation ids must be two 1-d arrays of one length, got "
                         f"shapes {entity_ids.shape} and {relation_ids.shape}")
    shape = (entity_ids.size, cfg.num_entities)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == np.float64
              and out.flags.c_contiguous):
        raise ShapeError(f"out must be a C-contiguous float64 {shape} array, got "
                         f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}")
    query_ids = relation_ids + cfg.num_relations * (direction == "head")
    _, first, inverse = np.unique(entity_ids * (2 * cfg.num_relations) + query_ids,
                                  return_index=True, return_inverse=True)
    # slot[u]: the output row of distinct query u, its rank in order of first occurrence
    slot = np.empty_like(first)
    slot[np.argsort(first)] = np.arange(first.size)
    source = slot[inverse]  # <= the row itself: its query's first row is no later
    first.sort()
    hidden = hidden_rows(params, entity_ids[first], query_ids[first])[0].data
    ent = params.entity_emb.data.reshape((cfg.num_entities, cfg.entity_dim))
    np.matmul(hidden.reshape((-1, cfg.entity_dim)), ent.T, out=out[:first.size])
    # descending, so a row is read before its own copy overwrites it
    for row in np.flatnonzero(source != np.arange(source.size))[::-1]:
        out[row] = out[source[row]]
    return Tensor(out)


def score(params: ModelParams, h_id: int, t_id: int, r_id: int) -> float:
    """Interaction score of one triple in deterministic evaluation mode.

    Generates the mapping matrix M_k = W_k x3 r_k of each partition, then
    sums the per-partition quadratic forms h_k^T M_k t_k.
    """
    cfg = params.config
    ids = np.asarray([h_id, t_id], dtype=np.int64)
    check_ids(ids, cfg.num_entities, "entity")
    check_ids(np.asarray([r_id], dtype=np.int64), cfg.num_relations, "relation")

    core = np.broadcast_to(params.core.data, (cfg.k, cfg.ce, cfg.ce, cfg.cr))
    hp = Tensor(params.entity_emb.data[[h_id]])  # (1, K, Ce)
    hp = _normalize_and_drop(params, hp, "bn_input", 0.0, training=False, rng=None).data[0]
    rp = params.relation_emb.data[r_id]  # (K, Cr)
    hidden = np.einsum("ki,kij->kj", hp, np.einsum("kijl,kl->kij", core, rp))
    hidden = _normalize_and_drop(params, Tensor(hidden[None]), "bn_hidden", 0.0, training=False,
                                 rng=None)
    return float(np.sum(hidden.data[0] * params.entity_emb.data[t_id]))


def mean_orthogonality_gap(params: ModelParams) -> float:
    """Mean over relations and partitions of ||M_k^T M_k - I||_F."""
    gap = T.gram_gap(T.relation_mappings(params.core, params.relation_emb).data)
    return float(np.sqrt((gap**2).sum(axis=(2, 3))).mean())

