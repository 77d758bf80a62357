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
from .data import check_ids
from .errors import ConfigError, ValidationError
from .tensor import BatchNorm, Tensor

CORE_MODES = ("shared", "independent")
SAMPLING_MODES = ("1vsall", "kvsall")
SCORE_MODES = ("bilinear", "blockterm")


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
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer, got {getattr(self, name)}")
        for name in ("input_dropout", "hidden_dropout"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        for name in ("lambda_ortho", "lambda_unitnorm", "seed"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")
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


def state_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of every array of `ModelParams.state_arrays()`, from the config alone."""
    features = config.ce if config.bn_per_partition else config.entity_dim
    shapes = {"entity_emb": (config.num_entities, config.k, config.ce),
              "relation_emb": (config.num_relations, config.k, config.cr),
              "core": (config.num_cores, config.ce, config.ce, config.cr)}
    for prefix in ("bn_input", "bn_hidden"):
        shapes.update({f"{prefix}.{key}": (features,) for key in BatchNorm.STATE})
    return shapes


class ModelParams:
    """The full trainable state: embeddings, core bank, normalization layers.

    Tables are initialized uniform in [-b, b] with b = sqrt(6 / (fan_in +
    fan_out)) per slice: partition rows use fan_in = fan_out = C, and each
    core tensor is treated as a map from the relation partition (Cr) to a
    Ce x Ce matrix.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 core_override: Tensor | None = None):
        self.config = config
        rng = np.random.default_rng(config.seed) if rng is None else rng
        shapes = state_shapes(config)

        def uniform(bound, name):
            return Tensor(rng.uniform(-bound, bound, size=shapes[name]), requires_grad=True)

        self.entity_emb = uniform(np.sqrt(3.0 / config.ce), "entity_emb")
        self.relation_emb = uniform(np.sqrt(3.0 / config.cr), "relation_emb")
        if core_override is not None:
            if tuple(core_override.shape) != shapes["core"]:
                raise ConfigError(
                    f"core override shape {tuple(core_override.shape)} does not match {shapes['core']}"
                )
            self.core = core_override
        else:
            self.core = uniform(np.sqrt(6.0 / (config.cr + config.ce * config.ce)), "core")
        self.bn_input = BatchNorm(shapes["bn_input.gamma"][0])
        self.bn_hidden = BatchNorm(shapes["bn_hidden.gamma"][0])

    @classmethod
    def from_state_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "ModelParams":
        """The model whose `state_arrays()` are `arrays`, taken as given, with no random draw."""
        params = cls.__new__(cls)
        params.config = config
        params.entity_emb, params.relation_emb, params.core = (
            Tensor(np.asarray(arrays[name], dtype=np.float64), requires_grad=True)
            for name in ("entity_emb", "relation_emb", "core"))
        params.bn_input, params.bn_hidden = (
            BatchNorm.from_state_arrays({key: arrays[f"{prefix}.{key}"] for key in BatchNorm.STATE})
            for prefix in ("bn_input", "bn_hidden"))
        return params

    def leaves(self) -> list[tuple[str, Tensor]]:
        """Named trainable tensors, in a stable order."""
        out = [("entity_emb", self.entity_emb), ("relation_emb", self.relation_emb)]
        if self.core.requires_grad:
            out.append(("core", self.core))
        if self.config.batchnorm:
            out += [
                ("bn_input.gamma", self.bn_input.gamma),
                ("bn_input.beta", self.bn_input.beta),
                ("bn_hidden.gamma", self.bn_hidden.gamma),
                ("bn_hidden.beta", self.bn_hidden.beta),
            ]
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every array needed to reconstruct the model state bitwise."""
        out = {name: getattr(self, name).data for name in ("entity_emb", "relation_emb", "core")}
        for prefix in ("bn_input", "bn_hidden"):
            out.update({f"{prefix}.{key}": arr for key, arr in getattr(self, prefix).state_arrays().items()})
        return out


def generate_mappings(params: ModelParams,
                      relation_ids) -> tuple[Tensor, Tensor, np.ndarray, np.ndarray]:
    """Mapping matrices of the U distinct relations among `relation_ids`, by one GEMM.

    m[u,k,i,j] = sum_l W[k,i,j,l] r[u,k,l]; in shared core mode the single
    core tensor is broadcast over partitions. Returns the (U, K, Ce, Ce)
    mappings in ascending relation order, the (U, K, Cr) relation
    partitions, the index of each example's relation among the distinct
    ones, and how often each distinct relation occurs. The contraction
    costs O(U K Ce^2 Cr) forward and backward, whatever the batch size.
    """
    cfg = params.config
    rel_ids = np.asarray(relation_ids, dtype=np.int64)
    check_ids(rel_ids, cfg.num_relations, "relation")
    uniq, inverse, counts = np.unique(rel_ids, return_inverse=True, return_counts=True)
    rel_part = T.gather_rows(params.relation_emb, uniq)  # (U, K, Cr)
    flat_core = params.core.reshape((cfg.num_cores, cfg.ce * cfg.ce, cfg.cr))
    m = T.matmul(flat_core, rel_part.transpose((1, 2, 0)))  # (K, Ce*Ce, U)
    m = m.transpose((2, 0, 1)).reshape((uniq.size, cfg.k, cfg.ce, cfg.ce))
    return m, rel_part, inverse, counts


def _normalize_and_drop(params: ModelParams, x: Tensor, layer: BatchNorm, drop_rate: float,
                        training: bool, rng) -> Tensor:
    """Batch norm (if enabled) then inverted dropout over (B, K, Ce) rows."""
    cfg = params.config
    b = x.shape[0]
    if cfg.batchnorm:
        if cfg.bn_per_partition:
            x = layer(x.reshape((b * cfg.k, cfg.ce)), training)
        else:
            x = layer(x.reshape((b, cfg.entity_dim)), training)
    x = T.dropout(x, drop_rate, rng, training)
    return x.reshape((b, cfg.k, cfg.ce))


def hidden_rows(params: ModelParams, known_ids, query_ids, training: bool = False,
                rng=None) -> tuple[Tensor, Tensor, Tensor, np.ndarray]:
    """Hidden rows of (known entity, query id) queries, as encoded by `data.queries`.

    Each row is (dropout o bn)(e_known) mapped through M_q for a query id
    q < R, or through M_{q-R}^T for q >= R, then (dropout o bn) of the
    result; all rows share the normalization statistics. Each distinct
    mapping, or its transpose read in place, is applied to its group of rows
    by one GEMM. A row scores every entity by a dot product with its embedding.
    Also returns, for the regularizer, the mappings, relation partitions
    and counts of generate_mappings for the distinct relations q mod R;
    the counts are per query row, so a batch's triple counts twice.
    """
    cfg = params.config
    known_ids = np.asarray(known_ids, dtype=np.int64)
    query_ids = np.asarray(query_ids, dtype=np.int64)
    check_ids(known_ids, cfg.num_entities, "entity")
    check_ids(query_ids, 2 * cfg.num_relations, "query")
    mappings, rel_part, inverse, counts = generate_mappings(params, query_ids % cfg.num_relations)
    group = inverse + counts.size * (query_ids >= cfg.num_relations)  # >= U: transposed
    x = T.gather_rows(params.entity_emb, known_ids)
    x = _normalize_and_drop(params, x, params.bn_input, cfg.input_dropout, training, rng)
    hidden = T.grouped_matmul(x, mappings, group)
    hidden = _normalize_and_drop(params, hidden, params.bn_hidden, cfg.hidden_dropout, training, rng)
    return hidden.reshape((known_ids.size, cfg.entity_dim)), mappings, rel_part, counts


def all_entity_logits(params: ModelParams, entity_ids, relation_ids, direction: str) -> Tensor:
    """Scores of every entity for a batch of (known entity, relation) queries, in evaluation mode.

    direction "tail" scores h^T M_r e over all e; direction "head" scores
    e^T M_r t over all e via the transposed mapping. Returns (B, |E|).
    """
    if direction not in ("tail", "head"):
        raise ValidationError(f"direction must be 'tail' or 'head', got {direction!r}")
    cfg = params.config
    relation_ids = np.asarray(relation_ids, dtype=np.int64)
    check_ids(relation_ids, cfg.num_relations, "relation")
    query_ids = relation_ids + cfg.num_relations * (direction == "head")
    hidden = hidden_rows(params, entity_ids, query_ids)[0]
    ent = params.entity_emb.reshape((cfg.num_entities, cfg.entity_dim))
    return T.matmul(hidden, ent.swapaxes(0, 1))


def score(params: ModelParams, h_id: int, t_id: int, r_id: int, mode: str = "bilinear") -> float:
    """Interaction score of one triple in deterministic evaluation mode.

    "bilinear" generates the mapping matrix for each partition and applies
    the quadratic form; "blockterm" contracts the core with the head
    partition first. Both orders compute the same sum of per-partition
    scores and agree to float accumulation noise.
    """
    cfg = params.config
    ids = np.asarray([h_id, t_id], dtype=np.int64)
    check_ids(ids, cfg.num_entities, "entity")
    check_ids(np.asarray([r_id], dtype=np.int64), cfg.num_relations, "relation")
    if mode not in SCORE_MODES:
        raise ValidationError(f"mode must be one of {SCORE_MODES}, got {mode!r}")

    core = np.broadcast_to(params.core.data, (cfg.k, cfg.ce, cfg.ce, cfg.cr))
    hp = Tensor(params.entity_emb.data[h_id]).reshape((1, cfg.k, cfg.ce))
    hp = _normalize_and_drop(params, hp, params.bn_input, 0.0, training=False, rng=None).data[0]
    rp = params.relation_emb.data[r_id]  # (K, Cr)
    if mode == "bilinear":  # the mapping M_k = W_k x3 r_k first, then h_k^T M_k
        hidden = np.einsum("ki,kij->kj", hp, np.einsum("kijl,kl->kij", core, rp))
    else:  # block-term order: W_k x1 h_k first, then x3 r_k
        hidden = np.einsum("kjl,kl->kj", np.einsum("kijl,ki->kjl", core, hp), rp)
    hidden = _normalize_and_drop(params, Tensor(hidden).reshape((1, cfg.k, cfg.ce)),
                                 params.bn_hidden, 0.0, training=False, rng=None)
    return float(np.sum(hidden.data[0] * params.entity_emb.data[t_id]))


def mean_orthogonality_gap(params: ModelParams) -> float:
    """Mean over relations and partitions of ||M_k^T M_k - I||_F."""
    cfg = params.config
    m = generate_mappings(params, np.arange(cfg.num_relations))[0].data
    gram = np.einsum("rkij,rkil->rkjl", m, m)
    gram -= np.eye(cfg.ce)
    return float(np.sqrt((gram**2).sum(axis=(2, 3))).mean())


def make_special_case(kind: str, num_entities: int, num_relations: int, k: int = 1,
                      ce: int | None = None) -> tuple[ModelConfig, Tensor]:
    """Config plus a constant core reproducing a classic bilinear model.

    "distmult" uses scalar partitions (Ce = Cr = 1) and an identity core,
    so the score is the trilinear sum over partitions. "complex" uses
    2-dimensional partitions with the rotation-scaling pattern
    [[r0, -r1], [r1, r0]]. "rescal" uses a single partition whose mapping
    matrix is the relation vector reshaped to Ce x Ce (so Cr = Ce^2).
    The returned core is non-trainable.
    """
    if kind == "distmult":
        if ce not in (None, 1):
            raise ConfigError(f"distmult requires Ce = Cr = 1, got ce={ce}")
        config = ModelConfig(num_entities, num_relations, k=k, ce=1, cr=1,
                             core_mode="shared", batchnorm=False)
        core = np.ones((1, 1, 1, 1))
    elif kind == "complex":
        if ce not in (None, 2):
            raise ConfigError(f"complex requires Ce = Cr = 2, got ce={ce}")
        config = ModelConfig(num_entities, num_relations, k=k, ce=2, cr=2,
                             core_mode="shared", batchnorm=False)
        core = np.zeros((1, 2, 2, 2))
        core[0, 0, 0, 0] = 1.0  # m[0,0] = r0
        core[0, 0, 1, 1] = -1.0  # m[0,1] = -r1
        core[0, 1, 0, 1] = 1.0  # m[1,0] = r1
        core[0, 1, 1, 0] = 1.0  # m[1,1] = r0
    elif kind == "rescal":
        if k != 1:
            raise ConfigError(f"rescal requires a single partition, got k={k}")
        if ce is None or ce < 1:
            raise ConfigError("rescal requires an explicit entity partition size")
        config = ModelConfig(num_entities, num_relations, k=1, ce=ce, cr=ce * ce,
                             core_mode="shared", batchnorm=False)
        core = np.zeros((1, ce, ce, ce * ce))
        for i in range(ce):
            for j in range(ce):
                core[0, i, j, i * ce + j] = 1.0  # m = relation vector reshaped row-major
    else:
        raise ConfigError(f"unknown special case {kind!r}")
    return config, Tensor(core, requires_grad=False)
