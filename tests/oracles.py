"""Independent brute-force oracles shared by the module and acceptance tests.

The scoring and ranking oracles are deliberately written as plain loops
over numpy scalars, independent of the library's contraction kernels; the
block-term score alone uses einsum, in the contraction order `score` does
not use. `make_special_case` builds the DistMult, ComplEx and RESCAL models
whose scores the subsumption checks compare with the classic oracles. The
partition view is the layout the embedding tables keep. The three taped
ops at the end serve the tests only: the probe reduces an op's output to a
scalar loss term for the gradient checks, the sine has a closed-form
derivative, and the dense softmax cross-entropy is the reference for the
fused one. `filtered_rank` is no oracle: it ranks one row of scores
through the library's own `_rank_values`, which is what its checks
exercise.
"""

import math

import numpy as np

from meim.data import check_ids
from meim.errors import ConfigError, ShapeError
from meim.evaluation import _check_tie_policy, _rank_values
from meim.model import ModelConfig, ModelParams
from meim.tensor import Tensor, _check_target_rows, _node, as_tensor


def brute_force_score(core: np.ndarray, h: np.ndarray, t: np.ndarray, r: np.ndarray) -> float:
    """Five-nested-loop sum_{k,i,j,l} W[k,i,j,l] h[k,i] t[k,j] r[k,l].

    `core` has leading size K (independent) or 1 (shared, reused per k).
    """
    k_parts, ce = h.shape
    cr = r.shape[1]
    total = 0.0
    for k in range(k_parts):
        w = core[min(k, core.shape[0] - 1)]
        for i in range(ce):
            for j in range(ce):
                for l in range(cr):
                    total += w[i, j, l] * h[k, i] * t[k, j] * r[k, l]
    return total


def blockterm_score(core: np.ndarray, h: np.ndarray, t: np.ndarray, r: np.ndarray) -> float:
    """The same sum in block-term order: W_k x1 h_k first, then x3 r_k, then the dot with t_k.

    `core` is broadcast to K partitions as in `brute_force_score`.
    """
    core = np.broadcast_to(core, (h.shape[0],) + core.shape[1:])
    hidden = np.einsum("kjl,kl->kj", np.einsum("kijl,ki->kjl", core, h), r)
    return float(np.sum(hidden * t))


def trilinear_score(h: np.ndarray, t: np.ndarray, r: np.ndarray) -> float:
    """sum_i h_i t_i r_i over flat vectors."""
    return float(np.sum(h * r * t))


def complex_trilinear_score(h: np.ndarray, t: np.ndarray, r: np.ndarray) -> float:
    """Re(sum_k conj(h_k) r_k t_k) over (K, 2) arrays of (real, imaginary) parts."""
    hc = h[:, 0] - 1j * h[:, 1]
    rc = r[:, 0] + 1j * r[:, 1]
    tc = t[:, 0] + 1j * t[:, 1]
    return float(np.real(np.sum(hc * rc * tc)))


def rescal_score(h: np.ndarray, t: np.ndarray, r: np.ndarray, ce: int) -> float:
    """h^T M t with M the relation vector reshaped row-major to (ce, ce)."""
    return float(h @ r.reshape(ce, ce) @ t)


def make_special_case(kind: str, num_entities: int, num_relations: int, k: int = 1, ce: int = 1,
                      rng=None) -> ModelParams:
    """A MEI model whose frozen core makes `score` DistMult, ComplEx or RESCAL.

    Each partition's mapping is r_k for DistMult (Ce = Cr = 1), [[r0, -r1], [r1, r0]]
    for ComplEx, and r reshaped row-major to ce x ce for RESCAL (k=1). `ModelParams(config,
    rng)` draws the embeddings, then the core (the last draw), which the constant replaces.
    """
    ce, cr, core = {  # core[0, :, :, l] is the coefficient matrix of r_l
        "distmult": (1, 1, np.ones((1, 1, 1, 1))),
        "complex": (2, 2, np.stack([np.eye(2), [[0.0, -1.0], [1.0, 0.0]]], axis=-1)[None]),
        "rescal": (ce, ce * ce, np.eye(ce * ce).reshape((1, ce, ce, ce * ce))),
    }[kind]
    params = ModelParams(ModelConfig(num_entities, num_relations, k=k, ce=ce, cr=cr,
                                     core_mode="shared", batchnorm=False), rng)
    params.state["core"] = Tensor(core, requires_grad=False)
    return params


def known_tails(store, h: int, r: int, splits=("train", "valid", "test")) -> list[int]:
    """Every t with (h, t, r) in the given splits, by a scan over all their triples."""
    return [int(t) for s in splits for hh, t, rr in store.splits[s] if hh == h and rr == r]


def known_heads(store, t: int, r: int, splits=("train", "valid", "test")) -> list[int]:
    """Every h with (h, t, r) in the given splits, by a scan over all their triples."""
    return [int(h) for s in splits for h, tt, rr in store.splits[s] if tt == t and rr == r]


def exhaustive_rank(score_fn, num_entities: int, true_id: int, filter_ids,
                    tie_policy: str = "average") -> float:
    """Rank of the true entity by scoring every corruption individually."""
    banned = set(int(i) for i in np.asarray(filter_ids).ravel())
    s_true = score_fn(true_id)
    better = equal = 0
    for e in range(num_entities):
        if e == true_id or e in banned:
            continue
        s = score_fn(e)
        if s > s_true:
            better += 1
        elif s == s_true:
            equal += 1
    if tie_policy == "optimistic":
        return 1.0 + better
    if tie_policy == "pessimistic":
        return 1.0 + better + equal
    return 1.0 + better + equal / 2.0


def filtered_rank(scores, true_id: int, filter_ids, tie_policy: str = "average") -> int:
    """Rank of `true_id` among entities not in `filter_ids` (1 is best).

    `filter_ids` may repeat an id or contain `true_id`, which is never
    filtered. The integer report rounds the average-tie rank half up; the
    unrounded value is what MRR is computed from. An id outside the scores
    raises IdLookupError.
    """
    _check_tie_policy(tie_policy)
    scores = np.asarray(scores, dtype=np.float64)
    true = np.array([true_id], dtype=np.int64)
    ids = np.unique(np.asarray(filter_ids, dtype=np.int64))
    check_ids(np.concatenate([true, ids]), scores.size, "entity")
    rank = _rank_values(scores[None], true, np.array([0, ids.size]), ids, tie_policy)
    return int(math.floor(rank[0] + 0.5))


def partition(flat, k: int, c: int) -> Tensor:
    """View a flat embedding vector as K contiguous partitions of size C."""
    flat = as_tensor(flat)
    if flat.ndim != 1:
        raise ConfigError(f"partition expects a flat vector, got shape {flat.shape}")
    if flat.shape[0] != k * c:
        raise ConfigError(f"cannot split a length-{flat.shape[0]} vector into {k} x {c}")
    return Tensor(flat.data.reshape((k, c)))


def probe(out, w) -> Tensor:
    """<out, w>, the sum of out * w for a fixed array w, as one taped scalar.

    Central differences of <f(x), w> check f's VJP applied to w.
    """
    out = as_tensor(out)
    w = np.asarray(w, dtype=np.float64)

    def vjp(g):
        return (g * w,)

    return _node(np.float64(np.sum(out.data * w)), (out,), vjp)


def sin(a) -> Tensor:
    """Taped elementwise sine, whose derivative is known in closed form."""
    a = as_tensor(a)

    def vjp(g):
        return (g * np.cos(a.data),)

    return _node(np.sin(a.data), (a,), vjp)


def softmax_cross_entropy(logits, targets) -> Tensor:
    """Total cross-entropy between row-softmax of `logits` and dense `targets`.

    The dense reference for `meim.tensor.matmul_softmax_cross_entropy`:
    stabilized by per-row max subtraction; probabilities are floored at
    1e-300 before the log. Every target row must sum to one within 1e-9.
    Returns the sum over rows as a scalar.
    """
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-d, got shape {logits.shape}")
    if t.shape != logits.shape:
        raise ShapeError(f"targets shape {t.shape} does not match logits shape {logits.shape}")
    _check_target_rows(t.sum(axis=1))

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    value = -(t * np.log(np.maximum(p, 1e-300))).sum()

    def vjp(g):
        return (g * (p - t),)

    return _node(np.float64(value), (logits,), vjp)
