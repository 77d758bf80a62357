"""Filtered link-prediction evaluation: ranks, MRR, Hits@{1,3,10}.

For each triple both directions are scored against every entity; all other
known-true answers of the query are removed from the candidate list before
ranking (the target itself is always kept). Ties are resolved by the
configured policy, "average" by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import queries
from .errors import ConfigError, EvaluationError
from .model import ModelConfig, ModelParams, all_entity_logits
from .tensor import score_block_rows

# weight of the other entities tied with the true one, per tie policy
TIE_POLICIES = {"average": 0.5, "optimistic": 0.0, "pessimistic": 1.0}
HITS_AT = (1, 3, 10)
DIRECTIONS = ("tail", "head")  # the columns of evaluate's ranks, in `data.queries` order
# most query rows per chunk and direction, each direction in `_query_major` order: the
# benchmark times one evaluation step per tail chunk and its head chunk, from one
# tail-direction `all_entity_logits` call to the next, and counts its rows as triples, so a
# new chunk size redefines that step; without it YAGO3-10's table term would allow 1,000 rows
_CHUNK_TRIPLES = 512
# least budget of a chunk's score block, small enough that ranking reads the block back from
# cache (144 rows of FB15k-237's 14,541 entities); the fused loss keeps its own, 32 MiB
_RANK_BLOCK_BYTES = 16 * 2**20


@dataclass
class MetricsReport:
    mrr: float
    hits: dict[int, float]
    per_relation: dict[int, float]
    per_direction: dict[str, dict]
    triple_count: int
    # one row per rank, tail then head for each triple: fields relation,
    # direction ("tail" / "head") and rank (unrounded, tie policy applied)
    records: np.recarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits1": self.hits[1],
            "hits3": self.hits[3],
            "hits10": self.hits[10],
            "per_relation": {str(k): v for k, v in sorted(self.per_relation.items())},
            "per_direction": self.per_direction,
            "triple_count": self.triple_count,
        }

    def format_table(self, relation_names: list[str] | None = None) -> str:
        lines = [
            f"{'':10s} {'MRR':>8s} {'H@1':>8s} {'H@3':>8s} {'H@10':>8s}",
            f"{'overall':10s} {self.mrr:8.4f} {self.hits[1]:8.4f} {self.hits[3]:8.4f} {self.hits[10]:8.4f}",
        ]
        for direction in DIRECTIONS:
            d = self.per_direction[direction]
            lines.append(
                f"{direction:10s} {d['mrr']:8.4f} {d['hits1']:8.4f} {d['hits3']:8.4f} {d['hits10']:8.4f}"
            )
        lines.append(f"triples: {self.triple_count}")
        if self.per_relation:
            lines.append("per-relation MRR:")
            for rel, mrr in sorted(self.per_relation.items()):
                name = relation_names[rel] if relation_names else str(rel)
                lines.append(f"  {name:40s} {mrr:8.4f}")
        return "\n".join(lines)


def _rank_values(scores: np.ndarray, true_ids: np.ndarray, offsets: np.ndarray,
                 filter_ids: np.ndarray, tie_policy: str) -> np.ndarray:
    """Unrounded filtered rank of each row's true id, for a (B, E) block of scores.

    Row n ignores the entities `filter_ids[offsets[n]:offsets[n+1]]`, which
    are distinct within a row, except its true id, which is never filtered.
    Each row is read twice, counting the scores above and below the true one;
    only a row where more than the true id is left is scanned for NaN.
    """
    rows = np.arange(len(true_ids))
    s_true = scores[rows, true_ids]
    # one row at a time, so the second pass reads the row from cache: over the whole block
    # each pass streams it from memory, twice as slow at 512 x 40,943 (2-core Xeon, numpy 2.4)
    mask = np.empty(scores.shape[1], dtype=bool)
    counts = np.array([(np.count_nonzero(np.greater(row, s, out=mask)),
                        np.count_nonzero(np.less(row, s, out=mask)))
                       for row, s in zip(scores, s_true)]).reshape(-1, 2)
    # the rest are the true id, its ties and any NaN; a NaN true score leaves 1 when E = 1
    better, rest = counts[:, 0], scores.shape[1] - counts.sum(axis=1)
    if np.isnan(s_true).any() or any(np.isnan(scores[n].min()) for n in np.flatnonzero(rest != 1)):
        raise EvaluationError("NaN score encountered during ranking")
    equal = rest - 1  # the true id equals itself
    # take the filtered entities back out of both counts
    owner = np.repeat(rows, np.diff(offsets))
    kept = filter_ids != true_ids[owner]
    owner, filtered = owner[kept], scores[owner[kept], filter_ids[kept]]
    better -= np.bincount(owner[filtered > s_true[owner]], minlength=rows.size)
    equal -= np.bincount(owner[filtered == s_true[owner]], minlength=rows.size)
    return 1.0 + better + equal * TIE_POLICIES[tie_policy]


def _check_tie_policy(tie_policy: str):
    if tie_policy not in TIE_POLICIES:
        raise ConfigError(f"tie_policy must be one of {tuple(TIE_POLICIES)}, got {tie_policy!r}")


def _metrics(ranks: np.ndarray) -> dict:
    return {
        "mrr": float((1.0 / ranks).mean()),
        **{f"hits{k}": float((ranks <= k).mean()) for k in HITS_AT},
    }


def per_relation_report(relations, ranks) -> dict[int, float]:
    """MRR restricted to each relation, both directions pooled; `ranks[i]` is a rank of `relations[i]`."""
    order = np.argsort(relations, kind="stable")  # each relation's ranks keep their order
    rels, starts = np.unique(np.asarray(relations)[order], return_index=True)
    groups = np.split(1.0 / np.asarray(ranks, dtype=np.float64)[order], starts[1:])
    return {int(rel): float(np.mean(group)) for rel, group in zip(rels, groups)}


def check_vocabulary(config: ModelConfig, store):
    """ConfigError unless the model has the store's entity and relation counts."""
    if (config.num_entities, config.num_relations) != (store.num_entities, store.num_relations):
        raise ConfigError(f"the model has {config.num_entities} entities / {config.num_relations} "
                          f"relations, so it cannot be trained on or evaluated against the "
                          f"store's {store.num_entities} / {store.num_relations}")


def _chunk_rows(table: np.ndarray) -> int:
    """Query rows per chunk and direction: _CHUNK_TRIPLES, or fewer where a block of
    scores would exceed _RANK_BLOCK_BYTES or, if larger, twice the table's bytes."""
    return min(_CHUNK_TRIPLES, score_block_rows(table, _RANK_BLOCK_BYTES))


def _query_major(known: np.ndarray, query: np.ndarray, size: int) -> np.ndarray:
    """The order in which one direction's query rows are ranked, cut into chunks of `size`.

    Rows go by query id, then known entity, so a query's repeats are neighbours
    and a chunk spans few relations. Within each chunk the first row of each
    query comes first and its repeats last, so scoring the chunk copies only
    the repeats' rows.
    """
    order = np.lexsort((known, query))
    known, query = known[order], query[order]
    repeat = np.zeros(len(order), dtype=bool)
    repeat[1:] = (known[1:] == known[:-1]) & (query[1:] == query[:-1])
    repeat[::size] = False  # a query's first row in a chunk is scored there
    return order[np.lexsort((repeat, np.arange(len(order)) // size))]


def evaluate(params: ModelParams, store, split: str, filter_index,
             tie_policy: str = "average") -> MetricsReport:
    """Filtered metrics over one split, in deterministic evaluation mode.

    Raises ConfigError if the store has no split `split`, or if the model's
    entity or relation count is not the store's. Each direction's query rows
    are ranked in `_query_major` order, in chunks of at most `_chunk_rows`
    rows, so at small K*C a chunk's block of scores is still in cache when it
    is ranked. Tail chunk i, then head chunk i: the two hold as many rows,
    which may belong to different triples. A query repeated within a chunk is
    scored once and its row copied. The report's records keep the split's
    order.
    """
    _check_tie_policy(tie_policy)
    check_vocabulary(params.config, store)
    if split not in store.splits:
        raise ConfigError(f"unknown split {split!r}; the store has splits {list(store.splits)}")
    triples = store.splits[split]
    if len(triples) == 0:
        raise EvaluationError(f"split {split!r} is empty, nothing to rank")
    n, size = len(triples), _chunk_rows(params.entity_emb.data)
    known, query, answer = queries(triples, filter_index.num_relations)
    ranks = np.empty((n, 2))  # columns: tail, head
    # every chunk and direction is scored into this one buffer, so no (chunk, E)
    # block is allocated, and page-faulted, per product
    scores = np.empty((min(size, n), params.config.num_entities))
    orders = [_query_major(known[col * n:(col + 1) * n], query[col * n:(col + 1) * n], size)
              for col in range(len(DIRECTIONS))]
    for start in range(0, n, size):
        for col, direction in enumerate(DIRECTIONS):
            at = orders[col][start:start + size]
            rows = at + col * n
            filtered = filter_index.answers(known[rows], query[rows])
            # each block of scores is ranked before the next product overwrites it
            ranks[at, col] = _rank_values(
                all_entity_logits(params, known[rows], triples[at, 2], direction,
                                  out=scores[:len(at)]).data,
                answer[rows], *filtered, tie_policy)

    relations = np.repeat(triples[:, 2], 2)
    all_ranks = ranks.ravel()
    return MetricsReport(
        mrr=float((1.0 / all_ranks).mean()),
        hits={k: float((all_ranks <= k).mean()) for k in HITS_AT},
        per_relation=per_relation_report(relations, all_ranks),
        per_direction={d: _metrics(ranks[:, col]) for col, d in enumerate(DIRECTIONS)},
        triple_count=len(triples),
        records=np.rec.fromarrays([relations, np.tile(DIRECTIONS, len(triples)), all_ranks],
                                  names=("relation", "direction", "rank")),
    )
