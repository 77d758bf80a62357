"""Seeded synthetic knowledge graphs at the real benchmark vocabulary sizes.

The real WN18RR and FB15k-237 files are not shipped, so the benchmark builds
graphs with their entity, relation and split sizes. WN18RR relations occur
as often as in the real train split (`WN18RR_RELATION_COUNTS`). FB15k-237
relation frequencies, and the entity frequencies of both graphs, follow Zipf
laws whose exponents are stand-ins, not fitted to the real data. Heads and
tails have independent popularity orders. A few (entity, relation) queries
then have hundreds of answers while most have one or two, so k-vs-all target
sets and filter sets have a long tail; how closely it matches the real
datasets' is unverified. Every entity and relation occurs in train, so
loading the files gives back the full vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class GraphShape:
    num_entities: int
    num_relations: int
    train: int
    valid: int
    test: int
    relation_counts: tuple[int, ...] = ()  # train triples per relation, when known


# Train triples per WN18RR relation, most frequent first: hypernym,
# derivationally_related_form, member_meronym, has_part,
# synset_domain_topic_of, instance_hypernym, also_see, verb_group,
# member_of_domain_region, member_of_domain_usage, similar_to. They sum to the
# 86,835 train triples of the release by Dettmers et al. (2018).
WN18RR_RELATION_COUNTS = (34_796, 29_715, 7_402, 4_816, 3_116, 2_921, 1_299, 1_138, 923, 629,
                          80)

# vocabulary and split sizes of the published datasets
SHAPES = {
    "wn18rr": GraphShape(40_943, 11, 86_835, 3_034, 3_134, WN18RR_RELATION_COUNTS),
    "fb15k-237": GraphShape(14_541, 237, 272_115, 17_535, 20_466),
}

# stand-in exponents, not fitted to either dataset
ENTITY_ZIPF = 0.9
RELATION_ZIPF = 1.0  # for graphs without relation_counts


def _zipf(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf probabilities over n items, in a random popularity order."""
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return rng.permutation(weights / weights.sum())


def _relation_probabilities(shape: GraphShape, rng: np.random.Generator) -> np.ndarray:
    """Relation frequencies: the known counts, or a Zipf law, in a random order."""
    if not shape.relation_counts:
        return _zipf(shape.num_relations, RELATION_ZIPF, rng)
    counts = np.asarray(shape.relation_counts, dtype=float)
    return rng.permutation(counts / counts.sum())


def _coverage(shape: GraphShape, p_rel: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Distinct triples that use every entity and every relation at least once.

    Relations past the first one of each are drawn from `p_rel`, so the
    coverage triples keep the relation frequencies.
    """
    e, r = shape.num_entities, shape.num_relations
    perm = rng.permutation(e)
    half = (e + 1) // 2
    rel = np.concatenate([rng.permutation(r), rng.choice(r, max(0, half - r), p=p_rel)])
    return np.stack([perm[:half], np.resize(rel, half), perm[e - half:]], axis=1)


def coverage(shape: GraphShape, seed: int) -> np.ndarray:
    """A small graph over the full vocabulary, from a stream apart from `generate`'s."""
    rng = np.random.default_rng((seed, 1))
    return _coverage(shape, _relation_probabilities(shape, rng), rng)


def generate(shape: GraphShape, seed: int) -> dict[str, np.ndarray]:
    """Distinct (head, relation, tail) id triples for each split.

    The same shape and seed always give the same arrays. No triple occurs
    twice across all splits.
    """
    rng = np.random.default_rng(seed)
    e, r = shape.num_entities, shape.num_relations
    p_rel = _relation_probabilities(shape, rng)
    cover = _coverage(shape, p_rel, rng)
    half = len(cover)

    p_head, p_tail = _zipf(e, ENTITY_ZIPF, rng), _zipf(e, ENTITY_ZIPF, rng)
    total = shape.train + shape.valid + shape.test
    rows = cover
    while True:
        keys = (rows[:, 0].astype(np.int64) * r + rows[:, 1]) * e + rows[:, 2]
        _, first = np.unique(keys, return_index=True)
        rows = rows[np.sort(first)]  # distinct, in first-occurrence order
        if len(rows) >= total:
            break
        n = int((total - len(rows)) * 1.3) + 1000
        drawn = np.stack([rng.choice(e, n, p=p_head), rng.choice(r, n, p=p_rel),
                          rng.choice(e, n, p=p_tail)], axis=1)
        rows = np.concatenate([rows, drawn])

    rows = rows[:total]
    # coverage rows stay in train; the rest is shuffled before the split
    rest = rows[half:][rng.permutation(total - half)]
    n_extra = shape.train - half
    train = np.concatenate([rows[:half], rest[:n_extra]])[rng.permutation(shape.train)]
    return {
        "train": train,
        "valid": rest[n_extra:n_extra + shape.valid],
        "test": rest[n_extra + shape.valid:],
    }


def write_dataset(splits: dict[str, np.ndarray], directory) -> Path:
    """Write the splits as head<TAB>relation<TAB>tail text files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        lines = [f"ent{h}\trel{r}\tent{t}\n" for h, r, t in splits[split].tolist()]
        (directory / f"{split}.txt").write_text("".join(lines), encoding="utf-8")
    return directory


def answer_set_sizes(triples: np.ndarray, num_entities: int, num_relations: int) -> np.ndarray:
    """Sizes of the answer sets of every (head, relation) and (tail, relation) query.

    `triples` holds (head, relation, tail) columns.
    """
    h, r, t = (triples[:, i].astype(np.int64) for i in range(3))
    tail_q = np.unique(h * num_relations + r, return_counts=True)[1]
    head_q = np.unique(t * num_relations + r, return_counts=True)[1]
    return np.concatenate([tail_q, head_q])


def describe(splits: dict[str, np.ndarray], shape: GraphShape) -> dict:
    """Split sizes, train triples per relation and the k-vs-all answer-set sizes over train."""
    sizes = answer_set_sizes(splits["train"], shape.num_entities, shape.num_relations)
    per_relation = np.bincount(splits["train"][:, 1], minlength=shape.num_relations)
    return {
        "num_entities": shape.num_entities,
        "num_relations": shape.num_relations,
        "split_sizes": {s: int(len(splits[s])) for s in SPLITS},
        "train_relation_counts": sorted(per_relation.tolist(), reverse=True),
        "train_answer_set_sizes": {
            "queries": int(sizes.size),
            "mean": float(sizes.mean()),
            **{f"p{q}": float(np.percentile(sizes, q)) for q in (50, 90, 99)},
            "max": int(sizes.max()),
            "share_gt_1": float((sizes > 1).mean()),
        },
    }
