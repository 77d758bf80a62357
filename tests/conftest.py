import numpy as np
import pytest

from meim.data import SPLIT_FILES, TripleStore


def random_store(num_entities, num_relations, n_train, n_valid=0, n_test=0, seed=0):
    """Synthetic KG with unique random triples per split."""
    rng = np.random.default_rng(seed)
    total = n_train + n_valid + n_test
    seen = set()
    rows = []
    while len(rows) < total:
        h = int(rng.integers(num_entities))
        t = int(rng.integers(num_entities))
        r = int(rng.integers(num_relations))
        if (h, t, r) not in seen:
            seen.add((h, t, r))
            rows.append((h, t, r))
    rows = np.array(rows, dtype=np.int32)
    return TripleStore.from_ids(
        num_entities,
        num_relations,
        {
            "train": rows[:n_train],
            "valid": rows[n_train:n_train + n_valid],
            "test": rows[n_train + n_valid:],
        },
    )


def save_triples(store, directory):
    """Write `store` as the text files `load_triples` reads."""
    directory.mkdir(exist_ok=True)
    for split, fname in SPLIT_FILES.items():
        (directory / fname).write_text("".join(
            f"{store.entity_names[h]}\t{store.relation_names[r]}\t{store.entity_names[t]}\n"
            for h, t, r in store.splits[split]), encoding="utf-8")


@pytest.fixture
def tiny_store():
    return random_store(num_entities=7, num_relations=3, n_train=12, n_valid=4, n_test=4, seed=3)
