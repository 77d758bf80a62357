"""Triple loading, vocabularies, filter index, batching, and the binary cache."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import random_store, save_triples
from hypothesis import given, settings
from hypothesis import strategies as st

from meim.data import (
    TripleStore,
    batches,
    build_filter_index,
    load_cache,
    load_dataset,
    load_triples,
    queries,
    save_cache,
    save_container,
)
from meim.errors import CheckpointError, ConfigError, IdLookupError, ParseError

WN18RR_DIR = os.environ.get("MEIM_WN18RR_DIR")
FB15K237_DIR = os.environ.get("MEIM_FB15K237_DIR")


def write_dataset(directory: Path, train, valid=(), test=()):
    directory.mkdir(parents=True, exist_ok=True)
    for name, rows in (("train.txt", train), ("valid.txt", valid), ("test.txt", test)):
        (directory / name).write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))


# loads the dataset in argv[1] and prints how many resident bytes the process gained
RESIDENT_GROWTH = """
import os, sys
from meim.data import load_triples

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

before = resident()
store = load_triples(sys.argv[1])
print(resident() - before)
"""


def reference_load(rows_by_split):
    """Vocabularies, ids and the duplicate message by a loop over every triple in file order."""
    ent, rel, ids = {}, {}, {}
    for split, rows in rows_by_split.items():
        seen, out = set(), []
        for h, r, t in rows:
            if (h, r, t) in seen:
                return ent, rel, ids, f"duplicate triple in {split}: {h}\t{r}\t{t}"
            seen.add((h, r, t))
            out.append((ent.setdefault(h, len(ent)), ent.setdefault(t, len(ent)),
                        rel.setdefault(r, len(rel))))
        ids[split] = np.array(out, dtype=np.int32).reshape(-1, 3)
    return ent, rel, ids, None


class TestLoadTriples:
    @pytest.mark.parametrize("seed", range(8))
    def test_ids_and_duplicates_match_reference_loop(self, tmp_path, seed):
        rng = np.random.default_rng(seed)

        def triple():  # few names, so they repeat within and across splits
            return f"e{rng.integers(12)}", f"r{rng.integers(3)}", f"e{rng.integers(12)}"

        splits = {s: list(dict.fromkeys(triple() for _ in range(n)))
                  for s, n in (("train", 40), ("valid", 10), ("test", 10))}
        rows = splits[("train", "valid", "test")[seed % 3]]
        for _ in range(seed % 4):  # all but seeds 0 and 4 repeat earlier rows in one split
            at = int(rng.integers(1, len(rows) + 1))
            rows.insert(at, rows[int(rng.integers(at))])
        write_dataset(tmp_path, **splits)
        ent, rel, ids, duplicate = reference_load(splits)
        if duplicate is not None:
            with pytest.raises(ParseError) as err:
                load_triples(tmp_path)
            assert str(err.value) == duplicate
            return
        store = load_triples(tmp_path)
        assert store.entity_names == list(ent)
        assert store.relation_names == list(rel)
        for split in ("train", "valid", "test"):
            assert store.splits[split].dtype == np.int32
            np.testing.assert_array_equal(store.splits[split], ids[split])

    def test_synthetic_fixture(self, tmp_path):
        write_dataset(
            tmp_path,
            train=[("a", "likes", "b"), ("b", "likes", "a"), ("a", "likes", "a")],
        )
        store = load_triples(tmp_path)
        assert store.num_entities == 2
        assert store.num_relations == 1
        assert len(store.splits["train"]) == 3
        # first-seen order: a then b
        assert store.entity_names == ["a", "b"]
        np.testing.assert_array_equal(store.splits["train"][0], [0, 1, 0])

    def test_vocab_spans_all_splits(self, tmp_path):
        write_dataset(
            tmp_path,
            train=[("a", "r1", "b")],
            valid=[("c", "r1", "a")],
            test=[("d", "r2", "c")],
        )
        store = load_triples(tmp_path)
        assert store.entity_names == ["a", "b", "c", "d"]
        assert store.relation_names == ["r1", "r2"]

    def test_missing_file(self, tmp_path):
        write_dataset(tmp_path, train=[("a", "r", "b")])
        (tmp_path / "test.txt").unlink()
        with pytest.raises(FileNotFoundError):
            load_triples(tmp_path)

    def test_malformed_line_reports_number(self, tmp_path):
        write_dataset(tmp_path, train=[("a", "r", "b")])
        (tmp_path / "train.txt").write_text("a\tr\tb\nbad line without tabs\n")
        with pytest.raises(ParseError, match="train.txt:2"):
            load_triples(tmp_path)

    @pytest.mark.parametrize("newline", [b"\n", b"\r", b"\r\n"])
    def test_non_utf8_line_reports_number(self, tmp_path, newline):
        write_dataset(tmp_path, train=[("a", "r", "b")])
        train = tmp_path / "train.txt"
        # the bad byte is on line 3, after an empty line 2
        train.write_bytes(newline.join([b"a\tr\tb", b"", b"a\tr\t\xffb", b""]))
        with pytest.raises(ParseError, match=r"^train\.txt:3: not UTF-8"):
            load_triples(tmp_path)
        # the field-count error counts lines the same way
        train.write_bytes(newline.join([b"a\tr\tb", b"", b"a\tr", b""]))
        with pytest.raises(ParseError, match=r"^train\.txt:3: expected"):
            load_triples(tmp_path)

    def test_empty_splits_have_empty_vocabularies(self, tmp_path):
        write_dataset(tmp_path, train=[])
        store = load_triples(tmp_path)
        assert store.entity_names == [] and store.relation_names == []
        for split in ("train", "valid", "test"):
            assert store.splits[split].shape == (0, 3)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
    def test_load_keeps_only_the_vocabulary_resident(self, tmp_path):
        rng = np.random.default_rng(0)
        n, num_entities = 50_000, 20_000
        rows = np.unique(np.stack([rng.integers(num_entities, size=n), rng.integers(11, size=n),
                                   rng.integers(num_entities, size=n)], axis=1), axis=0)
        rows = [(f"entity{h}", f"relation{r}", f"entity{t}")
                for h, r, t in rows[rng.permutation(len(rows))].tolist()]
        write_dataset(tmp_path, train=rows[:45_000], valid=rows[45_000:47_500], test=rows[47_500:])
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        growth = int(subprocess.run([sys.executable, "-c", RESIDENT_GROWTH, str(tmp_path)], env=env,
                                    capture_output=True, text=True, check=True).stdout)
        # the store keeps about 1 MiB of ids and names. On x86-64 Linux (CPython
        # 3.11, glibc 2.36) the load grows the process by 9-10 MiB, most of it
        # freed heap and partly filled arenas; keeping the parse's own name
        # strings pinned their arenas and grew it by 19 MiB
        assert growth < 14 * 2**20, f"load_triples left {growth / 2**20:.1f} MiB resident"

    def test_duplicate_triple_rejected(self, tmp_path):
        write_dataset(tmp_path, train=[("a", "r", "b"), ("a", "r", "b")])
        with pytest.raises(ParseError, match="duplicate"):
            load_triples(tmp_path)

    def test_round_trip_preserves_ids(self, tmp_path):
        # canonicalize a synthetic store through one load; the second round
        # trip must then be an exact fixed point of ids and splits
        raw = random_store(20, 4, n_train=40, n_valid=8, n_test=8, seed=2)
        save_triples(raw, tmp_path / "raw")
        store = load_triples(tmp_path / "raw")
        save_triples(store, tmp_path / "ds")
        again = load_triples(tmp_path / "ds")
        assert again.entity_names == store.entity_names
        assert again.relation_names == store.relation_names
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(again.splits[split], store.splits[split])

    def test_deterministic_vocabulary(self, tmp_path):
        write_dataset(tmp_path, train=[("x", "r", "y"), ("z", "r", "x")])
        a = load_triples(tmp_path)
        b = load_triples(tmp_path)
        # the name lists define the ids
        assert a.entity_names == b.entity_names == ["x", "y", "z"]
        assert a.relation_names == b.relation_names == ["r"]

    @pytest.mark.skipif(WN18RR_DIR is None, reason="set MEIM_WN18RR_DIR to run")
    def test_wn18rr_statistics(self):
        store = load_triples(WN18RR_DIR)
        assert store.num_entities == 40943
        assert store.num_relations == 11
        assert len(store.splits["train"]) == 86835
        assert len(store.splits["valid"]) == 3034
        assert len(store.splits["test"]) == 3134

    @pytest.mark.skipif(FB15K237_DIR is None, reason="set MEIM_FB15K237_DIR to run")
    def test_fb15k237_statistics(self):
        store = load_triples(FB15K237_DIR)
        assert store.num_entities == 14541
        assert store.num_relations == 237
        assert len(store.splits["train"]) == 272115


class TestQueries:
    def test_tail_rows_then_head_rows(self):
        known, query, answer = queries(np.array([[0, 1, 0], [2, 3, 1]]), 2)
        np.testing.assert_array_equal(known, [0, 2, 1, 3])
        np.testing.assert_array_equal(query, [0, 1, 2, 3])
        np.testing.assert_array_equal(answer, [1, 3, 0, 2])

    @pytest.mark.parametrize("r", [2, -1])
    def test_relation_outside_vocabulary_rejected(self, r):
        # r = R in a tail row would read as the head query of relation 0
        with pytest.raises(IdLookupError, match=f"relation id {r} "):
            queries(np.array([[0, 1, 0], [0, 1, r]]), 2)


def query_ids(index, direction, rels):
    """The query ids of `data.queries` for relations `rels` in one direction."""
    return np.asarray(rels) + index.num_relations * (direction == "head")


def answer_row(index, direction, known, r) -> np.ndarray:
    """The answers of one query, through the batch lookup."""
    offsets, ids = index.answers([known], query_ids(index, direction, [r]))
    np.testing.assert_array_equal(offsets, [0, ids.size])
    return ids


def scan_answers(store, splits, direction, known, r) -> list[int]:
    """Sorted distinct answers of one query, by a linear scan over the splits."""
    found = set()
    for split in splits:
        for h, t, rr in store.splits[split]:
            if rr == r and (h if direction == "tail" else t) == known:
                found.add(int(t if direction == "tail" else h))
    return sorted(found)


class TestFilterIndex:
    def test_direct_construction(self):
        store = TripleStore.from_ids(3, 1, {"train": [[0, 1, 0], [0, 2, 0]], "valid": [], "test": []})
        index = build_filter_index(store, ("train",))
        np.testing.assert_array_equal(answer_row(index, "tail", 0, 0), [1, 2])
        np.testing.assert_array_equal(answer_row(index, "head", 1, 0), [0])
        assert answer_row(index, "tail", 2, 0).size == 0

    def test_empty_split_set(self):
        store = random_store(5, 2, n_train=10)
        index = build_filter_index(store, ())
        assert answer_row(index, "tail", 0, 0).size == 0
        offsets, ids = index.answers([0, 1, 4], query_ids(index, "head", [0, 1, 1]))
        np.testing.assert_array_equal(offsets, [0, 0, 0, 0])
        assert ids.size == 0

    def test_membership_matches_linear_scan(self):
        store = random_store(12, 3, n_train=50, seed=7)
        index = build_filter_index(store, ("train",))
        triples = store.splits["train"]
        rng = np.random.default_rng(0)
        for _ in range(1000):
            h = int(rng.integers(12))
            t = int(rng.integers(12))
            r = int(rng.integers(3))
            in_scan = any((row == (h, t, r)).all() for row in triples)
            assert (t in answer_row(index, "tail", h, r)) == in_scan
            assert (h in answer_row(index, "head", t, r)) == in_scan

    def test_bidirectional_consistency(self):
        store = random_store(10, 2, n_train=30, n_valid=5, n_test=5, seed=8)
        index = build_filter_index(store)
        for split in ("train", "valid", "test"):
            for h, t, r in store.splits[split]:
                assert int(t) in answer_row(index, "tail", int(h), int(r))
                assert int(h) in answer_row(index, "head", int(t), int(r))

    @pytest.mark.parametrize("splits", [("train",), ("train", "valid", "test"), ("valid", "test"), ()])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_lookup_equals_set_scan(self, splits, seed):
        rng = np.random.default_rng(seed)
        store = random_store(9, 3, n_train=40, n_valid=10, n_test=10, seed=seed)
        # repeat triples of train in valid and test: the index keeps each answer once
        train = store.splits["train"]
        store.splits["valid"] = np.concatenate([store.splits["valid"], train[:6]])
        store.splits["test"] = np.concatenate([store.splits["test"], train[3:9]])
        index = build_filter_index(store, splits)
        for direction in ("tail", "head"):
            # every query of the vocabulary, most of them absent, in a shuffled batch
            known, rels = (a.ravel() for a in np.meshgrid(np.arange(9), np.arange(3)))
            order = rng.permutation(known.size)
            known, rels = known[order], rels[order]
            offsets, ids = index.answers(known, query_ids(index, direction, rels))
            assert offsets.shape == (known.size + 1,) and offsets[0] == 0
            assert ids.dtype == np.int32 and ids.size == offsets[-1]
            for n, (e, r) in enumerate(zip(known, rels)):
                got = ids[offsets[n]:offsets[n + 1]].tolist()
                assert got == scan_answers(store, splits, direction, e, r)

    def test_out_of_range_query_is_absent(self):
        # with R = 2 there are 2R = 4 query ids: (0, 4) would share the key of
        # (1, 0) if the query id were not checked, and (3, -2) that of (2, 2)
        store = TripleStore.from_ids(3, 2, {"train": [[1, 2, 0]], "valid": [], "test": []})
        index = build_filter_index(store, ("train",))
        offsets, ids = index.answers([0, -1, 3, 1, 2], [4, 2, -2, 0, 2])
        np.testing.assert_array_equal(offsets, [0, 0, 0, 0, 1, 2])
        np.testing.assert_array_equal(ids, [2, 1])

    def test_entity_id_that_overflows_the_key_is_absent(self):
        # with 2R = 4 query ids the key 2**62 * 4 + 0 wraps an int64 to 0, the key of (0, 0)
        store = TripleStore.from_ids(3, 2, {"train": [[0, 1, 0]], "valid": [], "test": []})
        index = build_filter_index(store, ("train",))
        offsets, ids = index.answers([2**62, 0, 2**62 + 1], [0, 0, 0])
        np.testing.assert_array_equal(offsets, [0, 0, 1, 1])
        np.testing.assert_array_equal(ids, [1])

    def test_relation_outside_vocabulary_rejected(self):
        store = TripleStore.from_ids(3, 2, {"train": [[0, 1, 0]], "valid": [[1, 2, 2]], "test": []})
        with pytest.raises(IdLookupError, match="relation id 2 "):
            build_filter_index(store)

    def test_vocabulary_too_large_for_the_codes(self):
        # at E = 7e7 and R = 1000 the head query of entity E - 1 would wrap an int64
        # pair code; range vocabularies give the sizes without 7e7 name strings
        num_entities = 70_000_000
        triple = [[num_entities - 1, 0, 999]]
        store = TripleStore(range(num_entities), range(1000),
                            {"train": np.array(triple), "valid": [], "test": []})
        with pytest.raises(ConfigError, match="70000000 entities and 1000 relations"):
            build_filter_index(store, ("train",))

    def test_largest_vocabulary_that_fits(self):
        # the last ids of E = 2^20 entities and R = 2^22 relations: the head query
        # of (e, e, r) has the code 2^63 - 1
        e, r = 2 ** 20 - 1, 2 ** 22 - 1
        store = TripleStore(range(e + 1), range(r + 1),
                            {"train": np.array([[e, e, r]]), "valid": [], "test": []})
        index = build_filter_index(store, ("train",))
        np.testing.assert_array_equal(answer_row(index, "head", e, r), [e])
        np.testing.assert_array_equal(answer_row(index, "tail", e, r), [e])

    def test_peak_memory_is_bounded_by_the_codes(self):
        # about 300,000 triples; every triple gives two int64 (query, answer) codes
        rng = np.random.default_rng(11)
        n = 300_000
        triples = np.stack([rng.integers(15_000, size=n), rng.integers(15_000, size=n),
                            rng.integers(237, size=n)], axis=1)
        store = TripleStore.from_ids(15_000, 237, {"train": triples[:280_000],
                                                   "valid": triples[280_000:290_000],
                                                   "test": triples[290_000:]})
        tracemalloc.start()
        try:
            index = build_filter_index(store)  # kept alive while its bytes are read
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (2 * n * 8)
        # the index is its codes: 8 bytes per distinct pair, each triple giving two
        assert held < 1.1 * 8 * (2 * len(np.unique(triples, axis=0)))


class TestBatches:
    def test_batch_sizes(self):
        store = random_store(6, 1, n_train=10)
        sizes = [len(b) for b in batches(store, "train", 4, seed=0)]
        assert sizes == [4, 4, 2]

    def test_seed_determinism(self):
        store = random_store(6, 1, n_train=10)
        a = np.concatenate(list(batches(store, "train", 3, seed=5)))
        b = np.concatenate(list(batches(store, "train", 3, seed=5)))
        c = np.concatenate(list(batches(store, "train", 3, seed=6)))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @settings(max_examples=20, deadline=None)
    @given(batch_size=st.integers(1, 12), seed=st.integers(0, 100))
    def test_epoch_is_exact_permutation(self, batch_size, seed):
        store = random_store(8, 2, n_train=11, seed=1)
        epoch = np.concatenate(list(batches(store, "train", batch_size, seed=seed)))
        original = store.splits["train"]
        assert sorted(map(tuple, epoch)) == sorted(map(tuple, original))

    def test_bad_batch_size(self):
        store = random_store(6, 1, n_train=10)
        with pytest.raises(ValueError):
            next(batches(store, "train", 0, seed=0))


class TestBinaryCache:
    def test_round_trip(self, tmp_path):
        store = random_store(15, 3, n_train=20, n_valid=4, n_test=4, seed=9)
        path = tmp_path / "triples.bin"
        save_cache(store, path)
        again = load_cache(path)
        assert again.num_entities == 15
        assert again.num_relations == 3
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(again.splits[split], store.splits[split])

    def test_more_relations_than_entities(self, tmp_path):
        # relation ids reach num_entities = 3 but stay inside num_relations = 5
        store = random_store(3, 5, n_train=20, n_valid=4, n_test=4, seed=9)
        save_cache(store, tmp_path / "triples.bin")
        again = load_cache(tmp_path / "triples.bin")
        for split in ("train", "valid", "test"):
            np.testing.assert_array_equal(again.splits[split], store.splits[split])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_cache(path)

    def test_truncated_payload(self, tmp_path):
        store = random_store(15, 3, n_train=20, seed=9)
        path = tmp_path / "triples.bin"
        save_cache(store, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_cache(path)

    def test_every_truncation_is_a_checkpoint_error(self, tmp_path):
        store = random_store(15, 3, n_train=6, n_valid=2, n_test=2, seed=9)
        path = tmp_path / "triples.bin"
        save_cache(store, path)
        # each prefix, made by cutting the one file shorter (a rewrite costs far more)
        for length in reversed(range(path.stat().st_size)):
            os.truncate(path, length)
            with pytest.raises(CheckpointError):
                load_cache(path)

    def test_failed_write_keeps_previous_cache(self, tmp_path):
        store = random_store(15, 3, n_train=20, n_valid=4, n_test=4, seed=9)
        path = tmp_path / "triples.bin"
        save_cache(store, path)
        before = path.read_bytes()
        # the header, train and valid are written before the test split fails to encode
        store.splits["test"] = np.array([[0, 1, "x"]], dtype=object)
        with pytest.raises(ValueError):
            save_cache(store, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["triples.bin"]

    @pytest.mark.parametrize("meta, arrays, expected", [
        ({"num_entities": 5}, {}, "num_relations is None"),
        ([5, 2], {}, "num_entities"),
        ({"num_entities": "5", "num_relations": 2}, {}, "num_entities is '5'"),
        ({"num_entities": 10**20, "num_relations": 2}, {}, "exceed 2**31"),
        ({"num_entities": 5, "num_relations": 2}, {"train": np.zeros((2, 2))}, "'train'"),
        ({"num_entities": 5, "num_relations": 2}, {"train": np.zeros(6)}, "'train'"),
        ({"num_entities": 5, "num_relations": 2}, {"train": np.zeros((2, 3)),
                                                   "valid": np.zeros((0, 3))}, "'test'"),
        ({"num_entities": 5, "num_relations": 2},
         {"train": np.zeros((2, 3)), "valid": [[1, 2, 2]], "test": np.zeros((0, 3))},
         "valid triple 0 has relation id 2 outside [0, 2)"),
        ({"num_entities": 5, "num_relations": 2},
         {"train": [[0, 1, 0], [4, 5, 1]], "valid": np.zeros((0, 3)), "test": np.zeros((0, 3))},
         "train triple 1 has tail id 5 outside [0, 5)"),
        ({"num_entities": 5, "num_relations": 2},
         {"train": [[0, 1, 0], [-1, 2, 1]], "valid": np.zeros((0, 3)), "test": np.zeros((0, 3))},
         "train triple 1 has head id -1 outside [0, 5)"),
        ({"num_entities": 5, "num_relations": 2},
         {"train": np.zeros((2, 3)), "valid": np.zeros((0, 3)), "test": [[0, 1, 1], [2, 3, -1]]},
         "test triple 1 has relation id -1 outside [0, 2)"),
        ({"num_entities": 5, "num_relations": 2},
         {"train": [[0, 1, 0], [2, 7, -1], [-3, 1, 0]], "valid": np.zeros((0, 3)),
          "test": np.zeros((0, 3))},
         "train triple 1 has tail id 7 outside [0, 5)"),
    ], ids=["no-relation-count", "meta-list", "count-str", "count-huge", "two-columns", "one-dim",
            "missing-split", "relation-id", "tail-id", "negative-head-id", "negative-relation-id",
            "first-in-row-major-order"])
    def test_malformed_cache_is_a_checkpoint_error(self, tmp_path, meta, arrays, expected):
        path = tmp_path / "triples.bin"
        arrays = {name: np.asarray(arr) for name, arr in arrays.items()}
        save_container(path, b"MEIMTRPL", 2, meta, arrays, "<i4")
        with pytest.raises(CheckpointError) as info:
            load_cache(path)
        assert str(path) in str(info.value) and expected in str(info.value)

    def test_array_in_another_order_is_written_in_bounded_blocks(self, tmp_path):
        # the entity-minor table of a training run: a view of a C-ordered (D, E) array
        arr = np.random.default_rng(5).normal(size=(60, 20_000)).T.reshape(20_000, 3, 20)
        assert not arr.flags.c_contiguous
        save_container(tmp_path / "c.bin", b"MEIMTEST", 1, {}, {"t": np.ascontiguousarray(arr)},
                       "<f8")
        tracemalloc.start()
        try:
            save_container(tmp_path / "minor.bin", b"MEIMTEST", 1, {}, {"t": arr}, "<f8")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "minor.bin").read_bytes() == (tmp_path / "c.bin").read_bytes()
        assert peak < arr.nbytes / 2  # a C-ordered copy would be the whole array

    def test_anonymous_names(self, tmp_path):
        store = random_store(15, 3, n_train=20, seed=9)
        save_cache(store, tmp_path / "triples.bin")
        names = load_cache(tmp_path / "triples.bin").relation_names
        assert len(names) == 3 and list(names) == ["r0", "r1", "r2"]
        assert names[np.int32(1)] == "r1" and names[-1] == "r2" and names[1:] == ["r1", "r2"]
        with pytest.raises(IndexError):
            names[3]

    def test_load_dataset_dispatches_on_path_type(self, tmp_path):
        store = random_store(15, 3, n_train=20, seed=9)
        save_triples(store, tmp_path / "kg")
        from_dir = load_dataset(tmp_path / "kg")
        save_cache(from_dir, tmp_path / "kg.bin")
        from_cache = load_dataset(tmp_path / "kg.bin")
        assert from_cache.num_entities == from_dir.num_entities
        np.testing.assert_array_equal(from_cache.splits["train"], from_dir.splits["train"])
