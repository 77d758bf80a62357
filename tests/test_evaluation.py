"""Filtered ranking and metric aggregation."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import random_store
from oracles import exhaustive_rank, filtered_rank, known_heads, known_tails

from meim.data import build_filter_index
from meim.errors import ConfigError, EvaluationError, IdLookupError
from meim.evaluation import (
    TIE_POLICIES,
    _chunk_rows,
    _rank_values,
    evaluate,
    per_relation_report,
)
from meim.model import ModelConfig, ModelParams, all_entity_logits, score
from meim.tensor import relation_mappings

# (scores, true id, filter ids) of one row with a NaN that ranking must reject,
# whether or not the row holds a tie that would make it look for one
NAN_ROWS = {
    "single-entity-row": ([np.nan], 0, []),
    "tie-free-row": ([0.3, np.nan, 0.1], 0, []),
    "nan-true-score": ([0.2, np.nan, 0.5], 1, []),
    "nan-only-in-a-filtered-column": ([0.2, 0.7, np.nan], 0, [2]),
}


class TestFilteredRank:
    def test_second_best_score(self):
        assert filtered_rank([0.9, 0.5, 0.7], true_id=2, filter_ids=[]) == 2

    def test_strict_max_is_rank_one(self):
        assert filtered_rank([0.1, 0.9, 0.2], true_id=1, filter_ids=[]) == 1

    def test_filter_removes_better_candidate(self):
        assert filtered_rank([0.9, 0.5, 0.7], true_id=2, filter_ids=[0]) == 1

    def test_tie_policies(self):
        scores = [1.0, 1.0, 1.0, 0.0]
        assert filtered_rank(scores, 0, [], tie_policy="optimistic") == 1
        assert filtered_rank(scores, 0, [], tie_policy="pessimistic") == 3
        # average: 1 + 0 + 2/2 = 2
        assert filtered_rank(scores, 0, [], tie_policy="average") == 2

    def test_average_rounds_half_up(self):
        # one equal other: 1 + 0 + 1/2 = 1.5 -> reported as 2
        assert filtered_rank([1.0, 1.0, 0.0], 0, []) == 2

    def test_nan_scores_rejected(self):
        with pytest.raises(EvaluationError):
            filtered_rank([0.1, float("nan")], 0, [])

    @pytest.mark.parametrize("scores, true_id, filter_ids", NAN_ROWS.values(), ids=NAN_ROWS.keys())
    def test_nan_path_rejected(self, scores, true_id, filter_ids):
        with pytest.raises(EvaluationError, match="NaN"):
            filtered_rank(scores, true_id, filter_ids)

    def test_monotone_in_true_score(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=30)
        for true_id in range(10):
            base = filtered_rank(scores, true_id, [])
            raised = scores.copy()
            raised[true_id] += 1.0
            assert filtered_rank(raised, true_id, []) <= base

    def test_filtering_never_hurts(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=25)
        base = filtered_rank(scores, 3, [])
        for extra in range(25):
            if extra == 3:
                continue
            assert filtered_rank(scores, 3, [extra]) <= base

    def test_repeated_filter_id_counts_once(self):
        scores = [0.9, 0.8, 0.5, 0.7, 0.1]
        assert filtered_rank(scores, 2, [0, 0, 3]) == 2
        assert filtered_rank(scores, 2, [0, 3, 0, 3, 2, 2]) == 2
        assert filtered_rank(scores, 2, [0, 3, 1, 1]) == 1

    @pytest.mark.parametrize("true_id, filter_ids, bad", [(-1, [], -1), (9, [], 9), (0, [2, 5], 5)],
                             ids=["negative-true-id", "true-id-past-the-scores",
                                  "filter-id-past-the-scores"])
    def test_ids_outside_the_scores_rejected(self, true_id, filter_ids, bad):
        # numpy would read -1 as the last entity and fail on 9 with its own IndexError
        with pytest.raises(IdLookupError, match=f"entity id {bad} outside vocabulary of size 5"):
            filtered_rank(np.zeros(5), true_id, filter_ids)

    def test_unknown_tie_policy_rejected(self):
        with pytest.raises(ValueError, match="tie_policy"):
            filtered_rank([0.1, 0.2], 0, [], tie_policy="random")

    def test_argsort_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=40)
        transformed = np.tanh(scores) * 2.0 + 1.0  # strictly monotonic
        for true_id in (0, 5, 17):
            assert filtered_rank(scores, true_id, [2, 9]) == filtered_rank(
                transformed, true_id, [2, 9]
            )


class TestVectorizedRanks:
    @pytest.mark.parametrize("tie_policy", list(TIE_POLICIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_block_matches_exhaustive_oracle(self, tie_policy, seed):
        rng = np.random.default_rng(seed)
        rows, entities = 12, 15
        scores = rng.integers(0, 4, size=(rows, entities)).astype(np.float64)  # many ties
        true_ids = rng.integers(entities, size=rows)
        filters = []
        for n in range(rows):
            chosen = rng.choice(entities, size=int(rng.integers(0, 8)), replace=False)
            if n % 2 == 0:  # the true id itself is in the filter list, and stays ranked
                chosen = np.union1d(chosen, [true_ids[n]])
            filters.append(np.sort(chosen))
        offsets = np.concatenate([[0], np.cumsum([f.size for f in filters])])
        got = _rank_values(scores, true_ids, offsets, np.concatenate(filters).astype(np.int64),
                           tie_policy)
        for n in range(rows):
            want = exhaustive_rank(lambda e: scores[n, e], entities, int(true_ids[n]),
                                   filters[n][filters[n] != true_ids[n]], tie_policy)
            assert got[n] == want

    def test_nan_anywhere_in_block_rejected(self):
        scores = np.zeros((2, 3))
        scores[1, 2] = np.nan
        with pytest.raises(EvaluationError, match="NaN"):
            _rank_values(scores, np.array([0, 0]), np.array([0, 0, 0]),
                         np.empty(0, dtype=np.int64), "average")

    @pytest.mark.parametrize("scores, true_id, filter_ids", NAN_ROWS.values(), ids=NAN_ROWS.keys())
    def test_nan_path_rejected(self, scores, true_id, filter_ids):
        # the NaN row follows a finite, tie-free one in the same block
        block = np.stack([np.arange(len(scores), dtype=np.float64), scores])
        with pytest.raises(EvaluationError, match="NaN"):
            _rank_values(block, np.array([0, true_id]), np.array([0, 0, len(filter_ids)]),
                         np.array(filter_ids, dtype=np.int64), "average")


class TestPerRelationReport:
    def test_single_relation_equals_overall(self):
        report = per_relation_report(np.zeros(3, dtype=np.int32), np.array([1.0, 2.0, 4.0]))
        assert report[0] == pytest.approx(np.mean([1.0, 0.5, 0.25]))

    def test_balanced_pooling(self):
        report = per_relation_report(np.array([0, 1]), np.array([1.0, 2.0]))
        assert np.mean([report[0], report[1]]) == pytest.approx(np.mean([1.0, 0.5]))

    def test_group_by_matches_direct_filtering(self):
        rng = np.random.default_rng(3)
        pairs = [(int(rng.integers(3)), float(rng.integers(1, 20))) for _ in range(60)]
        relations, ranks = (np.array(column) for column in zip(*pairs))
        report = per_relation_report(relations, ranks)
        for rel in range(3):
            expected = np.mean([1.0 / rank for r, rank in pairs if r == rel])
            assert report[rel] == pytest.approx(expected)


class TestChunkRows:
    @pytest.mark.parametrize("entities, width, rows", [
        (14_541, 30, 144),  # eval-desk-fb15k237: the 16 MiB budget binds
        (40_943, 30, 60),  # train-desk-wn18rr's validation: twice the table binds
        (40_943, 300, 512),  # train-paper-wn18rr and the wn18rr preset: 600 rows, capped
        (14_541, 300, 512),  # fb15k-237 preset: 600 rows, capped
        (123_182, 500, 512),  # yago3-10 preset: 1,000 rows, capped
    ], ids=["desk-fb15k237", "desk-wn18rr", "paper-wn18rr", "fb15k-237", "yago3-10"])
    def test_rule_at_bench_and_preset_shapes(self, entities, width, rows):
        # the bench times an evaluation step from one tail-direction all_entity_logits
        # call to the next, so these are also its steps' triples
        assert _chunk_rows(np.broadcast_to(0.0, (entities, width))) == rows


class TestEvaluate:
    # sha256 of `records.tobytes()` of the report in test_report_digest, recorded
    # while evaluate still took its chunks in split order
    REPORT_DIGESTS = {
        "average": "f447032617288c581a4e6c6d27c53bb5faf6498aa055bcabc11c7304d2e9549d",
        "optimistic": "dd6156e4d9fc1b9fa633759457fd47c732102ec94190ab5a368103a957c0ce0f",
        "pessimistic": "ddb09b0445d39d6739ed32582a29e0c92812359182319cd1323cfdabf71e46c6",
    }

    def setup_params(self, store, seed=0):
        cfg = ModelConfig(store.num_entities, store.num_relations, k=2, ce=3, cr=3,
                          batchnorm=False, seed=seed)
        return ModelParams(cfg, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("tie_policy", list(TIE_POLICIES))
    def test_report_digest(self, tie_policy, monkeypatch):
        # parameters in {-1, 0, 1} give exact integer scores, whatever the order
        # of BLAS's sums, and many ties, so every tie policy ranks differently
        store = random_store(40, 6, n_train=200, n_test=60, seed=17)
        params = ModelParams(ModelConfig(40, 6, k=2, ce=3, cr=3, batchnorm=False, seed=18))
        rng = np.random.default_rng(18)
        for _, leaf in params.leaves():
            leaf.data[:] = rng.integers(-1, 2, size=leaf.shape)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 16)
        report = evaluate(params, store, "test", build_filter_index(store), tie_policy=tie_policy)
        digest = hashlib.sha256(report.records.tobytes()).hexdigest()
        assert digest == self.REPORT_DIGESTS[tie_policy]

    def test_split_order_only_permutes_records(self, monkeypatch):
        store = random_store(20, 4, n_train=40, n_test=30, seed=21)
        params = self.setup_params(store, seed=22)
        index = build_filter_index(store)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 8)
        before = evaluate(params, store, "test", index)
        perm = np.random.default_rng(23).permutation(30)
        store.splits["test"] = store.splits["test"][perm]
        after = evaluate(params, store, "test", index)
        want = before.records.reshape(-1, 2)[perm].ravel()  # two records, tail then head, a triple
        for name in ("relation", "direction", "rank"):
            np.testing.assert_array_equal(after.records[name], want[name])
        # the same ranks, summed in another order
        assert after.hits == before.hits
        assert after.mrr == pytest.approx(before.mrr, rel=1e-12, abs=0)
        assert after.per_relation == pytest.approx(before.per_relation, rel=1e-12, abs=0)
        for direction, metrics in before.per_direction.items():
            assert after.per_direction[direction] == pytest.approx(metrics, rel=1e-12, abs=0)

    def test_chunks_regenerate_few_mappings(self, monkeypatch):
        # 200 triples over 20 relations in chunks of 20: in split order a chunk
        # spans about 13 relations, so each product regenerates 13 mappings
        store = random_store(30, 20, n_train=50, n_test=200, seed=19)
        params = self.setup_params(store, seed=20)
        index = build_filter_index(store)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 20)
        distinct = []

        def spy(core, parts):
            distinct.append(parts.shape[0])
            return relation_mappings(core, parts)

        monkeypatch.setattr("meim.tensor.relation_mappings", spy)
        evaluate(params, store, "test", index)
        chunks = 10
        assert len(distinct) == 2 * chunks  # one product per chunk and direction
        assert sum(distinct) <= 2 * (store.num_relations + chunks)

    def test_perfect_model_scores_one(self):
        # one-hot entities and a permutation-matrix mapping: score(h, e) = 1
        # exactly when e is h's designated tail, so every true answer is
        # strictly best in both directions
        store = random_store(6, 1, n_train=0, n_test=3, seed=4)
        store.splits["test"] = np.array([[0, 1, 0], [2, 3, 0], [4, 5, 0]], dtype=np.int32)
        cfg = ModelConfig(6, 1, k=1, ce=6, cr=1, batchnorm=False)
        params = ModelParams(cfg)
        params.entity_emb.data[:] = np.eye(6).reshape(6, 1, 6)
        params.relation_emb.data[:] = 1.0
        params.core.data[:] = 0.0
        for h, t, _ in store.splits["test"]:
            params.core.data[0, h, t, 0] = 1.0
        index = build_filter_index(store, ("test",))
        report = evaluate(params, store, "test", index)
        assert report.mrr == 1.0
        assert all(v == 1.0 for v in report.hits.values())

    def test_matches_exhaustive_corruption_oracle(self):
        store = random_store(20, 3, n_train=30, n_valid=0, n_test=15, seed=5)
        params = self.setup_params(store, seed=6)
        index = build_filter_index(store)
        report = evaluate(params, store, "test", index)

        ranks = []
        for h, t, r in store.splits["test"]:
            h, t, r = int(h), int(t), int(r)
            tails = set(known_tails(store, h, r)) - {t}
            ranks.append(exhaustive_rank(lambda e: score(params, h, e, r), 20, t, sorted(tails)))
            heads = set(known_heads(store, t, r)) - {h}
            ranks.append(exhaustive_rank(lambda e: score(params, e, t, r), 20, h, sorted(heads)))
        ranks = np.array(ranks)
        assert report.mrr == pytest.approx(float((1.0 / ranks).mean()), rel=1e-12)
        for k in (1, 3, 10):
            assert report.hits[k] == float((ranks <= k).mean())

    def test_single_triple_rank_four_arithmetic(self):
        store = random_store(8, 1, n_train=0, n_test=1, seed=7)
        store.splits["test"] = np.array([[0, 1, 0]], dtype=np.int32)
        cfg = ModelConfig(8, 1, k=1, ce=2, cr=1, batchnorm=False)
        params = ModelParams(cfg)
        params.core.data[:] = 0.0
        params.core.data[0, 0, 0, 0] = 1.0
        params.core.data[0, 1, 1, 0] = 1.0  # mapping = r0 * identity
        params.relation_emb.data[:] = 1.0
        # head (1,0) and tail (0,1) are orthogonal, so tail scores follow the
        # first coordinate and head scores the second; exactly three entities
        # beat each true answer
        e = np.array(
            [[1.0, 0.0], [0.0, 1.0], [5.0, -1.0], [6.0, -2.0],
             [-3.0, 4.0], [-4.0, 5.0], [-1.0, -3.0], [-2.0, -4.0]]
        )
        params.entity_emb.data[:] = e.reshape(8, 1, 2)
        index = build_filter_index(store, ("test",))
        report = evaluate(params, store, "test", index)
        assert [rec.rank for rec in report.records] == [4.0, 4.0]
        assert report.mrr == pytest.approx(0.25)
        assert report.hits[3] == 0.0
        assert report.hits[10] == 1.0

    def test_report_serialization_keys(self):
        store = random_store(10, 2, n_train=10, n_test=5, seed=9)
        params = self.setup_params(store, seed=10)
        index = build_filter_index(store)
        report = evaluate(params, store, "test", index)
        data = report.to_dict()
        for key in ("mrr", "hits1", "hits3", "hits10", "per_relation", "per_direction", "triple_count"):
            assert key in data
        assert data["triple_count"] == 5
        assert report.hits[1] <= report.hits[3] <= report.hits[10]
        assert report.hits[1] <= report.mrr <= 1.0
        table = report.format_table(store.relation_names)
        assert "overall" in table and "tail" in table

    def test_empty_split_rejected(self):
        store = random_store(9, 2, n_train=12, n_test=0, seed=11)
        params = self.setup_params(store, seed=12)
        index = build_filter_index(store)
        with pytest.raises(EvaluationError, match="empty"):
            evaluate(params, store, "test", index)

    @pytest.mark.parametrize("tie_policy", list(TIE_POLICIES))
    def test_records_match_exhaustive_oracle_per_policy(self, tie_policy, monkeypatch):
        store = random_store(16, 2, n_train=30, n_valid=5, n_test=12, seed=13)
        params = self.setup_params(store, seed=14)
        index = build_filter_index(store)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 5)
        report = evaluate(params, store, "test", index, tie_policy=tie_policy)
        want = []
        for h, t, r in store.splits["test"]:
            h, t, r = int(h), int(t), int(r)
            tails = sorted(set(known_tails(store, h, r)) - {t})
            heads = sorted(set(known_heads(store, t, r)) - {h})
            want += [(r, "tail", exhaustive_rank(lambda e: score(params, h, e, r), 16, t,
                                                 tails, tie_policy)),
                     (r, "head", exhaustive_rank(lambda e: score(params, e, t, r), 16, h,
                                                 heads, tie_policy))]
        got = [(rec.relation, rec.direction, rec.rank) for rec in report.records]
        assert [g[:2] for g in got] == [w[:2] for w in want]
        for (_, _, rank), (_, _, expected) in zip(got, want):
            assert rank == expected
            assert type(rank) is np.float64

    def test_bad_arguments_rejected_up_front(self):
        store = random_store(9, 2, n_train=12, n_test=6, seed=11)
        params = self.setup_params(store, seed=12)
        index = build_filter_index(store)
        with pytest.raises(ValueError, match="tie_policy"):
            evaluate(params, store, "test", index, tie_policy="random")
        # a store with one entity or one relation fewer than the model was trained on
        for other in (random_store(8, 2, n_train=12, n_test=6, seed=11),
                      random_store(9, 1, n_train=12, n_test=6, seed=11)):
            with pytest.raises(ConfigError, match="trained on"):
                evaluate(params, other, "test", build_filter_index(other))

    def test_metric_invariance_under_monotone_transform(self, monkeypatch):
        # scaling all embeddings scales scores monotonically per query only
        # if positive; instead check the rank list is reused consistently
        store = random_store(9, 2, n_train=12, n_test=6, seed=11)
        params = self.setup_params(store, seed=12)
        index = build_filter_index(store)
        a = evaluate(params, store, "test", index)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 2)
        b = evaluate(params, store, "test", index)
        assert a.mrr == b.mrr and a.hits == b.hits

    def test_holds_one_block_of_scores(self, monkeypatch):
        # four chunks: keeping one chunk's tail or head scores while the next
        # block is made would hold two (batch_size, E) blocks, three across chunks
        num_entities, batch_size = 20_000, 64
        store = random_store(num_entities, 3, n_train=10, n_test=4 * batch_size, seed=13)
        params = self.setup_params(store, seed=14)
        index = build_filter_index(store)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", batch_size)
        tracemalloc.start()
        try:
            report = evaluate(params, store, "test", index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.triple_count == 4 * batch_size
        assert peak <= 1.5 * (batch_size * num_entities * 8)

    def test_chunks_hold_one_score_block(self, monkeypatch):
        # a budget of 100 rows at E = 20,000 binds over the 2 * 6 rows of the
        # table term, so 250 triples rank in chunks of 100, 100 and 50
        num_entities, cap = 20_000, 100
        store = random_store(num_entities, 3, n_train=10, n_test=250, seed=13)
        params = self.setup_params(store, seed=14)
        index = build_filter_index(store)
        monkeypatch.setattr("meim.evaluation._RANK_BLOCK_BYTES", cap * num_entities * 8)
        calls = []

        def spy(*args, **kwargs):
            calls.append((args[3], len(args[1])))
            return all_entity_logits(*args, **kwargs)

        monkeypatch.setattr("meim.evaluation.all_entity_logits", spy)
        tracemalloc.start()
        try:
            evaluate(params, store, "test", index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [("tail", cap), ("head", cap)] * 2 + [("tail", 50), ("head", 50)]
        assert peak <= 1.5 * (cap * num_entities * 8)

    @pytest.mark.parametrize("layout", ["entity-minor", "c-ordered"])
    def test_cache_sized_chunks_rank_as_512_triple_chunks(self, layout, monkeypatch):
        # at the eval-desk shape (14,541 entities, K*C = 30) 600 triples rank in chunks of
        # 144 (four) and 24; under a 512-row block's budget they rank in 512 and 88. A
        # trained table is entity-minor, a restored one C-ordered
        num_entities = 14_541
        store = random_store(num_entities, 5, n_train=50, n_test=600, seed=21)
        params = ModelParams(ModelConfig(num_entities, 5, k=3, ce=10, cr=10),
                             rng=np.random.default_rng(22))
        table = params.entity_emb.data
        table[num_entities // 2:] = table[:num_entities - num_entities // 2]  # equal scores
        if layout == "c-ordered":
            params.entity_emb.data = np.ascontiguousarray(table)
        index = build_filter_index(store)
        calls = []

        def spy(*args, **kwargs):
            calls.append(len(args[1]))
            return all_entity_logits(*args, **kwargs)

        monkeypatch.setattr("meim.evaluation.all_entity_logits", spy)

        def ranked(chunks):
            calls.clear()
            reports = [evaluate(params, store, "test", index, tie_policy=policy)
                       for policy in TIE_POLICIES]
            assert calls[::2] == chunks * len(TIE_POLICIES)  # the tail call of each chunk
            return reports

        cached = ranked([144] * 4 + [24])
        monkeypatch.setattr("meim.evaluation._RANK_BLOCK_BYTES", 512 * 14_541 * 8)  # a 512-row block
        for got, want in zip(cached, ranked([512, 88])):
            assert got.to_dict() == want.to_dict()
            np.testing.assert_array_equal(got.records.rank, want.records.rank)
        # the duplicated rows tie, so every tie policy ranks differently
        assert len({report.mrr for report in cached}) == 3

    def short_last_chunk(self):
        """Seven test triples: at 3 triples per chunk the chunks hold 3, 3 and 1."""
        store = random_store(12, 2, n_train=20, n_test=7, seed=15)
        return store, self.setup_params(store, seed=16), build_filter_index(store)

    def test_scoring_calls_share_one_buffer(self, monkeypatch):
        # the bench times an evaluation step from one tail call to the next and
        # counts len(args[1]) triples, so the call pattern is part of the contract
        store, params, index = self.short_last_chunk()
        calls = []

        def spy(*args, **kwargs):
            result = all_entity_logits(*args, **kwargs)
            calls.append((args, kwargs.get("out"), result.data))
            return result

        monkeypatch.setattr("meim.evaluation.all_entity_logits", spy)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 3)
        evaluate(params, store, "test", index)
        assert [args[3] for args, _, _ in calls] == ["tail", "head"] * 3
        assert [len(args[1]) for args, _, _ in calls] == [3, 3, 3, 3, 1, 1]
        first = calls[0][1]
        for args, out, data in calls:
            assert out is not None and np.shares_memory(out, first)
            assert data.shape == (len(args[1]), store.num_entities)
            assert np.shares_memory(data, out)

    def test_chunks_score_each_repeated_query_once(self, monkeypatch):
        # 60 triples over 5 heads and 2 relations, so most tail-direction rows repeat
        # a query; in chunks of 8 rows the tail and head calls still carry every
        # query row once, and each call's distinct queries come before its repeats
        store = random_store(30, 2, n_train=20, n_test=0, seed=24)
        rng = np.random.default_rng(25)
        test = np.stack([rng.integers(5, size=60), rng.integers(30, size=60),
                         rng.integers(2, size=60)], axis=1)
        store.splits["test"] = test.astype(np.int32)
        params = self.setup_params(store, seed=26)
        index = build_filter_index(store)
        calls = []

        def spy(*args, **kwargs):
            calls.append((args[3], np.stack([args[1], args[2]], axis=1)))
            return all_entity_logits(*args, **kwargs)

        monkeypatch.setattr("meim.evaluation.all_entity_logits", spy)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 8)
        evaluate(params, store, "test", index)
        assert [direction for direction, _ in calls] == ["tail", "head"] * 8
        assert [len(rows) for _, rows in calls[::2]] == [len(rows) for _, rows in calls[1::2]]
        for col, direction in enumerate(("tail", "head")):
            seen = np.concatenate([rows for d, rows in calls if d == direction])
            want = test[:, [col, 2]]  # (known entity, relation): (h, r) or (t, r)
            assert sorted(map(tuple, seen.tolist())) == sorted(map(tuple, want.tolist()))
        repeats = 0
        for _, rows in calls:
            distinct = len(np.unique(rows, axis=0))
            assert len(np.unique(rows[:distinct], axis=0)) == distinct
            repeats += len(rows) - distinct
        assert repeats > 30

    @pytest.mark.parametrize("tie_policy", list(TIE_POLICIES))
    def test_short_last_chunk_matches_one_chunk(self, tie_policy, monkeypatch):
        store, params, index = self.short_last_chunk()
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 7)
        whole = evaluate(params, store, "test", index, tie_policy=tie_policy)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 3)
        chunked = evaluate(params, store, "test", index, tie_policy=tie_policy)
        assert chunked.to_dict() == whole.to_dict()
        np.testing.assert_array_equal(chunked.records.rank, whole.records.rank)

    def test_nan_in_a_later_chunk_rejected(self, monkeypatch):
        # relation 1 is queried only by the last chunk, so only its score rows are NaN
        store = random_store(12, 2, n_train=20, n_test=7, seed=15)
        test = store.splits["test"]
        test[:, 2] = 0
        test[-1, 2] = 1
        store.splits["valid"] = test[:-1].copy()
        params = self.setup_params(store, seed=16)
        params.relation_emb.data[1] = np.nan
        index = build_filter_index(store)
        monkeypatch.setattr("meim.evaluation._CHUNK_TRIPLES", 3)
        assert evaluate(params, store, "valid", index).triple_count == 6
        with pytest.raises(EvaluationError, match="NaN"):
            evaluate(params, store, "test", index)
