"""Loss terms: target construction, cross-entropy, soft orthogonality."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import random_store

from meim import tensor
from meim.data import TripleStore, build_filter_index, queries
from meim.errors import ValidationError
from meim.model import ModelConfig, ModelParams, generate_mappings, hidden_rows
from meim.objective import build_targets, ortho_loss, total_loss
from meim.tensor import GradTape, Tensor, backward, finite_diff_check


def link_prediction(params, batch, targets):
    """The cross-entropy term alone: total_loss with every regularizer weight set to zero."""
    plain = copy.copy(params)
    plain.config = dataclasses.replace(params.config, lambda_ortho=0.0, lambda_unitnorm=0.0)
    loss, _ = total_loss(plain, batch, targets)
    return loss


def weights(lambda_ortho, lambda_unitnorm=0.0, p_norm=3):
    """A model config for ortho_loss, which reads only its regularizer weights."""
    return ModelConfig(1, 1, k=1, ce=1, cr=1, lambda_ortho=lambda_ortho,
                       lambda_unitnorm=lambda_unitnorm, p_norm=p_norm)


def index_of(batch, num_entities, num_relations):
    """The answer index of a batch taken as the whole training split."""
    store = TripleStore.from_ids(num_entities, num_relations, {"train": batch, "valid": [], "test": []})
    return build_filter_index(store, ("train",))


def to_dense(targets, num_entities):
    """The CSR rows (offsets, ids, weights) of build_targets as a dense matrix."""
    offsets, ids, weights = targets
    out = np.zeros((len(offsets) - 1, num_entities))
    for n in range(len(offsets) - 1):
        out[n, ids[offsets[n]:offsets[n + 1]]] = weights[offsets[n]:offsets[n + 1]]
    return out


def identity_mappings(batch, k, ce):
    return Tensor(np.broadcast_to(np.eye(ce), (batch, k, ce, ce)).copy())


class TestOrthoLoss:
    def test_zero_when_constraints_hold(self):
        m = identity_mappings(3, 2, 4)
        r = np.zeros((3, 2, 5))
        r[:, :, 0] = 1.0  # unit norm partitions
        w = weights(lambda_ortho=1.0, lambda_unitnorm=1.0, p_norm=3)
        assert ortho_loss(m, Tensor(r), w, np.ones(3)).item() == 0.0

    def test_scaled_identity_frobenius(self):
        m = Tensor(2.0 * np.eye(2).reshape(1, 1, 2, 2))
        w = weights(lambda_ortho=1.0, lambda_unitnorm=0.0)
        # ||4I - I||_F^2 = 2 * 3^2
        r = Tensor(np.ones((1, 1, 2)))
        assert ortho_loss(m, r, w, np.ones(1)).item() == pytest.approx(18.0)

    def test_unit_norm_term_nesting(self):
        m = identity_mappings(1, 1, 2)
        r = Tensor(np.ones((1, 1, 2)))  # squared norm 2
        w = weights(lambda_ortho=1.0, lambda_unitnorm=1.0, p_norm=3)
        assert ortho_loss(m, r, w, np.ones(1)).item() == pytest.approx(1.0)  # |2 - 1|^3
        half = weights(lambda_ortho=0.5, lambda_unitnorm=1.0, p_norm=3)
        assert ortho_loss(m, r, half, np.ones(1)).item() == pytest.approx(0.5)

    def test_non_negative_and_batch_mean(self):
        rng = np.random.default_rng(0)
        m = Tensor(rng.normal(size=(6, 2, 3, 3)))
        r = Tensor(rng.normal(size=(6, 2, 4)))
        w = weights(lambda_ortho=0.3, lambda_unitnorm=0.7, p_norm=3)
        full = ortho_loss(m, r, w, np.ones(6)).item()
        assert full >= 0.0
        singles = [
            ortho_loss(Tensor(m.data[i:i + 1]), Tensor(r.data[i:i + 1]), w, np.ones(1)).item()
            for i in range(6)
        ]
        assert full == pytest.approx(np.mean(singles), rel=1e-12)

    def test_invariant_under_orthogonal_left_multiplication(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 2, 3, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = np.einsum("ab,nkbj->nkaj", q, m)
        r = Tensor(rng.normal(size=(4, 2, 3)))
        w = weights(lambda_ortho=1.0, lambda_unitnorm=0.0)
        assert ortho_loss(Tensor(rotated), r, w, np.ones(4)).item() == pytest.approx(
            ortho_loss(Tensor(m), r, w, np.ones(4)).item(), rel=1e-9
        )

    def test_counts_equal_repeated_rows(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 2, 4, 4))
        r = rng.normal(size=(3, 2, 5))
        counts = np.array([4, 1, 2])
        w = weights(lambda_ortho=0.3, lambda_unitnorm=0.7, p_norm=3)
        weighted = ortho_loss(Tensor(m), Tensor(r), w, counts)
        rows = np.repeat(np.arange(3), counts)
        repeated = ortho_loss(Tensor(m[rows]), Tensor(r[rows]), w, np.ones(rows.size))
        assert weighted.item() == pytest.approx(repeated.item(), rel=1e-12)


class TestBuildTargets:
    def test_kvsall_uniform_over_answer_set(self):
        store = random_store(5, 1, n_train=2, seed=0)
        store.splits["train"] = np.array([[0, 1, 0], [0, 3, 0]], dtype=np.int32)
        index = build_filter_index(store, ("train",))
        targets = build_targets(store.splits["train"][:1], index, "kvsall")
        np.testing.assert_allclose(to_dense(targets, 5)[0], [0.0, 0.5, 0.0, 0.5, 0.0])

    def test_one_vs_all_is_one_hot(self):
        batch = np.array([[0, 2, 0]])
        targets = build_targets(batch, index_of(batch, 5, 1), "1vsall")
        # the tail query's row, then the head query's
        np.testing.assert_array_equal(to_dense(targets, 5), [[0, 0, 1, 0, 0], [1, 0, 0, 0, 0]])

    def test_singleton_answer_set_equals_one_vs_all(self):
        store = random_store(4, 1, n_train=1, seed=0)
        store.splits["train"] = np.array([[1, 2, 0]], dtype=np.int32)
        index = build_filter_index(store, ("train",))
        kv = build_targets(store.splits["train"], index, "kvsall")
        ov = build_targets(store.splits["train"], index, "1vsall")
        np.testing.assert_array_equal(to_dense(kv, 4), to_dense(ov, 4))

    def test_head_direction_uses_head_answers(self):
        store = random_store(5, 1, n_train=2, seed=0)
        store.splits["train"] = np.array([[0, 4, 0], [2, 4, 0]], dtype=np.int32)
        index = build_filter_index(store, ("train",))
        targets = build_targets(store.splits["train"][:1], index, "kvsall")
        np.testing.assert_allclose(to_dense(targets, 5)[1], [0.5, 0.0, 0.5, 0.0, 0.0])

    def test_rows_sum_to_one(self):
        store = random_store(9, 2, n_train=30, seed=5)
        index = build_filter_index(store, ("train",))
        targets = build_targets(store.splits["train"], index, "kvsall")
        np.testing.assert_allclose(to_dense(targets, 9).sum(axis=1), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("direction", ["tail", "head"])
    @pytest.mark.parametrize("sampling", ["1vsall", "kvsall"])
    def test_rows_match_dense_expectation(self, direction, sampling):
        store = random_store(9, 3, n_train=40, seed=6)
        triples = store.splits["train"]
        index = build_filter_index(store, ("train",))
        batch = triples[::3]
        expected = np.zeros((len(batch), 9))
        for n, (h, t, r) in enumerate(batch):
            if sampling == "1vsall":
                expected[n, t if direction == "tail" else h] = 1.0
                continue
            if direction == "tail":
                answers = {int(tt) for hh, tt, rr in triples if hh == h and rr == r}
            else:
                answers = {int(hh) for hh, tt, rr in triples if tt == t and rr == r}
            expected[n, sorted(answers)] = 1.0 / len(answers)
        targets = build_targets(batch, index, sampling)
        offsets, ids, weights = targets
        assert offsets[0] == 0 and offsets[-1] == len(ids) == len(weights)
        assert np.all(np.diff(offsets) >= 1)
        rows = slice(None, len(batch)) if direction == "tail" else slice(len(batch), None)
        np.testing.assert_array_equal(to_dense(targets, 9)[rows], expected)

    def test_kvsall_query_without_answers_rejected(self):
        store = random_store(5, 2, n_train=1, seed=0)
        store.splits["train"] = np.array([[0, 1, 0]], dtype=np.int32)
        index = build_filter_index(store, ("train",))
        with pytest.raises(ValidationError, match="no known answers"):
            build_targets(np.array([[0, 1, 1]]), index, "kvsall")
        # the message names the first query without answers
        with pytest.raises(ValidationError, match=r"tail query \(2, 1\) has no known"):
            build_targets(np.array([[0, 1, 0], [2, 0, 1], [3, 0, 1]]), index, "kvsall")
        with pytest.raises(ValidationError, match=r"head query \(3, 0\) has no known"):
            build_targets(np.array([[0, 3, 0]]), index, "kvsall")


class TestLinkPredictionLoss:
    def test_uniform_logits_give_two_log_e(self):
        cfg = ModelConfig(4, 1, k=1, ce=2, cr=2, batchnorm=False)
        params = ModelParams(cfg)
        params.entity_emb.data[:] = 0.0  # all scores zero -> uniform softmax
        batch = np.array([[0, 1, 0], [2, 3, 0]], dtype=np.int32)
        targets = build_targets(batch, index_of(batch, 4, 1), "1vsall")
        loss = link_prediction(params, batch, targets)
        assert loss.item() == pytest.approx(2.0 * math.log(4.0), rel=1e-12)

    def test_softmax_targets_give_row_entropies(self):
        cfg = ModelConfig(5, 2, k=2, ce=2, cr=2, batchnorm=False)
        params = ModelParams(cfg, rng=np.random.default_rng(3))
        batch = np.array([[0, 1, 0], [2, 3, 1]], dtype=np.int32)
        known, query, _ = queries(batch, 2)
        hidden = hidden_rows(params, known, query)[0]
        logits = hidden.data @ params.entity_emb.data.reshape(5, -1).T
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        targets = (np.arange(0, 25, 5), np.tile(np.arange(5), 4), p.ravel())
        loss = link_prediction(params, batch, targets)
        entropy = -(p * np.log(p)).sum()
        assert loss.item() == pytest.approx(entropy / 2.0, rel=1e-9)

    def test_single_entity_graph_has_zero_loss(self):
        cfg = ModelConfig(1, 1, k=1, ce=2, cr=2, batchnorm=False)
        params = ModelParams(cfg, rng=np.random.default_rng(4))
        batch = np.array([[0, 0, 0]], dtype=np.int32)
        targets = build_targets(batch, index_of(batch, 1, 1), "1vsall")
        assert link_prediction(params, batch, targets).item() == pytest.approx(0.0, abs=1e-12)


class TestBidirectionalLogits:
    @pytest.mark.parametrize("core_mode", ["independent", "shared"])
    def test_repeated_relations_match_per_example_reference(self, core_mode):
        cfg = ModelConfig(9, 4, k=2, ce=3, cr=4, core_mode=core_mode, batchnorm=False)
        params = ModelParams(cfg, rng=np.random.default_rng(7))
        h = np.array([0, 3, 5, 5, 8, 1, 2])
        t = np.array([4, 4, 0, 7, 2, 6, 6])
        r = np.array([2, 0, 2, 2, 3, 0, 2])
        known, query, _ = queries(np.stack([h, t, r], axis=1), 4)
        hidden, mappings, rel_part, counts = hidden_rows(params, known, query)
        assert mappings.shape == (3, 2, 3, 3)
        np.testing.assert_array_equal(counts, [4, 8, 2])  # per query row, two per triple

        core = np.broadcast_to(params.core.data, (cfg.k, cfg.ce, cfg.ce, cfg.cr))
        m = np.einsum("kijl,nkl->nkij", core, params.relation_emb.data[r])
        ent = params.entity_emb.data
        tail_hidden = np.einsum("nki,nkij->nkj", ent[h], m).reshape(len(r), -1)
        head_hidden = np.einsum("nkj,nkij->nki", ent[t], m).reshape(len(r), -1)
        expected = np.concatenate([tail_hidden, head_hidden])
        np.testing.assert_allclose(hidden.data, expected, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(mappings.data, m[[1, 0, 4]], rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(rel_part.data, params.relation_emb.data[[0, 2, 3]])


WN18RR_WEIGHTS = dict(lambda_ortho=0.1, lambda_unitnorm=5e-4, p_norm=3)


class TestTotalLoss:
    def make(self, seed=0, **kw):
        store = random_store(7, 3, n_train=10, seed=seed)
        cfg = ModelConfig(7, 3, k=2, ce=3, cr=3, seed=seed, **kw)
        params = ModelParams(cfg)
        index = build_filter_index(store, ("train",))
        batch = store.splits["train"][:5]
        return params, batch, build_targets(batch, index, cfg.sampling)

    def test_zero_lambda_equals_link_prediction_exactly(self):
        params, batch, targets = self.make(seed=1, lambda_ortho=0.0)
        loss, parts = total_loss(params, batch, targets)
        assert loss.item() == parts["link_prediction"]
        assert loss.item() == link_prediction(params, batch, targets).item()
        assert parts["ortho"] == 0.0

    def test_wn18rr_setting_accepted(self):
        params, batch, targets = self.make(seed=2, **WN18RR_WEIGHTS)
        loss, parts = total_loss(params, batch, targets)
        assert np.isfinite(loss.item())
        assert parts["ortho"] > 0.0

    def test_additivity(self):
        params, batch, targets = self.make(seed=3, lambda_ortho=0.25, lambda_unitnorm=1e-3,
                                          p_norm=3)
        loss, _ = total_loss(params, batch, targets)
        lp = link_prediction(params, batch, targets)
        import meim.tensor as T

        distinct, _, inverse, _ = generate_mappings(params, batch[:, 2])
        mappings = T.gather_rows(distinct, inverse)  # one row per example, no counts
        rel_part = T.gather_rows(params.relation_emb, batch[:, 2])
        penalty = ortho_loss(mappings, rel_part, params.config, np.ones(len(batch)))
        assert loss.item() == pytest.approx(lp.item() + penalty.item(), rel=1e-12)

    @pytest.mark.parametrize("sampling", ["1vsall", "kvsall"])
    @pytest.mark.parametrize("bn_per_partition", [False, True])
    def test_gradients_match_finite_differences(self, sampling, bn_per_partition):
        params, batch, targets = self.make(seed=4, sampling=sampling, batchnorm=True,
                                          bn_per_partition=bn_per_partition, **WN18RR_WEIGHTS)
        leaves = [t for _, t in params.leaves()]

        def f(_):
            loss, _parts = total_loss(params, batch, targets, training=True, rng=None)
            return loss

        assert finite_diff_check(f, leaves) < 1e-4

    def test_shared_core_gradients_match_finite_differences(self):
        # the (1, Ce*Ce, Cr) core broadcasts over partitions inside the mapping GEMM
        params, batch, targets = self.make(seed=5, sampling="kvsall", core_mode="shared",
                                          **WN18RR_WEIGHTS)
        leaves = [t for _, t in params.leaves()]

        def f(_):
            loss, _parts = total_loss(params, batch, targets, training=True, rng=None)
            return loss

        assert finite_diff_check(f, leaves) < 1e-4

    @staticmethod
    def traced_step(num_entities, batch_size, ce, seed, num_relations=11, **weights):
        """One K=3 k-vs-all total_loss + backward; returns (loss, grads, traced peak bytes).

        `weights` override the WN18RR regularizer weights.
        """
        store = random_store(num_entities, num_relations, n_train=batch_size, seed=seed)
        cfg = ModelConfig(num_entities, num_relations, k=3, ce=ce, cr=ce, sampling="kvsall",
                          seed=seed, input_dropout=0.2, hidden_dropout=0.2,
                          **{**WN18RR_WEIGHTS, **weights})
        params = ModelParams(cfg)
        index = build_filter_index(store, ("train",))
        batch = store.splits["train"]
        targets = build_targets(batch, index, cfg.sampling)
        leaves = [t for _, t in params.leaves()]
        tracemalloc.start()
        try:
            with GradTape() as tape:
                loss, _ = total_loss(params, batch, targets, training=True,
                                     rng=np.random.default_rng(0))
            grads = backward(tape, loss, leaves)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss.item())
        assert all(np.all(np.isfinite(g)) for g in grads)
        return loss, grads, peak

    def test_paper_shape_step_memory_is_bounded(self):
        # K=3, Ce=Cr=100: a per-example mapping VJP would need ~1.6 GiB here
        _, _, peak = self.traced_step(300, 64, ce=100, seed=6)
        assert peak < 256 * 2**20

    def test_preset_batch_step_copies_no_mapping_per_example(self):
        # K=3, Ce=Cr=100, batch 1024: the (2B, K, Ce, Ce) per-example
        # mappings alone would take 469 MiB
        _, _, peak = self.traced_step(300, 1024, ce=100, seed=8)
        assert peak < 128 * 2**20

    def test_many_relation_step_holds_no_transposed_mapping_copy(self):
        # K=3, Ce=Cr=100, batch 1024 over 237 relations (FB15k-237), no
        # regularizer: the (U, K, Ce, Ce) mappings of U <= 237 distinct
        # relations take at most 237 * 3 * 100^2 * 8 B = 54.2 MiB. The step
        # holds them, their gradient and the 22.9 MiB (K, Ce^2, Cr) core
        # gradient, about 3x in all (159 MiB at this seed's U = 232). A
        # (2U, K, Ce, Ce) copy of both orientations and its gradient add 4x
        # more (318 MiB), so 4x = 217 MiB bounds a step without the copy
        mapping_bytes = 237 * 3 * 100 * 100 * 8
        _, _, peak = self.traced_step(300, 1024, ce=100, seed=9, num_relations=237,
                                      lambda_ortho=0.0)
        assert peak < 4 * mapping_bytes

    def test_desk_shape_step_holds_one_score_buffer(self):
        # K=3, Ce=Cr=10 over 20,000 entities: the (2B, E) scores outweigh
        # everything else, and a second score-sized array would break the bound
        num_entities, batch_size = 20_000, 128
        _, _, peak = self.traced_step(num_entities, batch_size, ce=10, seed=7)
        assert peak <= 1.5 * (2 * batch_size * num_entities * 8)

    def test_scores_stream_through_one_block(self, monkeypatch):
        # eight score blocks of 32 rows: holding the whole (2B, E) scores, or
        # a second block-sized array next to the gradients, breaks the bound
        num_entities, batch_size, block_rows = 20_000, 128, 32
        block = block_rows * num_entities * 8
        monkeypatch.setattr(tensor, "_SCORE_BLOCK_BYTES", block)
        _, _, peak = self.traced_step(num_entities, batch_size, ce=10, seed=7)
        gradients = (2 * batch_size + num_entities) * 30 * 8  # (N + E) * D
        assert peak <= 2 * block + gradients

    def test_kvsall_equals_onevsall_on_single_answer_graph(self):
        # every (h, r) and (t, r) query has exactly one answer
        triples = np.array([[0, 1, 0], [2, 3, 0], [4, 5, 1]], dtype=np.int32)
        store = random_store(6, 2, n_train=1, seed=0)
        store.splits["train"] = triples
        index = build_filter_index(store, ("train",))
        cfg = ModelConfig(6, 2, k=2, ce=2, cr=2, batchnorm=False, seed=9)
        params = ModelParams(cfg)
        losses = {}
        for sampling in ("1vsall", "kvsall"):
            targets = build_targets(triples, index, sampling)
            losses[sampling] = link_prediction(params, triples, targets).item()
        assert losses["1vsall"] == pytest.approx(losses["kvsall"], rel=1e-15)
