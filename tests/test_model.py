"""Scoring paths, mapping generation, special-case constructors, parameter counts."""

import numpy as np
import pytest
from conftest import random_store
from oracles import (
    blockterm_score,
    brute_force_score,
    complex_trilinear_score,
    make_special_case,
    partition,
    rescal_score,
    trilinear_score,
)

from meim.errors import ConfigError, IdLookupError
from meim.model import (
    ModelConfig,
    ModelParams,
    all_entity_logits,
    count_params,
    entity_minor,
    hidden_rows,
    mean_orthogonality_gap,
    score,
)
from meim.objective import build_targets, total_loss
from meim.data import build_filter_index
from meim.optim import Adam
from meim.tensor import GradTape, Tensor, backward


def per_example_mappings(params, rel_ids) -> np.ndarray:
    """The distinct mappings of hidden_rows, gathered back to one per example."""
    rel_ids = np.asarray(rel_ids)
    m = hidden_rows(params, np.zeros_like(rel_ids), rel_ids)[1]
    return m.data[np.unique(rel_ids, return_inverse=True)[1]]


def tail_scores(params, h_id, r_id) -> np.ndarray:
    return all_entity_logits(params, [h_id], [r_id], "tail").data[0]


def head_scores(params, t_id, r_id) -> np.ndarray:
    return all_entity_logits(params, [t_id], [r_id], "head").data[0]


def plain_config(num_entities=5, num_relations=2, k=2, ce=3, cr=3, **kw):
    kw.setdefault("batchnorm", False)
    return ModelConfig(num_entities, num_relations, k=k, ce=ce, cr=cr, **kw)


class TestPartition:
    def test_contiguous_reshape(self):
        out = partition(Tensor([1.0, 2, 3, 4, 5, 6]), k=3, c=2)
        np.testing.assert_array_equal(out.data, [[1, 2], [3, 4], [5, 6]])

    def test_single_partition_is_identity(self):
        x = np.arange(4.0)
        out = partition(Tensor(x), k=1, c=4)
        np.testing.assert_array_equal(out.data[0], x)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        np.testing.assert_array_equal(partition(Tensor(x), 4, 3).data.reshape(-1), x)

    def test_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            partition(Tensor(np.zeros(7)), k=2, c=3)


class TestGenerateMappings:
    def test_zero_core_gives_zero_maps(self):
        params = ModelParams(plain_config())
        params.core.data[:] = 0.0
        m = per_example_mappings(params, [0, 1])
        assert m.shape == (2, 2, 3, 3)
        np.testing.assert_array_equal(m, np.zeros_like(m))

    def test_indicator_core_gives_identity(self):
        cfg = plain_config(k=2, ce=2, cr=2)
        params = ModelParams(cfg)
        params.core.data[:] = 0.0
        for k in range(cfg.k):
            for i in range(cfg.ce):
                params.core.data[k, i, i, 0] = 1.0  # m[i,j] = delta_ij * r[0]
        params.relation_emb.data[:] = 0.0
        params.relation_emb.data[:, :, 0] = 1.0  # every partition is e1
        m = per_example_mappings(params, [0])
        np.testing.assert_allclose(m[0], np.broadcast_to(np.eye(2), (2, 2, 2)))

    def test_matches_loop_oracle(self):
        cfg = plain_config(k=2, ce=2, cr=2)
        params = ModelParams(cfg, rng=np.random.default_rng(5))
        rel_ids = np.array([1, 0, 1])
        m = per_example_mappings(params, rel_ids)
        for n, rid in enumerate(rel_ids):
            for k in range(cfg.k):
                for i in range(cfg.ce):
                    for j in range(cfg.ce):
                        expected = sum(
                            params.core.data[k, i, j, l] * params.relation_emb.data[rid, k, l]
                            for l in range(cfg.cr)
                        )
                        assert m[n, k, i, j] == pytest.approx(expected, rel=1e-12)

    def test_shared_core_reused_for_every_partition(self):
        cfg = plain_config(k=3, ce=2, cr=2, core_mode="shared")
        params = ModelParams(cfg, rng=np.random.default_rng(6))
        params.relation_emb.data[0] = params.relation_emb.data[0, 0]  # same partition everywhere
        m = per_example_mappings(params, [0])
        np.testing.assert_allclose(m[0, 0], m[0, 1], rtol=1e-15)
        np.testing.assert_allclose(m[0, 0], m[0, 2], rtol=1e-15)

    def test_out_of_range_relation(self):
        params = ModelParams(plain_config())
        with pytest.raises(IdLookupError):
            hidden_rows(params, [0], [99])


class TestScore:
    def test_single_cell_multiplies_scalars(self):
        cfg = plain_config(num_entities=2, num_relations=1, k=1, ce=1, cr=1)
        params = ModelParams(cfg)
        params.core.data[:] = 1.0
        params.entity_emb.data[0, 0, 0] = 2.0
        params.entity_emb.data[1, 0, 0] = 3.0
        params.relation_emb.data[0, 0, 0] = 5.0
        assert score(params, 0, 1, 0) == pytest.approx(30.0)

    def test_zero_relation_gives_zero(self):
        params = ModelParams(plain_config(), rng=np.random.default_rng(1))
        params.relation_emb.data[1] = 0.0
        assert score(params, 0, 1, 1) == 0.0

    @pytest.mark.parametrize("core_mode", ["shared", "independent"])
    def test_matches_blockterm_and_brute_force_oracles(self, core_mode):
        rng = np.random.default_rng(9)
        for trial in range(20):
            k = int(rng.integers(1, 4))
            ce = int(rng.integers(1, 5))
            cr = int(rng.integers(1, 5))
            cfg = plain_config(num_entities=4, num_relations=2, k=k, ce=ce, cr=cr,
                               core_mode=core_mode)
            params = ModelParams(cfg, rng=rng)
            got = score(params, 0, 1, 0)
            raw = (params.core.data, params.entity_emb.data[0], params.entity_emb.data[1],
                   params.relation_emb.data[0])
            for oracle in (brute_force_score, blockterm_score):
                assert got == pytest.approx(oracle(*raw), rel=1e-10, abs=1e-12)

    def test_invalid_ids(self):
        params = ModelParams(plain_config())
        with pytest.raises(IdLookupError):
            score(params, 0, 99, 0)


class TestScoreAll:
    @pytest.mark.parametrize("batchnorm", [False, True])
    def test_matches_per_triple_scores(self, batchnorm):
        cfg = ModelConfig(3, 2, k=2, ce=2, cr=2, batchnorm=batchnorm)
        params = ModelParams(cfg, rng=np.random.default_rng(2))
        tails = tail_scores(params, 1, 0)
        heads = head_scores(params, 1, 0)
        for e in range(3):
            assert tails[e] == pytest.approx(score(params, 1, e, 0), rel=1e-10, abs=1e-12)
            assert heads[e] == pytest.approx(score(params, e, 1, 0), rel=1e-10, abs=1e-12)

    def test_per_partition_batchnorm_matches_per_triple_scores(self):
        cfg = ModelConfig(4, 2, k=3, ce=2, cr=2, batchnorm=True, bn_per_partition=True)
        params = ModelParams(cfg, rng=np.random.default_rng(7))
        assert params.state["bn_input.gamma"].shape == (2,)  # pooled over partitions
        tails = tail_scores(params, 1, 0)
        for e in range(4):
            assert tails[e] == pytest.approx(score(params, 1, e, 0), rel=1e-10, abs=1e-12)

    def test_symmetric_mapping_makes_directions_agree(self):
        cfg = plain_config(k=1, ce=2, cr=1)
        params = ModelParams(cfg, rng=np.random.default_rng(3))
        params.core.data[:] = 0.0
        params.core.data[0, 0, 0, 0] = 1.0
        params.core.data[0, 1, 1, 0] = 1.0  # mapping = r0 * identity, symmetric
        t = tail_scores(params, 2, 0)
        h = head_scores(params, 2, 0)
        np.testing.assert_allclose(t, h, rtol=1e-12)

    def test_zero_entities_give_zero_scores(self):
        params = ModelParams(plain_config(), rng=np.random.default_rng(4))
        params.entity_emb.data[:] = 0.0
        np.testing.assert_array_equal(tail_scores(params, 0, 0), np.zeros(5))

    def test_outputs_finite(self):
        params = ModelParams(ModelConfig(6, 2, k=2, ce=3, cr=3), rng=np.random.default_rng(8))
        out = all_entity_logits(params, [0, 1], [0, 1], "tail").data
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("direction", ["tail", "head"])
    def test_scores_into_a_given_buffer(self, direction):
        # batch norm on, so the rows also pass the running statistics
        params = ModelParams(ModelConfig(6, 2, k=2, ce=3, cr=3), rng=np.random.default_rng(8))
        buf = np.full((5, 6), np.nan)
        got = all_entity_logits(params, [0, 3, 5], [1, 0, 1], direction, out=buf[:3])
        assert np.shares_memory(got.data, buf)
        np.testing.assert_array_equal(
            got.data, all_entity_logits(params, [0, 3, 5], [1, 0, 1], direction).data)
        assert np.isnan(buf[3:]).all()

    # (entity ids, relation ids) whose (entity, relation) pairs repeat in several orders
    REPEATS = {
        "none": ([0, 3, 5, 3], [1, 0, 1, 1]),
        "all-one-query": ([4] * 5, [1] * 5),
        "repeats-first": ([2, 2, 2, 0, 5, 2], [0, 0, 0, 1, 1, 0]),
        "interleaved": ([0, 3, 0, 5, 3, 0, 3, 5], [1, 0, 1, 1, 0, 1, 1, 1]),
    }

    @pytest.mark.parametrize("ids, rels", REPEATS.values(), ids=REPEATS.keys())
    @pytest.mark.parametrize("direction", ["tail", "head"])
    @pytest.mark.parametrize("given_out", [False, True])
    def test_each_row_is_its_distinct_querys_row(self, ids, rels, direction, given_out):
        # each distinct (entity, relation) row is scored once, as by a call on the
        # distinct rows alone in order of first occurrence, and its repeats copy it
        params = ModelParams(ModelConfig(300, 2, k=2, ce=3, cr=3), rng=np.random.default_rng(8))
        pairs = np.stack([ids, rels], axis=1)
        _, first = np.unique(pairs, axis=0, return_index=True)
        distinct = pairs[np.sort(first)]
        want = all_entity_logits(params, distinct[:, 0], distinct[:, 1], direction).data
        buf = np.full((len(ids) + 2, 300), np.nan) if given_out else None
        got = all_entity_logits(params, ids, rels, direction,
                                out=None if buf is None else buf[:len(ids)]).data
        assert got.shape == (len(ids), 300)
        for row, (e, r) in enumerate(pairs):
            match = np.flatnonzero((distinct == (e, r)).all(axis=1))[0]
            np.testing.assert_array_equal(got[row], want[match])
        if given_out:
            assert np.shares_memory(got, buf) and np.isnan(buf[len(ids):]).all()

    @pytest.mark.parametrize("direction", ["tail", "head"])
    def test_entity_minor_table_gives_the_same_bits(self, direction):
        # a model's table is entity-minor, trained or loaded, but `from_state_arrays`
        # takes a C-ordered one as given; 16 rows against 4,000 entities of width 30
        # keep the product above the sizes where OpenBLAS picks its kernel by layout
        # (see test_tensor)
        params = ModelParams(ModelConfig(4000, 3, k=3, ce=10, cr=4),
                             rng=np.random.default_rng(9))
        assert params.entity_emb.data.strides == entity_minor((4000, 3, 10)).strides
        restored = ModelParams.from_state_arrays(
            params.config, {name: np.ascontiguousarray(arr)
                            for name, arr in params.state_arrays().items()})
        assert restored.entity_emb.data.flags.c_contiguous
        ids, rels = np.arange(0, 4000, 250), np.arange(16) % 3
        np.testing.assert_array_equal(all_entity_logits(params, ids, rels, direction).data,
                                      all_entity_logits(restored, ids, rels, direction).data)

    @pytest.mark.parametrize("direction", ["tail", "head"])
    def test_relation_outside_vocabulary_rejected(self, direction):
        # a tail query of r = R would otherwise read as the head query of relation 0
        params = ModelParams(plain_config())
        with pytest.raises(IdLookupError, match="relation id 2 "):
            all_entity_logits(params, [0], [2], direction)

    def test_hidden_rows_reject_query_outside_both_directions(self):
        params = ModelParams(plain_config())  # R = 2: query ids 0..3
        assert hidden_rows(params, [0, 1], [0, 3])[0].shape == (2, 2, 3)
        for bad in (4, -1):
            with pytest.raises(IdLookupError, match=f"query id {bad} "):
                hidden_rows(params, [0], [bad])


class TestSpecialCases:
    def test_distmult_example(self):
        params = make_special_case("distmult", num_entities=3, num_relations=1, k=2)
        params.entity_emb.data[0] = np.array([[1.0], [2.0]])
        params.entity_emb.data[1] = np.array([[3.0], [4.0]])
        params.relation_emb.data[0] = np.array([[5.0], [6.0]])
        assert score(params, 0, 1, 0) == 63.0

    def test_distmult_matches_trilinear_oracle(self):
        rng = np.random.default_rng(12)
        params = make_special_case("distmult", num_entities=4, num_relations=2, k=6, rng=rng)
        expected = trilinear_score(
            params.entity_emb.data[2].ravel(),
            params.entity_emb.data[3].ravel(),
            params.relation_emb.data[1].ravel(),
        )
        assert score(params, 2, 3, 1) == expected

    def test_complex_mapping_block(self):
        params = make_special_case("complex", num_entities=3, num_relations=2, k=4,
                                   rng=np.random.default_rng(13))
        m = per_example_mappings(params, [1])[0]
        for k in range(params.config.k):
            r0, r1 = params.relation_emb.data[1, k]
            np.testing.assert_allclose(m[k], [[r0, -r1], [r1, r0]], rtol=1e-15)

    def test_complex_matches_complex_arithmetic_oracle(self):
        rng = np.random.default_rng(14)
        params = make_special_case("complex", num_entities=5, num_relations=3, k=3, rng=rng)
        for _ in range(50):
            h, t = rng.integers(5, size=2)
            r = int(rng.integers(3))
            expected = complex_trilinear_score(
                params.entity_emb.data[h], params.entity_emb.data[t], params.relation_emb.data[r]
            )
            assert score(params, int(h), int(t), r) == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_rescal_matches_matrix_oracle(self):
        rng = np.random.default_rng(15)
        params = make_special_case("rescal", num_entities=4, num_relations=2, ce=3, rng=rng)
        expected = rescal_score(
            params.entity_emb.data[0].ravel(),
            params.entity_emb.data[1].ravel(),
            params.relation_emb.data[0].ravel(),
            ce=3,
        )
        assert score(params, 0, 1, 0) == pytest.approx(expected, rel=1e-12)

    def test_complex_orthogonality_gap_closed_form(self):
        # a ComplEx mapping [[r0, -r1], [r1, r0]] has M^T M = (r0^2 + r1^2) I
        params = make_special_case("complex", num_entities=3, num_relations=4, k=3,
                                   rng=np.random.default_rng(16))
        angle = np.random.default_rng(17).uniform(0.0, 2 * np.pi, size=(4, 3))
        params.relation_emb.data[:] = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        assert mean_orthogonality_gap(params) == pytest.approx(0.0, abs=1e-12)
        params.relation_emb.data[:] *= 2.0  # M^T M - I = 3 I, whose norm is 3 sqrt(2)
        assert mean_orthogonality_gap(params) == pytest.approx(3 * np.sqrt(2), abs=1e-12)

    def test_core_is_frozen(self):
        params = make_special_case("distmult", num_entities=3, num_relations=1, k=2)
        assert all(name != "core" for name, _ in params.leaves())


class TestCountParams:
    @pytest.mark.parametrize(
        "num_entities,num_relations,k,c,expected",
        [
            (14541, 237, 3, 100, 7_433_400),
            (40943, 11, 3, 100, 15_286_200),
            (123182, 37, 5, 100, 66_609_500),
        ],
    )
    def test_benchmark_totals(self, num_entities, num_relations, k, c, expected):
        cfg = ModelConfig(num_entities, num_relations, k=k, ce=c, cr=c, core_mode="independent")
        assert count_params(cfg) == expected

    def test_unit_sizes(self):
        assert count_params(ModelConfig(1, 1, k=1, ce=1, cr=1)) == 3

    def test_shared_mode_uses_single_core(self):
        ind = ModelConfig(10, 2, k=4, ce=3, cr=3, core_mode="independent")
        sh = ModelConfig(10, 2, k=4, ce=3, cr=3, core_mode="shared")
        assert count_params(ind) - count_params(sh) == 3 * 3 * 3 * 3

    def test_matches_materialized_parameter_sizes(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            cfg = ModelConfig(
                int(rng.integers(1, 50)), int(rng.integers(1, 10)),
                k=int(rng.integers(1, 5)), ce=int(rng.integers(1, 6)),
                cr=int(rng.integers(1, 6)),
                core_mode="shared" if rng.random() < 0.5 else "independent",
            )
            params = ModelParams(cfg)
            materialized = (params.entity_emb.size + params.relation_emb.size
                            + params.core.size)
            assert count_params(cfg) == materialized


class TestEntityLayout:
    def test_table_is_entity_minor_and_drawn_as_one_draw(self):
        # 5,000 rows of 60 floats: three draws of 1 MiB row blocks
        config = ModelConfig(5000, 2, k=3, ce=20, cr=4, core_mode="shared", seed=6)
        params = ModelParams(config)
        table = params.entity_emb.data
        assert table.strides == entity_minor(table.shape).strides == (8, 8 * 5000 * 20, 8 * 5000)
        rng = np.random.default_rng(6)
        for name, bound in (("entity_emb", np.sqrt(3.0 / 20)), ("relation_emb", np.sqrt(3.0 / 4)),
                            ("core", np.sqrt(6.0 / (4 + 20 * 20)))):
            # the tables after it continue the same stream
            want = rng.uniform(-bound, bound, size=params.state[name].shape)
            np.testing.assert_array_equal(params.state[name].data, want)

    def test_gradient_and_moments_take_the_table_layout(self):
        store = random_store(40, 3, n_train=30, seed=2)
        params = ModelParams(ModelConfig(40, 3, k=2, ce=3, cr=3, sampling="kvsall"))
        batch = store.splits["train"]
        targets = build_targets(batch, build_filter_index(store, ("train",)), "kvsall")
        with GradTape() as tape:
            total_loss(params, batch, targets, training=True, rng=np.random.default_rng(0))
        leaves = params.leaves()
        grads = backward(tape, [t for _, t in leaves])
        adam = Adam()
        adam.step(leaves, grads, 1e-3)
        table = params.entity_emb.data
        grad = grads[[name for name, _ in leaves].index("entity_emb")]
        assert (grad.strides == adam.m["entity_emb"].strides == adam.v["entity_emb"].strides
                == table.strides == entity_minor(table.shape).strides)


class TestSharedModeEquivalence:
    def test_tiled_independent_matches_shared_at_step_zero(self, tiny_store):
        weights = dict(lambda_ortho=0.1, lambda_unitnorm=5e-4)
        shared_cfg = ModelConfig(7, 3, k=2, ce=3, cr=3, core_mode="shared", seed=11, **weights)
        ind_cfg = ModelConfig(7, 3, k=2, ce=3, cr=3, core_mode="independent", seed=11, **weights)
        shared = ModelParams(shared_cfg)
        ind = ModelParams(ind_cfg)
        ind.entity_emb.data[:] = shared.entity_emb.data
        ind.relation_emb.data[:] = shared.relation_emb.data
        ind.core.data[:] = shared.core.data[0]  # tile the one core over partitions

        batch = tiny_store.splits["train"][:6]
        index = build_filter_index(tiny_store, ("train",))

        def loss_and_core_grad(params):
            targets = build_targets(batch, index, "kvsall")
            with GradTape() as tape:
                loss, _ = total_loss(params, batch, targets)
            (core_grad,) = backward(tape, [params.core])
            return loss.item(), core_grad

        loss_shared, g_shared = loss_and_core_grad(shared)
        loss_ind, g_ind = loss_and_core_grad(ind)
        assert loss_shared == pytest.approx(loss_ind, rel=1e-12)
        np.testing.assert_allclose(g_shared[0], g_ind.sum(axis=0), rtol=1e-9, atol=1e-12)
