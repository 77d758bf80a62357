"""Contraction kernels, the loss primitive, and taped differentiation."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import probe, sin, softmax_cross_entropy

from meim import tensor as T
from meim.errors import ShapeError, ValidationError
from meim.model import entity_minor
from meim.tensor import (
    GradTape,
    Tensor,
    backward,
    finite_diff_check,
    matmul_softmax_cross_entropy,
)


def dense_oracle(hidden, table, dense, scale=1.0):
    """Loss and (hidden, table) gradients of the dense softmax cross-entropy of hidden @ table^T.

    The taped dense loss gives the gradient of the scores; numpy carries it
    through the product by the chain rule.
    """
    logits = Tensor(hidden @ table.T, requires_grad=True)
    with GradTape() as tape:
        loss = probe(softmax_cross_entropy(logits, dense), scale)
    (g,) = backward(tape, [logits])
    return [np.float64(loss.item()), g @ table, g.T @ hidden]


class TestSoftmaxCrossEntropy:
    def test_uniform_two_classes_is_ln2(self):
        loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_uniform_softmax_one_hot_is_ln4(self):
        loss = softmax_cross_entropy(
            Tensor([[1.0, 1.0, 1.0, 1.0]]), np.array([[0.0, 1.0, 0.0, 0.0]])
        )
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_direct_softmax_oracle(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        # independent oracle: explicit softmax then -log p
        p = np.exp(logits[0]) / np.exp(logits[0]).sum()
        expected = -math.log(p[2])
        loss = softmax_cross_entropy(Tensor(logits), np.array([[0.0, 0.0, 1.0]]))
        assert loss.item() == pytest.approx(expected, rel=1e-12)
        assert loss.item() == pytest.approx(0.407606, abs=5e-7)

    def test_row_not_summing_to_one_rejected(self):
        with pytest.raises(ValidationError, match="row 0"):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([[0.6, 0.6]]))

    def test_extreme_logits_stay_finite(self):
        logits = Tensor([[1e6, -1e6, 0.0]])
        loss = softmax_cross_entropy(logits, np.array([[0.0, 1.0, 0.0]]))
        assert np.isfinite(loss.item())

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(1, 4), e=st.integers(2, 6))
    def test_lower_bound_is_target_entropy(self, seed, n, e):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, e))
        t = rng.random((n, e)) + 1e-3
        t /= t.sum(axis=1, keepdims=True)
        loss = softmax_cross_entropy(Tensor(logits), t).item()
        entropy = -(t * np.log(t)).sum()
        assert loss >= entropy - 1e-9

    def test_sparse_matches_dense(self):
        rng = np.random.default_rng(11)
        hidden, table = rng.normal(size=(3, 4)), rng.normal(size=(6, 4))
        offsets = np.array([0, 1, 3, 6])
        ids = np.array([2, 0, 4, 1, 3, 5])
        weights = np.array([1.0, 0.5, 0.5, 1 / 3, 1 / 3, 1 / 3])
        dense = np.zeros((3, 6))
        dense[[0, 1, 1, 2, 2, 2], ids] = weights

        def loss_and_grads(loss_fn):
            h, t = Tensor(hidden, requires_grad=True), Tensor(table, requires_grad=True)
            with GradTape() as tape:
                loss = loss_fn(h, t)
            return [loss.item()] + backward(tape, [h, t])

        oracle = dense_oracle(hidden, table, dense)
        fused = loss_and_grads(
            lambda h, t: matmul_softmax_cross_entropy(h, t, offsets, ids, weights, 1.0))
        assert fused[0] == pytest.approx(oracle[0], rel=1e-12)
        for got, want in zip(fused[1:], oracle[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_no_rows_give_zero(self):
        loss = matmul_softmax_cross_entropy(np.zeros((0, 2, 3)), np.zeros((4, 2, 3)), np.array([0]),
                                            np.array([], dtype=np.int64), np.array([]), 1.0)
        assert loss.item() == 0.0

    def test_sparse_weight_validation(self):
        with pytest.raises(ValidationError):
            matmul_softmax_cross_entropy(
                Tensor(np.zeros((1, 2))), Tensor(np.zeros((4, 2))),
                np.array([0, 2]), np.array([0, 1]), np.array([0.5, 0.6]), 1.0
            )

    def test_row_softmax_changes_no_bit(self):
        rng = np.random.default_rng(12)
        hidden, table = rng.normal(size=(10, 4)), rng.normal(size=(7, 4))
        offsets = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12])
        ids = np.array([n % 7 for n in range(8)] + [1, 5, 1, 5])
        w = np.array([1.0] * 8 + [0.25, 0.75, 0.25, 0.75])

        def run():
            h, t = Tensor(hidden, requires_grad=True), Tensor(table, requires_grad=True)
            with GradTape() as tape:
                loss = matmul_softmax_cross_entropy(h, t, offsets, ids, w, 0.3)
            return [np.float64(loss.item())] + backward(tape, [h, t])

        # the whole score matrix as one block, in plain numpy: exponentiated unshifted,
        # every row's best target being above the shift rule's bound, and normalised late
        at = (np.repeat(np.arange(10), np.diff(offsets)), ids)
        buf = np.exp(np.matmul(hidden, table.T))
        sums = buf.sum(axis=1)
        loss = -float(w @ np.log(np.maximum(buf[at] / sums[at[0]], 1e-300))) * 0.3
        buf[at] -= w * sums[at[0]]
        reference = [np.float64(loss), (buf @ table) / sums[:, None] * 0.3,
                     (((hidden / sums[:, None]).T @ buf) * 0.3).T]

        # the fused op exponentiates and sums one row at a time; the reference, the whole matrix
        for a, ref in zip(run(), reference):
            np.testing.assert_array_equal(a, ref)

    # rows of scores a + b * v over the table rows (1, v): each case's target,
    # and whether its best target scores below the shift rule's bound
    TABLE_V = [-4.0, -2.0, 0.0, 1.2, 2.4, 4.0, 0.8]
    ROWS = {
        "ordinary": ((0.5, 1.0), 3, False),
        "shifted": ((-715.0, 1.25), 0, True),  # scores -720 to -710: subnormal unshifted
        "rescored": ((720.0, 1.25), 5, False),  # scores 715-725: exp overflows
        "sum-overflows": ((709.0, 0.0), 1, False),  # scores 709: a finite exp, a sum above the max
        "sum-scaled": ((706.0, 0.75), 0, False),  # scores 703-709: a sum of 1.3e308
        "all-zero": ((0.0, 0.0), 2, False),
        "below-750": ((-800.0, 1.25), 4, True),  # scores -805 to -795
        "subnormal-exp": ((-1767.5, 437.5), 5, False),  # target -17.5, next -717.5: subnormal
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(ROWS))
    def test_each_exp_path_matches_dense_oracle(self, case, monkeypatch):
        table = np.array([[1.0, v] for v in self.TABLE_V])
        # the case's row, an ordinary row, then the case's row again in a second block
        (a, b), target, shifted = self.ROWS[case]
        hidden = np.array([[a, b], [0.5, 1.0], [a, b]])
        ids = np.array([target, 3, target])
        assert (hidden[0] @ table[target] < T._LEAST_TOP) == shifted
        dense = np.zeros((3, len(table)))
        dense[np.arange(3), ids] = 1.0
        monkeypatch.setattr(T, "score_block_rows", lambda table: 2)

        h, t = Tensor(hidden, requires_grad=True), Tensor(table, requires_grad=True)
        with GradTape() as tape:
            loss = matmul_softmax_cross_entropy(h, t, np.arange(4), ids, np.ones(3), 0.5)
        fused = [np.float64(loss.item())] + backward(tape, [h, t])
        for got, want in zip(fused, dense_oracle(hidden, table, dense, 0.5)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("where", ["hidden", "table"])
    def test_nan_row_gives_nan_loss(self, where):
        rng = np.random.default_rng(14)
        hidden, table = rng.normal(size=(3, 4)), rng.normal(size=(7, 4))
        if where == "hidden":
            hidden[1] = np.nan  # its best target is NaN: shifted at once
        else:
            table[6] = np.nan  # no row's target, but every row's sum is NaN: rescored
        loss = matmul_softmax_cross_entropy(Tensor(hidden, requires_grad=True), table,
                                            np.arange(4), np.array([0, 1, 2]), np.ones(3), 1.0)
        assert np.isnan(loss.item())

    def test_score_blocks_match_dense_oracle(self, monkeypatch):
        rng = np.random.default_rng(13)
        hidden, table = rng.normal(size=(10, 4)), rng.normal(size=(7, 4))
        offsets = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12])
        ids = np.array([n % 7 for n in range(8)] + [1, 5, 1, 5])
        w = np.array([1.0] * 8 + [0.25, 0.75, 0.25, 0.75])
        dense = np.zeros((10, 7))
        dense[np.repeat(np.arange(10), np.diff(offsets)), ids] = w

        def run(loss_fn):
            h, t = Tensor(hidden, requires_grad=True), Tensor(table, requires_grad=True)
            with GradTape() as tape:
                loss = loss_fn(h, t)
            return [np.float64(loss.item())] + backward(tape, [h, t])

        oracle = dense_oracle(hidden, table, dense, 0.3)
        monkeypatch.setattr(T, "score_block_rows", lambda table: 3)  # blocks of 3, 3, 3 and 1 rows
        monkeypatch.setattr(T, "_TABLE_COLS", 3)  # table-gradient products of 3, 3 and 1 entities

        def fused(h, t):
            return matmul_softmax_cross_entropy(h, t, offsets, ids, w, 0.3)

        for a, want in zip(run(fused), oracle):
            np.testing.assert_allclose(a, want, rtol=1e-12, atol=1e-12)

    def test_entity_minor_table_gives_the_same_bits(self, monkeypatch):
        # an entity-minor table (model.entity_minor), as trained or loaded, and
        # a C-ordered copy of its values give the same loss and gradients, bit for bit,
        # where each product with the table has 2+ rows and over 10**6
        # multiply-adds, as every training block has at the preset and bench
        # shapes. Below that, OpenBLAS 0.3.31 (AVX-512) picks its small-matrix
        # or one-row kernel by the table's layout, and the last bits can differ.
        rng = np.random.default_rng(29)
        n, m, k, c = 96, 4000, 3, 10  # blocks of 32 rows: 32 * 4000 * 30 multiply-adds each
        hidden, values = rng.normal(size=(n, k, c)), rng.normal(size=(m, k, c))
        minor = entity_minor(values.shape)
        minor[...] = values
        lengths = rng.integers(1, 4, size=n)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        ids = np.concatenate([rng.choice(m, size=size, replace=False) for size in lengths])
        w = np.concatenate([np.full(size, 1.0 / size) for size in lengths])
        monkeypatch.setattr(T, "score_block_rows", lambda table: 40)  # 3 blocks of 32 rows
        monkeypatch.setattr(T, "_TABLE_COLS", 1500)  # added as 1500, 1500 and 1000 entities

        def run(table):
            h, t = Tensor(hidden, requires_grad=True), Tensor(table, requires_grad=True)
            with GradTape() as tape:
                loss = matmul_softmax_cross_entropy(h, t, offsets, ids, w, 0.3)
            return [np.float64(loss.item())] + backward(tape, [h, t])

        got, want = run(minor), run(values)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert got[2].strides == minor.strides  # Adam reads all four arrays in one order


class TestScoreBlockRows:
    @pytest.mark.parametrize("entities, width, rows", [
        (40_943, 30, 102),  # train-desk-wn18rr: the 32 MiB budget binds
        (40_943, 300, 600),  # wn18rr preset and train-paper-wn18rr: twice the table binds
        (14_541, 30, 288),  # the fb15k-237 graph at the desk width: the 32 MiB budget binds
        (123_182, 500, 1_000),  # yago3-10 preset
    ], ids=["desk-wn18rr", "paper-wn18rr", "desk-fb15k237", "yago3-10"])
    def test_rule_at_bench_and_preset_shapes(self, entities, width, rows):
        # the training loss's blocks only: evaluation sizes its chunks by its own,
        # smaller budget (test_evaluation.py::TestChunkRows)
        assert T.score_block_rows(np.broadcast_to(0.0, (entities, width))) == rows

    def test_desk_batch_splits_into_near_equal_blocks(self, monkeypatch):
        # 2,048 rows under the desk cap of 102: 21 blocks of at most 98 rows,
        # not 20 of 102 and one of 8
        rng = np.random.default_rng(17)
        hidden, table = rng.normal(size=(2048, 3)), rng.normal(size=(50, 3))
        offsets, ids, w = np.arange(2049), np.arange(2048) % 50, np.ones(2048)
        monkeypatch.setattr(T, "score_block_rows", lambda table: 102)
        blocks, matmul = [], np.matmul

        def spy(*args, out=None):
            blocks.append(len(out))
            return matmul(*args, out=out)

        monkeypatch.setattr(np, "matmul", spy)
        matmul_softmax_cross_entropy(hidden, table, offsets, ids, w, 1.0)  # untaped: a product a block
        assert len(blocks) == 21 and max(blocks) == 98 and sum(blocks) == 2048


class TestRelationMappings:
    @pytest.mark.parametrize("cores", [3, 1], ids=["independent", "shared"])
    def test_matches_per_partition_einsum(self, cores):
        rng = np.random.default_rng(32)
        core, parts = rng.normal(size=(cores, 4, 4, 2)), rng.normal(size=(5, 3, 2))
        up = rng.normal(size=(5, 3, 4, 4))  # the adjoint of the output
        ct, pt = Tensor(core, requires_grad=True), Tensor(parts, requires_grad=True)
        with GradTape() as tape:
            out = T.relation_mappings(ct, pt)
            probe(out, up)
        gc, gp = backward(tape, [ct, pt])

        per_part = np.broadcast_to(core, (3, 4, 4, 2))  # the core each partition reads
        np.testing.assert_allclose(out.data, np.einsum("kijl,ukl->ukij", per_part, parts),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gp, np.einsum("kijl,ukij->ukl", per_part, up),
                                   rtol=1e-12, atol=1e-12)
        want_gc = np.einsum("ukij,ukl->kijl", up, parts)
        np.testing.assert_allclose(gc, want_gc.sum(axis=0, keepdims=True) if cores == 1 else want_gc,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("core, parts", [
        ((2, 3, 3, 4), (5, 3, 4)),
        ((3, 3, 2, 4), (5, 3, 4)),
        ((3, 3, 3, 4), (5, 3, 2)),
        ((3, 9, 4), (5, 3, 4)),
        ((3, 3, 3, 4), (3, 4)),
    ], ids=["cores-of-other-k", "non-square-core", "parts-of-other-cr", "3-d-core", "2-d-parts"])
    def test_bad_shapes_rejected(self, core, parts):
        with pytest.raises(ShapeError, match="relation_mappings needs"):
            T.relation_mappings(Tensor(np.zeros(core)), Tensor(np.zeros(parts)))


class TestGroupedMatmul:
    @pytest.mark.parametrize("group", [
        [3, 0, 3, 5, 0, 3],  # unsorted; ids 1, 2 and 4 unused; group 5 has one row
        [2, 2, 2, 2, 2, 2],  # every row in one group
        [9, 3, 0, 11, 3, 6],  # mats[3] read both ways; mats[5] and mats[0] transposed
        [8, 8, 8, 8, 8, 8],  # every row in one transposed group
    ], ids=["unsorted-sparse", "one-group", "mixed-transposed", "one-transposed-group"])
    def test_matches_per_example_einsum(self, group):
        rng = np.random.default_rng(31)
        group = np.array(group)
        x, mats = rng.normal(size=(6, 3, 4)), rng.normal(size=(6, 3, 4, 4))
        up = rng.normal(size=(6, 3, 4))  # the adjoint of the output
        xt, mt = Tensor(x, requires_grad=True), Tensor(mats, requires_grad=True)
        with GradTape() as tape:
            out = T.grouped_matmul(xt, mt, group)
            probe(out, up)
        gx, gm = backward(tape, [xt, mt])

        # (N, K, C, C): one mapping copy per row, transposed for a group >= G
        flip = (group >= 6)[:, None, None, None]
        per_row = np.where(flip, mats[group % 6].swapaxes(-1, -2), mats[group % 6])
        np.testing.assert_allclose(out.data, np.einsum("nkc,nkcd->nkd", x, per_row),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gx, np.einsum("nkd,nkcd->nkc", up, per_row),
                                   rtol=1e-12, atol=1e-12)
        outer = np.einsum("nkc,nkd->nkcd", x, up)  # the gradient of each row's per_row
        want_gm = np.zeros_like(mats)
        np.add.at(want_gm, group % 6, np.where(flip, outer.swapaxes(-1, -2), outer))
        np.testing.assert_allclose(gm, want_gm, rtol=1e-12, atol=1e-12)

    def test_bad_groups_rejected(self):
        x, mats = Tensor(np.zeros((2, 1, 3))), Tensor(np.zeros((2, 1, 3, 3)))
        for bad in ([0, 4], [-1, 0]):  # ids 2 and 3 read the transposed mats
            with pytest.raises(ValidationError, match=r"group ids must lie in \[0, 4\)"):
                T.grouped_matmul(x, mats, np.array(bad))
        with pytest.raises(ShapeError):
            T.grouped_matmul(x, mats, np.array([0, 1, 1]))


class TestSoftOrthogonality:
    def test_matches_per_matrix_sums(self):
        mats = _rand((2, 3, 4), 4).reshape((2, 3, 2, 2))
        parts = _rand((2, 3), 1).reshape((2, 3, 1)) * np.array([1.0, 0.5])
        weights, unit_weight, p = np.array([0.3, 1.9]), 0.7, 3
        m, r = Tensor(mats, requires_grad=True), Tensor(parts, requires_grad=True)
        with GradTape() as tape:
            loss = probe(T.soft_orthogonality(m, r, weights, unit_weight, p), 0.5)
        gm, gr = backward(tape, [m, r])

        value, want_gm, want_gr, signs = 0.0, np.zeros_like(mats), np.zeros_like(parts), set()
        for u, k in np.ndindex(2, 3):
            mk, rk = mats[u, k], parts[u, k]
            gap, dev = mk.T @ mk - np.eye(2), rk @ rk - 1.0
            signs.add(np.sign(dev))
            value += weights[u] * (np.sum(gap**2) + unit_weight * abs(dev) ** p)
            want_gm[u, k] = 0.5 * 4.0 * weights[u] * mk @ gap
            want_gr[u, k] = 0.5 * 2.0 * p * weights[u] * unit_weight * dev**2 * np.sign(dev) * rk
        assert signs == {-1.0, 1.0}
        assert loss.item() == pytest.approx(0.5 * value, rel=1e-12)
        np.testing.assert_allclose(gm, want_gm, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gr, want_gr, rtol=1e-12, atol=1e-12)

    def test_partitions_get_no_adjoint_without_unit_weight(self):
        m = Tensor(_rand((1, 2, 3, 3), 5), requires_grad=True)
        r = Tensor(_rand((1, 2, 4), 6), requires_grad=True)
        with GradTape() as tape:
            T.soft_orthogonality(m, r, np.ones(1), 0.0, 3)
        ((_, _, vjp),) = tape._records
        grad_mats, grad_parts = vjp(np.float64(1.0))
        assert grad_parts is None and grad_mats.shape == (1, 2, 3, 3)

    @pytest.mark.parametrize("mats, parts, weights", [
        ((3, 2, 4, 4), (3, 2, 5), (1,)),
        ((3, 2, 4, 3), (3, 2, 5), (3,)),
        ((3, 2, 16), (3, 2, 5), (3,)),
        ((3, 2, 4, 4), (3, 1, 5), (3,)),
        ((3, 2, 4, 4), (3, 2), (3,)),
        ((3, 2, 4, 4), (3, 2, 5), (3, 1)),
    ], ids=["one-weight-for-three-rows", "non-square-mats", "3-d-mats", "parts-of-other-k",
            "2-d-parts", "2-d-weights"])
    def test_bad_shapes_rejected(self, mats, parts, weights):
        with pytest.raises(ShapeError, match="soft_orthogonality needs"):
            T.soft_orthogonality(Tensor(np.zeros(mats)), Tensor(np.zeros(parts)), np.ones(weights),
                                 0.1, 3)


def sum_of_squares(p):
    """sum(p ** 2) as one taped scalar, whose gradient 2p is known exactly."""

    def vjp(g):
        return (2.0 * g * p.data,)

    return T._node(np.float64(np.sum(p.data * p.data)), (p,), vjp)


class TestBackward:
    def test_quadratic_gradient(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            sum_of_squares(p)
        (grad,) = backward(tape, [p])
        np.testing.assert_allclose(grad, [2.0, 4.0], rtol=1e-15)

    def test_unused_leaf_gets_zero(self):
        used = Tensor([3.0], requires_grad=True)
        unused = Tensor([[1.0, 2.0]], requires_grad=True)
        with GradTape() as tape:
            sum_of_squares(used)
        g_used, g_unused = backward(tape, [used, unused])
        np.testing.assert_allclose(g_used, [6.0])
        np.testing.assert_array_equal(g_unused, np.zeros((1, 2)))

    def test_reuse_accumulates_sum_of_single_use_gradients(self):
        # two gathers of one leaf, each the input of its own loss term
        rng = np.random.default_rng(5)
        x, w1, w2 = rng.normal(size=(4, 2)), rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
        first, second = np.array([0, 2, 0]), np.array([2, 3])

        p = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            probe(T.gather_rows(p, first), w1)
            probe(T.gather_rows(p, second), w2)
        (g_both,) = backward(tape, [p])

        p1 = Tensor(x, requires_grad=True)
        with GradTape() as tape1:
            probe(T.gather_rows(p1, first), w1)
        (g1,) = backward(tape1, [p1])
        p2 = Tensor(x, requires_grad=True)
        with GradTape() as tape2:
            probe(T.gather_rows(p2, second), w2)
        (g2,) = backward(tape2, [p2])

        np.testing.assert_allclose(g_both, g1 + g2, rtol=1e-15)

    def test_shared_upstream_gradient_not_aliased(self):
        # each leaf feeds two loss terms, each seeded with its own one
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            for _ in range(2):
                probe(T.gather_rows(a, [0, 1]), np.ones(2))
                probe(T.gather_rows(b, [0, 1]), np.ones(2))
        ga, gb = backward(tape, [a, b])
        np.testing.assert_allclose(ga, [2.0, 2.0])
        np.testing.assert_allclose(gb, [2.0, 2.0])

    def test_scalar_adjoints_accumulate(self):
        # a 0-d adjoint may be a numpy scalar, which += rebinds rather than mutates
        p = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            s = probe(p, np.ones(2))
            probe(s, 2.0)
            probe(s, 3.0)
        (grad,) = backward(tape, [p])
        np.testing.assert_array_equal(grad, [5.0, 5.0])

    def test_record_no_adjoint_reaches_is_skipped(self):
        # without a unit weight the penalty gives its partitions no adjoint, so
        # the gather that made them is replayed with none and its table gets zero
        table = Tensor(_rand((4, 2, 3), 11), requires_grad=True)
        mats = Tensor(_rand((2, 2, 2, 2), 12), requires_grad=True)
        with GradTape() as tape:
            T.soft_orthogonality(mats, T.gather_rows(table, [3, 1]), np.ones(2), 0.0, 3)
        g_table, g_mats = backward(tape, [table, mats])
        np.testing.assert_array_equal(g_table, np.zeros((4, 2, 3)))
        want = 4.0 * mats.data @ (np.swapaxes(mats.data, 2, 3) @ mats.data - np.eye(2))
        np.testing.assert_allclose(g_mats, want, rtol=1e-12, atol=1e-15)

    def test_item_of_non_scalar_rejected(self):
        with pytest.raises(ShapeError, match=r"single-element tensor, got shape \(2,\)"):
            Tensor([1.0, 2.0]).item()

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            T.gather_rows(p, [1, 0])  # read by no later op, so a loss term, but not a scalar
        with pytest.raises(ShapeError, match="scalar"):
            backward(tape, [p])

    def test_empty_tape_gives_zero_gradients(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            pass
        (grad,) = backward(tape, [p])
        np.testing.assert_array_equal(grad, np.zeros(2))

    @pytest.mark.parametrize("first", ["kept_array", "full_sum"])
    def test_gather_adds_distinct_rows_like_add_at(self, first):
        rng = np.random.default_rng(21)
        p = Tensor(rng.normal(size=(6, 2, 3)), requires_grad=True)
        idx = np.array([4, 1, 4, 4, 0, 1])
        w = rng.normal(size=(6, 2, 3))
        kept = rng.normal(size=(6, 2, 3))
        snapshot = kept.copy()
        with GradTape() as tape:
            probe(T.gather_rows(p, idx), w)
            # recorded after the gather, so its adjoint reaches p first
            if first == "kept_array":  # a fresh copy per call: backward owns what a VJP returns
                T._node(np.float64(0.0), (p,), lambda g: (kept.copy(),))
            else:
                probe(p, np.ones_like(kept))
        (grad,) = backward(tape, [p])
        expected = np.zeros_like(p.data)
        np.add.at(expected, idx, w)
        expected = (kept if first == "kept_array" else np.ones_like(kept)) + expected
        np.testing.assert_array_equal(grad, expected)
        np.testing.assert_array_equal(kept, snapshot)

    @pytest.mark.parametrize("shape", [(20_000, 6), (20_000, 2, 3)], ids=["2-d", "3-d"])
    def test_gathered_rows_add_into_the_fused_table_gradient_in_place(self, shape):
        # the fused loss returns its table gradient as a view of its (D, E)
        # buffer, and the gather's rows go into it where it lies, with no copy
        rng = np.random.default_rng(23)
        idx = np.array([7, 3, 7, 19_999, 3, 7])
        offsets, ids, w = np.arange(7), rng.integers(shape[0], size=6), np.ones(6)
        width = math.prod(shape[1:])
        table = Tensor(rng.normal(size=shape), requires_grad=True)

        # oracle: the fused op on a separate hidden leaf, its rows added by np.add.at
        hidden = Tensor(table.data[idx].reshape(6, width), requires_grad=True)
        with GradTape() as tape:
            matmul_softmax_cross_entropy(hidden, table, offsets, ids, w, 1.0)
        grad_hidden, grad_table = backward(tape, [hidden, table])
        rows = np.zeros(shape)
        np.add.at(rows, idx, grad_hidden.reshape((6,) + shape[1:]))

        with GradTape() as tape:
            matmul_softmax_cross_entropy(T.gather_rows(table, idx), table, offsets, ids, w, 1.0)
        tracemalloc.start()
        try:
            (grad,) = backward(tape, [table])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(grad, grad_table + rows)
        assert peak < table.data.nbytes / 2  # a copy of the gradient is one table
        assert grad.strides[0] == 8  # the layout of the (D, E) buffer

    def test_replay_releases_the_graph(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with GradTape() as tape:
            h = T.gather_rows(x, [3, 1, 0])
            forward_buffer = weakref.ref(h.data)
            loss = probe(sin(h), rng.normal(size=(3, 3)))
        del h
        recorded = len(tape)
        (grad,) = backward(tape, [x])
        assert forward_buffer() is None
        assert len(tape) == recorded == 3
        assert np.isfinite(loss.item()) and grad.shape == (4, 3)
        with pytest.raises(ValidationError, match="already replayed"):
            backward(tape, [x])

    def test_tape_records_in_execution_order(self):
        p = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            a = T.gather_rows(p, [0, 0])
            b = sin(a)
            c = probe(b, np.ones(2))
        assert [out for out, _, _ in tape._records] == [a, b, c]

    def test_a_kept_output_does_not_keep_the_graph(self):
        # the tape alone holds the graph: dropping it unreplayed frees every
        # forward buffer, even while the loss it recorded is kept
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with GradTape() as tape:
            mid = T.gather_rows(x, [2, 0, 1, 3])
            loss = probe(mid, rng.normal(size=(4, 3)))
        forward_buffer = weakref.ref(mid.data)
        del mid, tape
        assert forward_buffer() is None
        assert np.isfinite(loss.item())


VJP_CASES = [  # build(*leaves) records one node on leaves of the given shapes
    pytest.param(T.relation_mappings, [(3, 2, 2, 4), (5, 3, 4)], id="relation_mappings"),
    pytest.param(T.relation_mappings, [(1, 2, 2, 4), (5, 3, 4)], id="relation_mappings_shared"),
    pytest.param(lambda x, m: T.grouped_matmul(x, m, np.array([4, 0, 2, 4])),
                 [(4, 2, 3), (3, 2, 3, 3)], id="grouped_matmul"),
    pytest.param(lambda a: T.gather_rows(a, np.array([2, 0, 2])), [(4, 3)], id="gather_rows"),
    pytest.param(lambda a: T.dropout(a, 0.4, np.random.default_rng(5), training=True), [(4, 3)],
                 id="dropout"),
    pytest.param(lambda x, gamma, beta: T.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), True),
                 [(5, 3), (3,), (3,)], id="batch_norm_train"),
    pytest.param(lambda x, gamma, beta: T.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), False),
                 [(5, 3), (3,), (3,)], id="batch_norm_eval"),
    pytest.param(lambda x, gamma, beta: T.batch_norm(x, gamma, beta, np.zeros(6), np.ones(6), True),
                 [(5, 2, 3), (6,), (6,)], id="batch_norm_partitioned_rows"),
    pytest.param(lambda x, gamma, beta: T.batch_norm(x, gamma, beta, np.zeros(3), np.ones(3), True),
                 [(5, 2, 3), (3,), (3,)], id="batch_norm_per_partition"),
    pytest.param(lambda h, t: matmul_softmax_cross_entropy(
        h, t, np.array([0, 1, 3]), np.array([2, 0, 4]), np.array([1.0, 0.5, 0.5]), 0.5),
                 [(2, 2, 3), (5, 2, 3)], id="matmul_softmax_cross_entropy"),
    pytest.param(lambda m, r: T.soft_orthogonality(m, r, np.array([0.3, 1.9]), 0.7, 3),
                 [(2, 3, 2, 2), (2, 3, 2)], id="soft_orthogonality"),
]


@pytest.mark.parametrize("build, shapes", VJP_CASES)
def test_vjp_gives_away_the_adjoints_it_returns(build, shapes):
    # backward adds into every returned adjoint in place, so each must be
    # writeable and share memory with no other adjoint and no input
    rng = np.random.default_rng(41)
    leaves = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    with GradTape() as tape:
        out = build(*leaves)
    assert len(tape) == 1
    ((_, parents, vjp),) = tape._records
    returned = vjp(np.array(rng.normal(size=out.shape)))
    adjoints = [pg.rows if isinstance(pg, T._Rows) else pg for pg in returned]
    assert len(adjoints) == len(parents)  # one per input
    inputs = [leaf.data for leaf in leaves]
    for i, adjoint in enumerate(adjoints):
        assert (isinstance(adjoint, np.generic) and adjoint.ndim == 0) or adjoint.flags.writeable
        for other in adjoints[i + 1:] + inputs:
            assert not np.shares_memory(adjoint, other)


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


def probed(out):
    """<out, w> for a fixed random w of out's shape: the reducer of the gradient checks."""
    return probe(out, _rand(out.shape, 99))


def fd_case(name, build, *arrays):
    """One gradient-vs-finite-difference case: build(params) -> scalar Tensor on copies of arrays."""
    return pytest.param(build, arrays, id=name)


MATS = _rand((2, 3, 4), 4).reshape((2, 3, 2, 2))
PARTS = _rand((2, 3), 1).reshape((2, 3, 1)) * np.array([1.0, 0.5])  # r^T r - 1 takes both signs

GRAD_CASES = [
    fd_case("soft_orthogonality",
            lambda ps: T.soft_orthogonality(ps[0], ps[1], np.array([0.3, 1.9]), 0.0, 3),
            MATS, PARTS),
    fd_case("soft_orthogonality_unit_norm",
            lambda ps: T.soft_orthogonality(ps[0], ps[1], np.array([0.3, 1.9]), 0.7, 3),
            MATS, PARTS),
    fd_case("soft_orthogonality_unit_norm_p2",
            lambda ps: T.soft_orthogonality(ps[0], ps[1], np.array([2.0, 0.5]), 1.3, 2),
            MATS, PARTS),
    fd_case("sin", lambda ps: probed(sin(ps[0])), _rand((2, 3), 1)),
    fd_case(  # a (3, 2, 2, 2) core per partition, (4, 3, 2) partitions
        "relation_mappings", lambda ps: probed(T.relation_mappings(ps[0], ps[1])),
        _rand((3, 2, 2, 2), 5), _rand((4, 3, 2), 4),
    ),
    fd_case(  # one (1, 2, 2, 6) core shared by both partitions of (2, 2, 6) partitions
        "relation_mappings_shared", lambda ps: probed(T.relation_mappings(ps[0], ps[1])),
        _rand((1, 2, 2, 6), 5), _rand((2, 2, 6), 4),
    ),
    fd_case(
        "grouped_matmul",  # rows through mats[2]^T, mats[0] and mats[2]; mats 1, 3, 4, 5 unused
        lambda ps: probed(T.grouped_matmul(ps[0], ps[1], np.array([8, 0, 2]))),
        _rand((3, 1, 2), 1), _rand((6, 1, 2, 2), 4),
    ),
    fd_case("gather", lambda ps: probed(T.gather_rows(ps[0], np.array([1, 0, 1]))),
            _rand((2, 3), 1)),
    fd_case(
        "softmax_ce",
        lambda ps: softmax_cross_entropy(
            ps[0], np.array([[1.0, 0.0, 0.0], [0.25, 0.25, 0.5]])
        ),
        _rand((2, 3), 1),
    ),
    fd_case(
        "softmax_ce_sparse",
        lambda ps: matmul_softmax_cross_entropy(
            ps[0], ps[1], np.array([0, 1, 3]), np.array([2, 0, 7]), np.array([1.0, 0.5, 0.5]), 1.0
        ),
        _rand((2, 3), 1), _rand((8, 3), 4),
    ),
    fd_case(  # (N, K, C) hidden rows against an (M, K, C) table, scaled by 1/N
        "softmax_ce_sparse_partitioned",
        lambda ps: matmul_softmax_cross_entropy(
            ps[0], ps[1], np.array([0, 1, 3]), np.array([2, 0, 7]), np.array([1.0, 0.5, 0.5]), 0.5
        ),
        _rand((2, 3, 2), 1), _rand((8, 3, 2), 4),
    ),
]


@pytest.mark.parametrize("build, arrays", GRAD_CASES)
def test_gradients_match_central_differences(build, arrays):
    params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    assert finite_diff_check(build, params) < 1e-4


def test_dropout_gradient_with_fixed_mask():
    x = Tensor(_rand((4, 5), 9), requires_grad=True)

    def f(ps):
        rng = np.random.default_rng(123)  # same mask on every probe
        return probed(T.dropout(ps[0], 0.4, rng, training=True))

    assert finite_diff_check(f, [x]) < 1e-4


def test_dropout_eval_is_identity():
    x = Tensor(_rand((4, 5), 10))
    out = T.dropout(x, 0.9, None, training=False)
    assert out is x


def test_dropout_preserves_expectation():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((2000, 10)))
    out = T.dropout(x, 0.3, rng, training=True)
    assert out.data.mean() == pytest.approx(1.0, abs=0.02)


class TestBatchNorm:
    @staticmethod
    def identity(features):  # gamma, beta, running mean and running variance
        return (Tensor(np.ones(features), requires_grad=True),
                Tensor(np.zeros(features), requires_grad=True), np.zeros(features), np.ones(features))

    def test_training_normalizes_batch(self):
        x = Tensor(_rand((64, 3), 21))
        out = T.batch_norm(x, *self.identity(3), training=True)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_update_only_in_training(self):
        state = self.identity(2)
        running_mean = state[2]
        x = Tensor(np.full((8, 2), 5.0))
        T.batch_norm(x, *state, training=False)
        np.testing.assert_array_equal(running_mean, np.zeros(2))
        T.batch_norm(x, *state, training=True)
        np.testing.assert_allclose(running_mean, 0.5, rtol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    def test_gradients(self, training):
        running_mean = _rand((3,), 31) * 0.1
        running_var = np.abs(_rand((3,), 32)) + 0.5
        x = Tensor(_rand((6, 3), 33), requires_grad=True)

        def f(ps):
            return probed(T.batch_norm(ps[0], ps[1], ps[2], running_mean, running_var,
                                       training=training))

        gamma = Tensor(_rand((3,), 34), requires_grad=True)
        beta = Tensor(_rand((3,), 35), requires_grad=True)
        assert finite_diff_check(f, [x, gamma, beta]) < 1e-4

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("features", [6, 3], ids=["per-feature", "per-partition"])
    def test_gradients_on_partitioned_rows(self, features, training):
        # (B, K, C) rows: K * C features, or C pooled over the K partitions
        running_mean = _rand((features,), 36) * 0.1
        running_var = np.abs(_rand((features,), 37)) + 0.5
        x = Tensor(_rand((4, 2, 3), 38), requires_grad=True)

        def f(ps):
            return probed(T.batch_norm(ps[0], ps[1], ps[2], running_mean, running_var,
                                       training=training))

        gamma = Tensor(_rand((features,), 39), requires_grad=True)
        beta = Tensor(_rand((features,), 40), requires_grad=True)
        assert finite_diff_check(f, [x, gamma, beta]) < 1e-4

    @pytest.mark.parametrize("features", [6, 3], ids=["per-feature", "per-partition"])
    def test_partitioned_rows_normalize_as_flat_rows(self, features):
        x = _rand((4, 2, 3), 41)
        out = T.batch_norm(Tensor(x), *self.identity(features), training=True)
        flat = T.batch_norm(Tensor(x.reshape((-1, features))), *self.identity(features),
                            training=True)
        assert out.shape == (4, 2, 3)
        np.testing.assert_array_equal(out.data, flat.data.reshape((4, 2, 3)))

    @pytest.mark.parametrize("shape, features", [((6,), 6), ((4, 2, 3), 2), ((4, 4, 3), 6)],
                             ids=["1-d", "part-of-an-axis", "other-width"])
    def test_rows_not_of_whole_trailing_axes_rejected(self, shape, features):
        with pytest.raises(ShapeError, match="batch norm expects"):
            T.batch_norm(Tensor(np.zeros(shape)), *self.identity(features), training=False)


class TestFiniteDiffCheck:
    def test_quadratic_is_exact_to_rounding(self):
        p = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        err = finite_diff_check(lambda ps: sum_of_squares(ps[0]), [p])
        assert err < 1e-9

    def test_sine_against_cosine(self):
        p = Tensor(_rand((5,), 8), requires_grad=True)
        err = finite_diff_check(lambda ps: probe(sin(ps[0]), np.ones(5)), [p])
        assert err < 1e-6
        # cross-check the taped gradient against the analytic cosine
        with GradTape() as tape:
            probe(sin(p), np.ones(5))
        (g,) = backward(tape, [p])
        np.testing.assert_allclose(g, np.cos(p.data), rtol=1e-12)

    def test_nan_probe_reports_infinity(self):
        p = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        err = finite_diff_check(lambda ps: probe(ps[0], [1.0, np.nan, 1.0]), [p])
        assert err == math.inf


def test_worker_threads_never_record_on_foreign_tapes():
    # read-only scoring on a caller's worker threads must not append to a
    # tape owned by another thread
    import concurrent.futures

    p = Tensor(_rand((2, 2, 4), 50), requires_grad=True)

    def score_rows():  # the (1, 2, 2, 4) core gathered from p, and p as (2, 2, 4) parts
        return T.relation_mappings(T.gather_rows(p, [[0, 1]]), p).data.sum()

    with GradTape() as tape:
        probe(T.gather_rows(p, [0, 1]), 2.0 * p.data)
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: score_rows(), range(16)))
    assert len(set(results)) == 1
    assert len(tape) == 2  # gather + probe only
    (grad,) = backward(tape, [p])
    np.testing.assert_allclose(grad, 2.0 * p.data, rtol=1e-15)


def test_public_ops_keep_finite_outputs():
    rng = np.random.default_rng(77)
    a = rng.normal(size=(3, 4)) * 1e3
    b = rng.normal(size=(4, 3)) * 1e3
    penalty = T.soft_orthogonality(Tensor(a.reshape((1, 3, 2, 2))), Tensor(a.reshape((1, 3, 4))),
                                   np.ones(1), 1.0, 3)
    mappings = T.relation_mappings(Tensor(a.reshape((1, 2, 2, 3))), Tensor(b.reshape((4, 1, 3))))
    rows = T.grouped_matmul(Tensor(b.reshape((2, 2, 3))), Tensor(np.broadcast_to(b[:3], (1, 2, 3, 3))),
                            [0, 1])
    for out in [T.gather_rows(a, [2, 0]), mappings, rows, penalty]:
        assert np.all(np.isfinite(out.data))
